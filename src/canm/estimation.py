"""Effect estimation from a small collection of interventional datasets.

The pipeline fits shifted structural equations (each absorbs its unknown
noise mean into the intercept): the outcome equation from the joint
intervention, each treatment equation from a dataset that randomizes a
superset of its parents without touching the treatment itself, and the noise
covariance from observational residuals. Any mean effect E[Y|do(W)] then
follows by conditioning the jointly Gaussian noise and marginalizing the
free treatments by Monte Carlo. A query is an ``AceQuery``, whose
``pinned`` rows carry its intervened values into every evaluation, and an
estimate is an ``scm.AceEstimate``, built by ``AceEstimate.of`` from the
Monte-Carlo draws.

Fitted models are immutable; effect queries are pure given a seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .discovery import check_sufficiency
from .errors import IdentifiabilityError, NumericalError, SingularFitError, UsageError, malformed
from .graph import Dag, integer, node_flags, node_index
from .scm import (AceEstimate, InterventionalDataset, NoiseSpec, StructuralFunction,
                  parse_intervention)
from .util import chol_factor, read_json, repair_psd, write_json

OUTCOME = "y"
RIDGE_SCALE = 1e-8
MIN_ROWS_PER_PARAM = 10


def _ols(x: np.ndarray, parents, target: np.ndarray) -> StructuralFunction:
    """Least squares on the basis [1, x_p ..., x_p * x_q ...] over sorted
    parents: each term is the tuple of the parents it multiplies."""
    ps = sorted(parents)
    terms = [(p,) for p in ps] + [(p, q) for i, p in enumerate(ps) for q in ps[i + 1:]]
    cols = [x[:, t[0]] if len(t) == 1 else x[:, t[0]] * x[:, t[1]] for t in terms]
    design = np.column_stack([np.ones(x.shape[0])] + cols)
    if target.shape[0] < MIN_ROWS_PER_PARAM * design.shape[1]:
        raise UsageError(
            f"need at least {MIN_ROWS_PER_PARAM * design.shape[1]} rows to fit "
            f"{design.shape[1]} parameters, got {target.shape[0]}"
        )
    theta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        scales = np.linalg.norm(design - design.mean(axis=0), axis=0)
        names = ["*".join(f"x{p}" for p in t) for t in terms]
        bad = [name for name, scale in zip(names, scales[1:]) if scale < 1e-10]
        raise SingularFitError(
            f"rank-deficient design (rank {rank} < {design.shape[1]}); "
            f"suspect features: {bad or names}"
        )
    coeffs = dict(zip(terms, map(float, theta[1:])))
    linear = {t[0]: c for t, c in coeffs.items() if len(t) == 1}
    pairwise = {t: c for t, c in coeffs.items() if len(t) == 2}
    return StructuralFunction(float(theta[0]), linear, pairwise)


@dataclass(frozen=True)
class FittedEquation:
    """Shifted structural equation f' = f + E[U] on the generator's basis."""

    node: object
    parents: frozenset
    form: StructuralFunction

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.form.evaluate(x)

    def to_json(self) -> dict:
        return {"kind": "basis", "node": self.node,
                "parents": sorted(self.parents), "form": self.form.to_json()}


@dataclass(frozen=True)
class KnnEquation:
    """k-nearest-neighbor regression behind the same predict() surface,
    for model-misspecification studies. Features are standardized before
    the tree is built."""

    node: object
    parents: frozenset
    k: int
    train_x: np.ndarray
    train_y: np.ndarray
    center: np.ndarray
    scale: np.ndarray

    @cached_property
    def _tree(self):
        # imported here so only k-NN runs pay for scipy.spatial
        from scipy.spatial import cKDTree

        return cKDTree((self.train_x - self.center) / self.scale)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if not self.parents:
            return np.full(x.shape[0], float(self.train_y.mean()))
        q = (x[:, sorted(self.parents)] - self.center) / self.scale
        _, idx = self._tree.query(q, k=min(self.k, len(self.train_y)))
        if idx.ndim == 1:
            idx = idx[:, None]
        return self.train_y[idx].mean(axis=1)

    def to_json(self) -> dict:
        return {
            "kind": "knn", "node": self.node, "parents": sorted(self.parents),
            "k": int(self.k), "train_x": self.train_x.tolist(),
            "train_y": self.train_y.tolist(),
            "center": self.center.tolist(), "scale": self.scale.tolist(),
        }


def _equation_from_json(obj: dict):
    parents = frozenset(map(node_index, obj["parents"]))
    if obj["kind"] == "basis":
        return FittedEquation(obj["node"], parents, StructuralFunction.from_json(obj["form"]))
    if obj["kind"] == "knn":
        return KnnEquation(
            obj["node"], parents, integer(obj["k"]),
            np.asarray(obj["train_x"], dtype=float),
            np.asarray(obj["train_y"], dtype=float),
            np.asarray(obj["center"], dtype=float),
            np.asarray(obj["scale"], dtype=float),
        )
    raise UsageError(f"unknown equation kind {obj.get('kind')!r}")


def _fit_equation(node, parents, x, target, regressor, knn_k):
    parents = frozenset(parents)
    if regressor == "basis":
        return FittedEquation(node, parents, _ols(x, parents, target))
    if regressor == "knn":
        if knn_k < 1:
            raise UsageError(f"knn_k must be >= 1, got {knn_k}")
        if parents:
            feats = x[:, sorted(parents)]
            center = feats.mean(axis=0)
            scale = feats.std(axis=0)
            scale[scale == 0.0] = 1.0
        else:
            feats = np.zeros((x.shape[0], 0))
            center = np.zeros(0)
            scale = np.ones(0)
        return KnnEquation(node, parents, int(knn_k), feats, target.copy(), center, scale)
    raise UsageError(f"unknown regressor {regressor!r}")


@dataclass(frozen=True)
class EstimatedModel:
    """Fitted shifted equations plus the estimated noise covariance, kept
    as given (``fit_model`` repairs it once)."""

    graph: Dag
    eq: tuple
    eq_y: object
    sigma_hat: np.ndarray
    fitted_from: tuple
    independent_flags: tuple = ()

    def __post_init__(self):
        n = self.graph.n
        sigma = np.asarray(self.sigma_hat, dtype=float)
        if sigma.shape != (n + 1, n + 1):
            raise UsageError("sigma_hat must be (n+1) x (n+1)")
        object.__setattr__(self, "sigma_hat", sigma)
        object.__setattr__(self, "eq", tuple(self.eq))
        object.__setattr__(self, "fitted_from",
                           tuple(frozenset(s) for s in self.fitted_from))
        object.__setattr__(self, "independent_flags", node_flags(self.independent_flags, n))

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class AceQuery:
    """Query E[Y|do(intervened)], the other treatments marginalized;
    ``intervened`` (a mapping or pairs) is read by ``scm.parse_intervention``."""

    n: int
    intervened: tuple

    def __init__(self, n: int, intervened):
        items = sorted(intervened.items() if hasattr(intervened, "items") else intervened,
                       key=lambda item: node_index(item[0]))
        pinned = parse_intervention([k for k, _ in items], [v for _, v in items], n)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "intervened", tuple(pinned.items()))

    @property
    def marginalized(self) -> tuple:
        done = {k for k, _ in self.intervened}
        return tuple(i for i in range(self.n) if i not in done)

    def pinned(self, m: int) -> np.ndarray:
        """m column-major rows over all n treatments: the intervened values
        set, every other entry 0."""
        x = np.zeros((m, self.n), order="F")
        for k, v in self.intervened:
            x[:, k] = v
        return x


def fit_outcome_equation(joint_ds: InterventionalDataset, regressor: str = "basis",
                         knn_k: int = 10):
    """Fit the outcome on all treatments from the joint interventional data;
    the intercept absorbs the outcome noise mean."""
    n = joint_ds.n
    if joint_ds.targets != frozenset(range(n)):
        raise IdentifiabilityError(
            "outcome equation needs the joint intervention on all treatments"
        )
    return _fit_equation(OUTCOME, range(n), joint_ds.treatments(), joint_ds.y(),
                         regressor, knn_k)


def fit_treatment_equation(i: int, parents, ds: InterventionalDataset,
                           regressor: str = "basis", knn_k: int = 10):
    """Fit treatment i on its parent features from a dataset that randomizes
    a superset of the parents and leaves i untouched."""
    parents = frozenset(map(node_index, parents))
    if i in ds.targets:
        raise IdentifiabilityError(f"dataset intervenes on treatment {i} itself")
    if not parents <= ds.targets:
        raise IdentifiabilityError(
            f"dataset targets {sorted(ds.targets)} do not cover parents "
            f"{sorted(parents)} of treatment {i}"
        )
    return _fit_equation(i, parents, ds.treatments(), ds.x(i), regressor, knn_k)


def estimate_noise_cov(obs_ds: InterventionalDataset, eqs, eq_y) -> np.ndarray:
    """Sample covariance of observational residuals X_i - f'_i(parents) and
    Y - f'_Y(X). Shifted equations leave residual means near zero and shifts
    cancel out of the covariance entirely."""
    if obs_ds.targets:
        raise UsageError("noise covariance must be estimated from observational data")
    eqs = tuple(eqs)
    n = obs_ds.n
    if len(eqs) != n or eq_y is None:
        raise UsageError("all treatment equations and the outcome equation are required")
    x = obs_ds.treatments()
    resid = np.empty((obs_ds.m, n + 1))
    for i in range(n):
        resid[:, i] = obs_ds.x(i) - eqs[i].predict(x)
    resid[:, n] = obs_ds.y() - eq_y.predict(x)
    cov = np.cov(resid, rowvar=False, ddof=1)
    return repair_psd(np.atleast_2d(cov))


def fit_model(graph: Dag, datasets, independent_flags=None, regressor: str = "basis",
              knn_k: int = 10) -> EstimatedModel:
    """Run the whole fitting pipeline over a dataset collection.

    Requires the identifiability gate to pass: a joint dataset, an
    observational dataset, and one witness dataset per unflagged treatment.
    """
    datasets = tuple(datasets)
    n = graph.n
    sizes = sorted({ds.n for ds in datasets} - {n})
    if sizes:
        raise UsageError(f"graph has {n} treatments but datasets have {sizes}")
    flags = node_flags(independent_flags, n)
    targets_list = [ds.targets for ds in datasets]
    report = check_sufficiency(graph, targets_list, flags)
    if not report.sufficient:
        raise IdentifiabilityError(
            f"insufficient intervention targets; missing witnesses for "
            f"treatments {list(report.missing)}"
            + ("" if report.has_joint else "; no joint intervention")
            + ("" if report.has_observational else "; no observational data"),
            report=report,
        )
    full = frozenset(range(n))
    joint_ds = datasets[targets_list.index(full)]
    obs_ds = datasets[targets_list.index(frozenset())]
    eq_y = fit_outcome_equation(joint_ds, regressor, knn_k)
    pa = graph.parent_sets()
    eqs = []
    for i in range(n):
        if flags[i]:
            # the exogeneity of U_i, which the flag asserts, lets treatment i
            # regress on its observed parents
            eqs.append(_fit_equation(i, pa[i], obs_ds.treatments(), obs_ds.x(i),
                                     regressor, knn_k))
        else:
            eqs.append(fit_treatment_equation(i, pa[i], datasets[report.witness[i]],
                                              regressor, knn_k))
    # a fitted sigma_hat gets this looser pass after estimate_noise_cov's,
    # here and only here, so a loaded model keeps the covariance fit saved
    sigma = repair_psd(estimate_noise_cov(obs_ds, eqs, eq_y), tol=1e-6)
    return EstimatedModel(graph, tuple(eqs), eq_y, sigma,
                          tuple(targets_list), flags)


def _marginal_blocks(model: EstimatedModel, marg):
    idx = list(marg)
    n = model.n
    sigma_oo = model.sigma_hat[np.ix_(idx, idx)]
    sigma_yo = model.sigma_hat[n, idx]
    return sigma_oo, sigma_yo


def _correction_weights(sigma_oo: np.ndarray, sigma_yo: np.ndarray) -> np.ndarray:
    beta = sigma_oo.shape[0]
    ridge = RIDGE_SCALE * np.trace(sigma_oo) / beta
    stabilized = sigma_oo + ridge * np.eye(beta)
    cond = np.linalg.cond(stabilized)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(
            f"noise covariance block is singular after ridge repair "
            f"(condition number {cond:.3e})"
        )
    return np.linalg.solve(stabilized, sigma_yo)


def _gate(model: EstimatedModel, q: AceQuery) -> None:
    if q.n != model.n:
        raise UsageError(f"query is over {q.n} treatments, model has {model.n}")
    report = check_sufficiency(model.graph, model.fitted_from, model.independent_flags)
    if not report.sufficient:
        raise IdentifiabilityError(
            f"model provenance fails the identifiability gate; missing "
            f"witnesses for treatments {list(report.missing)}",
            report=report,
        )


def conditional_ace(model: EstimatedModel, q: AceQuery, x_marg) -> float:
    """Mean outcome under do(intervened) conditional on observing the free
    treatments at x_marg: the fitted outcome plus the Gaussian conditional
    correction through the noise covariance."""
    _gate(model, q)
    marg = q.marginalized
    x_marg = np.asarray(x_marg, dtype=float).reshape(-1)
    if len(x_marg) != len(marg):
        raise UsageError(f"expected {len(marg)} conditioning values, got {len(x_marg)}")
    row = q.pinned(1)
    for j, node in enumerate(marg):
        row[0, node] = x_marg[j]
    base = float(model.eq_y.predict(row)[0])
    if not marg:
        return base
    residual = np.array(
        [x_marg[j] - float(model.eq[node].predict(row)[0]) for j, node in enumerate(marg)]
    )
    sigma_oo, sigma_yo = _marginal_blocks(model, marg)
    weights = _correction_weights(sigma_oo, sigma_yo)
    return base + float(weights @ residual)


def ace(model: EstimatedModel, q: AceQuery, m_mc: int = 100_000, seed: int = 0) -> AceEstimate:
    """Estimate E[Y|do(intervened)] by marginalizing the free treatments.

    Draws centered noise for the free treatments from the fitted covariance,
    propagates them through the shifted equations in topological order with
    intervened parents pinned, and averages the fitted outcome plus the
    conditional correction. For a propagated draw the conditional residual
    equals the drawn noise exactly, so the correction is computed from the
    draw itself. When every treatment is intervened the fitted outcome is
    returned directly and no randomness is consumed.
    """
    if m_mc < 1:
        raise UsageError("m_mc must be >= 1")
    _gate(model, q)
    marg = q.marginalized
    if not marg:
        est = AceEstimate(float(model.eq_y.predict(q.pinned(1))[0]), 0.0)
    else:
        sigma_oo, sigma_yo = _marginal_blocks(model, marg)
        weights = _correction_weights(sigma_oo, sigma_yo)
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((m_mc, len(marg))) @ chol_factor(sigma_oo).T
        x = q.pinned(m_mc)  # column-major for the equations' reads
        col = {node: j for j, node in enumerate(marg)}
        for node in (v for v in model.graph.order if v in col):
            x[:, node] = model.eq[node].predict(x) + noise[:, col[node]]
        est = AceEstimate.of(model.eq_y.predict(x) + noise @ weights)
    if not (np.isfinite(est.value) and np.isfinite(est.stderr)):
        raise NumericalError(f"effect estimate {est.value} with stderr {est.stderr} "
                             "is not finite")
    return est


def model_to_json(model: EstimatedModel) -> dict:
    return {
        "graph": model.graph.to_json(),
        "equations": [eq.to_json() for eq in model.eq],
        "outcome_equation": model.eq_y.to_json(),
        "sigma_hat": model.sigma_hat.tolist(),
        "fitted_from": [sorted(s) for s in model.fitted_from],
        "independent_flags": list(model.independent_flags),
    }


def _check_equation(eq, node, parents) -> None:
    """A loaded equation is for ``node``, over exactly the ``parents`` the
    model's graph gives it, and reads no other column."""
    where = f"equation for node {node!r}"
    if type(eq.node) is not type(node) or eq.node != node:
        raise UsageError(f"{where}: found node {eq.node!r} in its place "
                         f"(equations are listed in node order)")
    if eq.parents != parents:
        raise UsageError(f"{where}: parents {sorted(eq.parents)} do not match "
                         f"the graph's {sorted(parents)}")
    if isinstance(eq, FittedEquation):
        stray = eq.form.referenced() - parents
        if stray:
            raise UsageError(f"{where}: terms reference non-parents {sorted(stray)}")
        return
    m, p = eq.train_y.size, len(parents)
    if (eq.k < 1 or m < 1 or eq.train_y.shape != (m,) or eq.train_x.shape != (m, p)
            or eq.center.shape != (p,) or eq.scale.shape != (p,)):
        raise UsageError(f"{where}: k-NN arrays have inconsistent shapes")
    arrays = (eq.train_x, eq.train_y, eq.center, eq.scale)
    if not all(np.all(np.isfinite(a)) for a in arrays) or np.any(eq.scale <= 0):
        raise UsageError(f"{where}: k-NN arrays must be finite, with a positive scale")


def model_from_json(obj: dict) -> EstimatedModel:
    """Read a model saved by ``model_to_json``. Raises UsageError unless the
    equations are listed in node order, each over exactly its graph parents
    (the outcome over all treatments) with terms on those alone and k-NN
    arrays of matching shapes, and ``sigma_hat`` passes the checks of the
    noise covariance it estimates (``scm.NoiseSpec``). Nothing is repaired:
    the model reads back exactly as ``fit_model`` made it."""
    with malformed("model JSON"):
        graph = Dag.from_json(obj["graph"])
        eqs = tuple(_equation_from_json(e) for e in obj["equations"])
        eq_y = _equation_from_json(obj["outcome_equation"])
        sigma = np.asarray(obj["sigma_hat"], dtype=float)
        fitted_from = tuple(frozenset(s) for s in obj["fitted_from"])
        flags = node_flags(obj.get("independent_flags"), graph.n)
    if len(eqs) != graph.n:
        raise UsageError(f"graph has {graph.n} treatments but the model lists "
                         f"{len(eqs)} equations")
    for i, parents in enumerate(graph.parent_sets()):
        _check_equation(eqs[i], i, parents)
    _check_equation(eq_y, OUTCOME, frozenset(range(graph.n)))
    try:
        NoiseSpec(np.zeros(graph.n + 1), sigma)
    except UsageError as exc:
        raise UsageError(f"sigma_hat: {exc}") from None
    return EstimatedModel(graph, eqs, eq_y, sigma, fitted_from, flags)


def save_model(model: EstimatedModel, path) -> None:
    write_json(path, model_to_json(model))


def load_model(path) -> EstimatedModel:
    return model_from_json(read_json(path))
