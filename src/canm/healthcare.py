"""Semi-synthetic mixed Bayesian network with latent discrete confounders.

The bundled seven-node network has two latent discrete nodes feeding five
conditional-Gaussian ones. Treating four of the continuous nodes as
treatments and one as the outcome gives a generator whose noise is neither
Gaussian nor homoscedastic, which is what makes it a useful stress test for
the estimation pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import UsageError, malformed
from .graph import Dag
from .scm import AceEstimate, InterventionalDataset, parse_intervention, parse_targets
from .util import derive_seed, read_json

TABLE_TOL = 1e-9


@dataclass(frozen=True)
class MixedBayesNet:
    """Discrete roots with CPTs plus conditional-Gaussian continuous nodes."""

    nodes: tuple
    edges: tuple
    latent: frozenset
    discrete: dict
    continuous: dict

    def __post_init__(self):
        for name, spec in self.discrete.items():
            for key, probs in spec["table"].items():
                if abs(sum(probs) - 1.0) > TABLE_TOL:
                    raise UsageError(f"CPT row {key!r} of {name} does not sum to 1")
                if any(p < 0 for p in probs):
                    raise UsageError(f"negative probability in CPT of {name}")
        for name, spec in self.continuous.items():
            var = spec["var"]
            values = var["values"] if var["type"] == "bins" else [var["value"]]
            if any(v <= 0 for v in values):
                raise UsageError(f"non-positive variance for {name}")

    def _mean(self, spec, values, m):
        kind = spec["type"]
        if kind == "table":
            keys = values[spec["on"]].astype(int)
            table = {int(k): float(v) for k, v in spec["values"].items()}
            return np.array([table[k] for k in keys])
        if kind == "linear":
            out = np.full(m, float(spec["intercept"]))
            for parent, coeff in spec["coeffs"].items():
                out = out + float(coeff) * values[parent]
            return out
        raise UsageError(f"unknown mean spec {kind!r}")

    def _std(self, spec, values, m):
        kind = spec["type"]
        if kind == "const":
            return np.full(m, float(spec["value"]) ** 0.5)
        if kind == "bins":
            src = values[spec["on"]]
            idx = np.searchsorted(np.asarray(spec["edges"], dtype=float), src)
            return np.sqrt(np.asarray(spec["values"], dtype=float)[idx])
        raise UsageError(f"unknown variance spec {kind!r}")

    def sample(self, m: int, seed: int, do: dict | None = None) -> dict:
        """Ancestral sampling with hard interventions. ``do`` maps node name
        to a scalar or a length-m vector; intervened nodes ignore parents."""
        if m < 1:
            raise UsageError("m must be >= 1")
        do = do or {}
        rng = np.random.default_rng(seed)
        values: dict = {}
        for name in self.nodes:
            if name in do:
                forced = np.asarray(do[name], dtype=float)
                values[name] = np.full(m, float(forced)) if forced.ndim == 0 else forced
                continue
            if name in self.discrete:
                spec = self.discrete[name]
                if spec["parents"]:
                    # parents are discrete, so vectorize by table row
                    parent_vals = np.stack(
                        [values[p].astype(int) for p in spec["parents"]], axis=1
                    )
                    out = np.empty(m)
                    u = rng.random(m)
                    for row_key, probs in spec["table"].items():
                        mask = np.all(
                            parent_vals == np.array([int(t) for t in row_key.split(",")]),
                            axis=1,
                        )
                        if mask.any():
                            out[mask] = np.searchsorted(np.cumsum(probs), u[mask], side="right")
                    values[name] = out
                else:
                    probs = spec["table"][""]
                    draws = np.searchsorted(np.cumsum(probs), rng.random(m), side="right")
                    values[name] = draws.astype(float)
            else:
                spec = self.continuous[name]
                mean = self._mean(spec["mean"], values, m)
                std = self._std(spec["var"], values, m)
                values[name] = mean + std * rng.standard_normal(m)
        return values


def healthcare_model():
    """Bundled network plus the role map the estimation pipeline needs.

    Returns (net, roles) where roles carries the treatment order, outcome
    name, the observable treatment graph (latent parents dropped), and the
    per-treatment ranges interventions are drawn from.
    """
    cfg = read_json(resources.files("canm.data") / "healthcare.json")
    with malformed("bundled network config"):
        net = MixedBayesNet(
            nodes=tuple(cfg["nodes"]),
            edges=tuple((a, b) for a, b in cfg["edges"]),
            latent=frozenset(cfg["latent"]),
            discrete=cfg["discrete"],
            continuous=cfg["continuous"],
        )
        treatments = tuple(cfg["treatments"])
        index = {name: i for i, name in enumerate(treatments)}
        graph = Dag(
            len(treatments),
            frozenset((index[a], index[b]) for a, b in cfg["observable_edges"]),
        )
        roles = {
            "treatments": treatments,
            "outcome": cfg["outcome"],
            "graph": graph,
            "ranges": {name: tuple(cfg["intervention_ranges"][name]) for name in treatments},
        }
    return net, roles


def healthcare_dataset(net: MixedBayesNet, roles: dict, targets, m: int,
                       seed: int) -> InterventionalDataset:
    """Sample one interventional dataset in the treatment/outcome layout.

    Intervention values are drawn uniformly from each treatment's configured
    range (drawn first, in treatment order, so the draw is reproducible).
    """
    treatments = roles["treatments"]
    targets = parse_targets(targets, len(treatments))
    rng = np.random.default_rng(derive_seed(seed, "values"))
    do = {}
    for idx in sorted(targets):
        name = treatments[idx]
        lo, hi = roles["ranges"][name]
        do[name] = rng.uniform(lo, hi, size=m)
    values = net.sample(m, derive_seed(seed, "net"), do=do)
    cols = [values[name] for name in treatments] + [values[roles["outcome"]]]
    return InterventionalDataset(targets, "uniform_ranges", np.column_stack(cols), seed)


def healthcare_oracle(net: MixedBayesNet, roles: dict, targets, values, m_mc: int,
                      seed: int) -> AceEstimate:
    """Monte-Carlo ground truth E[outcome | do(targets = values)]."""
    treatments = roles["treatments"]
    pinned = parse_intervention(targets, values, len(treatments))
    sampled = net.sample(m_mc, seed, do={treatments[t]: v for t, v in pinned.items()})
    return AceEstimate.of(sampled[roles["outcome"]])
