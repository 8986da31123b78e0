"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

These are the exit criteria for the package. Tolerances are pinned here and
derived either from closed forms, from independent brute-force oracles, or
from replicate-based standard errors; nothing is calibrated after the fact.
"""
import math
import sys
import time

import numpy as np

from canm.discovery import (
    check_sufficiency,
    core_intervention_plan,
    learn_observable_graph,
    learn_transitive_closure,
)
from canm.estimation import AceQuery, ace, conditional_ace, fit_model
from canm.graph import Dag, random_dag, shd, transitive_closure
from canm.harness import (
    ExperimentConfig,
    run_discovery_experiment,
    run_healthcare_experiment,
    run_mae_experiment,
    run_sufficiency_experiment,
)
from canm.healthcare import healthcare_model
from canm.independence import oracle_ci_test
from canm.scm import anm_sampler, random_anm, sample
from canm.setsys import strongly_separating
from canm.util import derive_seed
from fixtures import correction_fixture, linear_pair_a, linear_pair_b, product_outcome_pair


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, file=sys.__stderr__, flush=True)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)
    assert ok, line


# -- criterion 1 -------------------------------------------------------------

def test_criterion_01_separating_system():
    t0 = time.time()
    ok = True
    for n in range(2, 1025):
        system = strongly_separating(n)
        if len(system) > 2 * math.ceil(math.log2(n)) or not system.is_strongly_separating():
            ok = False
            break
    elapsed = time.time() - t0
    report("01 separating-system property", ok and elapsed < 30.0,
           f"n=2..1024 in {elapsed:.1f}s")


# -- criterion 2 -------------------------------------------------------------

def _closure_bits(n, masks):
    reach = list(masks)
    changed = True
    while changed:
        changed = False
        for v in range(n):
            agg = reach[v]
            w = agg
            while w:
                low = w & -w
                agg |= reach[low.bit_length() - 1]
                w ^= low
            if agg != reach[v]:
                reach[v] = agg
                changed = True
    return tuple(reach)


def _dfs_closure_edges(g):
    masks = [0] * g.n
    for a, b in g.edges:
        masks[a] |= 1 << b
    reach = _closure_bits(g.n, masks)
    return {(a, b) for a in range(g.n) for b in range(g.n) if reach[a] >> b & 1}


def _exhaustive_reduction_edges(g):
    edges = sorted(g.edges)
    target = _closure_bits(g.n, [sum(1 << b for a2, b in g.edges if a2 == a)
                                 for a in range(g.n)])
    best = None
    for mask in range(1 << len(edges)):
        if best is not None and bin(mask).count("1") >= len(best):
            continue
        rows = [0] * g.n
        for k in range(len(edges)):
            if mask >> k & 1:
                a, b = edges[k]
                rows[a] |= 1 << b
        if _closure_bits(g.n, rows) == target:
            best = [edges[k] for k in range(len(edges)) if mask >> k & 1]
    return set(best)


def test_criterion_02_closure_reduction_oracles():
    from canm.graph import transitive_reduction

    rng = np.random.default_rng(2024)
    done = 0
    ok = True
    while done < 200:
        n = int(rng.integers(2, 9))
        g = random_dag(n, 4, edge_prob=0.45, seed=int(rng.integers(1 << 30)))
        if len(g.edges) > 12:
            continue
        if transitive_closure(g).edges != frozenset(_dfs_closure_edges(g)):
            ok = False
            break
        if transitive_reduction(g).edges != frozenset(_exhaustive_reduction_edges(g)):
            ok = False
            break
        done += 1
    report("02 closure/reduction oracle equivalence", ok, f"{done} graphs")


# -- criterion 3 -------------------------------------------------------------

def test_criterion_03_closure_learning_exact():
    rng = np.random.default_rng(3)
    ok = True
    for trial in range(100):
        n = int(rng.integers(2, 11))
        g = random_dag(n, 4, seed=int(rng.integers(1 << 30)))
        anm = random_anm(g, seed=int(rng.integers(1 << 30)))
        learned = learn_transitive_closure(
            anm_sampler(anm), oracle_ci_test(anm.graph), n, 1, seed=trial
        )
        if shd(learned, transitive_closure(g)) != 0:
            ok = False
            break
        if len(strongly_separating(n)) > 2 * math.ceil(math.log2(n)):
            ok = False
            break
    report("03 ancestral learning exact with oracle", ok, "100 graphs, n<=10")


# -- criterion 4 -------------------------------------------------------------

def test_criterion_04_randomized_discovery_rates():
    t0 = time.time()
    trials = 200
    n, alpha = 20, 3.0
    exact = 0
    sufficient = 0
    budget_ok = True
    for trial in range(trials):
        seed = derive_seed(4004, trial)
        g = random_dag(n, 4, seed=derive_seed(seed, "g"))
        d_max = max(2, g.max_degree())
        anm = random_anm(g, derive_seed(seed, "anm"))
        res = learn_observable_graph(
            anm_sampler(anm), oracle_ci_test(anm.graph),
            n, d_max, alpha, 1, derive_seed(seed, "alg"),
        )
        exact += int(shd(res.learned_graph, g) == 0)
        targets = [ds.targets for ds in res.collected]
        targets += [frozenset(), frozenset(range(n))]
        sufficient += int(check_sufficiency(g, targets).sufficient)
        cap = 8 * alpha * d_max * math.ceil(math.log2(n)) ** 2
        if res.interventions_used > cap:
            budget_ok = False
    elapsed = time.time() - t0
    ok = (exact / trials >= 0.95 and sufficient / trials >= 0.95
          and budget_ok and elapsed < 300.0)
    report("04 randomized discovery success rates", ok,
           f"exact={exact / trials:.3f} sufficient={sufficient / trials:.3f} "
           f"budget_ok={budget_ok} {elapsed:.0f}s")


# -- criterion 5 -------------------------------------------------------------

def test_criterion_05_finite_sample_trends(tmp_path):
    """Graph error shrinks with samples at fixed n, and relative to the
    number of possible edges it shrinks as n grows.

    The per-test level is strict (tens of thousands of dependence tests per
    replication), which puts 300 samples squarely in the finite-sample
    regime the published trends describe. The error-per-possible-edge curve
    is asserted as a trend: negative fitted slope and at least a 2x drop
    from n=3 to n=20. Strict adjacent monotonicity is not claimed: the
    smallest graphs are complete by construction and their per-edge
    dependence is systematically easier, which leaves the first step flat
    at any test level.
    """
    common = dict(seed=5005, replications=50, d_max=3, alpha=1.0,
                  test="pearson", level=1e-10)
    size_cfg = ExperimentConfig(kind="discovery-samples", n=20,
                                sample_sizes=(100, 300, 1000, 3000),
                                out_dir=str(tmp_path / "sizes"), **common)
    path = run_discovery_experiment(size_cfg)
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    shd_by_m = rows[:, 2]
    size_trend = bool(np.all(np.diff(shd_by_m) <= 1e-12))

    n_cfg = ExperimentConfig(kind="discovery-n", n_values=(3, 5, 8, 12, 16, 20),
                             sample_sizes=(300,), out_dir=str(tmp_path / "ns"),
                             **common)
    path = run_discovery_experiment(n_cfg)
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    ns = rows[:, 0]
    ratios = rows[:, 2] / (ns * (ns - 1) / 2)
    slope = float(np.polyfit(ns, ratios, 1)[0])
    ratio_trend = slope < 0.0 and ratios[0] > 0.0 and ratios[-1] <= 0.5 * ratios[0]
    report("05 finite-sample discovery trends", size_trend and ratio_trend,
           f"shd-by-m={np.round(shd_by_m, 2).tolist()} "
           f"ratio-by-n={np.round(ratios, 4).tolist()} slope={slope:.5f}")


# -- criterion 6 -------------------------------------------------------------

def _replicated_pipeline_ace(anm, w, x_w, reps, seed, m_fit=10_000, m_mc=100_000):
    vals = []
    for r in range(reps):
        plan = core_intervention_plan(anm.graph)
        datasets = [
            sample(anm, s, "uniform:-8,8", m_fit, derive_seed(seed, r, sorted(s)))
            for s in plan
        ]
        model = fit_model(anm.graph, datasets)
        q = AceQuery(anm.n, dict(zip(sorted(w), x_w)))
        vals.append(ace(model, q, m_mc, derive_seed(seed, "mc", r)).value)
    vals = np.asarray(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(reps))


def test_criterion_06_closed_form_fixtures():
    reps = 8
    checks = []
    m1, _ = linear_pair_a()
    mean, sem = _replicated_pipeline_ace(m1, {0}, [1.0], reps, seed=601)
    checks.append(("pair-a 3*x1", abs(mean - 3.0) <= 3.0 * sem, mean, 3.0, sem))
    m3, _ = linear_pair_b()
    mean, sem = _replicated_pipeline_ace(m3, {0}, [1.0], reps, seed=602)
    checks.append(("pair-b 5*x1", abs(mean - 5.0) <= 3.0 * sem, mean, 5.0, sem))
    cf = correction_fixture()
    vals = []
    for r in range(reps):
        plan = core_intervention_plan(cf.graph)
        datasets = [
            sample(cf, s, "uniform:-8,8", 10_000, derive_seed(603, r, sorted(s)))
            for s in plan
        ]
        model = fit_model(cf.graph, datasets)
        vals.append(conditional_ace(model, AceQuery(2, {0: 1.0}), [2.0]))
    vals = np.asarray(vals)
    want = 1.0 + 2.0 + 0.5 * (2.0 - 1.0)
    sem = float(vals.std(ddof=1) / np.sqrt(reps))
    checks.append(("correction 3.5", abs(vals.mean() - want) <= 3.0 * sem,
                   float(vals.mean()), want, sem))
    ok = all(c[1] for c in checks)
    detail = " ".join(f"{c[0]}={c[2]:.3f}(vs {c[3]}, sem {c[4]:.3f})" for c in checks)
    report("06 closed-form effect fixtures", ok, detail)


# -- criterion 7 -------------------------------------------------------------

def test_criterion_07_mae_reproduction(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(kind="mae", seed=7007, out_dir=str(tmp_path),
                           replications=50, n=4, d_max=3,
                           sample_sizes=(300, 1000, 3000),
                           mc_draws=50_000, oracle_draws=200_000)
    _, rows = run_mae_experiment(cfg)
    by_size = {}
    for m, label, mae, gate_failures in rows:
        by_size.setdefault(m, []).append(mae)
    means = [float(np.mean(by_size[m])) for m in sorted(by_size)]
    elapsed = time.time() - t0
    final = means[-1]
    ok = (final <= 0.1
          and all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
          and rows[0][3] == 0
          and elapsed < 600.0)
    report("07 estimation error at desk scale", ok,
           f"mean-mae-by-size={np.round(means, 4).tolist()} {elapsed:.0f}s")


# -- criterion 8 -------------------------------------------------------------

def test_criterion_08_non_identifiability_witness():
    m1, m2 = product_outcome_pair()
    m = 100_000
    obs1 = sample(m1, frozenset(), m=m, seed=801)
    obs2 = sample(m2, frozenset(), m=m, seed=802)
    checks = []
    for label, col_fn, want in (
        ("var(x2)", lambda d: d.x(1).var(ddof=1), 3.0),
        ("cov(x1,x2)", lambda d: np.cov(d.x(0), d.x(1))[0, 1], 1.5),
    ):
        a, b = col_fn(obs1), col_fn(obs2)
        se = 3.0 * max(abs(a), abs(b)) * np.sqrt(2.0 / m) + 0.02
        checks.append((label, abs(a - want) < se and abs(b - want) < se))
    x1v, x2v = 0.6, -1.1
    j1 = sample(m1, {0, 1}, f"fixed:{x1v},{x2v}", m, seed=803).y()
    j2 = sample(m2, {0, 1}, f"fixed:{x1v},{x2v}", m, seed=804).y()
    se = np.hypot(j1.std() / np.sqrt(m), j2.std() / np.sqrt(m))
    checks.append(("joint Y mean agreement", abs(j1.mean() - j2.mean()) <= 3.0 * se))
    d1 = sample(m1, {0}, "fixed:1.0", m, seed=805).x(1)
    d2 = sample(m2, {0}, "fixed:1.0", m, seed=806).x(1)
    se = np.hypot(d1.std() / np.sqrt(m), d2.std() / np.sqrt(m))
    gap = d2.mean() - d1.mean()
    checks.append(("do(X1=1) separation 0.2", abs(gap - 0.2) <= 3.0 * se))
    checks.append(("values 1.0 and 1.2",
                   abs(d1.mean() - 1.0) <= 0.02 and abs(d2.mean() - 1.2) <= 0.02))
    ok = all(c[1] for c in checks)
    report("08 joint+observational insufficiency witness", ok,
           " ".join(f"{c[0]}={'ok' if c[1] else 'BAD'}" for c in checks))


# -- criterion 9 -------------------------------------------------------------

def _bump_model_sampler(bump_height, beta=0.7):
    """Two-treatment model with X2 = bump(X1) + U2; the bump fires only on
    the measure-zero event X1 == beta, so regimes that never pin X1 at beta
    cannot tell different bump heights apart."""
    cov = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 1.0]])
    chol = np.linalg.cholesky(cov)

    def draw(targets, values, m, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((m, 3)) @ chol.T
        x1 = np.full(m, values[0]) if 0 in targets else u[:, 0]
        bump = bump_height * (x1 == beta)
        x2 = np.full(m, values[1]) if 1 in targets else bump + u[:, 1]
        y = x1 + x2 + u[:, 2]
        return np.column_stack([x1, x2, y])

    return draw


def test_criterion_09_necessity_demonstration():
    m = 120_000
    s1 = _bump_model_sampler(2.0)
    s2 = _bump_model_sampler(-1.0)
    checks = []
    # regimes available without any valid witness for X2: observational,
    # do(X2), and the joint (values may even sit on the bump point)
    regimes = [
        ("obs", frozenset(), (np.nan, np.nan)),
        ("do(x2)", frozenset({1}), (np.nan, 0.4)),
        ("joint", frozenset({0, 1}), (0.7, -0.3)),
    ]
    for label, targets, values in regimes:
        a = s1(targets, values, m, seed=901)
        b = s2(targets, values, m, seed=902)
        agree = True
        for col in range(3):
            mu_a, mu_b = a[:, col].mean(), b[:, col].mean()
            se = np.hypot(a[:, col].std() / np.sqrt(m), b[:, col].std() / np.sqrt(m))
            if abs(mu_a - mu_b) > 3.0 * se + 1e-9:
                agree = False
        checks.append((f"agree on {label}", agree))
    # the only distinguishing regime pins X1 exactly at the bump point
    a = s1(frozenset({0}), (0.7, np.nan), m, seed=903)
    b = s2(frozenset({0}), (0.7, np.nan), m, seed=904)
    gap = a[:, 1].mean() - b[:, 1].mean()
    checks.append(("do(X1=beta) separates", abs(gap - 3.0) < 0.05))
    gate = check_sufficiency(
        Dag(2, {(0, 1)}), [frozenset(), frozenset({1}), frozenset({0, 1})]
    )
    checks.append(("gate reports missing witness", (not gate.sufficient)
                   and gate.missing == (1,)))
    ok = all(c[1] for c in checks)
    report("09 witness necessity demonstration", ok,
           " ".join(f"{c[0]}={'ok' if c[1] else 'BAD'}" for c in checks))


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_gate_exactness():
    rng = np.random.default_rng(10)
    pool = [frozenset(), frozenset(range(5)), frozenset({0}), frozenset({1}),
            frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3, 4}),
            frozenset({0, 2, 3}), frozenset({0, 1, 2, 3}), frozenset({3})]
    ok = True
    for trial in range(500):
        n = int(rng.integers(2, 6))
        g = random_dag(n, 4, seed=int(rng.integers(1 << 30)))
        k = int(rng.integers(1, 7))
        picks = [frozenset(v for v in pool[i] if v < n)
                 for i in rng.choice(len(pool), size=k)]
        flags = tuple(bool(rng.random() < 0.3) for _ in range(n))
        rep = check_sufficiency(g, picks, flags)
        full = frozenset(range(n))
        pa = g.parent_sets()
        want = (
            full in picks and frozenset() in picks
            and all(flags[i] or any(pa[i] <= s and i not in s for s in picks)
                    for i in range(n))
        )
        if rep.sufficient != want:
            ok = False
            break
    report("10 sufficiency gate exactness", ok, "500 (graph, targets, flags) cases")


# -- criterion 11 ------------------------------------------------------------

def test_criterion_11_healthcare_study(tmp_path):
    net, roles = healthcare_model()
    g = roles["graph"]
    plan = [frozenset(), frozenset({0, 1}), frozenset(range(4))]
    gate = check_sufficiency(g, plan)
    m = 3000
    cfg = ExperimentConfig(kind="healthcare", seed=1101, out_dir=str(tmp_path / "hc"),
                           replications=2, sample_sizes=(m,), regressor="knn",
                           knn_k=10, mc_draws=20_000, oracle_draws=100_000)
    _, rows = run_healthcare_experiment(cfg)
    finite = all(np.isfinite(r[2]) for r in rows) and len(rows) == 16
    hc_mae = float(np.mean([r[2] for r in rows]))
    lin_cfg = ExperimentConfig(kind="mae", seed=1102, out_dir=str(tmp_path / "lin"),
                               replications=6, n=4, d_max=3, sample_sizes=(m,),
                               pairwise_prob_y=0.0, mc_draws=20_000,
                               oracle_draws=100_000)
    _, lin_rows = run_mae_experiment(lin_cfg)
    lin_mae = float(np.mean([r[2] for r in lin_rows]))
    ok = gate.sufficient and finite and hc_mae > lin_mae
    report("11 semi-synthetic network study", ok,
           f"gate={gate.sufficient} finite={finite} "
           f"mae={hc_mae:.3f} > linear {lin_mae:.3f}")


# -- criterion 12 ------------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    pairs = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig(kind="sufficiency", seed=1201,
                               out_dir=str(tmp_path / f"suff-{sub}"),
                               replications=10, n=8, d_max=3, max_interventions=40)
        pairs.append(open(run_sufficiency_experiment(cfg), "rb").read())
    same_suff = pairs[0] == pairs[1]
    pairs = []
    for sub in ("c", "d"):
        cfg = ExperimentConfig(kind="discovery-samples", seed=1202,
                               out_dir=str(tmp_path / f"disc-{sub}"),
                               replications=3, n=6, d_max=2, alpha=1.0,
                               sample_sizes=(60, 120), test="pearson")
        pairs.append(open(run_discovery_experiment(cfg), "rb").read())
    same_disc = pairs[0] == pairs[1]
    pairs = []
    for sub in ("e", "f"):
        cfg = ExperimentConfig(kind="mae", seed=1203,
                               out_dir=str(tmp_path / f"mae-{sub}"),
                               replications=2, n=3, d_max=2, sample_sizes=(400,),
                               mc_draws=2000, oracle_draws=10_000)
        pairs.append(open(run_mae_experiment(cfg)[0], "rb").read())
    same_mae = pairs[0] == pairs[1]
    ok = same_suff and same_disc and same_mae
    report("12 byte-identical reruns", ok,
           f"sufficiency={same_suff} discovery={same_disc} mae={same_mae}")
