"""Statistical test calibration and the graphical oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from canm.errors import UsageError
from canm.graph import Admg, Dag, random_dag
from canm.independence import data_ci_test, oracle_ci_test, oracle_dependent
from canm.independence import test_independence as run_test
from canm.scm import InterventionalDataset, random_anm, sample
from reference import d_separated


class TestStatisticalBackends:
    def test_strong_linear_dependence_detected(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal(500)
        ys = xs + 0.1 * rng.standard_normal(500)
        for method in ("dcorr", "pearson"):
            assert run_test(xs, ys, method=method, seed=1).dependent

    def test_quadratic_dependence_needs_dcorr(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal(500)
        ys = xs**2 + 0.05 * rng.standard_normal(500)
        assert run_test(xs, ys, method="dcorr", seed=3).dependent
        # the linear backend is blind to this symmetric relationship
        assert not run_test(xs, ys, method="pearson").dependent

    def test_false_positive_rate_at_level(self):
        rng = np.random.default_rng(4)
        hits = 0
        trials = 1000
        for k in range(trials):
            xs = rng.standard_normal(60)
            ys = rng.standard_normal(60)
            if run_test(xs, ys, method="dcorr", level=0.01,
                                 permutations=200, seed=k).dependent:
                hits += 1
        assert hits / trials <= 0.03

    def test_null_p_values_near_uniform(self):
        rng = np.random.default_rng(5)
        pvals = []
        for k in range(1000):
            xs = rng.standard_normal(30)
            ys = rng.standard_normal(30)
            pvals.append(
                run_test(xs, ys, method="dcorr", permutations=200, seed=k).p_value
            )
        ks = stats.kstest(pvals, "uniform").statistic
        assert ks <= 0.08

    def test_verdict_consistent_with_level(self):
        rng = np.random.default_rng(6)
        xs = rng.standard_normal(100)
        ys = 0.5 * xs + rng.standard_normal(100)
        for method in ("dcorr", "pearson"):
            v = run_test(xs, ys, method=method, level=0.05, seed=7)
            assert v.dependent == (v.p_value < 0.05)

    def test_rejects_bad_inputs(self):
        with pytest.raises(UsageError):
            run_test(np.zeros(30), np.arange(30.0))
        with pytest.raises(UsageError):
            run_test(np.arange(10.0), np.arange(10.0))
        with pytest.raises(UsageError):
            run_test(np.arange(30.0), np.arange(31.0))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        xs = rng.standard_normal(80)
        ys = rng.standard_normal(80)
        a = run_test(xs, ys, method="dcorr", seed=11)
        b = run_test(xs, ys, method="dcorr", seed=11)
        assert a == b


def bfs_reachable(edges, n, targets, src, dst):
    """Independent reachability check with edges into targets removed."""
    children = {v: [] for v in range(n)}
    for a, b in edges:
        if b not in targets:
            children[a].append(b)
    seen, stack = set(), [src]
    while stack:
        v = stack.pop()
        for w in children[v]:
            if w == dst:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


class TestOracle:
    def test_directed_path_survives(self):
        g = Admg(Dag(3, {(0, 1), (1, 2)}))
        assert oracle_dependent(g, {0}, 0, 2) is True

    def test_no_path_means_independent(self):
        g = Admg(Dag(2, {(0, 1)}))
        assert oracle_dependent(g, {1}, 1, 0) is False

    def test_randomization_severs_latent_link(self):
        g = Admg(Dag(3), {(0, 2)})
        assert oracle_dependent(g, {0}, 0, 2) is False

    def test_query_shape_enforced(self):
        g = Admg(Dag(2, {(0, 1)}))
        with pytest.raises(UsageError):
            oracle_dependent(g, {0}, 1, 0)
        with pytest.raises(UsageError):
            oracle_dependent(g, {0, 1}, 0, 1)

    def test_matches_bfs_on_random_graphs(self):
        rng = np.random.default_rng(9)
        for trial in range(60):
            g = random_dag(6, 4, seed=int(rng.integers(1 << 30)))
            admg = Admg(g)
            targets = frozenset(
                int(v) for v in range(6) if rng.random() < 0.5
            ) or frozenset({0})
            for a in sorted(targets):
                for b in range(6):
                    if b in targets:
                        continue
                    got = oracle_dependent(admg, targets, a, b)
                    want = bfs_reachable(g.edges, 6, targets, a, b)
                    assert got == want


@st.composite
def oracle_queries(draw):
    """A random ADMG and an intervention set of at least one node."""
    n = draw(st.integers(2, 8))
    g = random_dag(n, draw(st.integers(1, 4)), seed=draw(st.integers(0, 1 << 30)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    bidirected = draw(st.sets(pair, max_size=n))
    targets = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return Admg(g, frozenset(bidirected)), frozenset(targets)


class TestOracleAgainstDSeparation:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(oracle_queries())
    def test_verdict_is_marginal_m_connection_after_surgery(self, case):
        admg, targets = case
        n = admg.dag.n
        # do(targets) removes every edge and latent link into a target
        cut = Admg(Dag(n, frozenset((a, b) for a, b in admg.dag.edges if b not in targets)),
                   frozenset(p for p in admg.bidirected if not set(p) & targets))
        test = oracle_ci_test(admg)
        ds = InterventionalDataset(targets, "std_normal", np.zeros((1, n + 1)), 0)
        pairs = [(a, b) for a in sorted(targets) for b in range(n) if b not in targets]
        want = [not d_separated(cut, a, b, ()) for a, b in pairs]
        assert [oracle_dependent(admg, targets, a, b) for a, b in pairs] == want
        assert [test(ds, a, b) for a, b in pairs] == want
        assert test.batch(ds, pairs) == want


class TestPearsonBatch:
    def test_batch_agrees_with_scalar_on_random_datasets(self):
        rng = np.random.default_rng(21)
        checked = 0
        for trial in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(20, 400))
            mix = rng.standard_normal((n + 1, n + 1)) * (rng.random((n + 1, n + 1)) < 0.3)
            data = rng.standard_normal((m, n + 1)) @ (np.eye(n + 1) + mix)
            ds = InterventionalDataset(frozenset({0}), "std_normal", data, trial)
            pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
            test = data_ci_test("pearson", level=0.05)
            assert test.batch(ds, pairs) == [test(ds, a, b) for a, b in pairs]
            checked += len(pairs)
        assert checked > 200

    @pytest.mark.parametrize("value", [0.0, 0.1, 1 / 3, 123.456])
    def test_constant_column_raises_on_both_paths(self, value):
        rng = np.random.default_rng(22)
        data = rng.standard_normal((100, 4))
        data[:, 1] = value
        ds = InterventionalDataset(frozenset({0}), "std_normal", data, 0)
        test = data_ci_test("pearson")
        with pytest.raises(UsageError, match="constant"):
            test(ds, 0, 1)
        with pytest.raises(UsageError, match="constant"):
            test.batch(ds, [(0, 2), (0, 1)])


class TestBackendAgreement:
    def test_pearson_agrees_with_oracle_on_linear_models(self):
        # verdicts converge to the graphical truth as samples grow
        rng = np.random.default_rng(10)
        agree = 0
        total = 200
        for k in range(total):
            n = int(rng.integers(3, 7))
            g = random_dag(n, 3, seed=int(rng.integers(1 << 30)))
            anm = random_anm(g, seed=int(rng.integers(1 << 30)))
            targets = frozenset(int(v) for v in rng.choice(n, size=max(1, n // 2), replace=False))
            free = [v for v in range(n) if v not in targets]
            if not free:
                targets = frozenset(list(targets)[:-1])
                free = [v for v in range(n) if v not in targets]
            a = sorted(targets)[int(rng.integers(len(targets)))]
            b = free[int(rng.integers(len(free)))]
            ds = sample(anm, targets, "std_normal", 2000, seed=int(rng.integers(1 << 30)))
            stat = data_ci_test("pearson", level=0.01, seed=k)(ds, a, b)
            orc = oracle_ci_test(Admg(g))(ds, a, b)
            agree += int(stat == orc)
        assert agree / total >= 0.98
