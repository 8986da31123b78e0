"""Statistical test calibration and the graphical oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from canm import independence
from canm.errors import UsageError
from canm.graph import Dag, random_dag
from canm.independence import MIN_SAMPLES, data_ci_test, oracle_ci_test
from canm.independence import test_independence as run_test
from canm.scm import InterventionalDataset, random_anm, sample
from canm.util import derive_seed
from reference import d_separated, pearson_scalar_p_value


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


def zeros_dataset(targets, n):
    return InterventionalDataset(frozenset(targets), "std_normal", np.zeros((1, n + 1)), 0)


def oracle_verdicts(g, targets, pairs):
    """The oracle's verdicts for (intervened, free) pairs under do(targets),
    read off its bit rows; its scalar test must agree with each."""
    test = oracle_ci_test(g)
    ds = zeros_dataset(targets, g.n)
    sources = sorted(targets)
    rows = dict(zip(sources, test.batch(ds, sources)))
    verdicts = [bool(rows[a] >> b & 1) for a, b in pairs]
    assert verdicts == [test(ds, a, b) for a, b in pairs]
    return verdicts


class TestOracle:
    def test_directed_path_survives(self):
        assert oracle_verdicts(Dag(3, {(0, 1), (1, 2)}), {0}, [(0, 2)]) == [True]

    def test_no_path_means_independent(self):
        assert oracle_verdicts(Dag(2, {(0, 1)}), {1}, [(1, 0)]) == [False]

    def test_randomization_severs_latent_link(self):
        # 0 <-> 2 are confounded until do(0) cuts the latent link into 0
        assert not d_separated(Dag(3), 0, 2, (), {(0, 2)})
        assert oracle_verdicts(Dag(3), {0}, [(0, 2)]) == [False]

    def test_query_shape_enforced(self):
        test = oracle_ci_test(Dag(2, {(0, 1)}))
        # a not intervened; b intervened; b not a node of the graph (of the
        # dataset, or of the graph only)
        for ds, pair in ((zeros_dataset({0}, 2), (1, 0)), (zeros_dataset({0, 1}, 2), (0, 1)),
                         (zeros_dataset({0}, 2), (0, 2)), (zeros_dataset({0}, 3), (0, 2))):
            with pytest.raises(UsageError):
                test(ds, *pair)
        # a source not intervened; a dataset over more treatments than the graph
        for ds, sources in ((zeros_dataset({0}, 2), [1]), (zeros_dataset({0}, 2), [0, 1]),
                            (zeros_dataset({0}, 3), [0])):
            with pytest.raises(UsageError):
                test.batch(ds, sources)

    def test_matches_bfs_on_random_graphs(self):
        rng = np.random.default_rng(9)
        for trial in range(60):
            g = random_dag(6, 4, seed=int(rng.integers(1 << 30)))
            targets = frozenset(
                int(v) for v in range(6) if rng.random() < 0.5
            ) or frozenset({0})
            pairs = [(a, b) for a in sorted(targets) for b in range(6) if b not in targets]
            want = [bfs_reachable(g.edges, 6, targets, a, b) for a, b in pairs]
            assert oracle_verdicts(g, targets, pairs) == want


@st.composite
def oracle_queries(draw):
    """A random DAG, latent links as bidirected pairs, and an intervention
    set of at least one node."""
    n = draw(st.integers(2, 8))
    g = random_dag(n, draw(st.integers(1, 4)), seed=draw(st.integers(0, 1 << 30)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    bidirected = draw(st.sets(pair, max_size=n))
    targets = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return g, frozenset(bidirected), frozenset(targets)


class TestOracleAgainstDSeparation:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(oracle_queries())
    def test_verdict_is_marginal_m_connection_after_surgery(self, case):
        g, bidirected, targets = case
        # do(targets) removes every edge and latent link into a target
        cut = Dag(g.n, frozenset((a, b) for a, b in g.edges if b not in targets))
        kept = frozenset(p for p in bidirected if not set(p) & targets)
        sources, free = sorted(targets), [b for b in range(g.n) if b not in targets]
        want = [sum(1 << b for b in free if not d_separated(cut, a, b, (), kept))
                for a in sources]
        assert oracle_ci_test(g).batch(zeros_dataset(targets, g.n), sources) == want
        oracle_verdicts(g, targets, [(a, b) for a in sources for b in free])  # scalar agrees


class TestPearsonBatch:
    def test_batch_agrees_with_scalar_on_random_datasets(self):
        rng = np.random.default_rng(21)
        checked = 0
        for trial in range(80):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(20, 400))
            mix = rng.standard_normal((n + 1, n + 1)) * (rng.random((n + 1, n + 1)) < 0.3)
            data = rng.standard_normal((m, n + 1)) @ (np.eye(n + 1) + mix)
            targets = frozenset(int(v) for v in
                                rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            ds = InterventionalDataset(targets, "std_normal", data, trial)
            sources = sorted(targets)
            pairs = [(a, b) for a in sources for b in range(n) if b not in targets]
            test = data_ci_test("pearson", level=0.05)
            rows = dict(zip(sources, test.batch(ds, sources)))
            verdicts = [bool(rows[a] >> b & 1) for a, b in pairs]
            assert verdicts == [test(ds, a, b) for a, b in pairs]
            assert verdicts == [run_test(ds.x(a), ds.x(b), method="pearson", level=0.05).dependent
                                for a, b in pairs]
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
            run_test(ds.x(0), ds.x(1), method="pearson")
        with pytest.raises(UsageError, match="constant"):
            test(ds, 0, 1)
        with pytest.raises(UsageError, match="constant"):
            test.batch(ds, [0])


class TestDataTestPairs:
    def test_unknown_method_is_refused_at_construction(self):
        with pytest.raises(UsageError, match="unknown independence test"):
            data_ci_test("bogus")

    def test_dcorr_batch_is_the_scalar_test_per_pair(self):
        rng = np.random.default_rng(23)
        data = rng.standard_normal((40, 5))
        data[:, 2] += data[:, 0]
        ds = InterventionalDataset(frozenset({0, 1}), "std_normal", data, 7)
        pairs = [(0, 2), (0, 3), (1, 2), (1, 3)]
        test = data_ci_test("dcorr", level=0.05, permutations=50, seed=3)
        want = [run_test(ds.x(a), ds.x(b), method="dcorr", level=0.05, permutations=50,
                         seed=derive_seed(3, 7, a, b)).dependent for a, b in pairs]
        rows = test.batch(ds, [0, 1])
        assert [bool(rows[a] >> b & 1) for a, b in pairs] == want
        assert [test(ds, a, b) for a, b in pairs] == want
        assert want[0]

    def test_scalar_dcorr_runs_one_permutation_test(self, monkeypatch):
        rng = np.random.default_rng(25)
        ds = InterventionalDataset(frozenset({0}), "std_normal", rng.standard_normal((40, 7)), 4)
        pairs = []

        def counted(xs, ys, **kwargs):
            pairs.append(kwargs["seed"])
            return run_test(xs, ys, **kwargs)

        monkeypatch.setattr(independence, "test_independence", counted)
        test = data_ci_test("dcorr", level=0.05, permutations=20, seed=3)
        assert test(ds, 0, 4) == run_test(ds.x(0), ds.x(4), method="dcorr", level=0.05,
                                          permutations=20, seed=derive_seed(3, 4, 0, 4)).dependent
        assert pairs == [derive_seed(3, 4, 0, 4)]  # five free treatments, one test

    @pytest.mark.parametrize("method", ["pearson", "dcorr"])
    @pytest.mark.parametrize("b", [-1, 3, 7])  # 3 and -1 name the outcome column Y
    def test_pair_outside_the_treatments_raises_on_both_paths(self, method, b):
        rng = np.random.default_rng(24)
        ds = InterventionalDataset(frozenset({0}), "std_normal", rng.standard_normal((50, 4)), 0)
        test = data_ci_test(method, permutations=20)
        with pytest.raises(UsageError, match="treatments 0..2"):
            test(ds, 0, b)
        with pytest.raises(UsageError, match="treatments 0..2"):
            test.batch(ds, [0, b])
        with pytest.raises(UsageError, match="treatments 0..2"):
            test.batch(ds, [b])


@st.composite
def row_queries(draw, max_n=7, max_samples=300):
    """A random linear model's treatment DAG and one dataset of it under an
    intervention set that leaves at least one treatment free."""
    n = draw(st.integers(2, max_n))
    g = random_dag(n, draw(st.integers(1, 4)), seed=draw(st.integers(0, 1 << 30)))
    anm = random_anm(g, seed=draw(st.integers(0, 1 << 30)))
    targets = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    m = draw(st.integers(MIN_SAMPLES, max_samples))
    return g, sample(anm, frozenset(targets), "std_normal", m, draw(st.integers(0, 1 << 30)))


class TestRowsArePairVerdicts:
    @pytest.mark.parametrize("level", [1e-3, 0.3])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=row_queries())
    def test_pearson_rows_are_the_scalar_p_values(self, level, case):
        _, ds = case
        sources = sorted(ds.targets)
        free = [b for b in range(ds.n) if b not in ds.targets]
        want = [sum(1 << b for b in free if pearson_scalar_p_value(ds.x(a), ds.x(b)) < level)
                for a in sources]
        assert data_ci_test("pearson", level=level).batch(ds, sources) == want

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=row_queries(max_n=5, max_samples=60), seed=st.integers(0, 1 << 30))
    def test_scalar_is_a_bit_of_the_batch_row_on_every_backend(self, case, seed):
        g, ds = case
        sources = sorted(ds.targets)
        for test in (oracle_ci_test(g), data_ci_test("pearson", level=0.3, seed=seed),
                     data_ci_test("dcorr", level=0.3, permutations=10, seed=seed)):
            rows = test.batch(ds, sources)
            assert rows == [test.batch(ds, [a])[0] for a in sources]
            for a, row in zip(sources, rows):
                for b in range(ds.n):
                    if b in ds.targets:  # an intervened b is refused
                        with pytest.raises(UsageError, match="outside do"):
                            test(ds, a, b)
                    else:
                        assert test(ds, a, b) == bool(row >> b & 1)
            free = next(b for b in range(ds.n) if b not in ds.targets)
            with pytest.raises(UsageError, match="intervened"):
                test.batch(ds, [free])
            with pytest.raises(UsageError, match="intervened"):
                test(ds, free, free)


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
            orc = oracle_ci_test(g)(ds, a, b)
            agree += int(stat == orc)
        assert agree / total >= 0.98
