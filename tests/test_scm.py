"""Simulator behavior: interventional sampling, moments, and the oracles."""
import itertools
import json

import numpy as np
import pytest

from canm import scm
from canm.cli import run_cli
from canm.discovery import core_intervention_plan
from canm.errors import UsageError
from canm.estimation import fit_model, save_model
from canm.graph import Dag, random_dag
from canm.healthcare import healthcare_dataset, healthcare_model, healthcare_oracle
from canm.scm import (
    ConfoundedAnm,
    InterventionalDataset,
    LazyDataset,
    NoiseSpec,
    StructuralFunction,
    anm_from_json,
    anm_to_json,
    load_dataset,
    open_dataset,
    parse_targets,
    random_anm,
    sample,
    save_dataset,
    true_ace_exact,
    true_ace_oracle,
)
from fixtures import linear_pair_a, linear_pair_b, product_outcome_pair


class TestTypes:
    def test_noise_requires_symmetry(self):
        with pytest.raises(UsageError):
            NoiseSpec(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_noise_requires_psd(self):
        with pytest.raises(UsageError):
            NoiseSpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("mean,cov", [([np.nan, 0.0], np.eye(2)),
                                          ([0.0, 0.0], [[1.0, 0.0], [0.0, np.inf]])])
    def test_noise_must_be_finite(self, mean, cov):
        with pytest.raises(UsageError, match="finite"):
            NoiseSpec(mean, cov)

    @pytest.mark.parametrize("args", [(np.nan,), (0.0, {0: np.inf}), (0.0, {}, {(0, 1): -np.inf})])
    def test_function_coefficients_must_be_finite(self, args):
        with pytest.raises(UsageError, match="finite"):
            StructuralFunction(*args)

    def test_function_must_reference_parents(self):
        g = Dag(2, {(0, 1)})
        bad = (StructuralFunction(0.0, {1: 1.0}), StructuralFunction())
        with pytest.raises(UsageError):
            ConfoundedAnm(g, bad, StructuralFunction(), NoiseSpec(np.zeros(3), np.eye(3)))

    def test_flagged_noise_row_must_be_diagonal(self):
        g = Dag(2)
        cov = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]])
        fns = (StructuralFunction(), StructuralFunction())
        with pytest.raises(UsageError):
            ConfoundedAnm(g, fns, StructuralFunction(), NoiseSpec(np.zeros(3), cov),
                          (True, False))

    def test_json_round_trip(self):
        anm = random_anm(random_dag(4, 3, seed=3), seed=4, pairwise_prob_y=0.5)
        again = anm_from_json(anm_to_json(anm))
        assert again.graph == anm.graph
        assert again.f == anm.f
        assert again.f_y == anm.f_y
        np.testing.assert_allclose(again.noise.cov, anm.noise.cov)


class TestSampling:
    def test_joint_intervention_controls_mean_and_variance(self):
        # outcome under do(X1=x1, X2=x2) is Gaussian around x1*x2 with unit variance
        m1, _ = product_outcome_pair()
        x1, x2 = 1.3, -0.7
        ds = sample(m1, {0, 1}, f"fixed:{x1},{x2}", 100_000, seed=0)
        y = ds.y()
        assert abs(y.mean() - x1 * x2) < 3 * y.std() / np.sqrt(len(y))
        assert abs(y.var() - 1.0) < 0.03

    def test_observational_moments(self):
        m1, _ = product_outcome_pair()
        ds = sample(m1, frozenset(), m=100_000, seed=1)
        assert abs(ds.x(1).var() - 3.0) < 0.1
        assert abs(np.cov(ds.x(0), ds.x(1))[0, 1] - 1.5) < 0.05

    def test_full_intervention_overrides_mechanism(self):
        anm = random_anm(random_dag(3, 2, seed=5), seed=6)
        ds = sample(anm, "all", "fixed:0.5,-1,2", 50, seed=7)
        assert np.all(ds.x(0) == 0.5)
        assert np.all(ds.x(1) == -1.0)
        assert np.all(ds.x(2) == 2.0)

    def test_seed_determinism_bitwise(self):
        anm = random_anm(random_dag(5, 3, seed=8), seed=9)
        a = sample(anm, {1, 3}, "std_normal", 500, seed=10)
        b = sample(anm, {1, 3}, "std_normal", 500, seed=10)
        assert np.array_equal(a.data, b.data)

    def test_true_residual_covariance_recovers_noise(self):
        anm = random_anm(random_dag(4, 3, seed=11), seed=12)
        ds = sample(anm, frozenset(), m=100_000, seed=13)
        x = ds.treatments()
        resid = np.empty((ds.m, 5))
        for i in range(4):
            resid[:, i] = ds.x(i) - anm.f[i].evaluate(x)
        resid[:, 4] = ds.y() - anm.f_y.evaluate(x)
        err = np.linalg.norm(np.cov(resid, rowvar=False) - anm.noise.cov)
        assert err / np.linalg.norm(anm.noise.cov) < 0.05

    def test_rejects_bad_policy(self):
        m1, _ = product_outcome_pair()
        with pytest.raises(UsageError):
            sample(m1, {0}, "bogus", 10, seed=0)


class TestOracle:
    def test_linear_pair_a_closed_form(self):
        m1, _ = linear_pair_a()
        for x1 in (-1.0, 0.5, 2.0):
            est = true_ace_oracle(m1, {0}, [x1], 100_000, seed=14)
            assert abs(est.value - 3.0 * x1) <= 3.0 * est.stderr + 1e-9

    def test_linear_pair_b_closed_form(self):
        m3, _ = linear_pair_b()
        est = true_ace_oracle(m3, {0}, [1.0], 100_000, seed=15)
        assert abs(est.value - 5.0) <= 3.0 * est.stderr

    def test_full_do_matches_outcome_function(self):
        anm = random_anm(random_dag(3, 2, seed=16), seed=17)
        x = [0.4, -0.2, 1.0]
        est = true_ace_oracle(anm, "all", x, 200_000, seed=18)
        expected = float(anm.f_y.evaluate(np.array([x]))[0]) + anm.noise.mean[3]
        assert abs(est.value - expected) <= 3.0 * est.stderr


class TestExactOracle:
    @pytest.mark.parametrize("pair, slopes", [(linear_pair_a, (3.0, 2.0)),
                                              (linear_pair_b, (5.0, 4.0))])
    def test_linear_pairs_closed_form(self, pair, slopes):
        for anm, slope in zip(pair(), slopes):
            for x1 in (-1.0, 0.5, 2.0):
                est = true_ace_exact(anm, {0}, [x1])
                assert est.stderr == 0.0
                assert abs(est.value - slope * x1) <= 1e-12

    def test_product_outcome_pair_closed_form(self):
        # E[X1*X2 | do(X1=1)] = E[X2 | do(X1=1)]
        for anm, want in zip(product_outcome_pair(), (1.0, 1.2)):
            assert abs(true_ace_exact(anm, {0}, [1.0]).value - want) <= 1e-12

    def test_agrees_with_mc_oracle_on_every_query_subset(self):
        for seed in range(6):
            anm = random_anm(random_dag(4, 3, seed=40 + seed), seed=50 + seed,
                             pairwise_prob_y=0.5)
            point = np.random.default_rng(seed).standard_normal(4)
            for r in range(5):
                for s in itertools.combinations(range(4), r):
                    exact = true_ace_exact(anm, s, point[list(s)])
                    mc = true_ace_oracle(anm, s, point[list(s)], 50_000, seed=60 + seed)
                    assert abs(exact.value - mc.value) <= 4.0 * mc.stderr, (seed, s)

    def test_rejects_pairwise_treatment_equation(self):
        g = Dag(3, {(0, 2), (1, 2)})
        fns = (StructuralFunction(), StructuralFunction(),
               StructuralFunction(0.0, {0: 1.0}, {(0, 1): 0.5}))
        anm = ConfoundedAnm(g, fns, StructuralFunction(0.0, {2: 1.0}),
                            NoiseSpec(np.zeros(4), np.eye(4)))
        with pytest.raises(UsageError, match="pairwise"):
            true_ace_exact(anm, {0}, [1.0])
        assert np.isfinite(true_ace_oracle(anm, {0}, [1.0], 100, seed=0).value)

    @pytest.mark.parametrize("targets, values", [
        ({0}, [1.0, 2.0]), ({0, 1}, [1.0]), ({0}, [np.nan]), ({0, 1}, [1.0, np.inf]),
        ({0.5}, [1.0]), ({2}, [1.0]),
    ])
    def test_rejects_bad_queries(self, targets, values):
        m1, _ = linear_pair_a()
        with pytest.raises(UsageError):
            true_ace_exact(m1, targets, values)


class TestNodeIndices:
    @pytest.mark.parametrize("obj", [
        {"pairwise": [[0.5, 1.9, 1.0]]},
        {"linear": {"1.0": 0.3}},
        {"linear": {"x": 0.3}},
        {"pairwise": [[0, 1]]},
    ])
    def test_malformed_function_json_is_usage_error(self, obj):
        with pytest.raises(UsageError):
            StructuralFunction.from_json(obj)

    def test_integer_indices_accepted(self):
        fn = StructuralFunction(0.0, {np.int64(1): 0.3}, [(np.int64(0), 2, 1.0)])
        assert fn == StructuralFunction.from_json({"linear": {"1": 0.3},
                                                   "pairwise": [[2, 0, 1.0]]})
        with pytest.raises(UsageError, match="integer"):
            StructuralFunction(0.0, {1.5: 0.3})


class TestCounterexamplePair:
    """The two product-outcome models agree observationally and under the
    joint intervention yet disagree under do(X1)."""

    def test_pair_is_indistinguishable_then_separates(self):
        m1, m2 = product_outcome_pair()
        obs1 = sample(m1, frozenset(), m=100_000, seed=19)
        obs2 = sample(m2, frozenset(), m=100_000, seed=20)
        cov1 = np.cov(obs1.data, rowvar=False)
        cov2 = np.cov(obs2.data, rowvar=False)
        x_block = np.s_[:2, :2]
        assert np.max(np.abs(cov1[x_block] - cov2[x_block])) < 0.06
        x1, x2 = 0.8, -0.4
        j1 = sample(m1, {0, 1}, f"fixed:{x1},{x2}", 100_000, seed=21).y()
        j2 = sample(m2, {0, 1}, f"fixed:{x1},{x2}", 100_000, seed=22).y()
        se = np.hypot(j1.std() / np.sqrt(len(j1)), j2.std() / np.sqrt(len(j2)))
        assert abs(j1.mean() - j2.mean()) < 3 * se
        d1 = sample(m1, {0}, "fixed:1.0", 100_000, seed=23).x(1)
        d2 = sample(m2, {0}, "fixed:1.0", 100_000, seed=24).x(1)
        assert abs(d1.mean() - 1.0) < 0.02
        assert abs(d2.mean() - 1.2) < 0.02


def test_dataset_round_trip(tmp_path):
    anm = random_anm(random_dag(3, 2, seed=25), seed=26)
    ds = sample(anm, {0}, "std_normal", 100, seed=27)
    save_dataset(ds, tmp_path / "d.csv")
    back = load_dataset(tmp_path / "d.csv")
    assert back.targets == ds.targets
    assert back.value_policy == ds.value_policy
    np.testing.assert_allclose(back.data, ds.data)


def _saved(tmp_path, m=20):
    anm = random_anm(random_dag(3, 2, seed=25), seed=26)
    ds = sample(anm, {0, 2}, "std_normal", m, seed=27)
    save_dataset(ds, tmp_path / "d.csv")
    return ds, tmp_path / "d.csv", tmp_path / "d.meta.json"


def test_open_dataset_parses_rows_on_first_read(tmp_path, monkeypatch):
    ds, csv, _ = _saved(tmp_path)
    loads = []
    monkeypatch.setattr(scm, "load_dataset", lambda *a: loads.append(a) or load_dataset(*a))
    lazy = open_dataset(csv)
    assert (lazy.targets, lazy.n, lazy.m, loads) == (ds.targets, 3, 20, [])
    assert lazy.data.tobytes() == ds.data.tobytes()
    assert (lazy.seed, lazy.value_policy, len(loads)) == (ds.seed, ds.value_policy, 1)


@pytest.mark.parametrize("meta_m", [19, 21])
def test_sidecar_m_must_match_the_rows(meta_m, tmp_path):
    _, csv, meta = _saved(tmp_path)
    meta.write_text(meta.read_text().replace('"m": 20', f'"m": {meta_m}'))
    with pytest.raises(UsageError, match="rows"):
        load_dataset(csv)
    lazy = open_dataset(csv)  # the handle reports the sidecar's m until it reads
    assert lazy.m == meta_m
    with pytest.raises(UsageError, match="rows"):
        lazy.data


@pytest.mark.parametrize("edit", [
    lambda csv, meta: meta.write_text('{"targets": [0], "policy": "std_normal", "seed": 1}'),
    lambda csv, meta: meta.write_text(meta.read_text().replace('"m": 20', '"m": 2.5')),
    lambda csv, meta: meta.write_text(meta.read_text().replace("[\n  0,", "[\n  1.5,")),
    lambda csv, meta: meta.write_text(meta.read_text().replace("2\n ]", "3\n ]")),
    lambda csv, meta: csv.write_text(""),
    lambda csv, meta: csv.write_text(csv.read_text() + "1,2\n"),
    lambda csv, meta: csv.write_bytes(b"\xff\xfe,\x00,\x01,Y\n" + b"1,2,3,4\n" * 20),
    lambda csv, meta: csv.write_bytes(csv.read_bytes() + b"\xff,\xfe,0,0\n"),
])
def test_malformed_dataset_files_are_usage_errors(edit, tmp_path):
    _, csv, meta = _saved(tmp_path)
    edit(csv, meta)
    with pytest.raises(UsageError):
        load_dataset(csv)
    with pytest.raises(UsageError):
        open_dataset(csv).data


@pytest.mark.parametrize("key", ["seed", "m"])
def test_sidecar_integer_refuses_a_bool(key, tmp_path):
    """JSON true is not the integer 1: a one-row dataset whose sidecar says
    ``true`` would otherwise load."""
    _, csv, meta = _saved(tmp_path, m=1)
    doc = json.loads(meta.read_text())
    doc[key] = True
    meta.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match="bool"):
        load_dataset(csv)
    with pytest.raises(UsageError, match="bool"):
        open_dataset(csv)


def test_lazy_dataset_checks_what_it_draws():
    anm = random_anm(random_dag(3, 2, seed=28), seed=29)
    lazy = LazyDataset(3, {0}, 40, lambda: sample(anm, {0}, "std_normal", 41, seed=30))
    with pytest.raises(UsageError, match="promised"):
        lazy.data


def test_parse_targets_rejects_non_integral_numbers():
    assert parse_targets([np.int64(1), 0], 3) == frozenset({0, 1})
    assert parse_targets("0, 2", 3) == frozenset({0, 2})
    assert parse_targets(np.array([2]), 3) == frozenset({2})
    for bad in ([1.5], [1.0], [np.float64(1)], ["x"], 3):
        with pytest.raises(UsageError, match="integer"):
            parse_targets(bad, 3)


def test_parse_targets_reads_a_frozenset_of_ints_as_is_but_checks_it():
    assert parse_targets(frozenset({0, 2}), 3) == frozenset({0, 2})
    assert parse_targets(frozenset({np.int64(2)}), 3) == frozenset({2})
    for bad in (frozenset({True}), frozenset({3}), frozenset({-1}), frozenset({1.0})):
        with pytest.raises(UsageError):
            parse_targets(bad, 3)


def test_dataset_targets_must_be_treatments():
    data = np.zeros((3, 3))  # X1, X2, Y
    with pytest.raises(UsageError, match="out of range"):
        InterventionalDataset({7}, "std_normal", data, 0)
    with pytest.raises(UsageError, match="out of range"):
        InterventionalDataset({2}, "std_normal", data, 0)
    assert InterventionalDataset({1}, "std_normal", data, 0).targets == frozenset({1})


def test_lazy_dataset_checks_targets_before_drawing():
    def draw():
        raise AssertionError("drawn")

    with pytest.raises(UsageError, match="out of range"):
        LazyDataset(2, {7}, 3, draw)
    lazy = LazyDataset(2, {1}, 3, draw)
    assert (lazy.targets, lazy.m) == (frozenset({1}), 3)


def test_lazy_dataset_draws_once():
    anm = random_anm(random_dag(3, 2, seed=28), seed=29)
    calls = []

    def draw():
        calls.append(1)
        return sample(anm, {0}, "std_normal", 40, seed=30)

    lazy = LazyDataset(3, {0}, 40, draw)
    want = sample(anm, {0}, "std_normal", 40, seed=30)
    assert np.array_equal(lazy.x(1), want.x(1))
    assert (lazy.seed, lazy.n, lazy.value_policy) == (30, 3, "std_normal")
    assert np.array_equal(lazy.data, want.data)
    assert calls == [1]


# do(targets = values) that every reader of an intervention must refuse:
# (targets, values) as a library call takes them
BAD_INTERVENTIONS = {
    "non-integral-target": ([1.9], [0.5]),
    "out-of-range-target": ([7], [0.5]),
    "nan-value": ([1], [float("nan")]),
    "count-mismatch": ([1], [0.5, 1.0]),
}
ANM4 = random_anm(random_dag(4, 2, seed=61), seed=62)
# the readers, all over four treatments; healthcare_dataset draws its values
# itself, so it takes only the target cases
INTERVENTION_READERS = {
    "true_ace_exact": lambda t, v: true_ace_exact(ANM4, t, v),
    "true_ace_oracle": lambda t, v: true_ace_oracle(ANM4, t, v, 100, seed=1),
    "healthcare_oracle": lambda t, v: healthcare_oracle(*healthcare_model(), t, v, 100, 1),
    "healthcare_dataset": lambda t, v: healthcare_dataset(*healthcare_model(), t, 50, 1),
    "canm ace": ["ace", "--mc", "100"],
    "canm healthcare": ["healthcare", "--op", "oracle", "--mc", "100"],
}
@pytest.fixture(scope="module")
def anm4_model(tmp_path_factory):
    datasets = [sample(ANM4, s, "std_normal", 300, seed=k)
                for k, s in enumerate(core_intervention_plan(ANM4.graph))]
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(fit_model(ANM4.graph, datasets), path)
    return str(path)


@pytest.mark.parametrize("reader,case", [
    (reader, case) for reader in INTERVENTION_READERS for case in BAD_INTERVENTIONS
    if reader != "healthcare_dataset" or case.endswith("target")
])
def test_every_intervention_reader_refuses_a_bad_intervention(reader, case, anm4_model,
                                                              capsys):
    targets, values = BAD_INTERVENTIONS[case]
    call = INTERVENTION_READERS[reader]
    if callable(call):
        with pytest.raises(UsageError):
            call(targets, values)
        return
    text = ",".join(map(str, targets)), ",".join(map(str, values))
    argv = call + ["--targets", text[0], "--values", text[1], "--seed", "1"]
    if reader == "canm ace":
        argv += ["--model", anm4_model]
    code = run_cli(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.count("\n") == 1 and err.startswith("error: usage:")


def test_parse_intervention_reads_comma_strings_like_parse_targets():
    assert scm.parse_intervention("2,0", "1.5, -2", 3) == {0: 1.5, 2: -2.0}
    assert scm.parse_intervention("", "", 3) == {}
    assert scm.parse_intervention("all", np.arange(3.0), 3) == {0: 0.0, 1: 1.0, 2: 2.0}
    for values in ("abc", "1,", None, [[1.0], [2.0, 3.0]]):
        with pytest.raises(UsageError, match="finite numbers"):
            scm.parse_intervention("0", values, 3)
