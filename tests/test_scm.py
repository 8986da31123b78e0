"""Simulator behavior: interventional sampling, moments, and the oracle."""
import numpy as np
import pytest

from canm.errors import UsageError
from canm.fixtures import linear_pair_a, linear_pair_b, product_outcome_pair
from canm.graph import Dag, random_dag
from canm.scm import (
    ConfoundedAnm,
    InterventionalDataset,
    LazyDataset,
    NoiseSpec,
    StructuralFunction,
    anm_from_json,
    anm_to_json,
    load_dataset,
    random_anm,
    sample,
    save_dataset,
    true_ace_oracle,
)


class TestTypes:
    def test_noise_requires_symmetry(self):
        with pytest.raises(UsageError):
            NoiseSpec(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_noise_requires_psd(self):
        with pytest.raises(UsageError):
            NoiseSpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

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
