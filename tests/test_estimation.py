"""Fitting, noise-covariance recovery, and effect queries against closed forms."""
import numpy as np
import pytest

from canm.discovery import check_sufficiency, core_intervention_plan
from canm.errors import IdentifiabilityError, UsageError
from canm.estimation import (
    AceQuery,
    EstimatedModel,
    ace,
    conditional_ace,
    estimate_noise_cov,
    fit_model,
    fit_outcome_equation,
    fit_treatment_equation,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from canm.graph import Dag, random_dag
from canm.scm import (
    ConfoundedAnm,
    NoiseSpec,
    StructuralFunction,
    parse_intervention,
    random_anm,
    sample,
    true_ace_oracle,
)
from canm.util import derive_seed
from fixtures import correction_fixture, fig_g1, linear_pair_a, linear_pair_b, product_outcome_pair


def pipeline(anm, m, seed, policy="std_normal", **kwargs):
    # wide uniform policies matter when fitted equations will be evaluated
    # outside the standard-normal range (strong slopes, shifted means)
    plan = core_intervention_plan(anm.graph, kwargs.get("independent_flags"))
    datasets = [
        sample(anm, s, policy, m, derive_seed(seed, sorted(s))) for s in plan
    ]
    return fit_model(anm.graph, datasets, **kwargs)


class TestOutcomeFit:
    def test_product_term_recovered(self):
        m1, _ = product_outcome_pair()
        ds = sample(m1, {0, 1}, "std_normal", 10_000, seed=0)
        eq = fit_outcome_equation(ds)
        assert abs(eq.form.pairwise[0][2] - 1.0) < 0.05
        assert all(abs(c) < 0.05 for _, c in eq.form.linear)

    def test_linear_coefficients_recovered(self):
        m3, _ = linear_pair_b()
        ds = sample(m3, {0, 1}, "std_normal", 10_000, seed=1)
        eq = fit_outcome_equation(ds)
        coeffs = dict(eq.form.linear)
        assert abs(coeffs[0] - 2.0) < 0.05
        assert abs(coeffs[1] - 1.0) < 0.05
        assert abs(eq.form.intercept) < 0.05

    def test_intercept_absorbs_outcome_noise_mean(self):
        m3, _ = linear_pair_b()
        shifted = ConfoundedAnm(
            m3.graph, m3.f, m3.f_y,
            NoiseSpec(np.array([0.0, 0.0, 5.0]), m3.noise.cov),
        )
        ds = sample(shifted, {0, 1}, "std_normal", 10_000, seed=2)
        eq = fit_outcome_equation(ds)
        coeffs = dict(eq.form.linear)
        assert abs(coeffs[0] - 2.0) < 0.05
        assert abs(eq.form.intercept - 5.0) < 0.05

    def test_requires_joint_targets(self):
        m3, _ = linear_pair_b()
        ds = sample(m3, {0}, "std_normal", 5000, seed=3)
        with pytest.raises(IdentifiabilityError):
            fit_outcome_equation(ds)


class TestTreatmentFit:
    def test_slope_from_parent_intervention(self):
        m3, _ = linear_pair_b()
        ds = sample(m3, {0}, "std_normal", 10_000, seed=4)
        eq = fit_treatment_equation(1, {0}, ds)
        assert abs(dict(eq.form.linear)[0] - 3.0) < 0.05
        assert abs(eq.form.intercept) < 0.05

    def test_parentless_fit_is_sample_mean(self):
        m3, _ = linear_pair_b()
        obs = sample(m3, frozenset(), "std_normal", 5000, seed=5)
        eq = fit_treatment_equation(0, frozenset(), obs)
        assert eq.form.linear == ()
        assert abs(eq.form.intercept - obs.x(0).mean()) < 1e-12

    def test_rejects_dataset_touching_the_treatment(self):
        m3, _ = linear_pair_b()
        ds = sample(m3, {0, 1}, "std_normal", 5000, seed=6)
        with pytest.raises(IdentifiabilityError):
            fit_treatment_equation(1, {0}, ds)

    def test_rejects_uncovered_parents(self):
        m3, _ = linear_pair_b()
        obs = sample(m3, frozenset(), "std_normal", 5000, seed=7)
        with pytest.raises(IdentifiabilityError):
            fit_treatment_equation(1, {0}, obs)


class TestNoiseCovariance:
    def test_plug_in_true_equations(self):
        m1, _ = product_outcome_pair()
        obs = sample(m1, frozenset(), "std_normal", 100_000, seed=8)
        from canm.estimation import FittedEquation

        eqs = (
            FittedEquation(0, frozenset(), m1.f[0]),
            FittedEquation(1, frozenset({0}), m1.f[1]),
        )
        eq_y = FittedEquation("y", frozenset({0, 1}), m1.f_y)
        sigma = estimate_noise_cov(obs, eqs, eq_y)
        rel = np.linalg.norm(sigma - m1.noise.cov) / np.linalg.norm(m1.noise.cov)
        assert rel < 0.05

    def test_independent_noise_gives_diagonal(self):
        g = Dag(3, {(0, 1)})
        anm = ConfoundedAnm(
            g,
            (StructuralFunction(), StructuralFunction(0.0, {0: 0.8}), StructuralFunction()),
            StructuralFunction(0.0, {0: 1.0, 1: 0.5, 2: -0.5}),
            NoiseSpec(np.zeros(4), np.eye(4)),
        )
        model = pipeline(anm, 20_000, seed=9)
        off = model.sigma_hat - np.diag(np.diag(model.sigma_hat))
        assert np.max(np.abs(off)) < 3.0 * 1.3 / np.sqrt(20_000) + 0.01

    def test_mean_shift_leaves_covariance_alone(self):
        m3, _ = linear_pair_b()
        shifted = ConfoundedAnm(
            m3.graph, m3.f, m3.f_y,
            NoiseSpec(m3.noise.mean + 10.0, m3.noise.cov),
        )
        base = pipeline(m3, 30_000, seed=10, policy="uniform:-15,55")
        moved = pipeline(shifted, 30_000, seed=10, policy="uniform:-15,55")
        assert np.max(np.abs(base.sigma_hat - moved.sigma_hat)) < 0.08

    def test_requires_observational_data(self):
        m3, _ = linear_pair_b()
        ds = sample(m3, {0}, "std_normal", 5000, seed=11)
        with pytest.raises(UsageError):
            estimate_noise_cov(ds, (None, None), None)


class TestConditionalAce:
    def test_no_free_treatments_returns_outcome_fit(self):
        m3, _ = linear_pair_b()
        model = pipeline(m3, 10_000, seed=12)
        q = AceQuery(2, {0: 1.5, 1: -0.5})
        got = conditional_ace(model, q, [])
        row = np.array([[1.5, -0.5]])
        assert got == pytest.approx(float(model.eq_y.predict(row)[0]))

    def test_two_node_closed_form(self):
        anm = correction_fixture()
        model = pipeline(anm, 20_000, seed=13)
        for x1, x2 in ((1.0, 2.0), (-0.5, 0.25), (2.0, -2.0)):
            got = conditional_ace(model, AceQuery(2, {0: x1}), [x2])
            want = x1 + x2 + 0.5 * (x2 - x1)
            assert abs(got - want) < 0.08

    def test_zero_outcome_row_kills_correction(self):
        m3, _ = linear_pair_b()
        model = pipeline(m3, 20_000, seed=14, policy="uniform:-10,10")
        # this fixture's outcome noise is uncorrelated with the treatments
        got = conditional_ace(model, AceQuery(2, {0: 1.0}), [0.7])
        row = np.array([[1.0, 0.7]])
        base = float(model.eq_y.predict(row)[0])
        assert abs(got - base) < 0.05
        assert abs(got - (2.0 * 1.0 + 0.7)) < 0.08

    def test_correction_nullity_exact_when_row_zeroed(self):
        anm = correction_fixture()
        model = pipeline(anm, 10_000, seed=15)
        from canm.estimation import EstimatedModel

        sigma = model.sigma_hat.copy()
        sigma[2, :2] = 0.0
        sigma[:2, 2] = 0.0
        stripped = EstimatedModel(model.graph, model.eq, model.eq_y, sigma,
                                  model.fitted_from, model.independent_flags)
        for x1, x2 in ((1.0, 2.0), (-1.0, 0.5)):
            got = conditional_ace(stripped, AceQuery(2, {0: x1}), [x2])
            row = np.array([[x1, x2]])
            assert got == pytest.approx(float(stripped.eq_y.predict(row)[0]))


def replicate_ace(anm, w, x_w, m_fit, reps, seed, m_mc=100_000):
    """Combined fit+MC spread estimated by independent pipeline replicates."""
    vals = []
    for r in range(reps):
        model = pipeline(anm, m_fit, derive_seed(seed, "rep", r))
        q = AceQuery(anm.n, dict(zip(sorted(w), x_w)))
        vals.append(ace(model, q, m_mc, derive_seed(seed, "mc", r)).value)
    vals = np.asarray(vals)
    return vals.mean(), vals.std(ddof=1) / np.sqrt(reps)


class TestAce:
    def test_joint_query_is_exact_and_deterministic(self):
        m3, _ = linear_pair_b()
        model = pipeline(m3, 10_000, seed=16)
        q = AceQuery(2, {0: 0.5, 1: 1.5})
        a = ace(model, q, m_mc=10, seed=0)
        b = ace(model, q, m_mc=10, seed=999)
        assert a == b
        assert a.stderr == 0.0
        row = np.array([[0.5, 1.5]])
        assert a.value == pytest.approx(float(model.eq_y.predict(row)[0]))

    def test_linear_pair_a_pipeline_matches_closed_form(self):
        m1, _ = linear_pair_a()
        mean, sem = replicate_ace(m1, {0}, [1.0], 10_000, reps=8, seed=17)
        assert abs(mean - 3.0) <= 3.0 * sem

    def test_linear_pair_b_pipeline_matches_closed_form(self):
        m3, _ = linear_pair_b()
        mean, sem = replicate_ace(m3, {0}, [1.0], 10_000, reps=8, seed=18)
        assert abs(mean - 5.0) <= 3.0 * sem

    def test_consistency_absolute_error_small(self):
        # linear fixtures with |query| <= 2 land within 0.05 at this budget
        cases = [
            (linear_pair_a()[0], 3.0), (linear_pair_b()[0], 5.0),
            (correction_fixture(), 2.0),
        ]
        for k, (anm, slope) in enumerate(cases):
            for x1 in (-2.0, -0.5, 1.0, 2.0):
                model = pipeline(anm, 10_000, derive_seed(19, k, int(x1 * 10)),
                                 policy="uniform:-10,10")
                est = ace(model, AceQuery(2, {0: x1}), 100_000,
                          derive_seed(20, k, int(x1 * 10)))
                assert abs(est.value - slope * x1) <= 0.05

    def test_gate_failure_lists_missing(self):
        m3, _ = linear_pair_b()
        datasets = [
            sample(m3, frozenset(), "std_normal", 5000, seed=21),
            sample(m3, frozenset({0, 1}), "std_normal", 5000, seed=22),
        ]
        with pytest.raises(IdentifiabilityError) as err:
            fit_model(m3.graph, datasets)
        assert err.value.report.missing == (1,)

    def test_flagged_treatment_fits_from_observational(self):
        g = Dag(2, {(0, 1)})
        anm = ConfoundedAnm(
            g,
            (StructuralFunction(), StructuralFunction(0.0, {0: 2.0})),
            StructuralFunction(0.0, {0: 1.0, 1: 1.0}),
            NoiseSpec(np.zeros(3), np.diag([1.0, 1.0, 1.0])),
            (True, True),
        )
        datasets = [
            sample(anm, frozenset(), "std_normal", 10_000, seed=23),
            sample(anm, frozenset({0, 1}), "std_normal", 10_000, seed=24),
        ]
        model = fit_model(g, datasets, independent_flags=(True, True))
        est = ace(model, AceQuery(2, {0: 1.0}), 100_000, seed=25)
        assert abs(est.value - 3.0) < 0.1

    def test_treatment_mean_shift_invisible_to_joint_queries(self):
        m3, _ = linear_pair_b()
        shifted = ConfoundedAnm(
            m3.graph, m3.f, m3.f_y,
            NoiseSpec(m3.noise.mean + np.array([7.0, 7.0, 0.0]), m3.noise.cov),
        )
        base = pipeline(m3, 20_000, seed=26)
        moved = pipeline(shifted, 20_000, seed=26)
        q = AceQuery(2, {0: 1.0, 1: -1.0})
        assert abs(ace(base, q, 10, 0).value - ace(moved, q, 10, 0).value) < 0.05

    def test_oracle_equivalence_rate(self):
        rng = np.random.default_rng(27)
        hits = 0
        total = 200
        for k in range(total):
            n = int(rng.integers(2, 5))
            g = random_dag(n, 3, seed=int(rng.integers(1 << 30)))
            anm = random_anm(g, seed=int(rng.integers(1 << 30)), pairwise_prob_y=0.3)
            w = frozenset(int(v) for v in range(n) if rng.random() < 0.5)
            x_w = rng.standard_normal(len(w))
            model = pipeline(anm, 3000, derive_seed(28, k))
            est = ace(model, AceQuery(n, dict(zip(sorted(w), x_w))), 30_000,
                      derive_seed(29, k))
            orc = true_ace_oracle(anm, w, x_w, 100_000, derive_seed(30, k))
            # fit-error share estimated at the 3000-sample scale
            fit_margin = 0.08
            tol = 3.0 * np.hypot(est.stderr, orc.stderr) + fit_margin
            hits += int(abs(est.value - orc.value) <= tol)
        assert hits / total >= 0.95


class TestNumericalGuards:
    def test_singular_design_names_features(self):
        from canm.errors import SingularFitError

        # constant parent column makes x0 and the intercept collinear
        m3, _ = linear_pair_b()
        ds = sample(m3, {0}, "fixed:1.0", 2000, seed=40)
        with pytest.raises(SingularFitError) as err:
            fit_treatment_equation(1, {0}, ds)
        assert "x0" in str(err.value)

    def test_singular_noise_block_reports_condition(self):
        from canm.errors import NumericalError
        from canm.estimation import EstimatedModel

        m3, _ = linear_pair_b()
        model = pipeline(m3, 5000, seed=41)
        sigma = np.zeros((3, 3))
        broken = EstimatedModel(model.graph, model.eq, model.eq_y, sigma,
                                model.fitted_from, model.independent_flags)
        with pytest.raises(NumericalError) as err:
            conditional_ace(broken, AceQuery(2, {0: 1.0}), [0.5])
        assert "condition number" in str(err.value)


class TestIdentifiable:
    def test_core_plan_passes(self):
        g = fig_g1()
        assert check_sufficiency(g, core_intervention_plan(g)).sufficient

    def test_flags_make_minimal_set_pass(self):
        g = fig_g1()
        targets = [frozenset(), frozenset(range(4))]
        assert not check_sufficiency(g, targets).sufficient
        assert check_sufficiency(g, targets, (True,) * 4).sufficient


def test_treatment_equation_parents_must_be_integers():
    m3, _ = linear_pair_b()
    ds = sample(m3, {0}, "std_normal", 500, seed=42)
    with pytest.raises(UsageError, match="integer"):
        fit_treatment_equation(1, {0.7}, ds)


# Every reader of independence flags, called with one flag too many on the
# two-node pair model.
FLAG_READERS = {
    "ConfoundedAnm": lambda anm, flags: ConfoundedAnm(anm.graph, anm.f, anm.f_y, anm.noise,
                                                      flags),
    "EstimatedModel": lambda anm, flags: EstimatedModel(
        anm.graph, (), None, np.eye(3), (), flags),
    "core_intervention_plan": lambda anm, flags: core_intervention_plan(anm.graph, flags),
    "check_sufficiency": lambda anm, flags: check_sufficiency(anm.graph, [[]], flags),
    "fit_model": lambda anm, flags: pipeline(anm, 500, seed=43, independent_flags=flags),
}


@pytest.mark.parametrize("reader", FLAG_READERS)
def test_every_flag_reader_wants_one_flag_per_node(reader):
    m3, _ = linear_pair_b()
    with pytest.raises(UsageError, match="one flag per node"):
        FLAG_READERS[reader](m3, (False, False, True))
    assert FLAG_READERS[reader](m3, np.array([0, 0])) is not None


def test_query_node_indices_must_be_integers():
    assert AceQuery(4, {np.int64(1): 1.0}).intervened == ((1, 1.0),)
    with pytest.raises(UsageError, match="integer"):
        AceQuery(4, {1.9: 1.0})
    with pytest.raises(UsageError, match="integer"):
        AceQuery(4, {True: 1.0})


@pytest.mark.parametrize("intervened", [
    [(0, 1.0), (0, 2.0)],
    {2: 1.0},
    {-1: 1.0},
    {0: float("nan")},
    {1: 1.0, 0: float("inf")},
], ids=["duplicate", "past-n", "negative", "nan", "inf"])
def test_query_reads_through_parse_intervention(intervened):
    """A query is refused with the very error do(targets = values) gives."""
    pairs = sorted(intervened.items() if isinstance(intervened, dict) else intervened)
    with pytest.raises(UsageError) as want:
        parse_intervention([k for k, _ in pairs], [v for _, v in pairs], 2)
    with pytest.raises(UsageError) as got:
        AceQuery(2, intervened)
    assert str(got.value) == str(want.value)


def test_query_pairs_values_with_their_nodes():
    q = AceQuery(3, {2: -0.5, 0: 1.5})
    assert q.intervened == ((0, 1.5), (2, -0.5))
    assert q.marginalized == (1,)
    assert AceQuery(3, [(2, -0.5), (0, 1.5)]) == q
    assert AceQuery(3, {}).intervened == ()


def test_model_json_round_trip(tmp_path):
    m3, _ = linear_pair_b()
    model = pipeline(m3, 5000, seed=31)
    save_model(model, tmp_path / "model.json")
    back = load_model(tmp_path / "model.json")
    assert back.graph == model.graph
    assert back.sigma_hat.tobytes() == model.sigma_hat.tobytes()
    q = AceQuery(2, {0: 1.0})
    assert ace(back, q, 5000, 1) == ace(model, q, 5000, 1)


def test_knn_backend_round_trip(tmp_path):
    m3, _ = linear_pair_b()
    model = pipeline(m3, 3000, seed=32, regressor="knn", knn_k=15,
                     policy="uniform:-8,8")
    est = ace(model, AceQuery(2, {0: 1.0}), 20_000, seed=33)
    assert abs(est.value - 5.0) < 0.6
    save_model(model, tmp_path / "knn.json")
    back = load_model(tmp_path / "knn.json")
    again = ace(back, AceQuery(2, {0: 1.0}), 20_000, seed=33)
    assert again.value == pytest.approx(est.value)


def test_knn_k_refuses_a_bool():
    """JSON true is not the integer 1: a k-NN equation with ``"k": true``
    would otherwise read as k = 1."""
    m3, _ = linear_pair_b()
    doc = model_to_json(pipeline(m3, 200, seed=34, regressor="knn", knn_k=1))
    doc["outcome_equation"]["k"] = True
    with pytest.raises(UsageError, match="bool"):
        model_from_json(doc)
