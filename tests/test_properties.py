"""Property tests: seed derivation, the JSON/CSV persistence round-trips
and the save -> load -> save fixed point of every canm file, sufficiency
monotonicity, in-place structural-function evaluation and the
Pearson p-value kernel."""
import json
import os
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from canm import scm
from canm.discovery import (
    check_sufficiency,
    core_intervention_plan,
    learn_observable_graph,
    load_discovery_result,
    save_discovery_result,
)
from canm.estimation import (
    AceQuery,
    ace,
    fit_model,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from canm.graph import Dag, random_dag
from canm.independence import oracle_ci_test
from canm.independence import test_independence as run_test
from canm.scm import (
    InterventionalDataset,
    StructuralFunction,
    anm_from_json,
    anm_sampler,
    anm_to_json,
    load_anm,
    load_dataset,
    random_anm,
    sample,
    save_anm,
    save_dataset,
)
from canm.util import derive_seed

from reference import dataset_csv_text, pearson_scalar_p_value, structural_function_values

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

# key path -> seed, pinned so a change to the derivation (and hence to every
# experiment's output bytes) cannot go unnoticed
PINNED_SEEDS = {
    (0,): 2968811710,
    (1,): 1835504127,
    (7, "disc", 20, 1000, 3): 3789411162,
    (1 << 40, "g"): 3091974537,
    (5, -1, "anm"): 3813164133,
    (12345, "values"): 3254381148,
    (3, "net"): 2258207526,
}

key_parts = st.one_of(st.integers(-(1 << 40), 1 << 40), st.text(max_size=8))
key_paths = st.tuples(st.integers(0, 1 << 40), st.lists(key_parts, max_size=4))
graphs = st.integers(1, 7).flatmap(lambda n: st.builds(
    random_dag, st.just(n), st.integers(1, 4), seed=st.integers(0, 1 << 30)))


def json_copy(obj):
    return json.loads(json.dumps(obj))


def test_derive_seed_pinned_values():
    for key, seed in PINNED_SEEDS.items():
        assert derive_seed(*key) == seed


@PROPERTY
@given(st.lists(key_paths, min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_derive_seed_ignores_call_order(keys, rnd):
    first = [derive_seed(master, *parts) for master, parts in keys]
    order = list(range(len(keys)))
    rnd.shuffle(order)
    again = {k: derive_seed(keys[k][0], *keys[k][1]) for k in order}
    assert [again[k] for k in range(len(keys))] == first


@PROPERTY
@given(graphs)
def test_dag_json_round_trip(g):
    assert Dag.from_json(json_copy(g.to_json())) == g


@PROPERTY
@given(graphs, st.integers(0, 1 << 30), st.floats(0.0, 1.0))
def test_anm_json_round_trip(g, seed, pairwise_prob):
    anm = random_anm(g, seed, pairwise_prob_y=pairwise_prob)
    back = anm_from_json(json_copy(anm_to_json(anm)))
    assert anm_to_json(back) == anm_to_json(anm)
    assert np.array_equal(back.noise.cov, anm.noise.cov)
    assert np.array_equal(sample(back, (), "std_normal", 5, seed).data,
                          sample(anm, (), "std_normal", 5, seed).data)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.builds(
    random_dag, st.just(n), st.integers(1, 3), seed=st.integers(0, 1 << 30))),
    st.integers(0, 1 << 30), st.sampled_from(["basis", "knn"]))
def test_model_json_round_trip(g, seed, regressor):
    anm = random_anm(g, seed, pairwise_prob_y=0.5)
    datasets = [sample(anm, s, "std_normal", 200, derive_seed(seed, sorted(s)))
                for s in core_intervention_plan(g)]
    model = fit_model(g, datasets, regressor=regressor, knn_k=5)
    obj = model_to_json(model)
    back = model_from_json(json_copy(obj))
    assert model_to_json(back) == obj
    assert back.sigma_hat.tobytes() == model.sigma_hat.tobytes()
    x = sample(anm, (), "std_normal", 20, seed).treatments()
    for fitted, again in zip(model.eq + (model.eq_y,), back.eq + (back.eq_y,)):
        assert np.array_equal(again.predict(x), fitted.predict(x))


def _tree_bytes(root) -> dict:
    """Relative path -> bytes of every file under root."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in pathlib.Path(root).rglob("*") if path.is_file()}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.builds(
    random_dag, st.just(n), st.integers(1, 3), seed=st.integers(0, 1 << 30))),
    st.integers(0, 1 << 30), st.sampled_from(["basis", "knn"]))
def test_save_load_save_is_a_fixed_point(g, seed, regressor):
    anm = random_anm(g, seed, pairwise_prob_y=0.5)
    datasets = [sample(anm, s, "std_normal", 200, derive_seed(seed, sorted(s)))
                for s in core_intervention_plan(g)]
    model = fit_model(g, datasets, regressor=regressor, knn_k=5)
    found = learn_observable_graph(anm_sampler(anm), oracle_ci_test(g), g.n, 2, 1.0, 30, seed)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        for out in first, second:
            os.makedirs(out)
        g.save(os.path.join(first, "graph.json"))
        save_anm(anm, os.path.join(first, "anm.json"))
        save_model(model, os.path.join(first, "model.json"))
        save_dataset(datasets[-1], os.path.join(first, "ds.csv"))
        save_discovery_result(found, os.path.join(first, "disc"))
        Dag.load(os.path.join(first, "graph.json")).save(os.path.join(second, "graph.json"))
        save_anm(load_anm(os.path.join(first, "anm.json")), os.path.join(second, "anm.json"))
        loaded = load_model(os.path.join(first, "model.json"))
        save_model(loaded, os.path.join(second, "model.json"))
        save_dataset(load_dataset(os.path.join(first, "ds.csv")), os.path.join(second, "ds.csv"))
        save_discovery_result(load_discovery_result(os.path.join(first, "disc")),
                              os.path.join(second, "disc"))
        written, rewritten = _tree_bytes(first), _tree_bytes(second)
    assert "ds.meta.json" in written and "disc/report.json" in written
    assert rewritten == written
    q = AceQuery(g.n, {0: 1.0})
    assert ace(loaded, q, 500, seed) == ace(model, q, 500, seed)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 5))
    data = draw(hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(n + 1)),
                           elements=st.floats(allow_nan=False, allow_infinity=False)))
    targets = draw(st.sets(st.integers(0, n - 1)))
    policy = draw(st.sampled_from(["std_normal", "fixed:0.5", "uniform:-2,2"]))
    return InterventionalDataset(frozenset(targets), policy, data, draw(st.integers(0, 1 << 62)))


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
@PROPERTY
@given(datasets())
def test_dataset_csv_round_trip_is_bitwise(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ds.csv")
        save_dataset(ds, path)
        back = load_dataset(path)
    assert back.data.shape == ds.data.shape
    assert back.data.tobytes() == ds.data.tobytes()
    assert (back.targets, back.value_policy, back.seed) == (ds.targets, ds.value_policy, ds.seed)


# values whose text is easiest to get wrong: signed zero, subnormals, the
# largest finite magnitudes and numbers needing all 17 significant digits
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3, 1e-300, -1e300, 123456789012345680.0]


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: hnp.arrays(
    np.float64, st.tuples(st.integers(0, 12), st.just(n + 1)),
    elements=st.one_of(st.sampled_from(EDGE_VALUES),
                       st.floats(allow_nan=False, allow_infinity=False)))),
    st.integers(1, 5))
@example(np.array(EDGE_VALUES[:12]).reshape(4, 3), 3)
@example(np.zeros((0, 2)), 1)
def test_dataset_writer_matches_per_value_formatter(data, block):
    ds = InterventionalDataset(frozenset(), "std_normal", data, 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ds.csv")
        # small row blocks, so the block boundaries fall inside these datasets
        with mock.patch.object(scm, "_ROW_BLOCK", block):
            save_dataset(ds, path)
        with open(path) as fh:
            text = fh.read()
    assert text == dataset_csv_text(ds)


@PROPERTY
@given(graphs, st.data())
def test_sufficiency_is_monotone_in_the_targets(g, data):
    """Adding a target set never loses a witness, the joint or the
    observational regime, so a sufficient collection stays sufficient."""
    subsets = st.frozensets(st.integers(0, g.n - 1))
    flags = data.draw(st.tuples(*[st.booleans()] * g.n))
    # start from a sufficient collection half the time: random ones rarely are
    targets = list(core_intervention_plan(g, flags)) if data.draw(st.booleans()) else []
    targets += data.draw(st.lists(subsets, max_size=3))
    before = check_sufficiency(g, targets, flags)
    for extra in data.draw(st.lists(subsets, min_size=1, max_size=4)):
        targets.insert(data.draw(st.integers(0, len(targets))), extra)
        after = check_sufficiency(g, targets, flags)
        assert set(after.missing) <= set(before.missing)
        assert after.has_joint >= before.has_joint
        assert after.has_observational >= before.has_observational
        assert after.sufficient >= before.sufficient
        before = after


coefficients = st.floats(-1e6, 1e6, allow_subnormal=True)


@st.composite
def functions_and_inputs(draw):
    n = draw(st.integers(1, 6))
    nodes = st.integers(0, n - 1)
    linear = draw(st.dictionaries(nodes, coefficients, max_size=n))
    pairs = st.tuples(nodes, nodes).filter(lambda pq: pq[0] != pq[1])
    pairwise = draw(st.dictionaries(pairs.map(lambda pq: tuple(sorted(pq))), coefficients,
                                    max_size=n * (n - 1) // 2))
    fn = StructuralFunction(draw(coefficients), linear, pairwise)
    m = draw(st.integers(1, 40))
    x = np.random.default_rng(draw(st.integers(0, 1 << 30))).standard_normal((m, n))
    x *= draw(st.sampled_from([1.0, 1e-300, 1e150]))
    x[:, draw(nodes)] = draw(st.sampled_from([0.0, -0.0, 5e-324, 1.0]))
    return fn, x, draw(st.sampled_from(["C", "F"]))


@PROPERTY
@given(functions_and_inputs())
def test_in_place_evaluate_matches_fresh_array_formula(case):
    """Evaluating in one work buffer keeps every term's operation order,
    (c * x_p) * x_q included, so values equal the fresh-array formula bit
    for bit on row- and column-major inputs and on 1-d rows."""
    fn, x, order = case
    want = structural_function_values(fn, x)
    got = fn.evaluate(np.asarray(x, order=order))
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()
    assert fn.evaluate(x[0]).tobytes() == want[:1].tobytes()


@st.composite
def correlated_pairs(draw):
    """xs and ys = c * xs + noise: |r| from 0 to within a few ulps of 1."""
    m = draw(st.integers(20, 400))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 30)))
    xs = rng.standard_normal(m) * draw(st.sampled_from([1.0, 1e-100, 1e100]))
    noise = rng.standard_normal(m) * np.std(xs)
    coupling = draw(st.one_of(st.floats(-0.4, 0.4), st.floats(-3.0, 3.0),
                              st.sampled_from([-1e8, 1e5, 3e7, 1e9])))
    return xs, coupling * xs + noise


@settings(max_examples=300, deadline=None, derandomize=True)
@given(correlated_pairs())
@example((np.arange(20.0), np.arange(20.0) ** 3))
def test_scalar_pearson_p_value_matches_scipy_stats(pair):
    """The scalar Pearson p-value on the shared ``special.stdtr`` kernel
    equals the old ``stats.t.sf`` formula bit for bit wherever r**2 is
    below the 1 - 1e-15 clip, and the statistic is still corrcoef's r."""
    xs, ys = pair
    r = float(np.corrcoef(xs, ys)[0, 1])
    assume(r * r < 1.0 - 1e-15)
    verdict = run_test(xs, ys, method="pearson")
    assert verdict.statistic == r
    want = pearson_scalar_p_value(xs, ys)
    assert np.float64(verdict.p_value).tobytes() == np.float64(want).tobytes()


@st.composite
def interventions(draw):
    """(n, targets, values): targets as a list in any order, a frozenset or a
    comma string, with one finite value per target as a list or an array."""
    n = draw(st.integers(1, 6))
    nodes = draw(st.lists(st.integers(0, n - 1), unique=True))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(nodes), max_size=len(nodes)))
    spell = draw(st.sampled_from([list, frozenset, lambda t: ",".join(map(str, t))]))
    return n, spell(nodes), draw(st.sampled_from([list, np.asarray]))(values)


@PROPERTY
@given(interventions())
def test_parse_intervention_pairs_values_in_ascending_node_order(case):
    """``parse_intervention`` pairs the values with the targets sorted, as
    every reader of an intervention did before it, and the ``fixed:``
    policy that ``true_ace_oracle`` builds from it keeps its bytes."""
    n, targets, values = case
    pinned = scm.parse_intervention(targets, values, n)
    assert pinned == dict(zip(sorted(scm.parse_targets(targets, n)), values))
    floats = np.asarray(values, dtype=float).reshape(-1)
    policy = "fixed:" + ",".join(repr(float(v)) for v in floats) if pinned else "std_normal"
    drawn = InterventionalDataset(pinned.keys(), policy, np.zeros((3, n + 1)), 1)
    with mock.patch.object(scm, "sample", return_value=drawn) as spy:
        scm.true_ace_oracle(random_anm(Dag(n), seed=0), targets, values, 3, seed=1)
    assert spy.call_args.args[2] == policy
