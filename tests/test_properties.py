"""Property tests: seed derivation and the JSON/CSV persistence round-trips."""
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from canm.discovery import core_intervention_plan
from canm.estimation import fit_model, model_from_json, model_to_json
from canm.graph import Dag, random_dag
from canm.scm import (
    InterventionalDataset,
    anm_from_json,
    anm_to_json,
    load_dataset,
    random_anm,
    sample,
    save_dataset,
)
from canm.util import derive_seed

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
    # loading re-runs the PSD repair of sigma_hat, which may move its last bits
    sigma = obj.pop("sigma_hat")
    again = model_to_json(back)
    np.testing.assert_allclose(again.pop("sigma_hat"), sigma, rtol=0, atol=1e-12)
    assert again == obj
    x = sample(anm, (), "std_normal", 20, seed).treatments()
    for fitted, again in zip(model.eq + (model.eq_y,), back.eq + (back.eq_y,)):
        assert np.array_equal(again.predict(x), fitted.predict(x))


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 5))
    data = draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(n + 1)),
                           elements=st.floats(allow_nan=False, allow_infinity=False)))
    targets = draw(st.sets(st.integers(0, n - 1)))
    policy = draw(st.sampled_from(["std_normal", "fixed:0.5", "uniform:-2,2"]))
    return InterventionalDataset(frozenset(targets), policy, data, draw(st.integers(0, 1 << 62)))


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
