"""Experiment drivers and the bundled mixed network."""
import os

import numpy as np
import pytest

from canm import estimation, harness, scm, util
from canm.errors import UsageError
from canm.estimation import identifiable
from canm.harness import (
    ExperimentConfig,
    run_discovery_experiment,
    run_healthcare_experiment,
    run_mae_experiment,
    run_sufficiency_experiment,
)
from canm.healthcare import healthcare_dataset, healthcare_model, healthcare_oracle


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(UsageError):
            ExperimentConfig.from_dict({"kind": "sufficiency", "bogus": 1})

    def test_sample_sizes_must_increase(self):
        with pytest.raises(UsageError):
            ExperimentConfig(kind="mae", sample_sizes=(300, 300))

    @pytest.mark.parametrize("kind,field,value", [
        ("discovery-n", "level", float("nan")),
        ("discovery-n", "level", 1.0),
        ("discovery-n", "alpha", float("inf")),
        ("mae", "alpha", float("nan")),  # discover_first raises alpha to at least 3
        ("mae", "pairwise_prob_y", 1.5),
    ])
    def test_out_of_range_parameters_rejected(self, kind, field, value, tmp_path):
        cfg = ExperimentConfig(kind=kind, replications=1, n=3, n_values=(3,),
                               sample_sizes=(50,), discover_first=True,
                               out_dir=str(tmp_path), **{field: value})
        run = run_discovery_experiment if kind == "discovery-n" else run_mae_experiment
        with pytest.raises(UsageError, match=field):
            run(cfg)

    @pytest.mark.parametrize("field,value,wanted", [
        ("replications", "2", "integer"),
        ("seed", 1.5, "integer"),
        ("n", True, "integer"),
        ("alpha", "nan", "number"),
        ("level", None, "number"),
        ("discover_first", 1, "true or false"),
        ("test", 3, "string"),
        ("sample_sizes", [300.0], "list of integers"),
        ("n_values", "35", "list of integers"),
    ])
    def test_wrong_field_type_rejected(self, field, value, wanted):
        with pytest.raises(UsageError, match=f"config field {field} must be .*{wanted}"):
            ExperimentConfig(kind="mae", **{field: value})

    def test_hash_unchanged_by_the_type_checks(self):
        # values computed before fields were type-checked
        assert ExperimentConfig(kind="mae").hash() == "6d6f9d289d6f"
        cfg = ExperimentConfig(kind="discovery-n", sample_sizes=[300, 1000], n_values=[3, 5],
                               alpha=1, level=0.01, discover_first=True)
        assert cfg.sample_sizes == (300, 1000) and cfg.n_values == (3, 5)
        assert cfg.hash() == "0595f9d184ee"
        assert ExperimentConfig(kind="mae", sample_sizes=[np.int64(300)]).sample_sizes == (300,)

    def test_hash_ignores_out_dir(self):
        a = ExperimentConfig(kind="sufficiency", out_dir="x", seed=1)
        b = ExperimentConfig(kind="sufficiency", out_dir="y", seed=1)
        assert a.hash() == b.hash()


class TestHealthcareModel:
    def test_printed_conditional_distribution(self):
        # I | do(C=c, D=d) is Gaussian with mean 100*d and variance set by c
        net, roles = healthcare_model()
        vals = net.sample(100_000, 0, do={"C": 1.0, "D": 2.0})
        assert abs(vals["I"].mean() - 200.0) < 0.02
        assert abs(vals["I"].var() - 1.0) < 0.03
        vals = net.sample(100_000, 1, do={"C": 3.0, "D": 0.5})
        assert abs(vals["I"].mean() - 50.0) < 0.05
        assert abs(vals["I"].var() - 9.0) < 0.2

    def test_outcome_depends_only_on_i_and_o_under_full_do(self):
        net, roles = healthcare_model()
        a = net.sample(50_000, 2, do={"C": 0.0, "D": 0.0, "O": 1.0, "I": 50.0})
        b = net.sample(50_000, 3, do={"C": 3.0, "D": 2.0, "O": 1.0, "I": 50.0})
        se = np.hypot(a["T"].std() / np.sqrt(5e4), b["T"].std() / np.sqrt(5e4))
        assert abs(a["T"].mean() - b["T"].mean()) < 3 * se
        assert abs(a["T"].mean() - (0.02 * 50.0 + 1.5 * 1.0)) < 3 * se

    def test_oracle_null_matches_observational_mean(self):
        net, roles = healthcare_model()
        obs = net.sample(200_000, 4)
        est = healthcare_oracle(net, roles, [], [], 200_000, 5)
        tol = 3 * np.hypot(obs["T"].std() / np.sqrt(2e5), est.stderr)
        assert abs(est.value - obs["T"].mean()) < tol

    def test_listed_targets_pass_gate(self):
        net, roles = healthcare_model()
        g = roles["graph"]
        targets = [frozenset(), frozenset({0, 1}), frozenset(range(4))]
        assert identifiable(g, targets).sufficient

    def test_dataset_layout_and_determinism(self):
        net, roles = healthcare_model()
        a = healthcare_dataset(net, roles, {0, 3}, 200, seed=6)
        b = healthcare_dataset(net, roles, {0, 3}, 200, seed=6)
        assert a.targets == frozenset({0, 3})
        assert a.data.shape == (200, 5)
        np.testing.assert_array_equal(a.data, b.data)


class TestSufficiencyExperiment:
    def test_monotone_and_bounded(self, tmp_path):
        cfg = ExperimentConfig(kind="sufficiency", seed=7, out_dir=str(tmp_path),
                               replications=20, n=10, d_max=3, max_interventions=60)
        path = run_sufficiency_experiment(cfg)
        rows = np.loadtxt(path, delimiter=",", skiprows=2)
        props = rows[:, 1]
        assert np.all(np.diff(props) >= 0.0)
        # every sampled graph here has at least one parented treatment, so
        # nothing is sufficient before the first random draw
        assert props[0] == 0.0
        assert props[-1] >= 0.9 and props[-1] <= 1.0

    def test_all_parentless_is_immediate(self, tmp_path):
        # with d_max large relative to n the random graphs still have parents;
        # force the degenerate case through n=1 graphs instead
        cfg = ExperimentConfig(kind="sufficiency", seed=8, out_dir=str(tmp_path),
                               replications=5, n=1, d_max=2, max_interventions=5)
        path = run_sufficiency_experiment(cfg)
        rows = np.loadtxt(path, delimiter=",", skiprows=2)
        assert rows[0, 1] == 1.0

    def test_default_scale_reaches_high_proportion(self, tmp_path):
        # at the default n=20 scale, 160 random draws are comfortably past
        # the point where nearly every graph has its witnesses
        cfg = ExperimentConfig(kind="sufficiency", seed=88, out_dir=str(tmp_path),
                               replications=50, n=20, d_max=3,
                               max_interventions=160)
        path = run_sufficiency_experiment(cfg)
        rows = np.loadtxt(path, delimiter=",", skiprows=2)
        assert rows[-1, 1] >= 0.95


class TestDiscoveryExperiment:
    def test_oracle_mode_lands_on_zero(self, tmp_path):
        cfg = ExperimentConfig(kind="discovery-samples", seed=9, out_dir=str(tmp_path),
                               replications=6, n=7, d_max=3, alpha=4.0,
                               sample_sizes=(25,), test="oracle")
        path = run_discovery_experiment(cfg)
        rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        assert rows[0, 2] == 0.0

    def test_csv_metadata_line(self, tmp_path):
        cfg = ExperimentConfig(kind="discovery-n", seed=10, out_dir=str(tmp_path),
                               replications=2, n_values=(3, 4), d_max=2, alpha=1.0,
                               sample_sizes=(60,), test="pearson")
        path = run_discovery_experiment(cfg)
        first = open(path).readline()
        assert first.startswith(f"# config_hash={cfg.hash()} seed=10")

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        common = dict(kind="discovery-samples", seed=11, replications=2, n=5,
                      d_max=2, alpha=1.0, sample_sizes=(50, 80), test="pearson")
        pa = run_discovery_experiment(ExperimentConfig(out_dir=str(out_a), **common))
        pb = run_discovery_experiment(ExperimentConfig(out_dir=str(out_b), **common))
        assert open(pa, "rb").read() == open(pb, "rb").read()


class TestMaeExperiment:
    def test_small_run_shape_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(kind="mae", seed=12, out_dir=str(tmp_path / "a"),
                               replications=2, n=3, d_max=2,
                               sample_sizes=(400,), mc_draws=4000, oracle_draws=20_000)
        path, rows = run_mae_experiment(cfg)
        assert len(rows) == 8  # all subsets of three treatments
        assert all(r[3] == 0 for r in rows)  # no gate failures with the direct plan
        cfg_b = ExperimentConfig(kind="mae", seed=12, out_dir=str(tmp_path / "b"),
                                 replications=2, n=3, d_max=2,
                                 sample_sizes=(400,), mc_draws=4000, oracle_draws=20_000)
        path_b, _ = run_mae_experiment(cfg_b)
        assert open(path, "rb").read() == open(path_b, "rb").read()

    def test_scores_against_exact_truth_without_sampling_it(self, tmp_path, monkeypatch):
        def no_mc_oracle(*args, **kwargs):
            raise AssertionError("the mae study drew a Monte-Carlo truth")

        # both the definition and a name imported into the harness
        for mod in (scm, harness):
            monkeypatch.setattr(mod, "true_ace_oracle", no_mc_oracle, raising=False)
        texts = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig(kind="mae", seed=16, out_dir=str(tmp_path / sub),
                                   replications=2, n=3, d_max=2, sample_sizes=(300,),
                                   mc_draws=2000)
            path, rows = run_mae_experiment(cfg)
            assert all(np.isfinite(r[2]) for r in rows)
            texts.append(open(path, "rb").read())
        assert texts[0] == texts[1]

    def test_joint_query_has_smallest_error(self, tmp_path):
        cfg = ExperimentConfig(kind="mae", seed=13, out_dir=str(tmp_path),
                               replications=6, n=3, d_max=2,
                               sample_sizes=(1000,), mc_draws=20_000,
                               oracle_draws=50_000)
        _, rows = run_mae_experiment(cfg)
        by_label = {r[1]: r[2] for r in rows}
        joint = by_label["X1+X2+X3"]
        others = [v for k, v in by_label.items() if k != "X1+X2+X3"]
        assert joint <= np.mean(others)


class TestSvgOutput:
    def test_chart_written_when_requested(self, tmp_path):
        cfg = ExperimentConfig(kind="sufficiency", seed=15, out_dir=str(tmp_path),
                               replications=4, n=5, d_max=2, max_interventions=10,
                               svg=True)
        run_sufficiency_experiment(cfg)
        text = (tmp_path / "sufficiency.svg").read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestNetworkValidation:
    def test_bad_cpt_row_rejected(self):
        from canm.healthcare import MixedBayesNet

        with pytest.raises(UsageError):
            MixedBayesNet(
                nodes=("A",), edges=(), latent=frozenset(),
                discrete={"A": {"parents": [], "support": [0, 1],
                                "table": {"": [0.7, 0.7]}}},
                continuous={},
            )

    def test_nonpositive_variance_rejected(self):
        from canm.healthcare import MixedBayesNet

        with pytest.raises(UsageError):
            MixedBayesNet(
                nodes=("C",), edges=(), latent=frozenset(),
                discrete={},
                continuous={"C": {"parents": [], "mean": {"type": "const", "value": 0.0},
                                  "var": {"type": "const", "value": 0.0}}},
            )


class TestHealthcareExperiment:
    def test_small_run_all_finite(self, tmp_path):
        cfg = ExperimentConfig(kind="healthcare", seed=14, out_dir=str(tmp_path),
                               replications=1, sample_sizes=(2000,),
                               regressor="knn", knn_k=10,
                               mc_draws=5000, oracle_draws=20_000)
        path, rows = run_healthcare_experiment(cfg)
        assert len(rows) == 16
        assert all(np.isfinite(r[2]) for r in rows)


def counting(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call made in this
    process; calls made in forked workers land in the workers' copies."""
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(os.getpid())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestWorkerCount:
    CONFIGS = (
        dict(kind="mae", replications=2, n=3, d_max=2, sample_sizes=(200, 400),
             mc_draws=2000),
        dict(kind="discovery-n", replications=2, n_values=(3, 4), d_max=2, alpha=1.0,
             sample_sizes=(60,), test="pearson", level=1e-3),
    )

    def test_results_do_not_depend_on_worker_count(self, tmp_path, forking, monkeypatch):
        ace_calls = counting(monkeypatch, estimation, "ace")
        discoveries = counting(monkeypatch, harness, "learn_observable_graph")
        files, parent_calls = {}, {}
        for cpus in (1, 2):
            monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
            ace_calls.clear()
            discoveries.clear()
            for config in self.CONFIGS:
                cfg = ExperimentConfig(seed=17, out_dir=str(tmp_path / str(cpus)), **config)
                path = harness.run_experiment(cfg)
                files[cpus, cfg.kind] = open(path, "rb").read()
            parent_calls[cpus] = len(ace_calls), len(discoveries)
        for config in self.CONFIGS:
            assert files[1, config["kind"]] == files[2, config["kind"]]
        # inline, every ace call and every replication runs here; with two
        # workers none does
        assert parent_calls[1] == (2 * 2 * 8, 2 * 2)
        assert parent_calls[2] == (0, 0)

    def test_usage_error_in_a_replication_keeps_its_class(self, tmp_path, forking):
        # too few samples for a statistical test: only the replication's
        # first test batch finds out
        cfg = ExperimentConfig(seed=18, out_dir=str(tmp_path), **dict(
            self.CONFIGS[1], sample_sizes=(10,)))
        with pytest.raises(UsageError, match="at least 20 samples") as info:
            run_discovery_experiment(cfg)
        # raised in a worker: the cause carries the worker's traceback
        assert "_discovery_shd" in str(info.value.__cause__)

    @pytest.mark.parametrize("field,value,match", [
        ("test", "bogus", "unknown independence test"),
        ("level", 5.0, "level"),
    ])
    def test_bad_test_or_level_is_refused_before_any_fork(self, tmp_path, monkeypatch,
                                                          field, value, match):
        def no_fork(fn, items, work):
            raise AssertionError("fork_map called")

        monkeypatch.setattr(harness, "fork_map", no_fork)
        cfg = ExperimentConfig(seed=19, out_dir=str(tmp_path), **dict(
            self.CONFIGS[1], **{field: value}))
        with pytest.raises(UsageError, match=match):
            run_discovery_experiment(cfg)
