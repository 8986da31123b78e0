"""CLI surface: subcommands, exit codes, config composition, determinism."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canm import scm
from canm.cli import run_cli
from canm.discovery import core_intervention_plan
from canm.estimation import AceQuery, ace, fit_model, model_to_json, save_model
from canm.graph import Dag
from canm.scm import (
    ConfoundedAnm,
    NoiseSpec,
    StructuralFunction,
    anm_to_json,
    load_dataset,
    random_anm,
    sample,
    save_anm,
)
from fixtures import fig_g1


def run(argv, capsys):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ALL_COMMANDS = ["gen-scm", "sample", "setsys", "plan", "check", "discover",
                "fit", "ace", "experiment", "healthcare"]


@pytest.mark.parametrize("cmd", ALL_COMMANDS)
def test_help_exits_zero(cmd, capsys):
    code, out, _ = run([cmd, "--help"], capsys)
    assert code == 0
    assert "--" in out


def test_setsys_prints_json(capsys):
    code, out, _ = run(["setsys", "--n", "4"], capsys)
    assert code == 0
    assert json.loads(out) == [[1, 3], [0, 2], [2, 3], [0, 1]]


def test_plan_on_known_graph(tmp_path, capsys):
    path = tmp_path / "g1.json"
    fig_g1().save(path)
    code, out, _ = run(["plan", "--graph", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == [[], [0, 1, 2, 3], [1], [0, 1, 2]]


def test_check_insufficient_exits_three(tmp_path, capsys):
    gpath = tmp_path / "g1.json"
    fig_g1().save(gpath)
    tpath = tmp_path / "targets.json"
    tpath.write_text(json.dumps([[], [0, 1, 2, 3]]))
    code, out, err = run(["check", "--graph", str(gpath), "--targets-file", str(tpath)], capsys)
    assert code == 3
    report = json.loads(out)
    assert report["missing"] == [2, 3]
    assert "identifiability" in err


def test_missing_seed_is_usage_error(tmp_path, capsys):
    code, _, err = run(["gen-scm", "--n", "3", "--out", str(tmp_path / "m.json")], capsys)
    assert code == 2
    assert "usage" in err


def test_sample_deterministic_bytes(tmp_path, capsys):
    anm = tmp_path / "anm.json"
    code, _, _ = run(["gen-scm", "--n", "3", "--dmax", "2", "--seed", "5",
                      "--out", str(anm)], capsys)
    assert code == 0
    for name in ("a.csv", "b.csv"):
        code, _, _ = run(["sample", "--anm", str(anm), "--targets", "0,2",
                          "--samples", "50", "--seed", "9",
                          "--out", str(tmp_path / name)], capsys)
        assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_discover_fit_ace_round_trip(tmp_path, capsys):
    anm = tmp_path / "anm.json"
    run(["gen-scm", "--n", "3", "--dmax", "2", "--seed", "6", "--out", str(anm)], capsys)
    code, out, _ = run(["discover", "--anm", str(anm), "--dmax", "2", "--alpha", "3",
                        "--samples", "150", "--test", "oracle", "--seed", "7",
                        "--out", str(tmp_path / "disc")], capsys)
    assert code == 0
    assert os.path.exists(tmp_path / "disc" / "graph.json")
    assert os.path.exists(tmp_path / "disc" / "effective_config.json")
    assert os.path.exists(tmp_path / "disc" / "datasets" / "0.csv")
    code, out, _ = run(["fit", "--from-dir", str(tmp_path / "disc"),
                        "--out", str(tmp_path / "model.json"), "--seed", "1"], capsys)
    assert code == 0
    code, out, _ = run(["ace", "--model", str(tmp_path / "model.json"),
                        "--targets", "0", "--values", "1.0", "--mc", "2000",
                        "--seed", "3"], capsys)
    assert code == 0
    label, vals, est, se = out.strip().split(",")
    assert label == "X1"
    float(est), float(se)


def test_config_file_composition(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "dmax": 2}))
    out_path = tmp_path / "m.json"
    code, _, _ = run(["gen-scm", "--config", str(cfg), "--seed", "3",
                      "--out", str(out_path)], capsys)
    assert code == 0
    model = json.loads(out_path.read_text())
    assert model["graph"]["n"] == 5
    # explicit flag beats the config value
    code, _, _ = run(["gen-scm", "--config", str(cfg), "--n", "2", "--seed", "3",
                      "--out", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["graph"]["n"] == 2


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wat": 1}))
    code, _, err = run(["gen-scm", "--config", str(cfg), "--seed", "3",
                        "--out", str(tmp_path / "m.json")], capsys)
    assert code == 2
    assert "unknown config keys" in err


def test_required_flag_can_come_from_config(tmp_path, capsys):
    out_path = tmp_path / "m.json"
    cfg = _write_cfg(tmp_path, {"out": str(out_path), "n": 3})
    code, out, err = run(["gen-scm", "--config", cfg, "--seed", "1"], capsys)
    assert (code, out, err) == (0, f"{out_path}\n", "")
    assert json.loads(out_path.read_text())["graph"]["n"] == 3


def test_experiment_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, err = run(["experiment", "--kind", "sufficiency", "--seed", "2",
                        "--config", str(cfg), "--out", str(tmp_path / "exp")], capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert "JSON object" in err


def test_ace_rejects_non_finite_value(tmp_path, capsys):
    anm = tmp_path / "anm.json"
    run(["gen-scm", "--n", "2", "--dmax", "2", "--seed", "6", "--out", str(anm)], capsys)
    run(["discover", "--anm", str(anm), "--dmax", "2", "--alpha", "1", "--samples", "100",
         "--test", "oracle", "--seed", "7", "--out", str(tmp_path / "disc")], capsys)
    code, _, _ = run(["fit", "--from-dir", str(tmp_path / "disc"),
                      "--out", str(tmp_path / "model.json")], capsys)
    assert code == 0
    for value in ("nan", "inf"):
        code, out, err = run(["ace", "--model", str(tmp_path / "model.json"),
                              "--targets", "0", "--values", value, "--seed", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "finite" in err


def test_io_error_exit_code(capsys):
    code, _, err = run(["sample", "--anm", "/nonexistent/x.json", "--seed", "1",
                        "--out", "/tmp/x.csv"], capsys)
    assert code == 5
    assert "io" in err


def test_experiment_echoes_config(tmp_path, capsys):
    code, out, _ = run(["experiment", "--kind", "sufficiency", "--seed", "2",
                        "--config", "/dev/null" if False else str(_suff_cfg(tmp_path)),
                        "--out", str(tmp_path / "exp")], capsys)
    assert code == 0
    assert os.path.exists(tmp_path / "exp" / "sufficiency.csv")
    assert os.path.exists(tmp_path / "exp" / "effective_config.json")


def _suff_cfg(tmp_path):
    path = tmp_path / "suff.json"
    path.write_text(json.dumps({"replications": 4, "n": 6, "max_interventions": 20}))
    return path


def test_healthcare_graph_op(capsys):
    code, out, _ = run(["healthcare", "--op", "graph"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["treatments"] == ["C", "D", "O", "I"]
    assert payload["outcome"] == "T"
    assert sorted(map(tuple, payload["graph"]["edges"])) == [(0, 3), (1, 3)]


def _write_cfg(tmp_path, obj):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _csv_rows(path):
    return len(path.read_text().splitlines()) - 1


def test_explicit_flag_equal_to_default_beats_config(tmp_path, capsys):
    anm = tmp_path / "anm.json"
    run(["gen-scm", "--n", "2", "--seed", "1", "--out", str(anm)], capsys)
    cfg = _write_cfg(tmp_path, {"samples": 50})
    out = tmp_path / "ds.csv"
    base = ["sample", "--anm", str(anm), "--seed", "2", "--config", cfg, "--out", str(out)]
    assert run(base + ["--samples", "1000"], capsys)[0] == 0
    assert _csv_rows(out) == 1000
    assert run(base, capsys)[0] == 0
    assert _csv_rows(out) == 50


@pytest.mark.parametrize("argv, cfg", [
    (["sample", "--anm", "anm.json", "--out", "ds.csv"], {"seed": "abc"}),
    (["sample", "--anm", "anm.json", "--seed", "1", "--out", "ds.csv"], {"samples": 2.5}),
    (["healthcare", "--op", "oracle", "--seed", "1"], {"mc": "x"}),
])
def test_wrong_typed_config_value_is_usage_error(argv, cfg, tmp_path, capsys):
    code, out, err = run(argv + ["--config", _write_cfg(tmp_path, cfg)], capsys)
    assert code == 2
    assert out == "" and "invalid" in err and "Traceback" not in err


@pytest.mark.parametrize("kind, cfg", [
    ("discovery-n", {"replications": "2"}),
    ("mae", {"alpha": "nan", "discover_first": True}),
    ("discovery-n", {"sample_sizes": []}),
    ("discovery-samples", {"sample_sizes": []}),
    ("mae", {"sample_sizes": [], "n": 3}),
    ("healthcare", {"sample_sizes": []}),
    ("discovery-n", {"n_values": []}),
    ("sufficiency", {"d_max": 0}),
    ("sufficiency", {"max_interventions": -1}),
    ("discovery-n", {"permutations": -1, "test": "dcorr", "n_values": [3],
                     "replications": 1}),
])
def test_wrong_typed_experiment_config_is_usage_error(kind, cfg, tmp_path, capsys):
    code, out, err = run(["experiment", "--seed", "1", "--kind", kind, "--out",
                          str(tmp_path / "o"), "--config", _write_cfg(tmp_path, cfg)], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and next(iter(cfg)) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cfg, count", [(None, "2^20 = 1,048,576"), ({"n": 11}, "2^11 = 2,048")])
def test_mae_experiment_refuses_more_than_ten_treatments(cfg, count, tmp_path, capsys):
    # with no config, n is 20: the README's old mae example ran for hours
    argv = ["experiment", "--kind", "mae", "--seed", "5", "--out", str(tmp_path / "o")]
    if cfg:
        argv += ["--config", _write_cfg(tmp_path, cfg)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and count in err
    assert not (tmp_path / "o").exists()


def test_sample_rejects_non_integer_targets(tmp_path, capsys):
    anm = tmp_path / "anm.json"
    run(["gen-scm", "--n", "2", "--seed", "1", "--out", str(anm)], capsys)
    code, _, err = run(["sample", "--anm", str(anm), "--targets", "x", "--seed", "2",
                        "--out", str(tmp_path / "ds.csv")], capsys)
    assert code == 2
    assert err.count("\n") == 1 and "integer" in err


def test_check_rejects_out_of_range_targets(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    Dag(2, {(0, 1)}).save(gpath)
    tpath = tmp_path / "targets.json"
    tpath.write_text(json.dumps([[], [0, 1], [0, 7]]))
    code, out, err = run(["check", "--graph", str(gpath), "--targets-file", str(tpath)], capsys)
    assert code == 2
    assert out == "" and "out of range" in err


@pytest.mark.parametrize("edit", [
    lambda obj: obj["outcome_function"].update(pairwise=[[0.5, 1.9, 1.0]]),
    lambda obj: obj["functions"][1].update(linear={"1.0": 0.3}),
])
def test_sample_rejects_non_integer_function_indices(edit, tmp_path, capsys):
    anm = tmp_path / "anm.json"
    save_anm(random_anm(Dag(2, {(0, 1)}), seed=3), anm)
    obj = json.loads(anm.read_text())
    edit(obj)
    anm.write_text(json.dumps(obj))
    code, out, err = run(["sample", "--anm", str(anm), "--seed", "1",
                          "--out", str(tmp_path / "ds.csv")], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "integer" in err


@pytest.fixture
def model_path(tmp_path):
    anm = random_anm(Dag(2, {(0, 1)}), seed=3)
    datasets = [sample(anm, s, "std_normal", 200, k) for k, s in
                enumerate(core_intervention_plan(anm.graph))]
    path = tmp_path / "model.json"
    save_model(fit_model(anm.graph, datasets), path)
    return str(path)


@pytest.mark.parametrize("values", ["abc", "1,x"])
def test_ace_rejects_non_numeric_values(values, model_path, capsys):
    code, out, err = run(["ace", "--model", model_path, "--targets", "0,1",
                          "--values", values, "--seed", "3"], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "numbers" in err


@pytest.mark.parametrize("values", ["nan", "inf", "abc"])
def test_healthcare_oracle_rejects_bad_values(values, capsys):
    code, out, err = run(["healthcare", "--op", "oracle", "--targets", "0",
                          "--values", values, "--mc", "100", "--seed", "1"], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1


def test_fit_graph_dataset_size_mismatch_is_usage_error(tmp_path, capsys):
    anm = tmp_path / "anm.json"
    run(["gen-scm", "--n", "3", "--seed", "1", "--out", str(anm)], capsys)
    run(["sample", "--anm", str(anm), "--seed", "2", "--out", str(tmp_path / "ds.csv")],
        capsys)
    gpath = tmp_path / "g4.json"
    Dag(4).save(gpath)
    code, _, err = run(["fit", "--graph", str(gpath), "--data", str(tmp_path / "ds.csv"),
                        "--out", str(tmp_path / "model.json")], capsys)
    assert code == 2
    assert "usage" in err and "treatments" in err


def test_rank_deficient_fit_exits_four(tmp_path, capsys):
    # the witness for X2 holds its parent X1 at one value: a singular design
    anm = tmp_path / "anm.json"
    save_anm(random_anm(Dag(2, {(0, 1)}), seed=3), anm)
    gpath = tmp_path / "g.json"
    Dag(2, {(0, 1)}).save(gpath)
    paths = []
    for name, targets, policy in (("obs", "", "std_normal"), ("joint", "all", "std_normal"),
                                  ("w", "0", "fixed:0.5")):
        paths.append(str(tmp_path / f"{name}.csv"))
        assert run(["sample", "--anm", str(anm), "--targets", targets, "--policy", policy,
                    "--samples", "200", "--seed", "4", "--out", paths[-1]], capsys)[0] == 0
    code, out, err = run(["fit", "--graph", str(gpath), "--data", *paths,
                          "--out", str(tmp_path / "model.json")], capsys)
    assert code == 4
    assert out == "" and err.count("\n") == 1 and "rank-deficient" in err


@pytest.mark.parametrize("argv, cfg", [
    (["sample", "--anm", "anm.json", "--seed", "1", "--out", "ds.csv"], {"samples": "x"}),
    (["sample", "--anm", "anm.json", "--seed", "1", "--out", "ds.csv", "--bogus"], None),
    (["sample", "--seed", "1"], None),
    (["nope"], None),
])
def test_argparse_usage_error_is_one_line(argv, cfg, tmp_path, capsys):
    if cfg is not None:
        argv = argv + ["--config", _write_cfg(tmp_path, cfg)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and err.startswith("error: usage: canm")


def test_check_rejects_non_integral_targets(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    Dag(2, {(0, 1)}).save(gpath)
    tpath = tmp_path / "targets.json"
    tpath.write_text(json.dumps([[], [0, 1], [1.5]]))
    code, out, err = run(["check", "--graph", str(gpath), "--targets-file", str(tpath)], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "integer" in err


@pytest.fixture
def disc_dir(tmp_path, capsys, monkeypatch):
    """A 4-node discovery output directory, and the list that records every
    dataset whose rows are parsed from then on."""
    anm = tmp_path / "anm.json"
    run(["gen-scm", "--n", "4", "--dmax", "3", "--seed", "6", "--out", str(anm)], capsys)
    disc = tmp_path / "disc"
    assert run(["discover", "--anm", str(anm), "--dmax", "3", "--alpha", "2",
                "--samples", "200", "--test", "oracle", "--seed", "7",
                "--out", str(disc)], capsys)[0] == 0
    parsed = []

    def counting_load(csv_path):
        parsed.append(csv_path)
        return load_dataset(csv_path)

    monkeypatch.setattr(scm, "load_dataset", counting_load)
    return disc, parsed


def test_fit_from_dir_parses_only_the_regimes_it_fits_from(disc_dir, tmp_path, capsys):
    disc, parsed = disc_dir
    lazy, eager = tmp_path / "lazy.json", tmp_path / "eager.json"
    assert run(["fit", "--from-dir", str(disc), "--out", str(lazy)], capsys)[0] == 0
    count = json.loads((disc / "report.json").read_text())["dataset_count"]
    assert 0 < len(parsed) <= 4 + 2 < count
    paths = [str(disc / "datasets" / f"{k}.csv") for k in range(count)]
    assert run(["fit", "--graph", str(disc / "graph.json"), "--data", *paths,
                "--out", str(eager)], capsys)[0] == 0
    assert lazy.read_bytes() == eager.read_bytes()


def test_fit_from_dir_checks_every_dataset_before_parsing(disc_dir, capsys):
    disc, parsed = disc_dir
    argv = ["fit", "--from-dir", str(disc), "--out", str(disc / "model.json")]
    graph = (disc / "graph.json").read_text()
    Dag(5).save(disc / "graph.json")
    code, _, err = run(argv, capsys)
    assert code == 2 and "treatments" in err
    (disc / "graph.json").write_text(graph)
    meta = disc / "datasets" / "3.meta.json"
    text = meta.read_text()
    meta.write_text(json.dumps({**json.loads(text), "targets": [7]}))
    code, _, err = run(argv, capsys)
    assert code == 2 and "out of range" in err
    meta.unlink()
    code, _, err = run(argv, capsys)
    assert code == 5 and err.count("\n") == 1
    meta.write_text(text)
    (disc / "datasets" / "5.csv").unlink()
    assert run(argv, capsys)[0] == 5
    assert parsed == []


@pytest.mark.parametrize("policy", ["uniform:1", "uniform:a,b", "fixed:x", "uniform:2,1",
                                    "uniform:0,inf"])
def test_malformed_policy_is_usage_error(policy, tmp_path, capsys):
    anm = tmp_path / "anm.json"
    save_anm(random_anm(Dag(2, {(0, 1)}), seed=3), anm)
    code, out, err = run(["sample", "--anm", str(anm), "--targets", "0", "--policy", policy,
                          "--samples", "20", "--seed", "4", "--out",
                          str(tmp_path / "ds.csv")], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "policy" in err


def constant_root_anm() -> ConfoundedAnm:
    """X1 -> X2 plus a root X3 = 0.5 + U3 with sd(U3) = 1e-20, which
    rounds away: X3 is constant in every regime that leaves it free."""
    cov = [[1.0, 0.3, 0.0, 0.2], [0.3, 1.0, 0.0, 0.1], [0.0, 0.0, 1e-40, 0.0],
           [0.2, 0.1, 0.0, 1.0]]
    return ConfoundedAnm(
        Dag(3, {(0, 1)}),
        (StructuralFunction(), StructuralFunction(0.0, {0: 0.8}), StructuralFunction(0.5)),
        StructuralFunction(0.0, {0: 1.0, 1: 1.0, 2: 1.0}),
        NoiseSpec([0.0] * 4, cov),
    )


def test_discover_constant_column_in_worker_exits_two(tmp_path, capsys, forking):
    anm = tmp_path / "anm.json"
    save_anm(constant_root_anm(), anm)
    code, out, err = run(["discover", "--anm", str(anm), "--test", "pearson", "--alpha", "1",
                          "--samples", "50", "--seed", "5", "--out", str(tmp_path / "d")],
                         capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "constant input vector" in err


@pytest.mark.parametrize("argv,word", [
    (["discover", "--alpha", "nan"], "alpha"),
    (["discover", "--alpha", "inf"], "alpha"),
    (["discover", "--test", "pearson", "--level", "nan"], "level"),
    (["discover", "--test", "pearson", "--level", "7"], "level"),
    (["discover", "--test", "pearson", "--level", "0"], "level"),
    (["discover", "--test", "pearson", "--level", "1"], "level"),
    (["gen-scm", "--pairwise-prob", "nan"], "pairwise_prob"),
    (["gen-scm", "--pairwise-prob", "2"], "pairwise_prob"),
    (["gen-scm", "--pairwise-prob", "-0.5"], "pairwise_prob"),
])
def test_out_of_range_parameter_is_usage_error(argv, word, tmp_path, capsys):
    anm = tmp_path / "anm.json"
    save_anm(random_anm(Dag(3, {(0, 1)}), seed=3), anm)
    if argv[0] == "discover":
        argv = argv + ["--anm", str(anm), "--samples", "50"]
    else:
        argv = argv + ["--n", "3"]
    code, out, err = run(argv + ["--seed", "4", "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and word in err
    assert not (tmp_path / "out").exists()


def test_oracle_discover_without_samples_writes_nothing(tmp_path, capsys):
    anm = tmp_path / "anm.json"
    save_anm(random_anm(Dag(3, {(0, 1)}), seed=3), anm)
    code, out, err = run(["discover", "--anm", str(anm), "--test", "oracle", "--samples", "0",
                          "--seed", "4", "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "m must be >= 1" in err
    assert not (tmp_path / "out").exists()


def chain_fit(regressor):
    """A 3-node chain model fitted from the core plan."""
    anm = random_anm(Dag(3, {(0, 1), (1, 2)}), seed=3)
    datasets = [sample(anm, s, "std_normal", 300, k) for k, s in
                enumerate(core_intervention_plan(anm.graph))]
    return fit_model(anm.graph, datasets, regressor=regressor)


def chain_model(tmp_path, regressor):
    """``chain_fit`` saved as JSON."""
    path = tmp_path / f"{regressor}.json"
    save_model(chain_fit(regressor), path)
    return path


def ace_line(path, capsys):
    return run(["ace", "--model", str(path), "--targets", "0", "--values", "1.0",
                "--mc", "1000", "--seed", "4"], capsys)


# ace lines of the chain models; a saved model reads back exactly, so the
# CLI line is the in-memory model's
@pytest.mark.parametrize("regressor,line", [
    pytest.param("basis", "X1,1,0.78925892906320305,0.029189355135515967\n", id="basis"),
    pytest.param("knn", "X1,1,0.68772122933780755,0.032053527647189099\n", id="knn"),
])
def test_valid_saved_model_gives_the_same_ace_line(regressor, line, tmp_path, capsys):
    est = ace(chain_fit(regressor), AceQuery(3, {0: 1.0}), 1000, 4)
    assert f"X1,1,{est.value:.17g},{est.stderr:.17g}\n" == line
    assert ace_line(chain_model(tmp_path, regressor), capsys) == (0, line, "")


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def edit(obj):
        for key in keys:
            obj = obj[key]
        obj[last] = value
    return edit


# One corruption per case: (regressor, edit of the saved JSON, word in the error).
CORRUPT_MODELS = {
    "outcome-term-on-node-9":
        ("basis", _set("outcome_equation", "form", "linear", "9", 1.0), "non-parents [9]"),
    "treatment-term-on-non-parent":
        ("basis", _set("equations", 0, "form", "linear", "2", 1.0), "non-parents [2]"),
    "nan-in-sigma": ("basis", _set("sigma_hat", 1, 1, float("nan")), "finite"),
    "equations-out-of-order": ("basis", lambda obj: obj["equations"].reverse(), "node order"),
    "node-mismatch": ("basis", _set("equations", 1, "node", 2), "node order"),
    "outcome-node-mismatch": ("basis", _set("outcome_equation", "node", 0), "node order"),
    "parents-mismatch": ("basis", _set("equations", 2, "parents", [0, 1]), "parents"),
    "outcome-parents-mismatch": ("basis", _set("outcome_equation", "parents", [0, 1]), "parents"),
    "missing-equation": ("basis", lambda obj: obj["equations"].pop(), "equations"),
    "ragged-sigma": ("basis", _set("sigma_hat", 1, [0.0]), "malformed"),
    # both exited 4 (NumericalError) or were silently symmetrized before
    "asymmetric-sigma": ("basis", _set("sigma_hat", 0, 1, 50.0), "symmetric"),
    "non-psd-sigma": ("basis", _set("sigma_hat", [[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0],
                                                  [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
                      "not PSD"),
    "knn-short-train-y": ("knn", lambda obj: obj["equations"][1]["train_y"].pop(), "shapes"),
    "knn-center-shape": ("knn", _set("equations", 1, "center", []), "shapes"),
    # non-finite numbers, which would make ace print nan
    "nan-outcome-intercept": ("basis", _set("outcome_equation", "form", "intercept", float("nan")),
                              "finite"),
    "infinite-coefficient": ("basis", _set("equations", 1, "form", "linear", "0", float("inf")),
                             "finite"),
    "knn-nan-train-y": ("knn", _set("equations", 1, "train_y", 0, float("nan")), "finite"),
    "knn-zero-scale": ("knn", _set("equations", 1, "scale", [0.0]), "positive scale"),
}


@pytest.mark.parametrize("regressor,edit,word", CORRUPT_MODELS.values(), ids=CORRUPT_MODELS)
def test_corrupt_model_json_is_usage_error(regressor, edit, word, tmp_path, capsys):
    path = chain_model(tmp_path, regressor)
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    code, out, err = ace_line(path, capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and word in err


def test_fit_knn_k_below_one_is_usage_error(disc_dir, tmp_path, capsys):
    disc, _ = disc_dir
    out_path = tmp_path / "model.json"
    code, out, err = run(["fit", "--from-dir", str(disc), "--regressor", "knn", "--knn-k", "0",
                          "--out", str(out_path)], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "knn_k" in err
    assert not out_path.exists()


def _anm_doc(edit=None):
    obj = anm_to_json(random_anm(Dag(2, {(0, 1)}), seed=3))
    if edit is not None:
        edit(obj)
    return obj


def _reader(kind, tmp_path):
    """The file that a command reads for one kind of canm input, and the
    command; every other file the command reads is valid."""
    Dag(2, {(0, 1)}).save(tmp_path / "graph.json")
    graph = str(tmp_path / "graph.json")
    return {
        "anm": ("anm.json", ["sample", "--anm", str(tmp_path / "anm.json"), "--seed", "1",
                             "--samples", "20", "--out", str(tmp_path / "ds.csv")]),
        "graph": ("graph.json", ["plan", "--graph", graph]),
        "report": ("report.json", ["fit", "--from-dir", str(tmp_path),
                                   "--out", str(tmp_path / "model.json")]),
        "targets": ("t.json", ["check", "--graph", graph, "--targets-file",
                               str(tmp_path / "t.json")]),
    }[kind]


# (kind of file, its document, a word of the error): documents of the wrong
# shape, float node indices, non-finite noise
MALFORMED_FILES = {
    "anm-list": ("anm", [], "malformed"),
    "anm-functions-int": ("anm", _anm_doc(_set("functions", 5)), "malformed"),
    "anm-ragged-noise-cov": ("anm", _anm_doc(_set("noise_cov", 1, [0.0])), "malformed"),
    "anm-noise-mean-text": ("anm", _anm_doc(_set("noise_mean", "abc")), "malformed"),
    "anm-flags-int": ("anm", _anm_doc(_set("independent_flags", 3)), "malformed"),
    "anm-functions-as-lists": ("anm", _anm_doc(
        lambda obj: obj.update(functions=[list(fn.values()) for fn in obj["functions"]])),
        "malformed"),
    "graph-short-edge": ("graph", {"n": 2, "edges": [[0]]}, "malformed"),
    "report-count-text": ("report", {"dataset_count": "x", "interventions_used": 1, "n": 2},
                          "malformed"),
    "report-list": ("report", [], "malformed"),
    "report-count-bool": ("report", {"dataset_count": True, "interventions_used": 1, "n": 2},
                          "bool"),
    "report-used-bool": ("report", {"dataset_count": 1, "interventions_used": True, "n": 2},
                         "bool"),
    "targets-file-int": ("targets", 5, "malformed"),
    "graph-float-n": ("graph", {"n": 3.7, "edges": [[0, 1]]}, "integer"),
    "graph-float-edge": ("graph", {"n": 3, "edges": [[0.9, 1.2]]}, "integer"),
    "anm-nan-noise-mean": ("anm", _anm_doc(_set("noise_mean", 0, float("nan"))),
                           "noise mean and covariance"),
    "anm-infinite-noise-cov": ("anm", _anm_doc(_set("noise_cov", 1, 1, float("inf"))),
                               "noise mean and covariance"),
}


@pytest.mark.parametrize("kind,doc,word", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_malformed_file_is_usage_error(kind, doc, word, tmp_path, capsys):
    name, argv = _reader(kind, tmp_path)
    (tmp_path / name).write_text(json.dumps(doc))
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and word in err


@pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe\x00{}"], ids=["text", "not-utf-8"])
@pytest.mark.parametrize("kind", ["anm", "graph", "report", "targets"])
def test_file_that_is_not_json_is_io_error(kind, text, tmp_path, capsys):
    name, argv = _reader(kind, tmp_path)
    (tmp_path / name).write_bytes(text)
    code, out, err = run(argv, capsys)
    assert code == 5
    assert out == "" and err.count("\n") == 1 and "io" in err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_process(argv):
    """canm in a fresh interpreter, so numpy warnings and the output of forked
    workers reach the stderr that is counted."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "canm.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def overflowing_file(kind, tmp_path):
    """An anm.json with one linear coefficient of 1e308, or a k-NN model.json
    whose outcome ``train_y`` holds 1e308 at the training row nearest the
    query do(X1 = 1) below; every value in either file is finite."""
    if kind == "anm":
        doc = anm_to_json(random_anm(Dag(4, {(0, 1), (1, 2)}), seed=3))
        doc["functions"][1]["linear"]["0"] = 1e308
    else:
        model = chain_fit("knn")
        eq = model.eq_y
        query = (np.array([1.0, *eq.center[1:]]) - eq.center) / eq.scale
        nearest = np.argmin((((eq.train_x - eq.center) / eq.scale - query) ** 2).sum(axis=1))
        doc = model_to_json(model)
        doc["outcome_equation"]["train_y"][nearest] = 1e308
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv,kind,code", [
    (["sample", "--out", "t.csv"], "anm", 2),
    (["discover", "--test", "pearson", "--samples", "1000", "--out", "d"], "anm", 2),
    (["ace", "--targets", "0", "--values", "1", "--mc", "1000"], "model", 4),
], ids=["sample", "discover", "ace"])
def test_overflow_ends_in_one_stderr_line(argv, kind, code, tmp_path):
    """Numpy overflow warnings never reach stderr, in forked workers neither,
    and an effect estimate that overflows is a numerical error."""
    argv = [argv[0], f"--{kind}", overflowing_file(kind, tmp_path), "--seed", "1", *argv[1:]]
    if "--out" in argv:
        argv[-1] = str(tmp_path / argv[-1])
    got, out, err = run_process(argv)
    assert got == code
    assert out == "" and err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("cfg, extra", [({"seed": [1, 2]}, []), ({"n": [3, 4]}, ["--seed", "1"])])
def test_config_list_for_a_one_word_flag_is_usage_error(cfg, extra, tmp_path, capsys):
    code, out, err = run(["gen-scm", *extra, "--out", str(tmp_path / "m.json"),
                          "--config", _write_cfg(tmp_path, cfg)], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and err.startswith("error: usage: canm")


def test_fit_config_data_is_one_path_or_a_list(tmp_path, capsys):
    anm = tmp_path / "anm.json"
    save_anm(random_anm(Dag(1), seed=3), anm)
    paths = []
    for targets in ("", "all"):
        paths.append(str(tmp_path / f"ds{len(paths)}.csv"))
        assert run(["sample", "--anm", str(anm), "--targets", targets, "--samples", "50",
                    "--seed", "4", "--out", paths[-1]], capsys)[0] == 0
    Dag(1).save(tmp_path / "g.json")
    argv = ["fit", "--graph", str(tmp_path / "g.json"), "--out", str(tmp_path / "model.json"),
            "--config"]
    # one path is one dataset: the observational one alone lacks the joint regime
    code, out, err = run(argv + [_write_cfg(tmp_path, {"data": paths[0]})], capsys)
    assert code == 3
    assert out == "" and err.count("\n") == 1 and "no joint intervention" in err
    assert run(argv + [_write_cfg(tmp_path, {"data": paths})], capsys)[0] == 0


def test_config_value_may_start_with_a_dash(model_path, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"targets": "0,1", "values": "-1,2"})
    code, out, _ = run(["ace", "--model", model_path, "--mc", "100", "--seed", "3",
                        "--config", cfg], capsys)
    assert code == 0 and out.startswith("X1+X2,-1;2,")


@pytest.mark.parametrize("argv", [
    ["gen-scm", "--out", "m.json"],
    ["sample", "--anm", "anm.json", "--out", "ds.csv"],
    ["healthcare", "--op", "oracle", "--mc", "100"],
], ids=["gen-scm", "sample", "healthcare"])
def test_negative_seed_is_usage_error(argv, tmp_path, capsys):
    save_anm(random_anm(Dag(2, {(0, 1)}), seed=3), tmp_path / "anm.json")
    argv = [a if not a.endswith((".json", ".csv")) else str(tmp_path / a) for a in argv]
    code, out, err = run([*argv, "--seed", "-1"], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "--seed" in err


def test_plan_refuses_a_bool_node_count(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"n": True, "edges": []}))
    code, out, err = run(["plan", "--graph", str(gpath)], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "integer" in err


def test_check_refuses_bool_targets(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    Dag(2, {(0, 1)}).save(gpath)
    tpath = tmp_path / "targets.json"
    tpath.write_text(json.dumps([[True]]))
    code, out, err = run(["check", "--graph", str(gpath), "--targets-file", str(tpath)], capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "integer" in err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding a 3-node model, its discovery output, a fit and
    an observational dataset, under the names the fuzzed configs use."""
    work = tmp_path_factory.mktemp("config-fuzz")
    argvs = [
        ["gen-scm", "--n", "3", "--seed", "1", "--out", "anm.json"],
        ["discover", "--anm", "anm.json", "--dmax", "2", "--alpha", "1", "--samples", "100",
         "--test", "oracle", "--seed", "2", "--out", "disc"],
        ["fit", "--from-dir", "disc", "--out", "model.json"],
        ["sample", "--anm", "anm.json", "--samples", "50", "--seed", "3", "--out", "obs.csv"],
    ]
    with _inside(work):
        for argv in argvs:
            assert run_cli(argv) == 0
    return work


@contextlib.contextmanager
def _inside(path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            yield
    finally:
        os.chdir(cwd)


# Per subcommand: the flags every fuzzed run gives, which win over the config
# and keep each run small, and the config keys fuzzed (the subcommand's flags;
# one given on the command line is still parsed from the config's words).
CONFIG_FUZZ = {
    "gen-scm": (["--n", "3", "--seed", "1", "--out", "fz-anm.json"],
                ["seed", "n", "dmax", "pairwise_prob", "out", "config"]),
    "sample": (["--anm", "anm.json", "--samples", "20", "--out", "fz.csv"],
               ["anm", "targets", "policy", "samples", "seed", "out"]),
    "discover": (["--anm", "anm.json", "--dmax", "2", "--alpha", "1", "--samples", "40",
                  "--test", "pearson", "--out", "fz-disc"],
                 ["anm", "dmax", "alpha", "samples", "test", "level", "seed"]),
    "fit": (["--out", "fz-model.json"], ["from_dir", "graph", "data", "regressor", "knn_k"]),
    "ace": (["--model", "model.json", "--mc", "100"], ["model", "targets", "values", "mc", "seed"]),
    "healthcare": (["--op", "oracle", "--mc", "100", "--samples", "30", "--out", "fz-hc.csv"],
                   ["op", "targets", "values", "mc", "samples", "seed"]),
    "experiment": (["--kind", "sufficiency", "--seed", "1", "--out", "fz-exp"],
                   ["replications", "n", "d_max", "max_interventions", "kind", "test", "alpha",
                    "svg"]),
}
# experiment reads its config as an ExperimentConfig: these keep it small
EXPERIMENT_BASE = {"replications": 1, "n": 3, "max_interventions": 3}
WORDS = ["", "x", "0", "2", "-1", "1.5", "nan", "all", "0,1", "-1,2", "2,1",
         "anm.json", "model.json", "disc", "disc/graph.json", "obs.csv"]
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 6),
                    st.sampled_from([0.5, -1.5, 1e308, math.nan, math.inf]),
                    st.sampled_from(WORDS))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                   st.lists(st.lists(SCALARS, max_size=2), min_size=1, max_size=2),
                   st.dictionaries(st.sampled_from(["a", "n"]), SCALARS, min_size=1))


@pytest.mark.parametrize("command", CONFIG_FUZZ)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_config_ends_in_a_documented_exit(command, data, fuzz_dir):
    """Whatever JSON a --config object holds, the command exits 0, 2, 3, 4 or
    5, and a nonzero exit prints exactly one stderr line."""
    pinned, keys = CONFIG_FUZZ[command]
    cfg = data.draw(st.dictionaries(st.sampled_from([*keys, "bogus"]), VALUES, max_size=3))
    if command == "experiment":
        cfg = {**EXPERIMENT_BASE, **cfg}
    elif "seed" not in cfg:
        pinned = [*pinned, "--seed", "1"]
    (fuzz_dir / "fz-cfg.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with _inside(fuzz_dir), contextlib.redirect_stderr(err):
        code = run_cli([command, *pinned, "--config", "fz-cfg.json"])
    assert code in (0, 2, 3, 4, 5), (cfg, err.getvalue())
    assert err.getvalue().count("\n") == (1 if code else 0), (cfg, err.getvalue())
