"""CLI surface: subcommands, exit codes, config composition, determinism."""
import json
import os

import pytest

from canm.cli import run_cli
from canm.fixtures import fig_g1


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
