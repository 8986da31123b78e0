"""Command-line surface.

Subcommands cover generation, sampling, discovery, planning, sufficiency
checking, fitting, effect queries, and the experiment drivers. A JSON config
file can seed any subcommand's flags; explicit flags win. Exit codes:
0 success, 2 usage error, 3 identifiability error, 4 numerical error,
5 I/O error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import estimation, harness, healthcare
from .discovery import (
    check_sufficiency,
    core_intervention_plan,
    learn_observable_graph,
    load_discovery_result,
    save_discovery_result,
)
from .errors import IdentifiabilityError, NumericalError, SingularFitError, UsageError, malformed
from .graph import Dag, random_dag
from .independence import data_ci_test, oracle_ci_test
from .scm import (
    anm_sampler,
    load_anm,
    load_dataset,
    parse_intervention,
    parse_targets,
    random_anm,
    sample,
    save_anm,
    save_dataset,
)
from .setsys import strongly_separating
from .util import read_json, write_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IDENTIFIABILITY = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


def _read_config(path) -> dict:
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _echo_config(args: argparse.Namespace, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "effective_config.json"),
               {k: v for k, v in vars(args).items() if k != "func"})


def _require_seed(args) -> int:
    if args.seed is None or args.seed < 0:
        raise UsageError(f"sampling subcommands need --seed, an integer >= 0; got {args.seed}")
    return int(args.seed)


def _cmd_gen_scm(args) -> int:
    seed = _require_seed(args)
    g = random_dag(args.n, args.dmax, seed=seed)
    anm = random_anm(g, seed + 1, pairwise_prob_y=args.pairwise_prob)
    save_anm(anm, args.out)
    print(args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    seed = _require_seed(args)
    ds = sample(load_anm(args.anm), args.targets, args.policy, args.samples, seed)
    save_dataset(ds, args.out)
    print(args.out)
    return EXIT_OK


def _cmd_setsys(args) -> int:
    system = strongly_separating(args.n)
    print(json.dumps([sorted(s) for s in system]))
    return EXIT_OK


def _cmd_plan(args) -> int:
    g = Dag.load(args.graph)
    plan = core_intervention_plan(g, _parse_flags(args.flags, g.n))
    print(json.dumps([sorted(s) for s in plan]))
    return EXIT_OK


def _parse_flags(text, n):
    flagged = parse_targets(text, n)
    return tuple(i in flagged for i in range(n))


def _cmd_check(args) -> int:
    g = Dag.load(args.graph)
    listed = read_json(args.targets_file)
    with malformed("targets file"):
        report = check_sufficiency(g, listed, _parse_flags(args.flags, g.n))
    print(json.dumps({
        "sufficient": report.sufficient,
        "witness": {str(k): v for k, v in sorted(report.witness.items())},
        "missing": list(report.missing),
        "has_joint": report.has_joint,
        "has_observational": report.has_observational,
    }, sort_keys=True))
    if not report.sufficient:
        raise IdentifiabilityError(
            f"targets are insufficient; missing witnesses for {list(report.missing)}",
            report=report,
        )
    return EXIT_OK


def _cmd_discover(args) -> int:
    seed = _require_seed(args)
    anm = load_anm(args.anm)
    test = (oracle_ci_test(anm.graph) if args.test == "oracle"
            else data_ci_test(args.test, level=args.level, seed=seed))
    res = learn_observable_graph(
        anm_sampler(anm), test, anm.n, args.dmax, args.alpha, args.samples, seed
    )
    save_discovery_result(res, args.out)
    _echo_config(args, args.out)
    print(json.dumps({
        "out": args.out,
        "edges": sorted([a, b] for a, b in res.learned_graph.edges),
        "interventions_used": res.interventions_used,
        "datasets": len(res.collected),
    }, sort_keys=True))
    return EXIT_OK


def _cmd_fit(args) -> int:
    if args.from_dir:
        res = load_discovery_result(args.from_dir)
        graph, datasets = res.learned_graph, res.collected
    else:
        if not args.graph or not args.data:
            raise UsageError("fit needs --from-dir or both --graph and --data")
        graph = Dag.load(args.graph)
        datasets = [load_dataset(p) for p in args.data]
    model = estimation.fit_model(graph, datasets, regressor=args.regressor,
                                 knn_k=args.knn_k)
    estimation.save_model(model, args.out)
    print(args.out)
    return EXIT_OK


def _cmd_ace(args) -> int:
    seed = _require_seed(args)
    model = estimation.load_model(args.model)
    pinned = parse_intervention(args.targets, args.values, model.n)
    est = estimation.ace(model, estimation.AceQuery(model.n, pinned), args.mc, seed)
    label = "+".join(f"X{t + 1}" for t in pinned) or "none"
    vals = ";".join(f"{v:.17g}" for v in pinned.values())
    print(f"{label},{vals},{est.value:.17g},{est.stderr:.17g}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    seed = _require_seed(args)
    overrides = _read_config(args.config) if args.config else {}
    overrides.setdefault("kind", args.kind)
    overrides["seed"] = seed
    overrides["out_dir"] = args.out
    if args.samples is not None:
        overrides["sample_sizes"] = [args.samples]
    cfg = harness.ExperimentConfig.from_dict(overrides)
    path = harness.run_experiment(cfg)
    _echo_config(args, args.out)
    print(path)
    return EXIT_OK


def _cmd_healthcare(args) -> int:
    net, roles = healthcare.healthcare_model()
    if args.op == "graph":
        print(json.dumps({
            "treatments": list(roles["treatments"]),
            "outcome": roles["outcome"],
            "graph": roles["graph"].to_json(),
        }, sort_keys=True))
        return EXIT_OK
    seed = _require_seed(args)
    if args.op == "sample":
        ds = healthcare.healthcare_dataset(net, roles, args.targets, args.samples, seed)
        save_dataset(ds, args.out)
        print(args.out)
        return EXIT_OK
    est = healthcare.healthcare_oracle(net, roles, args.targets, args.values, args.mc, seed)
    print(f"{est.value:.17g},{est.stderr:.17g}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage problem as a UsageError, so it ends in the one-line
    ``error: usage:`` message and exit 2 like every other bad input; subparsers
    inherit the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The canm parser."""
    parser = _Parser(
        prog="canm",
        description="confounded additive-noise models: simulate, discover, estimate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON object of flag values; flags win")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen-scm", help="emit a random model as JSON")
    common(p)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--pairwise-prob", type=float, default=0.5, dest="pairwise_prob")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_scm)

    p = sub.add_parser("sample", help="draw an interventional dataset from a model")
    common(p)
    p.add_argument("--anm", required=True)
    p.add_argument("--targets", default="", help="'all', '' or comma indices like 0,2")
    p.add_argument("--policy", default="std_normal")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out", required=True, help="CSV path; sidecar written next to it")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("setsys", help="print the strongly separating set system")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_setsys)

    p = sub.add_parser("plan", help="direct intervention plan from a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--flags", default="", help="comma indices of independent-noise treatments")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("check", help="sufficiency report for a target list")
    p.add_argument("--graph", required=True)
    p.add_argument("--targets-file", required=True, dest="targets_file",
                   help="JSON list of target lists")
    p.add_argument("--flags", default="")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("discover", help="learn the graph and collect datasets")
    common(p)
    p.add_argument("--anm", required=True)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--test", choices=("dcorr", "pearson", "oracle"), default="dcorr")
    p.add_argument("--level", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_discover)

    p = sub.add_parser("fit", help="fit a model from datasets")
    common(p)
    p.add_argument("--from-dir", dest="from_dir", help="discovery output directory")
    p.add_argument("--graph")
    p.add_argument("--data", nargs="*", help="dataset CSV paths")
    p.add_argument("--regressor", choices=("basis", "knn"), default="basis")
    p.add_argument("--knn-k", type=int, default=10, dest="knn_k")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("ace", help="query a fitted model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--targets", default="")
    p.add_argument("--values", default="")
    p.add_argument("--mc", type=int, default=100_000)
    p.set_defaults(func=_cmd_ace)

    p = sub.add_parser("experiment", help="run a named experiment")
    common(p)
    p.add_argument("--kind", choices=harness.EXPERIMENT_KINDS, required=True)
    p.add_argument("--samples", type=int, default=None,
                   help="shortcut for a single-entry sample_sizes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("healthcare", help="bundled-network operations")
    common(p)
    p.add_argument("--op", choices=("graph", "sample", "oracle"), required=True)
    p.add_argument("--targets", default="")
    p.add_argument("--values", default="")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--mc", type=int, default=100_000)
    p.add_argument("--out", default="healthcare.csv")
    p.set_defaults(func=_cmd_healthcare)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv. A --config object becomes command-line words that go in
    right after the subcommand, so a flag given on the command line, later,
    wins. Each key becomes its flag. A list gives one word per item after the
    flag, any other value one ``--flag=word``, so a word like "-1,2" is not
    read as a flag. A value that is not a string is written as JSON. A first
    parse finds --config alone, so the config may give a required flag."""
    parser = build_parser()
    first = _Parser(add_help=False)
    first.add_argument("command", nargs="?")
    first.add_argument("--config", nargs="?")
    found, _ = first.parse_known_args(argv)
    # the experiment handler reads --config itself (the ExperimentConfig schema)
    if found.command == "experiment" or not found.config:
        return parser.parse_args(argv)
    cfg = _read_config(found.config)
    words = []
    for key, value in cfg.items():
        texts = [v if isinstance(v, str) else json.dumps(v)
                 for v in (value if isinstance(value, list) else [value])]
        flag = "--" + key.replace("_", "-")
        words += [flag, *texts] if isinstance(value, list) else [f"{flag}={texts[0]}"]
    at = argv.index(found.command) + 1
    args, extra = parser.parse_known_args([*argv[:at], *words, *argv[at:]])
    unknown = set(cfg) - (set(vars(args)) - {"func", "command"})
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def run_cli(argv) -> int:
    """Run one command and return its exit code. Numpy floating-point
    warnings are silenced, in forked workers too, so a failure prints one
    stderr line; a result that is not finite raises where it is made."""
    try:
        with np.errstate(all="ignore"):
            args = _parse_args(argv)
            return args.func(args)
    except SystemExit as exc:
        # argparse exits 0 after --help; usage problems raise UsageError
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IdentifiabilityError as exc:
        print(f"error: identifiability: {exc}", file=sys.stderr)
        return EXIT_IDENTIFIABILITY
    except (NumericalError, SingularFitError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
