"""Command-line driver.

Subcommands: sample, bounds, experiment, sweep, audit, oracle.  Every
output embeds the effective configuration in comment or JSON form, so a
result file alone identifies the run that produced it.

Exit codes: 0 success, 1 usage or validation error, 2 enumeration or size
budget exceeded, 3 audit flag raised.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

from . import bounds as boundsmod
from . import harness, predicates, rng
from .distributions import (KINDS, _canonical_kind, audit_model,
                            blocks_from_text, build, format_probability,
                            from_descriptor, parse_probability, sample)
from .errors import ResourceLimitError
from .graphs import to_edge_list
from .harness import _cell
from .oracle import exact_event_probability, state_space_size

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_AUDIT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this artifact reserves 2 for
    # resource limits, so remap usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", metavar="FILE",
                   help="model descriptor file (overrides the flags below)")
    p.add_argument("--dist", dest="kind", metavar="KIND",
                   help=" | ".join(kind.alias for kind in KINDS.values()))
    p.add_argument("--n", type=int, help="vertex count")
    p.add_argument("--p", help="edge probability; a/b forms stay exact")
    p.add_argument("--d", type=int, help="dependence bound")
    p.add_argument("--a", type=int, help="edges kept per block (edge-block)")
    p.add_argument("--m", type=int, help="block size (edge-block)")
    p.add_argument("--blocks", metavar="SPEC",
                   help='custom partition, e.g. "0 1 2; 3 4"; rest are singletons')


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", "-o", metavar="PATH", help="default stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _model_from_args(args) -> object:
    if args.model:
        return from_descriptor(Path(args.model).read_text(encoding="utf-8"))
    if not args.kind:
        raise ValueError("need --dist KIND or --model FILE")
    if args.n is None:
        raise ValueError("need --n")
    p = parse_probability(args.p) if args.p is not None else None
    blocks = blocks_from_text(args.n, args.blocks) if args.blocks is not None else None
    return build(args.kind, args.n, p=p, d=args.d, a=args.a, m=args.m,
                 blocks=blocks)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return rng.default_seed()


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report(args, doc, comments, columns, rows) -> None:
    """Write a command's result: its JSON document under --format json,
    else its table (harness.write_table)."""
    if args.format == "json":
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        _emit(harness.write_table(comments, columns, rows), args.output)


def _model_echo(model) -> str:
    parts = [f"kind={model.kind}", f"n={model.n}",
             f"p={format_probability(model.p)}", f"d={model.d}"]
    parts += [f"{key}={getattr(model, key)}" for key in ("a", "m") if model.uniform]
    return " ".join(parts)


def cmd_sample(args) -> int:
    model = _model_from_args(args)
    seed = _resolve_seed(args)
    graph = sample(model, seed).graph
    text = (f"# depgraphs sample\n# model: {_model_echo(model)}\n"
            f"# seed: {seed}\n") + to_edge_list(graph)
    _emit(text, args.output)
    return EXIT_OK


# the bounds subcommand's typed flags, each passed to bounds.evaluate by
# name: every parameter of a bound but p and pattern, ints for the counts
BOUND_FLAGS = {key: int if key in boundsmod.COUNTS else float
               for bound in boundsmod.BOUNDS.values() for key in bound.parameters
               if key not in ("p", "pattern")}


def cmd_bounds(args) -> int:
    params = {key: getattr(args, key) for key in BOUND_FLAGS
              if getattr(args, key) is not None}
    if args.p is not None:
        params["p"] = float(parse_probability(args.p))
    pattern = predicates.resolve_pattern(args.pattern) if args.pattern else None
    # a bound's warning (a constant below the proved one) is one stderr line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reports = boundsmod.evaluate(args.bound, pattern=pattern, **params)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    rows = [(r.name, ";".join(f"{k}={_cell(v)}" for k, v in sorted(r.inputs.items())),
             r.value, r.vacuous, r.hypothesis) for r in reports]
    _report(args, [r._asdict() for r in reports], ["depgraphs bounds"],
            ("name", "params", "value", "vacuous", "hypothesis"), rows)
    return EXIT_OK


def _experiment_config(args, forced_task: str | None) -> harness.ExperimentConfig:
    """The config file's settings, or a default grid, with the flags laid
    over them; the environment's seed only where neither gives one.  The
    default grid has a p only for kinds that take one as a setting."""
    if args.config:
        settings = harness.ini_settings(Path(args.config).read_text(encoding="utf-8"))
    else:
        settings = {"n": "10"}
        if args.kind is None or "p" in KINDS[_canonical_kind(args.kind)].settings:
            settings["p"] = "0.5"
    for key in harness.SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if forced_task:
        settings["task"] = forced_task
    if "seed" not in settings:
        settings["seed"] = str(rng.default_seed())
    return harness.ExperimentConfig.from_settings(settings)


def _run_experiment(args, forced_task: str | None = None) -> int:
    config = _experiment_config(args, forced_task)
    result = harness.run_experiment(config)
    if args.format == "json":
        _emit(result.to_json(), args.output)
    else:
        _emit(result.to_csv(), args.output)
        if args.output:
            # provenance document alongside the table
            Path(args.output + ".json").write_text(result.to_json(),
                                                   encoding="utf-8")
    for pt in result.points:
        if pt.error is not None:
            print(f"point {pt.index}: {pt.error}", file=sys.stderr)
    if result.all_failed():
        print("error: every grid point failed", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_experiment(args) -> int:
    return _run_experiment(args)


def cmd_sweep(args) -> int:
    return _run_experiment(args, forced_task="sweep")


def cmd_audit(args) -> int:
    model = _model_from_args(args)
    seed = _resolve_seed(args)
    report = audit_model(model, args.trials, seed, pairs=args.pairs)
    doc = {
        "model": _model_echo(model), "trials": report.trials,
        "seed": report.seed,
        "max_dependency_degree": report.max_dependency_degree,
        "declared_d": report.declared_d, "degree_ok": report.degree_ok,
        "marginal_misses": report.marginal_misses,
        "marginal_tolerance": report.marginal_tolerance,
        "pair_misses": report.pair_misses,
        "pair_tolerance": report.pair_tolerance,
        "flagged": report.flagged,
        "marginals": [{"edge": m.edge, "successes": m.successes,
                       "estimate": m.estimate, "ci_low": m.ci_low,
                       "ci_high": m.ci_high, "flagged": m.flagged}
                      for m in report.marginals],
        "pairs": [{"edge_a": q.edge_a, "edge_b": q.edge_b,
                   "table": list(q.table), "statistic": q.statistic,
                   "p_value": q.p_value, "flagged": q.flagged}
                  for q in report.pairs],
    }
    rows = [("edge", m.edge, None, m.successes, m.trials, m.estimate, m.ci_low,
             m.ci_high, None, None, m.flagged) for m in report.marginals]
    rows += [("pair", q.edge_a, q.edge_b, q.table[0], report.trials, None, None,
              None, q.statistic, q.p_value, q.flagged) for q in report.pairs]
    summaries = (
        ("degree", None, report.max_dependency_degree, not report.degree_ok),
        ("marginals", report.marginal_misses, report.marginal_tolerance,
         report.marginal_misses > report.marginal_tolerance),
        ("pairs", report.pair_misses, report.pair_tolerance,
         report.pair_misses > report.pair_tolerance))
    rows += [(f"summary-{name}", None, None, misses, None, None, None, None,
              statistic, None, flagged)
             for name, misses, statistic, flagged in summaries]
    _report(args, doc, ["depgraphs audit", f"model: {doc['model']}",
                        f"trials: {report.trials}", f"seed: {report.seed}"],
            ("record", "edge_a", "edge_b", "successes", "trials", "estimate",
             "ci_low", "ci_high", "statistic", "p_value", "flagged"), rows)
    return EXIT_AUDIT if report.flagged else EXIT_OK


def cmd_oracle(args) -> int:
    model = _model_from_args(args)
    pred = predicates.parse_predicate(args.predicate, p=model.p)
    start = time.perf_counter()
    value = exact_event_probability(model, pred)
    duration = time.perf_counter() - start
    rational = format_probability(value) if isinstance(value, Fraction) else None
    doc = {"model": _model_echo(model), "predicate": pred.name,
           "rational": rational, "decimal": float(value),
           "outcomes": state_space_size(model), "duration_s": duration}
    _report(args, doc, ["depgraphs oracle", f"model: {doc['model']}",
                        f"predicate: {pred.name}"],
            ("rational", "decimal"), [(rational, doc["decimal"])])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="depgraphs",
                     description="dependent random graph distributions: "
                                 "sampling, bounds, experiments, audits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one graph, write edge-list text")
    _add_model_flags(p)
    p.add_argument("--seed", type=int,
                   help=f"defaults to ${rng.SEED_ENV} or 0")
    p.add_argument("--output", "-o", metavar="PATH")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("bounds", help="evaluate a named theory bound",
                       description="--a, --b and --s are the set sizes |A| and "
                                   "|B| (jumbledness deviation) and |S| "
                                   "(witness floor)")
    p.add_argument("bound", help=f"one of: {', '.join(boundsmod.BOUND_NAMES)}")
    p.add_argument("--p")
    for key, kind in BOUND_FLAGS.items():
        p.add_argument(f"--{key}", type=kind)
    p.add_argument("--pattern", help="k3, c5, path2, ... or an edge-list file")
    _add_output_flags(p)
    p.set_defaults(func=cmd_bounds)

    for name, fn, forced in (("experiment", cmd_experiment, False),
                             ("sweep", cmd_sweep, True)):
        p = sub.add_parser(name, help=("threshold sweep over a p grid" if forced
                                       else "run an experiment grid"))
        p.add_argument("--config", metavar="FILE",
                       help="INI config whose [experiment] keys are the flag "
                            "names; flags override its values, and n, p and "
                            "d take comma-separated grids")
        for key in harness.SETTINGS:
            if key != "task":
                p.add_argument(f"--{key}", *(("--dist",) if key == "kind" else ()))
            elif not forced:
                p.add_argument("--task", choices=harness.TASKS)
        _add_output_flags(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("audit", help="empirical marginal and independence audit")
    _add_model_flags(p)
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--seed", type=int)
    p.add_argument("--pairs", type=int, default=50,
                   help="independent edge pairs to chi-squared test")
    _add_output_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("oracle", help="exact event probability by enumeration")
    _add_model_flags(p)
    p.add_argument("--predicate", required=True,
                   help=" | ".join(map(predicates.form_syntax, predicates.FORMS)))
    _add_output_flags(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
