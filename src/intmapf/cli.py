"""Command-line front end: solve one instance, tune a scale, run a suite, convert maps.

Exit codes: 0 on success, 1 when the solver or tuner comes back empty-handed
(timeout; 'exhausted', a goal unreachable or no solution within --horizon;
'horizon', the tree run out under the automatic horizon, which does not prove
the instance unsolvable; or no successful tuning evaluation), 2 on usage or
file-format errors.  A config file of key=value lines can preload any flag of
the chosen subcommand; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import fields, replace
from pathlib import Path

from .bench import MODES, aggregate, desk_suite, plot_data, rows_to_csv, run_suite, summary_to_csv
from .cbs import Failure, SearchStats, Solution, SolveConfig, serialize_solution, solve
from .graph import build_grid_graph, discretize
from .mapio import ParseError, _cell, make_instance, parse_map, parse_roadmap, parse_scen, serialize_roadmap
from .tuning import TuneConfig, format_tune_report, tune_graph

__all__ = ["main"]

_TUNE = object()  # the scale --tune stores: tune s, then solve with the pick


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_instance(args):
    """Parse map/scen flags into an instance on the real-weighted graph."""
    entries = parse_scen(_read(args.scen))
    if args.roadmap is not None:
        source = parse_roadmap(_read(args.roadmap))
    else:
        source = parse_map(_read(args.map))
    return make_instance(source, entries, args.agents, k=args.k)


def _from_flags(fn, args):
    """Call fn (a config class, desk_suite) with the parsed flags named after its parameters.

    A parameter with no flag, or whose flag is absent, keeps fn's default.
    """
    given = vars(args)
    return fn(**{p: given[p] for p in inspect.signature(fn).parameters if p in given})


def _say(name: str, value) -> None:
    print(f"{name}={_cell(value)}")


def _cmd_solve(args) -> int:
    inst = _load_instance(args)
    s = args.s
    if s is _TUNE:
        tuned = tune_graph(
            inst, _from_flags(TuneConfig, args), solve_config=_from_flags(SolveConfig, args), seed=args.seed
        )
        if tuned.best_s is None:
            print("tuning found no successful evaluation", file=sys.stderr)
            return 1
        s = tuned.best_s
        _say("s_tuned", s)
    if s is None:  # no scale flag
        s = 1.0
    int_inst = replace(inst, graph=discretize(inst.graph, s))
    result = solve(int_inst, _from_flags(SolveConfig, args))
    if isinstance(result, Solution):
        text = serialize_solution(result)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        _say("makespan", result.makespan)
        _print_stats(result.stats, s)
        return 0
    assert isinstance(result, Failure)
    print(f"failure: {result.reason}", file=sys.stderr)
    _print_stats(result.stats, s)
    return 1


def _print_stats(stats: SearchStats, s: float) -> None:
    _say("s_used", s)
    for f in fields(stats):
        _say(f.name, getattr(stats, f.name))


def _cmd_tune(args) -> int:
    inst = _load_instance(args)
    result = tune_graph(
        inst, _from_flags(TuneConfig, args), solve_config=_from_flags(SolveConfig, args), seed=args.seed
    )
    report = format_tune_report(result)
    if args.out:
        Path(args.out).write_text(report)
    else:
        sys.stdout.write(report)
    if result.best_s is None:
        print("tuning found no successful evaluation", file=sys.stderr)
        return 1
    _say("best_s", result.best_s)
    return 0


def _cmd_bench(args) -> int:
    spec = _from_flags(desk_suite, args)  # bench's flags are absent unless given
    if "fixed_s" in vars(args):
        spec = replace(spec, fixed_s=args.fixed_s)
    result = run_suite(spec)
    summaries = aggregate(result.rows)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.csv").write_text(rows_to_csv(result.rows))
    (out_dir / "summary.csv").write_text(summary_to_csv(summaries))
    (out_dir / "success_rate.dat").write_text(plot_data(summaries, "success_rate"))
    (out_dir / "runtime.dat").write_text(plot_data(summaries, "mean_runtime_s"))
    for rec in result.tuning:
        print("tuned", *(f"{f.name}={_cell(getattr(rec, f.name))}" for f in fields(rec)))
    sys.stdout.write(summary_to_csv(summaries))
    print(f"wrote {out_dir / 'results.csv'}")
    return 0


def _cmd_convert(args) -> int:
    grid = parse_map(_read(args.map))
    text = serialize_roadmap(build_grid_graph(grid, args.k))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _add_map_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--map", help="grid map file (Moving AI layout)")
    src.add_argument("--roadmap", help="roadmap graph file")
    p.add_argument("--scen", required=True, help="scenario file")
    p.add_argument("--k", type=int, default=3, choices=(3, 4, 5), help="grid neighborhood exponent")
    p.add_argument("--agents", type=int, required=True, help="number of agents (scenario prefix)")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--disjoint", action="store_true", help="split vertex conflicts disjointly")
    p.add_argument(
        "--lazy-pc", type=int, default=SolveConfig.lazy_pc,
        help="conflicts classified per node; 1 expands the earliest conflict (no prioritization)",
    )
    p.add_argument("--timeout", type=float, default=SolveConfig.timeout, help="solver budget in seconds")
    p.add_argument("--horizon", type=int, default=SolveConfig.horizon, help="latest allowed arrival time")


def _add_tune_flags(p: argparse.ArgumentParser, require_range: bool) -> None:
    p.add_argument("--s-min", type=float, required=require_range, default=None if require_range else 0.5)
    p.add_argument("--s-max", type=float, required=require_range, default=None if require_range else 2.5)
    p.add_argument("--budget", type=int, default=TuneConfig.budget, help="true evaluations")
    p.add_argument("--population", type=int, default=TuneConfig.population)
    p.add_argument("--generations", type=int, default=TuneConfig.generations)
    p.add_argument("--delta", type=float, default=TuneConfig.delta, help="confidence parameter")
    p.add_argument("--eval-timeout", type=float, default=TuneConfig.eval_timeout, help="per-evaluation solver budget")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="intmapf", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    by_name: dict[str, argparse.ArgumentParser] = {}

    p = subs.add_parser("solve", help="solve one instance")
    _add_map_flags(p)
    _add_solver_flags(p)
    # one destination, so an explicit scale flag replaces a config file's of any kind
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--s", type=float, default=None, help="discretization scale")
    mode.add_argument("--baseline", dest="s", action="store_const", const=1.0, help="use s = 1")
    mode.add_argument("--tune", dest="s", action="store_const", const=_TUNE, help="tune s before solving")
    _add_tune_flags(p, require_range=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the solution here instead of stdout")
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.set_defaults(func=_cmd_solve)
    by_name["solve"] = p

    p = subs.add_parser("tune", help="tune the discretization scale")
    _add_map_flags(p)
    _add_solver_flags(p)
    _add_tune_flags(p, require_range=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the report CSV here")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_tune)
    by_name["tune"] = p

    p = subs.add_parser("bench", help="run the bundled desk-scale suite", argument_default=argparse.SUPPRESS)
    p.add_argument("--out-dir", default="bench-out")
    p.add_argument("--seed", type=int)
    p.add_argument("--timeout", type=float, help="solver budget in seconds")
    p.add_argument("--modes", nargs="+", choices=MODES)
    p.add_argument("--fixed-s", type=float)
    p.add_argument("--agents", dest="agent_counts", metavar="N", type=int, nargs="+")
    p.add_argument("--ks", type=int, nargs="+", choices=(3, 4, 5))
    p.add_argument("--scenarios", dest="scenarios_per_case", metavar="N", type=int, help="scenario files per map case")
    p.add_argument("--workers", type=int)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_bench)
    by_name["bench"] = p

    p = subs.add_parser("convert", help="convert a grid map to roadmap text")
    p.add_argument("--map", required=True)
    p.add_argument("--k", type=int, default=3, choices=(3, 4, 5))
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_convert)
    by_name["convert"] = p
    return parser, by_name


def _apply_config(parser: argparse.ArgumentParser, sub: argparse.ArgumentParser, path: str) -> None:
    """Turn key=value lines into subcommand defaults; flags still override."""
    text = _read(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"config {path} line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        action = sub._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None or action.dest in ("help", "config"):
            parser.error(f"config {path} line {lineno}: unknown key {key!r}")
        sub.set_defaults(**{action.dest: _coerce(parser, action, key, val, path, lineno)})
        action.required = False  # a config-provided value satisfies a required flag


def _coerce(parser, action, key, val, path, lineno):
    try:
        if isinstance(action, argparse._StoreConstAction):  # store_true, --baseline, --tune
            low = val.lower()
            if low not in ("true", "false", "1", "0", "yes", "no"):
                raise ValueError(f"not a boolean: {val!r}")
            if low in ("true", "1", "yes"):
                return action.const
            # false reads as the flag left out: store_true is off, and --baseline or
            # --tune keeps the file's scale so far (set_defaults stored it as action.default)
            return not action.const if isinstance(action.const, bool) else action.default
        conv = action.type if action.type is not None else str
        if action.nargs in ("+", "*"):
            items = [conv(v) for v in val.replace(",", " ").split()]
            if action.choices is not None:
                for item in items:
                    if item not in action.choices:
                        raise ValueError(f"invalid choice {item!r}")
            return items
        out = conv(val)
        if action.choices is not None and out not in action.choices:
            raise ValueError(f"invalid choice {out!r}")
        return out
    except ValueError as exc:
        parser.error(f"config {path} line {lineno}: bad value for {key!r}: {exc}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, by_name = _build_parser()
    if argv and argv[0] in by_name:
        # a one-option parser accepts every spelling the subcommand does:
        # --config PATH, --config=PATH and abbreviations such as --conf
        pre = argparse.ArgumentParser(prog=by_name[argv[0]].prog, add_help=False)
        pre.add_argument("--config")
        cfg_path = pre.parse_known_args(argv[1:])[0].config
        if cfg_path is not None:
            try:
                _apply_config(parser, by_name[argv[0]], cfg_path)
            except ParseError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
