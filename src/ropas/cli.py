"""Command line interface.

Subcommands: validate, enumerate, solve, encode-rdrp, rank, simulate.
Reports go to stdout; diagnostics go to stderr.  Exit codes: 0 on success,
1 on a domain failure (semantic problems, infeasibility, an oracle
disagreement), 2 on usage or syntax errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from math import isfinite
from typing import Optional, Sequence

from .decisions import ALTERNATIVE_PARAMETER, daop_to_rop, expected_utility, rank_alternatives
from .errors import RopasError
from .formats import (
    ModelBundle,
    ParseFailure,
    ParseIssue,
    format_assignments,
    format_listing,
    format_number,
    parse_model,
    parse_trace,
    serialize_model,
    write_report,
)
from .goals import check_drp, solve_rdrp
from .model import DEFAULT_ENUMERATION_CAP, enumerate_specifications
from .runtime import run_simulation
from .solver import (
    Infeasible,
    brute_force_enumeration,
    brute_force_oracle,
    classify,
    decode_selection,
    encode_rdrp,
    rop,
    solve_rop,
)

# Exit codes.
OK = 0
FAILURE = 1
USAGE = 2


def _print_issues(issues: list[ParseIssue], stream) -> int:
    for issue in issues:
        print(str(issue), file=stream)
    return USAGE if any(i.kind == "syntax" for i in issues) else FAILURE


class _Unreadable(Exception):
    """A file named on the command line that cannot be read as UTF-8 text."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _Unreadable(path) from err


def _need_model(bundle: ModelBundle) -> None:
    if bundle.model is None:
        raise RopasError("the file declares no model ([variables]/[depends])")


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        parse_model(_read(args.file))
    except ParseFailure as err:
        return _print_issues(err.issues, sys.stdout)
    print("ok")
    return OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    bundle = parse_model(_read(args.file))
    _need_model(bundle)
    model = bundle.model
    exogenous = dict(bundle.config.initial_exogenous)
    feasible = enumerate_specifications(model, exogenous, args.cap)
    if args.oracle and brute_force_enumeration(model, exogenous, args.cap) != feasible:
        print("oracle disagrees with the enumeration", file=sys.stderr)
        return FAILURE
    if args.format == "human":
        for spec in feasible:
            print("spec: " + format_listing(spec.items))
        print(f"{len(feasible)} feasible specification(s)")
    else:
        for spec in feasible:
            print(f"spec {format_assignments(spec.items)}")
        print(f"count {len(feasible)}")
    return OK


def cmd_solve(args: argparse.Namespace) -> int:
    bundle = parse_model(_read(args.file))
    _need_model(bundle)
    problem = rop(bundle.model, dict(bundle.config.initial_exogenous))
    result = solve_rop(problem, cap=args.cap)
    if args.oracle:
        if brute_force_oracle(problem, cap=args.cap) != result:
            print("oracle disagrees with the solver", file=sys.stderr)
            return FAILURE
    kind = classify(problem)
    if isinstance(result, Infeasible):
        if args.format == "human":
            print(f"infeasible: {result.reason}")
        else:
            print("infeasible")
        return FAILURE
    if args.format == "human":
        print(f"problem class: {kind.variable_kind} variables, {kind.depend_kind} depends")
        print(f"objective {bundle.model.decision_rule} = {format_number(result.objective_value)}")
        for spec in result.optima:
            print("optimum: " + format_listing(spec.items))
    else:
        print(f"class variables={kind.variable_kind} depends={kind.depend_kind}")
        print(f"objective {format_number(result.objective_value)}")
        for spec in result.optima:
            print(f"optimum {format_assignments(spec.items)}")
    return OK


def cmd_encode_rdrp(args: argparse.Namespace) -> int:
    bundle = parse_model(_read(args.file))
    if bundle.goals is None:
        raise RopasError("the file declares no goal graph ([goalgraph])")
    problem = encode_rdrp(bundle.goals)
    if args.oracle:
        result = solve_rop(problem)
        expected = solve_rdrp(bundle.goals)
        if isinstance(result, Infeasible):
            if expected:
                print("oracle found selections but the encoding is infeasible", file=sys.stderr)
                return FAILURE
        else:
            decoded = {decode_selection(bundle.goals, spec) for spec in result.optima}
            if decoded != set(expected):
                print("decoded optima differ from the direct goal solver", file=sys.stderr)
                return FAILURE
            for selection in decoded:
                if not check_drp(bundle.goals, selection).satisfaction:
                    print("a decoded selection fails its requirements", file=sys.stderr)
                    return FAILURE
    sys.stdout.write(serialize_model(ModelBundle(model=problem.model)))
    return OK


def cmd_rank(args: argparse.Namespace) -> int:
    bundle = parse_model(_read(args.file))
    if bundle.decision is None:
        raise RopasError("the file declares no decision model ([alternatives])")
    ranking = rank_alternatives(bundle.decision)
    if args.oracle:
        problem = daop_to_rop(bundle.decision)
        result = solve_rop(problem)
        if isinstance(result, Infeasible):
            print("oracle reformulation came out infeasible", file=sys.stderr)
            return FAILURE
        heads = {spec[ALTERNATIVE_PARAMETER] for spec in result.optima}
        if heads != set(ranking.head_group()):
            print("oracle head group differs from the ranking", file=sys.stderr)
            return FAILURE
        head_eu = expected_utility(bundle.decision, ranking.head_group()[0])
        if result.objective_value != head_eu:
            print("oracle objective differs from the head expected utility", file=sys.stderr)
            return FAILURE
    position = 1
    for group in ranking.groups:
        for alt_id in group:
            eu = next(e for a, e in ranking.entries if a == alt_id)
            if args.format == "human":
                print(f"{position}. {alt_id} (expected utility {eu:.6f})")
            else:
                print(f"rank {position} {alt_id} {eu:.6f}")
        position += len(group)
    return OK


def cmd_simulate(args: argparse.Namespace) -> int:
    bundle = parse_model(_read(args.file))
    _need_model(bundle)
    trace = parse_trace(_read(args.trace))
    config = bundle.config
    if args.duration is not None:
        config = replace(config, adaptation_duration=args.duration)
    if args.relax:
        widening = []
        for item in args.relax:
            name, eq, amount = item.partition("=")
            if not eq:
                print(f"--relax expects CRITERION=BAND, got '{item}'", file=sys.stderr)
                return USAGE
            try:
                band = float(amount)
            except ValueError:
                print(f"--relax band '{amount}' is not a number", file=sys.stderr)
                return USAGE
            if not isfinite(band):
                print(f"--relax band '{amount}' is not finite", file=sys.stderr)
                return USAGE
            widening.append((name, band))
        config = replace(config, relaxation=tuple(widening))
    if args.cap is not None:
        config = replace(config, cap=args.cap)
    timeline, metrics = run_simulation(bundle.model, trace, config)
    report = write_report(timeline, metrics, args.format)
    if args.oracle:
        again, again_metrics = run_simulation(bundle.model, trace, config)
        if write_report(again, again_metrics, args.format) != report:
            print("repeated run produced a different report", file=sys.stderr)
            return FAILURE
    sys.stdout.write(report)
    return OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropas",
        description="Model, solve, and simulate reconfigurable systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, oracle_help: str) -> None:
        p.add_argument(
            "--format",
            choices=("machine", "human"),
            default="machine",
            help="report style (default: machine)",
        )
        p.add_argument("--oracle", action="store_true", help=oracle_help)

    p = sub.add_parser("validate", help="check a model file and report problems")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("enumerate", help="list all feasible specifications")
    p.add_argument("file")
    p.add_argument(
        "--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help="search space size limit"
    )
    common(p, "cross-check against a brute-force pass over the full cartesian product")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("solve", help="find the optimal specifications")
    p.add_argument("file")
    p.add_argument(
        "--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help="search space size limit"
    )
    common(p, "cross-check against exhaustive enumeration")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "encode-rdrp", help="encode a goal graph as an optimization model"
    )
    p.add_argument("file")
    common(p, "solve and decode, comparing against the direct goal solver")
    p.set_defaults(func=cmd_encode_rdrp)

    p = sub.add_parser("rank", help="rank decision alternatives by expected utility")
    p.add_argument("file")
    common(p, "cross-check the head group via the optimization reformulation")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("simulate", help="replay an event trace against a model")
    p.add_argument("file")
    p.add_argument("trace")
    p.add_argument("--duration", type=int, default=None, help="adaptation duration in ticks")
    p.add_argument(
        "--relax",
        action="append",
        default=[],
        metavar="CRITERION=BAND",
        help="widen a trigger's tolerable range (repeatable)",
    )
    p.add_argument("--cap", type=int, default=None, help="search space size limit")
    common(p, "run twice and require byte-identical reports")
    p.set_defaults(func=cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_arg_parser()``, built once per process; parsing leaves it unchanged."""
    return build_arg_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _Unreadable as err:
        print(f"cannot read {err}", file=sys.stderr)
        return USAGE
    except ParseFailure as err:
        return _print_issues(err.issues, sys.stderr)
    except RopasError as err:
        print(str(err), file=sys.stderr)
        return FAILURE


def run() -> None:
    sys.exit(main())
