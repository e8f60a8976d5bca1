"""Differential run: compare this checkout's program with a git revision's.

    python tests/differential.py REV

REV is checked out with ``git worktree`` into a temporary directory (and
removed afterwards).  The same case list then runs once against each
``src/`` tree -- this checkout's working files and REV's -- each in its own
process, REV's under ``PYTHONHASHSEED=0`` and this checkout's under
``PYTHONHASHSEED=1``, so an output that depends on the hash order of
strings shows as a difference.  The two outputs are compared case by case:
results by ``repr``, failures by exception type and message.  The
inputs come from this checkout's seeded generators (``tests/genmodels.py``)
and shipped fixtures, so both sides see the same ones:

- ``solve_rp2``, ``solve_rp3`` and ``solve_rdrp`` on ``random_goal_graph``,
  narrow and wide, for each of ``SEEDS`` seeds;
- ``encode_rdrp`` + ``solve_rop`` + ``decode_selection`` on the same graphs;
- the ``SizeLimitError`` text of each goal solver under a cap just below
  the graph's selection count;
- ``solve_rp2``, ``solve_rp3``, ``solve_rdrp`` and ``encode_rdrp`` +
  ``solve_rop`` + ``decode_selection`` on wide ``random_goal_graph`` graphs
  with up to 14 selectable atoms, whose derivations run longer, for each of
  ``LONG_GOAL_SEEDS`` seeds;
- ``solve_rop`` and ``enumerate_specifications`` on ``random_rop``, every
  second seed passed through ``with_derived_parameter``, for each of
  ``SEEDS`` seeds; ``evaluate`` and ``is_feasible`` on up to 20 seeded
  specifications of the model's cartesian product, on one with a
  non-canonical value (``True`` for a boolean, ``2.0`` for an integer) and
  on one invalid input (an unknown parameter, an out-of-domain value or an
  exogenous value for a parameter, by seed);
- ``solve_rop`` and ``enumerate_specifications`` on ``large_integral_rows``
  (integer rows whose scale lies on either side of 2**50), and ``solve_rop``
  on ``at_most_one_rop`` (booleans in at-most-one rows under a utility of
  both signs), for each of ``INTEGRAL_SEEDS`` seeds;
- ``run_simulation`` on ``random_runtime_scenario``, ``random_runtime_pair``
  and ``random_runtime_pinned`` for each of ``SEEDS`` seeds, then once more
  on the same model object (the case name ends in ``again``), which reads
  what the first run left in the model's memo, then on that object with an
  equal copy of the configuration (``equal config``) and with one whose
  horizon is one longer (``other horizon config``): the timeline and the
  metrics;
- ``rank_alternatives`` and ``daop_to_rop`` + ``solve_rop`` on
  ``random_decision_model`` for each of ``SEEDS`` seeds;
- every CLI subcommand on ``fixtures/*.model`` (``simulate`` with each
  ``fixtures/*.trace``), in both report formats, with and without
  ``--oracle``: exit code, stdout and stderr;
- ``validate``, ``rank`` and ``rank --oracle`` through the CLI on the
  decision file ``decision_file`` writes (32 alternatives x 4 attributes,
  decimal probabilities, the float-split pair) for each of
  ``DECISION_FILE_SEEDS`` seeds: exit code, stdout and stderr;
- the mutants ``tests/test_mutants.mutant(seed)`` for each of
  ``MUTANT_SEEDS`` seeds, run through the CLI as that test runs them
  (``validate``, then every run its source file supports): exit code,
  stdout and stderr.  Both sides write each decision file and each mutant
  to the same path, so a message that names the file reads the same.

    python tests/differential.py REV --expect FILE

FILE lists case names expected to differ, one a line (``#`` starts a
comment line).  Every differing case outside that list is printed with both
outputs, and any of them makes the exit status 1; the differing cases inside
it are counted, and each listed case that did not differ is named.  With no
``--expect``, every difference is unexpected.  Two case lists that do not
match exit 1 at once.  Its name has no ``test_`` prefix, so the test suite
does not collect it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "fixtures"
SEEDS = 500
LONG_GOAL_SEEDS = 200
INTEGRAL_SEEDS = 200
DECISION_FILE_SEEDS = 100
MUTANT_SEEDS = 500


def _failure(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def _selections(selections) -> list[list[str]]:
    return [sorted(sel) for sel in selections]


def _goal_cases():
    from genmodels import random_goal_graph
    from ropas.goals import solve_rdrp, solve_rp2, solve_rp3
    from ropas.solver import OptimalSolutions, decode_selection, encode_rdrp, solve_rop

    def rp3(graph, **cap):
        result = solve_rp3(graph, **cap)
        return [_selections(result.selections), result.satisfied_count]

    def encoded(graph):
        result = solve_rop(encode_rdrp(graph))
        if not isinstance(result, OptimalSolutions):
            return repr(result)
        decoded = [sorted(decode_selection(graph, spec)) for spec in result.optima]
        return [repr(result.objective_value), decoded]

    for seed in range(SEEDS):
        for wide in (False, True):
            name = f"goals seed={seed} wide={wide}"
            try:
                graph = random_goal_graph(random.Random(seed), wide=wide)
            except Exception as err:
                yield name, _failure(err)
                continue
            below = 2 ** len(graph.s_atoms) - 1
            runs = {
                "rp2": lambda: _selections(solve_rp2(graph)),
                "rp3": lambda: rp3(graph),
                "rdrp": lambda: _selections(solve_rdrp(graph)),
                "encoded": lambda: encoded(graph),
                "rp2 capped": lambda: _selections(solve_rp2(graph, cap=below)),
                "rp3 capped": lambda: rp3(graph, cap=below),
                "rdrp capped": lambda: _selections(solve_rdrp(graph, cap=below)),
            }
            for what, run in runs.items():
                try:
                    out = run()
                except Exception as err:
                    out = _failure(err)
                yield f"{name}: {what}", out
    for seed in range(LONG_GOAL_SEEDS):
        name = f"goals seed={seed} wide=True max_s=14"
        try:
            graph = random_goal_graph(random.Random(seed), max_s=14, wide=True)
        except Exception as err:
            yield name, _failure(err)
            continue
        yield f"{name}: rp2", _attempt(lambda: _selections(solve_rp2(graph)))
        yield f"{name}: rp3", _attempt(lambda: rp3(graph))
        yield f"{name}: rdrp", _attempt(lambda: _selections(solve_rdrp(graph)))
        yield f"{name}: encoded", _attempt(lambda: encoded(graph))


def _attempt(run):
    try:
        return repr(run())
    except Exception as err:
        return _failure(err)


def _product(model, rng: random.Random, count: int = 20):
    """Up to ``count`` seeded specifications of the model's full cartesian
    product, each as an item tuple sorted by parameter id."""
    from itertools import islice, product

    params = sorted(model.parameters, key=lambda p: p.id)
    combos = list(islice(product(*(p.domain.values() for p in params)), 4096))
    picked = combos if len(combos) <= count else rng.sample(combos, count)
    return [tuple(zip((p.id for p in params), combo)) for combo in picked]


def _rop_cases():
    from genmodels import random_rop, with_derived_parameter
    from ropas.domains import Boolean, IntegerRange
    from ropas.model import Specification, enumerate_specifications, evaluate, is_feasible
    from ropas.solver import solve_rop

    for seed in range(SEEDS):
        name = f"rop seed={seed}"
        rng = random.Random(seed)
        try:
            problem = random_rop(rng)
            if seed % 2:
                problem = with_derived_parameter(rng, problem)
        except Exception as err:
            yield name, _failure(err)
            continue
        model, exogenous = problem.model, problem.exogenous_map()
        yield f"{name}: solve", _attempt(lambda: solve_rop(problem))
        yield f"{name}: enumerate", _attempt(lambda: enumerate_specifications(model, exogenous))
        items = _product(model, rng)
        for index, spec in enumerate(Specification(pairs) for pairs in items):
            for what, run in (("evaluate", evaluate), ("is_feasible", is_feasible)):
                yield f"{name}: {what} {index}", _attempt(lambda: run(model, spec, exogenous))
        # One non-canonical value: True for a boolean, 2.0-style for an integer.
        pairs = list(items[0])
        for at, (pid, value) in enumerate(pairs):
            domain = model.parameter(pid).domain
            if isinstance(domain, Boolean):
                pairs[at] = (pid, bool(value))
                break
            if isinstance(domain, IntegerRange):
                pairs[at] = (pid, float(value))
                break
        # One invalid input, by seed: an unknown parameter, an out-of-domain
        # value, or an exogenous value for a parameter.
        pid, value = items[0][0]
        bad_spec, bad_exogenous = list(items[0]), dict(exogenous)
        kind = seed % 3
        if kind == 0:
            bad_spec.append(("zz_unknown", 0))
        elif kind == 1:
            bad_spec[0] = (pid, "out-of-domain")
        else:
            bad_exogenous[pid] = value
        inputs = {
            "non-canonical": (Specification(tuple(pairs)), exogenous),
            "invalid": (Specification(tuple(bad_spec)), bad_exogenous),
        }
        for label, (spec, given) in inputs.items():
            for what, run in (("evaluate", evaluate), ("is_feasible", is_feasible)):
                yield f"{name}: {what} {label}", _attempt(lambda: run(model, spec, given))


def _integral_cases():
    from genmodels import at_most_one_rop, large_integral_rows
    from ropas.model import enumerate_specifications
    from ropas.solver import rop, solve_rop

    for seed in range(INTEGRAL_SEEDS):
        name = f"integral rows seed={seed}"
        try:
            model = large_integral_rows(random.Random(seed))
        except Exception as err:
            yield name, _failure(err)
            continue
        yield f"{name}: solve", _attempt(lambda: solve_rop(rop(model)))
        yield f"{name}: enumerate", _attempt(lambda: enumerate_specifications(model))
    for seed in range(INTEGRAL_SEEDS):
        name = f"at-most-one seed={seed}"
        try:
            problem = at_most_one_rop(random.Random(seed))
        except Exception as err:
            yield name, _failure(err)
            continue
        yield f"{name}: solve", _attempt(lambda: solve_rop(problem))


def _runtime_cases():
    from genmodels import random_runtime_pair, random_runtime_pinned, random_runtime_scenario
    from ropas.runtime import run_simulation

    makers = (
        ("scenario", random_runtime_scenario),
        ("pair", random_runtime_pair),
        ("pinned", random_runtime_pinned),
    )
    for seed in range(SEEDS):
        for label, make in makers:
            name = f"runtime {label} seed={seed}"
            try:
                inputs = make(random.Random(seed))
            except Exception as err:
                yield name, _failure(err)
                continue
            yield name, _attempt(lambda: run_simulation(*inputs))
            # Again on the same model object, which now holds the first run's memo.
            yield f"{name} again", _attempt(lambda: run_simulation(*inputs))
            # An equal, not identical, configuration reads the first run's set-up;
            # another horizon sets up anew and shares the re-solves.
            model, trace, config = inputs
            longer = (config.horizon or max(trace.last_tick() + 1, 1)) + 1
            variants = {"equal": replace(config), "other horizon": replace(config, horizon=longer)}
            for label, variant in variants.items():
                run = (model, trace, variant)
                yield f"{name} {label} config", _attempt(lambda: run_simulation(*run))


def _decision_cases():
    from genmodels import random_decision_model
    from ropas.decisions import daop_to_rop, rank_alternatives
    from ropas.solver import solve_rop

    for seed in range(SEEDS):
        name = f"decision seed={seed}"
        try:
            dm = random_decision_model(random.Random(seed))
        except Exception as err:
            yield name, _failure(err)
            continue
        yield f"{name}: rank", _attempt(lambda: rank_alternatives(dm))
        yield f"{name}: solve", _attempt(lambda: solve_rop(daop_to_rop(dm)))


def _cli_argvs():
    models = sorted(path.name for path in FIXTURES.glob("*.model"))
    traces = sorted(path.name for path in FIXTURES.glob("*.trace"))
    for model in models:
        yield ["validate", model]
        for command in ("enumerate", "solve", "encode-rdrp", "rank"):
            for fmt in ("machine", "human"):
                yield [command, model, "--format", fmt]
                yield [command, model, "--format", fmt, "--oracle"]
        for trace in traces:
            for fmt in ("machine", "human"):
                yield ["simulate", model, trace, "--format", fmt]
                yield ["simulate", model, trace, "--format", fmt, "--oracle"]


def _run_cli(argv: list[str]) -> list:
    """The exit code, stdout and stderr of ``ropas argv``."""
    from ropas.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as error:
            code = _failure(error)
    return [code, out.getvalue(), err.getvalue()]


def _cli_cases():
    fixtures = {path.name: str(path) for path in FIXTURES.iterdir()}
    for argv in _cli_argvs():
        yield f"ropas {' '.join(argv)}", _run_cli([fixtures.get(arg, arg) for arg in argv])


def _decision_file_cases(workdir: Path):
    from genmodels import decision_file

    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "decision.model"
    for seed in range(DECISION_FILE_SEEDS):
        path.write_text(decision_file(random.Random(seed)), encoding="utf-8")
        for command in (["validate"], ["rank"], ["rank", "--oracle"]):
            argv = [command[0], str(path), *command[1:]]
            yield f"decision file seed={seed}: ropas {' '.join(command)}", _run_cli(argv)


def _mutant_cases(workdir: Path):
    from test_mutants import EVERY_RECORD_TRACE, MUTANT, SOURCES, mutant

    workdir.mkdir(parents=True, exist_ok=True)
    trace = workdir / "every_record.trace"
    trace.write_text(EVERY_RECORD_TRACE, encoding="utf-8")
    for seed in range(MUTANT_SEEDS):
        index, data = mutant(seed)
        source, runs = SOURCES[index]
        path = workdir / f"mutant{source.suffix}"
        path.write_bytes(data)
        for run in (("validate", MUTANT), *runs):
            argv = [{MUTANT: str(path), trace.name: str(trace)}.get(arg, arg) for arg in run]
            yield f"mutant seed={seed} ({source.name}): ropas {run[0]}", _run_cli(argv)


def emit(workdir: Path) -> None:
    """Print one JSON line per case: its name and its output.  The decision
    files and the mutants are written under ``workdir``."""
    cases_by_kind = (
        _goal_cases(), _rop_cases(), _integral_cases(), _runtime_cases(), _decision_cases(),
        _cli_cases(), _decision_file_cases(workdir), _mutant_cases(workdir),
    )
    for cases in cases_by_kind:
        for name, out in cases:
            print(json.dumps([name, out]))


def _run_side(src: Path, inputs: Path, hash_seed: str) -> list:
    env = dict(
        os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join([str(src), str(HERE)])
    )
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit", str(inputs)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    if done.returncode != 0:
        sys.exit(f"the case run against {src} failed:\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def read_expected(path: Path) -> set[str]:
    """The case names listed in ``path``, one a line; blank lines and lines
    starting with ``#`` are skipped."""
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return {line for line in lines if line and not line.startswith("#")}


def compare_cases(theirs: list, ours: list, expected: set[str], rev: str, say=print) -> int:
    """Compare two sides' ``[name, output]`` lists case by case.  Every
    difference outside ``expected`` is reported, and any makes the result 1;
    the differences inside it are counted, and each expected case that did
    not differ is named.  Two case lists that do not match give 1 at once."""
    for (name, _), (other, _) in zip(theirs, ours):
        if name != other:
            say(f"case lists differ: {name!r} at {rev}, {other!r} here")
            return 1
    if len(theirs) != len(ours):
        say(f"case counts differ: {len(theirs)} at {rev}, {len(ours)} here")
        return 1
    differing = [(name, old, new) for (name, old), (_, new) in zip(theirs, ours) if old != new]
    unexpected = [case for case in differing if case[0] not in expected]
    for name, old, new in unexpected:
        say(f"difference: {name}")
        say(f"  {rev}: {json.dumps(old)}")
        say(f"  this checkout: {json.dumps(new)}")
    listed = {name for name, _, _ in differing} & expected
    say(f"{len(listed)} expected differences in {len(ours)} cases against {rev}")
    for name in sorted(expected - listed):
        say(f"expected to differ but did not: {name}")
    if unexpected:
        say(f"{len(unexpected)} unexpected differences")
        return 1
    return 0


def compare(rev: str, expected: set[str]) -> int:
    workdir = Path(tempfile.mkdtemp(prefix="ropas-differential-"))
    tree = workdir / "tree"
    added = subprocess.run(
        ["git", "-C", str(ROOT), "worktree", "add", "--detach", str(tree), rev],
        capture_output=True,
        text=True,
    )
    if added.returncode != 0:
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(f"cannot check out {rev}:\n{added.stderr}")
    try:
        theirs = _run_side(tree / "src", workdir / "inputs", "0")
        ours = _run_side(ROOT / "src", workdir / "inputs", "1")
    finally:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
            capture_output=True,
        )
        shutil.rmtree(workdir, ignore_errors=True)
    return compare_cases(theirs, ours, expected, rev)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare against")
    parser.add_argument(
        "--expect", type=Path, metavar="FILE",
        help="a file of case names expected to differ, one a line",
    )
    parser.add_argument("--emit", type=Path, metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit is not None:
        emit(args.emit)
        return 0
    if args.rev is None:
        parser.error("a git revision is required")
    return compare(args.rev, set() if args.expect is None else read_expected(args.expect))


if __name__ == "__main__":
    sys.exit(main())
