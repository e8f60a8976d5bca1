"""Differential run: compare this checkout's program with a git revision's.

    python tests/differential.py REV

REV is checked out with ``git worktree`` into a temporary directory (and
removed afterwards).  The same case list then runs once against each
``src/`` tree -- this checkout's working files and REV's -- each in its own
process under ``PYTHONHASHSEED=0``, and the two outputs are compared case by
case: results by ``repr``, failures by exception type and message.  The
inputs come from this checkout's seeded generators (``tests/genmodels.py``)
and shipped fixtures, so both sides see the same ones:

- ``solve_rp2``, ``solve_rp3`` and ``solve_rdrp`` on ``random_goal_graph``,
  narrow and wide, for each of ``SEEDS`` seeds;
- ``encode_rdrp`` + ``solve_rop`` + ``decode_selection`` on the same graphs;
- the ``SizeLimitError`` text of each goal solver under a cap just below
  the graph's selection count;
- ``solve_rop`` and ``enumerate_specifications`` on ``random_rop``, every
  second seed passed through ``with_derived_parameter``, for each of
  ``SEEDS`` seeds; ``evaluate`` and ``is_feasible`` on up to 20 seeded
  specifications of the model's cartesian product, on one with a
  non-canonical value (``True`` for a boolean, ``2.0`` for an integer) and
  on one invalid input (an unknown parameter, an out-of-domain value or an
  exogenous value for a parameter, by seed);
- ``run_simulation`` on ``random_runtime_scenario`` and
  ``random_runtime_pair`` for each of ``SEEDS`` seeds: the timeline and the
  metrics;
- ``rank_alternatives`` and ``daop_to_rop`` + ``solve_rop`` on
  ``random_decision_model`` for each of ``SEEDS`` seeds;
- every CLI subcommand on ``fixtures/*.model`` (``simulate`` with each
  ``fixtures/*.trace``), in both report formats, with and without
  ``--oracle``: exit code, stdout and stderr.

Prints the first differing case with its seed and exits 1; otherwise prints
how many cases agreed and exits 0.  Its name has no ``test_`` prefix, so
the test suite does not collect it.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "fixtures"
SEEDS = 500


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


def _runtime_cases():
    from genmodels import random_runtime_pair, random_runtime_scenario
    from ropas.runtime import run_simulation

    for seed in range(SEEDS):
        for label, make in (("scenario", random_runtime_scenario), ("pair", random_runtime_pair)):
            name = f"runtime {label} seed={seed}"
            try:
                inputs = make(random.Random(seed))
            except Exception as err:
                yield name, _failure(err)
                continue
            yield name, _attempt(lambda: run_simulation(*inputs))


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


def _cli_cases():
    from ropas.cli import main

    fixtures = {path.name: str(path) for path in FIXTURES.iterdir()}
    for argv in _cli_argvs():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([fixtures.get(arg, arg) for arg in argv])
            except SystemExit as stop:
                code = stop.code
            except Exception as error:
                code = _failure(error)
        yield f"ropas {' '.join(argv)}", [code, out.getvalue(), err.getvalue()]


def emit() -> None:
    """Print one JSON line per case: its name and its output."""
    cases_by_kind = (_goal_cases(), _rop_cases(), _runtime_cases(), _decision_cases(), _cli_cases())
    for cases in cases_by_kind:
        for name, out in cases:
            print(json.dumps([name, out]))


def _run_side(src: Path) -> list:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    if done.returncode != 0:
        sys.exit(f"the case run against {src} failed:\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def compare(rev: str) -> int:
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
        theirs = _run_side(tree / "src")
        ours = _run_side(ROOT / "src")
    finally:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
            capture_output=True,
        )
        shutil.rmtree(workdir, ignore_errors=True)
    for (name, old), (other, new) in zip(theirs, ours):
        if name != other:
            print(f"case lists differ: {name!r} at {rev}, {other!r} here")
            return 1
        if old != new:
            print(f"first difference: {name}")
            print(f"  {rev}: {json.dumps(old)}")
            print(f"  this checkout: {json.dumps(new)}")
            return 1
    if len(theirs) != len(ours):
        print(f"case counts differ: {len(theirs)} at {rev}, {len(ours)} here")
        return 1
    print(f"no difference in {len(ours)} cases against {rev}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare against")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        emit()
        return 0
    if args.rev is None:
        parser.error("a git revision is required")
    return compare(args.rev)


if __name__ == "__main__":
    sys.exit(main())
