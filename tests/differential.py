"""Differential run: compare this checkout's program with a git revision's.

    python tests/differential.py REV

REV is checked out with ``git worktree`` into a temporary directory (and
removed afterwards).  The same case list then runs once against each
``src/`` tree -- this checkout's working files and REV's -- each in its own
process under ``PYTHONHASHSEED=0``, and the two outputs are compared case by
case.  The inputs come from this checkout's seeded generators
(``tests/genmodels.py``) and shipped fixtures, so both sides see the same
ones:

- ``solve_rp2``, ``solve_rp3`` and ``solve_rdrp`` on ``random_goal_graph``,
  narrow and wide, for each of ``SEEDS`` seeds;
- ``encode_rdrp`` + ``solve_rop`` + ``decode_selection`` on the same graphs;
- the ``SizeLimitError`` text of each goal solver under a cap just below
  the graph's selection count;
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
    for cases in (_goal_cases(), _cli_cases()):
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
