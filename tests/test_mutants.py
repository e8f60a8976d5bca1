"""No input escapes the exit codes: seeded mutants of the shipped files, run through the CLI.

Each mutant changes one record of a file under ``fixtures/`` or of
``tests/every_record.model``: one numeric token becomes a hostile literal
(a special value, or one just outside a domain, off a grid or negative), a
record is dropped, duplicated or swapped with another, a line is cut short,
or a non-UTF-8 byte goes in.  Each mutant runs through ``ropas.cli.main``:
``validate`` first, then every subcommand its source file supports, with
``--cap 4096`` (and, for ``shock.model`` and ``every_record.model``,
``enumerate`` and ``solve`` again with ``--oracle``).  Every run must
return 0, 1 or 2 within ``DEADLINE`` seconds, and no exception may escape.

The budget is ``MUTANTS`` mutants, from the seeds ``0 .. MUTANTS - 1``: about
6 s with Python 3.11 on one core of a 2-core x86-64 VM.
"""

import io
import random
import re
import signal
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ropas.cli import main
from ropas.formats import TRACE_HEADER
from shipped import FIXTURES

MUTANTS = 2000
DEADLINE = 2.0

HUGE = "9" * 400
HOSTILE = (
    "nan", "-inf", "1e308", HUGE, "-" + HUGE, "-0", "0", "-1", "1e-300", "",
    "-0.5", "0.05", "1.0000000001", "-2", "1e6",
)
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?(?![\w.])")

MUTANT = "<mutant>"
CAP = ("--cap", "4096")
ALERTS, SHOCK = str(FIXTURES / "alerts.model"), str(FIXTURES / "shock.model")
EVERY_RECORD_TRACE = TRACE_HEADER + "\nt=1 load=5\nt=3 outage=1\nt=4 weather=rain\n"
# The brute-force oracles: the full product, completed by ``complete_specification``.
ORACLES = (("enumerate", "--oracle", MUTANT, *CAP), ("solve", "--oracle", MUTANT, *CAP))

# Each source file with the runs after ``validate``; MUTANT stands for the
# mutated file, and "every_record.trace" for EVERY_RECORD_TRACE.
SOURCES = (
    (FIXTURES / "alerts.model", (
        ("enumerate", MUTANT, *CAP), ("solve", MUTANT, *CAP),
        ("simulate", MUTANT, str(FIXTURES / "alerts_failure.trace"), *CAP),
    )),
    (FIXTURES / "shock.model", (
        ("enumerate", MUTANT, *CAP), ("solve", MUTANT, *CAP), *ORACLES,
        ("simulate", MUTANT, str(FIXTURES / "shock.trace"), *CAP),
    )),
    (FIXTURES / "dispatch.model", (("encode-rdrp", MUTANT),)),
    (FIXTURES / "respond.model", (("rank", MUTANT),)),
    (Path(__file__).resolve().parent / "every_record.model", (
        ("enumerate", MUTANT, *CAP), ("solve", MUTANT, *CAP), *ORACLES, ("encode-rdrp", MUTANT),
        ("rank", MUTANT), ("simulate", MUTANT, "every_record.trace", *CAP),
    )),
    (FIXTURES / "alerts_failure.trace", (("simulate", ALERTS, MUTANT, *CAP),)),
    (FIXTURES / "shock.trace", (("simulate", SHOCK, MUTANT, *CAP),)),
)
TEXTS = {path: path.read_text(encoding="utf-8") for path, _ in SOURCES}


def mutant(seed: int) -> tuple[int, bytes]:
    """The index into SOURCES and the bytes of mutant ``seed``."""
    rng = random.Random(seed)
    index = rng.randrange(len(SOURCES))
    lines = TEXTS[SOURCES[index][0]].split("\n")
    records = [i for i, line in enumerate(lines) if i and line.strip()]
    spots = [(i, m) for i in records for m in NUMBER.finditer(lines[i])]
    # Half the mutants, where the file has a number, swap one for a hostile literal.
    kinds = ("drop", "duplicate", "swap", "truncate", "byte") + ("number",) * 5 * bool(spots)
    kind, i = rng.choice(kinds), rng.choice(records)
    if kind == "number":
        i, m = rng.choice(spots)
        lines[i] = lines[i][: m.start()] + rng.choice(HOSTILE) + lines[i][m.end():]
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.choice(records)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate":
        lines[i] = lines[i][: rng.randrange(len(lines[i]))]
    data = "\n".join(lines).encode("utf-8")
    if kind == "byte":
        at = rng.randrange(len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return index, data


class _Hang(BaseException):
    """Raised by the alarm when one run exceeds DEADLINE."""


def _alarm(signum, frame):
    raise _Hang


def _outcome(argv: list[str]):
    """The exit code of ``main(argv)``, or a description of what escaped it."""
    sink = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE)
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            return main(argv)
    except _Hang:
        return f"no exit within {DEADLINE} s"
    except Exception as err:
        return f"{type(err).__name__}: {err}"[:200]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def test_no_mutant_escapes_the_exit_codes(tmp_path):
    trace = tmp_path / "every_record.trace"
    trace.write_text(EVERY_RECORD_TRACE, encoding="utf-8")
    failures = []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for seed in range(MUTANTS):
            index, data = mutant(seed)
            source, runs = SOURCES[index]
            path = tmp_path / f"mutant{source.suffix}"
            path.write_bytes(data)
            for run in (("validate", MUTANT), *runs):
                argv = [{MUTANT: str(path), trace.name: str(trace)}.get(a, a) for a in run]
                outcome = _outcome(argv)
                if outcome not in (0, 1, 2):
                    failures.append(f"seed {seed} ({source.name}) {run[0]}: {outcome}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, f"{len(failures)} runs failed, first ones:\n" + "\n".join(failures[:20])
