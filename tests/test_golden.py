"""Byte-for-byte golden outputs of every subcommand on the shipped fixtures.

Each case runs ``main()`` in process on a fixture the subcommand accepts and
compares stdout and the exit code with ``tests/golden/<case>.out`` and
``tests/golden/exit_codes.json``.  A change that alters any report shows up
here.  ``--oracle`` must give the same stdout and exit code.

``tests/golden/parse-diagnostics.out`` pins the parse diagnostics: every
file in ``BROKEN`` followed by the ``str(issue)`` lines its parse reports.
``BROKEN`` holds at least one record per distinct message the model and
trace parsers can emit.

To regenerate after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ropas.cli import main
from ropas.formats import MODEL_HEADER, TRACE_HEADER, ParseFailure, parse_model, parse_trace

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

FORMATS = ("machine", "human")
RUNS = (
    ("enumerate", ("alerts.model",)),
    ("enumerate", ("shock.model",)),
    ("solve", ("alerts.model",)),
    ("solve", ("shock.model",)),
    ("encode-rdrp", ("dispatch.model",)),
    ("rank", ("respond.model",)),
    ("simulate", ("alerts.model", "alerts_failure.trace")),
    ("simulate", ("shock.model", "shock.trace")),
)


def _cases() -> dict[str, list[str]]:
    """Case name -> argv (fixture paths relative to the fixture directory)."""
    cases = {
        f"validate-{name.split('.')[0]}": ["validate", name]
        for name in ("alerts.model", "dispatch.model", "respond.model", "shock.model")
    }
    for command, files in RUNS:
        for fmt in FORMATS:
            stem = "-".join(f.split(".")[0] for f in files)
            cases[f"{command}-{stem}-{fmt}"] = [command, *files, "--format", fmt]
    return cases


CASES = _cases()
DIAGNOSTICS = GOLDEN / "parse-diagnostics.out"

# A small valid model that the records in BROKEN refer to.
_MODEL = (
    "[variables]",
    "criterion score int:0:10 kind=utility pref=higher-better",
    "criterion ok bool",
    "parameter p bool",
    "monitored m bool",
    "[depends]",
    "weighted-sum s -> score : 1.0*p",
)
_DECISION = (
    "[attributes]",
    "attribute a bool",
    "[alternatives]",
    "alternative x",
    "lottery x a 1:1.0",
)

# First lines that stand in for a missing header.
_NOT_A_MODEL = "something else"
_NOT_A_TRACE = "not a trace"

# Broken files, each as its lines.  A trace case starts with its header (or
# _NOT_A_TRACE); every other case gets the model header put in front, unless
# it starts with _NOT_A_MODEL.
BROKEN: tuple[tuple[str, ...], ...] = (
    (_NOT_A_MODEL,),
    ("[mystery]",),
    ("parameter p bool",),
    ("[variables]", "banana"),
    ("[variables]", "parameter 9p bool"),
    ("[variables]", "parameter p bool extra other=1"),
    ("[variables]", "criterion c bool kind=utility pref=sideways flavour=x"),
    ("[variables]", "parameter p int:0"),
    ("[variables]", "parameter p int:3:1"),
    ("[variables]", "parameter p grid:0:1"),
    ("[variables]", "parameter p grid:0:1:0"),
    ("[variables]", "parameter p grid:a:1:1"),
    ("[variables]", "parameter p enum:"),
    ("[variables]", "parameter p enum:a,a"),
    ("[variables]", "parameter p float"),
    ("[variables]", "parameter p bool default=2", "monitored m bool detect=0,7"),
    ("[variables]", "parameter p bool", "criterion p bool"),
    ("[variables]", "criterion c bool kind=odd"),
    ("[variables]", "criterion c bool kind=utility"),
    ("[variables]", "parameter p grid:1:0:1", "parameter q grid:0:1:0.3"),
    (*_MODEL, "boolean-formula f ok : p"),
    (*_MODEL, "linear l 1.0*p <= 1"),
    (*_MODEL, "mystery d : p"),
    (*_MODEL, "weighted-sum w -> score : 1.0"),
    (*_MODEL, "weighted-sum w -> score : 1.0*p +"),
    (*_MODEL, "weighted-sum w -> score : 1.0*9p"),
    (*_MODEL, "weighted-sum w -> score : x*p"),
    (*_MODEL, "weighted-sum w -> score : 1.0*p + x"),
    (*_MODEL, "weighted-sum w -> score : 1.0*p + 1.0 + 2.0"),
    (*_MODEL, "boolean-formula f -> ok : p $ m"),
    (*_MODEL, "boolean-formula f -> ok : p &"),
    (*_MODEL, "boolean-formula f -> ok : (p"),
    (*_MODEL, "boolean-formula f -> ok : p ! m"),
    (*_MODEL, "boolean-formula f -> ok : & p"),
    (*_MODEL, "boolean-formula f -> ok : "),
    (*_MODEL, "lookup-table t -> ok : p 0=1"),
    (*_MODEL, "lookup-table t -> ok : p : 0=1 ; 1"),
    (*_MODEL, "lookup-table t -> ok : p : 0=1 ; 7=0 ; 0=0"),
    (*_MODEL, "lookup-table t -> ok : p : 0=1 ; 1=5"),
    (*_MODEL, "lookup-table t -> ok : p,m : 0=1"),
    (*_MODEL, "lookup-table t -> ok : ghost : 0=1"),
    (*_MODEL, "threshold-step t -> ok : p"),
    (*_MODEL, "threshold-step t -> ok : p >= high"),
    (*_MODEL, "threshold-step t -> score : p >= 1.0"),
    (*_MODEL, "linear l : 1.0*p"),
    (*_MODEL, "linear l : 1.0*p + 2.0 <= 1"),
    (*_MODEL, "linear l : 1.0*p <= x"),
    (*_MODEL, "linear l : 1.0*ok + 1.0*s <= 1"),
    (*_MODEL, "cardinality k : p,m <= 1.5"),
    (*_MODEL, "cardinality k : p,score <= 1"),
    (*_MODEL, "incompatibility i : p"),
    (*_MODEL, "incompatibility i : p p"),
    (*_MODEL, "weighted-sum s -> score : 2.0*p"),
    (*_MODEL, "weighted-sum w -> ghost : 1.0*p"),
    (*_MODEL, "boolean-formula f -> score : p"),
    (*_MODEL, "boolean-formula f -> ok : score"),
    (*_MODEL, "boolean-formula f -> p : ok", "boolean-formula g -> ok : p"),
    (*_MODEL, "[decision]", "rule"),
    (*_MODEL, "[decision]", "choose score"),
    (*_MODEL, "[decision]", "rule v", "set p,zz"),
    (*_MODEL, "[decision]", "rule ok"),
    (*_MODEL, "weighted-sum w -> p : 1.0*m", "[decision]", "set p"),
    (*_MODEL, "[triggers]", "trigger score [0,1]"),
    (*_MODEL, "[triggers]", "trigger score in [0]"),
    (*_MODEL, "[triggers]", "trigger score in [0,x]"),
    (*_MODEL, "[triggers]", "trigger score in {}"),
    (*_MODEL, "[triggers]", "trigger score in 0..1"),
    (*_MODEL, "[triggers]", "trigger ghost in [0,*]"),
    ("[evolution]", "max-changes many"),
    ("[evolution]", "forbid-transition a=1 b=0"),
    ("[evolution]", "forbid-transition from a to b"),
    ("[evolution]", "forbid-value a"),
    ("[evolution]", "forbid-value a=1 unless count(m) >= 1"),
    ("[evolution]", "freeze a"),
    ("[simulation]", "duration soon", "horizon 1.5"),
    ("[simulation]", "initial m"),
    ("[simulation]", "initial-spec p"),
    ("[simulation]", "change-scope w"),
    ("[simulation]", "change-scope w nope"),
    ("[simulation]", "pause 3"),
    (*_MODEL, "[simulation]", "initial m=0", "initial-spec p=1,q=0"),
    (*_MODEL, "[simulation]", "initial m=5,p=1", "initial-spec p=7"),
    (*_MODEL, "[simulation]", "initial m=1 # note"),
    (*_MODEL, "[simulation]", "change-scope m bool"),
    ("[goalgraph]", "atom"),
    ("[goalgraph]", "atom g x mandatory", "atom h"),
    ("[goalgraph]", "atom g", "refine g"),
    ("[goalgraph]", "atom g", "conflict g"),
    ("[goalgraph]", "atom g", "prefer g"),
    ("[goalgraph]", "atom g", "refine g <- ,"),
    ("[goalgraph]", "atom g", "refine g <- h"),
    ("[goalgraph]", "atom g", "conflict g g"),
    ("[goalgraph]", "atom g", "conflict g h"),
    ("[goalgraph]", "atom g mandatory"),
    ("[attributes]", "attribute a"),
    ("[attributes]", "attribute a int:2:1", "[utility]", "weighted-sum 1.0*a"),
    ("[attributes]", "feature a bool", "[utility]", "weighted-sum 1.0*a"),
    (*_DECISION, "alternative 9x", "[utility]", "weighted-sum 1.0*a"),
    (*_DECISION, "lottery x", "[utility]", "weighted-sum 1.0*a"),
    (*_DECISION, "lottery x a 1", "[utility]", "weighted-sum 1.0*a"),
    (*_DECISION, "lottery x a 1:lots", "[utility]", "weighted-sum 1.0*a"),
    (*_DECISION, "choose x", "[utility]", "weighted-sum 1.0*a"),
    (*_DECISION, "[utility]", "weighted-sum 1.0*a +"),
    (*_DECISION, "[utility]", "weighted-sum 1.0*b"),
    (*_DECISION, "[utility]", "lookup-table 1"),
    (*_DECISION, "[utility]", "lookup-table 1=high"),
    (*_DECISION, "[utility]", "lookup-table 1=1.0"),
    (*_DECISION, "[utility]", "maximum a"),
    (*_DECISION,),
    ("[attributes]", "attribute a enum:lo,hi", "[alternatives]", "alternative x",
     "alternative x", "lottery x a lo:0.5 hi:0.7", "[utility]", "weighted-sum 1.0*a"),
    (*_DECISION, "lottery x a 0:1.0", "alternative y", "lottery y a 2:2.0",
     "[utility]", "weighted-sum 1.0*a"),
    (*_DECISION, "[utility]", "weighted-sum 1.0*a", "[transform]", "power fast"),
    (*_DECISION, "[utility]", "weighted-sum 1.0*a", "[transform]", "power -1.0"),
    (*_DECISION, "[utility]", "weighted-sum 1.0*a", "[transform]", "table 0:0 1"),
    (*_DECISION, "[utility]", "weighted-sum 1.0*a", "[transform]", "table 0:0 x:1"),
    (*_DECISION, "[utility]", "weighted-sum 1.0*a", "[transform]", "table 0.5:0.5"),
    (*_DECISION, "[utility]", "weighted-sum 1.0*a", "[transform]", "table 0.5:0.9 0.2:0.1"),
    (*_DECISION, "[utility]", "weighted-sum 1.0*a", "[transform]", "identity now"),
    (*_DECISION, "[utility]", "weighted-sum 1.0*a", "[transform]", "squash"),
    (TRACE_HEADER, "t=1 m=0", "at 2 m=1", "t=0 m=1"),
    (_NOT_A_TRACE,),
    (*_MODEL, "[evolution]", "max-changes -1"),
    (*_MODEL, "[evolution]", "forbid-value nope=1", "forbid-transition from p=1 to score=0"),
    (*_MODEL, "[evolution]", "forbid-value p=7", "forbid-transition from p=0 to p=2"),
    (*_MODEL, "[evolution]", "forbid-value p=1 unless count(score=1,p=0) >= 1"),
    (*_MODEL, "[evolution]", "forbid-value p=1 unless count(m=3) >= 1"),
    ("[simulation]", "horizon 0"),
    ("[simulation]", "duration -1"),
    ("[variables]", "parameter p grid:0:inf:1"),
    ("[variables]", "parameter p grid:0:1e300:1e-300"),
    ("[variables]", "parameter p enum:1,nan"),
    ("[variables]", "parameter p int:0:3 default=inf", "monitored m bool detect=nan"),
    (*_MODEL, "weighted-sum w -> ok : inf*p"),
    (*_MODEL, "weighted-sum w -> ok : 1.0*p + nan"),
    (*_MODEL, "linear c : 1.0*p + 1.0*m <= nan"),
    (*_MODEL, "linear c : -inf*p <= 1.0"),
    (*_MODEL, "threshold-step t -> ok : p >= nan"),
    (*_MODEL, "[triggers]", "trigger score in [nan,*]"),
    (*_MODEL, "[simulation]", "initial m=nan"),
    (*_MODEL, "[evolution]", "forbid-value p=inf"),
    (*_DECISION, "alternative y", "lottery y a nan:1.0", "[utility]", "weighted-sum 1.0*a"),
    (*_DECISION, "alternative y", "lottery y a 0:nan 1:1.0", "[utility]", "weighted-sum 1.0*a"),
    (*_DECISION, "[utility]", "weighted-sum inf*a"),
    (*_DECISION, "[utility]", "lookup-table 0=nan ; 1=1.0"),
    (*_DECISION, "[utility]", "weighted-sum 1.0*a", "[transform]", "power nan"),
    (*_DECISION, "[utility]", "weighted-sum 1.0*a", "[transform]", "table 0:0 0.5:nan 1:1"),
)


def _diagnose(lines: tuple[str, ...]) -> list[str]:
    """The str(issue) lines the parse of one BROKEN case reports."""
    trace = lines[0] in (TRACE_HEADER, _NOT_A_TRACE)
    if not trace and lines[0] != _NOT_A_MODEL:
        lines = (MODEL_HEADER, *lines)
    parse = parse_trace if trace else parse_model
    try:
        parse("\n".join(lines) + "\n")
    except ParseFailure as err:
        return [str(issue) for issue in err.issues]
    return ["(parses)"]


def _diagnostics() -> str:
    out = []
    for number, lines in enumerate(BROKEN, start=1):
        out.append(f"case {number}:")
        out.extend(f"  | {line}" for line in lines)
        out.extend(f"  {issue}" for issue in _diagnose(lines))
    return "\n".join(out) + "\n"


def _run(argv: list[str]) -> tuple[int, str]:
    resolved = [str(FIXTURES / a) if (FIXTURES / a).is_file() else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(resolved)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    argv = CASES[case]
    expected_code = json.loads(EXIT_CODES.read_text(encoding="utf-8"))[case]
    expected_out = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert _run(argv) == (expected_code, expected_out)
    if argv[0] != "validate":
        assert _run([*argv, "--oracle"]) == (expected_code, expected_out)


def test_parse_diagnostics():
    assert _diagnostics() == DIAGNOSTICS.read_text(encoding="utf-8")


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in sorted(CASES):
        code, out = _run(CASES[case])
        codes[case] = code
        (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    DIAGNOSTICS.write_text(_diagnostics(), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
