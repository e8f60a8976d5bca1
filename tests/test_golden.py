"""Byte-for-byte golden outputs of every subcommand on the shipped fixtures.

Each case runs ``main()`` in process on a fixture the subcommand accepts and
compares stdout and the exit code with ``tests/golden/<case>.out`` and
``tests/golden/exit_codes.json``.  A change that alters any report shows up
here.  ``--oracle`` must give the same stdout and exit code.

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


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in sorted(CASES):
        code, out = _run(CASES[case])
        codes[case] = code
        (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
