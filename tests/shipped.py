"""Read the example models and traces shipped under ``fixtures/``.

The files are the one source of the example models: tests take what they
need (a model, its simulation setup, triggers, initial values) from the
parsed bundle.
"""

from __future__ import annotations

from pathlib import Path

from ropas.formats import ModelBundle, parse_model, parse_trace
from ropas.model import Specification
from ropas.runtime import EventTrace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name: str) -> ModelBundle | EventTrace:
    """A fresh parse of ``fixtures/<name>`` on every call.

    A ``.trace`` file gives an ``EventTrace``, any other a ``ModelBundle``.
    No two callers share a parsed ``Model`` or its cached index.
    """
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return parse_trace(text) if name.endswith(".trace") else parse_model(text)


def alert_spec(channel: str, backend: str) -> Specification:
    """The one-hot ``alerts.model`` specification picking one channel and backend."""
    chosen = (f"alert_{channel}", f"store_{backend}")
    decision_set = load("alerts.model").model.decision_set
    return Specification.from_mapping({p: int(p in chosen) for p in decision_set})
