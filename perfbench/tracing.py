"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each listed public function of the ``ropas``
package with a wrapper under every module name it is bound to (for example
``ropas.runtime.evaluate`` as well as ``ropas.model.evaluate``), so calls
made between modules are seen wherever they come from.  Each wrapper counts
calls and records inclusive and self time; self time is the span minus the
part of it covered by child spans.  ``uninstall`` puts the originals back.
No file of the program is touched.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable

# (module, function) pairs wrapped in a traced run, named "<module>.<function>".
TRACED = (
    ("cli", "main"),
    ("formats", "parse_model"),
    ("formats", "parse_trace"),
    ("decisions", "rank_alternatives"),
    ("decisions", "expected_utility"),
    ("goals", "solve_rdrp"),
    ("goals", "check_drp"),
    ("goals", "derive_closure"),
    ("solver", "rop"),
    ("solver", "solve_rop"),
    ("solver", "encode_rdrp"),
    ("runtime", "run_simulation"),
    ("runtime", "adaptation_candidates"),
    ("runtime", "check_triggers"),
    ("model", "validate_model"),
    ("model", "evaluate"),
    ("model", "is_feasible"),
    ("model", "enumerate_specifications"),
)


class Span:
    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra: dict[str, float] = {}


def _observe(name: str, args: tuple, result: object, span: Span) -> None:
    """Counts taken from a call's inputs and result, outside its timed span."""
    extra = span.extra
    if name == "runtime.adaptation_candidates":
        extra["returned"] = extra.get("returned", 0) + len(result)  # type: ignore[arg-type]
    elif name == "model.enumerate_specifications":
        from ropas.model import search_space_size

        extra["feasible"] = extra.get("feasible", 0) + len(result)  # type: ignore[arg-type]
        extra["space"] = extra.get("space", 0) + search_space_size(args[0])
    elif name == "goals.check_drp":
        extra["satisfying"] = extra.get("satisfying", 0) + int(result.satisfaction)  # type: ignore[attr-defined]
    elif name in ("formats.parse_model", "formats.parse_trace"):
        extra["bytes"] = extra.get("bytes", 0) + len(args[0].encode("utf-8"))


class Tracer:
    def __init__(self) -> None:
        self.spans = {f"{module}.{func}": Span() for module, func in TRACED}
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._restore: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, func: Callable) -> Callable:
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            _observe(name, args, result, span)
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        for module_name, _ in TRACED:
            importlib.import_module(f"ropas.{module_name}")
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == "ropas" or n.startswith("ropas."))
        ]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"ropas.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
