"""Finite value domains for criteria, parameters, and monitored variables.

Four concrete kinds exist: ``Boolean``, ``IntegerRange``, ``RealGrid``, and
``Enumerated``.  Every domain is a finite, explicitly ordered value set; no
symbolic or interval reasoning happens anywhere downstream.  The declaration
order of a domain's values is its canonical order, used for deterministic
enumeration and tie sorting.  No domain holds an infinite or nan value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Union

from .errors import DefinitionError

Value = Union[int, float, str]

# The one float tolerance: matching a float against an integer or a grid
# point, testing a constraint or a threshold, summing a lottery's
# probabilities, and widening a trigger range within its criterion's domain.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Boolean:
    """The two-valued domain {0, 1}."""

    @property
    def size(self) -> int:
        return 2

    def values(self) -> tuple[int, ...]:
        return (0, 1)

    def contains(self, value: Value) -> bool:
        return value in (0, 1) or isinstance(value, bool)

    def canonical(self, value: Value) -> int:
        if isinstance(value, bool):
            return int(value)
        if value in (0, 1):
            return int(value)  # type: ignore[arg-type]
        raise DefinitionError(f"value {value!r} not in boolean domain")

    def index_of(self, value: Value) -> int:
        return self.canonical(value)


@dataclass(frozen=True)
class IntegerRange:
    """All integers from ``lo`` to ``hi`` inclusive, in increasing order."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)):
            raise DefinitionError("integer range bounds must be integers")
        if self.lo > self.hi:
            raise DefinitionError(f"empty integer range [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def values(self) -> tuple[int, ...]:
        return tuple(range(self.lo, self.hi + 1))

    def contains(self, value: Value) -> bool:
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, float):
            if not isfinite(value) or abs(value - round(value)) > TOLERANCE:
                return False
            value = round(value)
        return isinstance(value, int) and self.lo <= value <= self.hi

    def canonical(self, value: Value) -> int:
        if not self.contains(value):
            raise DefinitionError(
                f"value {value!r} not in integer range [{self.lo}, {self.hi}]"
            )
        return round(value)  # type: ignore[arg-type]

    def index_of(self, value: Value) -> int:
        return self.canonical(value) - self.lo


@dataclass(frozen=True)
class RealGrid:
    """Evenly spaced reals ``lo, lo + step, ...`` up to and including ``hi``.

    ``hi`` must itself sit on the grid (within 1e-6 of a step).  Membership
    checks snap to the nearest grid point within ``TOLERANCE``.
    """

    lo: float
    hi: float
    step: float

    def __post_init__(self) -> None:
        if not all(is_finite(x) for x in (self.lo, self.hi, self.step)):
            raise DefinitionError("grid bounds and step must be finite numbers")
        if self.step <= 0:
            raise DefinitionError("grid step must be positive")
        if self.hi < self.lo:
            raise DefinitionError(f"empty real grid [{self.lo}, {self.hi}]")
        span = (self.hi - self.lo) / self.step
        if not isfinite(span):
            raise DefinitionError(f"real grid [{self.lo}, {self.hi}] has too many points")
        if abs(span - round(span)) > 1e-6:
            raise DefinitionError(
                f"grid upper bound {self.hi} is not a multiple of step {self.step}"
            )

    @property
    def size(self) -> int:
        return round((self.hi - self.lo) / self.step) + 1

    def values(self) -> tuple[float, ...]:
        return tuple(self.lo + i * self.step for i in range(self.size))

    def _slot(self, value: Value) -> int | None:
        if isinstance(value, str) or isinstance(value, bool):
            return None
        size = self.size
        try:
            position = (float(value) - self.lo) / self.step
        except OverflowError:  # an int too large for a float
            return None
        if not -1.0 < position < size:  # also false for nan
            return None
        idx = round(position)
        if idx < 0 or idx >= size:
            return None
        if abs(self.lo + idx * self.step - float(value)) > TOLERANCE:
            return None
        return idx

    def contains(self, value: Value) -> bool:
        return self._slot(value) is not None

    def canonical(self, value: Value) -> float:
        idx = self._slot(value)
        if idx is None:
            raise DefinitionError(
                f"value {value!r} not on grid [{self.lo}, {self.hi}] step {self.step}"
            )
        return self.lo + idx * self.step

    def index_of(self, value: Value) -> int:
        idx = self._slot(value)
        if idx is None:
            raise DefinitionError(f"value {value!r} not on grid")
        return idx


@dataclass(frozen=True)
class Enumerated:
    """An explicit ordered tuple of distinct values.

    Values are normally string labels; numeric values are also accepted (used
    for criteria whose finite achievable value set is not an even grid).
    Declaration order is the domain order.
    """

    labels: tuple[Value, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise DefinitionError("enumerated domain needs at least one value")
        if len(set(self.labels)) != len(self.labels):
            raise DefinitionError("enumerated domain values must be distinct")
        if not all(is_finite(v) for v in self.labels if isinstance(v, float)):
            raise DefinitionError("enumerated domain values must be finite")

    @property
    def size(self) -> int:
        return len(self.labels)

    def values(self) -> tuple[Value, ...]:
        return self.labels

    def contains(self, value: Value) -> bool:
        return value in self.labels

    def canonical(self, value: Value) -> Value:
        return self.labels[self.index_of(value)]

    def index_of(self, value: Value) -> int:
        if value not in self.labels:
            raise DefinitionError(f"value {value!r} not among enumerated values")
        return self.labels.index(value)


Domain = Union[Boolean, IntegerRange, RealGrid, Enumerated]


def domain_bounds(domain: Domain) -> tuple[float, float] | None:
    """Numeric (min, max) of a domain, or None for string-valued Enumerated."""
    if isinstance(domain, Boolean):
        return (0.0, 1.0)
    if isinstance(domain, IntegerRange):
        return (float(domain.lo), float(domain.hi))
    if isinstance(domain, RealGrid):
        return (domain.lo, domain.hi)
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in domain.labels):
        return (min(domain.labels), max(domain.labels))  # type: ignore[type-var]
    return None


def is_numeric(value: Value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite(value: Value) -> bool:
    """A numeric value that is neither infinite nor nan."""
    return isfinite(value) if isinstance(value, float) else is_numeric(value)
