"""Decision analysis over alternatives with uncertain attribute outcomes.

Each alternative assigns every attribute a lottery (outcome/probability
pairs).  A utility depend maps attribute values to a real; expected utility
weighs outcome utilities by transformed probabilities.  The identity transform
gives classical expected utility; any monotone map fixing 0 and 1 (a power
curve or an interpolated table) generalizes it.

Each outcome is read as the canonical value of its attribute's domain, so
two spellings of one grid point score alike.  Every alternative's expected
utility is computed once per model (``DecisionModel._utilities``); ranking,
``expected_utility`` and the compilation all read that one table.  An entire
decision model compiles into an equivalent one-parameter optimisation
problem (``daop_to_rop``): choosing the alternative is the only decision, one
lookup depend maps it to its expected utility, and that utility criterion is
the decision rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, product
from typing import Optional, Union

from .domains import TOLERANCE, Enumerated, Value, domain_bounds, is_finite, is_numeric
from .errors import DefinitionError
from .model import (
    Criterion,
    LookupTable,
    Model,
    Parameter,
    Violation,
    WeightedSum,
    _canonical_key,
    _check_coverage,
    _check_finite,
    _shape_fault,
)
from .solver import Rop


# ---------------------------------------------------------------------------
# Lotteries


@dataclass(frozen=True)
class Lottery:
    """Outcome/probability pairs; probabilities must sum to 1 within 1e-9."""

    outcomes: tuple[tuple[Value, float], ...]


def lottery(*pairs: tuple[Value, float]) -> Lottery:
    return Lottery(outcomes=tuple(pairs))


def validate_lottery(lot: Lottery) -> Optional[Violation]:
    """None when valid, otherwise a violation describing the failure: the
    first bad probability, else a sum off 1, else the first repeated outcome."""
    if not lot.outcomes:
        return Violation("lottery", "no outcomes")
    total = 0.0
    for _, p in lot.outcomes:
        if type(p) is not float and not is_numeric(p):  # a parsed one is a float
            return Violation("lottery", f"probability {p!r} is not a number")
        if not 0.0 <= p <= 1.0:
            return Violation("lottery", f"probability {p} outside [0, 1]")
        total += p
    if abs(total - 1.0) > TOLERANCE:
        return Violation("lottery", f"probabilities sum to {total!r}, not 1")
    seen = set()
    for value, _ in lot.outcomes:
        if value in seen:
            return Violation("lottery", f"duplicate outcome {value!r}")
        seen.add(value)
    return None


# ---------------------------------------------------------------------------
# Probability transforms


@dataclass(frozen=True)
class IdentityTransform:
    """Classical expected utility: probabilities enter untransformed."""

    def apply(self, p: float) -> float:
        return p


@dataclass(frozen=True)
class PowerTransform:
    """F(p) = p ** exponent, exponent > 0."""

    exponent: float

    def apply(self, p: float) -> float:
        return p ** self.exponent


@dataclass(frozen=True)
class TableTransform:
    """Piecewise-linear monotone map given by (p, F(p)) breakpoints.

    Must include (0, 0) and (1, 1); breakpoints sorted by p, values
    nondecreasing.
    """

    points: tuple[tuple[float, float], ...]

    def apply(self, p: float) -> float:
        pts = self.points
        if p <= pts[0][0]:
            return pts[0][1]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if p <= x1:
                return y0 + (y1 - y0) * (p - x0) / (x1 - x0)
        return pts[-1][1]


Transform = Union[IdentityTransform, PowerTransform, TableTransform]


def validate_transform(transform: Transform) -> list[Violation]:
    out: list[Violation] = []
    if isinstance(transform, PowerTransform):
        if not is_numeric(transform.exponent) or transform.exponent <= 0:
            out.append(Violation("transform", f"exponent {transform.exponent!r} must be positive"))
        elif not is_finite(transform.exponent):
            out.append(Violation("transform", f"exponent {transform.exponent!r} must be finite"))
    elif isinstance(transform, TableTransform):
        pts = transform.points
        if len(pts) < 2:
            out.append(Violation("transform", "needs at least the two endpoint breakpoints"))
            return out
        if not all(is_finite(x) and is_finite(y) for x, y in pts):
            out.append(Violation("transform", "breakpoints must be finite numbers"))
            return out
        if any(b[0] < a[0] for a, b in zip(pts, pts[1:])):
            out.append(Violation("transform", "breakpoints not sorted by probability"))
        if any(b[1] < a[1] for a, b in zip(pts, pts[1:])):
            out.append(Violation("transform", "breakpoint values decrease"))
        if tuple(pts[0]) != (0, 0):
            out.append(Violation("transform", "first breakpoint must be (0, 0)"))
        if tuple(pts[-1]) != (1, 1):
            out.append(Violation("transform", "last breakpoint must be (1, 1)"))
    return out


# ---------------------------------------------------------------------------
# Decision models


@dataclass(frozen=True)
class Alternative:
    """One selectable course of action with a lottery per attribute."""

    id: str
    lotteries: tuple[tuple[str, Lottery], ...]

    @cached_property
    def _by_attribute(self) -> dict[str, Lottery]:
        """Each attribute's first lottery, keyed once (reversed, so that an
        earlier pair overwrites a later one)."""
        return dict(reversed(self.lotteries))

    def lottery_for(self, attribute_id: str) -> Lottery:
        return self._by_attribute[attribute_id]


@dataclass(frozen=True)
class DecisionModel:
    """Alternatives, attributes, a utility depend, and a probability transform.

    The utility depend reads exactly the attribute ids, in declaration order:
    a weighted sum gives the additive multi-attribute form, a lookup table
    gives an arbitrary joint form (outcome combinations are assumed
    independent across attributes).
    """

    alternatives: tuple[Alternative, ...]
    attributes: tuple[Criterion, ...]
    utility: Union[WeightedSum, LookupTable]
    transform: Transform = IdentityTransform()

    @cached_property
    def _by_id(self) -> dict[str, Alternative]:
        """Each id's first alternative, keyed once."""
        return {alt.id: alt for alt in reversed(self.alternatives)}

    @cached_property
    def _joint_table(self) -> dict[Optional[tuple], Value]:
        """A lookup-table utility keyed by ``_canonical_key``, made once."""
        domains, table = [a.domain for a in self.attributes], self.utility.lookup  # type: ignore
        return {_canonical_key(domains, key): value for key, value in table.items()}

    @cached_property
    def _utilities(self) -> dict[str, float]:
        """Each alternative's expected utility, in declaration order, computed
        once per model; callers run ``_check_valid`` first.

        Each outcome is read once, as its domain's canonical value with its
        transformed probability.  An additive (weighted-sum) utility adds, to
        the offset in attribute order, each weight times its attribute's
        probability-weighted outcome sum; a joint (lookup-table) utility sums,
        over all outcome combinations, the product of their probabilities
        times the table's value at their canonical key.
        """
        apply, utility = self.transform.apply, self.utility
        totals = {}
        for alt in self.alternatives:
            # Outcomes lie in their domains and a joint table covers every key.
            lots = [[(a.domain.canonical(v), apply(p)) for v, p in alt.lottery_for(a.id).outcomes]
                    for a in self.attributes]
            if isinstance(utility, WeightedSum):
                total = utility.offset
                for weight, lot in zip(utility.weights, lots):
                    inner = 0.0
                    for value, q in lot:
                        inner += q * float(value)
                    total += weight * inner
            else:
                total = 0.0
                for combo in product(*lots):
                    weight = 1.0
                    for _, q in combo:
                        weight *= q
                    total += weight * float(self._joint_table[tuple(value for value, _ in combo)])  # type: ignore
            totals[alt.id] = total
        return totals

    def alternative(self, alt_id: str) -> Alternative:
        return self._by_id[alt_id]

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """``validate_decision_model``'s findings, computed once per model."""
        return tuple(validate_decision_model(self))


def validate_decision_model(dm: DecisionModel) -> list[Violation]:
    out: list[Violation] = []
    if not dm.alternatives:
        out.append(Violation("decision model", "no alternatives"))
    if not dm.attributes:
        out.append(Violation("decision model", "no attributes"))
    ids = [a.id for a in dm.alternatives]
    if len(set(ids)) != len(ids):
        out.append(Violation("decision model", "duplicate alternative ids"))
    attr_ids = [a.id for a in dm.attributes]
    if len(set(attr_ids)) != len(attr_ids):
        out.append(Violation("decision model", "duplicate attribute ids"))

    sorted_attr_ids = sorted(attr_ids)
    for alt in dm.alternatives:
        declared = [aid for aid, _ in alt.lotteries]
        if sorted(declared) != sorted_attr_ids:
            out.append(
                Violation(alt.id, "must declare exactly one lottery per attribute")
            )
            continue
        for attr in dm.attributes:
            lot = alt.lottery_for(attr.id)
            problem = validate_lottery(lot)
            if problem is not None:
                out.append(Violation(f"{alt.id}/{attr.id}", problem.message))
                continue
            # Evaluation reads each outcome as its canonical value, so two
            # spellings of one grid point repeat an outcome.
            canonical, points = attr.domain.canonical, set()
            for value, _ in lot.outcomes:
                try:
                    point = canonical(value)
                except DefinitionError:
                    message = f"outcome {value!r} outside the attribute domain"
                else:
                    if point not in points:
                        points.add(point)
                        continue
                    message = f"duplicate outcome {value!r}"
                out.append(Violation(f"{alt.id}/{attr.id}", message))

    fault = _shape_fault(dm.utility)
    if fault is not None:  # every utility check below reads its fields
        return out + [Violation("utility", fault)] + validate_transform(dm.transform)
    if tuple(dm.utility.inputs) != tuple(attr_ids):
        out.append(
            Violation("utility", "inputs must be exactly the attribute ids in order")
        )
    if isinstance(dm.utility, WeightedSum):
        if len(dm.utility.weights) != len(dm.utility.inputs):
            out.append(Violation("utility", "weight count differs from input count"))
        _check_finite("utility", out, weight=dm.utility.weights, offset=(dm.utility.offset,))
        for attr in dm.attributes:
            if domain_bounds(attr.domain) is None:
                out.append(
                    Violation("utility", f"attribute '{attr.id}' is not numeric")
                )
    elif not out:
        _check_finite("utility", out, value=(value for _, value in dm.utility.entries))
        domains = [a.domain for a in dm.attributes]
        _check_coverage("utility", domains, dm._joint_table, "attribute", out)
    out.extend(validate_transform(dm.transform))
    return out


def _check_valid(dm: DecisionModel) -> None:
    """The one validity check of every evaluation: raise the definition error
    ``invalid decision model: …`` naming each finding of an invalid model."""
    if dm.violations:
        raise DefinitionError("invalid decision model: " + "; ".join(map(str, dm.violations)))


# ---------------------------------------------------------------------------
# Expected utility


def expected_utility(dm: DecisionModel, alternative_id: str) -> float:
    """Expected utility of one alternative under the model's transform, read
    from the model's one table (``DecisionModel._utilities``).  An invalid
    model raises ``_check_valid``'s definition error."""
    _check_valid(dm)
    try:
        return dm._utilities[alternative_id]
    except KeyError:
        raise DefinitionError(f"unknown alternative '{alternative_id}'")


# ---------------------------------------------------------------------------
# Ranking


@dataclass(frozen=True)
class Ranking:
    """Alternatives ordered by nonincreasing expected utility.

    ``groups`` collects ids sharing exactly equal utility; the first group is
    the optimal set.
    """

    entries: tuple[tuple[str, float], ...]
    groups: tuple[tuple[str, ...], ...]

    def head_group(self) -> tuple[str, ...]:
        return self.groups[0] if self.groups else ()


def rank_alternatives(dm: DecisionModel) -> Ranking:
    """Rank every alternative; ties share a group, order is deterministic.
    An invalid model raises ``_check_valid``'s definition error."""
    _check_valid(dm)
    scored = sorted(dm._utilities.items(), key=lambda pair: (-pair[1], pair[0]))
    groups = tuple(
        tuple(alt_id for alt_id, _ in tied)
        for _, tied in groupby(scored, key=lambda pair: pair[1])
    )
    return Ranking(entries=tuple(scored), groups=groups)


# ---------------------------------------------------------------------------
# Compilation into an optimisation problem


ALTERNATIVE_PARAMETER = "alternative"
UTILITY_CRITERION = "utility"


def daop_to_rop(dm: DecisionModel) -> Rop:
    """Compile the decision model into a one-parameter optimisation problem.

    The single enumerated parameter selects the alternative, and one lookup
    depend maps it to its expected utility from the model's table, for either
    utility kind.  Solving the result yields exactly the top ranking group.
    """
    _check_valid(dm)
    totals = dm._utilities
    reserved = {ALTERNATIVE_PARAMETER, UTILITY_CRITERION}
    clash = reserved & set(totals) | reserved & {a.id for a in dm.attributes}
    if clash:
        raise DefinitionError(f"ids clash with compiled names: {sorted(clash)}")

    model = Model(
        criteria=(
            Criterion(
                id=UTILITY_CRITERION,
                domain=Enumerated(tuple(sorted(set(totals.values())))),
                kind="utility",
                preference="higher-better",
            ),
        ),
        parameters=(Parameter(id=ALTERNATIVE_PARAMETER, domain=Enumerated(tuple(totals))),),
        monitored=(),
        depends=(
            LookupTable(
                id="total_utility",
                output=UTILITY_CRITERION,
                inputs=(ALTERNATIVE_PARAMETER,),
                entries=tuple(((aid,), total) for aid, total in totals.items()),
            ),
        ),
        decision_rule=UTILITY_CRITERION,
        decision_set=(ALTERNATIVE_PARAMETER,),
    )
    return Rop(model=model, exogenous=())
