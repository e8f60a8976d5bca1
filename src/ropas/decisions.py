"""Decision analysis over alternatives with uncertain attribute outcomes.

Each alternative assigns every attribute a lottery (outcome/probability
pairs).  A utility depend maps attribute values to a real; expected utility
weighs outcome utilities by transformed probabilities.  The identity transform
gives classical expected utility; any monotone map fixing 0 and 1 (a power
curve or an interpolated table) generalizes it.

An entire decision model compiles into an equivalent one-parameter
optimisation problem (``daop_to_rop``): choosing the alternative is the only
decision, per-attribute expected contributions become lookup depends, and the
utility criterion is the decision rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, product
from typing import Mapping, Optional, Union

from .domains import TOLERANCE, Enumerated, Value, domain_bounds, is_finite, is_numeric
from .errors import DefinitionError, EvaluationError
from .model import (
    Criterion,
    LookupTable,
    Model,
    Parameter,
    Violation,
    WeightedSum,
    _check_coverage,
    _check_finite,
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
    """None when valid, otherwise a violation describing the failure."""
    if not lot.outcomes:
        return Violation("lottery", "no outcomes")
    for value, p in lot.outcomes:
        if not is_numeric(p):
            return Violation("lottery", f"probability {p!r} is not a number")
        if not 0.0 <= p <= 1.0:
            return Violation("lottery", f"probability {p} outside [0, 1]")
    total = 0.0
    for _, p in lot.outcomes:
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
                if x1 == x0:
                    return y1
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
        if any(b[1] < a[1] - 1e-12 for a, b in zip(pts, pts[1:])):
            out.append(Violation("transform", "breakpoint values decrease"))
        if abs(pts[0][0]) > 1e-12 or abs(pts[0][1]) > 1e-12:
            out.append(Violation("transform", "first breakpoint must be (0, 0)"))
        if abs(pts[-1][0] - 1.0) > 1e-12 or abs(pts[-1][1] - 1.0) > 1e-12:
            out.append(Violation("transform", "last breakpoint must be (1, 1)"))
    return out


# ---------------------------------------------------------------------------
# Decision models


@dataclass(frozen=True)
class Alternative:
    """One selectable course of action with a lottery per attribute."""

    id: str
    lotteries: tuple[tuple[str, Lottery], ...]

    def lottery_for(self, attribute_id: str) -> Lottery:
        for aid, lot in self.lotteries:
            if aid == attribute_id:
                return lot
        raise KeyError(attribute_id)


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

    def alternative(self, alt_id: str) -> Alternative:
        for alt in self.alternatives:
            if alt.id == alt_id:
                return alt
        raise KeyError(alt_id)

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

    for alt in dm.alternatives:
        declared = [aid for aid, _ in alt.lotteries]
        if sorted(declared) != sorted(attr_ids):
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
            for value, _ in lot.outcomes:
                if not attr.domain.contains(value):
                    out.append(
                        Violation(
                            f"{alt.id}/{attr.id}",
                            f"outcome {value!r} outside the attribute domain",
                        )
                    )

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
        _check_coverage("utility", domains, dm.utility.lookup, "attribute", out)
    out.extend(validate_transform(dm.transform))
    return out


# ---------------------------------------------------------------------------
# Expected utility


def _additive_contribution(dm: DecisionModel, alt: Alternative, index: int) -> float:
    """Weight times transformed-probability-weighted outcome sum for one attribute."""
    assert isinstance(dm.utility, WeightedSum)
    attr = dm.attributes[index]
    weight = dm.utility.weights[index]
    lot = alt.lottery_for(attr.id)
    inner = 0.0
    for value, p in lot.outcomes:
        if not is_numeric(value):
            raise EvaluationError(
                f"outcome {value!r} of '{alt.id}/{attr.id}' is not numeric"
            )
        inner += dm.transform.apply(p) * float(value)
    return weight * inner


def expected_utility(dm: DecisionModel, alternative_id: str) -> float:
    """Expected utility of one alternative under the model's transform.

    Additive (weighted-sum) utilities sum per-attribute contributions; joint
    (lookup-table) utilities sum over all outcome combinations with product
    probabilities.
    """
    try:
        alt = dm.alternative(alternative_id)
    except KeyError:
        raise DefinitionError(f"unknown alternative '{alternative_id}'")
    if isinstance(dm.utility, WeightedSum):
        total = dm.utility.offset
        for i in range(len(dm.attributes)):
            total += _additive_contribution(dm, alt, i)
        return total
    table = dm.utility.lookup
    lots = [alt.lottery_for(attr.id) for attr in dm.attributes]
    total = 0.0
    for combo in product(*(lot.outcomes for lot in lots)):
        key = tuple(value for value, _ in combo)
        if key not in table:
            raise EvaluationError(f"outcome combination {key!r} missing from utility table")
        weight = 1.0
        for _, p in combo:
            weight *= dm.transform.apply(p)
        total += weight * float(table[key])  # type: ignore[arg-type]
    return total


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
    """Rank every alternative; ties share a group, order is deterministic."""
    scored = [(alt.id, expected_utility(dm, alt.id)) for alt in dm.alternatives]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
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

    The single enumerated parameter selects the alternative.  With an additive
    utility, one lookup depend per attribute produces that attribute's
    expected contribution and the utility criterion sums them; with a joint
    utility a single lookup produces the expected utility directly.  Solving
    the result yields exactly the top ranking group.
    """
    problems = dm.violations
    if problems:
        raise DefinitionError(
            "invalid decision model: " + "; ".join(str(v) for v in problems)
        )
    alt_ids = tuple(alt.id for alt in dm.alternatives)
    reserved = {ALTERNATIVE_PARAMETER, UTILITY_CRITERION}
    clash = reserved & set(alt_ids) | reserved & {a.id for a in dm.attributes}
    if clash:
        raise DefinitionError(f"ids clash with compiled names: {sorted(clash)}")

    parameters = (Parameter(id=ALTERNATIVE_PARAMETER, domain=Enumerated(alt_ids)),)
    criteria: list[Criterion] = []
    depends: list = []

    if isinstance(dm.utility, WeightedSum):
        # Each total adds the contributions to the offset in attribute order, as
        # expected_utility does, so it is the same float.
        totals = {aid: dm.utility.offset for aid in alt_ids}
        contribution_ids = []
        for i, attr in enumerate(dm.attributes):
            cid = f"eu_{attr.id}"
            if any(cid == a.id for a in dm.attributes) or cid in alt_ids:
                raise DefinitionError(f"id '{cid}' clashes with a declared id")
            contribution_ids.append(cid)
            per_alt = {
                alt.id: _additive_contribution(dm, alt, i) for alt in dm.alternatives
            }
            totals = {aid: totals[aid] + per_alt[aid] for aid in alt_ids}
            values = tuple(sorted(set(per_alt.values())))
            criteria.append(
                Criterion(id=cid, domain=Enumerated(values), kind="quality-variable")
            )
            depends.append(
                LookupTable(
                    id=f"contrib_{attr.id}",
                    output=cid,
                    inputs=(ALTERNATIVE_PARAMETER,),
                    entries=tuple(((aid,), per_alt[aid]) for aid in alt_ids),
                )
            )
        depends.append(
            WeightedSum(
                id="total_utility",
                output=UTILITY_CRITERION,
                inputs=tuple(contribution_ids),
                weights=(1.0,) * len(contribution_ids),
                offset=dm.utility.offset,
            )
        )
    else:
        totals = {aid: expected_utility(dm, aid) for aid in alt_ids}
        depends.append(
            LookupTable(
                id="total_utility",
                output=UTILITY_CRITERION,
                inputs=(ALTERNATIVE_PARAMETER,),
                entries=tuple(((aid,), totals[aid]) for aid in alt_ids),
            )
        )
    criteria.append(
        Criterion(
            id=UTILITY_CRITERION,
            domain=Enumerated(tuple(sorted(set(totals.values())))),
            kind="utility",
            preference="higher-better",
        )
    )

    model = Model(
        criteria=tuple(criteria),
        parameters=parameters,
        monitored=(),
        depends=tuple(depends),
        decision_rule=UTILITY_CRITERION,
        decision_set=(ALTERNATIVE_PARAMETER,),
    )
    return Rop(model=model, exogenous=())
