"""Discrete-tick adaptation simulator.

The simulator replays an event trace against a model.  Events update
exogenous monitored values, but only changes inside a variable's detectable
range are visible to the running system; everything else is recorded as
ignored.  The system keeps running its active specification (a stability
period) until an awareness trigger fires, i.e. a watched criterion leaves its
tolerable range, or the active specification stops being feasible.  It then
spends the configured number of ticks adapting (still on the old
specification) and switches to the best feasible specification that respects
the evolution constraints, preferring targets that restore every trigger to
its tolerable range, with ties broken by fewest parameter changes then
canonical order.

The reported optimal-time fraction compares each tick's active specification
against an omniscient rerun of the same configuration in which every
detectable range is widened to the full domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .domains import Domain, Value, domain_bounds, is_numeric
from .errors import DefinitionError
from .model import (
    DEFAULT_ENUMERATION_CAP,
    Model,
    ProblemInstance,
    Specification,
    canonical_key,
    enumerate_specifications,
    evaluate,
    hamming,
    is_feasible,
    validate_model,
)
from .solver import Rop, rop

INFEASIBLE_MARKER = "infeasible"


# ---------------------------------------------------------------------------
# Events


@dataclass(frozen=True)
class Event:
    """One exogenous change: at ``tick``, ``variable`` takes ``value``."""

    tick: int
    variable: str
    value: Value


@dataclass(frozen=True)
class EventTrace:
    """A chronological event list; ticks must be nonnegative and nondecreasing."""

    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        previous = -1
        for event in self.events:
            if event.tick < 0:
                raise DefinitionError(f"negative tick {event.tick}")
            if event.tick < previous:
                raise DefinitionError(
                    f"tick {event.tick} after tick {previous}: events must be chronological"
                )
            previous = event.tick

    def last_tick(self) -> int:
        return self.events[-1].tick if self.events else -1


def apply_monitoring_scope(model: Model, event: Event) -> bool:
    """True iff the running system can see this event.

    An event is visible when its variable is a declared monitored variable and
    its value lies inside the detectable range.  Events on undeclared
    (change-scope) variables or outside the detectable range are ignored.
    """
    try:
        mv = model.monitored_variable(event.variable)
    except KeyError:
        return False
    if not mv.domain.contains(event.value):
        return False
    return mv.detects(mv.domain.canonical(event.value))


# ---------------------------------------------------------------------------
# Tolerable ranges and awareness triggers


@dataclass(frozen=True)
class IntervalRange:
    """A closed numeric interval; a None edge is unbounded on that side."""

    lo: Optional[float] = None
    hi: Optional[float] = None

    def contains(self, value: Value) -> bool:
        if not is_numeric(value):
            return False
        v = float(value)  # type: ignore[arg-type]
        if self.lo is not None and v < self.lo:
            return False
        if self.hi is not None and v > self.hi:
            return False
        return True


@dataclass(frozen=True)
class ValueSetRange:
    """An explicit set of tolerable values."""

    values: tuple[Value, ...]

    def contains(self, value: Value) -> bool:
        return value in self.values


TolerableRange = Union[IntervalRange, ValueSetRange]


@dataclass(frozen=True)
class AwarenessTrigger:
    """Fires when the watched criterion's value leaves the tolerable range.

    Boundary values are tolerable (interval edges are inclusive).
    """

    criterion: str
    tolerable: TolerableRange


def check_triggers(
    instance: ProblemInstance, triggers: Sequence[AwarenessTrigger]
) -> tuple[str, ...]:
    """Criterion ids of the triggers that fire, sorted."""
    fired = []
    for trigger in triggers:
        try:
            value = instance[trigger.criterion]
        except KeyError:
            raise DefinitionError(
                f"trigger watches unknown criterion '{trigger.criterion}'"
            )
        if not trigger.tolerable.contains(value):
            fired.append(trigger.criterion)
    return tuple(sorted(fired))


def relax(
    triggers: Sequence[AwarenessTrigger],
    widening: Mapping[str, float],
    model: Model,
) -> tuple[AwarenessTrigger, ...]:
    """Widen tolerable ranges by a per-criterion band.

    Only finite interval edges move; each widened range therefore contains the
    original.  Widening must stay inside the criterion's domain bounds, must
    be nonnegative, and cannot apply to a value-set range.
    """
    watched = {t.criterion for t in triggers}
    unknown = set(widening) - watched
    if unknown:
        raise DefinitionError(f"widening names untriggered criteria: {sorted(unknown)}")
    out = []
    for trigger in triggers:
        band = widening.get(trigger.criterion, 0.0)
        if band < 0:
            raise DefinitionError(f"negative widening for '{trigger.criterion}'")
        if band == 0:
            out.append(trigger)
            continue
        if isinstance(trigger.tolerable, ValueSetRange):
            raise DefinitionError(
                f"cannot widen the value-set range on '{trigger.criterion}'"
            )
        bounds = domain_bounds(model.criterion(trigger.criterion).domain)
        if bounds is None:
            raise DefinitionError(f"criterion '{trigger.criterion}' is not numeric")
        lo, hi = trigger.tolerable.lo, trigger.tolerable.hi
        new_lo = lo if lo is None else lo - band
        new_hi = hi if hi is None else hi + band
        if new_lo is not None and new_lo < bounds[0] - 1e-9:
            raise DefinitionError(
                f"widening '{trigger.criterion}' below its domain minimum {bounds[0]}"
            )
        if new_hi is not None and new_hi > bounds[1] + 1e-9:
            raise DefinitionError(
                f"widening '{trigger.criterion}' above its domain maximum {bounds[1]}"
            )
        out.append(AwarenessTrigger(trigger.criterion, IntervalRange(new_lo, new_hi)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Evolution constraints


@dataclass(frozen=True)
class ForbiddenTransition:
    """Disallow switching from specs matching one pattern to specs matching another."""

    from_values: tuple[tuple[str, Value], ...]
    to_values: tuple[tuple[str, Value], ...]


@dataclass(frozen=True)
class MaxParameterChanges:
    """Cap the number of parameters a single switch may change."""

    limit: int


@dataclass(frozen=True)
class UnlessCondition:
    """Count how many listed monitored variables match their value.

    The condition holds when the match count compares as stated against the
    bound (e.g. at least two recording components failed).
    """

    tests: tuple[tuple[str, Value], ...]
    comparator: str  # "==" | "<=" | ">="
    bound: int

    def holds(self, exogenous: Mapping[str, Value]) -> bool:
        count = sum(1 for name, value in self.tests if exogenous.get(name) == value)
        if self.comparator == "==":
            return count == self.bound
        if self.comparator == "<=":
            return count <= self.bound
        return count >= self.bound


@dataclass(frozen=True)
class ForbiddenValue:
    """Disallow assigning ``value`` to ``parameter`` unless the condition holds."""

    parameter: str
    value: Value
    unless: Optional[UnlessCondition] = None


EvolutionConstraint = Union[ForbiddenTransition, MaxParameterChanges, ForbiddenValue]


def _matches(spec: Specification, pattern: tuple[tuple[str, Value], ...]) -> bool:
    return all(spec.get(name) == value for name, value in pattern)


def constraint_allows(
    constraint: EvolutionConstraint,
    current: Optional[Specification],
    candidate: Specification,
    exogenous: Mapping[str, Value],
) -> bool:
    """True iff switching from ``current`` to ``candidate`` is permitted."""
    if isinstance(constraint, ForbiddenTransition):
        if current is None:
            return True
        return not (
            _matches(current, constraint.from_values)
            and _matches(candidate, constraint.to_values)
        )
    if isinstance(constraint, MaxParameterChanges):
        if current is None:
            return True
        return hamming(current, candidate) <= constraint.limit
    if candidate.get(constraint.parameter) != constraint.value:
        return True
    if constraint.unless is None:
        return False
    return constraint.unless.holds(exogenous)


# ---------------------------------------------------------------------------
# Adaptation target selection


@dataclass(frozen=True)
class NoFeasibleAdaptation:
    """Returned when no feasible specification survives the constraints."""

    reason: str = "no feasible adaptation target"


def adaptation_candidates(
    problem: Rop,
    current: Optional[Specification],
    constraints: Sequence[EvolutionConstraint] = (),
    triggers: Sequence[AwarenessTrigger] = (),
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[Specification, ...]:
    """Feasible switch targets, in canonical order.

    Candidates are the feasible specifications allowed by every evolution
    constraint; among those, only specifications whose evaluated instance
    keeps every trigger inside its tolerable range are kept, unless no
    candidate does, in which case the constraint-filtered set stands.
    """
    model = problem.model
    exogenous = problem.exogenous_map()
    feasible = enumerate_specifications(model, exogenous, cap)
    allowed = [
        spec
        for spec in feasible
        if all(constraint_allows(c, current, spec, exogenous) for c in constraints)
    ]
    calm = [
        spec
        for spec in allowed
        if not check_triggers(evaluate(model, spec, exogenous), triggers)
    ]
    return tuple(calm if calm else allowed)


def _accepted_and_target(
    problem: Rop, current: Optional[Specification], pool: Sequence[Specification]
) -> tuple[tuple[Specification, ...], Specification]:
    """The pool's members maximizing the decision rule, and the switch target.

    The target is the accepted member with the fewest parameter changes from
    the current specification, then the first in canonical order.
    """
    model = problem.model
    exogenous = problem.exogenous_map()
    rule = model.decision_rule
    assert rule is not None
    values = [evaluate(model, spec, exogenous)[rule] for spec in pool]
    top = max(values)  # type: ignore[type-var]
    best = tuple(spec for spec, value in zip(pool, values) if value == top)
    if current is None:
        return best, best[0]
    return best, min(best, key=lambda s: (hamming(current, s), canonical_key(model, s)))


def select_adaptation(
    current: Optional[Specification],
    problem: Rop,
    constraints: Sequence[EvolutionConstraint] = (),
    triggers: Sequence[AwarenessTrigger] = (),
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Union[Specification, NoFeasibleAdaptation]:
    """Pick the switch target: best candidate by the decision rule.

    Ties are broken by the fewest parameter changes from the current
    specification, then by canonical order.
    """
    pool = adaptation_candidates(problem, current, constraints, triggers, cap)
    if not pool:
        return NoFeasibleAdaptation()
    return _accepted_and_target(problem, current, pool)[1]


# ---------------------------------------------------------------------------
# Simulation


@dataclass(frozen=True)
class SimulationConfig:
    """Everything the simulator needs besides the model and the trace.

    ``initial_spec`` None means: solve for the best stable specification at
    tick 0.  ``relaxation`` widens trigger ranges before the run starts.
    ``change_scope`` declares extra trace variables that are outside the
    model; their events are always ignored.  ``horizon`` defaults to one past
    the last event tick (or a single tick for an empty trace).
    """

    adaptation_duration: int = 0
    triggers: tuple[AwarenessTrigger, ...] = ()
    constraints: tuple[EvolutionConstraint, ...] = ()
    relaxation: tuple[tuple[str, float], ...] = ()
    initial_exogenous: tuple[tuple[str, Value], ...] = ()
    initial_spec: Optional[Specification] = None
    horizon: Optional[int] = None
    change_scope: tuple[tuple[str, Domain], ...] = ()
    cap: int = DEFAULT_ENUMERATION_CAP


@dataclass(frozen=True)
class Period:
    """One maximal span of ticks with a fixed kind and active specification.

    ``fired`` lists the trigger criteria (or the infeasibility marker) whose
    firing started this period or occurred inside it without causing a
    switch; ``optimal`` flags, per tick, whether the active specification was
    inside the omniscient rerun's accepted set.
    """

    kind: str  # "stability" | "adaptation"
    start: int
    end: int  # exclusive
    spec: Specification
    instance: ProblemInstance
    fired: tuple[str, ...] = ()
    ignored: tuple[Event, ...] = ()
    optimal: tuple[bool, ...] = ()


@dataclass(frozen=True)
class SimulationTimeline:
    periods: tuple[Period, ...]
    status: str  # "completed" | "no-feasible-adaptation"


@dataclass(frozen=True)
class Metrics:
    """Aggregate outcome of one simulated run."""

    optimal_time_fraction: float
    trigger_count: int
    adaptation_tick_total: int
    ignored_event_count: int


class _PeriodDraft:
    def __init__(self, kind: str, start: int, spec: Specification, instance: ProblemInstance,
                 fired: tuple[str, ...]) -> None:
        self.kind = kind
        self.start = start
        self.end = start
        self.spec = spec
        self.instance = instance
        self.fired = list(fired)
        self.ignored: list[Event] = []


class _Replay:
    """Raw per-tick outcome of one pass over the trace."""

    def __init__(self) -> None:
        self.active: list[Optional[Specification]] = []
        self.accepted: list[tuple[Specification, ...]] = []
        self.drafts: list[_PeriodDraft] = []
        self.trigger_count = 0
        self.ignored_count = 0
        self.adaptation_ticks = 0
        self.status = "completed"


def _bind_events(
    model: Model, trace: EventTrace, change_scope: Mapping[str, Domain]
) -> dict[int, list[Event]]:
    by_tick: dict[int, list[Event]] = {}
    for event in trace.events:
        try:
            domain = model.monitored_variable(event.variable).domain
        except KeyError:
            if event.variable in change_scope:
                domain = change_scope[event.variable]
            elif model.has_variable(event.variable):
                raise DefinitionError(
                    f"event variable '{event.variable}' is not monitored"
                )
            else:
                raise DefinitionError(
                    f"event variable '{event.variable}' is neither monitored "
                    "nor declared in the change scope"
                )
        if not domain.contains(event.value):
            raise DefinitionError(
                f"event value {event.value!r} outside the domain of '{event.variable}'"
            )
        bound = Event(event.tick, event.variable, domain.canonical(event.value))
        by_tick.setdefault(event.tick, []).append(bound)
    return by_tick


def _replay(
    model: Model,
    events_by_tick: Mapping[int, list[Event]],
    config: SimulationConfig,
    triggers: tuple[AwarenessTrigger, ...],
    horizon: int,
    full_scope: bool,
) -> _Replay:
    out = _Replay()
    believed: dict[str, Value] = {}
    for name, value in config.initial_exogenous:
        domain = model.variable_domain(name)
        believed[name] = domain.canonical(value)
    for mv in model.monitored:
        if mv.id not in believed:
            raise DefinitionError(f"no initial value for monitored variable '{mv.id}'")

    current: Optional[Specification] = None
    accepted: tuple[Specification, ...] = ()
    adapting = False
    switch_tick = -1
    pending_fired: tuple[str, ...] = ()
    # Firings are re-handled only when the believed environment or the active
    # specification changed since the last handled firing.  Without this, an
    # environment that no target can bring back in range would be re-solved
    # on every tick and, with a nonzero duration, would oscillate between
    # adaptation periods forever.
    last_handled: Optional[tuple[tuple[tuple[str, Value], ...], Specification]] = None
    carry_fired: list[str] = []
    carry_ignored: list[Event] = []

    def env_key() -> tuple[tuple[str, Value], ...]:
        return tuple(sorted(believed.items()))

    def solve_target(
        fired_current: Optional[Specification],
    ) -> Union[Specification, NoFeasibleAdaptation]:
        """Returns the chosen target and updates the accepted set."""
        nonlocal accepted
        problem = rop(model, believed)
        pool = adaptation_candidates(
            problem, fired_current, config.constraints, triggers, config.cap
        )
        if not pool:
            return NoFeasibleAdaptation()
        accepted, target = _accepted_and_target(problem, fired_current, pool)
        return target

    def open_period(
        kind: str, tick: int, spec: Specification, fired: tuple[str, ...]
    ) -> None:
        instance = evaluate(model, spec, believed)
        draft = _PeriodDraft(kind, tick, spec, instance, tuple(carry_fired) + fired)
        draft.ignored.extend(carry_ignored)
        carry_fired.clear()
        carry_ignored.clear()
        out.drafts.append(draft)

    def end_period(tick: int) -> None:
        out.drafts[-1].end = tick
        if out.drafts[-1].end <= out.drafts[-1].start:
            # Zero-length drafts are dropped; their bookkeeping moves to the
            # period opened next.
            popped = out.drafts.pop()
            carry_fired.extend(popped.fired)
            carry_ignored.extend(popped.ignored)

    def halt(tick: int, marks: tuple[str, ...]) -> None:
        out.drafts[-1].fired.extend(marks)
        end_period(tick)
        out.status = "no-feasible-adaptation"

    for tick in range(horizon):
        for event in events_by_tick.get(tick, ()):
            visible = False
            if model.has_variable(event.variable):
                mv = model.monitored_variable(event.variable)
                visible = full_scope or mv.detects(event.value)
            if visible:
                believed[event.variable] = event.value
            else:
                out.ignored_count += 1
                if out.drafts:
                    out.drafts[-1].ignored.append(event)
                else:
                    carry_ignored.append(event)

        if current is None:
            if config.initial_spec is not None:
                try:
                    current = Specification.from_mapping(
                        {
                            p.id: p.domain.canonical(config.initial_spec[p.id])
                            for p in model.parameters
                        }
                    )
                except KeyError as missing:
                    raise DefinitionError(
                        f"initial specification misses parameter {missing}"
                    )
                accepted = (current,)
            else:
                chosen = solve_target(None)
                if isinstance(chosen, NoFeasibleAdaptation):
                    out.status = "no-feasible-adaptation"
                    return out
                current = chosen
                last_handled = (env_key(), current)
            open_period("stability", tick, current, ())

        if adapting and tick == switch_tick:
            chosen = solve_target(current)
            if isinstance(chosen, NoFeasibleAdaptation):
                halt(tick, ())
                return out
            adapting = False
            end_period(tick)
            current = chosen
            last_handled = (env_key(), current)
            open_period("stability", tick, current, pending_fired)
            pending_fired = ()

        if not adapting:
            instance = evaluate(model, current, believed)
            fired = check_triggers(instance, triggers)
            feasible_now = is_feasible(model, current, believed)
            handle = (fired or not feasible_now) and last_handled != (env_key(), current)
            if handle:
                out.trigger_count += len(fired)
                marks = fired + (() if feasible_now else (INFEASIBLE_MARKER,))
                if config.adaptation_duration == 0:
                    chosen = solve_target(current)
                    if isinstance(chosen, NoFeasibleAdaptation):
                        halt(tick, marks)
                        return out
                    last_handled = (env_key(), chosen)
                    if chosen == current:
                        out.drafts[-1].fired.extend(marks)
                    else:
                        end_period(tick)
                        current = chosen
                        open_period("stability", tick, current, marks)
                else:
                    last_handled = (env_key(), current)
                    end_period(tick)
                    adapting = True
                    switch_tick = tick + config.adaptation_duration
                    pending_fired = marks
                    open_period("adaptation", tick, current, marks)

        if adapting:
            out.adaptation_ticks += 1
        out.active.append(current)
        out.accepted.append(accepted)
        out.drafts[-1].end = tick + 1

    return out


def run_simulation(
    model: Model, trace: EventTrace, config: SimulationConfig
) -> tuple[SimulationTimeline, Metrics]:
    """Replay the trace deterministically and score it against an omniscient rerun.

    Identical inputs always produce identical timelines.  A run halts with
    status "no-feasible-adaptation" (keeping the partial timeline) when no
    switch target survives the constraints.
    """
    violations = validate_model(model)
    if violations:
        raise DefinitionError("invalid model: " + "; ".join(str(v) for v in violations))
    if model.decision_rule is None or not model.decision_set:
        raise DefinitionError("simulation needs a decision rule and a decision set")
    if config.adaptation_duration < 0:
        raise DefinitionError("adaptation duration must be nonnegative")
    change_scope = dict(config.change_scope)
    events_by_tick = _bind_events(model, trace, change_scope)
    if config.horizon is not None:
        horizon = config.horizon
    else:
        horizon = trace.last_tick() + 1 if trace.events else 1

    triggers = config.triggers
    if config.relaxation:
        triggers = relax(triggers, dict(config.relaxation), model)

    main = _replay(model, events_by_tick, config, triggers, horizon, full_scope=False)
    omni = _replay(model, events_by_tick, config, triggers, horizon, full_scope=True)

    flags: list[bool] = []
    for tick in range(len(main.active)):
        spec = main.active[tick]
        omni_set = omni.accepted[tick] if tick < len(omni.accepted) else ()
        flags.append(spec is not None and spec in omni_set)

    periods = []
    for draft in main.drafts:
        periods.append(
            Period(
                kind=draft.kind,
                start=draft.start,
                end=draft.end,
                spec=draft.spec,
                instance=draft.instance,
                fired=tuple(draft.fired),
                ignored=tuple(draft.ignored),
                optimal=tuple(flags[draft.start : draft.end]),
            )
        )
    timeline = SimulationTimeline(periods=tuple(periods), status=main.status)

    ran = len(main.active)
    fraction = (sum(flags) / ran) if ran else 1.0
    metrics = Metrics(
        optimal_time_fraction=fraction,
        trigger_count=main.trigger_count,
        adaptation_tick_total=main.adaptation_ticks,
        ignored_event_count=main.ignored_count,
    )
    return timeline, metrics
