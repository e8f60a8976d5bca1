"""Discrete-tick adaptation simulator.

The simulator replays an event trace against a model.  Events update
exogenous monitored values, but only changes inside a variable's detectable
range are visible to the running system; everything else is recorded as
ignored.  The system keeps running its active specification (a stability
period) until an awareness trigger fires, i.e. a watched criterion leaves its
tolerable range, or the active specification stops being feasible.  It then
spends the configured number of ticks adapting (still on the old
specification) and switches to the best feasible specification that changes
only decision-set parameters and respects the evolution constraints,
preferring targets that restore every trigger to
its tolerable range, with ties broken by fewest parameter changes then
canonical order.

The reported optimal-time fraction compares each tick's active specification
against an omniscient rerun of the same configuration in which every
detectable range is widened to the full domain.

Each distinct (believed environment, active specification) pair is solved
and checked once per run, and the omniscient rerun reuses those results.

``run_simulation`` canonicalizes the configuration (initial values, the
initial specification, evolution-constraint values) and the trace events
once, on entry.  From there every value the simulator holds is canonical, as
are the search's candidates, so it evaluates through the model's trusted
entry ``_evaluated``: each re-solve canonicalizes its exogenous map once,
not once per candidate, and one evaluation of a specification gives both its
instance and its feasibility.  The public ``adaptation_candidates`` and
``select_adaptation`` still accept any ``Rop``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Union

from .domains import TOLERANCE, Domain, Value, domain_bounds, is_finite, is_numeric
from .errors import DefinitionError, SizeLimitError
from .model import (
    DEFAULT_ENUMERATION_CAP,
    Model,
    ProblemInstance,
    Specification,
    Violation,
    _evaluated,
    _exogenous_values,
    _feasible,
    _instance,
    canonical_key,
    enumerate_specifications,
    hamming,
    pinned_values,
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
        if not is_finite(band):
            raise DefinitionError(f"widening for '{trigger.criterion}' is not a finite number")
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
        if new_lo is not None and new_lo < bounds[0] - TOLERANCE:
            raise DefinitionError(
                f"widening '{trigger.criterion}' below its domain minimum {bounds[0]}"
            )
        if new_hi is not None and new_hi > bounds[1] + TOLERANCE:
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

    A re-solve varies only the decision set: a parameter outside it that no
    depend computes keeps its value in ``current`` or, with no current
    specification, takes its default, as in ``solve_rop``.  Candidates are
    the feasible specifications so pinned that every evolution constraint
    allows; among those, only specifications whose evaluated instance keeps
    every trigger inside its tolerable range are kept, unless no candidate
    does, in which case the constraint-filtered set stands.
    """
    model = problem.model
    exogenous = problem.exogenous_map()
    pinned = pinned_values(model, model.decision_set, current)
    feasible = enumerate_specifications(model, exogenous, cap)
    allowed = [
        spec
        for spec in feasible
        if all(spec[pid] == value for pid, value in pinned.items())
        and all(constraint_allows(c, current, spec, exogenous) for c in constraints)
    ]
    # The search emits canonical specifications, so each is evaluated through
    # the trusted entry against the exogenous map canonicalized once.
    given = _exogenous_values(model, exogenous)
    calm = [
        spec
        for spec in allowed
        if not check_triggers(_instance(model, _evaluated(model, spec, given)[0]), triggers)
    ]
    return tuple(calm if calm else allowed)


def _adaptation_step(
    problem: Rop, current: Optional[Specification], constraints: Sequence[EvolutionConstraint],
    triggers: Sequence[AwarenessTrigger], cap: int,
) -> tuple[tuple[Specification, ...], Union[Specification, NoFeasibleAdaptation]]:
    """The candidates maximizing the decision rule (the accepted set), and the
    switch target: the accepted member with the fewest parameter changes from
    the current specification, then the first in canonical order.  With no
    candidate, an empty set and ``NoFeasibleAdaptation``.
    """
    pool = adaptation_candidates(problem, current, constraints, triggers, cap)
    if not pool:
        return (), NoFeasibleAdaptation()
    model = problem.model
    given = _exogenous_values(model, problem.exogenous_map())
    rule = model.decision_rule
    assert rule is not None
    values = [_evaluated(model, spec, given)[0][rule] for spec in pool]
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
    return _adaptation_step(problem, current, constraints, triggers, cap)[1]


# ---------------------------------------------------------------------------
# Simulation


@dataclass(frozen=True)
class SimulationConfig:
    """Everything the simulator needs besides the model and the trace.

    ``initial_spec`` None means: solve for the best stable specification at
    tick 0.  ``relaxation`` widens trigger ranges before the run starts.
    ``change_scope`` declares extra trace variables that are outside the
    model; their events are always ignored.  ``horizon`` must be at least 1
    and defaults to one past the last event tick (or a single tick for an
    empty trace).  ``cap`` bounds each re-solve's search space and the horizon.
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


def config_violations(model: Model, config: SimulationConfig) -> list[Violation]:
    """Every way ``config`` does not fit ``model``; an empty list means it fits.

    Each subject names the model-file record at fault: ``initial-spec``,
    ``trigger C``, ``initial M``, ``change-scope V``, ``simulation duration``,
    ``simulation horizon``, or ``evolution I`` for the constraint at index I."""
    out: list[Violation] = []

    def bad(subject: str, message: str) -> None:
        out.append(Violation(subject, message))

    def check(subject: str, what: str, pairs, kind: str) -> None:
        """Each name must be a ``kind`` with its value in that variable's domain;
        ``{}`` in ``subject`` stands for the name."""
        find = {"parameter": model.parameter, "criterion": model.criterion}.get(
            kind, model.monitored_variable
        )
        for name, value in pairs:
            at = subject.format(name)
            try:
                if not find(name).domain.contains(value):
                    bad(at, f"{what} value {value!r} outside the domain of '{name}'")
            except KeyError:
                # "initial value for non-monitored variable 'x'", "evolution constraint
                # value for non-parameter 'x'", "unless test value for non-monitored ..."
                bad(at, f"{what} value for non-{kind} '{name}'")

    spec = config.initial_spec
    if spec is not None:
        wanted, got = {p.id for p in model.parameters}, {name for name, _ in spec.items}
        if wanted != got:
            missing = f"(missing {sorted(wanted - got)}, extra {sorted(got - wanted)})"
            bad("initial-spec", "initial-spec must assign exactly the parameters " + missing)
        given = [(name, value) for name, value in spec.items if name in wanted]
        check("initial-spec", "initial-spec", given, "parameter")
    for trigger in config.triggers:
        name, tolerable = trigger.criterion, trigger.tolerable
        if not any(c.id == name for c in model.criteria):
            bad(f"trigger {name}", f"trigger watches unknown criterion '{name}'")
        elif isinstance(tolerable, ValueSetRange):
            check(f"trigger {name}", "trigger", ((name, v) for v in tolerable.values), "criterion")
        edges = (tolerable.lo, tolerable.hi) if isinstance(tolerable, IntervalRange) else ()
        if not all(edge is None or is_finite(edge) for edge in edges):
            bad(f"trigger {name}", "trigger range edges must be finite numbers")
    check("initial {}", "initial", config.initial_exogenous, "monitored variable")
    for name, _ in config.change_scope:
        if model.has_variable(name):
            bad(f"change-scope {name}", f"change-scope variable '{name}' is already in the model")
    if config.adaptation_duration < 0:
        bad("simulation duration", "adaptation duration must be nonnegative")
    if config.horizon is not None and config.horizon < 1:
        bad("simulation horizon", "horizon must be at least 1")
    for index, c in enumerate(config.constraints):
        subject = f"evolution {index}"
        if isinstance(c, MaxParameterChanges) and c.limit < 0:
            bad(subject, "max-changes must be nonnegative")
        elif isinstance(c, ForbiddenTransition):
            check(subject, "evolution constraint", c.from_values + c.to_values, "parameter")
        elif isinstance(c, ForbiddenValue):
            check(subject, "evolution constraint", ((c.parameter, c.value),), "parameter")
            check(subject, "unless test", c.unless.tests if c.unless else (), "monitored variable")
    return out


# ``c`` with every value as its variable's domain holds it, so that it
# compares equal to the canonical specifications, environments and instances.
def _canonical(
    model: Model, c: Union[EvolutionConstraint, AwarenessTrigger]
) -> Union[EvolutionConstraint, AwarenessTrigger]:
    def canon(pairs):
        return tuple((name, model.variable_domain(name).canonical(value)) for name, value in pairs)

    if isinstance(c, ForbiddenTransition):
        return ForbiddenTransition(canon(c.from_values), canon(c.to_values))
    if isinstance(c, ForbiddenValue):
        unless = c.unless and replace(c.unless, tests=canon(c.unless.tests))
        value = model.variable_domain(c.parameter).canonical(c.value)
        return ForbiddenValue(c.parameter, value, unless)
    if isinstance(c, AwarenessTrigger) and isinstance(c.tolerable, ValueSetRange):
        domain = model.criterion(c.criterion).domain
        return replace(c, tolerable=ValueSetRange(tuple(map(domain.canonical, c.tolerable.values))))
    return c


@dataclass(frozen=True)
class Period:
    """One maximal span of ticks with a fixed kind and active specification.

    ``fired`` lists the trigger criteria (or the infeasibility marker) whose
    firing started this period or occurred inside it without causing a
    switch, or halted the run at its end; ``ignored`` lists the unseen events
    of the ticks after its first one up to its end tick (the first period
    also takes those of tick 0); ``optimal`` flags, per tick, whether the
    active specification was inside the omniscient rerun's accepted set.
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
    """Aggregate outcome of one simulated run.  ``optimal_time_fraction`` is the
    share of the ticks run whose active specification lies in the omniscient
    rerun's accepted set, and 0 for a run that halts at tick 0 (no tick ran)."""

    optimal_time_fraction: float
    trigger_count: int
    adaptation_tick_total: int
    ignored_event_count: int


class _Replay:
    """Raw per-tick outcome of one pass over the trace.

    ``opened`` holds the kind, specification and instance of the period
    opened at a tick (a later opening at the same tick replaces it);
    ``fired`` and ``ignored`` hold the marks and events recorded under a tick.
    """

    def __init__(self) -> None:
        self.active: list[Specification] = []
        self.accepted: list[tuple[Specification, ...]] = []
        self.opened: dict[int, tuple[str, Specification, ProblemInstance]] = {}
        self.fired: defaultdict[int, list[str]] = defaultdict(list)
        self.ignored: defaultdict[int, list[Event]] = defaultdict(list)
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
    model: Model, events_by_tick: Mapping[int, list[Event]], config: SimulationConfig,
    triggers: tuple[AwarenessTrigger, ...], horizon: int, initial: Mapping[str, Value],
    start: Optional[Specification], full_scope: bool, memo: dict,
) -> _Replay:
    """One pass over the trace; a None ``start`` is solved for at tick 0."""
    out = _Replay()
    believed = dict(initial)
    current: Optional[Specification] = start
    accepted: tuple[Specification, ...] = () if start is None else (start,)
    # The tick an adaptation period ends at, and the marks of its firing.
    switch_tick: Optional[int] = None
    pending_fired: tuple[str, ...] = ()
    # Firings are re-handled only when the believed environment or the active
    # specification changed since the last handled firing.  Without this, an
    # environment that no target can bring back in range would be re-solved
    # on every tick and, with a nonzero duration, would oscillate between
    # adaptation periods forever.
    last_handled: Optional[tuple[tuple[tuple[str, Value], ...], Specification]] = None

    def env_key() -> tuple[tuple[str, Value], ...]:
        return tuple(sorted(believed.items()))

    # ``memo`` holds, per believed environment and specification, the re-solve
    # from that specification and its status (instance, fired triggers and
    # feasibility).  Each is a pure function of that pair within one run, so
    # the run's two passes share the memo.
    def recall(kind: str, spec: Optional[Specification], compute):
        key = (kind, env_key(), spec)
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def solve_target(
        fired_current: Optional[Specification],
    ) -> Union[Specification, NoFeasibleAdaptation]:
        """Returns the chosen target and updates the accepted set."""
        nonlocal accepted
        accepted, target = recall("solve", fired_current, lambda: _adaptation_step(
            rop(model, believed), fired_current, config.constraints, triggers, config.cap
        ))
        return target

    # ``believed`` and every active specification hold canonical values (bound
    # in ``run_simulation`` or emitted by the search), so a status is one
    # trusted evaluation shared by the instance and the feasibility check.
    def status(spec: Specification) -> tuple[ProblemInstance, tuple[str, ...], bool]:
        def compute():
            env, derived = _evaluated(model, spec, believed)
            instance = _instance(model, env)
            return instance, check_triggers(instance, triggers), _feasible(model, env, derived)
        return recall("status", spec, compute)

    def open_period(kind: str, tick: int, spec: Specification) -> None:
        out.opened[tick] = (kind, spec, status(spec)[0])

    for tick in range(horizon):
        for event in events_by_tick.get(tick, ()):
            if full_scope:
                visible = model.has_variable(event.variable)
            else:
                visible = apply_monitoring_scope(model, event)
            if visible:
                believed[event.variable] = event.value
            else:
                # The period that ran before the event lists it.
                out.ignored_count += 1
                out.ignored[max(tick - 1, 0)].append(event)

        if tick == 0:
            if current is None:
                chosen = solve_target(None)
                if isinstance(chosen, NoFeasibleAdaptation):
                    out.status = "no-feasible-adaptation"
                    return out
                current = chosen
                last_handled = (env_key(), current)
            open_period("stability", tick, current)

        if tick == switch_tick:
            chosen = solve_target(current)
            if isinstance(chosen, NoFeasibleAdaptation):
                out.status = "no-feasible-adaptation"
                return out
            switch_tick = None
            current = chosen
            last_handled = (env_key(), current)
            open_period("stability", tick, current)
            out.fired[tick] += pending_fired

        if switch_tick is None:
            _, fired, feasible_now = status(current)
            handle = (fired or not feasible_now) and last_handled != (env_key(), current)
            if handle:
                out.trigger_count += len(fired)
                marks = fired + (() if feasible_now else (INFEASIBLE_MARKER,))
                if config.adaptation_duration == 0:
                    chosen = solve_target(current)
                    if isinstance(chosen, NoFeasibleAdaptation):
                        # The last period, which ran up to this tick, lists them.
                        out.fired[tick - 1] += marks
                        out.status = "no-feasible-adaptation"
                        return out
                    last_handled = (env_key(), chosen)
                    if chosen != current:
                        current = chosen
                        open_period("stability", tick, current)
                else:
                    last_handled = (env_key(), current)
                    switch_tick = tick + config.adaptation_duration
                    pending_fired = marks
                    open_period("adaptation", tick, current)
                out.fired[tick] += marks

        if switch_tick is not None:
            out.adaptation_ticks += 1
        out.active.append(current)
        out.accepted.append(accepted)

    return out


def run_simulation(
    model: Model, trace: EventTrace, config: SimulationConfig
) -> tuple[SimulationTimeline, Metrics]:
    """Replay the trace deterministically and score it against an omniscient rerun.

    Identical inputs always produce identical timelines.  A run halts with
    status "no-feasible-adaptation" (keeping the partial timeline) when no
    switch target survives the constraints.  An invalid model, a config that
    ``config_violations`` rejects or a missing initial value raises DefinitionError;
    a horizon above ``config.cap`` raises SizeLimitError before any tick runs.
    """
    violations = model.violations
    if violations:
        raise DefinitionError("invalid model: " + "; ".join(str(v) for v in violations))
    if model.decision_rule is None or not model.decision_set:
        raise DefinitionError("simulation needs a decision rule and a decision set")
    problems = config_violations(model, config)
    if problems:
        raise DefinitionError(problems[0].message)
    config = replace(
        config,
        constraints=tuple(_canonical(model, c) for c in config.constraints),
        triggers=tuple(_canonical(model, t) for t in config.triggers),
    )
    initial = {
        n: model.monitored_variable(n).domain.canonical(v) for n, v in config.initial_exogenous
    }
    for mv in model.monitored:
        if mv.id not in initial:
            raise DefinitionError(f"no initial value for monitored variable '{mv.id}'")
    start = None if config.initial_spec is None else Specification.from_mapping(
        {p.id: p.domain.canonical(config.initial_spec[p.id]) for p in model.parameters}
    )
    events_by_tick = _bind_events(model, trace, dict(config.change_scope))
    horizon = max(trace.last_tick() + 1, 1) if config.horizon is None else config.horizon
    if horizon > config.cap:
        raise SizeLimitError(f"horizon {horizon} exceeds cap {config.cap}")
    triggers = relax(config.triggers, dict(config.relaxation), model)

    memo: dict = {}
    main = _replay(model, events_by_tick, config, triggers, horizon, initial, start, False, memo)
    omni = _replay(model, events_by_tick, config, triggers, horizon, initial, start, True, memo)

    ran = len(main.active)
    flags = [
        tick < len(omni.accepted) and spec in omni.accepted[tick]
        for tick, spec in enumerate(main.active)
    ]
    starts = [tick for tick in main.opened if tick < ran]
    periods = []
    for start, end in zip(starts, starts[1:] + [ran]):
        kind, spec, instance = main.opened[start]
        ticks = range(start, end)
        periods.append(
            Period(
                kind=kind,
                start=start,
                end=end,
                spec=spec,
                instance=instance,
                fired=tuple(mark for t in ticks for mark in main.fired.get(t, ())),
                ignored=tuple(event for t in ticks for event in main.ignored.get(t, ())),
                optimal=tuple(flags[start:end]),
            )
        )
    timeline = SimulationTimeline(periods=tuple(periods), status=main.status)

    fraction = (sum(flags) / ran) if ran else 0.0
    metrics = Metrics(
        optimal_time_fraction=fraction,
        trigger_count=main.trigger_count,
        adaptation_tick_total=main.adaptation_ticks,
        ignored_event_count=main.ignored_count,
    )
    return timeline, metrics
