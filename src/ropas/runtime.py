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
detectable range is widened to the full domain.  When the running system sees
every event of the trace, that rerun is the observed run, and the trace is
replayed once.

The configuration is checked and set up once per model and configuration,
and each distinct (believed environment, active specification) pair is
solved and checked once per model and re-solve key: the results live on the
model object, where the omniscient rerun and every later run of that model
with an equal configuration, or with the same evolution constraints,
triggers and cap, reuse them.  A run that leaves more than
``MODEL_MEMO_LIMIT`` there, counted by ``_memo_size``, empties it.

``run_simulation`` canonicalizes the configuration (initial values, the
initial specification, value-set trigger values) once per model and
configuration and the trace events once per run, on entry, and every
re-solve, public ones included, canonicalizes the values
of its evolution constraints and value-set triggers.  So every value compared
is canonical, as are the search's candidates, and evaluation goes through the
model's trusted entry ``_evaluated``: a re-solve canonicalizes its exogenous
map a fixed three times (in the search, the trigger filter and the argmax),
not once per candidate, and one evaluation of a specification gives both its
instance and its feasibility.
"""

from __future__ import annotations

from bisect import bisect_right
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
    enumerate_specifications,
    hamming,
    pinned_values,
)
from .solver import Rop, rop

INFEASIBLE_MARKER = "infeasible"

# The most a model's memo keeps between runs, in ``_memo_size``'s units.
MODEL_MEMO_LIMIT = 1 << 12


def _memo_size(memos: dict) -> int:
    """What a model's memo holds: one per configuration's set-up, per
    re-solve memo and per status, and per re-solve one for each specification
    it accepts (at least one), so a model whose re-solves accept large sets
    keeps fewer of them.  It reads copies, since a run in another thread may
    add entries meanwhile."""
    return len(memos) + sum(
        max(len(found[0]), 1) if key[0] == "solve" else 1
        for memo in tuple(memos.values()) if type(memo) is dict
        for key, found in tuple(memo.items())
    )


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
    return mv.detects(event.value)


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
    """Criterion ids of the triggers that fire, sorted; values are compared as given."""
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


# ``c`` (a constraint, a trigger or a specification) with each value as its
# variable's domain holds it, so that it compares equal to the canonical
# specifications, environments and instances.  A value of an undeclared name
# or outside its domain stays as given: it matches nothing, and an unknown
# trigger criterion still raises.
def _canonical(
    model: Model, c: Union[EvolutionConstraint, AwarenessTrigger, Specification]
) -> Union[EvolutionConstraint, AwarenessTrigger, Specification]:
    def canon(name: str, value: Value) -> Value:
        if model.has_variable(name) and model.variable_domain(name).contains(value):
            return model.variable_domain(name).canonical(value)
        return value

    def pairs(items: tuple[tuple[str, Value], ...]) -> tuple[tuple[str, Value], ...]:
        return tuple((name, canon(name, value)) for name, value in items)

    if isinstance(c, Specification):
        return Specification(pairs(c.items))
    if isinstance(c, ForbiddenTransition):
        return ForbiddenTransition(pairs(c.from_values), pairs(c.to_values))
    if isinstance(c, ForbiddenValue):
        unless = c.unless and replace(c.unless, tests=pairs(c.unless.tests))
        return ForbiddenValue(c.parameter, canon(c.parameter, c.value), unless)
    if isinstance(c, AwarenessTrigger) and isinstance(c.tolerable, ValueSetRange):
        values = tuple(canon(c.criterion, value) for value in c.tolerable.values)
        return replace(c, tolerable=ValueSetRange(values))
    return c


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

    A re-solve searches only the decision set and the computed parameters, and
    ``cap`` bounds that product: ``enumerate_specifications`` pins each other
    parameter to its value in ``current`` or, with no current specification, to
    its default (``pinned_values``), as in ``solve_rop``.  A ``current``
    without a value for such a parameter raises an evaluation error, and one
    whose value lies outside the domain leaves no candidate.  Candidates are
    the feasible specifications so pinned that every evolution constraint
    allows; among those, only specifications whose evaluated instance keeps
    every trigger inside its tolerable range are kept, unless no candidate
    does, in which case the constraint-filtered set stands.  Current,
    constraint and trigger values compare canonical: ``0.3`` is ``0.1 * 3``.
    """
    model = problem.model
    current = current and _canonical(model, current)  # type: ignore[assignment]
    exogenous = problem.exogenous_map()
    constraints = [_canonical(model, c) for c in constraints]
    triggers = [_canonical(model, t) for t in triggers]
    feasible = enumerate_specifications(model, exogenous, cap, pinned_values(model, current))
    # The search emits canonical specifications, so each is judged against the
    # canonical exogenous map and evaluated through the trusted entry.
    given = _exogenous_values(model, exogenous)
    allowed = [
        spec
        for spec in feasible
        if all(constraint_allows(c, current, spec, given) for c in constraints)
    ]
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
    # The pool is in canonical order, and ``min`` keeps the first of equals.
    return best, min(best, key=lambda s: hamming(current, s))


def select_adaptation(
    current: Optional[Specification],
    problem: Rop,
    constraints: Sequence[EvolutionConstraint] = (),
    triggers: Sequence[AwarenessTrigger] = (),
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Union[Specification, NoFeasibleAdaptation]:
    """Pick the switch target: best candidate by the decision rule.

    Ties are broken by the fewest parameter changes from the current
    specification, whose values are compared canonical, then by canonical order.
    """
    current = current and _canonical(problem.model, current)  # type: ignore[assignment]
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
    empty trace).  ``cap`` bounds the horizon and each re-solve's search
    space, the product of the decision set and the computed parameters: with
    no computed parameter, the space that ``solve_rop``'s cap bounds.
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
            try:
                if not find(name).domain.contains(value):
                    message = f"{what} value {value!r} outside the domain of '{name}'"
                    bad(subject.format(name), message)
            except KeyError:
                # "initial value for non-monitored variable 'x'", "evolution constraint
                # value for non-parameter 'x'", "unless test value for non-monitored ..."
                bad(subject.format(name), f"{what} value for non-{kind} '{name}'")

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
) -> dict[int, list[tuple[Event, bool, bool]]]:
    """Each tick's canonical events, with whether the observed pass sees each
    and whether the omniscient pass does (its variable is monitored)."""
    by_tick: dict[int, list[tuple[Event, bool, bool]]] = {}
    for event in trace.events:
        try:
            domain = model.monitored_variable(event.variable).domain
        except KeyError:
            if event.variable not in change_scope:
                why = "not monitored" if model.has_variable(event.variable) else (
                    "neither monitored nor declared in the change scope"
                )
                raise DefinitionError(f"event variable '{event.variable}' is {why}")
            domain = change_scope[event.variable]
        if not domain.contains(event.value):
            raise DefinitionError(
                f"event value {event.value!r} outside the domain of '{event.variable}'"
            )
        value = domain.canonical(event.value)
        bound = event if value is event.value else Event(event.tick, event.variable, value)
        entry = (bound, apply_monitoring_scope(model, bound), model.has_variable(event.variable))
        by_tick.setdefault(event.tick, []).append(entry)
    return by_tick


def _replay(
    model: Model, events_by_tick: Mapping[int, list[tuple[Event, bool, bool]]],
    config: SimulationConfig, triggers: tuple[AwarenessTrigger, ...], horizon: int,
    initial: Mapping[str, Value], start: Optional[Specification], full_scope: bool, memo: dict,
) -> _Replay:
    """One pass over the trace; a None ``start`` is solved for at tick 0.

    Only the switch step changes the active specification: the memoized
    re-solve from it, a halt when no target survives, and a stability period
    opened on the target, always at tick 0 and at the end of an adaptation
    period, and at a zero adaptation duration only when the target differs.
    """
    out = _Replay()
    believed = dict(initial)
    current: Optional[Specification] = start
    accepted: tuple[Specification, ...] = () if start is None else (start,)
    # The tick of the next switch (tick 0 to solve for a None ``start``, else
    # the end of an adaptation period), and the marks of the firing it ends.
    switch_tick: Optional[int] = 0 if start is None else None
    pending_fired: tuple[str, ...] = ()
    # Firings are re-handled only when the believed environment or the active
    # specification changed since the last handled firing.  Without this, an
    # environment that no target can bring back in range would be re-solved
    # on every tick and, with a nonzero duration, would oscillate between
    # adaptation periods forever.
    last_handled: Optional[tuple[tuple[tuple[str, Value], ...], Specification]] = None
    # The believed environment's key, made again whenever an event changes it,
    # and the one in which the active specification's status was checked last.
    env = tuple(sorted(believed.items()))
    checked: Optional[tuple] = None

    # ``memo`` holds, per believed environment and specification, the re-solve
    # from that specification and its status (instance, fired triggers and
    # feasibility).  Each is a pure function of that pair for one model and
    # configuration, so both passes and every run sharing those share the memo.
    def recall(kind: str, spec: Optional[Specification], compute):
        key = (kind, env, spec)
        found = memo.get(key)
        if found is None:
            found = memo[key] = compute()
        return found

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

    # The switch step; False when it halts the run.
    def switch(tick: int, always_open: bool) -> bool:
        nonlocal accepted, current, last_handled
        accepted, target = recall("solve", current, lambda: _adaptation_step(
            rop(model, believed), current, config.constraints, triggers, config.cap
        ))
        if isinstance(target, NoFeasibleAdaptation):
            out.status = "no-feasible-adaptation"
            return False
        last_handled = (env, target)
        if always_open or target != current:
            current = target
            open_period("stability", tick, current)
        return True

    for tick in range(horizon):
        seen = False
        for event, observed, omniscient in events_by_tick.get(tick, ()):
            if omniscient if full_scope else observed:
                believed[event.variable] = event.value
                seen = True
            else:
                # The period that ran before the event lists it.
                out.ignored_count += 1
                out.ignored[max(tick - 1, 0)].append(event)
        if seen:
            env = tuple(sorted(believed.items()))

        if tick == 0 and start is not None:
            open_period("stability", tick, start)
        if tick == switch_tick:
            if not switch(tick, True):
                return out
            switch_tick = None
            out.fired[tick] += pending_fired

        if switch_tick is None:
            # A status is a pure function of (env, current), and ``current``
            # changes only in ``switch``, which marks that (environment,
            # specification) pair handled, so a stale status starts no firing:
            # check it again only on a tick where the environment changed.
            if checked != env:
                checked = env
                _, fired, feasible_now = status(current)
            if (fired or not feasible_now) and last_handled != (env, current):
                out.trigger_count += len(fired)
                marks = fired + (() if feasible_now else (INFEASIBLE_MARKER,))
                if config.adaptation_duration:
                    switch_tick = tick + config.adaptation_duration
                    pending_fired = marks
                    open_period("adaptation", tick, current)
                elif not switch(tick, False):
                    # The last period, which ran up to this tick, lists them.
                    out.fired[tick - 1] += marks
                    return out
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
    switch target survives the constraints.  The run is scored against an
    omniscient rerun that sees every event on a monitored variable; when the
    running system already sees every event, that rerun is the observed run
    itself, and the trace is replayed once.  An event at or past the horizon
    is bound and checked, but never applied nor counted as ignored.

    The configuration is checked and set up (canonical initial values and
    start, relaxed triggers) once per model and configuration: the first run
    that passes every check keeps the set-up on the model, keyed by the
    configuration's value, and a later run with an equal configuration goes
    straight to binding its trace.  An unhashable configuration is set up on
    every run.  Each re-solve and status is computed once per model object
    and re-solve key (evolution constraints, relaxed triggers, cap) and kept
    there too, so a later run of that model reuses what an earlier run
    computed.  A run that leaves more than ``MODEL_MEMO_LIMIT`` there, each
    set-up counting one and each re-solve the specifications it accepts
    (``_memo_size``), empties it, so what persists between runs stays under
    that bound; within one run the memo grows as the run needs.

    An invalid model, a config that ``config_violations`` rejects or a missing
    initial value raises DefinitionError on every run; a horizon above
    ``config.cap`` raises SizeLimitError before any tick runs, and a re-solve
    space above it (``adaptation_candidates``) when that re-solve runs.
    """
    memos = model._simulation_memo
    held = len(memos)
    try:
        setup = memos.get(config, ())
    except TypeError:  # an unhashable config (a list value, say): set up, never kept
        setup = None
    # Equal configs of different types (``True`` and ``1``) may differ in validity.
    fresh = not setup or setup[0] is not config and repr(setup[0]) != repr(config)
    if fresh:
        model._compiled  # an invalid model raises its findings here
        if model.decision_rule is None or not model.decision_set:
            raise DefinitionError("simulation needs a decision rule and a decision set")
        problems = config_violations(model, config)
        if problems:
            raise DefinitionError(problems[0].message)
        initial = {
            n: model.monitored_variable(n).domain.canonical(v) for n, v in config.initial_exogenous
        }
        for mv in model.monitored:
            if mv.id not in initial:
                raise DefinitionError(f"no initial value for monitored variable '{mv.id}'")
        # One dict read; as in ``Specification.__getitem__``, the first of two equal names wins.
        given = None if config.initial_spec is None else dict(reversed(config.initial_spec.items))
        start = None if given is None else Specification.from_mapping(
            {p.id: p.domain.canonical(given[p.id]) for p in model.parameters}
        )
        change_scope = dict(config.change_scope)
    else:
        _, initial, start, change_scope, triggers, memo = setup
    events_by_tick = _bind_events(model, trace, change_scope)
    horizon = max(trace.last_tick() + 1, 1) if config.horizon is None else config.horizon
    if horizon > config.cap:
        raise SizeLimitError(f"horizon {horizon} exceeds cap {config.cap}")
    if fresh:
        triggers = relax(
            [_canonical(model, t) for t in config.triggers], dict(config.relaxation), model
        )
        try:
            memo = memos.setdefault((config.constraints, triggers, config.cap), {})
        except TypeError:  # unhashable constraints (a list, say): a memo of this run's own
            memo = {}
        if setup is not None:  # kept only once every check has passed
            memos[config] = (config, initial, start, change_scope, triggers, memo)
    held += len(memo)  # a run that adds nothing leaves the memo's size as it was
    replay = (model, events_by_tick, config, triggers, horizon, initial, start)
    # The omniscient pass differs from the observed one only in the events
    # the running system cannot see; with none, it is the observed pass.
    unseen = any(seen != every for bound in events_by_tick.values() for _, seen, every in bound)
    try:
        main = _replay(*replay, False, memo)
        omni = _replay(*replay, True, memo) if unseen else main
    finally:
        if len(memos) + len(memo) != held and _memo_size(memos) > MODEL_MEMO_LIMIT:
            memos.clear()

    ran = len(main.active)
    # A pass's active specification is always one it accepted, so a run
    # scored against itself is optimal on every tick.
    flags = [True] * ran if omni is main else [
        tick < len(omni.accepted) and spec in omni.accepted[tick]
        for tick, spec in enumerate(main.active)
    ]
    # The marks and ignored events of each period, read only at the ticks that hold some.
    starts = [tick for tick in main.opened if tick < ran]
    fired: list[list[str]] = [[] for _ in starts]
    ignored: list[list[Event]] = [[] for _ in starts]
    for kept, by_tick in ((fired, main.fired), (ignored, main.ignored)):
        for tick in sorted(t for t in by_tick if 0 <= t < ran):
            kept[bisect_right(starts, tick) - 1] += by_tick[tick]
    periods = []
    for at, (start, end) in enumerate(zip(starts, starts[1:] + [ran])):
        kind, spec, instance = main.opened[start]
        periods.append(
            Period(
                kind=kind,
                start=start,
                end=end,
                spec=spec,
                instance=instance,
                fired=tuple(fired[at]),
                ignored=tuple(ignored[at]),
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
