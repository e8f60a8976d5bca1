"""Reference code that only the tests use: the direct reading of a formula
that the compiled formulas are checked against, the renaming of a goal
graph's atoms behind the renaming metamorphic test, and a simulator written
from the ``runtime`` docstrings that ``run_simulation`` is checked against."""

from dataclasses import replace
from itertools import product
from math import prod
from typing import FrozenSet, Mapping, NamedTuple, Optional

from ropas.domains import Value
from ropas.errors import DefinitionError, EvaluationError, SizeLimitError
from ropas.goals import GoalGraph, Refinement
from ropas.model import (
    BoolExpr, Model, Specification, canonical_key, evaluate, hamming, is_feasible, validate_model,
)
from ropas.runtime import (
    AwarenessTrigger, EventTrace, ForbiddenTransition, ForbiddenValue, Metrics,
    SimulationConfig, ValueSetRange, apply_monitoring_scope, check_triggers, config_violations,
    constraint_allows, relax,
)


def eval_expr(expr: BoolExpr, env: Mapping[str, Value]) -> int:
    op = expr[0]
    if op == "var":
        name = expr[1]
        if name not in env:
            raise EvaluationError(f"missing value for variable '{name}'")
        return 1 if env[name] else 0
    if op == "and":
        return 1 if all(eval_expr(c, env) for c in expr[1:]) else 0
    if op == "or":
        return 1 if any(eval_expr(c, env) for c in expr[1:]) else 0
    return 1 - eval_expr(expr[1], env)


def rename(graph: GoalGraph, mapping: Mapping[str, str]) -> GoalGraph:
    """Apply a bijective atom renaming; structure is otherwise untouched."""
    missing = graph.atoms - set(mapping)
    if missing:
        raise DefinitionError(f"renaming misses atoms: {sorted(missing)}")
    image = [mapping[a] for a in graph.atoms]
    if len(set(image)) != len(image):
        raise DefinitionError("renaming is not injective")

    def m(atoms: FrozenSet[str]) -> frozenset[str]:
        return frozenset(mapping[a] for a in atoms)

    return GoalGraph(
        atoms=m(graph.atoms),
        refinements=tuple(
            Refinement(mapping[r.conclusion], m(r.premises)) for r in graph.refinements
        ),
        conflicts=frozenset(m(pair) for pair in graph.conflicts),
        r_atoms=m(graph.r_atoms),
        k_atoms=m(graph.k_atoms),
        s_atoms=m(graph.s_atoms),
        mandatory=m(graph.mandatory),
    )


class ReferenceRun(NamedTuple):
    """What ``reference_simulation`` gives: per tick run, the active
    specification and whether the omniscient pass accepted it; the status;
    and the metrics."""

    active: tuple[Specification, ...]
    optimal: tuple[bool, ...]
    status: str
    metrics: Metrics


def reference_simulation(
    model: Model, trace: EventTrace, config: SimulationConfig
) -> ReferenceRun:
    """A run of the simulator described by the ``runtime`` module and
    ``run_simulation`` docstrings, in the plainest way: every call sets the
    configuration up again, every tick checks the active specification's
    triggers and feasibility through ``evaluate`` and ``is_feasible``, every
    re-solve filters with ``is_feasible`` the cartesian product of the
    parameters it does not pin, and the observed and the omniscient pass are
    always both run.  Nothing is kept between calls."""
    if validate_model(model):
        raise DefinitionError("invalid model")
    if model.decision_rule is None or not model.decision_set:
        raise DefinitionError("simulation needs a decision rule and a decision set")
    problems = config_violations(model, config)
    if problems:
        raise DefinitionError(problems[0].message)
    monitored = {m.id for m in model.monitored}

    def canon(name: str, value: Value) -> Value:
        """A value as its variable's domain holds it: the values of the
        configuration compare canonical.  Others stay as given."""
        if model.has_variable(name) and model.variable_domain(name).contains(value):
            return model.variable_domain(name).canonical(value)
        return value

    def pattern(items):
        return tuple((name, canon(name, value)) for name, value in items)

    initial = {name: canon(name, value) for name, value in config.initial_exogenous}
    if monitored - set(initial):
        raise DefinitionError("a monitored variable has no initial value")
    start = config.initial_spec and Specification.from_mapping(
        {p.id: canon(p.id, config.initial_spec[p.id]) for p in model.parameters}
    )
    scope = dict(config.change_scope)
    events: dict[int, list] = {}
    for event in trace.events:
        domain = scope.get(event.variable)
        if event.variable in monitored:
            domain = model.monitored_variable(event.variable).domain
        if domain is None or not domain.contains(event.value):
            raise DefinitionError(f"event {event} does not fit the model")
        bound = replace(event, value=domain.canonical(event.value))
        events.setdefault(event.tick, []).append(bound)
    horizon = max(trace.last_tick() + 1, 1) if config.horizon is None else config.horizon
    if horizon > config.cap:
        raise SizeLimitError(f"horizon {horizon} exceeds cap {config.cap}")
    def calibrated(trigger: AwarenessTrigger) -> AwarenessTrigger:
        if not isinstance(trigger.tolerable, ValueSetRange):
            return trigger
        values = tuple(canon(trigger.criterion, v) for v in trigger.tolerable.values)
        return AwarenessTrigger(trigger.criterion, ValueSetRange(values))

    triggers = relax([calibrated(t) for t in config.triggers], dict(config.relaxation), model)
    constraints = []
    for c in config.constraints:
        if isinstance(c, ForbiddenTransition):
            c = ForbiddenTransition(pattern(c.from_values), pattern(c.to_values))
        elif isinstance(c, ForbiddenValue):
            unless = c.unless and replace(c.unless, tests=pattern(c.unless.tests))
            c = ForbiddenValue(c.parameter, canon(c.parameter, c.value), unless)
        constraints.append(c)
    rule = model.decision_rule

    def re_solve(believed, current: Optional[Specification]):
        """The accepted set of the re-solve from ``current`` and its target,
        or an empty set and None when no candidate survives."""
        kept = {
            p.id: current[p.id] if current is not None else p.domain.canonical(p.default)
            for p in model.parameters
            if p.id not in model.decision_set and p.id not in model.producers
        }
        # The cap covers what a re-solve varies: every parameter not kept.
        varied = [p for p in model.sorted_parameters if p.id not in kept]
        space = prod(p.domain.size for p in varied)
        if space > config.cap:
            raise SizeLimitError(f"search space {space} exceeds cap {config.cap}")
        specs = (
            Specification.from_mapping({**kept, **{p.id: v for p, v in zip(varied, combo)}})
            for combo in product(*(p.domain.values() for p in varied))
        )
        allowed = [
            spec for spec in specs
            if is_feasible(model, spec, believed)
            and all(constraint_allows(c, current, spec, believed) for c in constraints)
        ]
        instances = [evaluate(model, spec, believed) for spec in allowed]
        calm = [
            (spec, instance) for spec, instance in zip(allowed, instances)
            if not check_triggers(instance, triggers)
        ]
        pool = calm or list(zip(allowed, instances))
        if not pool:
            return (), None
        top = max(instance[rule] for _, instance in pool)
        accepted = tuple(spec for spec, instance in pool if instance[rule] == top)
        return accepted, min(accepted, key=lambda s: (
            0 if current is None else hamming(current, s), canonical_key(model, s)
        ))

    def simulate(omniscient: bool):
        """One pass: the active specifications and accepted sets of the
        ticks run, the status, and the trigger, adaptation-tick and
        ignored-event counts."""
        believed = dict(initial)
        current = start
        accepted = () if start is None else (start,)
        switch_at = 0 if start is None else None  # the tick a re-solve switches
        handled = None  # the (environment, specification) of the last handled firing
        active, accepted_sets = [], []
        fired_count = adapting = ignored = 0
        status = "completed"
        for tick in range(horizon):
            for event in events.get(tick, ()):
                # The omniscient pass sees every event on a monitored variable.
                seen = omniscient and event.variable in monitored
                if seen or apply_monitoring_scope(model, event):
                    believed[event.variable] = event.value
                else:
                    ignored += 1
            environment = tuple(sorted(believed.items()))
            if tick == switch_at:
                switch_at = None
                accepted, target = re_solve(believed, current)
                if target is None:
                    status = "no-feasible-adaptation"
                    break
                current, handled = target, (environment, target)
            if switch_at is None:
                fired = check_triggers(evaluate(model, current, believed), triggers)
                feasible = is_feasible(model, current, believed)
                if (fired or not feasible) and handled != (environment, current):
                    fired_count += len(fired)
                    if config.adaptation_duration:
                        switch_at = tick + config.adaptation_duration
                    else:
                        accepted, target = re_solve(believed, current)
                        if target is None:
                            status = "no-feasible-adaptation"
                            break
                        current, handled = target, (environment, target)
            if switch_at is not None:
                adapting += 1
            active.append(current)
            accepted_sets.append(accepted)
        return active, accepted_sets, status, fired_count, adapting, ignored

    active, _, status, fired_count, adapting, ignored = simulate(False)
    _, omniscient_sets, _, _, _, _ = simulate(True)
    optimal = tuple(
        tick < len(omniscient_sets) and spec in omniscient_sets[tick]
        for tick, spec in enumerate(active)
    )
    fraction = sum(optimal) / len(active) if active else 0.0
    return ReferenceRun(
        tuple(active), optimal, status, Metrics(fraction, fired_count, adapting, ignored)
    )
