"""Monitoring scope, triggers, evolution constraints, and simulation replay."""

import random
import re
from dataclasses import replace

import pytest

from ropas import model as model_module
from ropas import runtime
from ropas.domains import Boolean, Enumerated, IntegerRange, RealGrid
from ropas.errors import DefinitionError, EvaluationError, SizeLimitError
from ropas.formats import ModelBundle, ParseFailure, parse_model, serialize_model
from ropas.model import (
    DEFAULT_ENUMERATION_CAP,
    Criterion,
    LinearConstraint,
    LookupTable,
    Model,
    MonitoredVariable,
    Parameter,
    Specification,
    WeightedSum,
    validate_model,
)
from ropas.runtime import (
    INFEASIBLE_MARKER,
    AwarenessTrigger,
    Event,
    EventTrace,
    ForbiddenTransition,
    ForbiddenValue,
    IntervalRange,
    MaxParameterChanges,
    NoFeasibleAdaptation,
    SimulationConfig,
    UnlessCondition,
    ValueSetRange,
    adaptation_candidates,
    apply_monitoring_scope,
    check_triggers,
    constraint_allows,
    relax,
    run_simulation,
    select_adaptation,
)
from ropas.solver import OptimalSolutions, rop, solve_rop

from genmodels import (
    random_rop,
    random_runtime_pair,
    random_runtime_pinned,
    random_runtime_scenario,
    with_derived_parameter,
)
from reference import ReferenceRun, reference_simulation
from shipped import FIXTURES, alert_spec, load


def broken_call_problem():
    """The alert fixture after the call channel's component has failed."""
    alerts = load("alerts.model")
    exogenous = dict(alerts.config.initial_exogenous)
    exogenous["alert_call_ok"] = 0
    return rop(alerts.model, exogenous)


# ---------------------------------------------------------------------------
# Traces and monitoring scope


def test_trace_rejects_negative_and_decreasing_ticks():
    with pytest.raises(DefinitionError, match="negative tick"):
        EventTrace((Event(-1, "x", 0),))
    with pytest.raises(DefinitionError, match="chronological"):
        EventTrace((Event(3, "x", 0), Event(2, "x", 1)))


def test_trace_last_tick():
    assert EventTrace(()).last_tick() == -1
    assert EventTrace((Event(0, "a", 1), Event(7, "a", 0))).last_tick() == 7


def test_monitoring_scope_full_range_by_default():
    m = load("alerts.model").model
    assert apply_monitoring_scope(m, Event(0, "alert_call_ok", 0))
    assert apply_monitoring_scope(m, Event(0, "demand_shift", -30))


def test_monitoring_scope_restricted_range():
    m = load("shock.model").model
    assert apply_monitoring_scope(m, Event(0, "shock", 0))
    assert not apply_monitoring_scope(m, Event(0, "shock", 1))


def test_monitoring_scope_unknown_variable_or_value():
    m = load("alerts.model").model
    assert not apply_monitoring_scope(m, Event(0, "nothing", 1))
    assert not apply_monitoring_scope(m, Event(0, "demand_shift", 99))


# ---------------------------------------------------------------------------
# Tolerable ranges and triggers


def test_interval_range_edges_are_inclusive():
    r = IntervalRange(45.0, 70.0)
    assert r.contains(45.0) and r.contains(70) and r.contains(50)
    assert not r.contains(44.999) and not r.contains(70.001)
    assert not r.contains("label")


def test_interval_range_unbounded_sides():
    assert IntervalRange(lo=10.0).contains(1e9)
    assert not IntervalRange(lo=10.0).contains(9.0)
    assert IntervalRange(hi=10.0).contains(-1e9)
    assert IntervalRange().contains(0)


def test_value_set_range():
    r = ValueSetRange(("green", "yellow"))
    assert r.contains("green")
    assert not r.contains("red")


def test_check_triggers_reports_sorted_ids():
    alerts = load("alerts.model")
    m = alerts.model
    exogenous = dict(alerts.config.initial_exogenous)
    exogenous["demand_shift"] = -30
    from ropas.model import evaluate

    instance = evaluate(m, alert_spec("email", "cloud"), exogenous)
    fired = check_triggers(instance, alerts.config.triggers)
    assert fired == ("capacity", "coverage")


def test_check_triggers_unknown_criterion():
    from ropas.model import evaluate

    alerts = load("alerts.model")
    exogenous = dict(alerts.config.initial_exogenous)
    instance = evaluate(alerts.model, alert_spec("call", "local"), exogenous)
    with pytest.raises(DefinitionError, match="unknown criterion"):
        check_triggers(instance, (AwarenessTrigger("ghost", IntervalRange(0.0, 1.0)),))


# ---------------------------------------------------------------------------
# Relaxation


def test_relax_widens_finite_edges_only():
    triggers = (
        AwarenessTrigger("capacity", IntervalRange(70.0, 200.0)),
        AwarenessTrigger("coverage", IntervalRange(lo=45.0)),
    )
    widened = relax(triggers, {"capacity": 10.0, "coverage": 5.0}, load("alerts.model").model)
    assert widened[0].tolerable == IntervalRange(60.0, 210.0)
    assert widened[1].tolerable == IntervalRange(lo=40.0)


def test_relax_zero_band_is_identity():
    alerts = load("alerts.model")
    triggers = alerts.config.triggers
    assert relax(triggers, {}, alerts.model) == tuple(triggers)
    assert relax(triggers, {"capacity": 0.0}, alerts.model) == tuple(triggers)


def test_relax_rejects_unknown_criteria():
    alerts = load("alerts.model")
    with pytest.raises(DefinitionError, match="untriggered criteria"):
        relax(alerts.config.triggers, {"ghost": 1.0}, alerts.model)


def test_relax_rejects_negative_band():
    alerts = load("alerts.model")
    with pytest.raises(DefinitionError, match="negative widening"):
        relax(alerts.config.triggers, {"capacity": -1.0}, alerts.model)


@pytest.mark.parametrize("band", (float("nan"), float("inf")))
def test_relax_rejects_a_non_finite_band(band):
    alerts = load("alerts.model")
    with pytest.raises(DefinitionError, match="^widening for 'capacity' is not a finite number$"):
        relax(alerts.config.triggers, {"capacity": band}, alerts.model)


def test_relax_rejects_value_set_ranges():
    triggers = (AwarenessTrigger("capacity", ValueSetRange((80, 85))),)
    with pytest.raises(DefinitionError, match="value-set"):
        relax(triggers, {"capacity": 1.0}, load("alerts.model").model)


def test_relax_rejects_a_non_numeric_criterion():
    labelled = Model(criteria=(Criterion("grade", Enumerated(("lo", "hi"))),))
    triggers = (AwarenessTrigger("grade", IntervalRange(lo=1.0)),)
    with pytest.raises(DefinitionError, match="^criterion 'grade' is not numeric$"):
        relax(triggers, {"grade": 0.5}, labelled)


def test_relax_must_stay_inside_domain_bounds():
    alerts = load("alerts.model")
    triggers = (AwarenessTrigger("coverage", IntervalRange(45.0, None)),)
    with pytest.raises(DefinitionError, match="below its domain minimum"):
        relax(triggers, {"coverage": 100.0}, alerts.model)
    triggers = (AwarenessTrigger("coverage", IntervalRange(None, 240.0)),)
    with pytest.raises(DefinitionError, match="above its domain maximum"):
        relax(triggers, {"coverage": 20.0}, alerts.model)


# ---------------------------------------------------------------------------
# Evolution constraints


def test_forbidden_transition_matches_patterns():
    c = ForbiddenTransition(
        from_values=(("alert_call", 1),), to_values=(("alert_radio", 1),)
    )
    call = alert_spec("call", "local")
    radio = alert_spec("radio", "local")
    push = alert_spec("push", "local")
    assert not constraint_allows(c, call, radio, {})
    assert constraint_allows(c, call, push, {})
    assert constraint_allows(c, push, radio, {})
    assert constraint_allows(c, None, radio, {})


def test_max_parameter_changes():
    c = MaxParameterChanges(1)
    call = alert_spec("call", "local")
    assert constraint_allows(c, call, call, {})
    assert not constraint_allows(c, call, alert_spec("radio", "local"), {})
    assert constraint_allows(MaxParameterChanges(2), call, alert_spec("radio", "local"), {})
    assert constraint_allows(c, None, alert_spec("radio", "local"), {})


def test_forbidden_value_with_unless_condition():
    unless = UnlessCondition(
        tests=(("alert_sms_ok", 0), ("alert_email_ok", 0)), comparator=">=", bound=1
    )
    c = ForbiddenValue("alert_radio", 1, unless)
    radio = alert_spec("radio", "local")
    push = alert_spec("push", "local")
    assert constraint_allows(c, None, push, {})
    assert not constraint_allows(c, None, radio, {"alert_sms_ok": 1, "alert_email_ok": 1})
    assert constraint_allows(c, None, radio, {"alert_sms_ok": 0, "alert_email_ok": 1})
    hard = ForbiddenValue("alert_radio", 1)
    assert not constraint_allows(hard, None, radio, {"alert_sms_ok": 0})


def grid_model():
    """``u = p`` over ``p`` in 0, 0.1, ..., 1 capped at 0.3, beside a grid monitor ``m``."""
    return Model(
        criteria=(Criterion("u", RealGrid(0.0, 1.0, 0.1), "utility", "higher-better"),),
        parameters=(Parameter("p", RealGrid(0.0, 1.0, 0.1)),),
        monitored=(MonitoredVariable("m", RealGrid(0.0, 1.0, 0.1)),),
        depends=(
            WeightedSum("u_total", "u", ("p",), (1.0,)),
            LinearConstraint("cap", ("p",), (1.0,), "<=", 0.3),
        ),
        decision_rule="u",
        decision_set=("p",),
    )


def grid_choice(constraint, start=None):
    """The ``p`` that ``grid_model`` runs at tick 0 with ``m=0.3``: solved for,
    or re-solved from ``p=start`` after a trigger that always fires."""
    config = SimulationConfig(constraints=(constraint,), initial_exogenous=(("m", 0.3),))
    if start is not None:
        always = AwarenessTrigger("u", IntervalRange(lo=0.5))
        spec = Specification.from_mapping({"p": start})
        config = replace(config, initial_spec=spec, triggers=(always,))
    timeline, _ = run_simulation(grid_model(), EventTrace(()), config)
    return timeline.periods[0].spec["p"]


def test_evolution_constraints_compare_real_grid_values_canonically():
    grid = RealGrid(0.0, 1.0, 0.1)
    # The grid holds 0.3 as 0.1 * 3 == 0.30000000000000004.
    p3, p2 = grid.canonical(0.3), grid.canonical(0.2)
    assert p3 != 0.3
    assert grid_choice(MaxParameterChanges(1)) == p3
    assert grid_choice(ForbiddenValue("p", 0.3)) == p2
    assert grid_choice(MaxParameterChanges(9), start=0.0) == p3
    assert grid_choice(ForbiddenTransition((("p", 0.0),), (("p", 0.3),)), start=0.0) == p2
    held = UnlessCondition((("m", 0.3),), ">=", 1)
    assert grid_choice(ForbiddenValue("p", 0.3, held)) == p3
    unheld = UnlessCondition((("m", 0.3),), "==", 0)
    assert grid_choice(ForbiddenValue("p", 0.3, unheld)) == p2


def test_unless_condition_comparators():
    tests = (("a", 1), ("b", 1))
    assert UnlessCondition(tests, "==", 1).holds({"a": 1, "b": 0})
    assert not UnlessCondition(tests, "==", 1).holds({"a": 1, "b": 1})
    assert UnlessCondition(tests, "<=", 1).holds({"a": 0, "b": 1})
    assert UnlessCondition(tests, ">=", 2).holds({"a": 1, "b": 1})


# ---------------------------------------------------------------------------
# Adaptation target selection


def test_candidates_prefer_trigger_calming_targets():
    problem = broken_call_problem()
    pool = adaptation_candidates(
        problem, alert_spec("call", "local"), triggers=load("alerts.model").config.triggers
    )
    named = [(s["alert_radio"], s["alert_push"], s["store_local"]) for s in pool]
    assert len(pool) == 2
    assert named == [(1, 0, 1), (0, 1, 1)]


def test_candidates_fall_back_when_nothing_calms():
    alerts = load("alerts.model")
    exogenous = dict(alerts.config.initial_exogenous)
    exogenous["demand_shift"] = -30
    problem = rop(alerts.model, exogenous)
    pool = adaptation_candidates(
        problem, alert_spec("radio", "local"), triggers=alerts.config.triggers
    )
    assert len(pool) == 20


def test_a_forbidden_value_outside_its_domain_forbids_nothing():
    problem = broken_call_problem()
    current = alert_spec("call", "local")
    triggers = load("alerts.model").config.triggers
    pool = adaptation_candidates(problem, current, triggers=triggers)
    for value in (7, "yes"):
        forbidden = (ForbiddenValue("alert_radio", value),)
        assert adaptation_candidates(problem, current, forbidden, triggers) == pool


def test_select_adaptation_picks_best_calming_target():
    problem = broken_call_problem()
    chosen = select_adaptation(
        alert_spec("call", "local"), problem, triggers=load("alerts.model").config.triggers
    )
    assert isinstance(chosen, Specification)
    assert chosen == alert_spec("radio", "local")


def test_select_adaptation_respects_change_budget():
    problem = broken_call_problem()
    chosen = select_adaptation(
        alert_spec("call", "local"),
        problem,
        constraints=(MaxParameterChanges(1),),
        triggers=load("alerts.model").config.triggers,
    )
    assert isinstance(chosen, NoFeasibleAdaptation)
    assert chosen.reason


def test_select_adaptation_respects_forbidden_values_and_transitions():
    alerts = load("alerts.model")
    problem = broken_call_problem()
    current = alert_spec("call", "local")
    chosen = select_adaptation(
        current, problem, constraints=(ForbiddenValue("alert_radio", 1),),
        triggers=alerts.config.triggers,
    )
    assert chosen == alert_spec("push", "local")
    chosen = select_adaptation(
        current,
        problem,
        constraints=(
            ForbiddenTransition((("alert_call", 1),), (("alert_radio", 1),)),
        ),
        triggers=alerts.config.triggers,
    )
    assert chosen == alert_spec("push", "local")


def test_select_adaptation_breaks_ties_by_fewest_changes():
    entries = (((0, 0), 0), ((0, 1), 5), ((1, 0), 5), ((1, 1), 0))
    m = Model(
        criteria=(
            Criterion("score", IntegerRange(0, 5), "utility", "higher-better"),
        ),
        parameters=(Parameter("x", Boolean()), Parameter("y", Boolean())),
        depends=(LookupTable("score_def", "score", ("x", "y"), entries),),
        decision_rule="score",
        decision_set=("x", "y"),
    )
    assert validate_model(m) == []
    problem = rop(m)
    keep_10 = select_adaptation(Specification.from_mapping({"x": 1, "y": 0}), problem)
    assert keep_10.as_dict() == {"x": 1, "y": 0}
    keep_01 = select_adaptation(Specification.from_mapping({"x": 0, "y": 1}), problem)
    assert keep_01.as_dict() == {"x": 0, "y": 1}
    fresh = select_adaptation(None, problem)
    assert fresh.as_dict() == {"x": 0, "y": 1}


class CountedRange(IntegerRange):
    """An integer range that counts the values it canonicalizes."""

    calls = 0

    def canonical(self, value):
        CountedRange.calls += 1
        return super().canonical(value)


def test_a_re_solve_canonicalizes_its_exogenous_map_a_fixed_number_of_times():
    counts = []
    for size in (3, 4):
        params = tuple(Parameter(f"p{i}", Boolean()) for i in range(size))
        ids = tuple(p.id for p in params) + ("m",)
        model = Model(
            criteria=(Criterion("goal", IntegerRange(-20, 20), "utility", "higher-better"),),
            parameters=params,
            monitored=(MonitoredVariable("m", CountedRange(0, 3)),),
            depends=(WeightedSum("def_goal", "goal", ids, (1.0,) * len(ids)),),
            decision_rule="goal",
            decision_set=tuple(p.id for p in params),
        )
        problem = rop(model, {"m": 1})
        CountedRange.calls = 0
        assert len(adaptation_candidates(problem, None)) == 2**size >= 8
        candidates = CountedRange.calls
        CountedRange.calls = 0
        select_adaptation(None, problem)
        counts.append((candidates, CountedRange.calls))
    # The same for 8 candidates as for 16, and fewer than one per candidate.
    assert counts[0] == counts[1]
    assert max(counts[0]) < 8


# ---------------------------------------------------------------------------
# Simulation replay


def test_component_failure_switches_inline_with_duration_zero():
    alerts = load("alerts.model")
    timeline, metrics = run_simulation(
        alerts.model, load("alerts_failure.trace"), alerts.config
    )
    assert timeline.status == "completed"
    assert len(timeline.periods) == 2
    first, second = timeline.periods
    assert (first.kind, first.start, first.end) == ("stability", 0, 2)
    assert first.spec == alert_spec("call", "local")
    assert (second.kind, second.start, second.end) == ("stability", 2, 6)
    assert second.spec == alert_spec("radio", "local")
    assert second.fired == (INFEASIBLE_MARKER,)
    assert metrics.optimal_time_fraction == 1.0
    assert metrics.trigger_count == 0
    assert metrics.adaptation_tick_total == 0
    assert metrics.ignored_event_count == 0


def test_component_failure_with_adaptation_period():
    alerts = load("alerts.model")
    config = replace(alerts.config, adaptation_duration=2)
    timeline, metrics = run_simulation(alerts.model, load("alerts_failure.trace"), config)
    assert [p.kind for p in timeline.periods] == ["stability", "adaptation", "stability"]
    stable, adapting, recovered = timeline.periods
    assert (adapting.start, adapting.end) == (2, 4)
    assert adapting.spec == alert_spec("call", "local")
    assert adapting.fired == (INFEASIBLE_MARKER,)
    assert (recovered.start, recovered.end) == (4, 6)
    assert recovered.spec == alert_spec("radio", "local")
    assert recovered.fired == (INFEASIBLE_MARKER,)
    assert metrics.adaptation_tick_total == 2
    assert metrics.optimal_time_fraction == 1.0


def test_trigger_firing_counts_and_environment_suppression():
    alerts = load("alerts.model")
    config = SimulationConfig(
        adaptation_duration=0,
        triggers=alerts.config.triggers,
        initial_exogenous=alerts.config.initial_exogenous,
        horizon=5,
    )
    trace = EventTrace((Event(1, "demand_shift", -30), Event(3, "demand_shift", -29)))
    timeline, metrics = run_simulation(alerts.model, trace, config)
    assert timeline.status == "completed"
    assert len(timeline.periods) == 1
    period = timeline.periods[0]
    assert period.spec == alert_spec("radio", "local")
    assert period.fired == ("coverage", "coverage")
    assert metrics.trigger_count == 2
    assert metrics.optimal_time_fraction == 1.0


def test_trigger_switch_opens_a_new_period():
    alerts = load("alerts.model")
    config = SimulationConfig(
        adaptation_duration=0,
        triggers=alerts.config.triggers,
        initial_exogenous=alerts.config.initial_exogenous,
        initial_spec=alert_spec("call", "local"),
        horizon=4,
    )
    trace = EventTrace((Event(2, "demand_shift", -20),))
    timeline, metrics = run_simulation(alerts.model, trace, config)
    assert [p.kind for p in timeline.periods] == ["stability", "stability"]
    before, after = timeline.periods
    assert before.spec == alert_spec("call", "local")
    assert after.spec == alert_spec("radio", "local")
    assert after.start == 2
    assert after.fired == ("coverage",)
    assert metrics.trigger_count == 1


def test_relaxation_prevents_the_firing():
    alerts = load("alerts.model")
    config = SimulationConfig(
        adaptation_duration=0,
        triggers=alerts.config.triggers,
        relaxation=(("coverage", 20.0),),
        initial_exogenous=alerts.config.initial_exogenous,
        initial_spec=alert_spec("call", "local"),
        horizon=4,
    )
    trace = EventTrace((Event(2, "demand_shift", -10),))
    timeline, metrics = run_simulation(alerts.model, trace, config)
    assert len(timeline.periods) == 1
    assert timeline.periods[0].spec == alert_spec("call", "local")
    assert metrics.trigger_count == 0


def test_halt_when_no_adaptation_target_survives():
    alerts = load("alerts.model")
    config = alerts.config
    config = SimulationConfig(
        adaptation_duration=0,
        triggers=config.triggers,
        constraints=(MaxParameterChanges(1),),
        initial_exogenous=config.initial_exogenous,
        initial_spec=config.initial_spec,
        horizon=config.horizon,
    )
    timeline, metrics = run_simulation(alerts.model, load("alerts_failure.trace"), config)
    assert timeline.status == "no-feasible-adaptation"
    assert len(timeline.periods) == 1
    assert timeline.periods[0].end == 2
    assert INFEASIBLE_MARKER in timeline.periods[0].fired
    assert metrics.optimal_time_fraction == 1.0


def test_halt_at_the_end_of_an_adaptation_period():
    alerts = load("alerts.model")
    base = alerts.config
    config = SimulationConfig(
        adaptation_duration=2,
        triggers=base.triggers,
        constraints=(MaxParameterChanges(1),),
        initial_exogenous=base.initial_exogenous,
        initial_spec=base.initial_spec,
        horizon=base.horizon,
    )
    timeline, metrics = run_simulation(alerts.model, load("alerts_failure.trace"), config)
    assert timeline.status == "no-feasible-adaptation"
    assert [p.kind for p in timeline.periods] == ["stability", "adaptation"]
    assert (timeline.periods[1].start, timeline.periods[1].end) == (2, 4)
    assert metrics.adaptation_tick_total == 2


def test_undetectable_events_are_ignored_but_scored():
    shock = load("shock.model")
    timeline, metrics = run_simulation(shock.model, load("shock.trace"), shock.config)
    assert timeline.status == "completed"
    assert len(timeline.periods) == 1
    period = timeline.periods[0]
    assert period.spec.as_dict() == {"mode_a": 0, "mode_b": 1}
    assert [e.variable for e in period.ignored] == ["power_grid", "shock"]
    assert period.optimal == (True, True, False, False)
    assert metrics.ignored_event_count == 2
    assert metrics.optimal_time_fraction == 0.5
    assert metrics.trigger_count == 0


def test_default_horizon_is_one_past_the_last_event():
    alerts = load("alerts.model")
    config = SimulationConfig(
        initial_exogenous=alerts.config.initial_exogenous,
        initial_spec=alert_spec("call", "local"),
    )
    trace = EventTrace((Event(2, "demand_shift", 5),))
    timeline, _ = run_simulation(alerts.model, trace, config)
    assert timeline.periods[-1].end == 3
    timeline, _ = run_simulation(alerts.model, EventTrace(()), config)
    assert timeline.periods[-1].end == 1


def test_event_binding_errors():
    alerts = load("alerts.model")
    config = alerts.config
    with pytest.raises(DefinitionError, match="neither monitored"):
        run_simulation(alerts.model, EventTrace((Event(0, "ghost", 1),)), config)
    with pytest.raises(DefinitionError, match="is not monitored"):
        run_simulation(alerts.model, EventTrace((Event(0, "alert_sms", 1),)), config)
    with pytest.raises(DefinitionError, match="outside the domain"):
        run_simulation(
            alerts.model, EventTrace((Event(0, "demand_shift", 99),)), config
        )


def test_simulation_requires_initial_monitored_values():
    config = SimulationConfig(initial_spec=alert_spec("call", "local"))
    with pytest.raises(DefinitionError, match="no initial value"):
        run_simulation(load("alerts.model").model, EventTrace(()), config)


def test_simulation_rejects_bad_configs():
    alerts = load("alerts.model")
    config = SimulationConfig(
        adaptation_duration=-1,
        initial_exogenous=alerts.config.initial_exogenous,
    )
    with pytest.raises(DefinitionError, match="nonnegative"):
        run_simulation(alerts.model, EventTrace(()), config)
    partial = Specification.from_mapping({"alert_sms": 1})
    config = SimulationConfig(
        initial_exogenous=alerts.config.initial_exogenous,
        initial_spec=partial,
    )
    missing = sorted(p.id for p in alerts.model.parameters if p.id != "alert_sms")
    message = f"initial-spec must assign exactly the parameters (missing {missing}, extra [])"
    with pytest.raises(DefinitionError, match=f"^{re.escape(message)}$"):
        run_simulation(alerts.model, EventTrace(()), config)


def test_simulation_rejects_a_horizon_below_one():
    alerts = load("alerts.model")
    for horizon in (0, -2):
        config = replace(alerts.config, horizon=horizon)
        with pytest.raises(DefinitionError, match="^horizon must be at least 1$"):
            run_simulation(alerts.model, EventTrace(()), config)


def test_simulation_rejects_an_undeclared_initial_variable():
    alerts = load("alerts.model")
    config = alerts.config
    config = replace(config, initial_exogenous=config.initial_exogenous + (("ghost", 1),))
    with pytest.raises(
        DefinitionError, match="^initial value for non-monitored variable 'ghost'$"
    ):
        run_simulation(alerts.model, EventTrace(()), config)


def _bad_alert_configs():
    """(config, message, head of the record a model file reports it at, or
    None for a library-only case), one fault each, on the alert fixture."""
    alerts = load("alerts.model")
    base = alerts.config
    spec = alert_spec("call", "local").as_dict()
    exogenous = dict(alerts.config.initial_exogenous)
    ghost = AwarenessTrigger("ghost", IntervalRange(0.0, None))

    def evolution(constraint):
        return replace(base, constraints=(constraint,))

    return [
        (replace(base, initial_exogenous=base.initial_exogenous + (("capacity", 1),)),
         "initial value for non-monitored variable 'capacity'", "initial "),
        (replace(base, initial_exogenous=tuple(sorted({**exogenous, "alert_call_ok": 5}.items()))),
         "initial value 5 outside the domain of 'alert_call_ok'", "initial "),
        (replace(base, initial_spec=Specification.from_mapping({**spec, "bogus": 1})),
         "initial-spec must assign exactly the parameters (missing [], extra ['bogus'])",
         "initial-spec "),
        (replace(base, initial_spec=Specification.from_mapping({**spec, "alert_call": 7})),
         "initial-spec value 7 outside the domain of 'alert_call'", "initial-spec "),
        (replace(base, change_scope=(("alert_sms", Boolean()),)),
         "change-scope variable 'alert_sms' is already in the model", "change-scope "),
        (replace(base, triggers=base.triggers + (ghost,)),
         "trigger watches unknown criterion 'ghost'", "trigger ghost "),
        (replace(base, triggers=base.triggers + (ghost,), relaxation=(("ghost", 1.0),)),
         "trigger watches unknown criterion 'ghost'", None),
        (replace(base, adaptation_duration=-1),
         "adaptation duration must be nonnegative", "duration "),
        (replace(base, horizon=0), "horizon must be at least 1", "horizon "),
        (evolution(MaxParameterChanges(-1)), "max-changes must be nonnegative", "max-changes "),
        (evolution(ForbiddenValue("nope", 1)),
         "evolution constraint value for non-parameter 'nope'", "forbid-value "),
        (evolution(ForbiddenValue("alert_sms", 7)),
         "evolution constraint value 7 outside the domain of 'alert_sms'", "forbid-value "),
        (evolution(ForbiddenTransition((("alert_sms", 1),), (("capacity", 0),))),
         "evolution constraint value for non-parameter 'capacity'", "forbid-transition "),
        (evolution(ForbiddenValue("alert_sms", 1, UnlessCondition((("capacity", 1),), ">=", 1))),
         "unless test value for non-monitored variable 'capacity'", "forbid-value "),
        (evolution(ForbiddenValue("alert_sms", 1, UnlessCondition((("demand_shift", 99),), ">=", 1))),
         "unless test value 99 outside the domain of 'demand_shift'", "forbid-value "),
        (replace(base, triggers=(AwarenessTrigger("capacity", ValueSetRange((85, 301))),)),
         "trigger value 301 outside the domain of 'capacity'", "trigger capacity "),
    ]


@pytest.mark.parametrize("config, message, head", _bad_alert_configs())
def test_simulation_and_parser_reject_a_bad_config_alike(config, message, head):
    alerts = load("alerts.model")
    with pytest.raises(DefinitionError) as info:
        run_simulation(alerts.model, EventTrace(()), config)
    assert str(info.value) == message
    if head is None:
        return
    text = serialize_model(ModelBundle(alerts.model, config))
    line = next(n for n, record in enumerate(text.splitlines(), 1) if record.startswith(head))
    with pytest.raises(ParseFailure) as parsed:
        parse_model(text)
    assert [(i.kind, i.line, i.message) for i in parsed.value.issues] == [
        ("semantic", line, message)
    ]


def test_simulation_rejects_invalid_models():
    bad = Model(
        criteria=(Criterion("score", Boolean(), "utility"),),
        parameters=(Parameter("x", Boolean()),),
        decision_rule="score",
        decision_set=("x",),
    )
    with pytest.raises(DefinitionError, match="invalid model"):
        run_simulation(bad, EventTrace(()), SimulationConfig())


def test_simulation_needs_a_decision_rule_and_a_decision_set():
    alerts = load("alerts.model")
    for model in (
        replace(alerts.model, decision_rule=None),
        replace(alerts.model, decision_set=()),
    ):
        with pytest.raises(
            DefinitionError, match="^simulation needs a decision rule and a decision set$"
        ):
            run_simulation(model, EventTrace(()), alerts.config)


def test_simulation_cap_limits_the_solver():
    alerts = load("alerts.model")
    config = alerts.config
    config = SimulationConfig(
        adaptation_duration=0,
        triggers=config.triggers,
        initial_exogenous=config.initial_exogenous,
        horizon=2,
        cap=100,
    )
    with pytest.raises(SizeLimitError):
        run_simulation(alerts.model, EventTrace(()), config)


def test_a_horizon_above_the_cap_raises_before_any_tick(monkeypatch):
    def replay(*args):
        raise AssertionError("a tick ran")

    monkeypatch.setattr(runtime, "_replay", replay)
    alerts = load("alerts.model")
    late = EventTrace((Event(1024, "alert_call_ok", 0),))
    for trace, horizon, ticks in ((EventTrace(()), 10**12, 10**12), (late, None, 1025)):
        config = replace(alerts.config, horizon=horizon, cap=1024)
        with pytest.raises(SizeLimitError, match=f"^horizon {ticks} exceeds cap 1024$"):
            run_simulation(alerts.model, trace, config)


def test_a_value_set_trigger_compares_canonical_values():
    """``0.1 * 3`` is the grid point 0.30000000000000004, which the set's 0.3 names."""
    model = Model(
        criteria=(Criterion("c", RealGrid(0.0, 1.0, 0.1), "utility", "higher-better"),),
        parameters=(Parameter("p", IntegerRange(0, 10), 0),),
        depends=(WeightedSum("cdef", "c", ("p",), (0.1,)),),
        decision_rule="c",
        decision_set=("p",),
    )
    config = SimulationConfig(
        triggers=(AwarenessTrigger("c", ValueSetRange((0.3,))),),
        initial_spec=Specification.from_mapping({"p": 3}),
        horizon=2,
    )
    timeline, metrics = run_simulation(model, EventTrace(()), config)
    assert [(period.spec["p"], period.fired) for period in timeline.periods] == [(3, ())]
    assert metrics.trigger_count == 0
    # The public re-solve canonicalizes the set too: only p=3 keeps it calm.
    pool = adaptation_candidates(rop(model), None, triggers=config.triggers)
    assert pool == (Specification.from_mapping({"p": 3}),)


def test_the_public_re_solve_compares_canonical_constraint_values():
    """``0.3`` forbids the grid point ``0.1 * 3``, so the best allowed is 0.2."""
    model = Model(
        criteria=(Criterion("u", RealGrid(0.0, 1.0, 0.1), "utility", "higher-better"),),
        parameters=(Parameter("q", RealGrid(0.0, 1.0, 0.1), 0.0),),
        depends=(
            WeightedSum("udef", "u", ("q",), (1.0,)),
            LinearConstraint("cap", ("q",), (1.0,), "<=", 0.3),
        ),
        decision_rule="u",
        decision_set=("q",),
    )
    chosen = select_adaptation(None, rop(model), constraints=(ForbiddenValue("q", 0.3),))
    assert chosen == Specification.from_mapping({"q": 0.2})


def test_the_public_re_solve_reads_the_current_specification_canonical():
    """``current`` may name the grid point ``0.1 * 3`` as ``0.3``: q outside
    the decision set is pinned to that point, and a transition from it is
    matched."""
    model = Model(
        criteria=(Criterion("u", IntegerRange(0, 3), "utility", "higher-better"),),
        parameters=(
            Parameter("p", IntegerRange(0, 3)),
            Parameter("q", RealGrid(0.0, 1.0, 0.1), 0.0),
        ),
        depends=(WeightedSum("udef", "u", ("p",), (1.0,)),),
        decision_rule="u",
        decision_set=("p",),
    )
    point = 0.1 * 3
    expected = tuple(Specification.from_mapping({"p": p, "q": point}) for p in range(4))
    no_three = (ForbiddenTransition((("q", point),), (("p", 3),)),)
    for q in (0.3, point):
        current = Specification.from_mapping({"p": 0, "q": q})
        assert adaptation_candidates(rop(model), current) == expected, q
        assert select_adaptation(current, rop(model)) == expected[3], q
        assert select_adaptation(current, rop(model), no_three) == expected[2], q
    # Every r ties, so the fewest changes from ``r=0.3`` keep the point 0.1 * 3.
    ties = replace(
        model,
        parameters=(Parameter("r", RealGrid(0.0, 1.0, 0.1)),),
        depends=(WeightedSum("udef", "u", ("r",), (0.0,)),),
        decision_set=("r",),
    )
    chosen = select_adaptation(Specification.from_mapping({"r": 0.3}), rop(ties))
    assert chosen == Specification.from_mapping({"r": point})


# ---------------------------------------------------------------------------
# The decision set


def decision_set_model(q_default=0, q_weight=5.0):
    """``u = p + q_weight * q`` with only ``p`` in the decision set."""
    return Model(
        criteria=(Criterion("u", IntegerRange(-5, 6), "utility", "higher-better"),),
        parameters=(Parameter("p", Boolean(), 0), Parameter("q", Boolean(), q_default)),
        depends=(WeightedSum("u_total", "u", ("p", "q"), (1.0, q_weight)),),
        decision_rule="u",
        decision_set=("p",),
    )


def test_initial_solve_keeps_a_non_decision_parameter_at_its_default():
    model = decision_set_model()
    timeline, metrics = run_simulation(model, EventTrace(()), SimulationConfig())
    assert timeline.periods[0].spec.as_dict() == {"p": 1, "q": 0}
    assert metrics.optimal_time_fraction == 1.0
    best = solve_rop(rop(model))
    assert best.optima == (timeline.periods[0].spec,)


def test_resolve_keeps_a_non_decision_parameter_of_the_active_spec():
    # q=1 costs 5, so a search over q would drop it; the re-solve may not.
    model = decision_set_model(q_weight=-5.0)
    current = Specification.from_mapping({"p": 0, "q": 1})
    triggers = (AwarenessTrigger("u", IntervalRange(lo=-4)),)
    config = SimulationConfig(triggers=triggers, initial_spec=current)
    timeline, metrics = run_simulation(model, EventTrace(()), config)
    assert [p.spec.as_dict() for p in timeline.periods] == [{"p": 1, "q": 1}]
    assert timeline.periods[0].fired == ("u",)
    assert metrics.trigger_count == 1
    target = select_adaptation(current, rop(model), triggers=triggers)
    assert target == Specification.from_mapping({"p": 1, "q": 1})


def test_resolve_without_a_default_fails_like_solve_rop():
    model = decision_set_model(q_default=None)
    with pytest.raises(EvaluationError) as solved:
        solve_rop(rop(model))
    with pytest.raises(EvaluationError) as simulated:
        run_simulation(model, EventTrace(()), SimulationConfig())
    assert str(simulated.value) == str(solved.value)
    assert "'q' outside the decision set has no default" in str(solved.value)


def wide_model(q_size):
    """``u = p`` over the decision set ``p`` (0 to 10), beside a
    non-decision ``q`` of ``q_size`` values that defaults to 0."""
    return Model(
        criteria=(Criterion("u", IntegerRange(0, 10), "utility", "higher-better"),),
        parameters=(
            Parameter("p", IntegerRange(0, 10), 0),
            Parameter("q", IntegerRange(0, q_size - 1), 0),
        ),
        depends=(WeightedSum("def_u", "u", ("p",), (1.0,)),),
        decision_rule="u",
        decision_set=("p",),
    )


def test_a_re_solve_visits_only_the_decision_set_leaves(monkeypatch):
    leaves = []
    search = model_module.search_specifications

    def counted(model, pinned, exogenous, visit):
        def leaf(spec, env):
            leaves.append(spec)
            assert len(leaves) <= 11, "a re-solve varied a parameter outside the decision set"
            return visit(spec, env)
        return search(model, pinned, exogenous, leaf)

    monkeypatch.setattr(model_module, "search_specifications", counted)
    timeline, _ = run_simulation(wide_model(10**6), EventTrace(()), SimulationConfig(horizon=2))
    assert [p.spec.as_dict() for p in timeline.periods] == [{"p": 10, "q": 0}]
    assert len(leaves) == 11


def test_a_model_wider_than_the_cap_simulates_when_its_decision_set_fits():
    model, trace = wide_model(DEFAULT_ENUMERATION_CAP), EventTrace(())
    config = SimulationConfig(horizon=2)
    timeline, metrics = run_simulation(model, trace, config)
    assert [p.spec.as_dict() for p in timeline.periods] == [{"p": 10, "q": 0}]
    assert metrics.optimal_time_fraction == 1.0
    expected = reference_outcome(reference_simulation, model, trace, config)
    assert reference_outcome(run_simulation, model, trace, config) == expected


def test_the_public_re_solve_finds_no_target_from_a_pin_outside_its_domain():
    problem = rop(wide_model(4))
    current = Specification.from_mapping({"p": 0, "q": 7})
    assert adaptation_candidates(problem, current) == ()
    assert select_adaptation(current, problem) == NoFeasibleAdaptation()


def test_the_public_re_solve_names_a_parameter_missing_from_the_current_spec():
    problem = rop(wide_model(4))
    current = Specification.from_mapping({"p": 0})
    message = "^specification misses parameter 'q'$"
    with pytest.raises(EvaluationError, match=message):
        adaptation_candidates(problem, current)
    with pytest.raises(EvaluationError, match=message):
        select_adaptation(current, problem)


def test_the_tick_zero_accepted_set_is_the_set_of_optima(monkeypatch):
    """No initial specification, trigger or evolution constraint: the first
    re-solve accepts exactly ``solve_rop``'s optima, pins included."""
    accepted = []
    step = runtime._adaptation_step

    def recorded(problem, current, *args):
        found = step(problem, current, *args)
        if current is None:
            accepted.append(found[0])
        return found

    monkeypatch.setattr(runtime, "_adaptation_step", recorded)
    pinned = 0
    for seed in range(200):
        rng = random.Random(seed)
        problem = random_rop(rng)
        if seed % 2:
            problem = with_derived_parameter(rng, problem)
        model = problem.model
        pinned += any(
            p.id not in model.decision_set and p.id not in model.producers
            for p in model.parameters
        )
        config = SimulationConfig(initial_exogenous=problem.exogenous)
        accepted.clear()
        solved = outcome(model, EventTrace(()), config)
        result = solve_rop(problem)
        optima = result.optima if isinstance(result, OptimalSolutions) else ()
        assert accepted == [optima], seed
        if optima:
            assert solved[0].periods[0].spec == optima[0], seed
    assert pinned >= 50, pinned


# ---------------------------------------------------------------------------
# Period attribution


def alert_run(events, horizon, adaptation_duration=0, constraints=()):
    """The alert fixture from call+local, with ``power_grid`` in the change scope."""
    alerts = load("alerts.model")
    config = SimulationConfig(
        adaptation_duration=adaptation_duration,
        triggers=alerts.config.triggers,
        constraints=constraints,
        initial_exogenous=alerts.config.initial_exogenous,
        initial_spec=alert_spec("call", "local"),
        horizon=horizon,
        change_scope=(("power_grid", Boolean()),),
    )
    return run_simulation(alerts.model, EventTrace(tuple(events)), config)


def spans(timeline):
    return [(p.kind, p.start, p.end) for p in timeline.periods]


FAIL_AT_0 = (Event(0, "alert_call_ok", 0), Event(0, "power_grid", 1))


def test_tick_zero_switch_replaces_the_opening_period():
    timeline, metrics = alert_run(FAIL_AT_0, horizon=4)
    assert spans(timeline) == [("stability", 0, 4)]
    (period,) = timeline.periods
    assert period.spec == alert_spec("radio", "local")
    assert period.fired == (INFEASIBLE_MARKER,)
    assert period.ignored == (Event(0, "power_grid", 1),)
    assert period.optimal == (True,) * 4
    assert metrics.ignored_event_count == 1


def test_tick_zero_adaptation_replaces_the_opening_period():
    timeline, _ = alert_run(FAIL_AT_0, horizon=4, adaptation_duration=2)
    assert spans(timeline) == [("adaptation", 0, 2), ("stability", 2, 4)]
    adapting, recovered = timeline.periods
    assert adapting.spec == alert_spec("call", "local")
    assert recovered.spec == alert_spec("radio", "local")
    assert adapting.fired == recovered.fired == (INFEASIBLE_MARKER,)
    assert adapting.ignored == (Event(0, "power_grid", 1),)
    assert recovered.ignored == ()


SWITCH_AT_2 = (
    Event(0, "power_grid", 1),
    Event(2, "alert_call_ok", 0),
    Event(2, "power_grid", 0),
    Event(4, "power_grid", 1),
)


def test_events_ignored_at_a_switch_tick_belong_to_the_period_before():
    timeline, metrics = alert_run(SWITCH_AT_2, horizon=5)
    assert spans(timeline) == [("stability", 0, 2), ("stability", 2, 5)]
    before, after = timeline.periods
    assert before.ignored == (SWITCH_AT_2[0], SWITCH_AT_2[2])
    assert after.ignored == (SWITCH_AT_2[3],)
    assert metrics.ignored_event_count == 3


def test_events_ignored_at_an_adaptation_tick_belong_to_the_period_before():
    timeline, _ = alert_run(SWITCH_AT_2, horizon=5, adaptation_duration=2)
    assert spans(timeline) == [("stability", 0, 2), ("adaptation", 2, 4), ("stability", 4, 5)]
    before, adapting, after = timeline.periods
    assert before.ignored == (SWITCH_AT_2[0], SWITCH_AT_2[2])
    assert adapting.ignored == (SWITCH_AT_2[3],)
    assert after.ignored == ()


def test_halt_at_tick_zero_leaves_no_periods():
    timeline, metrics = alert_run(FAIL_AT_0, horizon=4, constraints=(MaxParameterChanges(1),))
    assert timeline.status == "no-feasible-adaptation"
    assert timeline.periods == ()
    assert metrics.ignored_event_count == 1


def test_halt_at_tick_zero_scores_no_optimal_time():
    timeline, metrics = alert_run(
        (Event(0, "alert_call_ok", 0),), horizon=4, constraints=(MaxParameterChanges(1),)
    )
    assert timeline.status == "no-feasible-adaptation"
    assert timeline.periods == ()
    assert metrics.optimal_time_fraction == 0.0


def test_periods_tile_the_ticks_run_on_random_scenarios():
    rng = random.Random(808)
    for index in range(200):
        model, trace, config = random_runtime_scenario(rng)
        timeline, metrics = run_simulation(model, trace, config)
        periods = timeline.periods
        if not periods:
            continue
        assert periods[0].start == 0, index
        for before, after in zip(periods, periods[1:]):
            assert before.end == after.start, index
        for period in periods:
            assert period.start < period.end, index
            assert len(period.optimal) == period.end - period.start, index
        assert sum(len(p.ignored) for p in periods) == metrics.ignored_event_count, index
        horizon = config.horizon if config.horizon is not None else trace.last_tick() + 1
        if timeline.status == "completed":
            assert periods[-1].end == max(horizon, 1), index


# ---------------------------------------------------------------------------
# The model's memo, shared by the two passes of a run and by later runs


def record_solves(monkeypatch):
    """Patch the simulator to log each ``adaptation_candidates`` call as
    (full_scope of the replay making it, believed environment, current)."""
    calls, scope = [], []
    candidates, replay = runtime.adaptation_candidates, runtime._replay

    def counted(problem, current, *args):
        calls.append((scope[-1], problem.exogenous, current))
        return candidates(problem, current, *args)

    def scoped(*args):
        scope.append(args[7])  # full_scope
        return replay(*args)

    monkeypatch.setattr(runtime, "adaptation_candidates", counted)
    monkeypatch.setattr(runtime, "_replay", scoped)
    return calls


def test_the_omniscient_replay_reuses_every_solve_when_all_events_are_visible(monkeypatch):
    alerts = load("alerts.model")
    calls = record_solves(monkeypatch)
    runs = [(alerts.model, load("alerts_failure.trace"), alerts.config)]
    blank = replace(alerts.config, initial_spec=None)
    runs.append((alerts.model, load("alerts_failure.trace"), blank))
    rng = random.Random(11)
    runs += [random_runtime_pair(rng) for _ in range(50)]
    for index, (model, trace, config) in enumerate(runs):
        assert all(apply_monitoring_scope(model, event) for event in trace.events), index
        calls.clear()
        run_simulation(model, trace, config)
        assert calls and not [call for call in calls if call[0]], index


def test_each_believed_environment_and_specification_is_solved_once_per_run(monkeypatch):
    calls = record_solves(monkeypatch)
    rng = random.Random(12)
    for index in range(200):
        calls.clear()
        run_simulation(*random_runtime_scenario(rng))
        pairs = [(exogenous, current) for _, exogenous, current in calls]
        assert len(pairs) == len(set(pairs)), index


REPLAY_FIELDS = (
    "active", "accepted", "opened", "fired", "ignored",
    "trigger_count", "ignored_count", "adaptation_ticks", "status",
)


def record_passes(monkeypatch):
    """Patch the simulator to keep each ``_replay`` call's arguments and result."""
    passes = []
    replay = runtime._replay

    def kept(*args):
        passes.append((args, replay(*args)))
        return passes[-1][1]

    monkeypatch.setattr(runtime, "_replay", kept)
    return passes, replay


def test_the_shared_memo_leaves_the_omniscient_replay_unchanged(monkeypatch):
    # A run whose events the running system sees all makes one pass and scores
    # it against itself; that pass must equal a fresh omniscient pass with an
    # empty memo.  A run with an unseen event makes a second, omniscient pass
    # on the memo the first one filled; it must equal a fresh one too.
    passes, replay = record_passes(monkeypatch)
    kinds = {1: 0, 2: 0}
    for seed in range(200):
        passes.clear()
        run_simulation(*random_runtime_scenario(random.Random(seed)))
        kinds[len(passes)] += 1
        if len(passes) == 1:
            ((args, kept),) = passes
            assert not args[7]  # the observed pass
            fresh = replay(*args[:7], True, {})
        else:
            (main_args, _), (args, kept) = passes
            assert args[-1] is main_args[-1] and args[7]  # the omniscient pass, one memo
            fresh = replay(*args[:-1], {})
        for field in REPLAY_FIELDS:
            assert getattr(kept, field) == getattr(fresh, field), (seed, field)
    assert all(kinds.values()), kinds  # 113 one-pass and 87 two-pass runs


def test_only_an_unseen_event_makes_a_second_pass(monkeypatch):
    passes, _ = record_passes(monkeypatch)
    shock = load("shock.model")
    # The shock at tick 2 lies outside the detectable range: the omniscient
    # pass alone sees it, and its accepted sets score the observed pass.
    timeline, metrics = run_simulation(shock.model, load("shock.trace"), shock.config)
    (main_args, main), (omni_args, omni) = passes
    assert (main_args[7], omni_args[7]) == (False, True)
    assert main.active != omni.active
    flags = tuple(spec in accepted for spec, accepted in zip(main.active, omni.accepted))
    assert timeline.periods[0].optimal == flags == (True, True, False, False)
    assert metrics.optimal_time_fraction == 0.5
    # An event on a change-scope variable is ignored by both passes alike, so
    # it alone makes one pass, scored against itself.
    passes.clear()
    trace = EventTrace((Event(1, "power_grid", 0),))
    timeline, metrics = run_simulation(shock.model, trace, shock.config)
    assert [args[7] for args, _ in passes] == [False]
    assert timeline.periods[0].ignored == (Event(1, "power_grid", 0),)
    assert (metrics.ignored_event_count, metrics.optimal_time_fraction) == (1, 1.0)


def outcome(model, trace, config):
    """The timeline and metrics of a run, or the type and text of its error."""
    try:
        return run_simulation(model, trace, config)
    except (DefinitionError, EvaluationError, SizeLimitError) as err:
        return type(err), str(err)


def memo_variants(config):
    """``config``, and variants differing in what a re-solve reads (the
    constraints, the relaxed triggers, the cap) or in what it does not (the
    adaptation duration)."""
    return (
        config,
        replace(config, constraints=()),
        replace(config, relaxation=((config.triggers[0].criterion, 3.0),)),
        replace(config, cap=4),
        replace(config, adaptation_duration=config.adaptation_duration + 1),
    )


@pytest.mark.parametrize("make", (random_runtime_scenario, random_runtime_pair))
def test_warm_runs_agree_with_cold_ones(make):
    for seed in range(60):
        model, trace, config = make(random.Random(seed))
        variants = memo_variants(config)
        cold = [outcome(replace(model), trace, c) for c in variants]
        for _ in range(2):  # the second round reads only the memo
            assert [outcome(model, trace, c) for c in variants] == cold, seed


def test_a_repeated_run_makes_no_re_solve(monkeypatch):
    calls = record_solves(monkeypatch)
    alerts = load("alerts.model")
    runs = [(alerts.model, load("alerts_failure.trace"), alerts.config)]
    runs += [random_runtime_scenario(random.Random(seed)) for seed in range(50)]
    made = 0
    for index, (model, trace, config) in enumerate(runs):
        calls.clear()
        first = outcome(model, trace, config)
        made += len(calls)
        calls.clear()
        assert outcome(model, trace, config) == first and not calls, index
        assert model._simulation_memo and not replace(model)._simulation_memo, index
    assert made


def memo_size(model):
    return runtime._memo_size(model._simulation_memo)


def test_what_a_model_memo_keeps_between_runs_stays_under_its_bound(monkeypatch):
    limit = 6
    monkeypatch.setattr(runtime, "MODEL_MEMO_LIMIT", limit)
    model, trace, config = random_runtime_scenario(random.Random(5))
    sizes = []
    for variant in memo_variants(config) * 3:
        outcome(model, trace, variant)
        sizes.append(memo_size(model))
    assert max(sizes) <= limit and 0 in sizes and any(sizes), sizes


FLAT = """ropas-model v1
[variables]
criterion score int:0:9 kind=utility pref=higher-better
parameter a int:0:9 default=0
monitored m int:0:9
[depends]
weighted-sum score_total -> score : 1.0*m
[decision]
rule score
set a
[simulation]
initial m=1
"""


@pytest.mark.parametrize("limit, kept", ((8, False), (64, True)))
def test_a_re_solve_weighs_the_specifications_it_accepts(monkeypatch, limit, kept):
    # Every specification scores alike, so the one re-solve accepts all ten.
    monkeypatch.setattr(runtime, "MODEL_MEMO_LIMIT", limit)
    flat = parse_model(FLAT)
    timeline, _ = run_simulation(flat.model, EventTrace(()), flat.config)
    assert len(timeline.periods) == 1
    assert bool(flat.model._simulation_memo) is kept
    if kept:
        # The configuration's set-up and its re-solve memo, one re-solve, one status.
        assert memo_size(flat.model) == 2 + 10 + 1


# ---------------------------------------------------------------------------
# One set-up per model and configuration


def count_config_checks(monkeypatch):
    """Patch the simulator to log each configuration ``config_violations`` checks."""
    checked = []
    violations = runtime.config_violations

    def counted(model, config):
        checked.append(config)
        return violations(model, config)

    monkeypatch.setattr(runtime, "config_violations", counted)
    return checked


def set_ups(model):
    """The configurations' set-ups in a model's memo (its re-solve memos are dicts)."""
    return [found for found in model._simulation_memo.values() if not isinstance(found, dict)]


def test_an_equal_configuration_reuses_the_set_up(monkeypatch):
    checked = count_config_checks(monkeypatch)
    alerts, trace = load("alerts.model"), load("alerts_failure.trace")
    first = run_simulation(alerts.model, trace, alerts.config)
    copy = replace(alerts.config)
    assert copy == alerts.config and copy is not alerts.config
    assert run_simulation(alerts.model, trace, copy) == first
    assert checked == [alerts.config]
    # A copy of the model starts with an empty memo, so it checks again.
    assert run_simulation(replace(alerts.model), trace, copy) == first
    assert checked == [alerts.config, copy]


@pytest.mark.parametrize(
    "change, message",
    (
        ({"horizon": 0}, "horizon must be at least 1"),
        ({"initial_exogenous": ()}, "no initial value for monitored variable 'shock'"),
        ({"relaxation": (("score", -1.0),)}, "negative widening for 'score'"),
    ),
)
def test_an_invalid_configuration_raises_on_every_run(change, message):
    shock, trace = load("shock.model"), load("shock.trace")
    config = replace(shock.config, **change)
    for _ in range(3):
        assert outcome(shock.model, trace, config) == (DefinitionError, message)
    assert not set_ups(shock.model)


def test_the_trace_is_bound_before_the_triggers_are_relaxed():
    shock = load("shock.model")
    config = replace(shock.config, relaxation=(("score", -1.0),))
    unknown = EventTrace((Event(0, "zz", 1),))
    for _ in range(2):
        assert outcome(shock.model, unknown, config) == (
            DefinitionError,
            "event variable 'zz' is neither monitored nor declared in the change scope",
        )


def test_an_invalid_model_raises_on_every_run():
    shock, trace = load("shock.model"), load("shock.trace")
    model = replace(shock.model, decision_set=())
    for _ in range(3):
        assert outcome(model, trace, shock.config) == (
            DefinitionError, "simulation needs a decision rule and a decision set"
        )
    assert not model._simulation_memo


def test_an_unhashable_configuration_is_set_up_on_every_run(monkeypatch):
    checked = count_config_checks(monkeypatch)
    # A listed field of each configuration: one the set-up reads, and one in
    # the re-solve memo's key.
    for name, trace_name, field in (
        ("shock", "shock", "initial_exogenous"), ("alerts", "alerts_failure", "constraints")
    ):
        checked.clear()
        bundle, trace = load(f"{name}.model"), load(f"{trace_name}.trace")
        listed = replace(bundle.config, **{field: list(getattr(bundle.config, field))})
        with pytest.raises(TypeError):
            hash(listed)
        cold = outcome(replace(bundle.model), trace, bundle.config)
        assert [outcome(bundle.model, trace, listed) for _ in range(2)] == [cold, cold], name
        assert len(checked) == 3 and not set_ups(bundle.model), name
    shock, trace = load("shock.model"), load("shock.trace")
    bad = replace(shock.config, initial_exogenous=[("shock", 7)])
    for _ in range(2):
        assert outcome(shock.model, trace, bad) == (
            DefinitionError, "initial value 7 outside the domain of 'shock'"
        )


def test_an_equal_configuration_of_other_types_is_checked_again():
    # ``True == 1``, but a trigger edge must be a number, not a bool.
    shock, trace = load("shock.model"), load("shock.trace")
    ints = replace(shock.config, triggers=(AwarenessTrigger("score", IntervalRange(1, None)),))
    bools = replace(ints, triggers=(AwarenessTrigger("score", IntervalRange(True, None)),))
    assert ints == bools and hash(ints) == hash(bools)
    cold = outcome(replace(shock.model), trace, ints)
    assert outcome(shock.model, trace, ints) == cold
    for _ in range(2):
        assert outcome(shock.model, trace, bools) == (
            DefinitionError, "trigger range edges must be finite numbers"
        )
    assert outcome(shock.model, trace, ints) == cold


def test_configurations_differing_in_horizon_or_start_share_re_solves(monkeypatch):
    alerts, trace = load("alerts.model"), load("alerts_failure.trace")
    config = alerts.config
    variants = (
        config,
        replace(config, horizon=9),
        replace(config, initial_spec=alert_spec("sms", "cloud")),
        replace(config, initial_spec=None),
    )
    calls = record_solves(monkeypatch)
    cold = [outcome(replace(alerts.model), trace, variant) for variant in variants]
    made_cold = len(calls)
    calls.clear()
    assert [outcome(alerts.model, trace, variant) for variant in variants] == cold
    # Each has its own start and report ...
    assert len({repr(report) for report in cold}) == len(variants)
    assert len(set_ups(alerts.model)) == len(variants)
    # ... and each re-solve is made once for all of them.
    assert len({(env, current) for _, env, current in calls}) == len(calls) < made_cold


def test_a_sweep_of_configurations_keeps_the_memo_under_its_bound(monkeypatch):
    limit = 20
    monkeypatch.setattr(runtime, "MODEL_MEMO_LIMIT", limit)
    shock, trace = load("shock.model"), load("shock.trace")
    sizes = []
    for horizon in range(1, 51):
        outcome(shock.model, trace, replace(shock.config, horizon=horizon))
        sizes.append(memo_size(shock.model))
    assert max(sizes) <= limit and 0 in sizes, sizes


# ---------------------------------------------------------------------------
# The reference simulator


def reference_outcome(run, model, trace, config):
    """``run``'s per-tick active specifications and optimal flags, status
    and metrics, or the type of the error it raised."""
    try:
        result = run(model, trace, config)
    except (DefinitionError, EvaluationError, SizeLimitError) as err:
        return type(err)
    if isinstance(result, ReferenceRun):
        return result
    timeline, metrics = result
    active = tuple(p.spec for p in timeline.periods for _ in range(p.start, p.end))
    optimal = tuple(flag for p in timeline.periods for flag in p.optimal)
    return ReferenceRun(active, optimal, timeline.status, metrics)


def other_configurations(config):
    """Two configurations, each differing from ``config`` in one part of what
    the re-solves read: the evolution constraints, the relaxed triggers."""
    return (
        replace(config, constraints=config.constraints + (MaxParameterChanges(1),)),
        replace(config, relaxation=((config.triggers[0].criterion, 3.0),)),
    )


def reference_runs(kind):
    """(label, model, trace, configuration) of 200 seeds of a generator, or
    of each shipped model with triggers and each shipped trace."""
    if kind != "shipped":
        make = {
            "scenario": random_runtime_scenario,
            "pair": random_runtime_pair,
            "pinned": random_runtime_pinned,
        }[kind]
        return [(seed, *make(random.Random(seed))) for seed in range(200)]
    runs = []
    for model_path in sorted(FIXTURES.glob("*.model")):
        bundle = load(model_path.name)
        if bundle.model is not None and bundle.config.triggers:
            for trace_path in sorted(FIXTURES.glob("*.trace")):
                label = f"{model_path.name} {trace_path.name}"
                runs.append((label, bundle.model, load(trace_path.name), bundle.config))
    return runs


@pytest.mark.parametrize("kind", ("scenario", "pair", "pinned", "shipped"))
def test_run_simulation_agrees_with_the_reference_simulator(kind):
    runs = reference_runs(kind)
    ran = 0
    for label, model, trace, config in runs:
        # Every configuration runs on one model object, each after the ones
        # before it have filled its memo.
        for variant in (config, *other_configurations(config)):
            expected = reference_outcome(reference_simulation, model, trace, variant)
            assert reference_outcome(run_simulation, model, trace, variant) == expected, label
            ran += isinstance(expected, ReferenceRun)
    assert ran >= len(runs), ran
