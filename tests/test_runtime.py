"""Monitoring scope, triggers, evolution constraints, and simulation replay."""

import random
import re
from dataclasses import replace

import pytest

from ropas import runtime
from ropas.domains import Boolean, IntegerRange, RealGrid
from ropas.errors import DefinitionError, EvaluationError, SizeLimitError
from ropas.fixtures import (
    alert_config,
    alert_exogenous,
    alert_failure_trace,
    alert_model,
    alert_spec,
    alert_triggers,
    shock_config,
    shock_model,
    shock_trace,
)
from ropas.formats import ModelBundle, ParseFailure, parse_model, serialize_model
from ropas.model import (
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
from ropas.solver import rop, solve_rop

from genmodels import random_runtime_pair, random_runtime_scenario


def broken_call_problem():
    """The alert fixture after the call channel's component has failed."""
    exogenous = dict(alert_exogenous())
    exogenous["alert_call_ok"] = 0
    return rop(alert_model(), exogenous)


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
    m = alert_model()
    assert apply_monitoring_scope(m, Event(0, "alert_call_ok", 0))
    assert apply_monitoring_scope(m, Event(0, "demand_shift", -30))


def test_monitoring_scope_restricted_range():
    m = shock_model()
    assert apply_monitoring_scope(m, Event(0, "shock", 0))
    assert not apply_monitoring_scope(m, Event(0, "shock", 1))


def test_monitoring_scope_unknown_variable_or_value():
    m = alert_model()
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
    m = alert_model()
    exogenous = dict(alert_exogenous())
    exogenous["demand_shift"] = -30
    from ropas.model import evaluate

    instance = evaluate(m, alert_spec("email", "cloud"), exogenous)
    fired = check_triggers(instance, alert_triggers())
    assert fired == ("capacity", "coverage")


def test_check_triggers_unknown_criterion():
    from ropas.model import evaluate

    instance = evaluate(alert_model(), alert_spec("call", "local"), alert_exogenous())
    with pytest.raises(DefinitionError, match="unknown criterion"):
        check_triggers(instance, (AwarenessTrigger("ghost", IntervalRange(0.0, 1.0)),))


# ---------------------------------------------------------------------------
# Relaxation


def test_relax_widens_finite_edges_only():
    triggers = (
        AwarenessTrigger("capacity", IntervalRange(70.0, 200.0)),
        AwarenessTrigger("coverage", IntervalRange(lo=45.0)),
    )
    widened = relax(triggers, {"capacity": 10.0, "coverage": 5.0}, alert_model())
    assert widened[0].tolerable == IntervalRange(60.0, 210.0)
    assert widened[1].tolerable == IntervalRange(lo=40.0)


def test_relax_zero_band_is_identity():
    triggers = alert_triggers()
    assert relax(triggers, {}, alert_model()) == tuple(triggers)
    assert relax(triggers, {"capacity": 0.0}, alert_model()) == tuple(triggers)


def test_relax_rejects_unknown_criteria():
    with pytest.raises(DefinitionError, match="untriggered criteria"):
        relax(alert_triggers(), {"ghost": 1.0}, alert_model())


def test_relax_rejects_negative_band():
    with pytest.raises(DefinitionError, match="negative widening"):
        relax(alert_triggers(), {"capacity": -1.0}, alert_model())


@pytest.mark.parametrize("band", (float("nan"), float("inf")))
def test_relax_rejects_a_non_finite_band(band):
    with pytest.raises(DefinitionError, match="^widening for 'capacity' is not a finite number$"):
        relax(alert_triggers(), {"capacity": band}, alert_model())


def test_relax_rejects_value_set_ranges():
    triggers = (AwarenessTrigger("capacity", ValueSetRange((80, 85))),)
    with pytest.raises(DefinitionError, match="value-set"):
        relax(triggers, {"capacity": 1.0}, alert_model())


def test_relax_must_stay_inside_domain_bounds():
    triggers = (AwarenessTrigger("coverage", IntervalRange(45.0, None)),)
    with pytest.raises(DefinitionError, match="below its domain minimum"):
        relax(triggers, {"coverage": 100.0}, alert_model())
    triggers = (AwarenessTrigger("coverage", IntervalRange(None, 240.0)),)
    with pytest.raises(DefinitionError, match="above its domain maximum"):
        relax(triggers, {"coverage": 20.0}, alert_model())


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
        problem, alert_spec("call", "local"), triggers=alert_triggers()
    )
    named = [(s["alert_radio"], s["alert_push"], s["store_local"]) for s in pool]
    assert len(pool) == 2
    assert named == [(1, 0, 1), (0, 1, 1)]


def test_candidates_fall_back_when_nothing_calms():
    exogenous = dict(alert_exogenous())
    exogenous["demand_shift"] = -30
    problem = rop(alert_model(), exogenous)
    pool = adaptation_candidates(
        problem, alert_spec("radio", "local"), triggers=alert_triggers()
    )
    assert len(pool) == 20


def test_select_adaptation_picks_best_calming_target():
    problem = broken_call_problem()
    chosen = select_adaptation(
        alert_spec("call", "local"), problem, triggers=alert_triggers()
    )
    assert isinstance(chosen, Specification)
    assert chosen == alert_spec("radio", "local")


def test_select_adaptation_respects_change_budget():
    problem = broken_call_problem()
    chosen = select_adaptation(
        alert_spec("call", "local"),
        problem,
        constraints=(MaxParameterChanges(1),),
        triggers=alert_triggers(),
    )
    assert isinstance(chosen, NoFeasibleAdaptation)
    assert chosen.reason


def test_select_adaptation_respects_forbidden_values_and_transitions():
    problem = broken_call_problem()
    current = alert_spec("call", "local")
    chosen = select_adaptation(
        current, problem, constraints=(ForbiddenValue("alert_radio", 1),),
        triggers=alert_triggers(),
    )
    assert chosen == alert_spec("push", "local")
    chosen = select_adaptation(
        current,
        problem,
        constraints=(
            ForbiddenTransition((("alert_call", 1),), (("alert_radio", 1),)),
        ),
        triggers=alert_triggers(),
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
    timeline, metrics = run_simulation(
        alert_model(), alert_failure_trace(), alert_config()
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
    timeline, metrics = run_simulation(
        alert_model(), alert_failure_trace(), alert_config(adaptation_duration=2)
    )
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
    config = SimulationConfig(
        adaptation_duration=0,
        triggers=alert_triggers(),
        initial_exogenous=tuple(sorted(alert_exogenous().items())),
        horizon=5,
    )
    trace = EventTrace((Event(1, "demand_shift", -30), Event(3, "demand_shift", -29)))
    timeline, metrics = run_simulation(alert_model(), trace, config)
    assert timeline.status == "completed"
    assert len(timeline.periods) == 1
    period = timeline.periods[0]
    assert period.spec == alert_spec("radio", "local")
    assert period.fired == ("coverage", "coverage")
    assert metrics.trigger_count == 2
    assert metrics.optimal_time_fraction == 1.0


def test_trigger_switch_opens_a_new_period():
    config = SimulationConfig(
        adaptation_duration=0,
        triggers=alert_triggers(),
        initial_exogenous=tuple(sorted(alert_exogenous().items())),
        initial_spec=alert_spec("call", "local"),
        horizon=4,
    )
    trace = EventTrace((Event(2, "demand_shift", -20),))
    timeline, metrics = run_simulation(alert_model(), trace, config)
    assert [p.kind for p in timeline.periods] == ["stability", "stability"]
    before, after = timeline.periods
    assert before.spec == alert_spec("call", "local")
    assert after.spec == alert_spec("radio", "local")
    assert after.start == 2
    assert after.fired == ("coverage",)
    assert metrics.trigger_count == 1


def test_relaxation_prevents_the_firing():
    config = SimulationConfig(
        adaptation_duration=0,
        triggers=alert_triggers(),
        relaxation=(("coverage", 20.0),),
        initial_exogenous=tuple(sorted(alert_exogenous().items())),
        initial_spec=alert_spec("call", "local"),
        horizon=4,
    )
    trace = EventTrace((Event(2, "demand_shift", -10),))
    timeline, metrics = run_simulation(alert_model(), trace, config)
    assert len(timeline.periods) == 1
    assert timeline.periods[0].spec == alert_spec("call", "local")
    assert metrics.trigger_count == 0


def test_halt_when_no_adaptation_target_survives():
    config = alert_config()
    config = SimulationConfig(
        adaptation_duration=0,
        triggers=config.triggers,
        constraints=(MaxParameterChanges(1),),
        initial_exogenous=config.initial_exogenous,
        initial_spec=config.initial_spec,
        horizon=config.horizon,
    )
    timeline, metrics = run_simulation(alert_model(), alert_failure_trace(), config)
    assert timeline.status == "no-feasible-adaptation"
    assert len(timeline.periods) == 1
    assert timeline.periods[0].end == 2
    assert INFEASIBLE_MARKER in timeline.periods[0].fired
    assert metrics.optimal_time_fraction == 1.0


def test_halt_at_the_end_of_an_adaptation_period():
    base = alert_config(adaptation_duration=2)
    config = SimulationConfig(
        adaptation_duration=2,
        triggers=base.triggers,
        constraints=(MaxParameterChanges(1),),
        initial_exogenous=base.initial_exogenous,
        initial_spec=base.initial_spec,
        horizon=base.horizon,
    )
    timeline, metrics = run_simulation(alert_model(), alert_failure_trace(), config)
    assert timeline.status == "no-feasible-adaptation"
    assert [p.kind for p in timeline.periods] == ["stability", "adaptation"]
    assert (timeline.periods[1].start, timeline.periods[1].end) == (2, 4)
    assert metrics.adaptation_tick_total == 2


def test_undetectable_events_are_ignored_but_scored():
    timeline, metrics = run_simulation(shock_model(), shock_trace(), shock_config())
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
    config = SimulationConfig(
        initial_exogenous=tuple(sorted(alert_exogenous().items())),
        initial_spec=alert_spec("call", "local"),
    )
    trace = EventTrace((Event(2, "demand_shift", 5),))
    timeline, _ = run_simulation(alert_model(), trace, config)
    assert timeline.periods[-1].end == 3
    timeline, _ = run_simulation(alert_model(), EventTrace(()), config)
    assert timeline.periods[-1].end == 1


def test_event_binding_errors():
    config = alert_config()
    with pytest.raises(DefinitionError, match="neither monitored"):
        run_simulation(alert_model(), EventTrace((Event(0, "ghost", 1),)), config)
    with pytest.raises(DefinitionError, match="is not monitored"):
        run_simulation(alert_model(), EventTrace((Event(0, "alert_sms", 1),)), config)
    with pytest.raises(DefinitionError, match="outside the domain"):
        run_simulation(
            alert_model(), EventTrace((Event(0, "demand_shift", 99),)), config
        )


def test_simulation_requires_initial_monitored_values():
    config = SimulationConfig(initial_spec=alert_spec("call", "local"))
    with pytest.raises(DefinitionError, match="no initial value"):
        run_simulation(alert_model(), EventTrace(()), config)


def test_simulation_rejects_bad_configs():
    config = SimulationConfig(
        adaptation_duration=-1,
        initial_exogenous=tuple(sorted(alert_exogenous().items())),
    )
    with pytest.raises(DefinitionError, match="nonnegative"):
        run_simulation(alert_model(), EventTrace(()), config)
    partial = Specification.from_mapping({"alert_sms": 1})
    config = SimulationConfig(
        initial_exogenous=tuple(sorted(alert_exogenous().items())),
        initial_spec=partial,
    )
    missing = sorted(p.id for p in alert_model().parameters if p.id != "alert_sms")
    message = f"initial-spec must assign exactly the parameters (missing {missing}, extra [])"
    with pytest.raises(DefinitionError, match=f"^{re.escape(message)}$"):
        run_simulation(alert_model(), EventTrace(()), config)


def test_simulation_rejects_a_horizon_below_one():
    for horizon in (0, -2):
        config = replace(alert_config(), horizon=horizon)
        with pytest.raises(DefinitionError, match="^horizon must be at least 1$"):
            run_simulation(alert_model(), EventTrace(()), config)


def test_simulation_rejects_an_undeclared_initial_variable():
    config = alert_config()
    config = replace(config, initial_exogenous=config.initial_exogenous + (("ghost", 1),))
    with pytest.raises(
        DefinitionError, match="^initial value for non-monitored variable 'ghost'$"
    ):
        run_simulation(alert_model(), EventTrace(()), config)


def _bad_alert_configs():
    """(config, message, head of the record a model file reports it at, or
    None for a library-only case), one fault each, on the alert fixture."""
    base = alert_config()
    spec = alert_spec("call", "local").as_dict()
    exogenous = alert_exogenous()
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
    ]


@pytest.mark.parametrize("config, message, head", _bad_alert_configs())
def test_simulation_and_parser_reject_a_bad_config_alike(config, message, head):
    with pytest.raises(DefinitionError) as info:
        run_simulation(alert_model(), EventTrace(()), config)
    assert str(info.value) == message
    if head is None:
        return
    text = serialize_model(ModelBundle(alert_model(), config))
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
    for model in (
        replace(alert_model(), decision_rule=None),
        replace(alert_model(), decision_set=()),
    ):
        with pytest.raises(
            DefinitionError, match="^simulation needs a decision rule and a decision set$"
        ):
            run_simulation(model, EventTrace(()), alert_config())


def test_simulation_cap_limits_the_solver():
    config = alert_config()
    config = SimulationConfig(
        adaptation_duration=0,
        triggers=config.triggers,
        initial_exogenous=config.initial_exogenous,
        horizon=2,
        cap=100,
    )
    with pytest.raises(SizeLimitError):
        run_simulation(alert_model(), EventTrace(()), config)


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


# ---------------------------------------------------------------------------
# Period attribution


def alert_run(events, horizon, adaptation_duration=0, constraints=()):
    """The alert fixture from call+local, with ``power_grid`` in the change scope."""
    config = SimulationConfig(
        adaptation_duration=adaptation_duration,
        triggers=alert_triggers(),
        constraints=constraints,
        initial_exogenous=tuple(sorted(alert_exogenous().items())),
        initial_spec=alert_spec("call", "local"),
        horizon=horizon,
        change_scope=(("power_grid", Boolean()),),
    )
    return run_simulation(alert_model(), EventTrace(tuple(events)), config)


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
# The per-run memo


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
    calls = record_solves(monkeypatch)
    runs = [(alert_model(), alert_failure_trace(), alert_config())]
    runs.append((alert_model(), alert_failure_trace(), replace(alert_config(), initial_spec=None)))
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


def test_the_shared_memo_leaves_the_omniscient_replay_unchanged(monkeypatch):
    passes = []
    replay = runtime._replay

    def kept(*args):
        passes.append((args, replay(*args)))
        return passes[-1][1]

    monkeypatch.setattr(runtime, "_replay", kept)
    fields = (
        "active", "accepted", "opened", "fired", "ignored",
        "trigger_count", "ignored_count", "adaptation_ticks", "status",
    )
    for seed in range(200):
        passes.clear()
        run_simulation(*random_runtime_scenario(random.Random(seed)))
        (main_args, _), (args, shared) = passes
        assert args[-1] is main_args[-1] and args[7]  # the omniscient pass, one memo
        fresh = replay(*args[:-1], {})
        for field in fields:
            assert getattr(shared, field) == getattr(fresh, field), (seed, field)
