"""Ready-made demo models shared by the test suite and the docs.

The flagship fixture is an incident-alerting system that must pick exactly one
alert channel and exactly one storage backend.  Each choice contributes to two
quality criteria (capacity and coverage); utility is their sum.  Monitored
health flags can knock out individual channels, and a demand shift moves
coverage up or down, which makes the model useful for exercising triggers,
feasibility breaks, and adaptation.
"""

from __future__ import annotations

from .domains import Boolean, Enumerated, IntegerRange, Value
from .goals import GoalGraph, goal_graph
from .model import (
    BooleanFormula,
    CardinalityConstraint,
    Criterion,
    Incompatibility,
    LinearConstraint,
    Model,
    MonitoredVariable,
    Parameter,
    Specification,
    WeightedSum,
    and_,
    var,
)
from .runtime import (
    AwarenessTrigger,
    Event,
    EventTrace,
    IntervalRange,
    SimulationConfig,
)
from .decisions import (
    Alternative,
    DecisionModel,
    IdentityTransform,
    PowerTransform,
    lottery,
)

ALERT_CHANNELS = ("sms", "email", "push", "call", "radio")
STORAGE_BACKENDS = ("local", "cloud", "edge", "mirror", "tape")

ALERT_CAPACITY = {"sms": 10, "email": 30, "push": 40, "call": 35, "radio": 45}
STORE_CAPACITY = {"local": 50, "cloud": 8, "edge": 6, "mirror": 4, "tape": 2}
ALERT_COVERAGE = {"sms": 20, "email": 4, "push": 25, "call": 20, "radio": 30}
STORE_COVERAGE = {"local": 40, "cloud": 5, "edge": 3, "mirror": 2, "tape": 1}

# Channel/backend combinations that cannot ship together.
INCOMPATIBLE_PAIRS = (
    ("sms", "cloud"),
    ("email", "edge"),
    ("push", "mirror"),
    ("call", "tape"),
    ("radio", "cloud"),
)

CAPACITY_FLOOR = 70.0
COVERAGE_FLOOR = 45.0


def alert_parameter(channel: str) -> str:
    return f"alert_{channel}"

def store_parameter(backend: str) -> str:
    return f"store_{backend}"

def health_variable(channel: str) -> str:
    return f"alert_{channel}_ok"


def alert_model() -> Model:
    """The 10-parameter alerting model (5 channels x 5 backends, 20 feasible)."""
    alert_params = tuple(alert_parameter(c) for c in ALERT_CHANNELS)
    store_params = tuple(store_parameter(b) for b in STORAGE_BACKENDS)
    parameters = tuple(
        Parameter(pid, Boolean(), default=0) for pid in alert_params + store_params
    )
    monitored = tuple(
        MonitoredVariable(health_variable(c), Boolean()) for c in ALERT_CHANNELS
    ) + (MonitoredVariable("demand_shift", IntegerRange(-30, 30)),)

    # Criterion domains must hold every value reachable over the whole
    # parameter product space, since evaluation precedes feasibility checks.
    criteria = (
        Criterion("capacity", IntegerRange(0, 300), "quality-variable", "higher-better"),
        Criterion("coverage", IntegerRange(-50, 250), "quality-variable", "higher-better"),
        Criterion("utility", IntegerRange(-50, 450), "utility", "higher-better"),
    )

    depends = (
        WeightedSum(
            "capacity_total",
            "capacity",
            alert_params + store_params,
            tuple(float(ALERT_CAPACITY[c]) for c in ALERT_CHANNELS)
            + tuple(float(STORE_CAPACITY[b]) for b in STORAGE_BACKENDS),
        ),
        WeightedSum(
            "coverage_total",
            "coverage",
            alert_params + store_params + ("demand_shift",),
            tuple(float(ALERT_COVERAGE[c]) for c in ALERT_CHANNELS)
            + tuple(float(STORE_COVERAGE[b]) for b in STORAGE_BACKENDS)
            + (1.0,),
        ),
        WeightedSum("utility_total", "utility", ("capacity", "coverage"), (1.0, 1.0)),
        CardinalityConstraint("one_alert_channel", alert_params, "==", 1),
        CardinalityConstraint("one_storage_backend", store_params, "==", 1),
    ) + tuple(
        Incompatibility(f"avoid_{c}_{b}", alert_parameter(c), store_parameter(b))
        for c, b in INCOMPATIBLE_PAIRS
    ) + tuple(
        LinearConstraint(
            f"{c}_needs_healthy_component",
            (alert_parameter(c), health_variable(c)),
            (1.0, -1.0),
            "<=",
            0.0,
        )
        for c in ALERT_CHANNELS
    )

    return Model(
        criteria=criteria,
        parameters=parameters,
        monitored=monitored,
        depends=depends,
        decision_rule="utility",
        decision_set=alert_params + store_params,
    )


def alert_exogenous() -> dict[str, Value]:
    """All components healthy, no demand shift."""
    values: dict[str, Value] = {health_variable(c): 1 for c in ALERT_CHANNELS}
    values["demand_shift"] = 0
    return values


def alert_spec(channel: str, backend: str) -> Specification:
    """One-hot specification selecting the given channel and backend."""
    values: dict[str, Value] = {
        alert_parameter(c): int(c == channel) for c in ALERT_CHANNELS
    }
    values.update({store_parameter(b): int(b == backend) for b in STORAGE_BACKENDS})
    return Specification.from_mapping(values)


def alert_triggers() -> tuple[AwarenessTrigger, ...]:
    return (
        AwarenessTrigger("capacity", IntervalRange(CAPACITY_FLOOR, None)),
        AwarenessTrigger("coverage", IntervalRange(COVERAGE_FLOOR, None)),
    )


def alert_failure_trace() -> EventTrace:
    """The call channel's component dies at tick 2."""
    return EventTrace((Event(2, health_variable("call"), 0),))


def alert_config(adaptation_duration: int = 0) -> SimulationConfig:
    """Simulation setup starting on call+local with all triggers armed."""
    return SimulationConfig(
        adaptation_duration=adaptation_duration,
        triggers=alert_triggers(),
        initial_exogenous=tuple(sorted(alert_exogenous().items())),
        initial_spec=alert_spec("call", "local"),
        horizon=6,
    )


def dispatch_goals() -> GoalGraph:
    """A one-requirement goal graph about getting an ambulance to an incident.

    The requirement refines into five selectable responses; one needs domain
    knowledge (a staffed station), one needs a two-atom combination, and the
    helicopter conflicts with the volunteer response.
    """
    return goal_graph(
        atoms=(
            "incident_handled",
            "station_staffed",
            "send_als",
            "send_bls",
            "send_heli",
            "send_volunteer",
            "send_neighbor",
        ),
        refinements=(
            ("incident_handled", ("send_als",)),
            ("incident_handled", ("send_bls", "station_staffed")),
            ("incident_handled", ("send_heli",)),
            ("incident_handled", ("send_volunteer", "send_neighbor")),
        ),
        conflicts=(("send_heli", "send_volunteer"),),
        r_atoms=("incident_handled",),
        k_atoms=("station_staffed",),
        s_atoms=(
            "send_als",
            "send_bls",
            "send_heli",
            "send_volunteer",
            "send_neighbor",
        ),
        mandatory=("incident_handled",),
    )


def respond_decision_model() -> DecisionModel:
    """Choosing how to respond to a remote incident under uncertainty.

    Two attributes: response time in minutes (weighted negatively) and
    mission success (weighted strongly positive).  Expected utilities come
    out 46.2 (heli), 39.0 (als_unit), 16.0 (volunteer).
    """
    attributes = (
        Criterion("response_time", Enumerated((6.0, 9.0, 12.0, 15.0, 25.0))),
        Criterion("success", Boolean()),
    )
    alternatives = (
        Alternative(
            "heli",
            (
                ("response_time", lottery((6.0, 0.7), (12.0, 0.3))),
                ("success", lottery((1, 0.9), (0, 0.1))),
            ),
        ),
        Alternative(
            "als_unit",
            (
                ("response_time", lottery((9.0, 1.0),)),
                ("success", lottery((1, 0.8), (0, 0.2))),
            ),
        ),
        Alternative(
            "volunteer",
            (
                ("response_time", lottery((15.0, 0.5), (25.0, 0.5))),
                ("success", lottery((1, 0.6), (0, 0.4))),
            ),
        ),
    )
    utility = WeightedSum(
        "utility", "utility", ("response_time", "success"), (-1.0, 60.0)
    )
    return DecisionModel(alternatives, attributes, utility, IdentityTransform())


def cautious_decision_model() -> DecisionModel:
    """The same choice with success probabilities squared (risk aversion)."""
    base = respond_decision_model()
    return DecisionModel(
        base.alternatives, base.attributes, base.utility, PowerTransform(2.0)
    )


def shock_model() -> Model:
    """A two-mode system whose monitoring cannot see the shock state.

    Mode B scores 20 in calm conditions but collapses to -5 under shock;
    mode A always scores 10.  The shock variable's detectable range covers
    only the calm value, so a real shock leaves the running system's beliefs
    stale.  Useful for comparing a run against its omniscient rerun.
    """
    return Model(
        criteria=(
            Criterion("shock_hit", Boolean(), "quality-variable"),
            Criterion("score", IntegerRange(-20, 30), "utility", "higher-better"),
        ),
        parameters=(
            Parameter("mode_a", Boolean(), default=0),
            Parameter("mode_b", Boolean(), default=0),
        ),
        monitored=(MonitoredVariable("shock", Boolean(), detectable_range=(0,)),),
        depends=(
            BooleanFormula("shock_hit_def", "shock_hit", and_(var("shock"), var("mode_b"))),
            WeightedSum(
                "score_total",
                "score",
                ("mode_a", "mode_b", "shock_hit"),
                (10.0, 20.0, -25.0),
            ),
            CardinalityConstraint("one_mode", ("mode_a", "mode_b"), "==", 1),
        ),
        decision_rule="score",
        decision_set=("mode_a", "mode_b"),
    )


def shock_trace() -> EventTrace:
    """An out-of-scope grid event, then an invisible shock."""
    return EventTrace(
        (Event(1, "power_grid", 0), Event(2, "shock", 1))
    )


def shock_config() -> SimulationConfig:
    return SimulationConfig(
        adaptation_duration=0,
        triggers=(AwarenessTrigger("score", IntervalRange(15.0, None)),),
        initial_exogenous=(("shock", 0),),
        change_scope=(("power_grid", Boolean()),),
        horizon=4,
    )
