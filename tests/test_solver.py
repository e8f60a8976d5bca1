"""Optimization: classification, exact search, and the goal-graph encoding."""

import random

import pytest

from genmodels import random_goal_graph, random_rop
from ropas.domains import Boolean, Enumerated, IntegerRange, RealGrid
from ropas.errors import DefinitionError, EvaluationError, RopasError, SizeLimitError
from ropas.fixtures import alert_exogenous, alert_model, dispatch_goals
from ropas.goals import check_drp, goal_graph, solve_rdrp
from ropas.model import (
    BooleanFormula,
    CardinalityConstraint,
    Criterion,
    Incompatibility,
    LookupTable,
    Model,
    MonitoredVariable,
    Parameter,
    Specification,
    ThresholdStep,
    WeightedSum,
    enumerate_specifications,
    not_,
    validate_model,
    var,
)
from ropas.solver import (
    Infeasible,
    OptimalSolutions,
    brute_force_enumeration,
    brute_force_oracle,
    classify,
    decode_selection,
    encode_rdrp,
    rop,
    solve_rop,
)


def linear_toy(depends=None, parameters=None, decision_set=("x", "y")) -> Model:
    m = Model(
        criteria=(
            Criterion("score", IntegerRange(-20, 20), "utility", "higher-better"),
        ),
        parameters=parameters
        or (Parameter("x", Boolean()), Parameter("y", Boolean())),
        depends=depends or (WeightedSum("score_sum", "score", ("x", "y"), (2.0, 3.0)),),
        decision_rule="score",
        decision_set=decision_set,
    )
    assert validate_model(m) == []
    return m


# ---------------------------------------------------------------------------
# Classification


def test_classify_binary_linear():
    c = classify(rop(linear_toy()))
    assert c.variable_kind == "binary"
    assert c.depend_kind == "linear"


def test_classify_alert_fixture_binary_general():
    c = classify(rop(alert_model(), alert_exogenous()))
    assert c.variable_kind == "binary"
    assert c.depend_kind == "general"


def test_classify_nonlinear_forms():
    m = linear_toy(
        depends=(
            LookupTable(
                "t",
                "score",
                ("x", "y"),
                tuple(((a, b), a * b) for a in (0, 1) for b in (0, 1)),
            ),
        )
    )
    assert classify(rop(m)).depend_kind == "nonlinear"


def test_classify_variable_kinds():
    m = linear_toy(
        parameters=(Parameter("x", IntegerRange(0, 3)), Parameter("y", IntegerRange(0, 1))),
    )
    assert classify(rop(m)).variable_kind == "integer"
    m = linear_toy(
        parameters=(Parameter("x", Boolean()), Parameter("y", RealGrid(0.0, 1.0, 0.5))),
    )
    assert classify(rop(m)).variable_kind == "mixed"
    m = linear_toy(
        parameters=(Parameter("x", Enumerated((2, 5))), Parameter("y", IntegerRange(0, 1))),
    )
    assert classify(rop(m)).variable_kind == "integer"


# ---------------------------------------------------------------------------
# Exact search


def test_solve_unique_optimum():
    result = solve_rop(rop(linear_toy()))
    assert isinstance(result, OptimalSolutions)
    assert result.objective_value == 5
    assert [s.as_dict() for s in result.optima] == [{"x": 1, "y": 1}]


def test_solve_returns_all_ties_in_canonical_order():
    m = linear_toy(depends=(WeightedSum("score_sum", "score", ("y",), (4.0,)),))
    result = solve_rop(rop(m))
    assert isinstance(result, OptimalSolutions)
    assert result.objective_value == 4
    assert [s.as_dict() for s in result.optima] == [
        {"x": 0, "y": 1},
        {"x": 1, "y": 1},
    ]


def test_solve_reports_infeasible():
    m = linear_toy(
        depends=(
            WeightedSum("score_sum", "score", ("x", "y"), (2.0, 3.0)),
            CardinalityConstraint("need_both", ("x", "y"), "==", 2),
            Incompatibility("never_both", "x", "y"),
        )
    )
    result = solve_rop(rop(m))
    assert isinstance(result, Infeasible)
    assert result.reason


def test_solve_alert_fixture_optimum():
    result = solve_rop(rop(alert_model(), alert_exogenous()))
    assert isinstance(result, OptimalSolutions)
    assert result.objective_value == 165
    assert len(result.optima) == 1
    top = result.optima[0].as_dict()
    assert top["alert_radio"] == 1 and top["store_local"] == 1
    assert sum(top.values()) == 2


def test_solve_uses_exogenous_values():
    m = Model(
        criteria=(
            Criterion("score", IntegerRange(-20, 20), "utility", "higher-better"),
        ),
        parameters=(Parameter("x", Boolean()),),
        monitored=(MonitoredVariable("wind", IntegerRange(-5, 5)),),
        depends=(WeightedSum("score_sum", "score", ("x", "wind"), (2.0, -1.0)),),
        decision_rule="score",
        decision_set=("x",),
    )
    result = solve_rop(rop(m, {"wind": 3}))
    assert isinstance(result, OptimalSolutions)
    assert result.objective_value == -1


def test_solve_honors_non_decision_defaults():
    m = linear_toy(
        parameters=(
            Parameter("x", Boolean()),
            Parameter("y", Boolean()),
            Parameter("base", IntegerRange(0, 9), default=7),
        ),
        depends=(WeightedSum("score_sum", "score", ("x", "y", "base"), (2.0, 3.0, 1.0)),),
    )
    result = solve_rop(rop(m))
    assert isinstance(result, OptimalSolutions)
    assert result.objective_value == 12
    assert result.optima[0]["base"] == 7


def test_solve_requires_default_outside_decision_set():
    m = linear_toy(
        parameters=(
            Parameter("x", Boolean()),
            Parameter("y", Boolean()),
            Parameter("base", IntegerRange(0, 9)),
        ),
        depends=(WeightedSum("score_sum", "score", ("x", "y", "base"), (2.0, 3.0, 1.0)),),
    )
    with pytest.raises(EvaluationError, match="no default"):
        solve_rop(rop(m))


def test_solve_fills_in_derived_parameters():
    m = Model(
        criteria=(
            Criterion("score", IntegerRange(0, 9), "utility", "higher-better"),
        ),
        parameters=(Parameter("x", Boolean()), Parameter("mirror", Boolean())),
        depends=(
            WeightedSum("score_sum", "score", ("x", "mirror"), (1.0, 2.0)),
            ThresholdStep("mirror_def", "mirror", "x", 0.5),
        ),
        decision_rule="score",
        decision_set=("x",),
    )
    assert validate_model(m) == []
    fast, slow = solve_rop(rop(m)), brute_force_oracle(rop(m))
    assert isinstance(fast, OptimalSolutions)
    assert fast.optima[0].as_dict() == {"x": 1, "mirror": 1}
    assert fast == slow


def test_solve_cap():
    m = alert_model()
    with pytest.raises(SizeLimitError):
        solve_rop(rop(m, alert_exogenous()), cap=100)
    with pytest.raises(SizeLimitError):
        brute_force_oracle(rop(m, alert_exogenous()), cap=100)


def test_search_agrees_with_oracle_on_random_problems():
    rng = random.Random(99)
    for i in range(60):
        problem = random_rop(rng, max_space=512)
        fast = solve_rop(problem)
        slow = brute_force_oracle(problem)
        assert type(fast) is type(slow), i
        if isinstance(fast, OptimalSolutions):
            assert fast.objective_value == slow.objective_value, i
            assert fast.optima == slow.optima, i


def _enumeration_outcome(enumerator, model, exogenous):
    try:
        return enumerator(model, exogenous)
    except RopasError as exc:
        return type(exc), str(exc)


def test_enumeration_agrees_with_brute_force_on_random_problems():
    rng = random.Random(314)
    defaulted = 0
    for i in range(150):
        problem = random_rop(rng, max_space=256)
        model, exogenous = problem.model, problem.exogenous_map()
        defaulted += any(p.id == "fix0" for p in model.parameters)
        fast = _enumeration_outcome(enumerate_specifications, model, exogenous)
        slow = _enumeration_outcome(brute_force_enumeration, model, exogenous)
        assert fast == slow, i
    assert defaulted > 0


def test_enumeration_sorts_a_derived_parameter_before_a_free_one():
    m = Model(
        criteria=(
            Criterion("score", IntegerRange(0, 9), "utility", "higher-better"),
        ),
        parameters=(
            Parameter("a", Boolean()),
            Parameter("b", Boolean()),
            Parameter("c", IntegerRange(0, 1)),
        ),
        depends=(
            BooleanFormula("a_def", "a", not_(var("b"))),
            WeightedSum("score_sum", "score", ("a", "b", "c"), (1.0, 2.0, 3.0)),
        ),
        decision_rule="score",
        decision_set=("b", "c"),
    )
    assert validate_model(m) == []
    specs = enumerate_specifications(m)
    assert specs == brute_force_enumeration(m)
    assert [s.as_dict() for s in specs] == [
        {"a": 0, "b": 1, "c": 0},
        {"a": 0, "b": 1, "c": 1},
        {"a": 1, "b": 0, "c": 0},
        {"a": 1, "b": 0, "c": 1},
    ]


# ---------------------------------------------------------------------------
# Goal graph encoding


def test_encode_dispatch_graph_finds_minimal_selections():
    g = dispatch_goals()
    problem = encode_rdrp(g)
    assert validate_model(problem.model) == []
    result = solve_rop(problem)
    assert isinstance(result, OptimalSolutions)
    assert result.objective_value == -1
    decoded = {decode_selection(g, spec) for spec in result.optima}
    assert decoded == {
        frozenset({"send_als"}),
        frozenset({"send_bls"}),
        frozenset({"send_heli"}),
    }
    assert decoded == set(solve_rdrp(g))


def test_encode_requires_partitioned_atoms():
    g = goal_graph(atoms=("a", "b"), s_atoms=("b",))
    with pytest.raises(DefinitionError, match="outside the three partitions"):
        encode_rdrp(g)


def test_encode_requires_selectable_atoms():
    g = goal_graph(atoms=("r",), r_atoms=("r",))
    with pytest.raises(DefinitionError, match="no selectable atoms"):
        encode_rdrp(g)


def test_encode_infeasible_when_requirement_cannot_derive():
    g = goal_graph(
        atoms=("r", "s"),
        r_atoms=("r",),
        s_atoms=("s",),
        mandatory=("r",),
    )
    assert isinstance(solve_rop(encode_rdrp(g)), Infeasible)


def test_encode_handles_selectable_atoms_derivable_from_others():
    # s1 alone also yields s2, so {s1} is a minimal satisfying selection.
    g = goal_graph(
        atoms=("r", "s1", "s2"),
        refinements=(("r", ("s1", "s2")), ("s2", ("s1",))),
        r_atoms=("r",),
        s_atoms=("s1", "s2"),
        mandatory=("r",),
    )
    result = solve_rop(encode_rdrp(g))
    assert isinstance(result, OptimalSolutions)
    decoded = {decode_selection(g, spec) for spec in result.optima}
    assert decoded == {frozenset({"s1"})}
    assert decoded == set(solve_rdrp(g))


def test_encode_agrees_with_direct_search_on_random_graphs():
    rng = random.Random(4)
    for i in range(60):
        g = random_goal_graph(rng, max_s=8)
        direct = solve_rdrp(g)
        result = solve_rop(encode_rdrp(g))
        if isinstance(result, Infeasible):
            assert direct == [], i
            continue
        decoded = {decode_selection(g, spec) for spec in result.optima}
        assert decoded == set(direct), i
        for sel in decoded:
            assert check_drp(g, sel).satisfaction, i
