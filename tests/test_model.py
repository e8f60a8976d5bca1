"""Model declaration, validation, evaluation, and enumeration."""

import random
from collections import Counter
from itertools import product

import pytest

from ropas.domains import Boolean, Enumerated, IntegerRange
from ropas.errors import DefinitionError, EvaluationError, SizeLimitError
from ropas.model import (
    BooleanFormula,
    CardinalityConstraint,
    Criterion,
    Incompatibility,
    LinearConstraint,
    LookupTable,
    Model,
    MonitoredVariable,
    Parameter,
    ProblemInstance,
    Specification,
    ThresholdStep,
    WeightedSum,
    _compile_expr,
    _evaluated,
    _exogenous_values,
    _feasible,
    _instance,
    and_,
    canonical_key,
    complete_specification,
    enumerate_specifications,
    eval_expr,
    evaluate,
    expr_ok,
    expr_vars,
    hamming,
    is_feasible,
    not_,
    or_,
    search_space_size,
    validate_model,
    var,
)
from ropas.solver import brute_force_oracle, solve_rop

from genmodels import random_rop, with_derived_parameter
from shipped import alert_spec, load


def tiny_model(**overrides) -> Model:
    base = dict(
        criteria=(
            Criterion("score", IntegerRange(-10, 10), "utility", "higher-better"),
        ),
        parameters=(Parameter("x", Boolean()), Parameter("y", Boolean())),
        monitored=(),
        depends=(
            WeightedSum("score_sum", "score", ("x", "y"), (2.0, 3.0)),
        ),
        decision_rule="score",
        decision_set=("x", "y"),
    )
    base.update(overrides)
    return Model(**base)


# ---------------------------------------------------------------------------
# Boolean expressions


def test_expr_evaluation():
    e = or_(and_(var("a"), not_(var("b"))), var("c"))
    assert eval_expr(e, {"a": 1, "b": 0, "c": 0}) == 1
    assert eval_expr(e, {"a": 1, "b": 1, "c": 0}) == 0
    assert eval_expr(e, {"a": 0, "b": 1, "c": 1}) == 1


def test_expr_constants():
    assert eval_expr(and_(), {}) == 1
    assert eval_expr(or_(), {}) == 0


def random_expr(rng: random.Random, names: tuple[str, ...], depth: int = 3):
    """A nested and/or/not expression; and/or nodes may have no children."""
    if depth == 0 or rng.random() < 0.3:
        return var(rng.choice(names))
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return not_(random_expr(rng, names, depth - 1))
    children = [random_expr(rng, names, depth - 1) for _ in range(rng.randint(0, 3))]
    return and_(*children) if op == "and" else or_(*children)


def test_compiled_formulas_match_eval_expr_on_every_assignment():
    rng = random.Random(5)
    names = ("a", "b", "c", "d")
    exprs = [and_(), or_(), not_(and_()), not_(or_()), and_(or_(), var("a"))]
    exprs += [random_expr(rng, names) for _ in range(400)]
    for expr in exprs:
        compiled = _compile_expr(expr)
        for values in product((0, 1), repeat=len(names)):
            env = dict(zip(names, values))
            assert compiled(env) == eval_expr(expr, env), (expr, env)


def test_expr_vars_deduplicated_in_order():
    e = and_(var("b"), or_(var("a"), var("b")))
    assert expr_vars(e) == ("b", "a")


def test_expr_ok_rejects_malformed():
    assert expr_ok(var("a"))
    assert not expr_ok(("nand", var("a"), var("b")))
    assert not expr_ok("a")
    assert not expr_ok(("var",))


# ---------------------------------------------------------------------------
# Validation


def test_fixture_models_are_valid():
    assert validate_model(load("alerts.model").model) == []
    assert validate_model(load("shock.model").model) == []


def test_tiny_model_is_valid():
    assert validate_model(tiny_model()) == []


def test_duplicate_ids_within_and_across_groups():
    m = tiny_model(
        parameters=(Parameter("x", Boolean()), Parameter("x", Boolean())),
        decision_set=("x",),
    )
    assert any("duplicate id" in v.message for v in validate_model(m))
    m = tiny_model(monitored=(MonitoredVariable("score", Boolean()),))
    assert any("duplicate id" in v.message for v in validate_model(m))


def test_unknown_criterion_kind_and_preference():
    m = tiny_model(
        criteria=(Criterion("score", IntegerRange(-10, 10), "target", "higher-better"),)
    )
    assert any("unknown criterion kind" in v.message for v in validate_model(m))
    m = tiny_model(
        criteria=(Criterion("score", IntegerRange(-10, 10), "utility", "bigger"),)
    )
    assert any("unknown preference" in v.message for v in validate_model(m))


def test_utility_criterion_must_be_higher_better():
    m = tiny_model(
        criteria=(Criterion("score", IntegerRange(-10, 10), "utility"),)
    )
    out = validate_model(m)
    assert any("higher-better" in v.message for v in out)


def test_default_outside_domain():
    m = tiny_model(parameters=(Parameter("x", Boolean(), default=2), Parameter("y", Boolean())))
    assert any("outside domain" in v.message for v in validate_model(m))


def test_detectable_value_outside_domain():
    m = tiny_model(monitored=(MonitoredVariable("m", Boolean(), detectable_range=(2,)),))
    assert any("detectable value" in v.message for v in validate_model(m))


def test_functional_output_must_exist():
    m = tiny_model(
        depends=(WeightedSum("s", "nowhere", ("x",), (1.0,)),),
    )
    assert any("not a criterion or parameter" in v.message for v in validate_model(m))


def test_double_definition_of_one_output():
    m = tiny_model(
        depends=(
            WeightedSum("s1", "score", ("x",), (1.0,)),
            WeightedSum("s2", "score", ("y",), (1.0,)),
        )
    )
    assert any("defined by multiple depends" in v.message for v in validate_model(m))


def test_formula_inputs_must_be_boolean():
    m = tiny_model(
        criteria=(
            Criterion("score", IntegerRange(-10, 10), "utility", "higher-better"),
            Criterion("flag", Boolean(), "quality-variable"),
        ),
        depends=(
            WeightedSum("score_sum", "score", ("x", "y"), (2.0, 3.0)),
            BooleanFormula("f", "flag", and_(var("score"))),
        ),
    )
    assert any("is not boolean" in v.message for v in validate_model(m))


def test_weighted_sum_weight_count_mismatch():
    m = tiny_model(depends=(WeightedSum("s", "score", ("x", "y"), (1.0,)),))
    assert any("weight count" in v.message for v in validate_model(m))


def test_lookup_table_must_cover_all_combinations():
    m = tiny_model(
        depends=(
            LookupTable("t", "score", ("x", "y"), (((0, 0), 0), ((1, 1), 5))),
        )
    )
    assert any("covers 2 of 4" in v.message for v in validate_model(m))


def test_lookup_table_value_outside_output_domain():
    entries = tuple(((a, b), 99) for a in (0, 1) for b in (0, 1))
    m = tiny_model(depends=(LookupTable("t", "score", ("x", "y"), entries),))
    assert any("outside output domain" in v.message for v in validate_model(m))


def test_lookup_table_duplicate_keys_are_reported_and_the_last_one_wins():
    entries = tuple(((a, b), a + b) for a in (0, 1) for b in (0, 1)) + (((1, 1), 7),)
    m = tiny_model(depends=(LookupTable("t", "score", ("x", "y"), entries),))
    assert [str(v) for v in validate_model(m)] == ["t: duplicate table keys"]
    spec = Specification.from_mapping({"x": 1, "y": 1})
    assert evaluate(m, spec) == ProblemInstance.from_mapping({"score": 7})


def test_threshold_step_output_must_be_boolean():
    m = tiny_model(
        depends=(
            WeightedSum("score_sum", "score", ("x",), (1.0,)),
            ThresholdStep("t", "score", "y", 0.5),
        )
    )
    out = validate_model(m)
    assert any("defined by multiple" in v.message or "must be boolean" in v.message for v in out)


def test_cardinality_inputs_must_be_boolean():
    m = tiny_model(
        depends=(
            WeightedSum("score_sum", "score", ("x", "y"), (2.0, 3.0)),
            CardinalityConstraint("c", ("score",), "<=", 1),
        )
    )
    assert any("is not boolean" in v.message for v in validate_model(m))


def test_incompatibility_needs_distinct_variables():
    m = tiny_model(
        depends=(
            WeightedSum("score_sum", "score", ("x", "y"), (2.0, 3.0)),
            Incompatibility("inc", "x", "x"),
        )
    )
    assert any("two distinct variables" in v.message for v in validate_model(m))


def test_functional_cycle_detected():
    m = tiny_model(
        criteria=(
            Criterion("score", IntegerRange(-10, 10), "utility", "higher-better"),
            Criterion("a", IntegerRange(-10, 10), "quality-variable"),
            Criterion("b", IntegerRange(-10, 10), "quality-variable"),
        ),
        depends=(
            WeightedSum("score_sum", "score", ("x",), (1.0,)),
            WeightedSum("d1", "a", ("b",), (1.0,)),
            WeightedSum("d2", "b", ("a",), (1.0,)),
        ),
    )
    assert any("cycle" in v.message for v in validate_model(m))


def test_cycle_names_the_first_producer_that_reaches_it():
    # "a" reads "b", and "b" and "c" read each other: the search from "a"
    # meets "b" again, so validation names "a" and evaluation names "b".
    m = tiny_model(
        criteria=tiny_model().criteria
        + tuple(Criterion(c, IntegerRange(-10, 10), "quality-variable") for c in "abc"),
        depends=tiny_model().depends + (
            WeightedSum("da", "a", ("b",), (1.0,)),
            WeightedSum("db", "b", ("c",), (1.0,)),
            WeightedSum("dc", "c", ("b",), (1.0,)),
        ),
    )
    cycles = [v for v in validate_model(m) if "cycle" in v.message]
    assert [(v.subject, v.message) for v in cycles] == [("a", "functional depend cycle")]
    with pytest.raises(DefinitionError, match="cycle through 'b'"):
        m.topological_depends


def test_decision_rule_must_be_higher_better_criterion():
    m = tiny_model(decision_rule="x")
    assert any("not a criterion" in v.message for v in validate_model(m))
    m = tiny_model(
        criteria=(Criterion("score", IntegerRange(-10, 10), "quality-variable"),)
    )
    assert any("not higher-better" in v.message for v in validate_model(m))


def test_decision_set_must_be_free_parameters():
    m = tiny_model(decision_set=("x", "score"))
    assert any("not a parameter" in v.message for v in validate_model(m))
    m = tiny_model(
        depends=(
            WeightedSum("score_sum", "score", ("x",), (1.0,)),
            ThresholdStep("dy", "y", "x", 0.5),
        ),
    )
    assert any("output of a functional depend" in v.message for v in validate_model(m))


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluate_tiny_model():
    inst = evaluate(tiny_model(), Specification.from_mapping({"x": 1, "y": 1}))
    assert inst["score"] == 5


def test_evaluate_alert_fixture():
    alerts = load("alerts.model")
    exogenous = dict(alerts.config.initial_exogenous)
    inst = evaluate(alerts.model, alert_spec("call", "local"), exogenous)
    assert inst["capacity"] == 85
    assert inst["coverage"] == 60
    assert inst["utility"] == 145


def test_evaluate_canonicalizes_parameter_values():
    model = tiny_model(
        parameters=(Parameter("x", Boolean()), Parameter("y", IntegerRange(0, 2))),
    )
    canonical = evaluate(model, Specification.from_mapping({"x": 1, "y": 1}))
    assert canonical["score"] == 5
    for given in ({"x": True, "y": 1.0}, {"x": 1.0, "y": True}):
        spec = Specification.from_mapping(given)
        assert repr(evaluate(model, spec)) == repr(canonical)
        assert is_feasible(model, spec) is True


def test_the_trusted_evaluation_entry_matches_the_public_path():
    for seed in range(200):
        rng = random.Random(seed)
        problem = random_rop(rng, max_space=256)
        if seed % 2:
            problem = with_derived_parameter(rng, problem)
        model, exogenous = problem.model, problem.exogenous_map()
        given = _exogenous_values(model, exogenous)
        params = model.sorted_parameters
        for values in product(*(p.domain.values() for p in params)):
            spec = Specification(tuple(zip((p.id for p in params), values)))
            env, derived = _evaluated(model, spec, given)
            assert repr(_instance(model, env)) == repr(evaluate(model, spec, exogenous)), seed
            assert _feasible(model, env, derived) is is_feasible(model, spec, exogenous), seed


def test_every_evaluation_path_runs_on_the_compiled_depends(monkeypatch):
    """``eval_expr`` is only the tests' reference: evaluation, feasibility,
    the search and the oracle's completion all read a formula through its
    compiled function."""

    def refuse(expr, env):
        raise AssertionError("a formula was read through eval_expr")

    monkeypatch.setattr("ropas.model.eval_expr", refuse)
    kinds: Counter = Counter()
    for seed in range(120):
        rng = random.Random(seed)
        problem = random_rop(rng, max_space=256)
        if seed % 2:
            problem = with_derived_parameter(rng, problem)
        model, exogenous = problem.model, problem.exogenous_map()
        kinds.update(type(dep).__name__ for dep in model.depends)
        params = model.sorted_parameters
        feasible = []
        for values in product(*(p.domain.values() for p in params)):
            spec = Specification(tuple(zip((p.id for p in params), values)))
            evaluate(model, spec, exogenous)
            if is_feasible(model, spec, exogenous):
                feasible.append(spec)
        assert enumerate_specifications(model, exogenous) == feasible, seed
        assert solve_rop(problem) == brute_force_oracle(problem), seed
    functional = ("BooleanFormula", "WeightedSum", "LookupTable", "ThresholdStep")
    assert all(kinds[kind] >= 10 for kind in functional), kinds


def _one_depend_model(depend, domain, monitored=Boolean()):
    """``tiny_model`` plus the criterion ``level`` over ``domain``, computed
    by ``depend``, and the monitored variable ``load`` over ``monitored``."""
    return tiny_model(
        criteria=(
            Criterion("score", IntegerRange(-10, 10), "utility", "higher-better"),
            Criterion("level", domain, "quality-variable"),
        ),
        monitored=(MonitoredVariable("load", monitored),),
        depends=(WeightedSum("score_sum", "score", ("x", "y"), (2.0, 3.0)), depend),
    )


@pytest.mark.parametrize(
    "depend, domain, exogenous, message",
    [
        (
            BooleanFormula("form", "level", or_(not_(var("x")), var("load"), var("zz"))),
            Boolean(), {}, "missing value for variable 'load'",
        ),
        (
            BooleanFormula("form", "level", and_(var("x"), var("load"))),
            IntegerRange(2, 3), {"load": 1}, "depend 'form': value 1 not in integer range [2, 3]",
        ),
        (
            WeightedSum("total", "level", ("x", "load", "y"), (1.0, 1.0, 1.0)),
            IntegerRange(0, 3), {}, "missing value for variable 'load'",
        ),
        (
            WeightedSum("total", "level", ("x", "load"), (1.0, 1.0), 0.5),
            IntegerRange(0, 3), {"load": 1}, "depend 'total': value 2.5 not in integer range [0, 3]",
        ),
        (
            LookupTable("table", "level", ("load", "zz"), (((0, 0), 0), ((1, 0), 1))),
            IntegerRange(0, 3), {}, "missing value for variable 'load'",
        ),
        (
            LookupTable("table", "level", ("x", "load"), (((1, 0), 0), ((0, 1), 1))),
            IntegerRange(0, 3), {"load": 1}, "depend 'table' has no table entry for (1, 1)",
        ),
        (
            LookupTable("table", "level", ("x", "load"), (((1, 1), 5),)),
            IntegerRange(0, 3), {"load": 1}, "depend 'table': value 5 not in integer range [0, 3]",
        ),
        (
            ThresholdStep("step", "level", "load", 1.0),
            Boolean(), {}, "missing value for variable 'load'",
        ),
        (
            ThresholdStep("step", "level", "load", 1.0),
            IntegerRange(2, 3), {"load": 1}, "depend 'step': value 1 not in integer range [2, 3]",
        ),
    ],
)
def test_every_evaluation_error_text_of_each_depend_kind(depend, domain, exogenous, message):
    model = _one_depend_model(depend, domain)
    spec = Specification.from_mapping({"x": 1, "y": 0})
    for check in (evaluate, is_feasible):
        with pytest.raises(EvaluationError) as raised:
            check(model, spec, exogenous)
        assert str(raised.value) == message


def test_evaluate_missing_parameter():
    with pytest.raises(EvaluationError, match="misses parameter"):
        evaluate(tiny_model(), Specification.from_mapping({"x": 1}))


def test_evaluate_unknown_parameter():
    with pytest.raises(EvaluationError, match="unknown parameter"):
        evaluate(tiny_model(), Specification.from_mapping({"x": 1, "y": 0, "z": 1}))


def test_evaluate_missing_exogenous_value():
    with pytest.raises(EvaluationError, match="missing value"):
        evaluate(load("alerts.model").model, alert_spec("call", "local"))


def test_evaluate_rejects_exogenous_for_parameter():
    with pytest.raises(EvaluationError, match="exogenous value for parameter"):
        evaluate(
            tiny_model(),
            Specification.from_mapping({"x": 1, "y": 0}),
            {"x": 0},
        )


def test_evaluate_rejects_unknown_exogenous_variable():
    with pytest.raises(EvaluationError, match="unknown variable"):
        evaluate(
            tiny_model(),
            Specification.from_mapping({"x": 1, "y": 0}),
            {"mystery": 0},
        )


def test_feasibility_checks_constraints():
    m = tiny_model(
        depends=(
            WeightedSum("score_sum", "score", ("x", "y"), (2.0, 3.0)),
            Incompatibility("inc", "x", "y"),
        )
    )
    assert is_feasible(m, Specification.from_mapping({"x": 1, "y": 0}))
    assert not is_feasible(m, Specification.from_mapping({"x": 1, "y": 1}))


def test_feasibility_of_derived_parameter_is_an_equality_constraint():
    m = Model(
        criteria=(
            Criterion("score", IntegerRange(0, 4), "utility", "higher-better"),
        ),
        parameters=(Parameter("x", Boolean()), Parameter("echo", Boolean())),
        depends=(
            WeightedSum("score_sum", "score", ("x", "echo"), (1.0, 1.0)),
            ThresholdStep("echo_def", "echo", "x", 0.5),
        ),
        decision_rule="score",
        decision_set=("x",),
    )
    assert validate_model(m) == []
    assert is_feasible(m, Specification.from_mapping({"x": 1, "echo": 1}))
    assert not is_feasible(m, Specification.from_mapping({"x": 1, "echo": 0}))


def test_linear_constraint_comparators():
    def with_cmp(cmp, bound):
        return tiny_model(
            depends=(
                WeightedSum("score_sum", "score", ("x", "y"), (2.0, 3.0)),
                LinearConstraint("lc", ("x", "y"), (1.0, 1.0), cmp, bound),
            )
        )

    both = Specification.from_mapping({"x": 1, "y": 1})
    none = Specification.from_mapping({"x": 0, "y": 0})
    assert is_feasible(with_cmp("<=", 1.0), none)
    assert not is_feasible(with_cmp("<=", 1.0), both)
    assert is_feasible(with_cmp(">=", 2.0), both)
    assert not is_feasible(with_cmp(">=", 2.0), none)
    assert is_feasible(with_cmp("==", 2.0), both)
    assert not is_feasible(with_cmp("==", 2.0), none)


# ---------------------------------------------------------------------------
# Enumeration and ordering


def test_search_space_size():
    assert search_space_size(tiny_model()) == 4
    alerts = load("alerts.model").model
    assert search_space_size(alerts) == 1024
    assert search_space_size(alerts, over=("alert_sms",)) == 2


def test_enumerate_alert_fixture():
    alerts = load("alerts.model")
    m = alerts.model
    specs = enumerate_specifications(m, dict(alerts.config.initial_exogenous))
    assert len(specs) == 20
    for spec in specs:
        channels = sum(spec[f"alert_{c}"] for c in ("sms", "email", "push", "call", "radio"))
        stores = sum(spec[f"store_{b}"] for b in ("local", "cloud", "edge", "mirror", "tape"))
        assert channels == 1 and stores == 1
    keys = [canonical_key(m, s) for s in specs]
    assert keys == sorted(keys)


def test_enumerate_respects_cap():
    alerts = load("alerts.model")
    with pytest.raises(SizeLimitError):
        enumerate_specifications(alerts.model, dict(alerts.config.initial_exogenous), cap=100)


def test_canonical_key_orders_by_parameter_then_domain():
    m = tiny_model()
    s00 = Specification.from_mapping({"x": 0, "y": 0})
    s01 = Specification.from_mapping({"x": 0, "y": 1})
    s10 = Specification.from_mapping({"x": 1, "y": 0})
    assert canonical_key(m, s00) < canonical_key(m, s01) < canonical_key(m, s10)


def test_hamming_distance():
    a = Specification.from_mapping({"x": 0, "y": 1})
    b = Specification.from_mapping({"x": 1, "y": 1})
    assert hamming(a, a) == 0
    assert hamming(a, b) == 1


def test_specification_sorted_items_and_lookup():
    s = Specification.from_mapping({"b": 2, "a": 1})
    assert s.items == (("a", 1), ("b", 2))
    assert s["b"] == 2
    assert s.get("missing") is None
    with pytest.raises(KeyError):
        s["missing"]


def test_canonical_key_needs_every_parameter():
    with pytest.raises(KeyError):
        canonical_key(tiny_model(), Specification.from_mapping({"x": 0}))


def test_problem_instance_never_equals_a_specification():
    inst = ProblemInstance.from_mapping({"b": 2, "a": 1})
    assert type(inst) is ProblemInstance
    assert inst.items == (("a", 1), ("b", 2))
    assert inst == ProblemInstance.from_mapping({"a": 1, "b": 2})
    assert inst != Specification.from_mapping({"a": 1, "b": 2})


def test_complete_specification_uses_defaults_and_derivation():
    m = Model(
        criteria=(
            Criterion("score", IntegerRange(0, 9), "utility", "higher-better"),
        ),
        parameters=(
            Parameter("x", Boolean()),
            Parameter("mirror", Boolean()),
            Parameter("level", IntegerRange(0, 3), default=2),
        ),
        depends=(
            WeightedSum("score_sum", "score", ("x", "level"), (1.0, 1.0)),
            ThresholdStep("mirror_def", "mirror", "x", 0.5),
        ),
        decision_rule="score",
        decision_set=("x",),
    )
    assert validate_model(m) == []
    spec = complete_specification(m, {"x": 1})
    assert spec.as_dict() == {"x": 1, "mirror": 1, "level": 2}


def test_complete_specification_requires_default_or_derivation():
    m = tiny_model()
    with pytest.raises(EvaluationError, match="has no default"):
        complete_specification(m, {"x": 1})


@pytest.mark.parametrize(
    "depend, domain",
    [
        (WeightedSum("total", "level", ("x", "load"), (1.0, 1.0)), IntegerRange(0, 3)),
        (
            LookupTable("table", "level", ("load",), (((0,), 0), ((1,), 1), ((2,), 2))),
            IntegerRange(0, 3),
        ),
        (ThresholdStep("step", "level", "load", 1.0), Boolean()),
    ],
)
def test_functional_input_without_a_value_is_named(depend, domain):
    model = _one_depend_model(depend, domain, IntegerRange(0, 2))
    assert validate_model(model) == []
    spec = Specification.from_mapping({"x": 1, "y": 0})
    for check in (evaluate, is_feasible):
        with pytest.raises(EvaluationError, match="^missing value for variable 'load'$"):
            check(model, spec)


def test_criterion_without_a_value_is_named():
    model = tiny_model(
        criteria=(
            Criterion("score", IntegerRange(-10, 10), "utility", "higher-better"),
            Criterion("cost", IntegerRange(0, 5), "quality-variable"),
        ),
    )
    assert validate_model(model) == []
    with pytest.raises(EvaluationError, match="^missing value for variable 'cost'$"):
        evaluate(model, Specification.from_mapping({"x": 1, "y": 0}))


def test_constraint_input_without_a_value_is_named():
    model = tiny_model(
        monitored=(MonitoredVariable("load", IntegerRange(0, 2)),),
        depends=(
            WeightedSum("score_sum", "score", ("x", "y"), (2.0, 3.0)),
            LinearConstraint("cap", ("x", "load"), (1.0, 1.0), "<=", 2.0),
        ),
    )
    assert validate_model(model) == []
    with pytest.raises(EvaluationError, match="^missing value for variable 'load'$"):
        is_feasible(model, Specification.from_mapping({"x": 1, "y": 0}))
