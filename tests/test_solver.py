"""Optimization: classification, exact search, and the goal-graph encoding."""

import random
from dataclasses import replace

import pytest

from genmodels import (
    at_most_one_rop,
    large_integral_rows,
    random_goal_graph,
    random_rop,
    with_derived_parameter,
    with_real_coefficients,
)
from ropas.domains import Boolean, Enumerated, IntegerRange, RealGrid
from ropas.errors import DefinitionError, EvaluationError, RopasError, SizeLimitError
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
    LinearConstraint,
    enumerate_specifications,
    evaluate,
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
from shipped import load


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
    alerts = load("alerts.model")
    c = classify(rop(alerts.model, dict(alerts.config.initial_exogenous)))
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
    alerts = load("alerts.model")
    result = solve_rop(rop(alerts.model, dict(alerts.config.initial_exogenous)))
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


def test_solve_names_a_decision_rule_that_nothing_computes():
    """No depend computes ``score`` and no exogenous value gives it, so the
    search reaches a leaf without the value it maximizes."""
    m = Model(
        criteria=(Criterion("score", IntegerRange(0, 10), "utility", "higher-better"),),
        parameters=(Parameter("x", Boolean(), 0),),
        decision_rule="score",
        decision_set=("x",),
    )
    assert validate_model(m) == []
    with pytest.raises(EvaluationError, match="^missing value for variable 'score'$"):
        solve_rop(rop(m))


def test_solve_cap():
    alerts = load("alerts.model")
    problem = rop(alerts.model, dict(alerts.config.initial_exogenous))
    with pytest.raises(SizeLimitError):
        solve_rop(problem, cap=100)
    with pytest.raises(SizeLimitError):
        brute_force_oracle(problem, cap=100)


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


def test_oracle_computes_a_derived_parameter_from_a_default():
    m = Model(
        criteria=(
            Criterion("u", IntegerRange(0, 9), "utility", "higher-better"),
        ),
        parameters=(
            Parameter("p", Boolean()),
            Parameter("fix", Boolean(), default=1),
            Parameter("d", Boolean()),
        ),
        depends=(
            BooleanFormula("d_def", "d", not_(var("fix"))),
            WeightedSum("u_sum", "u", ("p", "d"), (1.0, 2.0)),
        ),
        decision_rule="u",
        decision_set=("p",),
    )
    assert validate_model(m) == []
    fast, slow = solve_rop(rop(m)), brute_force_oracle(rop(m))
    assert isinstance(fast, OptimalSolutions)
    assert fast.optima == (Specification.from_mapping({"d": 0, "fix": 1, "p": 1}),)
    assert fast == slow


def test_oracle_and_search_give_a_default_in_canonical_form():
    m = linear_toy(
        parameters=(
            Parameter("x", Boolean()),
            Parameter("y", Boolean()),
            Parameter("q", IntegerRange(0, 2), True),
        ),
        depends=(WeightedSum("score_sum", "score", ("x", "y", "q"), (2.0, 3.0, 1.0)),),
    )
    fast, slow = solve_rop(rop(m)), brute_force_oracle(rop(m))
    assert isinstance(fast, OptimalSolutions)
    assert repr(fast.optima[0]["q"]) == "1"
    assert repr(fast) == repr(slow)


def test_search_agrees_with_oracle_with_a_derived_parameter():
    rng = random.Random(2718)
    defaulted = 0
    for i in range(200):
        problem = with_derived_parameter(rng, random_rop(rng, max_space=256))
        defaulted += problem.model.has_variable("fix0")
        assert solve_rop(problem) == brute_force_oracle(problem), i
    assert defaulted > 0


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


def test_a_pinned_enumeration_is_the_brute_force_one_filtered_by_its_pins():
    rng = random.Random(315)
    compared = 0
    for i in range(150):
        problem = random_rop(rng, max_space=256)
        if i % 2:
            problem = with_derived_parameter(rng, problem)
        model, exogenous = problem.model, problem.exogenous_map()
        free = [p for p in model.sorted_parameters if p.id not in model.producers]
        pins = {p.id: rng.choice(p.domain.values()) for p in free if rng.random() < 0.5}
        slow = _enumeration_outcome(brute_force_enumeration, model, exogenous)
        # A pin may exclude the branch where brute force fails to evaluate.
        if isinstance(slow, list):
            kept = [s for s in slow if all(s[pid] == v for pid, v in pins.items())]
            assert enumerate_specifications(model, exogenous, pinned=pins) == kept, i
            compared += bool(pins)
    assert compared > 50, compared


def test_enumeration_pins_compare_canonical_and_name_free_parameters():
    m = Model(
        criteria=(Criterion("u", IntegerRange(0, 9), "utility", "higher-better"),),
        parameters=(
            Parameter("a", Boolean()),
            Parameter("b", Boolean()),
            Parameter("c", IntegerRange(0, 1)),
        ),
        depends=(
            BooleanFormula("a_def", "a", not_(var("b"))),
            WeightedSum("u_sum", "u", ("a", "b", "c"), (1.0, 2.0, 3.0)),
        ),
        decision_rule="u",
        decision_set=("b", "c"),
    )
    ones = [s for s in brute_force_enumeration(m) if s["c"] == 1]
    assert enumerate_specifications(m, pinned={"c": 1.0}) == ones
    assert enumerate_specifications(m, pinned={"c": 2}) == []
    for pid in ("a", "zz"):
        with pytest.raises(EvaluationError, match=f"^cannot pin '{pid}': "):
            enumerate_specifications(m, pinned={pid: 0})


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
    g = load("dispatch.model").goals
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


def _decoded(g, result):
    if isinstance(result, Infeasible):
        return []
    return sorted((decode_selection(g, s) for s in result.optima), key=sorted)


def test_encode_derives_atoms_outside_the_partitions():
    g = goal_graph(
        atoms=("r", "s", "x"),
        refinements=(("x", ("s",)), ("r", ("x",))),
        r_atoms=("r",),
        s_atoms=("s",),
    )
    problem = encode_rdrp(g)
    x = problem.model.criterion("x")
    assert x.kind == "quality-variable"
    assert _decoded(g, solve_rop(problem)) == solve_rdrp(g) == [frozenset({"s"})]


def test_encode_unfolds_refinement_cycles():
    # t and s derive each other, and r2 and r1 do too; a fixed point read as
    # equations would also let r1 and r2 hold with nothing selected.
    g = goal_graph(
        atoms=("r1", "r2", "s", "t", "u"),
        refinements=(
            ("r1", ("r2",)),
            ("r2", ("r1",)),
            ("r2", ("t",)),
            ("t", ("s",)),
            ("s", ("t",)),
            ("u", ("u", "s")),
        ),
        conflicts=(("r1", "u"),),
        r_atoms=("r1", "r2"),
        s_atoms=("s", "t", "u"),
    )
    problem = encode_rdrp(g)
    assert validate_model(problem.model) == []
    assert {c.id for c in problem.model.criteria} >= {"r1__step1", "t__derived__step1"}
    assert _decoded(g, solve_rop(problem)) == solve_rdrp(g) == [
        frozenset({"s"}),
        frozenset({"t"}),
    ]


def test_encode_rejects_atoms_named_like_a_round():
    g = goal_graph(
        atoms=("r", "q", "s", "r__step1"),
        refinements=(("r", ("q",)), ("q", ("r",)), ("q", ("s",))),
        r_atoms=("r",),
        s_atoms=("s",),
    )
    with pytest.raises(DefinitionError, match="clash"):
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


def test_encode_agrees_with_direct_search_on_wide_graphs():
    rng = random.Random(6)
    for i in range(200):
        g = random_goal_graph(rng, max_s=7, wide=True)
        assert _decoded(g, solve_rop(encode_rdrp(g))) == solve_rdrp(g), i


# ---------------------------------------------------------------------------
# Objective cut (branch and bound on the decision rule)


def _count_leaves(monkeypatch) -> list:
    """Patch solve_rop's search so that every visited leaf is recorded."""
    import ropas.solver as solver

    leaves: list = []
    search = solver.search_specifications

    def counted(model, free, exogenous, visit):
        def record(spec, env):
            leaves.append(spec)
            return visit(spec, env)

        search(model, free, exogenous, record)

    monkeypatch.setattr(solver, "search_specifications", counted)
    return leaves


def test_objective_cut_visits_only_the_singleton_optima(monkeypatch):
    atoms = [f"s{i:02d}" for i in range(16)]
    graph = goal_graph(
        atoms=("r", *atoms),
        refinements=[("r", (a,)) for a in atoms],
        r_atoms=("r",),
        s_atoms=atoms,
    )
    leaves = _count_leaves(monkeypatch)
    result = solve_rop(encode_rdrp(graph))
    assert isinstance(result, OptimalSolutions)
    assert [decode_selection(graph, spec) for spec in result.optima] == [
        frozenset({a}) for a in reversed(atoms)
    ]
    assert result.objective_value == -1
    assert len(leaves) <= 16


def test_objective_cut_keeps_every_tie_in_order():
    k = 4
    channels = [f"a{i}" for i in range(k)]
    stores = [f"s{i}" for i in range(k)]
    m = Model(
        criteria=(Criterion("u", IntegerRange(0, 2 * k), "utility", "higher-better"),),
        parameters=tuple(Parameter(p, Boolean()) for p in channels + stores),
        monitored=(MonitoredVariable("ok", IntegerRange(0, 1)),),
        depends=(
            WeightedSum("u_sum", "u", tuple(channels + stores), (1.0,) * (2 * k)),
            CardinalityConstraint("one_channel", tuple(channels), "==", 1),
            CardinalityConstraint("one_store", tuple(stores), "==", 1),
            LinearConstraint("gate", ("a1", "ok"), (1.0, -1.0), "<=", 0.0),
        ),
        decision_rule="u",
        decision_set=tuple(channels + stores),
    )
    problem = rop(m, {"ok": 0})
    fast = solve_rop(problem)
    assert isinstance(fast, OptimalSolutions)
    assert len(fast.optima) == (k - 1) * k
    assert fast == brute_force_oracle(problem)


class _TriedBooleans(Boolean):
    """The boolean domain, noting in ``tries`` each value the search tries."""

    def __init__(self, tries: list) -> None:
        object.__setattr__(self, "tries", tries)

    def values(self):
        tries = self.tries

        class Tried:
            def __iter__(self):
                for value in (0, 1):
                    tries.append(value)
                    yield value

        return Tried()


def test_at_most_one_bound_halves_the_tries_and_keeps_every_leaf(monkeypatch):
    """The one-hot model of the ``solve-onehot`` benchmark: exactly one of
    ten channels and one of ten stores, the channel only while its ``ok``
    reads 1, under the benchmark's seed-3 weights, solved in its 64
    environments of three failed channels each.  The objective row alone
    bounds each channel's store subtree by every open store's weight; the
    ``== 1`` rows let at most one of them count."""
    rng = random.Random("solve-onehot/3")
    k = 10
    weights = [rng.randint(1, 12) for _ in range(2 * k)]
    environments = []
    for _ in range(64):
        failed = set(rng.sample(range(k), 3))
        environments.append({f"ok{i:02d}": int(i not in failed) for i in range(k)})
    channels, stores = [f"a{i:02d}" for i in range(k)], [f"s{i:02d}" for i in range(k)]
    tries: list = []
    m = Model(
        criteria=(Criterion("u", IntegerRange(0, sum(weights)), "utility", "higher-better"),),
        parameters=tuple(Parameter(p, _TriedBooleans(tries), 0) for p in channels + stores),
        monitored=tuple(MonitoredVariable(f"ok{i:02d}", Boolean()) for i in range(k)),
        depends=(
            WeightedSum("u_sum", "u", tuple(channels + stores), tuple(map(float, weights))),
            CardinalityConstraint("one_channel", tuple(channels), "==", 1),
            CardinalityConstraint("one_store", tuple(stores), "==", 1),
            *(
                LinearConstraint(f"gate_{a}", (a, f"ok{i:02d}"), (1.0, -1.0), "<=", 0.0)
                for i, a in enumerate(channels)
            ),
        ),
        decision_rule="u",
        decision_set=tuple(channels + stores),
    )
    # Branch and bound visits, in search order, each feasible leaf that ties
    # or beats every leaf before it.
    expected = []
    for env in environments:
        best = None
        for spec in enumerate_specifications(m, env):
            value = evaluate(m, spec, env)["u"]
            if best is None or value >= best:
                best = value
                expected.append(spec)
    leaves = _count_leaves(monkeypatch)
    tries.clear()
    for env in environments:
        assert isinstance(solve_rop(rop(m, env)), OptimalSolutions)
    assert leaves == expected
    # Without the at-most-one bound, the 64 solves tried 42,118 values.
    assert 2 * len(tries) <= 42_118, len(tries)


def test_search_agrees_with_oracle_on_at_most_one_groups():
    rng = random.Random(1967)
    grouped = 0
    for i in range(200):
        problem = at_most_one_rop(rng)
        grouped += bool(problem.model._compiled.objective[1])
        assert solve_rop(problem) == brute_force_oracle(problem), i
    assert grouped >= 120, grouped


def test_search_agrees_with_oracle_with_real_coefficients():
    rng = random.Random(1618)
    for i in range(320):
        problem = random_rop(rng, max_space=256)
        if i % 2:
            problem = with_derived_parameter(rng, problem)
        problem = with_real_coefficients(rng, problem)
        model, exogenous = problem.model, problem.exogenous_map()
        assert solve_rop(problem) == brute_force_oracle(problem), i
        assert enumerate_specifications(model, exogenous) == brute_force_enumeration(
            model, exogenous
        ), i


def large_real_rows(rng: random.Random) -> Model:
    """Rows with terms of about 1e7 to 1e8 in tenths, where one ulp of a
    partial sum exceeds TOLERANCE.  Each bound is the sum, in
    ``is_feasible``'s order, of one leaf drawn for the model, so every row
    holds there exactly and an ``==`` row holds nowhere else."""
    n = rng.randint(3, 6)
    ids = [f"p{j}" for j in range(n)]
    domains = {
        pid: Boolean() if rng.random() < 0.5 else IntegerRange(0, rng.randint(1, 3))
        for pid in ids
    }
    leaf = {pid: rng.choice(list(domain.values())) for pid, domain in domains.items()}
    depends = [
        WeightedSum("def_u", "u", tuple(ids), tuple(float(rng.randint(-3, 3)) for _ in ids))
    ]
    for c in range(rng.randint(1, 3)):
        inputs = tuple(rng.sample(ids, rng.randint(2, n)))
        coefficients = tuple(
            rng.choice((1, -1)) * rng.randint(10**8, 10**9) / 10 for _ in inputs
        )
        total = 0.0
        for coeff, name in zip(coefficients, inputs):
            total += coeff * float(leaf[name])
        comparator = rng.choice(("==", "==", "<=", ">="))
        depends.append(LinearConstraint(f"c{c}", inputs, coefficients, comparator, total))
    m = Model(
        criteria=(Criterion("u", IntegerRange(-9 * n, 9 * n), "utility", "higher-better"),),
        parameters=tuple(Parameter(pid, domain) for pid, domain in domains.items()),
        depends=tuple(depends),
        decision_rule="u",
        decision_set=tuple(ids),
    )
    assert validate_model(m) == []
    return m


def test_search_agrees_with_oracle_on_large_real_rows():
    rng = random.Random(2718)
    for i in range(300):
        problem = rop(large_real_rows(rng))
        assert solve_rop(problem) == brute_force_oracle(problem), i
        assert enumerate_specifications(problem.model) == brute_force_enumeration(
            problem.model
        ), i


def test_search_agrees_with_oracle_on_large_integral_rows():
    rng = random.Random(3141)
    exact = set()
    for i in range(200):
        model = large_integral_rows(rng)
        exact.update(row.exact for row in model._compiled.rows)
        problem = rop(model)
        assert solve_rop(problem) == brute_force_oracle(problem), i
        assert enumerate_specifications(model) == brute_force_enumeration(model), i
    # The rows' scales fall on both sides of 2**50.
    assert exact == {False, True}


def test_search_undoes_a_branch_that_fails_part_way_through_propagation():
    # x=0 computes c=1, which updates ``c + y == 1`` and then fails ``c <= 0``
    # in the same propagation.  Its sibling x=1 must see c recomputed as 0 and
    # the first row's interval restored, so only y=1 completes it.
    m = Model(
        criteria=(Criterion("c", IntegerRange(0, 1), "utility", "higher-better"),),
        parameters=(Parameter("x", Boolean()), Parameter("y", Boolean())),
        depends=(
            WeightedSum("c_of_x", "c", ("x",), (-1.0,), 1.0),
            LinearConstraint("pair", ("c", "y"), (1.0, 1.0), "==", 1.0),
            LinearConstraint("low", ("c",), (1.0,), "<=", 0.0),
        ),
        decision_rule="c",
        decision_set=("x", "y"),
    )
    assert validate_model(m) == []
    assert m._compiled.watch["c"][0][0] == 0  # "pair" is updated before "low"
    expected = [Specification.from_mapping({"x": 1, "y": 1})]
    assert enumerate_specifications(m) == brute_force_enumeration(m) == expected
    assert solve_rop(rop(m)) == brute_force_oracle(rop(m))


def test_solve_sums_exact_rows_only_while_setting_up(monkeypatch):
    import ropas.model as model_module

    calls = []
    row_interval = model_module._row_interval

    def counted(row, env):
        calls.append(row)
        return row_interval(row, env)

    monkeypatch.setattr(model_module, "_row_interval", counted)
    alerts = load("alerts.model")
    problem = rop(alerts.model, dict(alerts.config.initial_exogenous))
    rows = alerts.model._compiled.rows  # the constraint rows, then the rule row
    assert isinstance(solve_rop(problem), OptimalSolutions)
    assert calls == list(rows)
    assert all(row.exact for row in rows)


def narrow_rule(producer) -> Model:
    """Maximise u over a boolean x; x=1 gives u=-1, outside u's domain."""
    m = Model(
        criteria=(Criterion("u", IntegerRange(0, 0), "utility", "higher-better"),),
        parameters=(Parameter("x", Boolean()),),
        depends=(producer,),
        decision_rule="u",
        decision_set=("x",),
    )
    assert validate_model(m) == []
    return m


def test_cut_branch_raises_no_evaluation_error():
    problem = rop(narrow_rule(WeightedSum("u_sum", "u", ("x",), (-1.0,))))
    result = solve_rop(problem)
    assert result == OptimalSolutions(
        optima=(Specification.from_mapping({"x": 0}),), objective_value=0
    )
    with pytest.raises(EvaluationError, match="not in integer range"):
        brute_force_oracle(problem)


def test_rule_from_another_producer_gets_no_cut():
    # x=1 is worse for u and puts c outside its domain.  A weighted-sum rule
    # cuts that branch before c is computed; a lookup-table rule does not.
    def problem(producer):
        return rop(
            Model(
                criteria=(
                    Criterion("u", IntegerRange(0, 1), "utility", "higher-better"),
                    Criterion("c", IntegerRange(0, 0)),
                ),
                parameters=(Parameter("x", Boolean()),),
                depends=(producer, WeightedSum("c_sum", "c", ("x",), (-1.0,))),
                decision_rule="u",
                decision_set=("x",),
            )
        )

    summed = problem(WeightedSum("u_sum", "u", ("x",), (-1.0,), 1.0))
    assert solve_rop(summed).optima == (Specification.from_mapping({"x": 0}),)
    looked_up = problem(LookupTable("u_table", "u", ("x",), (((0,), 1), ((1,), 0))))
    with pytest.raises(EvaluationError, match="not in integer range"):
        solve_rop(looked_up)


def test_rop_validates_each_model_once(monkeypatch):
    import ropas.model as model_module
    import ropas.solver as solver

    calls = []
    validate = model_module.validate_model

    def counted(m):
        calls.append(m)
        return validate(m)

    for module in (model_module, solver):
        monkeypatch.setattr(module, "validate_model", counted, raising=False)
    alerts = load("alerts.model")
    m, exogenous = alerts.model, dict(alerts.config.initial_exogenous)
    for _ in range(100):
        rop(m, exogenous)
    assert len(calls) == 1
    assert validate_model(m) == [] and validate_model(m) is not validate_model(m)


def test_rop_construction_errors():
    bad_default = (Parameter("x", Boolean(), 5), Parameter("y", Boolean()))
    with pytest.raises(DefinitionError, match="^invalid model: x: default 5 outside domain$"):
        rop(replace(linear_toy(), parameters=bad_default))
    with pytest.raises(DefinitionError, match="^model has no decision rule$"):
        rop(replace(linear_toy(), decision_rule=None))
    with pytest.raises(DefinitionError, match="^model has an empty decision set$"):
        rop(replace(linear_toy(), decision_set=()))
    labelled = Model(
        criteria=(Criterion("grade", Enumerated(("lo", "hi")), "utility", "higher-better"),),
        parameters=(Parameter("x", Boolean()),),
        depends=(LookupTable("grade_of", "grade", ("x",), (((0,), "lo"), ((1,), "hi"))),),
        decision_rule="grade",
        decision_set=("x",),
    )
    assert validate_model(labelled) == []
    with pytest.raises(DefinitionError, match="^decision rule 'grade' has no numeric ordering$"):
        rop(labelled)
