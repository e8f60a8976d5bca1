"""Expected utility, rankings, and compilation into an optimization problem."""

import io
import random
from contextlib import redirect_stdout
from dataclasses import replace
from math import fsum

import pytest

import ropas.decisions
import ropas.formats
from genmodels import decision_file, random_decision_model
from ropas.cli import main
from ropas.decisions import (
    Alternative,
    DecisionModel,
    IdentityTransform,
    Lottery,
    PowerTransform,
    TableTransform,
    UTILITY_CRITERION,
    daop_to_rop,
    expected_utility,
    lottery,
    rank_alternatives,
    validate_decision_model,
    validate_lottery,
    validate_transform,
)
from ropas.domains import Boolean, Enumerated, IntegerRange
from ropas.errors import DefinitionError
from ropas.model import Criterion, LookupTable, WeightedSum
from ropas.solver import OptimalSolutions, solve_rop
from shipped import FIXTURES, load


# ---------------------------------------------------------------------------
# Lotteries and transforms


def test_valid_lottery():
    assert validate_lottery(lottery((1, 0.25), (2, 0.75))) is None


def test_lottery_rejects_bad_probabilities():
    assert validate_lottery(Lottery(())) is not None
    assert "outside" in validate_lottery(lottery((1, 1.5), (2, -0.5))).message
    assert "sum" in validate_lottery(lottery((1, 0.5), (2, 0.4))).message
    assert "duplicate" in validate_lottery(lottery((1, 0.5), (1, 0.5))).message
    problem = validate_lottery(lottery((1, "0.5"), (2, 0.5)))
    assert problem.message == "probability '0.5' is not a number"


def test_identity_and_power_transforms():
    assert IdentityTransform().apply(0.3) == 0.3
    assert PowerTransform(2.0).apply(0.5) == 0.25
    assert PowerTransform(1.0).apply(0.7) == 0.7


def test_table_transform_interpolates():
    t = TableTransform(((0.0, 0.0), (0.5, 0.9), (1.0, 1.0)))
    assert t.apply(0.0) == 0.0
    assert t.apply(1.0) == 1.0
    assert t.apply(0.25) == pytest.approx(0.45)
    assert t.apply(0.75) == pytest.approx(0.95)


def test_transform_validation():
    assert validate_transform(PowerTransform(0.0))
    assert validate_transform(TableTransform(((0.0, 0.0),)))
    assert validate_transform(TableTransform(((0.0, 0.0), (0.4, 0.8), (0.3, 0.9), (1.0, 1.0))))
    assert validate_transform(TableTransform(((0.0, 0.0), (0.5, 0.9), (1.0, 0.8))))
    assert validate_transform(TableTransform(((0.1, 0.0), (1.0, 1.0))))
    assert not validate_transform(TableTransform(((0.0, 0.0), (1.0, 1.0))))
    # Breakpoints are checked exactly: no margin lets an endpoint or a step
    # down by 1e-13 through.
    assert validate_transform(TableTransform(((0.0, 1e-13), (1.0, 1.0))))
    assert validate_transform(TableTransform(((0.0, 0.0), (1.0, 1.0 - 1e-13))))
    assert validate_transform(TableTransform(((0.0, 0.0), (0.5, 0.5), (0.6, 0.5 - 1e-13), (1, 1))))


def test_a_table_transform_starting_off_zero_is_rejected(capsys, tmp_path):
    path = tmp_path / "shifted.model"
    text = (FIXTURES / "respond.model").read_text(encoding="utf-8")
    path.write_text(text.replace("\nidentity\n", "\ntable 1e-13:0 1:1\n"), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "line 19: semantic: transform: first breakpoint must be (0, 0)\n"


# ---------------------------------------------------------------------------
# Model validation


def test_fixture_decision_models_are_valid():
    dm = load("respond.model").decision
    assert validate_decision_model(dm) == []
    assert validate_decision_model(replace(dm, transform=PowerTransform(2.0))) == []


def test_every_attribute_needs_exactly_one_lottery():
    dm = load("respond.model").decision
    broken = DecisionModel(
        alternatives=(Alternative("heli", dm.alternatives[0].lotteries[:1]),),
        attributes=dm.attributes,
        utility=dm.utility,
    )
    assert any("exactly one lottery" in v.message for v in validate_decision_model(broken))


def test_outcomes_must_sit_in_attribute_domains():
    dm = load("respond.model").decision
    bad_alt = Alternative(
        "heli",
        (
            ("response_time", lottery((7.0, 1.0),)),
            ("success", lottery((1, 1.0),)),
        ),
    )
    broken = DecisionModel(
        alternatives=(bad_alt,) + dm.alternatives[1:],
        attributes=dm.attributes,
        utility=dm.utility,
    )
    assert any("outside the attribute domain" in v.message for v in validate_decision_model(broken))


def test_utility_inputs_must_match_attribute_order():
    dm = load("respond.model").decision
    swapped = WeightedSum("utility", "utility", ("success", "response_time"), (60.0, -1.0))
    broken = DecisionModel(dm.alternatives, dm.attributes, swapped)
    assert any("in order" in v.message for v in validate_decision_model(broken))


def test_utility_weights_must_match_the_inputs():
    dm = load("respond.model").decision
    short = replace(dm.utility, weights=dm.utility.weights[:1])
    broken = DecisionModel(dm.alternatives, dm.attributes, short)
    assert ("utility", "weight count differs from input count") in [
        (v.subject, v.message) for v in validate_decision_model(broken)
    ]


@pytest.mark.parametrize("field", ("inputs", "weights"))
def test_a_malformed_utility_is_a_finding(field):
    dm = load("respond.model").decision
    broken = replace(dm, utility=replace(dm.utility, **{field: None}))
    assert [(v.subject, v.message) for v in validate_decision_model(broken)] == [
        ("utility", f"{field} is not a sequence")
    ]


def test_weighted_utility_needs_numeric_attributes():
    attributes = (Criterion("color", Enumerated(("red", "blue"))),)
    alternatives = (
        Alternative("a", (("color", lottery(("red", 1.0),)),)),
    )
    utility = WeightedSum("utility", "utility", ("color",), (1.0,))
    broken = DecisionModel(alternatives, attributes, utility)
    assert any("not numeric" in v.message for v in validate_decision_model(broken))


def test_joint_utility_table_must_cover_combinations():
    attributes = (Criterion("hit", Boolean()),)
    alternatives = (Alternative("a", (("hit", lottery((1, 1.0),)),)),)
    utility = LookupTable("utility", "utility", ("hit",), (((1,), 5.0),))
    broken = DecisionModel(alternatives, attributes, utility)
    assert any("covers 1 of 2" in v.message for v in validate_decision_model(broken))


# ---------------------------------------------------------------------------
# Expected utility and ranking


def test_expected_utility_of_respond_fixture():
    dm = load("respond.model").decision
    assert expected_utility(dm, "heli") == 46.2
    assert expected_utility(dm, "als_unit") == 39.0
    assert expected_utility(dm, "volunteer") == 16.0


def test_probability_transform_changes_the_ordering_stakes():
    dm = replace(load("respond.model").decision, transform=PowerTransform(2.0))
    assert expected_utility(dm, "heli") == pytest.approx(44.58)
    assert expected_utility(dm, "als_unit") == pytest.approx(29.4)
    assert expected_utility(dm, "volunteer") == pytest.approx(11.6)


def test_expected_utility_unknown_alternative():
    with pytest.raises(DefinitionError, match="unknown alternative"):
        expected_utility(load("respond.model").decision, "walk")


def test_joint_utility_expected_value():
    attributes = (Criterion("a", Boolean()), Criterion("b", Boolean()))
    alternatives = (
        Alternative(
            "mix",
            (
                ("a", lottery((0, 0.25), (1, 0.75))),
                ("b", lottery((0, 0.5), (1, 0.5))),
            ),
        ),
    )
    entries = (((0, 0), 0.0), ((0, 1), 4.0), ((1, 0), 8.0), ((1, 1), 20.0))
    dm = DecisionModel(
        alternatives,
        attributes,
        LookupTable("utility", "utility", ("a", "b"), entries),
    )
    assert validate_decision_model(dm) == []
    expected = 0.25 * 0.5 * 4.0 + 0.75 * 0.5 * 8.0 + 0.75 * 0.5 * 20.0
    assert expected_utility(dm, "mix") == pytest.approx(expected)


def test_ranking_orders_and_groups():
    ranking = rank_alternatives(load("respond.model").decision)
    assert [aid for aid, _ in ranking.entries] == ["heli", "als_unit", "volunteer"]
    assert ranking.groups == (("heli",), ("als_unit",), ("volunteer",))
    assert ranking.head_group() == ("heli",)


def test_ranking_groups_exact_ties():
    attributes = (Criterion("v", IntegerRange(0, 10)),)
    alternatives = (
        Alternative("a", (("v", lottery((4, 1.0),)),)),
        Alternative("b", (("v", lottery((4, 1.0),)),)),
        Alternative("c", (("v", lottery((2, 1.0),)),)),
    )
    dm = DecisionModel(
        alternatives, attributes, WeightedSum("utility", "utility", ("v",), (1.0,))
    )
    ranking = rank_alternatives(dm)
    assert ranking.groups == (("a", "b"), ("c",))


# ---------------------------------------------------------------------------
# Compilation


def test_compiled_problem_reproduces_the_ranking_head():
    dm = load("respond.model").decision
    result = solve_rop(daop_to_rop(dm))
    assert isinstance(result, OptimalSolutions)
    assert [s["alternative"] for s in result.optima] == ["heli"]
    assert result.objective_value == expected_utility(dm, "heli")


def test_compiled_utility_domain_holds_the_exact_expected_utilities():
    dm = load("respond.model").decision
    domain = daop_to_rop(dm).model.criterion(UTILITY_CRITERION).domain
    exact = {expected_utility(dm, alt.id) for alt in dm.alternatives}
    assert domain.labels == tuple(sorted(exact))


def test_compiled_problem_rejects_reserved_ids():
    attributes = (Criterion("v", IntegerRange(0, 10)),)
    alternatives = (
        Alternative("alternative", (("v", lottery((4, 1.0),)),)),
    )
    dm = DecisionModel(
        alternatives, attributes, WeightedSum("utility", "utility", ("v",), (1.0,))
    )
    with pytest.raises(DefinitionError, match="clash"):
        daop_to_rop(dm)


def test_compiled_problem_rejects_invalid_models():
    dm = load("respond.model").decision
    broken = DecisionModel(
        alternatives=(),
        attributes=dm.attributes,
        utility=dm.utility,
    )
    with pytest.raises(DefinitionError, match="invalid decision model"):
        daop_to_rop(broken)


def test_parse_then_compile_validates_the_decision_model_once(monkeypatch):
    calls = []
    validate = validate_decision_model

    def counting(dm):
        calls.append(dm)
        return validate(dm)

    monkeypatch.setattr(ropas.decisions, "validate_decision_model", counting)
    # A module that imports the validator by name would bypass the patch above.
    monkeypatch.setattr(ropas.formats, "validate_decision_model", counting, raising=False)
    daop_to_rop(load("respond.model").decision)
    assert len(calls) == 1


JOINT_DECISION = (
    "ropas-model v1\n\n[attributes]\nattribute a int:0:2\nattribute b bool\n\n"
    "[alternatives]\nalternative x\nalternative y\nalternative z\n"
    "lottery x a 0:0.5 2:0.5\nlottery x b 0:0.25 1:0.75\n"
    "lottery y a 1:1.0\nlottery y b 0:0.5 1:0.5\n"
    "lottery z a 0:0.2 1:0.3 2:0.5\nlottery z b 1:1.0\n\n"
    "[utility]\nlookup-table 0,0=0 ; 0,1=3 ; 1,0=2 ; 1,1=5 ; 2,0=4 ; 2,1=6\n\n"
    "[transform]\npower 2\n"
)


@pytest.mark.parametrize("kind", ("additive", "joint"))
def test_rank_oracle_transforms_each_outcome_once(monkeypatch, tmp_path, kind):
    if kind == "additive":
        path = FIXTURES / "respond.model"
    else:
        path = tmp_path / "joint.model"
        path.write_text(JOINT_DECISION, encoding="utf-8")
    dm = ropas.formats.parse_model(path.read_text(encoding="utf-8")).decision
    transform = type(dm.transform)
    calls = []
    apply = transform.apply

    def counting(self, p):
        calls.append(p)
        return apply(self, p)

    monkeypatch.setattr(transform, "apply", counting)
    with redirect_stdout(io.StringIO()) as out:
        assert main(["rank", "--oracle", str(path)]) == 0
    assert out.getvalue().splitlines()[0] == (
        "rank 1 heli 46.200000" if kind == "additive" else "rank 1 z 2.070000"
    )
    outcomes = [p for alt in dm.alternatives for attr in dm.attributes
                for _, p in alt.lottery_for(attr.id).outcomes]
    assert sorted(calls) == sorted(outcomes)


def _decision_models():
    yield load("respond.model").decision
    yield ropas.formats.parse_model(decision_file(random.Random(3))).decision
    rng = random.Random(31)
    for _ in range(30):
        yield random_decision_model(rng)


def test_expected_utility_reads_the_same_after_ranking_and_compiling():
    for fresh, used in zip(_decision_models(), _decision_models()):
        before = {alt.id: repr(expected_utility(fresh, alt.id)) for alt in fresh.alternatives}
        ranking = rank_alternatives(used)
        daop_to_rop(used)
        after = {alt.id: repr(expected_utility(used, alt.id)) for alt in used.alternatives}
        assert after == before
        assert {alt_id: repr(eu) for alt_id, eu in ranking.entries} == before


def test_a_true_outcome_ranks_compiles_and_scores_like_one():
    attributes = (Criterion("x", Boolean()), Criterion("y", Boolean()))
    utility = WeightedSum("utility", "utility", ("x", "y"), (1.0, 2.0))

    def model(one):
        alternatives = (
            Alternative("a", (("x", lottery((1, 1.0),)), ("y", lottery((one, 0.5), (0, 0.5))))),
            Alternative("b", (("x", lottery((one, 1.0),)), ("y", lottery((1, 1.0),)))),
            Alternative("c", (("x", lottery((0, 1.0),)), ("y", lottery((one, 1.0),)))),
        )
        return DecisionModel(alternatives, attributes, utility)

    plain, boolean = model(1), model(True)
    assert validate_decision_model(boolean) == []
    assert [expected_utility(boolean, aid) for aid in "abc"] == [2.0, 3.0, 2.0]
    assert rank_alternatives(boolean) == rank_alternatives(plain)
    assert rank_alternatives(boolean).groups == (("b",), ("a", "c"))
    assert solve_rop(daop_to_rop(boolean)) == solve_rop(daop_to_rop(plain))


def test_compilation_preserves_optima_on_random_models():
    rng = random.Random(23)
    for i in range(60):
        dm = random_decision_model(rng)
        assert validate_decision_model(dm) == [], i
        ranking = rank_alternatives(dm)
        result = solve_rop(daop_to_rop(dm))
        assert isinstance(result, OptimalSolutions), i
        got = {s["alternative"] for s in result.optima}
        assert got == set(ranking.head_group()), i
        head = ranking.head_group()[0]
        assert result.objective_value == expected_utility(dm, head), i


def test_additive_utility_matches_independent_summation():
    dm = load("respond.model").decision
    total = {}
    for alt in dm.alternatives:
        parts = [dm.utility.offset]
        for weight, attr in zip(dm.utility.weights, dm.attributes):
            lot = alt.lottery_for(attr.id)
            inner = fsum(p * float(v) for v, p in lot.outcomes)
            parts.append(weight * inner)
        total[alt.id] = fsum(parts)
    for aid, value in total.items():
        assert expected_utility(dm, aid) == pytest.approx(value, abs=1e-12)
