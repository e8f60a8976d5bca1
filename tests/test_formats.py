"""Text formats: scalars, domains, expressions, model files, traces, reports."""

import re
import sys
from pathlib import Path

import pytest

from ropas.domains import Boolean, Enumerated, IntegerRange, RealGrid
from ropas.formats import (
    MODEL_HEADER,
    TRACE_HEADER,
    ModelBundle,
    ParseFailure,
    format_number,
    format_scalar,
    parse_domain,
    parse_expr,
    parse_model,
    parse_scalar,
    parse_terms,
    parse_trace,
    serialize_domain,
    serialize_expr,
    serialize_model,
    serialize_terms,
    serialize_trace,
    write_report,
)
from ropas.formats import _RECORDS
from ropas.model import and_, not_, or_, var
from ropas.runtime import Event, EventTrace, run_simulation
from reference import eval_expr
from shipped import load

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
EVERY_RECORD = Path(__file__).resolve().parent / "every_record.model"

# A bundle holds one utility and one transform, so each of these variants of
# every_record.model swaps in another kind of those records.
ONE_OF_A_KIND = (
    ("lookup-table 1,0=0.0 ; 1,1=0.5 ; 2,0=0.25 ; 2,1=1.0",
     "weighted-sum 0.5*speed + 1.0*safe + 0.25"),
    ("table 0.0:0.0 0.5:0.4 1.0:1.0", "power 0.5"),
    ("table 0.0:0.0 0.5:0.4 1.0:1.0", "identity"),
)


# ---------------------------------------------------------------------------
# Scalars


def test_scalar_lexical_typing():
    assert parse_scalar("7") == 7 and isinstance(parse_scalar("7"), int)
    assert parse_scalar("-3") == -3
    assert parse_scalar("7.5") == 7.5
    assert parse_scalar("1e3") == 1000.0
    assert parse_scalar("radio") == "radio"
    assert parse_scalar("x7") == "x7"


# token -> its value: an optional sign, then Unicode decimal digits, is an
# int; anything float() takes is a float; the rest is a label.
SCALARS = {
    "+7": 7,
    "-0": 0,
    "007": 7,
    "1_0": 10.0,
    "\u0663": 3,  # ARABIC-INDIC DIGIT THREE, a decimal digit
    "\u00b2": "\u00b2",  # SUPERSCRIPT TWO, a digit but not a decimal one
    "1e3": 1000.0,
    "1.": 1.0,
    "0x10": "0x10",
    "+-1": "+-1",
    "-": "-",
    "nan": float("nan"),
}


def _outcome_issue(token: str) -> str:
    """The message a lone outcome ``token`` outside its attribute's domain
    gets; it shows the outcome's ``repr``."""
    text = (
        "ropas-model v1\n[attributes]\nattribute x enum:zz\n"
        f"[alternatives]\nalternative a\nlottery a x {token}:1.0\n"
        "[utility]\nweighted-sum 1.0*x\n"
    )
    with pytest.raises(ParseFailure) as failure:
        parse_model(text)
    found = [i.message for i in failure.value.issues if "outcome" in i.message]
    assert len(found) == 1, failure.value.issues
    return found[0]


@pytest.mark.parametrize("token, value", SCALARS.items(), ids=[ascii(t) for t in SCALARS])
def test_scalar_typing_by_shape(token, value):
    typed = parse_scalar(token)
    assert (type(typed), repr(typed)) == (type(value), repr(value))
    assert _outcome_issue(token) == f"a/x: outcome {value!r} outside the attribute domain"


def test_integer_shape_is_unicode_decimal_digits():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    decimal = set(re.findall(r"\d", every))
    assert decimal == {ch for ch in every if ch.isdecimal()}
    assert all(type(parse_scalar(ch)) is int and type(parse_scalar("-" + ch)) is int for ch in decimal)
    others = [ch for ch in every if (ch.isdigit() or ch.isnumeric()) and ch not in decimal]
    assert others and not any(type(parse_scalar(ch)) is int for ch in others)


def test_nan_outcomes_stay_two_values():
    text = (
        "ropas-model v1\n[attributes]\nattribute x int:0:1\n"
        "[alternatives]\nalternative a\nalternative b\n"
        "lottery a x nan:0.5 nan:0.5\nlottery b x nan:1.0\n"
        "[utility]\nweighted-sum 1.0*x\n"
    )
    with pytest.raises(ParseFailure) as failure:
        parse_model(text)
    messages = [i.message for i in failure.value.issues]
    assert messages == [
        "a/x: outcome nan outside the attribute domain",
        "a/x: outcome nan outside the attribute domain",
        "b/x: outcome nan outside the attribute domain",
    ]


def test_scalar_round_trip():
    for value in (0, -12, 3, 0.5, -2.25, 1e-7, "label", "sms"):
        assert parse_scalar(format_scalar(value)) == value
    # A boolean is written as the integer it equals.
    assert (format_scalar(True), format_scalar(False)) == ("1", "0")


def test_float_formatting_round_trips_exactly():
    for value in (0.1, 1 / 3, 1e-17, 123456.789):
        assert parse_scalar(format_scalar(value)) == value


# ---------------------------------------------------------------------------
# Domains


def test_domain_serialization_forms():
    assert serialize_domain(Boolean()) == "bool"
    assert serialize_domain(IntegerRange(-2, 9)) == "int:-2:9"
    assert serialize_domain(RealGrid(0.0, 1.0, 0.25)) == "grid:0.0:1.0:0.25"
    assert serialize_domain(Enumerated(("sms", "email"))) == "enum:sms,email"


def test_domain_round_trip():
    for d in (
        Boolean(),
        IntegerRange(0, 300),
        RealGrid(-1.0, 1.0, 0.5),
        Enumerated((6.0, 9.0, 12.0)),
        Enumerated(("a", "b", "c")),
    ):
        assert parse_domain(serialize_domain(d)) == d


def test_domain_parse_errors():
    for token in ("", "int", "int:1", "int:2:1", "grid:0:1:0.3", "mystery:1"):
        with pytest.raises(ValueError):
            parse_domain(token)


# ---------------------------------------------------------------------------
# Expressions and terms


def test_expr_round_trip_preserves_meaning():
    exprs = (
        var("a"),
        not_(var("a")),
        and_(var("a"), var("b"), var("c")),
        or_(and_(var("a"), not_(var("b"))), var("c")),
        not_(or_(var("a"), var("b"))),
        and_(),
        or_(),
    )
    envs = [
        {"a": a, "b": b, "c": c}
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
    ]
    for expr in exprs:
        back = parse_expr(serialize_expr(expr))
        for env in envs:
            assert eval_expr(back, env) == eval_expr(expr, env)


def test_expr_serialization_is_stable():
    text = "!(a & b) | c | 1"
    assert serialize_expr(parse_expr(text)) == text


def test_expr_parse_errors():
    for text in ("", "a &", "(a", "a | | b", "a ! b", "&"):
        with pytest.raises(ValueError):
            parse_expr(text)


def test_terms_round_trip():
    inputs, weights, offset = ("x", "y"), (2.0, -1.5), 3.0
    text = serialize_terms(inputs, weights, offset)
    parsed_terms, parsed_offset = parse_terms(text)
    assert parsed_terms == [(2.0, "x"), (-1.5, "y")]
    assert parsed_offset == 3.0


def test_terms_without_offset():
    terms, offset = parse_terms("1.0*x + 2.0*y")
    assert terms == [(1.0, "x"), (2.0, "y")]
    assert offset == 0.0


# ---------------------------------------------------------------------------
# Model files


@pytest.mark.parametrize(
    "name", ["alerts.model", "shock.model", "dispatch.model", "respond.model"]
)
def test_model_serialization_round_trip(name):
    text = (FIXTURES / name).read_text()
    bundle = parse_model(text)
    assert serialize_model(bundle) == text
    assert parse_model(serialize_model(bundle)) == bundle


def _record_kinds(text: str) -> set[tuple[str, str]]:
    section = ""
    kinds = set()
    for line in text.splitlines()[1:]:
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            kinds.add((section, line.split()[0]))
    return kinds


def test_every_record_kind_round_trips():
    """every_record.model and its variants hold every record kind the format
    has; a new kind fails here until it has a round-trip case."""
    text = EVERY_RECORD.read_text()
    kinds = set()
    for variant in (text, *(text.replace(old, new) for old, new in ONE_OF_A_KIND)):
        assert serialize_model(parse_model(variant)) == variant
        kinds |= _record_kinds(variant)
    assert kinds == set(_RECORDS)


def test_parse_model_requires_the_header():
    with pytest.raises(ParseFailure) as info:
        parse_model("something else\n")
    assert any(MODEL_HEADER in issue.message for issue in info.value.issues)


def test_parse_model_collects_every_issue():
    text = "\n".join(
        (
            MODEL_HEADER,
            "[variables]",
            "criterion score int:0:10 kind=utility pref=higher-better",
            "parameter x bool",
            "banana",
            "[depends]",
            "weighted-sum s -> score : 1.0*ghost",
            "[decision]",
            "rule score",
            "set x",
            "",
        )
    )
    with pytest.raises(ParseFailure) as info:
        parse_model(text)
    issues = info.value.issues
    assert len(issues) == 2
    syntax = [i for i in issues if i.kind == "syntax"]
    semantic = [i for i in issues if i.kind == "semantic"]
    assert len(syntax) == 1 and syntax[0].line == 5
    assert len(semantic) == 1 and semantic[0].line == 7
    assert "ghost" in semantic[0].message
    assert str(syntax[0]).startswith("line 5: syntax:")


def test_parse_model_flags_semantic_trigger_problems():
    text = "\n".join(
        (
            MODEL_HEADER,
            "[variables]",
            "criterion score int:0:10 kind=utility pref=higher-better",
            "parameter x bool",
            "[depends]",
            "weighted-sum s -> score : 1.0*x",
            "[decision]",
            "rule score",
            "set x",
            "[triggers]",
            "trigger ghost in [0,*]",
            "",
        )
    )
    with pytest.raises(ParseFailure) as info:
        parse_model(text)
    assert any(i.kind == "semantic" and i.line == 11 for i in info.value.issues)


def test_parse_model_locates_cross_record_issues_at_their_records():
    text = "\n".join(
        (
            MODEL_HEADER,
            "[variables]",
            "criterion score int:0:10 kind=utility pref=higher-better",
            "parameter p bool",
            "monitored m bool",
            "[decision]",
            "rule v",
            "set p,zz",
            "[simulation]",
            "initial m=0,q=1",
            "initial-spec p=1,r=0",
            "change-scope m bool",
            "",
        )
    )
    with pytest.raises(ParseFailure) as info:
        parse_model(text)
    assert [(i.line, i.message) for i in info.value.issues] == [
        (7, "decision rule: 'v' is not a criterion"),
        (8, "decision set: 'zz' is not a parameter"),
        (11, "initial-spec must assign exactly the parameters (missing [], extra ['r'])"),
        (10, "initial value for non-monitored variable 'q'"),
        (12, "change-scope variable 'm' is already in the model"),
    ]


@pytest.mark.parametrize(
    "records, message",
    [
        (("[goalgraph]", "atom u r", "[variables]", "criterion u int:0:3 kind=bogus"),
         "u: unknown criterion kind 'bogus'"),
        (("[attributes]", "attribute u int:0:3", "[variables]", "criterion u int:0:3 kind=bogus"),
         "u: unknown criterion kind 'bogus'"),
        (("[alternatives]", "alternative p", "[variables]", "parameter p bool default=7"),
         "p: default 7 outside domain"),
        (("[variables]", "criterion utility int:0:3 kind=utility pref=higher-better",
          "[attributes]", "attribute a int:0:3", "[alternatives]", "alternative x",
          "lottery x a 1:1.0", "[utility]", "weighted-sum nan*a"),
         "utility: weight nan is not a finite number"),
    ],
)
def test_a_finding_is_located_at_a_record_of_its_own_part(records, message):
    """The finding belongs to the last record, though a record of another
    part declares the same id before it."""
    with pytest.raises(ParseFailure) as info:
        parse_model("\n".join((MODEL_HEADER, *records, "")))
    assert [i.line for i in info.value.issues if i.message == message] == [len(records) + 1]


GOAL_GRAPH = (
    f"{MODEL_HEADER}\n\n[goalgraph]\natom r r mandatory\natom s0 s\natom s1 s\n"
    "refine r <- s0\n{record}\n"
)


@pytest.mark.parametrize(
    "record, kind, message",
    [
        ("refine r <- s0,zz", "semantic", "refinement references unknown atom 'zz'"),
        ("refine r <- ,", "semantic", "refinement of 'r' has no premises"),
        ("conflict s0 zz", "semantic", "conflict references unknown atom 'zz'"),
        ("conflict s1 s1", "semantic", "conflict {'s1'} is not a pair"),
        ("atom t mandatory", "semantic", "mandatory atoms outside the requirement set: ['t']"),
        ("atom s0 s", "semantic", "duplicate atom 's0'"),
        ("atom s0 k", "semantic", "duplicate atom 's0'"),
        ("atom t r s", "syntax", "second role 's'"),
        ("atom t k k", "syntax", "second role 'k'"),
    ],
)
def test_goal_graph_findings_are_reported_at_the_record_they_name(record, kind, message):
    with pytest.raises(ParseFailure) as info:
        parse_model(GOAL_GRAPH.format(record=record))
    assert [(i.line, i.kind, i.message) for i in info.value.issues] == [(8, kind, message)]


def test_goal_graph_records_without_findings_parse():
    goals = parse_model(GOAL_GRAPH.format(record="atom t k\nconflict s1 t")).goals
    assert goals.r_atoms == {"r"} and goals.k_atoms == {"t"} and goals.s_atoms == {"s0", "s1"}
    assert goals.conflicts == {frozenset({"s1", "t"})}


@pytest.mark.parametrize(
    "record, message",
    [
        ("horizon 0", "horizon must be at least 1"),
        ("horizon -2", "horizon must be at least 1"),
        ("duration -1", "adaptation duration must be nonnegative"),
    ],
)
def test_parse_model_rejects_a_horizon_below_one_and_a_negative_duration(record, message):
    text = (FIXTURES / "shock.model").read_text(encoding="utf-8").replace("horizon 4", record)
    line = text.splitlines().index(record) + 1
    with pytest.raises(ParseFailure) as info:
        parse_model(text)
    assert [(i.kind, i.line, i.message) for i in info.value.issues] == [
        ("semantic", line, message)
    ]


def test_parse_model_rejects_unknown_sections():
    with pytest.raises(ParseFailure) as info:
        parse_model(MODEL_HEADER + "\n[mystery]\n")
    assert any("unknown section" in i.message for i in info.value.issues)


def test_parse_model_accepts_comments_and_blank_lines():
    text = "\n".join(
        (
            MODEL_HEADER,
            "",
            "# full system description",
            "[variables]",
            "criterion score int:0:10 kind=utility pref=higher-better",
            "# the only decision",
            "parameter x bool",
            "[depends]",
            "weighted-sum s -> score : 1.0*x",
            "[decision]",
            "rule score",
            "set x",
            "",
        )
    )
    bundle = parse_model(text)
    assert bundle.model is not None
    assert bundle.model.parameter("x").domain == Boolean()


# ---------------------------------------------------------------------------
# Traces


def test_trace_round_trip():
    for trace in (load("alerts_failure.trace"), load("shock.trace"), EventTrace(())):
        assert parse_trace(serialize_trace(trace)) == trace


def test_trace_file_fixtures_parse():
    assert load("alerts_failure.trace") == EventTrace((Event(2, "alert_call_ok", 0),))
    assert load("shock.trace") == EventTrace((Event(1, "power_grid", 0), Event(2, "shock", 1)))


def test_trace_requires_header():
    with pytest.raises(ParseFailure) as info:
        parse_trace("t=0 a=1\n")
    assert any(TRACE_HEADER in i.message for i in info.value.issues)


def test_trace_rejects_malformed_lines():
    with pytest.raises(ParseFailure) as info:
        parse_trace(TRACE_HEADER + "\nnot an event\n")
    assert any(i.line == 2 and i.kind == "syntax" for i in info.value.issues)


def test_trace_decreasing_ticks_cite_both_lines():
    text = TRACE_HEADER + "\nt=5 a=1\nt=3 a=0\n"
    with pytest.raises(ParseFailure) as info:
        parse_trace(text)
    message = "; ".join(str(i) for i in info.value.issues)
    assert "line 2" in message and "line 3" in message


def test_trace_serialization_format():
    trace = EventTrace((Event(0, "a", 1), Event(2, "b", -3)))
    assert serialize_trace(trace) == TRACE_HEADER + "\nt=0 a=1\nt=2 b=-3\n"


# ---------------------------------------------------------------------------
# Reports


def test_number_formatting():
    assert format_number(165) == "165"
    assert format_number(0.5) == "0.500000"
    assert format_number(1.0) == "1.000000"


def test_machine_report_shape():
    alerts = load("alerts.model")
    timeline, metrics = run_simulation(alerts.model, load("alerts_failure.trace"), alerts.config)
    report = write_report(timeline, metrics)
    lines = report.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("period kind=stability start=0 end=2 ")
    assert "instance=capacity=85,coverage=60,utility=145" in lines[0]
    assert lines[1].startswith("period kind=stability start=2 end=6 ")
    assert "fired=infeasible" in lines[1]
    assert "optimal=1111" in lines[1]
    assert lines[2] == (
        "metrics status=completed optimal_time_fraction=1.000000 "
        "trigger_count=0 adaptation_tick_total=0 ignored_event_count=0"
    )


def test_machine_report_includes_ignored_events():
    shock = load("shock.model")
    timeline, metrics = run_simulation(shock.model, load("shock.trace"), shock.config)
    report = write_report(timeline, metrics)
    assert "ignored=power_grid@1=0,shock@2=1" in report
    assert "optimal=1100" in report
    assert "optimal_time_fraction=0.500000" in report


def test_human_report_shape():
    shock = load("shock.model")
    timeline, metrics = run_simulation(shock.model, load("shock.trace"), shock.config)
    report = write_report(timeline, metrics, fmt="human")
    assert "status: completed" in report
    assert "period 1: stability ticks [0, 4)" in report
    assert "optimal time fraction: 0.500000" in report


def test_reports_are_deterministic():
    first, second = (
        run_simulation(alerts.model, load("alerts_failure.trace"), alerts.config)
        for alerts in (load("alerts.model"), load("alerts.model"))
    )
    assert write_report(*first) == write_report(*second)


def test_serialize_model_handles_empty_bundle():
    text = serialize_model(ModelBundle())
    assert text.startswith(MODEL_HEADER)
    assert parse_model(text) == ModelBundle()
