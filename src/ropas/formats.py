"""Text file formats: model files, trace files, and simulation reports.

Model files start with the header line ``ropas-model v1`` and hold bracketed
sections of one-record-per-line declarations.  Trace files start with
``ropas-trace v1`` and hold one timestamped event per line.  The exact
grammar is documented in docs/formats.md; ``parse_model`` and
``serialize_model`` round-trip, as do ``parse_trace`` and
``serialize_trace``.

Parsing never throws on the first problem.  All issues are collected with
their line numbers and reported together through ``ParseFailure``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from .decisions import (
    Alternative,
    DecisionModel,
    IdentityTransform,
    Lottery,
    PowerTransform,
    TableTransform,
    Transform,
)
from .domains import Boolean, Domain, Enumerated, IntegerRange, RealGrid, Value
from .errors import DefinitionError, RopasError
from .goals import GoalGraph, Refinement
from .model import (
    MAX_FORMULA_DEPTH,
    BoolExpr,
    BooleanFormula,
    CardinalityConstraint,
    Criterion,
    DependRelation,
    Incompatibility,
    LinearConstraint,
    LookupTable,
    Model,
    MonitoredVariable,
    Parameter,
    Specification,
    ThresholdStep,
    WeightedSum,
)
from .runtime import (
    AwarenessTrigger,
    Event,
    EventTrace,
    EvolutionConstraint,
    ForbiddenTransition,
    ForbiddenValue,
    IntervalRange,
    MaxParameterChanges,
    Metrics,
    Period,
    SimulationConfig,
    SimulationTimeline,
    TolerableRange,
    UnlessCondition,
    ValueSetRange,
    config_violations,
)

MODEL_HEADER = "ropas-model v1"
TRACE_HEADER = "ropas-trace v1"

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _integer_shaped(token: str) -> bool:
    """An optional sign, then one or more Unicode decimal digits (what
    ``re`` calls ``\\d``).  Like a pattern ending in ``$``, it allows one
    final newline, which no line of a file holds."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    return digits.removesuffix("\n").isdecimal()


@dataclass(frozen=True)
class ParseIssue:
    """One problem found in an input file."""

    line: int
    kind: str  # "syntax" | "semantic"
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.kind}: {self.message}"


class ParseFailure(RopasError):
    """Raised when an input file has problems; carries every issue found."""

    def __init__(self, issues: list[ParseIssue]):
        super().__init__("; ".join(str(i) for i in issues) or "parse failed")
        self.issues = issues


class _Parser:
    """Lines and collected issues of one input file, header checked."""

    def __init__(self, text: str, header: str):
        self.lines = text.splitlines()
        self.issues: list[ParseIssue] = []
        if not self.lines or self.lines[0].strip() != header:
            self.issues.append(
                ParseIssue(1, "syntax", f"first line must be '{header}'")
            )

    def syntax(self, line: int, message: str) -> None:
        self.issues.append(ParseIssue(line, "syntax", message))

    def semantic(self, line: int, message: str) -> None:
        self.issues.append(ParseIssue(line, "semantic", message))


@dataclass(frozen=True)
class ModelBundle:
    """Everything one model file can declare."""

    model: Optional[Model] = None
    config: SimulationConfig = SimulationConfig()
    goals: Optional[GoalGraph] = None
    decision: Optional[DecisionModel] = None


# ---------------------------------------------------------------------------
# Scalar and domain syntax


def format_scalar(value: Value) -> str:
    """Lexically typed literal: ints bare, floats with a point or exponent."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_scalar(token: str) -> Value:
    """Type a literal by shape: integer, then float, then bare label."""
    if _integer_shaped(token):
        return int(token)
    try:
        return float(token)
    except ValueError:
        return token


def serialize_domain(domain: Domain) -> str:
    if isinstance(domain, Boolean):
        return "bool"
    if isinstance(domain, IntegerRange):
        return f"int:{domain.lo}:{domain.hi}"
    if isinstance(domain, RealGrid):
        return f"grid:{domain.lo!r}:{domain.hi!r}:{domain.step!r}"
    return "enum:" + ",".join(format_scalar(v) for v in domain.labels)


def parse_domain(token: str) -> Domain:
    """Inverse of serialize_domain; raises ValueError with a reason."""
    if token == "bool":
        return Boolean()
    parts = token.split(":")
    try:
        if token.startswith("int:"):
            if len(parts) != 3 or not (_integer_shaped(parts[1]) and _integer_shaped(parts[2])):
                raise ValueError(f"bad integer domain '{token}'")
            return IntegerRange(int(parts[1]), int(parts[2]))
        if token.startswith("grid:"):
            if len(parts) != 4:
                raise ValueError(f"bad grid domain '{token}'")
            return RealGrid(float(parts[1]), float(parts[2]), float(parts[3]))
        if token.startswith("enum:"):
            labels = tuple(parse_scalar(t) for t in token[5:].split(",") if t)
            if not labels:
                raise ValueError("empty enumerated domain")
            return Enumerated(labels)
    except DefinitionError as err:
        raise ValueError(str(err))
    raise ValueError(f"unknown domain '{token}'")


# ---------------------------------------------------------------------------
# Formula expression syntax:  OR ::= AND ('|' AND)*   AND ::= NOT ('&' NOT)*
#                             NOT ::= '!' NOT | '(' OR ')' | ident | '0' | '1'
#
# The literals 0 and 1 are the constant-false and constant-true formulas
# (an empty disjunction and an empty conjunction respectively).

_EXPR_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[()&|!01])")


def parse_expr(text: str) -> BoolExpr:
    """Parse an and/or/not formula; raises a syntax issue (a ``ValueError``)
    on bad syntax, more than ``MAX_FORMULA_DEPTH`` nested '!' and '(' included."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise _Syntax(f"bad formula character {text[pos:].strip()[0]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    cursor = 0

    def peek() -> Optional[str]:
        return tokens[cursor] if cursor < len(tokens) else None

    def take() -> str:
        nonlocal cursor
        tok = tokens[cursor]
        cursor += 1
        return tok

    # ``level`` counts the '!' and '(' enclosing the text being parsed.
    def nested(level: int) -> int:
        if level == MAX_FORMULA_DEPTH:
            raise _Syntax(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels")
        return level + 1

    def parse_or(level: int) -> BoolExpr:
        parts = [parse_and(level)]
        while peek() == "|":
            take()
            parts.append(parse_and(level))
        return parts[0] if len(parts) == 1 else ("or", *parts)

    def parse_and(level: int) -> BoolExpr:
        parts = [parse_not(level)]
        while peek() == "&":
            take()
            parts.append(parse_not(level))
        return parts[0] if len(parts) == 1 else ("and", *parts)

    def parse_not(level: int) -> BoolExpr:
        tok = peek()
        if tok is None:
            raise _Syntax("formula ends unexpectedly")
        if tok == "!":
            take()
            return ("not", parse_not(nested(level)))
        if tok == "(":
            take()
            inner = parse_or(nested(level))
            if peek() != ")":
                raise _Syntax("missing ')'")
            take()
            return inner
        if tok == "1":
            take()
            return ("and",)
        if tok == "0":
            take()
            return ("or",)
        if _IDENT.match(tok):
            take()
            return ("var", tok)
        raise _Syntax(f"unexpected {tok!r} in formula")

    if not tokens:
        raise _Syntax("empty formula")
    out = parse_or(0)
    if cursor != len(tokens):
        raise _Syntax(f"trailing {tokens[cursor]!r} in formula")
    return out


def serialize_expr(expr: BoolExpr, level: int = 0) -> str:
    """Render a formula.

    Reparsing the output yields the same expression up to flattening:
    single-child and nested same-operator connectives collapse.
    """
    op = expr[0]
    if op == "var":
        return expr[1]
    if op == "not":
        return "!" + serialize_expr(expr[1], 2)
    joiner, own = (" | ", 0) if op == "or" else (" & ", 1)
    if not expr[1:]:
        return "1" if op == "and" else "0"
    body = joiner.join(serialize_expr(child, own + 1) for child in expr[1:])
    return f"({body})" if own < level else body


# ---------------------------------------------------------------------------
# Weighted-term syntax: NUM*ID + NUM*ID + NUM (a bare number is the offset)


def parse_terms(text: str) -> tuple[list[tuple[float, str]], float]:
    terms: list[tuple[float, str]] = []
    offset = 0.0
    seen_offset = False
    for raw in text.split("+"):
        piece = raw.strip()
        if not piece:
            raise ValueError("empty term")
        if "*" in piece:
            wtext, _, name = piece.partition("*")
            name = name.strip()
            if not _IDENT.match(name):
                raise ValueError(f"bad term variable '{name}'")
            try:
                weight = float(wtext.strip())
            except ValueError:
                raise ValueError(f"bad term weight '{wtext.strip()}'")
            terms.append((weight, name))
        else:
            try:
                value = float(piece)
            except ValueError:
                raise ValueError(f"bad term '{piece}'")
            if seen_offset:
                raise ValueError("more than one constant term")
            offset = value
            seen_offset = True
    return terms, offset


def serialize_terms(
    inputs: tuple[str, ...], weights: tuple[float, ...], offset: float
) -> str:
    parts = [f"{w!r}*{name}" for w, name in zip(weights, inputs)]
    if offset != 0.0:
        parts.append(repr(offset))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Model files
#
# Each record kind is one entry of ``_RECORDS``, keyed by its section and
# head (the record's first token).  Its reader parses the rest of the record
# into a ``_ModelParser``; its writer renders one value as that rest.  Both
# ``parse_model`` and ``serialize_model`` are driven by the table, so a record
# kind cannot exist in one direction only.
#
# A reader raises ``_Syntax`` for a malformed record, or ``ValueError`` /
# ``DefinitionError`` for a well-formed one that declares something invalid.
# A bare ``_Syntax()`` reports the section's usage message from ``_SECTIONS``.

# Section -> its usage message for a head it does not know ({} is the head).
_SECTIONS = {
    "variables": "expected 'criterion|parameter|monitored ID DOMAIN'",
    "depends": "unknown depend form '{}'",
    "decision": "expected 'rule ID' or 'set ID1,ID2,...'",
    "triggers": "expected 'trigger CRITERION in RANGE'",
    "evolution": "unknown evolution form '{}'",
    "simulation": "unknown simulation setting '{}'",
    "goalgraph": "unknown goal record '{}'",
    "attributes": "expected 'attribute ID DOMAIN'",
    "alternatives": "unknown alternatives record '{}'",
    "utility": "expected 'weighted-sum ...' or 'lookup-table ...'",
    "transform": "unknown transform '{}'",
}

# Each section but ``goalgraph`` -> the part of the file its records build;
# a finding of a part is located at a record of that part.  Goal graph errors
# are located through ``_ModelParser.goal_lines``.
_PARTS = {
    "variables": "model", "depends": "model", "decision": "model",
    "triggers": "config", "evolution": "config", "simulation": "config",
    "attributes": "decision", "alternatives": "decision", "utility": "decision",
    "transform": "decision",
}

_ARROW_RE = re.compile(r"^(\S+)\s*->\s*(\S+)\s*:\s*(.*)$")
_PLAIN_RE = re.compile(r"^(\S+)\s*:\s*(.*)$")
_TRIGGER_RE = re.compile(r"^(\S+)\s+in\s+(.+)$")
_TRANSITION_RE = re.compile(r"^from\s+(.*?)\s+to\s+(.+)$")
_FORBID_VALUE_RE = re.compile(
    r"^(\S+?)=(\S+?)(?:\s+unless\s+count\((.+)\)\s*(==|<=|>=)\s*(\d+))?$"
)
_REFINE_RE = re.compile(r"^(\S+)\s*<-\s*(.+)$")
_COMPARATOR_RE = re.compile(r"(==|<=|>=)")


class _Syntax(ValueError):
    """A malformed record; reported as a syntax issue at the record's line.
    It is a ``ValueError`` so that ``parse_expr`` keeps its contract."""


class _ModelParser(_Parser):
    """The declarations a model file's records make, gathered in file order."""

    def __init__(self, text: str):
        super().__init__(text, MODEL_HEADER)
        self.line = 0  # the record being read, its head and its part
        self.head = ""
        self.part = ""
        # Part -> name -> line, for locating the issues of that part.
        self.decl: dict[str, dict[str, int]] = {part: {} for part in _PARTS.values()}
        self.criteria: list[Criterion] = []
        self.parameters: list[Parameter] = []
        self.monitored: list[MonitoredVariable] = []
        self.depends: list[DependRelation] = []
        self.decision_rule: Optional[str] = None
        self.decision_set: tuple[str, ...] = ()
        self.triggers: list[AwarenessTrigger] = []
        self.constraints: list[EvolutionConstraint] = []
        self.duration = 0
        self.horizon: Optional[int] = None
        self.initial: dict[str, Value] = {}
        self.initial_spec: Optional[Specification] = None
        self.change_scope: list[tuple[str, Domain]] = []
        self.atoms: list[tuple[str, str, bool]] = []  # (id, role, mandatory)
        self.refinements: list[Refinement] = []
        self.conflicts: list[frozenset[str]] = []
        # An atom's id, a Refinement or a conflict pair -> the line of the
        # record that declares it, where a goal graph error is reported.
        self.goal_lines: dict[object, int] = {}
        self.attributes: list[Criterion] = []
        self.alt_order: list[str] = []
        self.lotteries: dict[str, list[tuple[str, Lottery]]] = {}
        self.outcomes: dict[str, Value] = {}  # outcome text -> its value, typed once
        self.utility: Optional[Union[WeightedSum, LookupTable]] = None
        self.transform: Transform = IdentityTransform()

    def records(self) -> list[tuple[int, str, str]]:
        """(line number, section, record text) for every record line."""
        out = []
        section = ""
        for number, raw in enumerate(self.lines[1:], start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if name not in _SECTIONS:
                    self.syntax(number, f"unknown section '{name}'")
                    section = ""
                else:
                    section = name
                continue
            if not section:
                self.syntax(number, "record outside any section")
                continue
            out.append((number, section, line))
        return out

    def declare(self, name: str) -> None:
        """Locate ``name`` at the record being read, unless an earlier record
        of the same part declared it."""
        self.decl[self.part].setdefault(name, self.line)

    def place(self, name: str) -> None:
        """Locate ``name`` at the record being read, which holds its value."""
        self.decl[self.part][name] = self.line

    def depend(self, dep: DependRelation) -> None:
        self.declare(dep.id)
        self.depends.append(dep)

    def constrain(self, constraint: EvolutionConstraint) -> None:
        self.place(f"evolution {len(self.constraints)}")
        self.constraints.append(constraint)


@dataclass(frozen=True)
class _Record:
    """One record kind: ``read`` parses the text after the head into the
    parser, ``write`` renders one value as that text."""

    read: Callable[[_ModelParser, str], None]
    write: Callable[[Any], str]
    kind: Optional[type] = None  # the value type naming this kind, where a
    # section has several kinds of one role (depends, constraints, utilities)


_RECORDS: dict[tuple[str, str], _Record] = {}


def _record(section: str, head: str, write: Callable[[Any], str], kind: Optional[type] = None):
    """Enter the decorated reader, with ``write``, as record kind (section, head)."""

    def enter(read: Callable[[_ModelParser, str], None]):
        _RECORDS[section, head] = _Record(read, write, kind)
        return read

    return enter


# Pieces shared by several record kinds, each reader beside its writer.


def _read_assignments(text: str) -> dict[str, Value]:
    """Comma-separated ID=VALUE list."""
    out: dict[str, Value] = {}
    for piece in text.split(","):
        piece = piece.strip()
        name, eq, raw = piece.partition("=")
        if not eq or not _IDENT.match(name):
            raise _Syntax(f"bad assignment '{piece}'")
        out[name] = parse_scalar(raw)
    return out


def _write_assignments(items: tuple[tuple[str, Value], ...]) -> str:
    return ",".join(f"{name}={format_scalar(value)}" for name, value in items)


def _read_entries(text: str, value=parse_scalar, missing: type = ValueError) -> tuple:
    """Lookup-table entries `K1,K2=V ; ...`; ``value`` reads each V and
    ``missing`` is raised for an entry without '=' ([depends] reports that as
    a semantic issue, [utility] as a syntax issue)."""
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key_text, eq, value_text = chunk.partition("=")
        if not eq:
            raise missing(f"bad table entry '{chunk}'")
        key = tuple(parse_scalar(p.strip()) for p in key_text.split(","))
        try:
            entries.append((key, value(value_text.strip())))
        except ValueError:  # parse_scalar cannot fail; [utility] reads floats
            raise ValueError(f"bad utility value in '{chunk}'")
    return tuple(entries)


def _write_entries(entries: tuple) -> str:
    return " ; ".join(
        ",".join(format_scalar(v) for v in key) + "=" + format_scalar(value)
        for key, value in entries
    )


def _weighted(text: str) -> tuple[tuple[str, ...], tuple[float, ...], float]:
    """Weighted terms as (names, weights, offset)."""
    terms, offset = parse_terms(text)
    return tuple(t[1] for t in terms), tuple(t[0] for t in terms), offset


def _variable(p: _ModelParser, rest: str, options: tuple[str, ...]):
    """`ID DOMAIN [KEY=VALUE ...]`: the id, its domain and the options given."""
    tokens = rest.split()
    if len(tokens) < 2:
        raise _Syntax()
    name = tokens[0]
    if not _IDENT.match(name):
        raise _Syntax(f"bad identifier '{name}'")
    p.declare(name)
    domain = parse_domain(tokens[1])
    found: dict[str, str] = {}
    for token in tokens[2:]:
        key, eq, value = token.partition("=")
        if eq and key in options:
            found[key] = value
        else:
            p.syntax(p.line, f"unexpected token '{token}'")
    return name, domain, found


def _declared(v, **options: Optional[str]) -> str:
    """`ID DOMAIN` followed by each option that is not None."""
    return f"{v.id} {serialize_domain(v.domain)}" + "".join(
        f" {key}={value}" for key, value in options.items() if value is not None
    )


def _whole(p: _ModelParser, rest: str) -> int:
    """An integer record value; anything else is a syntax issue."""
    if not _integer_shaped(rest):
        raise _Syntax(f"expected '{p.head} N'")
    return int(rest)


def _compared(body: str) -> tuple[str, str, str]:
    """`LEFT CMP RIGHT`, split at the first comparator."""
    m = _COMPARATOR_RE.search(body)
    if not m:
        raise ValueError("missing comparator")
    return body[: m.start()].strip(), m.group(1), body[m.end() :].strip()


def _functional(p: _ModelParser, rest: str) -> tuple[str, ...]:
    """(ID, OUT, BODY) of a functional depend `ID -> OUT : BODY`."""
    m = _ARROW_RE.match(rest)
    if not m:
        raise _Syntax(f"expected '{p.head} ID -> OUT : ...'")
    return m.groups()


def _constraint(p: _ModelParser, rest: str) -> tuple[str, ...]:
    """(ID, BODY) of a constraint depend `ID : BODY`."""
    m = _PLAIN_RE.match(rest)
    if not m:
        raise _Syntax(f"expected '{p.head} ID : ...'")
    return m.groups()


def _read_tolerable(text: str) -> TolerableRange:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1]
        if "," not in inner:
            raise _Syntax(f"bad interval '{text}'")
        lo_text, _, hi_text = inner.partition(",")
        edges = []
        for part in (lo_text.strip(), hi_text.strip()):
            if part == "*":
                edges.append(None)
            else:
                try:
                    edges.append(float(part))
                except ValueError:
                    raise _Syntax(f"bad interval edge '{part}'")
        return IntervalRange(edges[0], edges[1])
    if text.startswith("{") and text.endswith("}"):
        values = tuple(parse_scalar(p.strip()) for p in text[1:-1].split(",") if p.strip())
        if not values:
            raise _Syntax("empty value set")
        return ValueSetRange(values)
    raise _Syntax(f"tolerable range must be [lo,hi] or {{v,...}}, got '{text}'")


def _write_tolerable(tolerable: TolerableRange) -> str:
    if isinstance(tolerable, IntervalRange):
        lo = "*" if tolerable.lo is None else repr(tolerable.lo)
        hi = "*" if tolerable.hi is None else repr(tolerable.hi)
        return f"[{lo},{hi}]"
    return "{" + ",".join(format_scalar(v) for v in tolerable.values) + "}"


# [variables]


def _write_criterion(c: Criterion) -> str:
    kind = None if c.kind == "requirement" else c.kind
    return _declared(c, kind=kind, pref=c.preference)


@_record("variables", "criterion", _write_criterion)
def _read_criterion(p: _ModelParser, rest: str) -> None:
    name, domain, opts = _variable(p, rest, ("kind", "pref"))
    p.criteria.append(
        Criterion(name, domain, opts.get("kind", "requirement"), opts.get("pref"))
    )


def _write_parameter(v: Parameter) -> str:
    return _declared(v, default=None if v.default is None else format_scalar(v.default))


@_record("variables", "parameter", _write_parameter)
def _read_parameter(p: _ModelParser, rest: str) -> None:
    name, domain, opts = _variable(p, rest, ("default",))
    default = parse_scalar(opts["default"]) if "default" in opts else None
    p.parameters.append(Parameter(name, domain, default))


def _write_monitored(m: MonitoredVariable) -> str:
    if not m.detectable_range:
        return _declared(m)
    return _declared(m, detect=",".join(format_scalar(v) for v in m.detectable_range))


@_record("variables", "monitored", _write_monitored)
def _read_monitored(p: _ModelParser, rest: str) -> None:
    name, domain, opts = _variable(p, rest, ("detect",))
    detect = tuple(parse_scalar(t) for t in opts.get("detect", "").split(",") if t)
    p.monitored.append(MonitoredVariable(name, domain, detect))


# [depends]


@_record("depends", "boolean-formula",
         lambda d: f"{d.id} -> {d.output} : {serialize_expr(d.expr)}", BooleanFormula)
def _read_boolean_formula(p: _ModelParser, rest: str) -> None:
    name, output, body = _functional(p, rest)
    p.depend(BooleanFormula(name, output, parse_expr(body)))


def _write_weighted_sum(d: WeightedSum) -> str:
    return f"{d.id} -> {d.output} : {serialize_terms(d.inputs, d.weights, d.offset)}"


@_record("depends", "weighted-sum", _write_weighted_sum, WeightedSum)
def _read_weighted_sum(p: _ModelParser, rest: str) -> None:
    name, output, body = _functional(p, rest)
    inputs, weights, offset = _weighted(body)
    if not inputs:
        raise ValueError("weighted sum needs at least one term")
    p.depend(WeightedSum(name, output, inputs, weights, offset))


def _write_lookup_table(d: LookupTable) -> str:
    return f"{d.id} -> {d.output} : {','.join(d.inputs)} : {_write_entries(d.entries)}"


@_record("depends", "lookup-table", _write_lookup_table, LookupTable)
def _read_lookup_table(p: _ModelParser, rest: str) -> None:
    name, output, body = _functional(p, rest)
    inputs_text, sep, entries_text = body.partition(":")
    if not sep:
        raise ValueError("expected 'IN1,IN2 : KEY=VALUE ; ...'")
    inputs = tuple(t.strip() for t in inputs_text.split(",") if t.strip())
    p.depend(LookupTable(name, output, inputs, _read_entries(entries_text)))


@_record("depends", "threshold-step",
         lambda d: f"{d.id} -> {d.output} : {d.input} >= {d.cut!r}", ThresholdStep)
def _read_threshold_step(p: _ModelParser, rest: str) -> None:
    name, output, body = _functional(p, rest)
    input_text, sep, cut_text = body.partition(">=")
    if not sep:
        raise ValueError("expected 'INPUT >= CUT'")
    p.depend(ThresholdStep(name, output, input_text.strip(), float(cut_text)))


def _write_linear(d: LinearConstraint) -> str:
    terms = serialize_terms(d.inputs, d.coefficients, 0.0)
    return f"{d.id} : {terms} {d.comparator} {d.bound!r}"


@_record("depends", "linear", _write_linear, LinearConstraint)
def _read_linear(p: _ModelParser, rest: str) -> None:
    name, body = _constraint(p, rest)
    left, comparator, bound = _compared(body)
    inputs, weights, offset = _weighted(left)
    if offset:
        raise ValueError("constant term not allowed in a linear constraint")
    p.depend(LinearConstraint(name, inputs, weights, comparator, float(bound)))


@_record("depends", "cardinality",
         lambda d: f"{d.id} : {','.join(d.inputs)} {d.comparator} {d.bound}",
         CardinalityConstraint)
def _read_cardinality(p: _ModelParser, rest: str) -> None:
    name, body = _constraint(p, rest)
    left, comparator, bound = _compared(body)
    inputs = tuple(t.strip() for t in left.split(",") if t.strip())
    if not _integer_shaped(bound):
        raise ValueError(f"cardinality bound '{bound}' is not an integer")
    p.depend(CardinalityConstraint(name, inputs, comparator, int(bound)))


@_record("depends", "incompatibility", lambda d: f"{d.id} : {d.a} {d.b}", Incompatibility)
def _read_incompatibility(p: _ModelParser, rest: str) -> None:
    name, body = _constraint(p, rest)
    parts = body.split()
    if len(parts) != 2:
        raise ValueError("expected two variable names")
    p.depend(Incompatibility(name, *parts))


# [decision]


@_record("decision", "rule", str)
def _read_rule(p: _ModelParser, rest: str) -> None:
    if not _IDENT.match(rest):
        raise _Syntax()
    p.decision_rule = rest
    p.place("decision rule")


@_record("decision", "set", ",".join)
def _read_set(p: _ModelParser, rest: str) -> None:
    if not rest:
        raise _Syntax()
    p.decision_set = tuple(t.strip() for t in rest.split(",") if t.strip())
    p.place("decision set")


# [triggers]


@_record("triggers", "trigger", lambda t: f"{t.criterion} in {_write_tolerable(t.tolerable)}")
def _read_trigger(p: _ModelParser, rest: str) -> None:
    m = _TRIGGER_RE.match(rest)
    if not m:
        raise _Syntax()
    p.triggers.append(AwarenessTrigger(m.group(1), _read_tolerable(m.group(2))))
    p.declare(f"trigger {m.group(1)}")


# [evolution]


@_record("evolution", "max-changes", lambda c: str(c.limit), MaxParameterChanges)
def _read_max_changes(p: _ModelParser, rest: str) -> None:
    p.constrain(MaxParameterChanges(_whole(p, rest)))


def _write_forbid_transition(c: ForbiddenTransition) -> str:
    return f"from {_write_assignments(c.from_values)} to {_write_assignments(c.to_values)}"


@_record("evolution", "forbid-transition", _write_forbid_transition, ForbiddenTransition)
def _read_forbid_transition(p: _ModelParser, rest: str) -> None:
    m = _TRANSITION_RE.match(rest)
    if not m:
        raise _Syntax("expected 'forbid-transition from A=V,... to B=V,...'")
    sides = []
    for side in m.groups():  # a problem on each side is reported
        try:
            sides.append(tuple(sorted(_read_assignments(side).items())))
        except _Syntax as err:
            p.syntax(p.line, str(err))
    if len(sides) == 2:
        p.constrain(ForbiddenTransition(*sides))


def _write_forbid_value(c: ForbiddenValue) -> str:
    text = f"{c.parameter}={format_scalar(c.value)}"
    if c.unless is None:
        return text
    tests = _write_assignments(c.unless.tests)
    return f"{text} unless count({tests}) {c.unless.comparator} {c.unless.bound}"


@_record("evolution", "forbid-value", _write_forbid_value, ForbiddenValue)
def _read_forbid_value(p: _ModelParser, rest: str) -> None:
    m = _FORBID_VALUE_RE.match(rest)
    if not m:
        raise _Syntax("expected 'forbid-value ID=V [unless count(A=V,...) CMP N]'")
    parameter, value, tests, comparator, bound = m.groups()
    unless = None
    if tests is not None:
        unless = UnlessCondition(
            tuple(sorted(_read_assignments(tests).items())), comparator, int(bound)
        )
    p.constrain(ForbiddenValue(parameter, parse_scalar(value), unless))


# [simulation]


@_record("simulation", "duration", str)
@_record("simulation", "horizon", str)
def _read_setting(p: _ModelParser, rest: str) -> None:
    """An integer setting, kept in the parser field named after its head."""
    setattr(p, p.head, _whole(p, rest))
    p.place(f"simulation {p.head}")


@_record("simulation", "initial", _write_assignments)
def _read_initial(p: _ModelParser, rest: str) -> None:
    for name, value in _read_assignments(rest).items():
        p.initial[name] = value
        p.place(f"initial {name}")


@_record("simulation", "initial-spec", _write_assignments)
def _read_initial_spec(p: _ModelParser, rest: str) -> None:
    p.initial_spec = Specification.from_mapping(_read_assignments(rest))
    p.place("initial-spec")


@_record("simulation", "change-scope", lambda s: f"{s[0]} {serialize_domain(s[1])}")
def _read_change_scope(p: _ModelParser, rest: str) -> None:
    tokens = rest.split()
    if len(tokens) != 2 or not _IDENT.match(tokens[0]):
        raise _Syntax("expected 'change-scope ID DOMAIN'")
    p.change_scope.append((tokens[0], parse_domain(tokens[1])))
    p.declare(f"change-scope {tokens[0]}")


# [goalgraph]


def _write_atom(atom: tuple[str, str, bool]) -> str:
    name, role, mandatory = atom
    return " ".join(t for t in (name, role, "mandatory" if mandatory else "") if t)


@_record("goalgraph", "atom", _write_atom)
def _read_atom(p: _ModelParser, rest: str) -> None:
    tokens = rest.split()
    if not tokens or not _IDENT.match(tokens[0]):
        raise _Syntax("expected 'atom ID [r|k|s] [mandatory]'")
    role = ""
    mandatory = False
    for token in tokens[1:]:
        if token in ("r", "k", "s") and role:
            p.syntax(p.line, f"second role '{token}'")
        elif token in ("r", "k", "s"):
            role = token
        elif token == "mandatory":
            mandatory = True
        else:
            p.syntax(p.line, f"unexpected token '{token}'")
    if tokens[0] in p.goal_lines:
        raise ValueError(f"duplicate atom '{tokens[0]}'")
    p.atoms.append((tokens[0], role, mandatory))
    p.goal_lines[tokens[0]] = p.line


@_record("goalgraph", "refine", lambda r: f"{r.conclusion} <- " + ",".join(sorted(r.premises)))
def _read_refine(p: _ModelParser, rest: str) -> None:
    m = _REFINE_RE.match(rest)
    if not m:
        raise _Syntax("expected 'refine CONCLUSION <- P1,P2,...'")
    premises = frozenset(t.strip() for t in m.group(2).split(",") if t.strip())
    refinement = Refinement(m.group(1), premises)
    p.refinements.append(refinement)
    p.goal_lines.setdefault(refinement, p.line)


@_record("goalgraph", "conflict", " ".join)
def _read_conflict(p: _ModelParser, rest: str) -> None:
    tokens = rest.split()
    if len(tokens) != 2:
        raise _Syntax("expected 'conflict A B'")
    pair = frozenset(tokens)
    p.conflicts.append(pair)
    p.goal_lines.setdefault(pair, p.line)


# [attributes], [alternatives], [utility], [transform]


@_record("attributes", "attribute", _declared)
def _read_attribute(p: _ModelParser, rest: str) -> None:
    tokens = rest.split()
    if len(tokens) != 2:
        raise _Syntax()
    p.declare(tokens[0])
    p.attributes.append(Criterion(tokens[0], parse_domain(tokens[1])))


@_record("alternatives", "alternative", str)
def _read_alternative(p: _ModelParser, rest: str) -> None:
    if not _IDENT.match(rest):
        raise _Syntax("expected 'alternative ID'")
    p.alt_order.append(rest)
    p.lotteries.setdefault(rest, [])
    p.declare(rest)


def _write_lottery(entry: tuple[str, str, Lottery]) -> str:
    alt, attr, lot = entry
    return f"{alt} {attr} " + " ".join(f"{format_scalar(v)}:{p!r}" for v, p in lot.outcomes)


@_record("alternatives", "lottery", _write_lottery)
def _read_lottery(p: _ModelParser, rest: str) -> None:
    tokens = rest.split()
    if len(tokens) < 3:
        raise _Syntax("expected 'lottery ALT ATTR V:P V:P ...'")
    pairs = []
    typed = p.outcomes
    for token in tokens[2:]:
        vtext, sep, ptext = token.rpartition(":")
        if not sep:
            raise _Syntax(f"bad outcome '{token}'")
        try:
            value = typed.get(vtext)
            if value is None:
                value = parse_scalar(vtext)
                # A nan is typed afresh: one nan object in two outcomes would
                # be a duplicate, since `in` tests identity before equality.
                if value == value:
                    typed[vtext] = value
            pairs.append((value, float(ptext)))
        except ValueError:
            raise _Syntax(f"bad probability in '{token}'")
    p.lotteries.setdefault(tokens[0], []).append((tokens[1], Lottery(tuple(pairs))))
    p.declare(f"{tokens[0]}/{tokens[1]}")  # a finding's subject is ALT/ATTR


@_record("utility", "weighted-sum",
         lambda u: serialize_terms(u.inputs, u.weights, u.offset), WeightedSum)
def _read_utility_sum(p: _ModelParser, rest: str) -> None:
    attr_ids = tuple(a.id for a in p.attributes)
    terms, offset = parse_terms(rest)
    weight_by_name = {name: w for w, name in terms}
    if len(weight_by_name) != len(terms) or set(weight_by_name) != set(attr_ids):
        raise ValueError("weighted-sum terms must cover each attribute exactly once")
    weights = tuple(weight_by_name[a] for a in attr_ids)
    p.utility = WeightedSum("utility", "utility", attr_ids, weights, offset)


@_record("utility", "lookup-table", lambda u: _write_entries(u.entries), LookupTable)
def _read_utility_table(p: _ModelParser, rest: str) -> None:
    entries = _read_entries(rest, float, _Syntax)
    attr_ids = tuple(a.id for a in p.attributes)
    p.utility = LookupTable("utility", "utility", attr_ids, entries)


@_record("transform", "identity", lambda t: "", IdentityTransform)
def _read_identity(p: _ModelParser, rest: str) -> None:
    if rest:
        raise _Syntax()
    p.transform = IdentityTransform()


@_record("transform", "power", lambda t: repr(t.exponent), PowerTransform)
def _read_power(p: _ModelParser, rest: str) -> None:
    try:
        p.transform = PowerTransform(float(rest))
    except ValueError:
        raise _Syntax("expected 'power EXPONENT'")


@_record("transform", "table",
         lambda t: " ".join(f"{x!r}:{y!r}" for x, y in t.points), TableTransform)
def _read_table(p: _ModelParser, rest: str) -> None:
    points = []
    for token in rest.split():
        x, _, y = token.partition(":")
        try:
            points.append((float(x), float(y)))
        except ValueError:
            raise _Syntax(f"bad table point '{token}'")
    p.transform = TableTransform(tuple(points))


_HEADS = {(section, r.kind): head for (section, head), r in _RECORDS.items() if r.kind}


def parse_model(text: str) -> ModelBundle:
    """Parse a model file; raises ParseFailure listing every problem found."""
    p = _ModelParser(text)
    records = p.records()
    for line, section, record in records:
        p.line, p.part = line, _PARTS.get(section, "")
        p.head = record.split(None, 1)[0]
        entry = _RECORDS.get((section, p.head))
        try:
            if entry is None:
                raise _Syntax()
            entry.read(p, record[len(p.head) :].strip())
        except _Syntax as err:
            p.syntax(line, str(err) or _SECTIONS[section].format(p.head))
        except (ValueError, DefinitionError) as err:
            p.semantic(line, str(err))

    # Assemble the pieces, converting construction errors to located issues.

    def lines(section: str) -> list[int]:
        return [line for line, s, _ in records if s == section]

    seen = {section for _, section, _ in records}
    model: Optional[Model] = None
    if seen & {"variables", "depends", "decision"}:
        model = Model(
            criteria=tuple(p.criteria),
            parameters=tuple(p.parameters),
            monitored=tuple(p.monitored),
            depends=tuple(p.depends),
            decision_rule=p.decision_rule,
            decision_set=p.decision_set,
        )
        for violation in model.violations:
            p.semantic(p.decl["model"].get(violation.subject, 1), str(violation))

    goals: Optional[GoalGraph] = None
    if "goalgraph" in seen:
        atoms = p.atoms
        try:
            goals = GoalGraph(
                atoms=frozenset(a for a, _, _ in atoms),
                refinements=tuple(p.refinements),
                conflicts=frozenset(p.conflicts),
                r_atoms=frozenset(a for a, role, _ in atoms if role == "r"),
                k_atoms=frozenset(a for a, role, _ in atoms if role == "k"),
                s_atoms=frozenset(a for a, role, _ in atoms if role == "s"),
                mandatory=frozenset(a for a, _, m in atoms if m),
            )
        except DefinitionError as err:  # at the line of the record it names
            p.semantic(p.goal_lines[err.record], str(err))

    decision: Optional[DecisionModel] = None
    if seen & {"attributes", "alternatives", "utility", "transform"}:
        utility_line = (lines("utility") or [1])[-1]
        located = p.decl["decision"]
        declared = set(p.alt_order)
        for alt, lotteries in p.lotteries.items():
            if alt not in declared:  # found at the line of its first lottery
                where = located[f"{alt}/{lotteries[0][0]}"]
                p.semantic(where, f"lottery for undeclared alternative '{alt}'")
        if p.utility is None:
            p.semantic(utility_line, "decision model lacks a [utility] section")
        else:
            decision = DecisionModel(
                alternatives=tuple(
                    Alternative(alt, tuple(p.lotteries[alt])) for alt in p.alt_order
                ),
                attributes=tuple(p.attributes),
                utility=p.utility,
                transform=p.transform,
            )
            for violation in decision.violations:
                p.semantic(located.get(violation.subject, utility_line), str(violation))

    config = SimulationConfig(
        adaptation_duration=p.duration,
        triggers=tuple(p.triggers),
        constraints=tuple(p.constraints),
        initial_exogenous=tuple(sorted(p.initial.items())),
        initial_spec=p.initial_spec,
        horizon=p.horizon,
        change_scope=tuple(p.change_scope),
    )
    for violation in config_violations(Model() if model is None else model, config):
        p.semantic(p.decl["config"].get(violation.subject, 1), violation.message)

    if p.issues:
        raise ParseFailure(p.issues)
    return ModelBundle(model=model, config=config, goals=goals, decision=decision)


def _bundle_records(bundle: ModelBundle) -> dict[str, list[tuple[str, Any]]]:
    """Each section's (head, value) records for a bundle, in canonical order."""
    out: dict[str, list[tuple[str, Any]]] = {section: [] for section in _SECTIONS}

    def add(section: str, head: Optional[str], *values: Any) -> None:
        """Records of one head, or with no head, of the kind each value's type names."""
        out[section] += [(head or _HEADS[section, type(v)], v) for v in values]

    model, config, goals, decision = bundle.model, bundle.config, bundle.goals, bundle.decision
    if model is not None:
        add("variables", "criterion", *model.criteria)
        add("variables", "parameter", *model.parameters)
        add("variables", "monitored", *model.monitored)
        add("depends", None, *model.depends)
        if model.decision_rule is not None:
            add("decision", "rule", model.decision_rule)
        if model.decision_set:
            add("decision", "set", model.decision_set)
    add("triggers", "trigger", *config.triggers)
    add("evolution", None, *config.constraints)
    if config.adaptation_duration:
        add("simulation", "duration", config.adaptation_duration)
    if config.horizon is not None:
        add("simulation", "horizon", config.horizon)
    if config.initial_exogenous:
        add("simulation", "initial", config.initial_exogenous)
    if config.initial_spec is not None:
        add("simulation", "initial-spec", config.initial_spec.items)
    add("simulation", "change-scope", *config.change_scope)
    if goals is not None:
        roles = (("r", goals.r_atoms), ("k", goals.k_atoms), ("s", goals.s_atoms))
        for atom in sorted(goals.atoms):
            role = next((r for r, group in roles if atom in group), "")
            add("goalgraph", "atom", (atom, role, atom in goals.mandatory))
        add("goalgraph", "refine", *goals.refinements)
        add("goalgraph", "conflict", *sorted(tuple(sorted(c)) for c in goals.conflicts))
    if decision is not None:
        add("attributes", "attribute", *decision.attributes)
        add("alternatives", "alternative", *(alt.id for alt in decision.alternatives))
        for alt in decision.alternatives:
            add("alternatives", "lottery", *((alt.id, a, lot) for a, lot in alt.lotteries))
        add("utility", None, decision.utility)
        add("transform", None, decision.transform)
    return out


def serialize_model(bundle: ModelBundle) -> str:
    """Canonical text for a bundle; parse_model inverts it."""
    out = [MODEL_HEADER]
    for section, records in _bundle_records(bundle).items():
        if records:
            out += ["", f"[{section}]"]
        for head, value in records:
            text = _RECORDS[section, head].write(value)
            out.append(f"{head} {text}" if text else head)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Trace files


_TRACE_RE = re.compile(r"^t=(\d+)\s+([A-Za-z_][A-Za-z0-9_]*)=(\S+)$")


def parse_trace(text: str) -> EventTrace:
    """Parse a trace file; raises ParseFailure listing every problem found."""
    parser = _Parser(text, TRACE_HEADER)
    events: list[Event] = []
    last_tick = -1
    last_line = 0
    for number, raw in enumerate(parser.lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _TRACE_RE.match(line)
        if not m:
            parser.syntax(number, f"expected 't=TICK VAR=VALUE', got '{line}'")
            continue
        tick = int(m.group(1))
        if tick < last_tick:
            parser.semantic(
                number,
                f"tick {tick} is earlier than tick {last_tick} on line {last_line}",
            )
            continue
        last_tick, last_line = tick, number
        events.append(Event(tick, m.group(2), parse_scalar(m.group(3))))
    if parser.issues:
        raise ParseFailure(parser.issues)
    return EventTrace(tuple(events))


def serialize_trace(trace: EventTrace) -> str:
    out = [TRACE_HEADER]
    for event in trace.events:
        out.append(f"t={event.tick} {event.variable}={format_scalar(event.value)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Reports


def format_number(value: Value) -> str:
    """Fixed six-decimal rendering for floats; ints stay bare."""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def format_assignments(items: tuple[tuple[str, Value], ...]) -> str:
    """``name=value`` pairs joined by ",", as the machine reports write them."""
    return ",".join(f"{name}={format_number(value)}" for name, value in items)


def format_listing(items: tuple[tuple[str, Value], ...]) -> str:
    """The same pairs joined by ", ", as the human reports write them."""
    return ", ".join(format_assignments((item,)) for item in items)


def _format_event(event: Event) -> str:
    return f"{event.variable}@{event.tick}={format_number(event.value)}"


def _optimal_bits(period: Period) -> str:
    return "".join("1" if flag else "0" for flag in period.optimal)


def _period_record(period: Period) -> str:
    return (
        f"period kind={period.kind} start={period.start} end={period.end}"
        f" spec={format_assignments(period.spec.items)}"
        f" instance={format_assignments(period.instance.items)}"
        f" fired={','.join(period.fired)}"
        f" ignored={','.join(map(_format_event, period.ignored))}"
        f" optimal={_optimal_bits(period)}"
    )


def write_report(timeline: SimulationTimeline, metrics: Metrics, fmt: str = "machine") -> str:
    """Render a simulation outcome; fmt is "machine" or "human"."""
    if fmt == "machine":
        lines = [_period_record(p) for p in timeline.periods]
        lines.append(
            f"metrics status={timeline.status}"
            f" optimal_time_fraction={metrics.optimal_time_fraction:.6f}"
            f" trigger_count={metrics.trigger_count}"
            f" adaptation_tick_total={metrics.adaptation_tick_total}"
            f" ignored_event_count={metrics.ignored_event_count}"
        )
        return "\n".join(lines) + "\n"
    lines = [f"status: {timeline.status}"]
    for number, period in enumerate(timeline.periods, start=1):
        lines.append(f"period {number}: {period.kind} ticks [{period.start}, {period.end})")
        lines.append("  spec: " + format_listing(period.spec.items))
        lines.append("  instance: " + format_listing(period.instance.items))
        if period.fired:
            lines.append("  fired: " + ", ".join(period.fired))
        if period.ignored:
            lines.append("  ignored: " + ", ".join(map(_format_event, period.ignored)))
        lines.append("  optimal: " + _optimal_bits(period))
    lines.append("metrics:")
    lines.append(f"  optimal time fraction: {metrics.optimal_time_fraction:.6f}")
    lines.append(f"  trigger count: {metrics.trigger_count}")
    lines.append(f"  adaptation ticks: {metrics.adaptation_tick_total}")
    lines.append(f"  ignored events: {metrics.ignored_event_count}")
    return "\n".join(lines) + "\n"
