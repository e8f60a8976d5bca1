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
from typing import Optional, Union

from .decisions import (
    Alternative,
    DecisionModel,
    IdentityTransform,
    Lottery,
    PowerTransform,
    TableTransform,
    Transform,
    validate_decision_model,
)
from .domains import Boolean, Domain, Enumerated, IntegerRange, RealGrid, Value
from .errors import DefinitionError, RopasError
from .goals import GoalGraph, goal_graph
from .model import (
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
)

MODEL_HEADER = "ropas-model v1"
TRACE_HEADER = "ropas-trace v1"

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_INT = re.compile(r"^[+-]?\d+$")

_SECTIONS = (
    "variables",
    "depends",
    "decision",
    "triggers",
    "evolution",
    "simulation",
    "goalgraph",
    "attributes",
    "alternatives",
    "utility",
    "transform",
)


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
    if _INT.match(token):
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
    if token.startswith("int:"):
        parts = token.split(":")
        if len(parts) != 3 or not (_INT.match(parts[1]) and _INT.match(parts[2])):
            raise ValueError(f"bad integer domain '{token}'")
        try:
            return IntegerRange(int(parts[1]), int(parts[2]))
        except DefinitionError as err:
            raise ValueError(str(err))
    if token.startswith("grid:"):
        parts = token.split(":")
        if len(parts) != 4:
            raise ValueError(f"bad grid domain '{token}'")
        try:
            return RealGrid(float(parts[1]), float(parts[2]), float(parts[3]))
        except (ValueError, DefinitionError) as err:
            raise ValueError(str(err))
    if token.startswith("enum:"):
        labels = tuple(parse_scalar(t) for t in token[5:].split(",") if t)
        if not labels:
            raise ValueError("empty enumerated domain")
        try:
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
    """Parse an and/or/not formula; raises ValueError on bad syntax."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad formula character {text[pos:].strip()[0]!r}")
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

    def parse_or() -> BoolExpr:
        parts = [parse_and()]
        while peek() == "|":
            take()
            parts.append(parse_and())
        return parts[0] if len(parts) == 1 else ("or", *parts)

    def parse_and() -> BoolExpr:
        parts = [parse_not()]
        while peek() == "&":
            take()
            parts.append(parse_not())
        return parts[0] if len(parts) == 1 else ("and", *parts)

    def parse_not() -> BoolExpr:
        tok = peek()
        if tok is None:
            raise ValueError("formula ends unexpectedly")
        if tok == "!":
            take()
            return ("not", parse_not())
        if tok == "(":
            take()
            inner = parse_or()
            if peek() != ")":
                raise ValueError("missing ')'")
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
        raise ValueError(f"unexpected {tok!r} in formula")

    if not tokens:
        raise ValueError("empty formula")
    out = parse_or()
    if cursor != len(tokens):
        raise ValueError(f"trailing {tokens[cursor]!r} in formula")
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
# Model file parsing


_ARROW_RE = re.compile(r"^(\S+)\s+(\S+)\s*->\s*(\S+)\s*:\s*(.*)$")
_PLAIN_RE = re.compile(r"^(\S+)\s+(\S+)\s*:\s*(.*)$")


class _Parser:
    def __init__(self, text: str, header: str):
        self.lines = text.splitlines()
        self.issues: list[ParseIssue] = []
        self.decl: dict[str, int] = {}
        if not self.lines or self.lines[0].strip() != header:
            self.issues.append(
                ParseIssue(1, "syntax", f"first line must be '{header}'")
            )

    def syntax(self, line: int, message: str) -> None:
        self.issues.append(ParseIssue(line, "syntax", message))

    def semantic(self, line: int, message: str) -> None:
        self.issues.append(ParseIssue(line, "semantic", message))

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


def _split_attrs(tokens: list[str], line: int, parser: _Parser,
                 allowed: tuple[str, ...]) -> dict[str, str]:
    """key=value trailing options on a variable record."""
    out: dict[str, str] = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or key not in allowed:
            parser.syntax(line, f"unexpected token '{token}'")
            continue
        out[key] = value
    return out


def _parse_assignments(text: str, line: int, parser: _Parser) -> Optional[dict[str, Value]]:
    """Comma-separated ID=VALUE list."""
    out: dict[str, Value] = {}
    for piece in text.split(","):
        piece = piece.strip()
        name, eq, raw = piece.partition("=")
        if not eq or not _IDENT.match(name):
            parser.syntax(line, f"bad assignment '{piece}'")
            return None
        out[name] = parse_scalar(raw)
    return out


def _parse_tolerable(text: str, line: int, parser: _Parser) -> Optional[TolerableRange]:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1]
        if "," not in inner:
            parser.syntax(line, f"bad interval '{text}'")
            return None
        lo_text, _, hi_text = inner.partition(",")
        edges = []
        for part in (lo_text.strip(), hi_text.strip()):
            if part == "*":
                edges.append(None)
            else:
                try:
                    edges.append(float(part))
                except ValueError:
                    parser.syntax(line, f"bad interval edge '{part}'")
                    return None
        return IntervalRange(edges[0], edges[1])
    if text.startswith("{") and text.endswith("}"):
        values = tuple(parse_scalar(p.strip()) for p in text[1:-1].split(",") if p.strip())
        if not values:
            parser.syntax(line, "empty value set")
            return None
        return ValueSetRange(values)
    parser.syntax(line, f"tolerable range must be [lo,hi] or {{v,...}}, got '{text}'")
    return None


def _build_depend(line: int, text: str, parser: _Parser) -> Optional[DependRelation]:
    keyword = text.split(None, 1)[0]
    try:
        if keyword in ("boolean-formula", "weighted-sum", "lookup-table", "threshold-step"):
            m = _ARROW_RE.match(text)
            if not m or m.group(1) != keyword:
                parser.syntax(line, f"expected '{keyword} ID -> OUT : ...'")
                return None
            name, output, body = m.group(2), m.group(3), m.group(4)
            if keyword == "boolean-formula":
                return BooleanFormula(name, output, parse_expr(body))
            if keyword == "weighted-sum":
                terms, offset = parse_terms(body)
                if not terms:
                    raise ValueError("weighted sum needs at least one term")
                return WeightedSum(
                    name,
                    output,
                    tuple(t[1] for t in terms),
                    tuple(t[0] for t in terms),
                    offset,
                )
            if keyword == "lookup-table":
                inputs_text, sep, entries_text = body.partition(":")
                if not sep:
                    raise ValueError("expected 'IN1,IN2 : KEY=VALUE ; ...'")
                inputs = tuple(t.strip() for t in inputs_text.split(",") if t.strip())
                entries = []
                for chunk in entries_text.split(";"):
                    chunk = chunk.strip()
                    if not chunk:
                        continue
                    key_text, eq, value_text = chunk.partition("=")
                    if not eq:
                        raise ValueError(f"bad table entry '{chunk}'")
                    key = tuple(parse_scalar(p.strip()) for p in key_text.split(","))
                    entries.append((key, parse_scalar(value_text.strip())))
                return LookupTable(name, output, inputs, tuple(entries))
            input_text, sep, cut_text = body.partition(">=")
            if not sep:
                raise ValueError("expected 'INPUT >= CUT'")
            return ThresholdStep(name, output, input_text.strip(), float(cut_text))
        if keyword in ("linear", "cardinality", "incompatibility"):
            m = _PLAIN_RE.match(text)
            if not m or m.group(1) != keyword:
                parser.syntax(line, f"expected '{keyword} ID : ...'")
                return None
            name, body = m.group(2), m.group(3)
            if keyword == "incompatibility":
                parts = body.split()
                if len(parts) != 2:
                    raise ValueError("expected two variable names")
                return Incompatibility(name, parts[0], parts[1])
            cmp_match = re.search(r"(==|<=|>=)", body)
            if not cmp_match:
                raise ValueError("missing comparator")
            left = body[: cmp_match.start()].strip()
            bound_text = body[cmp_match.end() :].strip()
            if keyword == "linear":
                terms, offset = parse_terms(left)
                if offset:
                    raise ValueError("constant term not allowed in a linear constraint")
                return LinearConstraint(
                    name,
                    tuple(t[1] for t in terms),
                    tuple(t[0] for t in terms),
                    cmp_match.group(1),
                    float(bound_text),
                )
            inputs = tuple(t.strip() for t in left.split(",") if t.strip())
            if not _INT.match(bound_text):
                raise ValueError(f"cardinality bound '{bound_text}' is not an integer")
            return CardinalityConstraint(name, inputs, cmp_match.group(1), int(bound_text))
        parser.syntax(line, f"unknown depend form '{keyword}'")
        return None
    except (ValueError, DefinitionError) as err:
        parser.semantic(line, str(err))
        return None


def parse_model(text: str) -> ModelBundle:
    """Parse a model file; raises ParseFailure listing every problem found."""
    parser = _Parser(text, MODEL_HEADER)
    records = parser.records()
    seen_sections = {section for _, section, _ in records}

    criteria: list[Criterion] = []
    parameters: list[Parameter] = []
    monitored: list[MonitoredVariable] = []
    depends: list[DependRelation] = []
    decision_rule: Optional[str] = None
    decision_set: tuple[str, ...] = ()
    triggers: list[AwarenessTrigger] = []
    constraints: list[EvolutionConstraint] = []
    duration = 0
    horizon: Optional[int] = None
    initial_exo: dict[str, Value] = {}
    initial_spec: Optional[dict[str, Value]] = None
    change_scope: list[tuple[str, Domain]] = []
    atoms: list[tuple[str, str, bool]] = []  # (id, role, mandatory)
    refinements: list[tuple[str, tuple[str, ...]]] = []
    conflicts: list[tuple[str, str]] = []
    goal_lines: list[int] = []
    attributes: list[Criterion] = []
    alt_order: list[str] = []
    lotteries: dict[str, list[tuple[str, Lottery]]] = {}
    utility_dep: Optional[Union[WeightedSum, LookupTable]] = None
    utility_line = 0
    transform: Transform = IdentityTransform()

    def declare(name: str, line: int) -> None:
        parser.decl.setdefault(name, line)

    for line, section, record in records:
        head = record.split(None, 1)[0]
        rest = record[len(head) :].strip()
        if section == "variables":
            tokens = rest.split()
            if head not in ("criterion", "parameter", "monitored") or len(tokens) < 2:
                parser.syntax(line, "expected 'criterion|parameter|monitored ID DOMAIN'")
                continue
            name, domain_text = tokens[0], tokens[1]
            if not _IDENT.match(name):
                parser.syntax(line, f"bad identifier '{name}'")
                continue
            declare(name, line)
            try:
                domain = parse_domain(domain_text)
            except ValueError as err:
                parser.semantic(line, str(err))
                continue
            if head == "criterion":
                attrs = _split_attrs(tokens[2:], line, parser, ("kind", "pref"))
                criteria.append(
                    Criterion(name, domain, attrs.get("kind", "requirement"), attrs.get("pref"))
                )
            elif head == "parameter":
                attrs = _split_attrs(tokens[2:], line, parser, ("default",))
                default = parse_scalar(attrs["default"]) if "default" in attrs else None
                parameters.append(Parameter(name, domain, default))
            else:
                attrs = _split_attrs(tokens[2:], line, parser, ("detect",))
                detect = tuple(
                    parse_scalar(t) for t in attrs.get("detect", "").split(",") if t
                )
                monitored.append(MonitoredVariable(name, domain, detect))
        elif section == "depends":
            dep = _build_depend(line, record, parser)
            if dep is not None:
                declare(dep.id, line)
                depends.append(dep)
        elif section == "decision":
            if head == "rule" and _IDENT.match(rest):
                decision_rule = rest
            elif head == "set" and rest:
                decision_set = tuple(t.strip() for t in rest.split(",") if t.strip())
            else:
                parser.syntax(line, "expected 'rule ID' or 'set ID1,ID2,...'")
        elif section == "triggers":
            m = re.match(r"^trigger\s+(\S+)\s+in\s+(.+)$", record)
            if not m:
                parser.syntax(line, "expected 'trigger CRITERION in RANGE'")
                continue
            tolerable = _parse_tolerable(m.group(2), line, parser)
            if tolerable is not None:
                triggers.append(AwarenessTrigger(m.group(1), tolerable))
                declare(f"trigger {m.group(1)}", line)
        elif section == "evolution":
            if head == "max-changes":
                if not _INT.match(rest):
                    parser.syntax(line, "expected 'max-changes N'")
                    continue
                constraints.append(MaxParameterChanges(int(rest)))
            elif head == "forbid-transition":
                m = re.match(r"^from\s+(.*?)\s+to\s+(.+)$", rest)
                if not m:
                    parser.syntax(line, "expected 'forbid-transition from A=V,... to B=V,...'")
                    continue
                frm = _parse_assignments(m.group(1), line, parser)
                to = _parse_assignments(m.group(2), line, parser)
                if frm is not None and to is not None:
                    constraints.append(
                        ForbiddenTransition(tuple(sorted(frm.items())), tuple(sorted(to.items())))
                    )
            elif head == "forbid-value":
                m = re.match(
                    r"^(\S+?)=(\S+?)(?:\s+unless\s+count\((.+)\)\s*(==|<=|>=)\s*(\d+))?$",
                    rest,
                )
                if not m:
                    parser.syntax(
                        line,
                        "expected 'forbid-value ID=V [unless count(A=V,...) CMP N]'",
                    )
                    continue
                unless = None
                if m.group(3) is not None:
                    tests = _parse_assignments(m.group(3), line, parser)
                    if tests is None:
                        continue
                    unless = UnlessCondition(
                        tuple(sorted(tests.items())), m.group(4), int(m.group(5))
                    )
                constraints.append(
                    ForbiddenValue(m.group(1), parse_scalar(m.group(2)), unless)
                )
            else:
                parser.syntax(line, f"unknown evolution form '{head}'")
        elif section == "simulation":
            if head == "duration" and _INT.match(rest):
                duration = int(rest)
            elif head == "horizon" and _INT.match(rest):
                horizon = int(rest)
            elif head == "initial":
                assigns = _parse_assignments(rest, line, parser)
                if assigns is not None:
                    initial_exo.update(assigns)
            elif head == "initial-spec":
                assigns = _parse_assignments(rest, line, parser)
                if assigns is not None:
                    initial_spec = assigns
            elif head == "change-scope":
                tokens = rest.split()
                if len(tokens) != 2 or not _IDENT.match(tokens[0]):
                    parser.syntax(line, "expected 'change-scope ID DOMAIN'")
                    continue
                try:
                    change_scope.append((tokens[0], parse_domain(tokens[1])))
                except ValueError as err:
                    parser.semantic(line, str(err))
            else:
                parser.syntax(line, f"unknown simulation setting '{head}'")
        elif section == "goalgraph":
            goal_lines.append(line)
            if head == "atom":
                tokens = rest.split()
                if not tokens or not _IDENT.match(tokens[0]):
                    parser.syntax(line, "expected 'atom ID [r|k|s] [mandatory]'")
                    continue
                role = ""
                mandatory = False
                for token in tokens[1:]:
                    if token in ("r", "k", "s"):
                        role = token
                    elif token == "mandatory":
                        mandatory = True
                    else:
                        parser.syntax(line, f"unexpected token '{token}'")
                atoms.append((tokens[0], role, mandatory))
                declare(tokens[0], line)
            elif head == "refine":
                m = re.match(r"^(\S+)\s*<-\s*(.+)$", rest)
                if not m:
                    parser.syntax(line, "expected 'refine CONCLUSION <- P1,P2,...'")
                    continue
                premises = tuple(t.strip() for t in m.group(2).split(",") if t.strip())
                refinements.append((m.group(1), premises))
            elif head == "conflict":
                tokens = rest.split()
                if len(tokens) != 2:
                    parser.syntax(line, "expected 'conflict A B'")
                    continue
                conflicts.append((tokens[0], tokens[1]))
            else:
                parser.syntax(line, f"unknown goal record '{head}'")
        elif section == "attributes":
            tokens = rest.split()
            if head != "attribute" or len(tokens) != 2:
                parser.syntax(line, "expected 'attribute ID DOMAIN'")
                continue
            declare(tokens[0], line)
            try:
                attributes.append(Criterion(tokens[0], parse_domain(tokens[1])))
            except ValueError as err:
                parser.semantic(line, str(err))
        elif section == "alternatives":
            if head == "alternative":
                if not _IDENT.match(rest):
                    parser.syntax(line, "expected 'alternative ID'")
                    continue
                alt_order.append(rest)
                lotteries.setdefault(rest, [])
                declare(rest, line)
            elif head == "lottery":
                tokens = rest.split()
                if len(tokens) < 3:
                    parser.syntax(line, "expected 'lottery ALT ATTR V:P V:P ...'")
                    continue
                alt, attr = tokens[0], tokens[1]
                pairs = []
                bad = False
                for token in tokens[2:]:
                    vtext, sep, ptext = token.rpartition(":")
                    if not sep:
                        parser.syntax(line, f"bad outcome '{token}'")
                        bad = True
                        break
                    try:
                        pairs.append((parse_scalar(vtext), float(ptext)))
                    except ValueError:
                        parser.syntax(line, f"bad probability in '{token}'")
                        bad = True
                        break
                if bad:
                    continue
                lotteries.setdefault(alt, []).append((attr, Lottery(tuple(pairs))))
            else:
                parser.syntax(line, f"unknown alternatives record '{head}'")
        elif section == "utility":
            utility_line = line
            attr_ids = tuple(a.id for a in attributes)
            if head == "weighted-sum":
                try:
                    terms, offset = parse_terms(rest)
                except ValueError as err:
                    parser.semantic(line, str(err))
                    continue
                weight_by_name = {name: w for w, name in terms}
                if len(weight_by_name) != len(terms) or set(weight_by_name) != set(attr_ids):
                    parser.semantic(
                        line, "weighted-sum terms must cover each attribute exactly once"
                    )
                    continue
                utility_dep = WeightedSum(
                    "utility",
                    "utility",
                    attr_ids,
                    tuple(weight_by_name[a] for a in attr_ids),
                    offset,
                )
            elif head == "lookup-table":
                entries = []
                ok = True
                for chunk in rest.split(";"):
                    chunk = chunk.strip()
                    if not chunk:
                        continue
                    key_text, eq, value_text = chunk.partition("=")
                    if not eq:
                        parser.syntax(line, f"bad table entry '{chunk}'")
                        ok = False
                        break
                    key = tuple(parse_scalar(p.strip()) for p in key_text.split(","))
                    try:
                        entries.append((key, float(value_text)))
                    except ValueError:
                        parser.semantic(line, f"bad utility value in '{chunk}'")
                        ok = False
                        break
                if ok:
                    utility_dep = LookupTable("utility", "utility", attr_ids, tuple(entries))
            else:
                parser.syntax(line, "expected 'weighted-sum ...' or 'lookup-table ...'")
        elif section == "transform":
            if head == "identity" and not rest:
                transform = IdentityTransform()
            elif head == "power":
                try:
                    transform = PowerTransform(float(rest))
                except ValueError:
                    parser.syntax(line, "expected 'power EXPONENT'")
            elif head == "table":
                points = []
                ok = True
                for token in rest.split():
                    ptext, sep, ftext = token.partition(":")
                    if not sep:
                        parser.syntax(line, f"bad table point '{token}'")
                        ok = False
                        break
                    try:
                        points.append((float(ptext), float(ftext)))
                    except ValueError:
                        parser.syntax(line, f"bad table point '{token}'")
                        ok = False
                        break
                if ok:
                    transform = TableTransform(tuple(points))
            else:
                parser.syntax(line, f"unknown transform '{head}'")

    # Assemble the pieces, converting construction errors to located issues.

    model: Optional[Model] = None
    if seen_sections & {"variables", "depends", "decision"}:
        model = Model(
            criteria=tuple(criteria),
            parameters=tuple(parameters),
            monitored=tuple(monitored),
            depends=tuple(depends),
            decision_rule=decision_rule,
            decision_set=decision_set,
        )
        for violation in model.violations:
            parser.semantic(
                parser.decl.get(violation.subject, 1), str(violation)
            )

    goals: Optional[GoalGraph] = None
    if "goalgraph" in seen_sections:
        try:
            goals = goal_graph(
                atoms=tuple(a for a, _, _ in atoms),
                refinements=tuple(refinements),
                conflicts=tuple(conflicts),
                r_atoms=tuple(a for a, role, _ in atoms if role == "r"),
                k_atoms=tuple(a for a, role, _ in atoms if role == "k"),
                s_atoms=tuple(a for a, role, _ in atoms if role == "s"),
                mandatory=tuple(a for a, _, m in atoms if m),
            )
        except DefinitionError as err:
            parser.semantic(goal_lines[0] if goal_lines else 1, str(err))

    decision: Optional[DecisionModel] = None
    if seen_sections & {"attributes", "alternatives", "utility", "transform"}:
        if utility_dep is None:
            parser.semantic(utility_line or 1, "decision model lacks a [utility] section")
        else:
            decision = DecisionModel(
                alternatives=tuple(
                    Alternative(alt, tuple(lotteries.get(alt, ()))) for alt in alt_order
                ),
                attributes=tuple(attributes),
                utility=utility_dep,
                transform=transform,
            )
            for violation in validate_decision_model(decision):
                parser.semantic(
                    parser.decl.get(violation.subject, utility_line or 1), str(violation)
                )

    spec_obj: Optional[Specification] = None
    if initial_spec is not None:
        spec_obj = Specification.from_mapping(initial_spec)
        if model is not None:
            wanted = {p.id for p in model.parameters}
            got = set(initial_spec)
            if wanted != got:
                parser.semantic(
                    1,
                    "initial-spec must assign exactly the parameters "
                    f"(missing {sorted(wanted - got)}, extra {sorted(got - wanted)})",
                )
    if model is not None:
        for trigger in triggers:
            try:
                model.criterion(trigger.criterion)
            except KeyError:
                parser.semantic(
                    parser.decl.get(f"trigger {trigger.criterion}", 1),
                    f"trigger watches unknown criterion '{trigger.criterion}'",
                )
        for name in initial_exo:
            try:
                model.monitored_variable(name)
            except KeyError:
                parser.semantic(1, f"initial value for non-monitored variable '{name}'")
        for name, _ in change_scope:
            if model.has_variable(name):
                parser.semantic(1, f"change-scope variable '{name}' is already in the model")

    if parser.issues:
        raise ParseFailure(parser.issues)

    config = SimulationConfig(
        adaptation_duration=duration,
        triggers=tuple(triggers),
        constraints=tuple(constraints),
        initial_exogenous=tuple(sorted(initial_exo.items())),
        initial_spec=spec_obj,
        horizon=horizon,
        change_scope=tuple(change_scope),
    )
    return ModelBundle(model=model, config=config, goals=goals, decision=decision)


# ---------------------------------------------------------------------------
# Model file serialization


def _serialize_depend(dep: DependRelation) -> str:
    if isinstance(dep, BooleanFormula):
        return f"boolean-formula {dep.id} -> {dep.output} : {serialize_expr(dep.expr)}"
    if isinstance(dep, WeightedSum):
        return (
            f"weighted-sum {dep.id} -> {dep.output} : "
            + serialize_terms(dep.inputs, dep.weights, dep.offset)
        )
    if isinstance(dep, LookupTable):
        entries = " ; ".join(
            ",".join(format_scalar(v) for v in key) + "=" + format_scalar(value)
            for key, value in dep.entries
        )
        return (
            f"lookup-table {dep.id} -> {dep.output} : "
            + ",".join(dep.inputs)
            + " : "
            + entries
        )
    if isinstance(dep, ThresholdStep):
        return f"threshold-step {dep.id} -> {dep.output} : {dep.input} >= {dep.cut!r}"
    if isinstance(dep, LinearConstraint):
        terms = serialize_terms(dep.inputs, dep.coefficients, 0.0)
        return f"linear {dep.id} : {terms} {dep.comparator} {dep.bound!r}"
    if isinstance(dep, CardinalityConstraint):
        return (
            f"cardinality {dep.id} : "
            + ",".join(dep.inputs)
            + f" {dep.comparator} {dep.bound}"
        )
    return f"incompatibility {dep.id} : {dep.a} {dep.b}"


def _serialize_tolerable(tolerable: TolerableRange) -> str:
    if isinstance(tolerable, IntervalRange):
        lo = "*" if tolerable.lo is None else repr(tolerable.lo)
        hi = "*" if tolerable.hi is None else repr(tolerable.hi)
        return f"[{lo},{hi}]"
    return "{" + ",".join(format_scalar(v) for v in tolerable.values) + "}"


def _serialize_assignments(items: tuple[tuple[str, Value], ...]) -> str:
    return ",".join(f"{name}={format_scalar(value)}" for name, value in items)


def serialize_model(bundle: ModelBundle) -> str:
    """Canonical text for a bundle; parse_model inverts it."""
    out = [MODEL_HEADER]
    model = bundle.model
    if model is not None:
        out.append("")
        out.append("[variables]")
        for c in model.criteria:
            extra = ""
            if c.kind != "requirement":
                extra += f" kind={c.kind}"
            if c.preference is not None:
                extra += f" pref={c.preference}"
            out.append(f"criterion {c.id} {serialize_domain(c.domain)}{extra}")
        for p in model.parameters:
            extra = "" if p.default is None else f" default={format_scalar(p.default)}"
            out.append(f"parameter {p.id} {serialize_domain(p.domain)}{extra}")
        for m in model.monitored:
            extra = ""
            if m.detectable_range:
                extra = " detect=" + ",".join(
                    format_scalar(v) for v in m.detectable_range
                )
            out.append(f"monitored {m.id} {serialize_domain(m.domain)}{extra}")
        if model.depends:
            out.append("")
            out.append("[depends]")
            out.extend(_serialize_depend(dep) for dep in model.depends)
        if model.decision_rule is not None or model.decision_set:
            out.append("")
            out.append("[decision]")
            if model.decision_rule is not None:
                out.append(f"rule {model.decision_rule}")
            if model.decision_set:
                out.append("set " + ",".join(model.decision_set))

    config = bundle.config
    if config.triggers:
        out.append("")
        out.append("[triggers]")
        for t in config.triggers:
            out.append(f"trigger {t.criterion} in {_serialize_tolerable(t.tolerable)}")
    if config.constraints:
        out.append("")
        out.append("[evolution]")
        for con in config.constraints:
            if isinstance(con, MaxParameterChanges):
                out.append(f"max-changes {con.limit}")
            elif isinstance(con, ForbiddenTransition):
                out.append(
                    "forbid-transition from "
                    + _serialize_assignments(con.from_values)
                    + " to "
                    + _serialize_assignments(con.to_values)
                )
            else:
                text = f"forbid-value {con.parameter}={format_scalar(con.value)}"
                if con.unless is not None:
                    text += (
                        " unless count("
                        + _serialize_assignments(con.unless.tests)
                        + f") {con.unless.comparator} {con.unless.bound}"
                    )
                out.append(text)
    sim_lines = []
    if config.adaptation_duration:
        sim_lines.append(f"duration {config.adaptation_duration}")
    if config.horizon is not None:
        sim_lines.append(f"horizon {config.horizon}")
    if config.initial_exogenous:
        sim_lines.append("initial " + _serialize_assignments(config.initial_exogenous))
    if config.initial_spec is not None:
        sim_lines.append(
            "initial-spec " + _serialize_assignments(config.initial_spec.items)
        )
    for name, domain in config.change_scope:
        sim_lines.append(f"change-scope {name} {serialize_domain(domain)}")
    if sim_lines:
        out.append("")
        out.append("[simulation]")
        out.extend(sim_lines)

    goals = bundle.goals
    if goals is not None:
        out.append("")
        out.append("[goalgraph]")
        for atom in sorted(goals.atoms):
            role = ""
            if atom in goals.r_atoms:
                role = " r"
            elif atom in goals.k_atoms:
                role = " k"
            elif atom in goals.s_atoms:
                role = " s"
            flag = " mandatory" if atom in goals.mandatory else ""
            out.append(f"atom {atom}{role}{flag}")
        for ref in goals.refinements:
            out.append(f"refine {ref.conclusion} <- " + ",".join(sorted(ref.premises)))
        for pair in sorted(tuple(sorted(p)) for p in goals.conflicts):
            out.append(f"conflict {pair[0]} {pair[1]}")

    decision = bundle.decision
    if decision is not None:
        out.append("")
        out.append("[attributes]")
        for attr in decision.attributes:
            out.append(f"attribute {attr.id} {serialize_domain(attr.domain)}")
        out.append("")
        out.append("[alternatives]")
        for alt in decision.alternatives:
            out.append(f"alternative {alt.id}")
        for alt in decision.alternatives:
            for attr_id, lot in alt.lotteries:
                pairs = " ".join(
                    f"{format_scalar(v)}:{p!r}" for v, p in lot.outcomes
                )
                out.append(f"lottery {alt.id} {attr_id} {pairs}")
        out.append("")
        out.append("[utility]")
        if isinstance(decision.utility, WeightedSum):
            out.append(
                "weighted-sum "
                + serialize_terms(
                    decision.utility.inputs,
                    decision.utility.weights,
                    decision.utility.offset,
                )
            )
        else:
            entries = " ; ".join(
                ",".join(format_scalar(v) for v in key) + "=" + repr(value)
                for key, value in decision.utility.entries
            )
            out.append("lookup-table " + entries)
        out.append("")
        out.append("[transform]")
        if isinstance(decision.transform, IdentityTransform):
            out.append("identity")
        elif isinstance(decision.transform, PowerTransform):
            out.append(f"power {decision.transform.exponent!r}")
        else:
            out.append(
                "table "
                + " ".join(f"{p!r}:{f!r}" for p, f in decision.transform.points)
            )

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
    return ",".join(f"{name}={format_number(value)}" for name, value in items)


def _period_record(period: Period) -> str:
    ignored = ",".join(
        f"{e.variable}@{e.tick}={format_scalar(e.value)}" for e in period.ignored
    )
    bits = "".join("1" if flag else "0" for flag in period.optimal)
    return (
        f"period kind={period.kind} start={period.start} end={period.end}"
        f" spec={format_assignments(period.spec.items)}"
        f" instance={format_assignments(period.instance.items)}"
        f" fired={','.join(period.fired)}"
        f" ignored={ignored}"
        f" optimal={bits}"
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
        lines.append(
            "  spec: "
            + ", ".join(f"{n}={format_number(v)}" for n, v in period.spec.items)
        )
        lines.append(
            "  instance: "
            + ", ".join(f"{n}={format_number(v)}" for n, v in period.instance.items)
        )
        if period.fired:
            lines.append("  fired: " + ", ".join(period.fired))
        if period.ignored:
            lines.append(
                "  ignored: "
                + ", ".join(
                    f"{e.variable}@{e.tick}={format_scalar(e.value)}"
                    for e in period.ignored
                )
            )
        lines.append(
            "  optimal: " + "".join("1" if flag else "0" for flag in period.optimal)
        )
    lines.append("metrics:")
    lines.append(f"  optimal time fraction: {metrics.optimal_time_fraction:.6f}")
    lines.append(f"  trigger count: {metrics.trigger_count}")
    lines.append(f"  adaptation ticks: {metrics.adaptation_tick_total}")
    lines.append(f"  ignored events: {metrics.ignored_event_count}")
    return "\n".join(lines) + "\n"
