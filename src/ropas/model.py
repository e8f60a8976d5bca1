"""Problem-space / solution-space model: variables, depend relations, evaluation.

A model declares three disjoint variable collections (criteria, parameters,
monitored variables) and a list of depend relations over them.  Functional
depends compute one output variable from inputs; pure-constraint depends
restrict which value combinations are feasible.  A specification assigns every
parameter; evaluating it against exogenous monitored values yields a problem
instance (one value per criterion).

Only a valid model is evaluated: ``Model._compiled`` is the one validity
gate, raising the definition error ``invalid model: …`` with every
``validate_model`` finding, and every evaluation entry reads it before it
evaluates anything (``evaluate``, ``is_feasible``, ``search_specifications``
and with it enumeration and solving, ``complete_specification``, and the
solver's brute-force oracles).  The file formats report the same findings
when a file is parsed.

Values are canonicalized where they enter: the public ``evaluate`` and
``is_feasible`` check the specification and the exogenous map and
canonicalize each value once, then call ``_evaluated``, the one evaluation
entry, which trusts canonical input and checks nothing again.  The search
and ``complete_specification`` canonicalize their exogenous map once per
call and the search emits canonical specifications, so callers holding
those (the simulator) call ``_evaluated`` directly.

Each ``Model`` indexes itself once, on first use, through cached properties:
id lookups, the functional depends' evaluation order, each lookup table's
canonical keys, its validation findings, and the compiled view.  There each
functional depend is the one function computing its canonical output, for
the search, ``_evaluated`` and ``complete_specification`` alike: a lookup
table is a dict from canonical key to canonical value, a formula or a step
yields its boolean 0 or 1, and only a weighted sum canonicalizes its value
as it computes it.  Each pure constraint is one linear row: a cardinality
constraint is an all-ones row and an incompatibility the row ``a + b <= 1``.
A weighted sum computing the decision rule is a row as well.  Every
evaluation, feasibility check and search of that model reuses the index.

``search_specifications``, the one propagating search behind enumeration,
solving and the simulator's re-solves, varies every parameter that its
caller does not pin and no depend computes.  Solving pins each parameter
outside the decision set to its default, a re-solve to its value in the
active specification (both through ``pinned_values``), and enumeration
pins what its caller asks, by default nothing.  So solving's cap covers
the decision set, and enumeration's, a re-solve's included, every
parameter it does not pin.  The search descends in a loop over an explicit
stack, keeps each row's interval over the current branch's completions on
undo trails, one per kind of step, and prunes a branch once some row cannot
hold.  It also cuts every branch whose rule row cannot reach the floor its
visitor returned (branch and bound), bounding that row with its at-most-one
groups: of the inputs with a positive term in one ``<= 1`` or ``== 1`` row
over 0/1 inputs, only the largest open term counts.  It visits the same
leaves in the same order as without the groups, never cuts a leaf that ties
the floor, and a cut branch raises no evaluation error.

All operations are pure and deterministic.  Objects are immutable, so sharing
them across threads is safe; two threads racing to build a model's index at
worst build it twice, with equal results.  The one mutable piece, the
simulator's memo on a model (``Model._simulation_memo``), holds only pure
results, so two racing runs at worst compute an entry twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import (
    Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union,
)

from .domains import (
    TOLERANCE,
    Boolean,
    Domain,
    IntegerRange,
    Value,
    domain_bounds,
    is_finite,
)
from .errors import DefinitionError, EvaluationError, SizeLimitError

DEFAULT_ENUMERATION_CAP = 1 << 24

CRITERION_KINDS = ("requirement", "domain-knowledge", "quality-variable", "utility")
PREFERENCES = ("higher-better", "lower-better")
COMPARATORS = ("==", "<=", ">=")


# ---------------------------------------------------------------------------
# Variables


@dataclass(frozen=True)
class Criterion:
    """An evaluable variable with an optional desirability ordering.

    ``kind`` distinguishes requirement, domain-knowledge, quality-variable and
    utility criteria; utility criteria must declare ``higher-better``.
    """

    id: str
    domain: Domain
    kind: str = "requirement"
    preference: Optional[str] = None


@dataclass(frozen=True)
class Parameter:
    """A chooseable variable; a specification assigns one domain value to it."""

    id: str
    domain: Domain
    default: Optional[Value] = None


@dataclass(frozen=True)
class MonitoredVariable:
    """An exogenous variable the running system can observe.

    ``detectable_range`` is the subset of the domain the monitoring
    infrastructure can actually report; changes outside it go unseen.
    """

    id: str
    domain: Domain
    detectable_range: tuple[Value, ...] = ()

    def detects(self, value: Value) -> bool:
        """Whether monitoring reports ``value``: it lies in the domain and, when
        a detectable range is given, is one of its values.  Values compare
        canonical, so ``detect=0.3`` on ``grid:0:0.5:0.1`` names the grid
        point ``0.1 * 3``."""
        domain = self.domain
        if not domain.contains(value):
            return False
        return not self.detectable_range or domain.canonical(value) in self._detectable

    @cached_property
    def _detectable(self) -> frozenset:
        """The canonical values of the detectable range that lie in the domain."""
        domain = self.domain
        return frozenset(domain.canonical(v) for v in self.detectable_range if domain.contains(v))


# ---------------------------------------------------------------------------
# Boolean formula expressions (nested tuples)
#
#   ("var", name)      leaf variable reference
#   ("and", e1, ...)   conjunction (empty = constant 1)
#   ("or", e1, ...)    disjunction (empty = constant 0)
#   ("not", e)         negation

BoolExpr = tuple

# The most connectives a formula may have on one path from its root to a
# leaf.  A deeper formula is invalid, so that compiling and evaluating a valid
# one (both recurse once per level) stays far inside Python's recursion limit.
MAX_FORMULA_DEPTH = 100


def var(name: str) -> BoolExpr:
    return ("var", name)


def and_(*exprs: BoolExpr) -> BoolExpr:
    return ("and", *exprs)


def or_(*exprs: BoolExpr) -> BoolExpr:
    return ("or", *exprs)


def not_(expr: BoolExpr) -> BoolExpr:
    return ("not", expr)


def expr_vars(expr: BoolExpr) -> tuple[str, ...]:
    """Leaf variable names in first-appearance order, deduplicated."""
    seen: dict[str, None] = {}
    stack = [expr]
    while stack:
        e = stack.pop()
        if e[0] == "var":
            seen.setdefault(e[1], None)
        else:
            stack.extend(reversed(e[1:]))
    return tuple(seen)


def _expr_fault(expr: object) -> Optional[str]:
    """Why ``expr`` is not a well-formed formula expression, or None: a
    malformed node, or more than ``MAX_FORMULA_DEPTH`` nested connectives."""
    stack = [(expr, 0)]
    while stack:
        e, depth = stack.pop()
        if not isinstance(e, tuple) or not e:
            return "malformed formula expression"
        op = e[0]
        if op == "var":
            if not (len(e) == 2 and isinstance(e[1], str) and e[1]):
                return "malformed formula expression"
        elif op in ("and", "or") or (op == "not" and len(e) == 2):
            if depth == MAX_FORMULA_DEPTH:
                return f"formula nested deeper than {MAX_FORMULA_DEPTH} levels"
            stack.extend((child, depth + 1) for child in e[1:])
        else:
            return "malformed formula expression"
    return None


def expr_ok(expr: object) -> bool:
    """Structural well-formedness check for a formula expression, its
    nesting depth included."""
    return _expr_fault(expr) is None


def _compile_expr(expr: BoolExpr) -> Callable[[Mapping[str, Value]], int]:
    """``expr`` as a closure computing its 0 or 1 (a leaf is 1 when truthy,
    a missing one raises ``KeyError``); ``and``/``or`` stop at the first
    deciding child, and read a leaf child in place rather than through a
    closure of its own."""
    op = expr[0]
    if op == "var":
        name = expr[1]
        return lambda env: 1 if env[name] else 0
    if op not in ("and", "or"):
        inner = _compile_expr(expr[1])
        return lambda env: 1 - inner(env)
    # Per child: (its name, None) for a leaf, else (None, its closure).
    parts = tuple(
        (child[1], None) if child[0] == "var" else (None, _compile_expr(child))
        for child in expr[1:]
    )
    if op == "and":
        def junction(env: Mapping[str, Value]) -> int:
            for name, part in parts:
                if not (env[name] if part is None else part(env)):
                    return 0
            return 1
    else:
        def junction(env: Mapping[str, Value]) -> int:
            for name, part in parts:
                if env[name] if part is None else part(env):
                    return 1
            return 0
    return junction


# ---------------------------------------------------------------------------
# Depend relations


@dataclass(frozen=True)
class BooleanFormula:
    """Functional depend: output = and/or/not formula over boolean variables."""

    id: str
    output: str
    expr: BoolExpr

    @cached_property
    def inputs(self) -> tuple[str, ...]:
        """The formula's variables; none if it is ill-formed (validation says so)."""
        return expr_vars(self.expr) if expr_ok(self.expr) else ()


@dataclass(frozen=True)
class WeightedSum:
    """Functional depend: output = offset + sum(weight_i * input_i)."""

    id: str
    output: str
    inputs: tuple[str, ...]
    weights: tuple[float, ...]
    offset: float = 0.0


@dataclass(frozen=True)
class LookupTable:
    """Functional depend: output = table[(input values...)], total over inputs."""

    id: str
    output: str
    inputs: tuple[str, ...]
    entries: tuple[tuple[tuple[Value, ...], Value], ...]

    @cached_property
    def lookup(self) -> dict[tuple[Value, ...], Value]:
        """The entries as a dict (a repeated key keeps its last value), built
        once and shared: read it, never mutate it."""
        return dict(self.entries)


@dataclass(frozen=True)
class ThresholdStep:
    """Functional depend: output = 1 iff input >= cut, else 0."""

    id: str
    output: str
    input: str
    cut: float

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.input,)


@dataclass(frozen=True)
class LinearConstraint:
    """Pure constraint: sum(coeff_i * input_i) <cmp> bound."""

    id: str
    inputs: tuple[str, ...]
    coefficients: tuple[float, ...]
    comparator: str
    bound: float

    output = None


@dataclass(frozen=True)
class CardinalityConstraint:
    """Pure constraint: sum of boolean inputs <cmp> bound."""

    id: str
    inputs: tuple[str, ...]
    comparator: str
    bound: int

    output = None


@dataclass(frozen=True)
class Incompatibility:
    """Pure constraint: the two boolean inputs may not both be 1."""

    id: str
    a: str
    b: str

    output = None

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.a, self.b)


FunctionalDepend = Union[BooleanFormula, WeightedSum, LookupTable, ThresholdStep]
ConstraintDepend = Union[LinearConstraint, CardinalityConstraint, Incompatibility]
DependRelation = Union[FunctionalDepend, ConstraintDepend]


def is_functional(dep: DependRelation) -> bool:
    return dep.output is not None


# ---------------------------------------------------------------------------
# Assignments


@dataclass(frozen=True)
class Specification:
    """A total assignment of values to parameters, stored sorted by id."""

    items: tuple[tuple[str, Value], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Value]) -> "Specification":
        return cls(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, Value]:
        return dict(self.items)

    def __getitem__(self, key: str) -> Value:
        for k, v in self.items:
            if k == key:
                return v
        raise KeyError(key)

    def get(self, key: str, default: Optional[Value] = None) -> Optional[Value]:
        return next((v for k, v in self.items if k == key), default)


class ProblemInstance(Specification):
    """A total assignment of values to criteria, stored sorted by id."""


# ---------------------------------------------------------------------------
# Model


@dataclass(frozen=True)
class Model:
    """A complete problem-space/solution-space declaration."""

    criteria: tuple[Criterion, ...] = ()
    parameters: tuple[Parameter, ...] = ()
    monitored: tuple[MonitoredVariable, ...] = ()
    depends: tuple[DependRelation, ...] = ()
    decision_rule: Optional[str] = None
    decision_set: tuple[str, ...] = ()

    # The index below is derived once per model on first use (cached
    # properties are not fields, so equality, hashing and ``replace`` ignore
    # them).  The first declaration of an id wins, within a group and across
    # the groups in field order; the maps are built in reverse to get that.

    @cached_property
    def _criteria_by_id(self) -> dict[str, Criterion]:
        return {c.id: c for c in reversed(self.criteria)}

    @cached_property
    def _parameters_by_id(self) -> dict[str, Parameter]:
        return {p.id: p for p in reversed(self.parameters)}

    @cached_property
    def _monitored_by_id(self) -> dict[str, MonitoredVariable]:
        return {m.id: m for m in reversed(self.monitored)}

    @cached_property
    def _domains(self) -> dict[str, Domain]:
        groups = (self.criteria, self.parameters, self.monitored)
        return {v.id: v.domain for group in reversed(groups) for v in reversed(group)}

    def criterion(self, cid: str) -> Criterion:
        return self._criteria_by_id[cid]

    def parameter(self, pid: str) -> Parameter:
        return self._parameters_by_id[pid]

    def monitored_variable(self, mid: str) -> MonitoredVariable:
        return self._monitored_by_id[mid]

    def variable_domain(self, vid: str) -> Domain:
        return self._domains[vid]

    def has_variable(self, vid: str) -> bool:
        return vid in self._domains

    @cached_property
    def sorted_parameters(self) -> tuple[Parameter, ...]:
        return tuple(sorted(self.parameters, key=lambda p: p.id))

    @cached_property
    def producers(self) -> dict[str, FunctionalDepend]:
        """Output id -> the functional depend computing it (the last one wins)."""
        return {d.output: d for d in self.depends if is_functional(d)}

    @cached_property
    def constraint_depends(self) -> tuple[ConstraintDepend, ...]:
        return tuple(d for d in self.depends if not is_functional(d))

    @cached_property
    def topological_depends(self) -> tuple[FunctionalDepend, ...]:
        """Functional depends ordered so inputs are computed before outputs.

        Raises a definition error on a cycle (nothing is cached then); its
        ``root`` is the first producer, in sorted order, that reaches it.
        """
        producers = self.producers
        ordered: list[FunctionalDepend] = []
        done: set[str] = set()
        visiting: set[str] = set()
        for root in sorted(producers):
            if root in done:
                continue
            # A post-order walk: each frame is a variable being visited and
            # the iterator over its producer's inputs not yet visited.
            visiting.add(root)
            stack = [(root, iter(producers[root].inputs))]
            while stack:
                vid, pending = stack[-1]
                for name in pending:
                    if name in done or name not in producers:
                        continue
                    if name in visiting:
                        cycle = DefinitionError(f"functional depend cycle through '{name}'")
                        cycle.root = root  # type: ignore[attr-defined]
                        raise cycle
                    visiting.add(name)
                    stack.append((name, iter(producers[name].inputs)))
                    break
                else:
                    stack.pop()
                    visiting.discard(vid)
                    done.add(vid)
                    ordered.append(producers[vid])
        return tuple(ordered)

    @cached_property
    def _table_keys(self) -> dict[int, list[Optional[tuple]]]:
        """Each lookup table's keys made canonical, by the depend's ``id``."""
        keys = {}
        for dep in self.depends:
            if isinstance(dep, LookupTable) and all(map(self.has_variable, dep.inputs)):
                domains = [self.variable_domain(name) for name in dep.inputs]
                keys[id(dep)] = [_canonical_key(domains, key) for key in dep.lookup]
        return keys

    @cached_property
    def _compiled(self) -> _Compiled:
        """The compiled view of the depends: the functional depends
        numbered in evaluation order, each with its output and a function
        computing it from the environment, the numbers of the depends reading
        each variable, one linear row per pure constraint and one for a
        weighted-sum decision rule, their watch lists, and the rule's groups.

        The validity gate: on a model with ``violations`` it raises the
        definition error ``invalid model: …`` naming them all (and caches
        nothing), so what reads it compiles and evaluates valid models only."""
        if self.violations:
            raise DefinitionError("invalid model: " + "; ".join(map(str, self.violations)))
        topo = self.topological_depends
        feeds: dict[str, tuple[int, ...]] = {}
        for number, dep in enumerate(topo):
            for name in dep.inputs:
                feeds[name] = feeds.get(name, ()) + (number,)
        computes = tuple(_compile_functional(self, dep) for dep in topo)
        rows = tuple(_compile_row(self, con) for con in self.constraint_depends)
        objective = None
        rule = self.producers.get(self.decision_rule)  # type: ignore[arg-type]
        if isinstance(rule, WeightedSum):
            row = _compile_row(self, rule)
            objective = (row, _at_most_one_groups(rows, row))
            rows += (row,)
        outputs = tuple(dep.output for dep in topo)
        return _Compiled(outputs, computes, feeds, rows, _watch_lists(rows), objective)

    @cached_property
    def _simulation_memo(self) -> dict:
        """The simulator's set-up of each configuration run on this model,
        keyed by the configuration, and its re-solves and statuses, keyed by
        the part of the configuration they read (``runtime.run_simulation``).
        Every run of this model object shares it; a fresh parse or
        ``replace`` starts empty."""
        return {}

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """``validate_model``'s findings, computed once per model."""
        return tuple(validate_model(self))


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    """One validated-invariant failure, naming the offending object."""

    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.message}"


def _check_inputs(
    model: Model, dep, kind: Optional[str], out: list[Violation], what: str = ""
) -> bool:
    """Each input must be a declared variable of the given kind (any kind when
    None); True when every input is declared."""
    declared = True
    for name in dep.inputs:
        if not model.has_variable(name):
            out.append(Violation(dep.id, f"references unknown variable '{name}'"))
            declared = False
        elif kind is not None:
            domain = model.variable_domain(name)
            if kind == "boolean":
                ok = isinstance(domain, Boolean)
            else:
                ok = domain_bounds(domain) is not None
            if not ok:
                out.append(Violation(dep.id, f"{what}input '{name}' is not {kind}"))
    return declared


def _check_boolean_output(model: Model, dep, what: str, out: list[Violation]) -> None:
    domain = model._domains.get(dep.output)
    if domain is not None and not isinstance(domain, Boolean):
        out.append(Violation(dep.id, f"{what} output must be boolean"))


def _check_finite(subject: str, out: list[Violation], **numbers: Iterable[float]) -> None:
    """Each named number must be finite; reports the first one that is not."""
    for what, values in numbers.items():
        for value in values:
            if not is_finite(value):
                out.append(Violation(subject, f"{what} {value!r} is not a finite number"))
                return


def _canonical_key(domains: Sequence[Domain], key: tuple) -> Optional[tuple]:
    """``key`` with each value canonical in its domain; None when the arity
    differs or a value lies outside its domain."""
    if len(key) != len(domains):
        return None
    try:
        return tuple([d.canonical(v) for d, v in zip(domains, key)])
    except DefinitionError:
        return None


def _check_coverage(
    subject: str,
    domains: Sequence[Domain],
    keys: Iterable[Optional[tuple]],
    what: str,
    out: list[Violation],
) -> None:
    """A table's keys, each made canonical by ``_canonical_key`` (None for
    one outside the domains), must cover every combination of the domains'
    values."""
    covered = set(keys)
    covered.discard(None)
    expected = prod(d.size for d in domains)
    if len(covered) < expected:
        message = f"table covers {len(covered)} of {expected} {what} combinations"
        out.append(Violation(subject, message))


def _shape_fault(dep: DependRelation) -> Optional[str]:
    """Why a depend's sequence fields are not sequences, or a table entry not
    a (key tuple, value) pair, or None: every other check reads them."""
    for name in ("inputs", "weights", "coefficients", "entries"):
        if name in dep.__dataclass_fields__ and not isinstance(getattr(dep, name), (tuple, list)):
            return f"{name} is not a sequence"
    for entry in dep.entries if isinstance(dep, LookupTable) else ():
        if not (isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], tuple)):
            return f"table entry {entry!r} is not a (key, value) pair"
    return None


def validate_model(model: Model) -> list[Violation]:
    """Check every model invariant; an empty list means the model is valid."""
    out: list[Violation] = []

    ids: dict[str, str] = {}
    for group, label in (
        (model.criteria, "criterion"),
        (model.parameters, "parameter"),
        (model.monitored, "monitored variable"),
    ):
        for v in group:
            if not v.id:
                out.append(Violation(label, "empty id"))
                continue
            if v.id in ids:
                out.append(Violation(v.id, f"duplicate id (also a {ids[v.id]})"))
            else:
                ids[v.id] = label

    for c in model.criteria:
        if c.kind not in CRITERION_KINDS:
            out.append(Violation(c.id, f"unknown criterion kind '{c.kind}'"))
        if c.preference is not None and c.preference not in PREFERENCES:
            out.append(Violation(c.id, f"unknown preference '{c.preference}'"))
        if c.kind == "utility" and c.preference != "higher-better":
            out.append(Violation(c.id, "utility criterion must be higher-better"))

    for p in model.parameters:
        if p.default is not None and not p.domain.contains(p.default):
            out.append(Violation(p.id, f"default {p.default!r} outside domain"))

    for m in model.monitored:
        for v in m.detectable_range:
            if not m.domain.contains(v):
                out.append(Violation(m.id, f"detectable value {v!r} outside domain"))

    # A malformed depend is reported alone.
    shapes = [Violation(d.id, fault) for d in model.depends if (fault := _shape_fault(d))]
    if shapes:
        return out + shapes

    criterion_ids = model._criteria_by_id
    parameter_ids = model._parameters_by_id
    producers = model.producers

    dep_ids: set[str] = set()
    defined_by: dict[str, list[str]] = {}
    for dep in model.depends:
        if dep.id in dep_ids:
            out.append(Violation(dep.id, "duplicate depend id"))
        dep_ids.add(dep.id)

        if is_functional(dep):
            if dep.output not in criterion_ids and dep.output not in parameter_ids:
                out.append(
                    Violation(dep.id, f"output '{dep.output}' is not a criterion or parameter")
                )
            else:
                defined_by.setdefault(dep.output, []).append(dep.id)

        if isinstance(dep, BooleanFormula):
            fault = _expr_fault(dep.expr)
            if fault is not None:
                out.append(Violation(dep.id, fault))
            else:
                _check_inputs(model, dep, "boolean", out, "formula ")
                _check_boolean_output(model, dep, "formula", out)
        elif isinstance(dep, WeightedSum):
            if len(dep.weights) != len(dep.inputs):
                out.append(Violation(dep.id, "weight count differs from input count"))
            if not dep.inputs:
                out.append(Violation(dep.id, "weighted sum needs at least one input"))
            _check_finite(dep.id, out, weight=dep.weights, offset=(dep.offset,))
            _check_inputs(model, dep, "numeric", out)
        elif isinstance(dep, LookupTable):
            if not dep.inputs:
                out.append(Violation(dep.id, "lookup table needs at least one input"))
            elif _check_inputs(model, dep, None, out):
                domains = [model.variable_domain(n) for n in dep.inputs]
                if len(dep.lookup) != len(dep.entries):
                    out.append(Violation(dep.id, "duplicate table keys"))
                canonical_keys = model._table_keys[id(dep)]
                for key, canonical in zip(dep.lookup, canonical_keys):
                    if len(key) != len(dep.inputs):
                        out.append(Violation(dep.id, f"key {key!r} has wrong arity"))
                    elif canonical is None:
                        out.append(Violation(dep.id, f"key {key!r} outside input domains"))
                _check_coverage(dep.id, domains, canonical_keys, "input", out)
                if model.has_variable(dep.output):
                    odom = model.variable_domain(dep.output)
                    for key, val in dep.entries:
                        if not odom.contains(val):
                            out.append(
                                Violation(dep.id, f"table value {val!r} outside output domain")
                            )
        elif isinstance(dep, ThresholdStep):
            _check_finite(dep.id, out, cut=(dep.cut,))
            _check_inputs(model, dep, "numeric", out)
            _check_boolean_output(model, dep, "step", out)
        elif isinstance(dep, LinearConstraint):
            if len(dep.coefficients) != len(dep.inputs):
                out.append(Violation(dep.id, "coefficient count differs from input count"))
            if dep.comparator not in COMPARATORS:
                out.append(Violation(dep.id, f"unknown comparator '{dep.comparator}'"))
            _check_finite(dep.id, out, coefficient=dep.coefficients, bound=(dep.bound,))
            _check_inputs(model, dep, "numeric", out)
        elif isinstance(dep, CardinalityConstraint):
            if dep.comparator not in COMPARATORS:
                out.append(Violation(dep.id, f"unknown comparator '{dep.comparator}'"))
            if not dep.inputs:
                out.append(Violation(dep.id, "cardinality needs at least one input"))
            _check_finite(dep.id, out, bound=(dep.bound,))
            _check_inputs(model, dep, "boolean", out, "cardinality ")
        elif isinstance(dep, Incompatibility):
            if dep.a == dep.b:
                out.append(Violation(dep.id, "incompatibility needs two distinct variables"))
            _check_inputs(model, dep, "boolean", out, "incompatibility ")

    for vid, definers in defined_by.items():
        if len(definers) > 1:
            out.append(
                Violation(vid, f"defined by multiple depends: {', '.join(sorted(definers))}")
            )

    try:
        model.topological_depends
    except DefinitionError as cycle:
        out.append(Violation(cycle.root, "functional depend cycle"))  # type: ignore[attr-defined]

    if model.decision_rule is not None:
        if model.decision_rule not in criterion_ids:
            out.append(
                Violation("decision rule", f"'{model.decision_rule}' is not a criterion")
            )
        else:
            rule = model.criterion(model.decision_rule)
            if rule.preference != "higher-better":
                out.append(
                    Violation("decision rule", f"'{rule.id}' is not higher-better")
                )

    for pid in model.decision_set:
        if pid not in parameter_ids:
            out.append(Violation("decision set", f"'{pid}' is not a parameter"))
        elif pid in producers:
            out.append(
                Violation("decision set", f"'{pid}' is the output of a functional depend")
            )

    return out


# ---------------------------------------------------------------------------
# Evaluation


def _compile_functional(
    model: Model, dep: FunctionalDepend
) -> Callable[[Mapping[str, Value]], Value]:
    """The one function computing ``dep``'s canonical output from an
    environment of canonical values, for a valid ``model``.  A missing input
    raises ``KeyError`` naming the first one read.  A formula or a step
    returns its 0 or 1 (its output is boolean), and a table the canonical
    value under the canonical key.  Only a weighted sum canonicalizes its
    value as it computes it; one outside the output domain raises an
    evaluation error naming the depend."""
    if isinstance(dep, BooleanFormula):
        return _compile_expr(dep.expr)
    if isinstance(dep, ThresholdStep):
        name, cut = dep.input, dep.cut - TOLERANCE
        return lambda env: 1 if float(env[name]) >= cut else 0  # type: ignore[arg-type]
    out_domain = model.variable_domain(dep.output)
    if isinstance(dep, LookupTable):
        inputs, keys = dep.inputs, model._table_keys[id(dep)]
        table = {key: out_domain.canonical(value) for key, value in zip(keys, dep.lookup.values())}
        return lambda env: table[tuple([env[name] for name in inputs])]
    offset, terms = dep.offset, tuple(zip(dep.weights, dep.inputs))

    def weighted_sum(env: Mapping[str, Value]) -> Value:
        total = offset
        for weight, name in terms:
            total += weight * float(env[name])  # type: ignore[arg-type]
        try:
            return out_domain.canonical(total)
        except DefinitionError as exc:
            raise EvaluationError(f"depend '{dep.id}': {exc}") from exc
    return weighted_sum


def _exogenous_values(
    model: Model, exogenous: Optional[Mapping[str, Value]]
) -> dict[str, Value]:
    """Canonical exogenous values; unknown variables and parameters are rejected."""
    values: dict[str, Value] = {}
    for name in sorted(exogenous or ()):
        try:
            domain = model.variable_domain(name)
        except KeyError:
            raise EvaluationError(f"exogenous value for unknown variable '{name}'")
        if name in model._parameters_by_id:
            raise EvaluationError(f"exogenous value for parameter '{name}'")
        try:
            values[name] = domain.canonical(exogenous[name])  # type: ignore[index]
        except DefinitionError as exc:
            raise EvaluationError(str(exc)) from exc
    return values


def _environment(
    model: Model,
    spec: Specification,
    exogenous: Optional[Mapping[str, Value]] = None,
) -> tuple[dict[str, Value], dict[str, Value]]:
    """``_evaluated`` on input checked and canonicalized first: an invalid
    model is rejected with the definition error of ``Model._compiled``, then
    unknown, missing and out-of-domain parameters and bad exogenous values
    with an evaluation error."""
    model._compiled  # the validity gate
    values: dict[str, Value] = {}
    for pid, value in spec.items:
        try:
            domain = model.parameter(pid).domain
        except KeyError:
            raise EvaluationError(f"specification assigns unknown parameter '{pid}'")
        try:
            values[pid] = domain.canonical(value)
        except DefinitionError as exc:
            raise EvaluationError(str(exc)) from exc
    for p in model.parameters:
        if p.id not in values:
            raise EvaluationError(f"specification misses parameter '{p.id}'")
    canonical = Specification(tuple(values.items()))
    return _evaluated(model, canonical, _exogenous_values(model, exogenous))


def _evaluated(
    model: Model, spec: Specification, given: Mapping[str, Value]
) -> tuple[dict[str, Value], dict[str, Value]]:
    """Full value environment plus computed values for derived parameters.

    The one evaluation entry that trusts its input: ``spec`` must assign
    every parameter a canonical value and ``given`` hold canonical values of
    non-parameter variables (as ``_exogenous_values`` returns them); neither
    is checked.  Parameter values always come from the specification; a
    functional depend whose output is a parameter contributes to the second
    mapping only (used as an equality constraint by feasibility checking).
    """
    env: dict[str, Value] = dict(spec.items)
    env.update(given)
    derived_parameters: dict[str, Value] = {}
    index = model._compiled
    try:
        for output, compute in zip(index.outputs, index.computes):
            if output in model._parameters_by_id:
                derived_parameters[output] = compute(env)
            else:
                env[output] = compute(env)
    except KeyError as missing:
        raise EvaluationError(f"missing value for variable '{missing.args[0]}'") from None
    return env, derived_parameters


def _instance(model: Model, env: Mapping[str, Value]) -> ProblemInstance:
    """The criteria's values in an evaluated environment."""
    values: dict[str, Value] = {}
    for c in model.criteria:
        if c.id not in env:
            raise EvaluationError(f"missing value for variable '{c.id}'")
        values[c.id] = env[c.id]
    return ProblemInstance.from_mapping(values)


def evaluate(
    model: Model,
    spec: Specification,
    exogenous: Optional[Mapping[str, Value]] = None,
) -> ProblemInstance:
    """Evaluate a specification into a problem instance.

    Criteria not produced by any functional depend must be supplied through
    the exogenous map; a missing value raises an evaluation error naming the
    variable.  Pure constraints are ignored here (see ``is_feasible``).
    """
    return _instance(model, _environment(model, spec, exogenous)[0])


class _Row(NamedTuple):
    """One compiled linear row: ``offset + sum(coefficients[i] * inputs[i])``
    compared against ``bound``.

    ``low`` and ``high`` hold each input's smallest and largest term over its
    domain bounds (validation requires numeric inputs).
    ``tolerance`` is larger than any rounding of a sum of the terms in any
    order: ``TOLERANCE`` scaled by a bound on every partial sum.  A row is
    ``exact`` when its coefficients and offset are integers, its inputs are
    ``Boolean`` or ``IntegerRange`` and that bound is below 2**50: then every
    term and partial sum is an integer that a float holds exactly.
    """

    inputs: tuple[str, ...]
    coefficients: tuple[float, ...]
    code: int  # the comparator's: 0 for "==", 1 for "<=", 2 for ">="
    bound: float
    offset: float
    low: tuple[float, ...]
    high: tuple[float, ...]
    tolerance: float
    exact: bool


# Variable -> (row number, coefficient, low term, high term) for each of its
# occurrences in a row.
_Watch = dict[str, tuple[tuple[int, float, float, float], ...]]

# Per at-most-one group: the number of its row and its members, each with
# its largest objective term, largest first.
_Groups = tuple[tuple[int, tuple[tuple[str, float], ...]], ...]


class _Compiled(NamedTuple):
    # Per functional depend, in ``topological_depends`` order: its output
    # and the function computing that output from the environment.
    outputs: tuple[str, ...]
    computes: tuple[Callable[[Mapping[str, Value]], Value], ...]
    feeds: dict[str, tuple[int, ...]]  # variable -> the numbers of the depends reading it
    # One per pure constraint, in declaration order, and last the decision
    # rule's row when a weighted sum computes the rule; and their watch lists.
    rows: tuple[_Row, ...]
    watch: _Watch
    # When a weighted sum computes the decision rule: its row and its
    # at-most-one groups.  The search cuts against the floor its visitor
    # returns; a search whose visitor returns none keeps the row uncut.
    objective: Optional[tuple[_Row, _Groups]]


def _compile_row(model: Model, dep: Union[ConstraintDepend, WeightedSum]) -> _Row:
    """A cardinality constraint is an all-ones row, an incompatibility the row
    ``a + b <= 1`` (its inputs are boolean), and a weighted sum the row
    ``sum >= bound`` whose bound the search raises as it finds better leaves."""
    offset = 0.0
    if isinstance(dep, Incompatibility):
        coefficients, comparator, bound = (1.0, 1.0), "<=", 1
    elif isinstance(dep, CardinalityConstraint):
        coefficients, comparator, bound = (1.0,) * len(dep.inputs), dep.comparator, dep.bound
    elif isinstance(dep, LinearConstraint):
        coefficients, comparator, bound = dep.coefficients, dep.comparator, dep.bound
    else:
        coefficients, comparator, bound = dep.weights, ">=", float("-inf")
        offset = dep.offset
    inputs = dep.inputs
    low: list[float] = []
    high: list[float] = []
    for coeff, name in zip(coefficients, inputs):
        bounds = domain_bounds(model.variable_domain(name))
        ends = (coeff * bounds[0], coeff * bounds[1])  # type: ignore[index]
        low.append(min(ends))
        high.append(max(ends))
    scale = abs(offset) + sum(max(-a, b) for a, b in zip(low, high))
    exact = scale < 2.0**50 and all(
        isinstance(model.variable_domain(name), (Boolean, IntegerRange)) for name in inputs
    ) and all(float(x).is_integer() for x in (offset, *coefficients))
    return _Row(
        inputs, tuple(coefficients), {"==": 0, "<=": 1}.get(comparator, 2), bound, offset,
        tuple(low), tuple(high), TOLERANCE * (1.0 + scale), exact,
    )


def _at_most_one_groups(rows: tuple[_Row, ...], objective: _Row) -> _Groups:
    """Each exact row ``sum of 0/1 inputs <= 1`` or ``== 1`` groups its inputs
    with a positive objective term, each in the first such row holding two."""
    best: dict[str, float] = {}
    for name, high in zip(objective.inputs, objective.high):
        best[name] = best.get(name, 0.0) + high
    groups, taken = [], set()
    for r, row in enumerate(rows):
        members = [n for n in dict.fromkeys(row.inputs) if best.get(n, 0) > 0 and n not in taken]
        if len(members) > 1 and row.exact and row.code < 2 and row.bound == 1 and (
            set(zip(row.coefficients, row.low, row.high)) == {(1, 0, 1)}
        ):
            taken.update(members)
            members.sort(key=lambda name: -best[name])
            groups.append((r, tuple((name, best[name]) for name in members)))
    return tuple(groups)


def _watch_lists(rows: tuple[_Row, ...]) -> _Watch:
    watch: _Watch = {}
    for r, row in enumerate(rows):
        for name, coeff, low, high in zip(row.inputs, row.coefficients, row.low, row.high):
            watch[name] = watch.get(name, ()) + ((r, coeff, low, high),)  # type: ignore[assignment]
    return watch


def _row_interval(row: _Row, env: Mapping[str, Value]) -> tuple[float, float]:
    """The row's sum over every completion of the partial assignment ``env``:
    inputs without a value range over their domain bounds."""
    lo = hi = row.offset
    for coeff, name, low, high in zip(row.coefficients, row.inputs, row.low, row.high):
        if name in env:
            term = coeff * float(env[name])  # type: ignore[arg-type]
            lo += term
            hi += term
        else:
            lo += low
            hi += high
    return lo, hi


def _interval_allows(lo: float, hi: float, code: int, bound: float) -> bool:
    """Whether some sum in ``[lo, hi]`` can satisfy ``sum <comparator> bound``
    within ``TOLERANCE``, the comparator given by its ``_Row.code``."""
    if code == 0:
        return lo - TOLERANCE <= bound <= hi + TOLERANCE
    if code == 1:
        return lo <= bound + TOLERANCE
    return hi >= bound - TOLERANCE


def is_feasible(
    model: Model,
    spec: Specification,
    exogenous: Optional[Mapping[str, Value]] = None,
) -> bool:
    """True iff every pure constraint holds and derived parameters agree.

    The constraint environment is the specification united with the exogenous
    values and all computed functional outputs.
    """
    return _feasible(model, *_environment(model, spec, exogenous))


def _feasible(
    model: Model, env: Mapping[str, Value], derived_parameters: Mapping[str, Value]
) -> bool:
    """``is_feasible`` on an environment ``_evaluated`` returned."""
    for pid, computed in derived_parameters.items():
        if env[pid] != computed:
            return False
    for dep, row in zip(model.constraint_depends, model._compiled.rows):
        for name in dep.inputs:
            if name not in env:
                raise EvaluationError(f"missing value for variable '{name}'")
        if not _interval_allows(*_row_interval(row, env), row.code, row.bound):
            return False
    return True


# ---------------------------------------------------------------------------
# Search


def pinned_values(model: Model, current: Optional[Specification] = None) -> dict[str, Value]:
    """Pins for a search over the decision set: each other parameter that no
    depend computes keeps its value in ``current``, else its canonical default."""
    pinned = {}
    for p in model.parameters:
        if p.id in model.decision_set or p.id in model.producers:
            continue
        if current is None and p.default is None:
            raise EvaluationError(f"parameter '{p.id}' outside the decision set has no default")
        try:
            pinned[p.id] = p.domain.canonical(p.default) if current is None else current[p.id]
        except KeyError:
            raise EvaluationError(f"specification misses parameter '{p.id}'") from None
    return pinned


# The value ``next`` returns for a parameter whose values have all been tried.
_EXHAUSTED = object()


def search_specifications(
    model: Model,
    pinned: Mapping[str, Value],
    exogenous: Optional[Mapping[str, Value]],
    visit: Callable[[Specification, Mapping[str, Value]], Optional[Value]],
) -> None:
    """Depth-first search with constraint propagation over the parameters
    neither pinned nor computed.

    ``pinned`` maps parameters that no depend computes to canonical values of
    their domains, unchecked; every other such parameter is varied, in id
    order, each over its domain in declaration order.  Functional outputs are
    computed as soon as their inputs are known, and a branch is pruned once
    some pure constraint can no longer hold.  ``visit`` gets every feasible
    leaf's full specification and value environment (valid only during the
    call) and returns the floor, a rule value that later leaves must reach, or
    None.  An invalid model raises ``Model._compiled``'s definition error
    before anything else, and a depend input with no way to get a value raises
    an evaluation error before the search starts.

    Each constraint is a linear row whose interval over the completions of
    the current branch is kept up to date as its inputs get values, tested
    within the row's rounding tolerance while some input has none, and
    tested in full once its last input has one: from those running sums when
    the row is ``exact``, else summed again.  The descent is a loop over an
    explicit stack of parameters, so its depth is not bounded by Python's
    recursion limit.  Every change goes on the search-wide trail of its kind
    (row intervals, fed depends, computed outputs), and a branch undoes each
    trail back to the length it marked before the next value is tried.  When
    a weighted sum computes the model's decision rule, that sum is one more
    row, whose floor is the one ``visit`` returned last less the row's
    tolerance: a branch whose sum cannot reach it is cut (branch and bound).
    Once there is a floor, before a node branches the sum's upper bound also
    drops, in each at-most-one group (a cardinality ``<= 1`` or ``== 1``, an
    incompatibility), every open member's term but the largest, and that one
    too once an input of the group's row is 1.  Only inputs with a positive
    term are members: a negative term loses nothing at 0.  The bound holds
    for every feasible completion, so ``visit`` gets the same leaves in the
    same order as without it.  An evaluation error is raised only from a
    branch the search reaches, so a cut branch raises none.
    """
    compiled = model._compiled
    producers = model.producers
    # A computed value wins over an exogenous one, as in ``evaluate``.
    given = _exogenous_values(model, exogenous)
    env = {name: value for name, value in given.items() if name not in producers}
    env.update(pinned)
    free_ids = [p.id for p in model.sorted_parameters if p.id not in env and p.id not in producers]

    topo = model.topological_depends
    known = set(env) | set(free_ids) | set(producers)
    for dep in topo + model.constraint_depends:
        for name in dep.inputs:
            if name not in known:
                raise EvaluationError(f"missing value for variable '{name}'")

    outputs, computes, feeds = compiled.outputs, compiled.computes, compiled.feeds
    rows, watch, objective = compiled.rows, compiled.watch, compiled.objective
    # The rule row is the last row; its groups bound it once a floor exists.
    cut, bounding = len(rows) - 1, ()
    # Per functional depend (by number), its inputs without a value.
    missing = [sum(1 for name in dep.inputs if name not in env) for dep in topo]
    # Each row's running interval, its number of inputs without a value, and
    # the bound it is compared against (the rule row's floor starts at -inf).
    intervals = [_row_interval(row, env) for row in rows]
    lo = [interval[0] for interval in intervals]
    hi = [interval[1] for interval in intervals]
    left = [sum(1 for name in row.inputs if name not in env) for row in rows]
    codes = [row.code for row in rows]
    bounds = [row.bound for row in rows]
    tolerances = [row.tolerance for row in rows]
    exact = [row.exact for row in rows]
    choices = [(pid, model.parameter(pid).domain.values()) for pid in free_ids]
    param_ids = [p.id for p in model.sorted_parameters]

    # One trail per kind of reversible step: ``row_trail`` holds (row number,
    # lo, hi) for a row's interval before an input got a value, ``fed_trail``
    # the number of a depend whose missing-input count fell, and
    # ``added_trail`` each variable that got an environment entry.  A branch
    # marks each trail's length and undoes back to those marks, so the undo
    # stays exact even when propagation stops part-way through: a row's
    # restores keep their reverse order, and the other steps are independent.
    row_trail: list[tuple[int, float, float]] = []
    fed_trail: list[int] = []
    added_trail: list[str] = []

    def propagate(assigned: str) -> bool:
        """Compute newly ready functional outputs; False once some row fails."""
        queue = [assigned]
        while queue:
            name = queue.pop()
            watched = watch.get(name, ())
            if watched:
                as_float = float(env[name])  # type: ignore[arg-type]
            for r, coeff, low, high in watched:
                row_lo, row_hi = lo[r], hi[r]
                row_trail.append((r, row_lo, row_hi))
                left[r] -= 1
                if left[r]:
                    # The running sums round differently from the leaf's, so
                    # a partial test only cuts beyond the row's tolerance.
                    term = coeff * as_float
                    row_lo += term - low
                    row_hi += term - high
                    eps = tolerances[r]
                elif exact[r]:
                    # Both running sums are now the row's sum, exactly.
                    row_lo = row_hi = row_lo + coeff * as_float - low
                    eps = TOLERANCE
                else:
                    # In full once the last input has a value, in the order
                    # ``is_feasible`` adds the terms.
                    row_lo, row_hi = _row_interval(rows[r], env)
                    eps = TOLERANCE
                lo[r], hi[r] = row_lo, row_hi
                # ``_interval_allows``, inlined: the call costs a solve about 7%.
                code, bound = codes[r], bounds[r]
                if not (row_lo <= bound + eps if code == 1 else row_hi >= bound - eps if code == 2
                        else row_lo - eps <= bound <= row_hi + eps):
                    return False
            for number in feeds.get(name, ()):
                missing[number] -= 1
                fed_trail.append(number)
                if not missing[number] and outputs[number] not in env:
                    output = outputs[number]
                    env[output] = computes[number](env)
                    added_trail.append(output)
                    queue.append(output)
        return True

    # Propagate anything computable before search (constants, defaults).  The
    # prefix is never undone: every branch's marks lie above its steps.  A
    # row known in full from the start holds its ``_row_interval`` sum.
    for number, output in enumerate(outputs):
        if not missing[number] and output not in env:
            env[output] = computes[number](env)
            if not propagate(output):
                return
    for r in range(len(rows)):
        if not left[r] and not _interval_allows(lo[r], hi[r], codes[r], bounds[r]):
            return

    # Every input is known by the leaves (checked above), and each constraint
    # was checked in full when its last input got a value, so every leaf is
    # feasible.  The descent is a loop over ``stack``, one frame per assigned
    # parameter: the parameter, the iterator over its values and the trails'
    # marks before its first value.  Each pass enters one node, then moves to
    # the next value of the deepest frame that has one left and propagates.
    stack: list[tuple[str, Iterator[Value], int, int, int]] = []
    size = len(choices)
    while True:
        if len(stack) == size:
            floor = visit(Specification(tuple((pid, env[pid]) for pid in param_ids)), env)
            if floor is not None and objective is not None:
                # Less the tolerance, so no leaf that ties the floor is cut.
                bounds[cut] = float(floor) - tolerances[cut]  # type: ignore[arg-type]
                bounding = objective[1]
        else:
            branch = True
            if bounding:
                # The objective's upper bound keeps only the largest open
                # member of each group, none once some input of its row is 1.
                reach = hi[cut]
                for r, members in bounding:
                    keep = lo[r] < 1
                    for name, high in members:
                        if name not in env:
                            reach -= 0.0 if keep else high
                            keep = False
                branch = not reach < bounds[cut] - tolerances[cut]
            if branch:
                pid, values = choices[len(stack)]
                stack.append(
                    (pid, iter(values), len(row_trail), len(fed_trail), len(added_trail))
                )
        while stack:
            pid, values, row_mark, fed_mark, added_mark = stack[-1]
            while len(row_trail) > row_mark:
                r, lo[r], hi[r] = row_trail.pop()
                left[r] += 1
            while len(fed_trail) > fed_mark:
                missing[fed_trail.pop()] += 1
            while len(added_trail) > added_mark:
                del env[added_trail.pop()]
            value = next(values, _EXHAUSTED)
            if value is _EXHAUSTED:
                # ``pid`` itself is on no trail: each value overwrites it.
                del env[pid]
                stack.pop()
            else:
                env[pid] = value
                if propagate(pid):
                    break
        else:
            return


# ---------------------------------------------------------------------------
# Enumeration


def search_space_size(model: Model, over: Optional[Iterable[str]] = None) -> int:
    """Product of domain sizes over the given parameters (default: all)."""
    pids = sorted(over) if over is not None else [p.id for p in model.sorted_parameters]
    return prod(model.parameter(pid).domain.size for pid in pids)


def _check_space(
    model: Model, cap: int, over: Optional[Iterable[str]] = None, label: str = "cap"
) -> None:
    """Raise a size error when ``search_space_size(model, over)`` exceeds ``cap``."""
    space = search_space_size(model, over)
    if space > cap:
        raise SizeLimitError(f"search space {space} exceeds {label} {cap}")


def enumerate_specifications(
    model: Model,
    exogenous: Optional[Mapping[str, Value]] = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    pinned: Optional[Mapping[str, Value]] = None,
) -> list[Specification]:
    """All feasible specifications holding the pins, lexicographic by
    parameter id then domain order.

    Equals the full cartesian product filtered by ``is_feasible`` and by
    ``pinned`` (values compared as the domains hold them), but searches only
    the parameters not pinned: a branch a pin excludes raises no evaluation
    error, and a pin outside its domain leaves no specification.  A pin on
    anything but a parameter that no depend computes raises an evaluation
    error.  Raises a size error when the product of the parameters not pinned,
    computed ones included, exceeds ``cap``.
    """
    pinned = pinned or {}
    _check_space(model, cap, [p.id for p in model.parameters if p.id not in pinned])
    model._compiled  # the validity gate, before a pin can decide the result
    pins = {}
    for pid, value in pinned.items():
        if pid not in model._parameters_by_id or pid in model.producers:
            raise EvaluationError(f"cannot pin '{pid}': not a parameter that no depend computes")
        domain = model.parameter(pid).domain
        if not domain.contains(value):
            return []
        pins[pid] = domain.canonical(value)
    result: list[Specification] = []
    search_specifications(model, pins, exogenous, lambda spec, env: result.append(spec))
    # Search order is canonical order unless a depend computes a parameter,
    # which can sort before a varied one.
    if any(p.id in model.producers for p in model.parameters):
        result.sort(key=lambda s: canonical_key(model, s))
    return result


def canonical_key(model: Model, spec: Specification) -> tuple[int, ...]:
    """Sort key realizing the canonical specification order."""
    values = dict(spec.items)
    return tuple(p.domain.index_of(values[p.id]) for p in model.sorted_parameters)


def hamming(a: Specification, b: Specification) -> int:
    """Number of parameters whose values differ between two specifications."""
    da, db = a.as_dict(), b.as_dict()
    keys = set(da) | set(db)
    return sum(1 for k in keys if da.get(k) != db.get(k))


def complete_specification(
    model: Model,
    decision_assignment: Mapping[str, Value],
    exogenous: Optional[Mapping[str, Value]] = None,
) -> Specification:
    """Extend a decision-set assignment to a full specification.

    Parameters outside the assignment take their computed value when they are
    the output of a functional depend, otherwise their declared default.
    Computed values read the assignment, the exogenous values (canonicalized
    and checked as ``evaluate`` does) and the defaults.
    """
    computes = model._compiled.computes
    env: dict[str, Value] = dict(decision_assignment)
    env.update(_exogenous_values(model, exogenous))
    producers = model.producers
    remaining = [p for p in model.sorted_parameters if p.id not in decision_assignment]
    for p in remaining:
        if p.id not in producers and p.id not in env and p.default is not None:
            env[p.id] = p.domain.canonical(p.default)
    for dep, compute in zip(model.topological_depends, computes):
        if all(name in env for name in dep.inputs) and dep.output not in env:
            env[dep.output] = compute(env)
    values: dict[str, Value] = dict(decision_assignment)
    for p in remaining:
        if p.id in producers and p.id in env:
            values[p.id] = env[p.id]
        elif p.default is not None:
            values[p.id] = p.domain.canonical(p.default)
        else:
            raise EvaluationError(
                f"parameter '{p.id}' outside the decision set has no default"
            )
    return Specification.from_mapping(values)
