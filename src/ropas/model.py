"""Problem-space / solution-space model: variables, depend relations, evaluation.

A model declares three disjoint variable collections (criteria, parameters,
monitored variables) and a list of depend relations over them.  Functional
depends compute one output variable from inputs; pure-constraint depends
restrict which value combinations are feasible.  A specification assigns every
parameter; evaluating it against exogenous monitored values yields a problem
instance (one value per criterion).

``search_specifications`` is the one propagating search behind enumeration,
solving and the simulator's adaptation re-solves.

Values are canonicalized where they enter: the public ``evaluate`` and
``is_feasible`` check the specification and the exogenous map and
canonicalize each value once, then call ``_evaluated``, the one evaluation
entry, which trusts canonical input and checks nothing again.  The search
canonicalizes its exogenous map once per call and emits canonical
specifications, so callers holding those (the simulator) call
``_evaluated`` directly.

Each ``Model`` indexes itself once, on first use, through cached properties:
id lookups, the functional depends' evaluation order, its validation
findings, and the compiled view.  There each functional depend is the one
function computing its canonical output, for the search, ``_evaluated`` and
``complete_specification`` alike, and each pure constraint is one linear row
(coefficients, comparator code, bound, and each input's smallest and largest
term): a cardinality constraint is an all-ones row and an incompatibility
the row ``a + b <= 1``.  When a weighted sum computes the decision rule, it
compiles to a row as well.  The search keeps each row's interval over the
completions of the current branch, updates it in O(1) as an input gets a
value, and restores it from the trail on backtracking; it prunes on a
partial interval only beyond the row's rounding tolerance, and tests the row
exactly once its last input has a value.  When it maximises the decision
rule, that row's upper bound cuts every branch that cannot reach the best
leaf found so far (branch and bound); ties are never cut.  Every evaluation,
feasibility check and search of that model reuses the index.

All operations are pure and deterministic.  Objects are immutable, so sharing
them across threads is safe; two threads racing to build a model's index at
worst build it twice, with equal results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from math import prod
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .domains import (
    TOLERANCE,
    Boolean,
    Domain,
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
        rng = self.detectable_range or self.domain.values()
        return value in rng


# ---------------------------------------------------------------------------
# Boolean formula expressions (nested tuples)
#
#   ("var", name)      leaf variable reference
#   ("and", e1, ...)   conjunction (empty = constant 1)
#   ("or", e1, ...)    disjunction (empty = constant 0)
#   ("not", e)         negation

BoolExpr = tuple


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

    def walk(e: BoolExpr) -> None:
        op = e[0]
        if op == "var":
            seen.setdefault(e[1], None)
        else:
            for child in e[1:]:
                walk(child)

    walk(expr)
    return tuple(seen)


def expr_ok(expr: object) -> bool:
    """Structural well-formedness check for a formula expression."""
    if not isinstance(expr, tuple) or not expr:
        return False
    op = expr[0]
    if op == "var":
        return len(expr) == 2 and isinstance(expr[1], str) and bool(expr[1])
    if op in ("and", "or"):
        return all(expr_ok(c) for c in expr[1:])
    if op == "not":
        return len(expr) == 2 and expr_ok(expr[1])
    return False


def eval_expr(expr: BoolExpr, env: Mapping[str, Value]) -> int:
    op = expr[0]
    if op == "var":
        name = expr[1]
        if name not in env:
            raise EvaluationError(f"missing value for variable '{name}'")
        return 1 if env[name] else 0
    if op == "and":
        return 1 if all(eval_expr(c, env) for c in expr[1:]) else 0
    if op == "or":
        return 1 if any(eval_expr(c, env) for c in expr[1:]) else 0
    return 1 - eval_expr(expr[1], env)


def _compile_expr(expr: BoolExpr) -> Callable[[Mapping[str, Value]], int]:
    """``expr`` as a closure computing ``eval_expr(expr, env)`` for an
    ``env`` that holds every leaf (a missing leaf raises ``KeyError``); a
    conjunction or disjunction stops at its first deciding child, as
    ``eval_expr`` does."""
    op = expr[0]
    if op == "var":
        name = expr[1]
        return lambda env: 1 if env[name] else 0
    if op not in ("and", "or"):
        inner = _compile_expr(expr[1])
        return lambda env: 1 - inner(env)
    parts = tuple(_compile_expr(child) for child in expr[1:])
    decisive = 0 if op == "and" else 1

    def junction(env: Mapping[str, Value]) -> int:
        for part in parts:
            if part(env) == decisive:
                return decisive
        return 1 - decisive
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
        return expr_vars(self.expr)


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
        try:
            return self[key]
        except KeyError:
            return default


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

        def visit(vid: str) -> None:
            if vid in done or vid not in producers:
                return
            if vid in visiting:
                raise DefinitionError(f"functional depend cycle through '{vid}'")
            visiting.add(vid)
            dep = producers[vid]
            for name in dep.inputs:
                visit(name)
            visiting.discard(vid)
            done.add(vid)
            ordered.append(dep)

        for root in sorted(producers):
            try:
                visit(root)
            except DefinitionError as cycle:
                cycle.root = root  # type: ignore[attr-defined]
                raise
        return tuple(ordered)

    @cached_property
    def _compiled(self) -> _Compiled:
        """The compiled view of the depends: the functional depends
        numbered in evaluation order, each with its output and a function
        computing it from the environment, the numbers of the depends reading
        each variable, one linear row per pure constraint with its watch
        lists, and the row of the decision rule for the objective cut."""
        topo = self.topological_depends
        feeds: dict[str, tuple[int, ...]] = {}
        for number, dep in enumerate(topo):
            for name in dep.inputs:
                feeds[name] = feeds.get(name, ()) + (number,)
        computes = tuple(_compile_functional(dep, self.variable_domain(dep.output)) for dep in topo)
        rows = tuple(_compile_row(self, con) for con in self.constraint_depends)
        objective = None
        rule = self.producers.get(self.decision_rule)  # type: ignore[arg-type]
        if isinstance(rule, WeightedSum):
            row = _compile_row(self, rule)
            if None not in row.low:
                objective = (row, _watch_lists(rows + (row,)))
        outputs = tuple(dep.output for dep in topo)
        return _Compiled(outputs, computes, feeds, rows, _watch_lists(rows), objective)

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


def _check_coverage(
    subject: str, domains: Sequence[Domain], keys: Iterable[tuple], what: str, out: list[Violation]
) -> None:
    """A table's keys must cover every combination of the domains' values."""
    covered = {
        tuple(d.canonical(v) for d, v in zip(domains, key))
        for key in keys
        if len(key) == len(domains) and all(d.contains(v) for d, v in zip(domains, key))
    }
    expected = prod(d.size for d in domains)
    if len(covered) < expected:
        message = f"table covers {len(covered)} of {expected} {what} combinations"
        out.append(Violation(subject, message))


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
        if m.detectable_range:
            for v in m.detectable_range:
                if not m.domain.contains(v):
                    out.append(
                        Violation(m.id, f"detectable value {v!r} outside domain")
                    )

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
            if not expr_ok(dep.expr):
                out.append(Violation(dep.id, "malformed formula expression"))
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
                table = dep.lookup
                if len(table) != len(dep.entries):
                    out.append(Violation(dep.id, "duplicate table keys"))
                for key in table:
                    if len(key) != len(dep.inputs):
                        out.append(Violation(dep.id, f"key {key!r} has wrong arity"))
                    elif not all(d.contains(v) for d, v in zip(domains, key)):
                        out.append(Violation(dep.id, f"key {key!r} outside input domains"))
                _check_coverage(dep.id, domains, table, "input", out)
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
    dep: FunctionalDepend, out_domain: Domain
) -> Callable[[Mapping[str, Value]], Value]:
    """The one function computing ``dep``'s canonical output from an
    environment.  A missing input raises ``KeyError`` naming the first one
    read (in ``eval_expr``'s order for a formula); an output outside
    ``out_domain`` raises an evaluation error naming the depend.  A formula's
    0 or 1 is canonicalized only for a non-boolean output; a malformed
    formula, which validation rejects, is read by ``eval_expr``."""
    if isinstance(dep, BooleanFormula):
        raw = _compile_expr(dep.expr) if expr_ok(dep.expr) else partial(eval_expr, dep.expr)
        if isinstance(out_domain, Boolean) and expr_ok(dep.expr):
            return raw
    elif isinstance(dep, WeightedSum):
        offset, terms = dep.offset, tuple(zip(dep.weights, dep.inputs))

        def raw(env: Mapping[str, Value]) -> Value:
            total = offset
            for weight, name in terms:
                total += weight * float(env[name])  # type: ignore[arg-type]
            return total
    elif isinstance(dep, LookupTable):
        inputs, table = dep.inputs, dep.lookup

        def raw(env: Mapping[str, Value]) -> Value:
            key = tuple([env[name] for name in inputs])
            if key not in table:
                raise EvaluationError(f"depend '{dep.id}' has no table entry for {key!r}")
            return table[key]
    else:
        name, cut = dep.input, dep.cut - TOLERANCE
        raw = lambda env: 1 if float(env[name]) >= cut else 0  # type: ignore[arg-type]

    def compute(env: Mapping[str, Value]) -> Value:
        try:
            return out_domain.canonical(raw(env))
        except DefinitionError as exc:
            raise EvaluationError(f"depend '{dep.id}': {exc}") from exc
    return compute


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
    """``_evaluated`` on input checked and canonicalized first: unknown,
    missing and out-of-domain parameters and bad exogenous values are
    rejected with an evaluation error."""
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
    domain bounds, or None when the domain has no numeric bounds.
    ``tolerance`` is larger than any rounding of a sum of the terms in any
    order: ``TOLERANCE`` scaled by a bound on every partial sum.
    """

    inputs: tuple[str, ...]
    coefficients: tuple[float, ...]
    code: int  # the comparator's: 0 for "==", 1 for "<=", 2 for ">="
    bound: float
    offset: float
    low: tuple[Optional[float], ...]
    high: tuple[Optional[float], ...]
    tolerance: float


# Variable -> (row number, coefficient, low term, high term) for each of its
# occurrences in a row.
_Watch = dict[str, tuple[tuple[int, float, float, float], ...]]


class _Compiled(NamedTuple):
    # Per functional depend, in ``topological_depends`` order: its output
    # and the function computing that output from the environment.
    outputs: tuple[str, ...]
    computes: tuple[Callable[[Mapping[str, Value]], Value], ...]
    feeds: dict[str, tuple[int, ...]]  # variable -> the numbers of the depends reading it
    rows: tuple[_Row, ...]  # one per pure constraint, in declaration order
    watch: _Watch
    # When a weighted sum over numeric inputs computes the decision rule: its
    # row, and the watch lists of ``rows`` followed by that row.
    objective: Optional[tuple[_Row, _Watch]]


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
    inputs = tuple(name for _, name in zip(coefficients, dep.inputs))
    low: list[Optional[float]] = []
    high: list[Optional[float]] = []
    for coeff, name in zip(coefficients, inputs):
        domain = model._domains.get(name)
        bounds = domain_bounds(domain) if domain is not None else None
        if bounds is None:
            low.append(None)
            high.append(None)
            continue
        ends = (coeff * bounds[0], coeff * bounds[1])
        low.append(min(ends))
        high.append(max(ends))
    scale = abs(offset) + sum(max(-a, b) for a, b in zip(low, high) if a is not None)
    return _Row(
        inputs, tuple(coefficients), {"==": 0, "<=": 1}.get(comparator, 2), bound, offset,
        tuple(low), tuple(high), TOLERANCE * (1.0 + scale),
    )


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
        elif low is None:
            raise DefinitionError("constraint input over non-numeric domain")
        else:
            lo += low
            hi += high  # type: ignore[operator]
    return lo, hi


def _interval_allows(
    lo: float, hi: float, code: int, bound: float, eps: float = TOLERANCE
) -> bool:
    """Whether some sum in ``[lo, hi]`` can satisfy ``sum <comparator> bound``
    within ``eps``, the comparator given by its ``_Row.code``."""
    if code == 0:
        return lo - eps <= bound <= hi + eps
    if code == 1:
        return lo <= bound + eps
    return hi >= bound - eps


def _constraint_possible(row: _Row, env: Mapping[str, Value]) -> bool:
    """False only when no completion of the partial assignment can satisfy.

    Exact once every input has a value.
    """
    lo, hi = _row_interval(row, env)
    return _interval_allows(lo, hi, row.code, row.bound)


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
        if not _constraint_possible(row, env):
            return False
    return True


# ---------------------------------------------------------------------------
# Search


def pinned_values(
    model: Model, varied: Collection[str], current: Optional[Specification] = None
) -> dict[str, Value]:
    """Values of the parameters a search does not vary and no depend computes:
    each keeps its value in ``current``, else takes its canonical default."""
    pinned = {}
    for p in model.parameters:
        if p.id in varied or p.id in model.producers:
            continue
        if current is None and p.default is None:
            raise EvaluationError(f"parameter '{p.id}' outside the decision set has no default")
        pinned[p.id] = p.domain.canonical(p.default) if current is None else current[p.id]
    return pinned


def search_specifications(
    model: Model,
    free: Iterable[str],
    exogenous: Optional[Mapping[str, Value]],
    visit: Callable[[Specification, Mapping[str, Value]], None],
    maximize: bool = False,
) -> None:
    """Depth-first search over the free parameters with constraint propagation.

    Free parameters are assigned in id order, each over its domain in
    declaration order; every other parameter is computed by its functional
    depend or pinned to its default.  Functional outputs are computed as soon
    as their inputs are known, and a branch is pruned once some pure
    constraint can no longer hold.  ``visit`` gets every feasible leaf's full
    specification and value environment (valid only during the call).  A
    depend input with no way to get a value raises an evaluation error first.

    Each constraint is a linear row whose interval over the completions of
    the current branch is kept up to date as its inputs get values, tested
    within the row's rounding tolerance while some input has none, and
    tested in full once its last input has one.  With ``maximize``, when a
    weighted sum computes the model's decision rule, that sum is one more
    row, whose floor is the best value of a leaf visited so far less the
    row's tolerance: a branch whose sum cannot reach the floor is cut
    (branch and bound).  So ``visit`` still gets every leaf that ties or
    beats the best value so far, in the same order, but skips leaves that
    cannot.  An evaluation error is raised only from a branch the search
    reaches, so a cut branch raises none.
    """
    free_ids = sorted(free)
    producers = model.producers
    # A computed value wins over an exogenous one, as in ``evaluate``.
    given = _exogenous_values(model, exogenous)
    env = {name: value for name, value in given.items() if name not in producers}
    env.update(pinned_values(model, free_ids))

    topo = model.topological_depends
    constraints = model.constraint_depends
    known = set(env) | set(free_ids) | set(producers)
    for dep in topo + constraints:
        for name in dep.inputs:
            if name not in known:
                raise EvaluationError(f"missing value for variable '{name}'")

    compiled = model._compiled
    outputs, computes, feeds = compiled.outputs, compiled.computes, compiled.feeds
    rows, watch = compiled.rows, compiled.watch
    objective = compiled.objective if maximize else None
    if objective is not None:
        rule = model.decision_rule
        objective_row, watch = objective
        cut = len(rows)
        rows += (objective_row,)
    # Per functional depend (by number), its inputs without a value.
    missing = [sum(1 for name in dep.inputs if name not in env) for dep in topo]
    # Each row's running interval, its number of inputs without a value, and
    # the bound it is compared against (the objective's floor starts at -inf).
    intervals = [_row_interval(row, env) for row in rows]
    lo = [interval[0] for interval in intervals]
    hi = [interval[1] for interval in intervals]
    left = [sum(1 for name in row.inputs if name not in env) for row in rows]
    codes = [row.code for row in rows]
    bounds = [row.bound for row in rows]
    tolerances = [row.tolerance for row in rows]
    choices = [(pid, model.parameter(pid).domain.values()) for pid in free_ids]
    param_ids = [p.id for p in model.sorted_parameters]

    # A branch's trail is three flat lists, one per kind of reversible step:
    # the variables that got an environment entry, the numbers of the depends
    # whose missing-input count fell, and (row number, lo, hi) for a row's
    # interval before an input got a value.  The branch's undo walks each list
    # in reverse, so it stays exact even when propagation bails out partway
    # through.

    def propagate(assigned: str, env_trail: list, dec_trail: list, row_trail: list) -> bool:
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
                else:
                    # In full once the last input has a value, in the order
                    # ``is_feasible`` adds the terms.
                    row_lo, row_hi = _row_interval(rows[r], env)
                    eps = TOLERANCE
                lo[r], hi[r] = row_lo, row_hi
                if not _interval_allows(row_lo, row_hi, codes[r], bounds[r], eps):
                    return False
            for number in feeds.get(name, ()):
                missing[number] -= 1
                dec_trail.append(number)
                if not missing[number] and outputs[number] not in env:
                    output = outputs[number]
                    env[output] = computes[number](env)
                    env_trail.append(output)
                    queue.append(output)
        return True

    # Propagate anything computable before search (constants, defaults).  The
    # prefix is never undone, so its trail is dropped.
    for number, output in enumerate(outputs):
        if not missing[number] and output not in env:
            env[output] = computes[number](env)
            if not propagate(output, [], [], []):
                return
    for r, row in enumerate(compiled.rows):
        if not left[r] and not _constraint_possible(row, env):
            return

    # Every input is known by the leaves (checked above), and each constraint
    # was checked in full when its last input got a value, so every leaf is
    # feasible.
    def descend(index: int) -> None:
        if index == len(choices):
            visit(Specification(tuple((pid, env[pid]) for pid in param_ids)), env)
            if objective is not None:
                # Less the tolerance, so no leaf that ties the best is cut.
                floor = float(env[rule]) - objective_row.tolerance  # type: ignore[arg-type]
                bounds[cut] = max(bounds[cut], floor)
            return
        pid, values = choices[index]
        for value in values:
            env[pid] = value
            env_trail, dec_trail, row_trail = [pid], [], []
            if propagate(pid, env_trail, dec_trail, row_trail):
                descend(index + 1)
            for name in reversed(env_trail):
                del env[name]
            for number in reversed(dec_trail):
                missing[number] += 1
            for r, row_lo, row_hi in reversed(row_trail):
                lo[r], hi[r] = row_lo, row_hi
                left[r] += 1

    descend(0)


# ---------------------------------------------------------------------------
# Enumeration


def search_space_size(model: Model, over: Optional[Iterable[str]] = None) -> int:
    """Product of domain sizes over the given parameters (default: all)."""
    pids = sorted(over) if over is not None else [p.id for p in model.sorted_parameters]
    total = 1
    for pid in pids:
        total *= model.parameter(pid).domain.size
    return total


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
) -> list[Specification]:
    """All feasible specifications, lexicographic by parameter id then domain order.

    Searches over every parameter that no functional depend produces; equals
    the full cartesian product filtered by ``is_feasible``.  Raises a size
    error when that full product exceeds ``cap``.
    """
    _check_space(model, cap)
    free = [p.id for p in model.parameters if p.id not in model.producers]
    result: list[Specification] = []
    search_specifications(model, free, exogenous, lambda spec, env: result.append(spec))
    # Search order is canonical order unless a depend computes a parameter,
    # which can sort before a free one.
    if len(free) < len(model.parameters):
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
    Computed values read the assignment, the exogenous values and the
    defaults.
    """
    env: dict[str, Value] = dict(decision_assignment)
    if exogenous:
        env.update(exogenous)
    producers = model.producers
    remaining = [p for p in model.sorted_parameters if p.id not in decision_assignment]
    for p in remaining:
        if p.id not in producers and p.id not in env and p.default is not None:
            env[p.id] = p.domain.canonical(p.default)
    for dep, compute in zip(model.topological_depends, model._compiled.computes):
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
