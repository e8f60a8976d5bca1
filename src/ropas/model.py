"""Problem-space / solution-space model: variables, depend relations, evaluation.

A model declares three disjoint variable collections (criteria, parameters,
monitored variables) and a list of depend relations over them.  Functional
depends compute one output variable from inputs; pure-constraint depends
restrict which value combinations are feasible.  A specification assigns every
parameter; evaluating it against exogenous monitored values yields a problem
instance (one value per criterion).

``search_specifications`` is the one propagating search behind enumeration,
solving and the simulator's adaptation re-solves.

All operations are pure and deterministic.  Objects are immutable, so sharing
them across threads is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Union

from .domains import (
    Boolean,
    Domain,
    Value,
    domain_bounds,
)
from .errors import DefinitionError, EvaluationError, SizeLimitError

DEFAULT_ENUMERATION_CAP = 1 << 24

CRITERION_KINDS = ("requirement", "domain-knowledge", "quality-variable", "utility")
PREFERENCES = ("higher-better", "lower-better")
COMPARATORS = ("==", "<=", ">=")

# Tolerance used when checking numeric constraint satisfaction.
CONSTRAINT_EPS = 1e-9


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


# ---------------------------------------------------------------------------
# Depend relations


@dataclass(frozen=True)
class BooleanFormula:
    """Functional depend: output = and/or/not formula over boolean variables."""

    id: str
    output: str
    expr: BoolExpr

    @property
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

    def table(self) -> dict[tuple[Value, ...], Value]:
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

FORM_NAMES: dict[type, str] = {
    BooleanFormula: "boolean-formula",
    WeightedSum: "weighted-sum",
    LookupTable: "lookup-table",
    ThresholdStep: "threshold-step",
    LinearConstraint: "linear",
    CardinalityConstraint: "cardinality",
    Incompatibility: "incompatibility",
}


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
        for k, v in self.items:
            if k == key:
                return v
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

    def criterion(self, cid: str) -> Criterion:
        for c in self.criteria:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def parameter(self, pid: str) -> Parameter:
        for p in self.parameters:
            if p.id == pid:
                return p
        raise KeyError(pid)

    def monitored_variable(self, mid: str) -> MonitoredVariable:
        for m in self.monitored:
            if m.id == mid:
                return m
        raise KeyError(mid)

    def variable_domain(self, vid: str) -> Domain:
        for group in (self.criteria, self.parameters, self.monitored):
            for v in group:
                if v.id == vid:
                    return v.domain
        raise KeyError(vid)

    def has_variable(self, vid: str) -> bool:
        try:
            self.variable_domain(vid)
            return True
        except KeyError:
            return False

    def sorted_parameters(self) -> tuple[Parameter, ...]:
        return tuple(sorted(self.parameters, key=lambda p: p.id))

    def functional_depends(self) -> tuple[FunctionalDepend, ...]:
        return tuple(d for d in self.depends if is_functional(d))

    def constraint_depends(self) -> tuple[ConstraintDepend, ...]:
        return tuple(d for d in self.depends if not is_functional(d))


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    """One validated-invariant failure, naming the offending object."""

    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.message}"


def _check_formula_refs(model: Model, dep: BooleanFormula, out: list[Violation]) -> None:
    for name in dep.inputs:
        if not model.has_variable(name):
            out.append(Violation(dep.id, f"references unknown variable '{name}'"))
        elif not isinstance(model.variable_domain(name), Boolean):
            out.append(Violation(dep.id, f"formula input '{name}' is not boolean"))


def _check_numeric_inputs(model: Model, dep, out: list[Violation]) -> None:
    for name in dep.inputs:
        if not model.has_variable(name):
            out.append(Violation(dep.id, f"references unknown variable '{name}'"))
        elif domain_bounds(model.variable_domain(name)) is None:
            out.append(Violation(dep.id, f"input '{name}' is not numeric"))


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

    criterion_ids = {c.id for c in model.criteria}
    parameter_ids = {p.id for p in model.parameters}

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
                _check_formula_refs(model, dep, out)
                if model.has_variable(dep.output) and not isinstance(
                    model.variable_domain(dep.output), Boolean
                ):
                    out.append(Violation(dep.id, "formula output must be boolean"))
        elif isinstance(dep, WeightedSum):
            if len(dep.weights) != len(dep.inputs):
                out.append(Violation(dep.id, "weight count differs from input count"))
            if not dep.inputs:
                out.append(Violation(dep.id, "weighted sum needs at least one input"))
            _check_numeric_inputs(model, dep, out)
        elif isinstance(dep, LookupTable):
            if not dep.inputs:
                out.append(Violation(dep.id, "lookup table needs at least one input"))
            else:
                known = all(model.has_variable(n) for n in dep.inputs)
                for name in dep.inputs:
                    if not model.has_variable(name):
                        out.append(Violation(dep.id, f"references unknown variable '{name}'"))
                if known:
                    domains = [model.variable_domain(n) for n in dep.inputs]
                    table = dep.table()
                    if len(table) != len(dep.entries):
                        out.append(Violation(dep.id, "duplicate table keys"))
                    for key in table:
                        if len(key) != len(dep.inputs):
                            out.append(Violation(dep.id, f"key {key!r} has wrong arity"))
                        elif not all(d.contains(v) for d, v in zip(domains, key)):
                            out.append(Violation(dep.id, f"key {key!r} outside input domains"))
                    expected = 1
                    for d in domains:
                        expected *= d.size
                    covered = {
                        tuple(d.canonical(v) for d, v in zip(domains, key))
                        for key in table
                        if len(key) == len(dep.inputs)
                        and all(d.contains(v) for d, v in zip(domains, key))
                    }
                    if len(covered) < expected:
                        out.append(
                            Violation(
                                dep.id,
                                f"table covers {len(covered)} of {expected} input combinations",
                            )
                        )
                    if model.has_variable(dep.output):
                        odom = model.variable_domain(dep.output)
                        for key, val in dep.entries:
                            if not odom.contains(val):
                                out.append(
                                    Violation(dep.id, f"table value {val!r} outside output domain")
                                )
        elif isinstance(dep, ThresholdStep):
            _check_numeric_inputs(model, dep, out)
            if model.has_variable(dep.output) and not isinstance(
                model.variable_domain(dep.output), Boolean
            ):
                out.append(Violation(dep.id, "step output must be boolean"))
        elif isinstance(dep, LinearConstraint):
            if len(dep.coefficients) != len(dep.inputs):
                out.append(Violation(dep.id, "coefficient count differs from input count"))
            if dep.comparator not in COMPARATORS:
                out.append(Violation(dep.id, f"unknown comparator '{dep.comparator}'"))
            _check_numeric_inputs(model, dep, out)
        elif isinstance(dep, CardinalityConstraint):
            if dep.comparator not in COMPARATORS:
                out.append(Violation(dep.id, f"unknown comparator '{dep.comparator}'"))
            if not dep.inputs:
                out.append(Violation(dep.id, "cardinality needs at least one input"))
            for name in dep.inputs:
                if not model.has_variable(name):
                    out.append(Violation(dep.id, f"references unknown variable '{name}'"))
                elif not isinstance(model.variable_domain(name), Boolean):
                    out.append(Violation(dep.id, f"cardinality input '{name}' is not boolean"))
        elif isinstance(dep, Incompatibility):
            if dep.a == dep.b:
                out.append(Violation(dep.id, "incompatibility needs two distinct variables"))
            for name in (dep.a, dep.b):
                if not model.has_variable(name):
                    out.append(Violation(dep.id, f"references unknown variable '{name}'"))
                elif not isinstance(model.variable_domain(name), Boolean):
                    out.append(Violation(dep.id, f"incompatibility input '{name}' is not boolean"))

    for vid, definers in defined_by.items():
        if len(definers) > 1:
            out.append(
                Violation(vid, f"defined by multiple depends: {', '.join(sorted(definers))}")
            )

    # Acyclicity of the functional subgraph (edges output -> inputs).
    producers = {d.output: d for d in model.functional_depends()}
    colors: dict[str, int] = {}

    def cyclic(vid: str) -> bool:
        state = colors.get(vid, 0)
        if state == 1:
            return True
        if state == 2:
            return False
        colors[vid] = 1
        dep = producers.get(vid)
        if dep is not None:
            for name in dep.inputs:
                if cyclic(name):
                    return True
        colors[vid] = 2
        return False

    for vid in sorted(producers):
        if cyclic(vid):
            out.append(Violation(vid, "functional depend cycle"))
            break

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


def _topological_depends(model: Model) -> tuple[FunctionalDepend, ...]:
    """Functional depends ordered so inputs are computed before outputs."""
    producers = {d.output: d for d in model.functional_depends()}
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

    for vid in sorted(producers):
        visit(vid)
    return tuple(ordered)


def _apply_functional(
    dep: FunctionalDepend, env: Mapping[str, Value], out_domain: Domain
) -> Value:
    if isinstance(dep, BooleanFormula):
        raw: Value = eval_expr(dep.expr, env)
    elif isinstance(dep, WeightedSum):
        total = dep.offset
        for w, name in zip(dep.weights, dep.inputs):
            if name not in env:
                raise EvaluationError(f"missing value for variable '{name}'")
            total += w * float(env[name])  # type: ignore[arg-type]
        raw = total
    elif isinstance(dep, LookupTable):
        key = []
        for name in dep.inputs:
            if name not in env:
                raise EvaluationError(f"missing value for variable '{name}'")
            key.append(env[name])
        table = dep.table()
        if tuple(key) not in table:
            raise EvaluationError(f"depend '{dep.id}' has no table entry for {tuple(key)!r}")
        raw = table[tuple(key)]
    else:
        if dep.input not in env:
            raise EvaluationError(f"missing value for variable '{dep.input}'")
        raw = 1 if float(env[dep.input]) >= dep.cut - CONSTRAINT_EPS else 0  # type: ignore[arg-type]
    try:
        return out_domain.canonical(raw)
    except DefinitionError as exc:
        raise EvaluationError(f"depend '{dep.id}': {exc}") from exc


def _exogenous_values(
    model: Model, exogenous: Optional[Mapping[str, Value]]
) -> dict[str, Value]:
    """Canonical exogenous values; unknown variables and parameters are rejected."""
    parameter_ids = {p.id for p in model.parameters}
    values: dict[str, Value] = {}
    for name in sorted(exogenous or ()):
        try:
            domain = model.variable_domain(name)
        except KeyError:
            raise EvaluationError(f"exogenous value for unknown variable '{name}'")
        if name in parameter_ids:
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
    """Full value environment plus computed values for derived parameters.

    Parameter values always come from the specification; a functional depend
    whose output is a parameter contributes to the second mapping only (used
    as an equality constraint by feasibility checking).
    """
    env: dict[str, Value] = {}
    for pid, value in spec.items:
        try:
            domain = model.parameter(pid).domain
        except KeyError:
            raise EvaluationError(f"specification assigns unknown parameter '{pid}'")
        try:
            env[pid] = domain.canonical(value)
        except DefinitionError as exc:
            raise EvaluationError(str(exc)) from exc
    for p in model.parameters:
        if p.id not in env:
            raise EvaluationError(f"specification misses parameter '{p.id}'")
    env.update(_exogenous_values(model, exogenous))

    parameter_ids = {p.id for p in model.parameters}
    derived_parameters: dict[str, Value] = {}
    for dep in _topological_depends(model):
        if dep.output in parameter_ids:
            scratch = dict(env)
            scratch.pop(dep.output, None)
            value = _apply_functional(dep, scratch, model.variable_domain(dep.output))
            derived_parameters[dep.output] = value
        else:
            env[dep.output] = _apply_functional(dep, env, model.variable_domain(dep.output))
    return env, derived_parameters


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
    env, _ = _environment(model, spec, exogenous)
    values: dict[str, Value] = {}
    for c in model.criteria:
        if c.id not in env:
            raise EvaluationError(f"missing value for variable '{c.id}'")
        values[c.id] = env[c.id]
    return ProblemInstance.from_mapping(values)


def _constraint_holds(dep: ConstraintDepend, env: Mapping[str, Value]) -> bool:
    if isinstance(dep, Incompatibility):
        for name in (dep.a, dep.b):
            if name not in env:
                raise EvaluationError(f"missing value for variable '{name}'")
        return not (env[dep.a] and env[dep.b])
    if isinstance(dep, CardinalityConstraint):
        total = 0
        for name in dep.inputs:
            if name not in env:
                raise EvaluationError(f"missing value for variable '{name}'")
            total += 1 if env[name] else 0
        lhs: float = total
        bound: float = dep.bound
    else:
        lhs = 0.0
        for coeff, name in zip(dep.coefficients, dep.inputs):
            if name not in env:
                raise EvaluationError(f"missing value for variable '{name}'")
            lhs += coeff * float(env[name])  # type: ignore[arg-type]
        bound = dep.bound
    if dep.comparator == "==":
        return abs(lhs - bound) <= CONSTRAINT_EPS
    if dep.comparator == "<=":
        return lhs <= bound + CONSTRAINT_EPS
    return lhs >= bound - CONSTRAINT_EPS


def is_feasible(
    model: Model,
    spec: Specification,
    exogenous: Optional[Mapping[str, Value]] = None,
) -> bool:
    """True iff every pure constraint holds and derived parameters agree.

    The constraint environment is the specification united with the exogenous
    values and all computed functional outputs.
    """
    env, derived_parameters = _environment(model, spec, exogenous)
    for pid, computed in derived_parameters.items():
        if env[pid] != computed:
            return False
    for dep in model.constraint_depends():
        if not _constraint_holds(dep, env):
            return False
    return True


# ---------------------------------------------------------------------------
# Search


def _numeric_bounds(domain: Domain) -> tuple[float, float]:
    bounds = domain_bounds(domain)
    if bounds is None:
        raise DefinitionError("constraint input over non-numeric domain")
    return bounds


def _constraint_possible(
    dep: ConstraintDepend, env: Mapping[str, Value], model: Model
) -> bool:
    """False only when no completion of the partial assignment can satisfy."""
    if isinstance(dep, Incompatibility):
        if dep.a in env and dep.b in env:
            return not (env[dep.a] and env[dep.b])
        return True
    if isinstance(dep, CardinalityConstraint):
        lo = hi = 0.0
        for name in dep.inputs:
            if name in env:
                lo += 1 if env[name] else 0
                hi += 1 if env[name] else 0
            else:
                hi += 1
    else:
        lo = hi = 0.0
        for coeff, name in zip(dep.coefficients, dep.inputs):
            if name in env:
                term = coeff * float(env[name])  # type: ignore[arg-type]
                lo += term
                hi += term
            else:
                b0, b1 = _numeric_bounds(model.variable_domain(name))
                lo += min(coeff * b0, coeff * b1)
                hi += max(coeff * b0, coeff * b1)
    if dep.comparator == "==":
        return lo - CONSTRAINT_EPS <= dep.bound <= hi + CONSTRAINT_EPS
    if dep.comparator == "<=":
        return lo <= dep.bound + CONSTRAINT_EPS
    return hi >= dep.bound - CONSTRAINT_EPS


def search_specifications(
    model: Model,
    free: Iterable[str],
    exogenous: Optional[Mapping[str, Value]],
    visit: Callable[[Specification, Mapping[str, Value]], None],
) -> None:
    """Depth-first search over the free parameters with constraint propagation.

    Free parameters are assigned in id order, each over its domain in
    declaration order; every other parameter is computed by its functional
    depend or pinned to its default.  Functional outputs are computed as soon
    as their inputs are known, and a branch is pruned once some pure
    constraint can no longer hold.  ``visit`` gets every feasible leaf's full
    specification and value environment (valid only during the call).  A
    depend input with no way to get a value raises an evaluation error first.
    """
    free_ids = sorted(free)
    producers = {d.output: d for d in model.functional_depends()}
    # A computed value wins over an exogenous one, as in ``evaluate``.
    given = _exogenous_values(model, exogenous)
    env = {name: value for name, value in given.items() if name not in producers}
    for p in model.parameters:
        if p.id not in free_ids and p.id not in producers:
            if p.default is None:
                raise EvaluationError(
                    f"parameter '{p.id}' outside the decision set has no default"
                )
            env[p.id] = p.domain.canonical(p.default)

    topo = _topological_depends(model)
    constraints = model.constraint_depends()
    known = set(env) | set(free_ids) | set(producers)
    for dep in topo + constraints:
        for name in dep.inputs:
            if name not in known:
                raise EvaluationError(f"missing value for variable '{name}'")

    # Index functional depends and constraints by the inputs they wait on.
    feeds: dict[str, list] = {}
    for dep in topo:
        for name in dep.inputs:
            feeds.setdefault(name, []).append(dep)
    watching: dict[str, list[ConstraintDepend]] = {}
    for con in constraints:
        for name in con.inputs:
            watching.setdefault(name, []).append(con)
    out_domains = {dep.output: model.variable_domain(dep.output) for dep in topo}

    missing: dict[str, int] = {
        dep.id: sum(1 for name in dep.inputs if name not in env) for dep in topo
    }
    params = [model.parameter(pid) for pid in free_ids]
    param_ids = [p.id for p in model.sorted_parameters()]

    # The trail records every reversible step as ("env", variable) for an
    # environment entry or ("dec", depend id) for one missing-input decrement,
    # so undo stays exact even when propagation bails out partway through.

    def propagate(assigned: str, trail: list[tuple[str, str]]) -> bool:
        """Compute newly ready functional outputs; False on constraint failure."""
        queue = [assigned]
        while queue:
            name = queue.pop()
            for con in watching.get(name, ()):
                if all(n in env for n in con.inputs):
                    if not _constraint_holds(con, env):
                        return False
                elif not _constraint_possible(con, env, model):
                    return False
            for dep in feeds.get(name, ()):
                missing[dep.id] -= 1
                trail.append(("dec", dep.id))
                if missing[dep.id] == 0 and dep.output not in env:
                    env[dep.output] = _apply_functional(dep, env, out_domains[dep.output])
                    trail.append(("env", dep.output))
                    queue.append(dep.output)
        return True

    def undo(trail: list[tuple[str, str]]) -> None:
        for kind, payload in reversed(trail):
            if kind == "env":
                del env[payload]
            else:
                missing[payload] += 1

    # Propagate anything computable before search (constants, defaults).  The
    # prefix is never undone, so its trail is dropped.
    for dep in topo:
        if missing[dep.id] == 0 and dep.output not in env:
            env[dep.output] = _apply_functional(dep, env, out_domains[dep.output])
            if not propagate(dep.output, []):
                return
    for con in constraints:
        if all(n in env for n in con.inputs) and not _constraint_holds(con, env):
            return

    # Every input is known by the leaves (checked above), and each constraint
    # was checked in full when its last input got a value, so every leaf is
    # feasible.
    def descend(index: int) -> None:
        if index == len(params):
            visit(Specification(tuple((pid, env[pid]) for pid in param_ids)), env)
            return
        p = params[index]
        for value in p.domain.values():
            env[p.id] = value
            trail: list[tuple[str, str]] = [("env", p.id)]
            if propagate(p.id, trail):
                descend(index + 1)
            undo(trail)

    descend(0)


# ---------------------------------------------------------------------------
# Enumeration


def search_space_size(model: Model, over: Optional[Iterable[str]] = None) -> int:
    """Product of domain sizes over the given parameters (default: all)."""
    pids = sorted(over) if over is not None else [p.id for p in model.sorted_parameters()]
    total = 1
    for pid in pids:
        total *= model.parameter(pid).domain.size
    return total


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
    space = search_space_size(model)
    if space > cap:
        raise SizeLimitError(f"search space {space} exceeds cap {cap}")
    producers = {d.output for d in model.functional_depends()}
    free = [p.id for p in model.parameters if p.id not in producers]
    result: list[Specification] = []
    search_specifications(model, free, exogenous, lambda spec, env: result.append(spec))
    # A derived parameter can sort before a free one, so search order is not
    # canonical order.
    result.sort(key=lambda s: canonical_key(model, s))
    return result


def canonical_key(model: Model, spec: Specification) -> tuple[int, ...]:
    """Sort key realizing the canonical specification order."""
    return tuple(
        p.domain.index_of(spec[p.id]) for p in model.sorted_parameters()
    )


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
    """
    env: dict[str, Value] = dict(decision_assignment)
    if exogenous:
        env.update(exogenous)
    producers = {d.output: d for d in model.functional_depends()}
    remaining = [p for p in model.sorted_parameters() if p.id not in decision_assignment]
    for dep in _topological_depends(model):
        if all(name in env for name in dep.inputs) and dep.output not in env:
            env[dep.output] = _apply_functional(dep, env, model.variable_domain(dep.output))
    values: dict[str, Value] = dict(decision_assignment)
    for p in remaining:
        if p.id in producers and p.id in env:
            values[p.id] = env[p.id]
        elif p.default is not None:
            values[p.id] = p.default
        else:
            raise EvaluationError(
                f"parameter '{p.id}' outside the decision set has no default"
            )
    return Specification.from_mapping(values)
