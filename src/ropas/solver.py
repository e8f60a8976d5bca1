"""Exact optimisation over finite specification spaces.

A problem couples a model (whose decision rule names the criterion to
maximise) with fixed exogenous values.  ``solve_rop`` runs the model's
propagating search over the decision set and returns every tied optimum;
``brute_force_oracle`` and ``brute_force_enumeration`` are the independent
full-product references for tests and ``--oracle`` checks.  ``encode_rdrp``
compiles a goal graph into a smallest-selection optimisation problem over
binary selection parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Optional, Union

from .domains import Boolean, Enumerated, IntegerRange, Value, domain_bounds
from .errors import DefinitionError, EvaluationError
from .goals import GoalGraph
from .model import (
    BooleanFormula,
    CardinalityConstraint,
    Criterion,
    DEFAULT_ENUMERATION_CAP,
    Incompatibility,
    LinearConstraint,
    Model,
    Parameter,
    Specification,
    WeightedSum,
    _check_space,
    and_,
    canonical_key,
    complete_specification,
    evaluate,
    is_feasible,
    or_,
    pinned_values,
    search_specifications,
    var,
)

DEFAULT_ORACLE_CAP = 1 << 16

LINEAR_FORMS = (LinearConstraint, CardinalityConstraint, WeightedSum)


@dataclass(frozen=True)
class Rop:
    """An optimisation problem: a model plus fixed exogenous values.

    The model must validate cleanly, carry a higher-better numeric decision
    rule, and have a nonempty decision set.
    """

    model: Model
    exogenous: tuple[tuple[str, Value], ...] = ()

    def __post_init__(self) -> None:
        self.model._compiled  # an invalid model raises its findings here
        if self.model.decision_rule is None:
            raise DefinitionError("model has no decision rule")
        if not self.model.decision_set:
            raise DefinitionError("model has an empty decision set")
        rule = self.model.criterion(self.model.decision_rule)
        if domain_bounds(rule.domain) is None:
            raise DefinitionError(f"decision rule '{rule.id}' has no numeric ordering")

    def exogenous_map(self) -> dict[str, Value]:
        return dict(self.exogenous)


def rop(model: Model, exogenous: Optional[Mapping[str, Value]] = None) -> Rop:
    """Convenience constructor accepting a plain mapping."""
    return Rop(model=model, exogenous=tuple(sorted((exogenous or {}).items())))


@dataclass(frozen=True)
class RopClass:
    """Coarse problem taxonomy: decision-variable kind and depend kind."""

    variable_kind: str  # binary | integer | continuous-grid | mixed
    depend_kind: str  # linear | nonlinear | general


def classify(problem: Rop) -> RopClass:
    """Classify by decision-set domains and depend relation forms.

    Linear forms are linear constraints, cardinality constraints, and weighted
    sums; formulas, lookup tables, threshold steps, and incompatibilities
    count as nonlinear.  A mixture of both yields "general".
    """
    kinds = set()
    for pid in problem.model.decision_set:
        domain = problem.model.parameter(pid).domain
        if isinstance(domain, Boolean):
            kinds.add("binary")
        elif isinstance(domain, (IntegerRange, Enumerated)):
            kinds.add("integer")
        else:
            kinds.add("continuous-grid")
    variable_kind = kinds.pop() if len(kinds) == 1 else "mixed"

    linear = sum(1 for d in problem.model.depends if isinstance(d, LINEAR_FORMS))
    total = len(problem.model.depends)
    if linear == total:
        depend_kind = "linear"
    elif linear == 0:
        depend_kind = "nonlinear"
    else:
        depend_kind = "general"
    return RopClass(variable_kind=variable_kind, depend_kind=depend_kind)


@dataclass(frozen=True)
class OptimalSolutions:
    """All tied optima in canonical order, plus the shared objective value."""

    optima: tuple[Specification, ...]
    objective_value: Value


@dataclass(frozen=True)
class Infeasible:
    """Explicit result when no specification satisfies the constraints."""

    reason: str = "no feasible specification"


SolveResult = Union[OptimalSolutions, Infeasible]


# ---------------------------------------------------------------------------
# Search


def solve_rop(problem: Rop, cap: int = DEFAULT_ENUMERATION_CAP) -> SolveResult:
    """Maximise the decision-rule criterion over the decision set.

    Runs ``search_specifications`` with the pins ``pinned_values`` gives, so
    it varies the decision set (parameters outside it take their computed
    value or their default), and keeps the leaves with the highest
    decision-rule value; ``cap`` bounds the decision set's space.  All tied
    optima are returned, sorted canonically.

    The best value so far is the search's floor: when a weighted sum
    computes the decision rule, every branch whose sum cannot reach it is
    cut.  An evaluation error (such as a value outside its criterion's
    domain) is raised only from a branch the search reaches, so a problem
    can solve even though ``brute_force_oracle``, which evaluates every
    combination, raises on a leaf that a constraint or the cut skipped.
    """
    model = problem.model
    decision_ids = sorted(model.decision_set)
    _check_space(model, cap, decision_ids)

    rule = model.decision_rule
    assert rule is not None
    best_value: Optional[Value] = None
    best: list[Specification] = []

    def keep_best(spec: Specification, env: Mapping[str, Value]) -> Value:
        nonlocal best_value
        if rule not in env:
            raise EvaluationError(f"missing value for variable '{rule}'")
        value = env[rule]
        if best_value is None or value > best_value:  # type: ignore[operator]
            best_value = value
            best[:] = [spec]
        elif value == best_value:
            best.append(spec)
        return best_value

    search_specifications(model, pinned_values(model), problem.exogenous_map(), keep_best)
    if not best:
        return Infeasible()
    best.sort(key=lambda s: canonical_key(model, s))
    return OptimalSolutions(optima=tuple(best), objective_value=best_value)


def brute_force_oracle(problem: Rop, cap: int = DEFAULT_ORACLE_CAP) -> SolveResult:
    """Reference solver: enumerate every decision assignment, no pruning."""
    model = problem.model
    exogenous = problem.exogenous_map()
    decision_ids = sorted(model.decision_set)
    _check_space(model, cap, decision_ids, "oracle cap")

    rule = model.decision_rule
    assert rule is not None
    best_value: Optional[Value] = None
    best: list[Specification] = []
    domains = [model.parameter(pid).domain.values() for pid in decision_ids]
    for combo in product(*domains):
        assignment = dict(zip(decision_ids, combo))
        spec = complete_specification(model, assignment, exogenous)
        if not is_feasible(model, spec, exogenous):
            continue
        instance = evaluate(model, spec, exogenous)
        value = instance[rule]
        if best_value is None or value > best_value:  # type: ignore[operator]
            best_value = value
            best = [spec]
        elif value == best_value:
            best.append(spec)
    if not best:
        return Infeasible()
    best.sort(key=lambda s: canonical_key(model, s))
    return OptimalSolutions(optima=tuple(best), objective_value=best_value)


def brute_force_enumeration(
    model: Model,
    exogenous: Optional[Mapping[str, Value]] = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[Specification]:
    """Reference enumerator: the full cartesian product filtered by ``is_feasible``."""
    params = model.sorted_parameters
    _check_space(model, cap)
    result: list[Specification] = []
    value_lists = [p.domain.values() for p in params]
    for combo in product(*value_lists):
        spec = Specification(tuple(zip((p.id for p in params), combo)))
        if is_feasible(model, spec, exogenous):
            result.append(spec)
    return result


# ---------------------------------------------------------------------------
# Goal graph encoding


OBJECTIVE_ID = "objective"
DERIVED_SUFFIX = "__derived"
STEP_SUFFIX = "__step"


def _reachable(start: str, edges: Mapping[str, set[str]]) -> set[str]:
    seen: set[str] = set()
    stack = list(edges[start])
    while stack:
        atom = stack.pop()
        if atom not in seen:
            seen.add(atom)
            stack.extend(edges[atom])
    return seen


def encode_rdrp(graph: GoalGraph) -> Rop:
    """Compile a goal graph into a smallest-selection optimisation problem.

    One binary parameter per selectable atom; one boolean criterion per
    requirement and knowledge atom, all forced to 1 through cardinality
    constraints, and one derived-only criterion per atom outside the three
    partitions; refinements become boolean formulas tying conclusions to
    premises; conflict pairs become incompatibility constraints.  An atom on
    a refinement cycle of m atoms is derived in m rounds of the closure's
    fixed point: rounds 1 to m-1 are auxiliary criteria ``<id>__step<i>``,
    each reading the previous round of the atoms on its cycle, and round m
    is the atom itself.  The decision rule maximises minus the number of
    selected atoms, so the optima are exactly the minimum-cardinality
    satisfying selections.
    """
    if not graph.s_atoms:
        raise DefinitionError("no selectable atoms to encode")

    by_conclusion: dict[str, list] = {}
    for ref in graph.refinements:
        by_conclusion.setdefault(ref.conclusion, []).append(ref)
    derivable_s = {a for a in graph.s_atoms if a in by_conclusion}
    unpartitioned = graph.atoms - graph.r_atoms - graph.k_atoms - graph.s_atoms
    # Atoms whose value a formula computes, and the atoms on a cycle with each.
    computed = graph.r_atoms | derivable_s | unpartitioned
    inputs = {
        a: {p for ref in by_conclusion.get(a, []) for p in ref.premises if p in computed}
        for a in computed
    }
    reach = {a: _reachable(a, inputs) for a in computed}
    cycle = {a: {b for b in reach[a] if a in reach[b]} for a in computed}

    def reference(atom: str, step: int = 0) -> str:
        """The atom's value after ``step`` rounds of its cycle (0: final)."""
        name = atom + DERIVED_SUFFIX if atom in derivable_s else atom
        if step in (0, len(cycle.get(atom, ()))):
            return name
        return f"{name}{STEP_SUFFIX}{step}"

    reserved = {OBJECTIVE_ID} | {a + DERIVED_SUFFIX for a in graph.s_atoms}
    reserved |= {reference(a, step) for a in computed for step in range(1, len(cycle[a]))}
    clash = graph.atoms & reserved
    if clash:
        raise DefinitionError(f"atom names clash with encoder ids: {sorted(clash)}")

    parameters = tuple(
        Parameter(id=a, domain=Boolean()) for a in sorted(graph.s_atoms)
    )
    criteria: list[Criterion] = []
    depends: list = []

    def rule_formula(conclusion: str, step: int = 0):
        """The conclusion's refinements in round ``step`` of its cycle, in
        the order of their sorted premises, whatever the file's order: a
        premise on the cycle is read from the previous round, and in round 1
        it does not hold yet."""
        ring = cycle[conclusion]
        alternatives = []
        for premises in sorted(sorted(ref.premises) for ref in by_conclusion.get(conclusion, [])):
            if step == 1 and ring.intersection(premises):
                continue
            terms = [var(reference(p, step - 1 if p in ring else 0)) for p in premises]
            alternatives.append(and_(*terms))
        return or_(*alternatives)

    def derive(atom: str, kind: str) -> None:
        seed = (var(atom),) if atom in derivable_s else ()
        # An atom on no cycle is derived once, in the final round 0.
        for step in range(1, len(cycle[atom]) + 1) or [0]:
            out = reference(atom, step)
            criteria.append(
                Criterion(
                    id=out,
                    domain=Boolean(),
                    kind=kind if out == reference(atom) else "quality-variable",
                )
            )
            depends.append(
                BooleanFormula(
                    id=f"derive_{out}",
                    output=out,
                    expr=or_(*seed, *rule_formula(atom, step)[1:]),
                )
            )

    for atom in sorted(graph.k_atoms):
        criteria.append(Criterion(id=atom, domain=Boolean(), kind="domain-knowledge"))
        depends.append(BooleanFormula(id=f"given_{atom}", output=atom, expr=and_()))
    for atom in sorted(graph.r_atoms):
        derive(atom, "requirement")
    for atom in sorted(derivable_s | unpartitioned):
        derive(atom, "quality-variable")

    if graph.r_atoms:
        depends.append(
            CardinalityConstraint(
                id="require_all",
                inputs=tuple(sorted(graph.r_atoms)),
                comparator="==",
                bound=len(graph.r_atoms),
            )
        )
    if graph.k_atoms:
        depends.append(
            CardinalityConstraint(
                id="assert_knowledge",
                inputs=tuple(sorted(graph.k_atoms)),
                comparator="==",
                bound=len(graph.k_atoms),
            )
        )
    for pair in sorted(graph.conflicts, key=lambda p: tuple(sorted(p))):
        a, b = sorted(pair)
        depends.append(
            Incompatibility(
                id=f"conflict_{a}_{b}",
                a=reference(a),
                b=reference(b),
            )
        )

    n = len(graph.s_atoms)
    criteria.append(
        Criterion(
            id=OBJECTIVE_ID,
            domain=IntegerRange(-n, 0),
            kind="utility",
            preference="higher-better",
        )
    )
    depends.append(
        WeightedSum(
            id="selection_cost",
            output=OBJECTIVE_ID,
            inputs=tuple(sorted(graph.s_atoms)),
            weights=(-1.0,) * n,
        )
    )

    model = Model(
        criteria=tuple(criteria),
        parameters=parameters,
        monitored=(),
        depends=tuple(depends),
        decision_rule=OBJECTIVE_ID,
        decision_set=tuple(sorted(graph.s_atoms)),
    )
    return Rop(model=model, exogenous=())


def decode_selection(graph: GoalGraph, spec: Specification) -> frozenset[str]:
    """Map an encoded-problem specification back to a selection of atoms."""
    return frozenset(a for a in graph.s_atoms if spec[a])
