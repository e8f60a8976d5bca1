"""Reference code that only the tests use: the direct reading of a formula
that the compiled formulas are checked against, and the renaming of a goal
graph's atoms behind the renaming metamorphic test."""

from typing import FrozenSet, Mapping

from ropas.domains import Value
from ropas.errors import DefinitionError, EvaluationError
from ropas.goals import GoalGraph, Refinement
from ropas.model import BoolExpr


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


def rename(graph: GoalGraph, mapping: Mapping[str, str]) -> GoalGraph:
    """Apply a bijective atom renaming; structure is otherwise untouched."""
    missing = graph.atoms - set(mapping)
    if missing:
        raise DefinitionError(f"renaming misses atoms: {sorted(missing)}")
    image = [mapping[a] for a in graph.atoms]
    if len(set(image)) != len(image):
        raise DefinitionError("renaming is not injective")

    def m(atoms: FrozenSet[str]) -> frozenset[str]:
        return frozenset(mapping[a] for a in atoms)

    return GoalGraph(
        atoms=m(graph.atoms),
        refinements=tuple(
            Refinement(mapping[r.conclusion], m(r.premises)) for r in graph.refinements
        ),
        conflicts=frozenset(m(pair) for pair in graph.conflicts),
        r_atoms=m(graph.r_atoms),
        k_atoms=m(graph.k_atoms),
        s_atoms=m(graph.s_atoms),
        mandatory=m(graph.mandatory),
    )
