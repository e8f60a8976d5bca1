"""Goal graphs and propositional requirement entailment.

Atoms are partitioned into requirement atoms (to be derived), knowledge atoms
(asserted facts), and selectable atoms (the candidate specification elements).
Refinements are definite rules ``conclusion <- premise & premise & ...``;
conflict pairs mark mutually inconsistent atoms.  Derivation is a forward-
chaining closure; when a conflict pair is fully derived the distinguished
falsum atom is added and, from falsehood, every atom follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, Iterable, Iterator, Mapping

from .errors import DefinitionError, SizeLimitError

FALSUM = "_|_"

DEFAULT_SELECTION_CAP = 1 << 24


@dataclass(frozen=True)
class Refinement:
    """One definite rule: the conclusion holds when all premises hold."""

    conclusion: str
    premises: frozenset[str]

    def __post_init__(self) -> None:
        if not self.premises:
            raise DefinitionError(f"refinement of '{self.conclusion}' has no premises")


@dataclass(frozen=True)
class GoalGraph:
    atoms: frozenset[str]
    refinements: tuple[Refinement, ...] = ()
    conflicts: frozenset[frozenset[str]] = frozenset()
    r_atoms: frozenset[str] = frozenset()
    k_atoms: frozenset[str] = frozenset()
    s_atoms: frozenset[str] = frozenset()
    mandatory: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if FALSUM in self.atoms:
            raise DefinitionError(f"'{FALSUM}' is reserved")
        # Sets are walked in sorted order, so the atom an error names does
        # not depend on the hash seed.
        for ref in self.refinements:
            for atom in (ref.conclusion, *sorted(ref.premises)):
                if atom not in self.atoms:
                    raise DefinitionError(f"refinement references unknown atom '{atom}'")
        for pair in sorted(self.conflicts, key=sorted):
            if len(pair) != 2:
                members = ", ".join(repr(atom) for atom in sorted(pair))
                raise DefinitionError(f"conflict {{{members}}} is not a pair")
            for atom in sorted(pair):
                if atom not in self.atoms:
                    raise DefinitionError(f"conflict references unknown atom '{atom}'")
        for name, group in (("r", self.r_atoms), ("k", self.k_atoms), ("s", self.s_atoms)):
            for atom in sorted(group):
                if atom not in self.atoms:
                    raise DefinitionError(f"{name}-atom '{atom}' is not declared")
        for a, b in combinations((self.r_atoms, self.k_atoms, self.s_atoms), 2):
            overlap = a & b
            if overlap:
                raise DefinitionError(
                    f"atom partitions overlap on {sorted(overlap)}"
                )
        extra = self.mandatory - self.r_atoms
        if extra:
            raise DefinitionError(
                f"mandatory atoms outside the requirement set: {sorted(extra)}"
            )

    @property
    def non_mandatory(self) -> frozenset[str]:
        return self.r_atoms - self.mandatory


def goal_graph(
    atoms: Iterable[str],
    refinements: Iterable[tuple[str, Iterable[str]]] = (),
    conflicts: Iterable[tuple[str, str]] = (),
    r_atoms: Iterable[str] = (),
    k_atoms: Iterable[str] = (),
    s_atoms: Iterable[str] = (),
    mandatory: Iterable[str] = (),
) -> GoalGraph:
    """Convenience constructor taking plain iterables."""
    return GoalGraph(
        atoms=frozenset(atoms),
        refinements=tuple(
            Refinement(concl, frozenset(prems)) for concl, prems in refinements
        ),
        conflicts=frozenset(frozenset(pair) for pair in conflicts),
        r_atoms=frozenset(r_atoms),
        k_atoms=frozenset(k_atoms),
        s_atoms=frozenset(s_atoms),
        mandatory=frozenset(mandatory),
    )


@dataclass(frozen=True)
class DrpVerdict:
    """Result of checking one candidate selection.

    ``satisfaction`` means every requirement atom is derived and the closure
    is consistent; inconsistency always forces ``satisfaction`` to False.
    """

    satisfaction: bool
    consistency: bool
    derived: frozenset[str]


def derive_closure(graph: GoalGraph, facts: Iterable[str]) -> frozenset[str]:
    """Forward-chaining closure of the facts under the graph's refinements.

    If both members of any conflict pair are derived, the falsum atom is added
    and then every atom of the graph (from an inconsistent set, anything
    follows).
    """
    fact_set = frozenset(facts)
    unknown = fact_set - graph.atoms
    if unknown:
        raise DefinitionError(f"unknown atoms in facts: {sorted(unknown)}")
    derived = set(fact_set)
    changed = True
    while changed:
        changed = False
        for ref in graph.refinements:
            if ref.conclusion not in derived and ref.premises <= derived:
                derived.add(ref.conclusion)
                changed = True
    for pair in graph.conflicts:
        if pair <= derived:
            return frozenset(graph.atoms) | {FALSUM}
    return frozenset(derived)


def check_drp(graph: GoalGraph, s_selection: Iterable[str]) -> DrpVerdict:
    """Judge one candidate selection of selectable atoms.

    The knowledge atoms are asserted together with the selection; the verdict
    reports whether all requirement atoms follow and whether the closure is
    conflict-free.
    """
    selection = frozenset(s_selection)
    stray = selection - graph.s_atoms
    if stray:
        raise DefinitionError(f"selection contains non-selectable atoms: {sorted(stray)}")
    derived = derive_closure(graph, graph.k_atoms | selection)
    consistency = FALSUM not in derived
    satisfaction = consistency and graph.r_atoms <= derived
    return DrpVerdict(satisfaction=satisfaction, consistency=consistency, derived=derived)


def _selectable(graph: GoalGraph, cap: int) -> list[str]:
    """The selectable atoms, sorted; raises when 2^n selections exceed the cap."""
    ordered = sorted(graph.s_atoms)
    if 2 ** len(ordered) > cap:
        raise SizeLimitError(
            f"{2 ** len(ordered)} candidate selections exceed cap {cap}"
        )
    return ordered


def _selections(graph: GoalGraph, cap: int) -> Iterator[frozenset[str]]:
    """Every selection, one at a time, in sorted-member-tuple order."""
    ordered = _selectable(graph, cap)

    # Depth-first preorder over increasing atom positions is exactly the
    # lexicographic order of the sorted member tuples.
    def extend(chosen: tuple[str, ...], start: int) -> Iterator[frozenset[str]]:
        yield frozenset(chosen)
        for i in range(start, len(ordered)):
            yield from extend(chosen + (ordered[i],), i + 1)

    return extend((), 0)


def solve_rp2(graph: GoalGraph, cap: int = DEFAULT_SELECTION_CAP) -> list[frozenset[str]]:
    """All selections that derive every mandatory requirement consistently.

    Non-mandatory requirements may stay underived.  When every requirement is
    mandatory this coincides with the plain all-requirements problem.  Output
    order is deterministic (sorted-member tuples).
    """
    out: list[frozenset[str]] = []
    for selection in _selections(graph, cap):
        verdict = check_drp(graph, selection)
        if verdict.consistency and graph.mandatory <= verdict.derived:
            out.append(selection)
    return out


@dataclass(frozen=True)
class Rp3Result:
    """Optimally satisfying selections plus the achieved non-mandatory count."""

    selections: tuple[frozenset[str], ...]
    satisfied_count: int


def solve_rp3(graph: GoalGraph, cap: int = DEFAULT_SELECTION_CAP) -> Rp3Result:
    """Keep only the mandatory-satisfying selections that derive the most
    non-mandatory requirements.

    Every returned selection achieves the reported count; the result is always
    a subset of ``solve_rp2``'s output, in the same deterministic order.
    """
    best: list[frozenset[str]] = []
    best_count = 0
    for selection in solve_rp2(graph, cap):
        derived = check_drp(graph, selection).derived
        count = len(derived & graph.non_mandatory)
        if not best or count > best_count:
            best = [selection]
            best_count = count
        elif count == best_count:
            best.append(selection)
    return Rp3Result(selections=tuple(best), satisfied_count=best_count if best else 0)


def solve_rdrp(graph: GoalGraph, cap: int = DEFAULT_SELECTION_CAP) -> list[frozenset[str]]:
    """All minimum-size selections that satisfy every requirement consistently.

    This is the reduced form of the requirements problem: among the
    selections whose closure derives all of ``r_atoms`` without conflict,
    keep exactly those of smallest cardinality.  Selections are tried by
    increasing size, so the search stops at the first size that has one.
    Deterministic order as in ``solve_rp2``.
    """
    ordered = _selectable(graph, cap)
    for size in range(len(ordered) + 1):
        found = [
            selection
            for selection in map(frozenset, combinations(ordered, size))
            if check_drp(graph, selection).satisfaction
        ]
        if found:
            return found
    return []


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
