"""Goal graphs and propositional requirement entailment.

Atoms are partitioned into requirement atoms (to be derived), knowledge atoms
(asserted facts), and selectable atoms (the candidate specification elements).
Refinements are definite rules ``conclusion <- premise & premise & ...``;
conflict pairs mark mutually inconsistent atoms.  Derivation is a forward-
chaining closure; when a conflict pair is fully derived the distinguished
falsum atom is added and, from falsehood, every atom follows.

The goal solvers walk the selections by increasing size over a compiled
bitmask closure (one bit per atom), growing each selection from its parent's
closure and pruning every branch that conflicts or cannot reach the goal
atoms any more.  Each grown selection, and one chain bounding all of a
parent's children, is closed by forward chaining through an index of the
rules by premise, testing only the rules of an atom just added.
``check_drp`` judges only the kept selections, so ``derive_closure`` and
``check_drp`` remain the independent set-based verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

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
            raise DefinitionError(f"refinement of '{self.conclusion}' has no premises", self)


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
        # Each error carries the record at fault: an atom, a refinement or a
        # conflict pair.
        if FALSUM in self.atoms:
            raise DefinitionError(f"'{FALSUM}' is reserved", FALSUM)
        # Sets are walked in sorted order, so the atom an error names does
        # not depend on the hash seed.
        for ref in self.refinements:
            for atom in (ref.conclusion, *sorted(ref.premises)):
                if atom not in self.atoms:
                    raise DefinitionError(f"refinement references unknown atom '{atom}'", ref)
        for pair in sorted(self.conflicts, key=sorted):
            if len(pair) != 2:
                members = ", ".join(repr(atom) for atom in sorted(pair))
                raise DefinitionError(f"conflict {{{members}}} is not a pair", pair)
            for atom in sorted(pair):
                if atom not in self.atoms:
                    raise DefinitionError(f"conflict references unknown atom '{atom}'", pair)
        for name, group in (("r", self.r_atoms), ("k", self.k_atoms), ("s", self.s_atoms)):
            for atom in sorted(group):
                if atom not in self.atoms:
                    raise DefinitionError(f"{name}-atom '{atom}' is not declared", atom)
        for a, b in combinations((self.r_atoms, self.k_atoms, self.s_atoms), 2):
            overlap = sorted(a & b)
            if overlap:
                raise DefinitionError(f"atom partitions overlap on {overlap}", overlap[0])
        extra = sorted(self.mandatory - self.r_atoms)
        if extra:
            raise DefinitionError(
                f"mandatory atoms outside the requirement set: {extra}", extra[0]
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


def _grow(uses: dict[int, list[tuple[int, int]]], derived: int, pick: int) -> int:
    """The fixed point of ``derived | pick``, where ``derived`` is closed
    already: forward chaining from the pick fires only the rules indexed
    under an atom just added (Dowling and Gallier, 1984)."""
    if derived & pick:
        return derived
    derived |= pick
    todo = [pick]
    while todo:
        for premises, conclusion in uses.get(todo.pop(), ()):
            if not derived & conclusion and derived & premises == premises:
                derived |= conclusion
                todo.append(conclusion)
    return derived


def _by_size(
    graph: GoalGraph, goal: frozenset[str], cap: int
) -> Iterator[list[tuple[tuple[str, ...], DrpVerdict]]]:
    """For each size from 0 up, the selections of that size whose closure is
    consistent and holds every goal atom, as sorted member tuples in
    lexicographic order, each with its ``check_drp`` verdict.

    The graph is compiled once into integers (one bit per atom, in sorted
    order) and the selections are walked level by level, one level per
    size.  A selection grows only by selectable atoms after its last member,
    in increasing bit order, so every level is in lexicographic order, and
    each child is closed by ``_grow`` from its parent's closure: a pick the
    parent derives already leaves that closure as it is, and otherwise only
    the rules indexed under the pick and under each atom it derives are
    tested.  Closure is monotone, so a branch is cut once its closure holds
    a conflict pair, or once the closure of its closure with every later
    atom misses a goal atom.  For child i that bound, B_i, closes the
    parent's closure with the atoms from i on, so it shrinks as i grows:
    while a parent misses a goal atom, the chain B_n-1, B_n-2, ... grows
    back to the first B_i holding the goal and only the children up to i
    are grown, none of them bounded again; failing that, the parent is cut.
    Only the kept selections are judged by ``check_drp``.  Raises before
    any closure when 2^n exceeds the cap.
    """
    ordered = sorted(graph.s_atoms)
    if 2 ** len(ordered) > cap:
        raise SizeLimitError(f"{2 ** len(ordered)} candidate selections exceed cap {cap}")
    bit = {atom: 1 << i for i, atom in enumerate(sorted(graph.atoms))}

    def mask(atoms: Iterable[str]) -> int:
        return sum(bit[atom] for atom in atoms)

    uses: dict[int, list[tuple[int, int]]] = {}  # atom bit -> the rules it is a premise of
    for ref in graph.refinements:
        rule = (mask(ref.premises), bit[ref.conclusion])
        for atom in ref.premises:
            uses.setdefault(bit[atom], []).append(rule)
    conflicts = [mask(pair) for pair in graph.conflicts]
    want = mask(goal)
    picks = [bit[atom] for atom in ordered]

    root = 0
    for atom in graph.k_atoms:
        root = _grow(uses, root, bit[atom])
    # Each entry: members, their closure, and the index of the first atom
    # that may still be added.
    level = [] if any(root & pair == pair for pair in conflicts) else [((), root, 0)]
    while level:
        found = []
        for members, derived, _ in level:
            if derived & want == want:
                verdict = check_drp(graph, members)
                if verdict.consistency and goal <= verdict.derived:
                    found.append((members, verdict))
        yield found
        grown = []
        for members, derived, start in level:
            last = len(ordered) - 1  # the last child to grow
            if derived & want != want:
                reach = derived
                for last in range(last, start - 1, -1):
                    reach = _grow(uses, reach, picks[last])
                    if reach & want == want:
                        break
                else:
                    continue
            for i in range(start, last + 1):
                child = _grow(uses, derived, picks[i])
                for pair in conflicts:
                    if child & pair == pair:
                        break
                else:
                    grown.append(((*members, ordered[i]), child, i + 1))
        level = grown


def _mandatory_selections(graph: GoalGraph, cap: int) -> list[tuple[tuple[str, ...], int]]:
    """Each consistent selection deriving every mandatory atom, with its count
    of derived non-mandatory atoms, in sorted-member-tuple order."""
    kept = [
        (members, len(verdict.derived & graph.non_mandatory))
        for found in _by_size(graph, graph.mandatory, cap)
        for members, verdict in found
    ]
    kept.sort()
    return kept


def solve_rp2(graph: GoalGraph, cap: int = DEFAULT_SELECTION_CAP) -> list[frozenset[str]]:
    """All selections that derive every mandatory requirement consistently.

    Non-mandatory requirements may stay underived.  When every requirement is
    mandatory this coincides with the plain all-requirements problem.  Output
    order is deterministic (sorted-member tuples).
    """
    return [frozenset(members) for members, _ in _mandatory_selections(graph, cap)]


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
    kept = _mandatory_selections(graph, cap)
    best = max((count for _, count in kept), default=0)
    selections = tuple(frozenset(members) for members, count in kept if count == best)
    return Rp3Result(selections=selections, satisfied_count=best)


def solve_rdrp(graph: GoalGraph, cap: int = DEFAULT_SELECTION_CAP) -> list[frozenset[str]]:
    """All minimum-size selections that satisfy every requirement consistently.

    This is the reduced form of the requirements problem: among the
    selections whose closure derives all of ``r_atoms`` without conflict,
    keep exactly those of smallest cardinality.  Selections are tried by
    increasing size, so the search stops at the first size that has one.
    Deterministic order as in ``solve_rp2``.
    """
    for found in _by_size(graph, graph.r_atoms, cap):
        if found:
            return [frozenset(members) for members, _ in found]
    return []
