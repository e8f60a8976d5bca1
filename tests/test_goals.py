"""Goal graphs: closure, consistency, and the requirement problems."""

import random
from dataclasses import replace

import pytest

from genmodels import random_goal_graph
from ropas.errors import DefinitionError, SizeLimitError
from ropas.fixtures import dispatch_goals
from ropas.goals import (
    FALSUM,
    check_drp,
    derive_closure,
    goal_graph,
    rename,
    solve_rdrp,
    solve_rp2,
    solve_rp3,
)


def test_falsum_atom_is_reserved():
    with pytest.raises(DefinitionError, match="reserved"):
        goal_graph(atoms=(FALSUM, "a"))


def test_refinement_references_must_be_declared():
    with pytest.raises(DefinitionError, match="unknown atom"):
        goal_graph(atoms=("a",), refinements=(("a", ("ghost",)),))
    with pytest.raises(DefinitionError, match="no premises"):
        goal_graph(atoms=("a",), refinements=(("a", ()),))


def test_conflicts_must_be_declared_pairs():
    with pytest.raises(DefinitionError, match="unknown atom"):
        goal_graph(atoms=("a", "b"), conflicts=(("a", "ghost"),))
    with pytest.raises(DefinitionError, match="not a pair"):
        goal_graph(atoms=("a", "b"), conflicts=(("a", "a"),))


@pytest.mark.parametrize("seed", ["1", "2"])
def test_conflict_message_does_not_depend_on_the_hash_seed(seed):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ropas

    code = (
        "from ropas.goals import goal_graph\n"
        "try:\n"
        "    goal_graph(atoms=('a', 'b', 'c'), conflicts=[('a', 'b', 'c')])\n"
        "except Exception as err:\n"
        "    print(err)\n"
    )
    src = str(Path(ropas.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "conflict {'a', 'b', 'c'} is not a pair\n"


def test_atom_partitions_must_not_overlap():
    with pytest.raises(DefinitionError, match="overlap"):
        goal_graph(atoms=("a", "b"), r_atoms=("a",), s_atoms=("a", "b"))


def test_mandatory_must_be_requirements():
    with pytest.raises(DefinitionError, match="mandatory"):
        goal_graph(atoms=("a", "b"), r_atoms=("a",), s_atoms=("b",), mandatory=("b",))


def test_closure_chains_refinements():
    g = goal_graph(
        atoms=("a", "b", "c", "d"),
        refinements=(("b", ("a",)), ("c", ("b",)), ("d", ("b", "c"))),
    )
    assert derive_closure(g, ("a",)) == frozenset({"a", "b", "c", "d"})
    assert derive_closure(g, ()) == frozenset()


def test_closure_rejects_unknown_facts():
    g = goal_graph(atoms=("a",))
    with pytest.raises(DefinitionError, match="unknown atoms"):
        derive_closure(g, ("ghost",))


def test_conflict_forces_everything():
    g = goal_graph(
        atoms=("a", "b", "c", "unrelated"),
        refinements=(("b", ("a",)),),
        conflicts=(("b", "c"),),
    )
    closed = derive_closure(g, ("a", "c"))
    assert FALSUM in closed
    assert closed == g.atoms | {FALSUM}


def test_check_drp_on_dispatch_fixture():
    g = dispatch_goals()
    assert check_drp(g, {"send_als"}).satisfaction
    assert check_drp(g, {"send_bls"}).satisfaction
    assert check_drp(g, {"send_volunteer"}).satisfaction is False
    assert check_drp(g, {"send_volunteer", "send_neighbor"}).satisfaction
    clash = check_drp(g, {"send_heli", "send_volunteer"})
    assert not clash.consistency
    assert not clash.satisfaction
    assert FALSUM in clash.derived


def test_inconsistent_closure_never_counts_as_satisfaction():
    g = goal_graph(
        atoms=("r", "s", "t"),
        refinements=(("r", ("s",)),),
        conflicts=(("s", "t"),),
        r_atoms=("r",),
        s_atoms=("s", "t"),
        mandatory=("r",),
    )
    verdict = check_drp(g, {"s", "t"})
    assert "r" in verdict.derived
    assert not verdict.satisfaction


def test_check_drp_rejects_non_selectable_atoms():
    with pytest.raises(DefinitionError, match="non-selectable"):
        check_drp(dispatch_goals(), {"station_staffed"})


def test_rp2_on_dispatch_fixture():
    g = dispatch_goals()
    selections = solve_rp2(g)
    assert len(selections) == 21
    for sel in selections:
        assert check_drp(g, sel).satisfaction
    ordered = [tuple(sorted(sel)) for sel in selections]
    assert ordered == sorted(ordered)


def test_rp3_equals_rp2_when_no_optional_requirements():
    g = dispatch_goals()
    result = solve_rp3(g)
    assert list(result.selections) == solve_rp2(g)
    assert result.satisfied_count == 0


def test_rdrp_keeps_only_smallest_selections():
    assert solve_rdrp(dispatch_goals()) == [
        frozenset({"send_als"}),
        frozenset({"send_bls"}),
        frozenset({"send_heli"}),
    ]


def test_rdrp_empty_when_nothing_satisfies():
    g = goal_graph(
        atoms=("r", "s"),
        r_atoms=("r",),
        s_atoms=("s",),
        mandatory=("r",),
    )
    assert solve_rdrp(g) == []


def test_optional_requirements_relax_rp2_and_drive_rp3():
    g = goal_graph(
        atoms=("must", "nice", "s1", "s2"),
        refinements=(("must", ("s1",)), ("nice", ("s2",))),
        r_atoms=("must", "nice"),
        s_atoms=("s1", "s2"),
        mandatory=("must",),
    )
    rp2 = solve_rp2(g)
    assert frozenset({"s1"}) in rp2
    assert frozenset({"s1", "s2"}) in rp2
    assert frozenset({"s2"}) not in rp2
    rp3 = solve_rp3(g)
    assert rp3.selections == (frozenset({"s1", "s2"}),)
    assert rp3.satisfied_count == 1


def test_selection_caps_raise():
    g = goal_graph(atoms=[f"s{i}" for i in range(12)], s_atoms=[f"s{i}" for i in range(12)])
    with pytest.raises(SizeLimitError):
        solve_rp2(g, cap=100)
    with pytest.raises(SizeLimitError):
        solve_rdrp(g, cap=100)


def test_rename_round_trip():
    g = dispatch_goals()
    fwd = {a: f"x_{a}" for a in g.atoms}
    back = {v: k for k, v in fwd.items()}
    assert rename(rename(g, fwd), back) == g


def test_rename_requires_total_injective_mapping():
    g = dispatch_goals()
    with pytest.raises(DefinitionError, match="misses atoms"):
        rename(g, {"send_als": "x"})
    squash = {a: "same" for a in g.atoms}
    with pytest.raises(DefinitionError, match="not injective"):
        rename(g, squash)


def test_random_graphs_rp3_subset_of_rp2():
    rng = random.Random(17)
    for _ in range(60):
        g = random_goal_graph(rng, max_s=7)
        rp2 = set(solve_rp2(g))
        rp3 = solve_rp3(g)
        assert set(rp3.selections) <= rp2
        for sel in rp3.selections:
            verdict = check_drp(g, sel)
            assert verdict.consistency
            assert g.mandatory <= verdict.derived


def test_rdrp_stops_at_the_smallest_satisfying_size(monkeypatch):
    import ropas.goals as goals

    atoms = [f"s{i:02d}" for i in range(16)]
    graph = goal_graph(
        atoms=("r", *atoms),
        refinements=[("r", (a,)) for a in atoms],
        r_atoms=("r",),
        s_atoms=atoms,
    )
    calls = []

    def counted(g, selection):
        calls.append(selection)
        return check_drp(g, selection)

    monkeypatch.setattr(goals, "check_drp", counted)
    assert solve_rdrp(graph) == [frozenset({a}) for a in atoms]
    assert len(calls) <= 17


def test_rp2_and_rp3_match_a_subset_enumeration():
    rng = random.Random(29)
    for index in range(200):
        g = random_goal_graph(rng, max_s=8)
        ordered = sorted(g.s_atoms)
        kept = []
        for mask in range(1 << len(ordered)):
            members = tuple(a for i, a in enumerate(ordered) if mask >> i & 1)
            verdict = check_drp(g, members)
            if verdict.consistency and g.mandatory <= verdict.derived:
                kept.append((members, len(verdict.derived & g.non_mandatory)))
        kept.sort()
        assert solve_rp2(g) == [frozenset(m) for m, _ in kept], index
        best = max((count for _, count in kept), default=0)
        rp3 = solve_rp3(g)
        assert rp3.selections == tuple(frozenset(m) for m, c in kept if c == best), index
        assert rp3.satisfied_count == best, index


def _brute_force(g):
    """RP2's kept selections with their non-mandatory counts, and RDRP's
    answer, from every subset mask of the selectable atoms judged by check_drp."""
    ordered = sorted(g.s_atoms)
    kept, satisfying = [], []
    for mask in range(1 << len(ordered)):
        members = tuple(a for i, a in enumerate(ordered) if mask >> i & 1)
        verdict = check_drp(g, members)
        if verdict.consistency and g.mandatory <= verdict.derived:
            kept.append((members, len(verdict.derived & g.non_mandatory)))
        if verdict.satisfaction:
            satisfying.append(members)
    kept.sort()
    smallest = min(map(len, satisfying), default=0)
    rdrp = sorted(m for m in satisfying if len(m) == smallest)
    return kept, [frozenset(m) for m in rdrp]


def test_goal_solvers_match_a_brute_force_on_wide_graphs():
    rng = random.Random(41)
    for index in range(300):
        g = random_goal_graph(rng, max_s=7, wide=True)
        kept, rdrp = _brute_force(g)
        assert solve_rp2(g) == [frozenset(m) for m, _ in kept], index
        best = max((count for _, count in kept), default=0)
        rp3 = solve_rp3(g)
        assert rp3.selections == tuple(frozenset(m) for m, c in kept if c == best), index
        assert rp3.satisfied_count == best, index
        assert solve_rdrp(g) == rdrp, index


def test_rdrp_judges_only_the_selections_it_returns(monkeypatch):
    import ropas.goals as goals

    calls = []

    def counted(g, selection):
        calls.append(frozenset(selection))
        return check_drp(g, selection)

    monkeypatch.setattr(goals, "check_drp", counted)
    rng = random.Random(43)
    for index in range(100):
        g = random_goal_graph(rng, max_s=7, wide=True)
        calls.clear()
        assert solve_rdrp(g) == calls, index


def test_default_cap_raises_before_any_closure(monkeypatch):
    import ropas.goals as goals

    def refuse(*args):
        raise AssertionError("the walk ran")

    atoms = [f"s{i:02d}" for i in range(25)]
    g = goal_graph(
        atoms=("r", *atoms),
        refinements=[("r", (a,)) for a in atoms],
        r_atoms=("r",),
        s_atoms=atoms,
    )
    for name in ("check_drp", "derive_closure", "_close"):
        monkeypatch.setattr(goals, name, refuse)
    for solve in (solve_rp2, solve_rp3, solve_rdrp):
        with pytest.raises(SizeLimitError, match="exceed cap"):
            solve(g)


def test_rp2_walk_prunes_conflicting_branches(monkeypatch):
    import ropas.goals as goals

    atoms = [f"s{i:02d}" for i in range(20)]
    g = goal_graph(
        atoms=("k", "r", *atoms),
        refinements=[("r", ("s00",))],
        conflicts=[("k", a) for a in atoms[1:]],
        r_atoms=("r",),
        k_atoms=("k",),
        s_atoms=atoms,
        mandatory=("r",),
    )
    closures = []

    def counted(rules, derived):
        closures.append(derived)
        return close(rules, derived)

    close = goals._close
    monkeypatch.setattr(goals, "_close", counted)
    assert solve_rp2(g) == [frozenset({"s00"})]
    # A sweep over every subset would close 2**20 selections.
    assert len(closures) <= 4 * 20


def _in_order(selections):
    return sorted(selections, key=lambda sel: tuple(sorted(sel)))


def test_the_solvers_keep_the_monotone_relations_the_walk_prunes_on():
    """On 300 seeded graphs, alternately narrow and wide: a new conflict pair
    never adds an RP2 selection; a fresh selectable atom that nothing uses
    leaves RDRP unchanged and turns each RP2 selection into itself with and
    without the atom; without conflicts, RP2 is closed under adding an atom."""
    rng = random.Random(53)
    for index in range(300):
        g = random_goal_graph(rng, max_s=7, wide=index % 2 == 1)
        rp2 = solve_rp2(g)

        pair = frozenset(rng.sample(sorted(g.atoms), 2))
        clashing = replace(g, conflicts=g.conflicts | {pair})
        assert set(solve_rp2(clashing)) <= set(rp2), index

        # The fresh atom sorts at a random place among the selectable atoms.
        fresh = f"s{rng.randint(0, len(g.s_atoms))}_fresh"
        grown = replace(g, atoms=g.atoms | {fresh}, s_atoms=g.s_atoms | {fresh})
        assert solve_rdrp(grown) == solve_rdrp(g), index
        doubled = [sel | extra for sel in rp2 for extra in ({fresh}, set())]
        assert solve_rp2(grown) == _in_order(doubled), index

        free = set(solve_rp2(replace(g, conflicts=frozenset())))
        for sel in free:
            for atom in g.s_atoms - sel:
                assert sel | {atom} in free, index


def test_renaming_renames_the_answers_and_nothing_else():
    rng = random.Random(47)
    for index in range(150):
        g = random_goal_graph(rng, max_s=7, wide=True)
        ordered = sorted(g.atoms)
        # The image reverses the sorted order, so every bit moves.
        mapping = {a: f"a{len(ordered) - i:03d}" for i, a in enumerate(ordered)}
        h = rename(g, mapping)
        assert rename(h, {b: a for a, b in mapping.items()}) == g, index

        def image(sel):
            return frozenset(mapping[a] for a in sel)

        assert solve_rp2(h) == _in_order(map(image, solve_rp2(g))), index
        rp3, renamed = solve_rp3(g), solve_rp3(h)
        assert list(renamed.selections) == _in_order(map(image, rp3.selections)), index
        assert renamed.satisfied_count == rp3.satisfied_count, index
        assert solve_rdrp(h) == _in_order(map(image, solve_rdrp(g))), index
