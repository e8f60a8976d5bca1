"""Acceptance gate: ten end-to-end checks over the whole package.

Each test covers one acceptance criterion and prints a single
"criterion N: PASS" or "criterion N: FAIL" line (visible with pytest -s).
Random instances come from the seeded generators in genmodels, and every
derived value is checked against an independently computed reference.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace
from itertools import chain, combinations, product
from math import fsum, prod
from pathlib import Path

from genmodels import (
    random_decision_model,
    random_goal_graph,
    random_rop,
    random_runtime_pair,
)
from ropas.cli import main as cli_main
from ropas.decisions import (
    ALTERNATIVE_PARAMETER,
    WeightedSum,
    daop_to_rop,
    expected_utility,
    rank_alternatives,
    validate_decision_model,
)
from ropas.formats import parse_model, parse_trace, serialize_model, serialize_trace
from ropas.goals import (
    FALSUM,
    check_drp,
    goal_graph,
    solve_rdrp,
    solve_rp2,
    solve_rp3,
)
from ropas.model import enumerate_specifications, evaluate, is_feasible
from ropas.runtime import (
    Event,
    EventTrace,
    adaptation_candidates,
    run_simulation,
    select_adaptation,
)
from ropas.solver import (
    Infeasible,
    OptimalSolutions,
    brute_force_oracle,
    decode_selection,
    encode_rdrp,
    rop,
    solve_rop,
)
from shipped import alert_spec, load

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@contextmanager
def criterion(number: int, time_limit: float = None):
    """Print one pass/fail line for the enclosed checks, timing them."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if time_limit is not None and elapsed >= time_limit:
        print(f"criterion {number}: FAIL (time {elapsed:.2f}s, limit {time_limit:g}s)")
        raise AssertionError(
            f"criterion {number} exceeded {time_limit:g}s: {elapsed:.2f}s"
        )
    print(f"criterion {number}: PASS")


def rebuilt(graph, conflicts=None, mandatory=None):
    """Copy a goal graph through the factory with optional overrides."""
    return goal_graph(
        atoms=sorted(graph.atoms),
        refinements=[(r.conclusion, sorted(r.premises)) for r in graph.refinements],
        conflicts=(
            [tuple(sorted(pair)) for pair in graph.conflicts]
            if conflicts is None
            else conflicts
        ),
        r_atoms=sorted(graph.r_atoms),
        k_atoms=sorted(graph.k_atoms),
        s_atoms=sorted(graph.s_atoms),
        mandatory=sorted(graph.r_atoms) if mandatory == "all" else sorted(graph.mandatory),
    )


def subsets(items):
    pool = sorted(items)
    return chain.from_iterable(
        combinations(pool, size) for size in range(len(pool) + 1)
    )


def test_criterion_01_fixture_enumerates_20_of_25(capsys):
    with criterion(1, time_limit=1.0):
        alerts = load("alerts.model")
        model, exogenous = alerts.model, dict(alerts.config.initial_exogenous)
        feasible = enumerate_specifications(model, exogenous)
        assert len(feasible) == 20
        choices = [p.split("_", 1) for p in model.decision_set]
        channels = [name for kind, name in choices if kind == "alert"]
        backends = [name for kind, name in choices if kind == "store"]
        one_hot = [alert_spec(c, b) for c in channels for b in backends]
        assert len(one_hot) == 25
        assert set(feasible) == {
            spec for spec in one_hot if is_feasible(model, spec, exogenous)
        }


def test_criterion_02_failure_switch_targets_and_choice(capsys):
    with criterion(2, time_limit=1.0):
        alerts = load("alerts.model")
        model, triggers = alerts.model, alerts.config.triggers
        exogenous = dict(alerts.config.initial_exogenous)
        exogenous["alert_call_ok"] = 0
        problem = rop(model, exogenous)
        current = alert_spec("call", "local")
        candidates = adaptation_candidates(problem, current, (), triggers)
        assert set(candidates) == {
            alert_spec("radio", "local"),
            alert_spec("push", "local"),
        }
        email = alert_spec("email", "local")
        assert is_feasible(model, email, exogenous)
        (coverage_floor,) = (t.tolerable.lo for t in triggers if t.criterion == "coverage")
        assert evaluate(model, email, exogenous)["coverage"] < coverage_floor
        assert email not in candidates
        chosen = select_adaptation(current, problem, (), triggers)
        assert chosen == alert_spec("radio", "local")
        config = replace(alerts.config, horizon=12)
        trace = EventTrace((Event(10, "alert_call_ok", 0),))
        timeline, _ = run_simulation(model, trace, config)
        assert timeline.status == "completed"
        assert timeline.periods[-1].start == 10
        assert timeline.periods[-1].spec == alert_spec("radio", "local")


def test_criterion_03_goal_encoding_matches_direct_solver(capsys):
    with criterion(3, time_limit=30.0):
        dispatch = load("dispatch.model").goals
        graphs = [dispatch]
        rng = random.Random(101)
        graphs.extend(random_goal_graph(rng, max_s=12) for _ in range(200))
        for index, graph in enumerate(graphs):
            expected = solve_rdrp(graph)
            result = solve_rop(encode_rdrp(graph))
            if isinstance(result, Infeasible):
                assert expected == [], index
            else:
                decoded = {decode_selection(graph, spec) for spec in result.optima}
                assert decoded == set(expected), index
        direct = solve_rdrp(dispatch)
        assert set(direct) == {
            frozenset({"send_als"}),
            frozenset({"send_bls"}),
            frozenset({"send_heli"}),
        }


def test_criterion_04_preference_solutions_nest(capsys):
    with criterion(4):
        rng = random.Random(202)
        for index in range(200):
            graph = random_goal_graph(rng)
            rp2 = set(solve_rp2(graph))
            rp3 = solve_rp3(graph)
            assert set(rp3.selections) <= rp2, index
            all_mandatory = rebuilt(graph, mandatory="all")
            fully_satisfying = {
                frozenset(selection)
                for selection in subsets(graph.s_atoms)
                if check_drp(all_mandatory, selection).satisfaction
            }
            assert set(solve_rp2(all_mandatory)) == fully_satisfying, index


def test_criterion_05_conflicting_facts_derive_everything(capsys):
    with criterion(5):
        rng = random.Random(303)
        seen = 0
        while seen < 100:
            graph = random_goal_graph(rng)
            s_atoms = sorted(graph.s_atoms)
            if len(s_atoms) < 2:
                continue
            pair = (s_atoms[0], s_atoms[1])
            conflicted = rebuilt(
                graph,
                conflicts=[tuple(sorted(p)) for p in graph.conflicts] + [pair],
            )
            verdict = check_drp(conflicted, set(pair))
            assert verdict.consistency is False
            assert verdict.satisfaction is False
            assert verdict.derived == conflicted.atoms | {FALSUM}
            for _ in range(5):
                selection = {a for a in s_atoms if rng.random() < 0.5}
                sweep = check_drp(conflicted, selection)
                if not sweep.consistency:
                    assert not sweep.satisfaction
            seen += 1


def reference_eu(dm, alternative_id: str) -> float:
    """Expected utility recomputed with fsum and explicit products."""
    alt = dm.alternative(alternative_id)
    transform = dm.transform.apply
    if isinstance(dm.utility, WeightedSum):
        parts = [dm.utility.offset]
        for weight, attr in zip(dm.utility.weights, dm.attributes):
            lot = alt.lottery_for(attr.id)
            parts.append(
                weight * fsum(transform(p) * float(v) for v, p in lot.outcomes)
            )
        return fsum(parts)
    table = dm.utility.lookup
    lots = [alt.lottery_for(attr.id) for attr in dm.attributes]
    terms = []
    for combo in product(*(lot.outcomes for lot in lots)):
        key = tuple(value for value, _ in combo)
        terms.append(prod(transform(p) for _, p in combo) * float(table[key]))
    return fsum(terms)


def test_criterion_06_ranking_matches_independent_expected_utility(capsys):
    with criterion(6):
        rng = random.Random(404)
        for index in range(500):
            dm = random_decision_model(rng)
            assert validate_decision_model(dm) == [], index
            reference = {
                alt.id: reference_eu(dm, alt.id) for alt in dm.alternatives
            }
            ranking = rank_alternatives(dm)
            for alt_id, eu in ranking.entries:
                assert abs(eu - reference[alt_id]) <= 1e-12, index
            position = {
                alt_id: i for i, (alt_id, _) in enumerate(ranking.entries)
            }
            ids = sorted(reference)
            for a in ids:
                for b in ids:
                    if reference[a] > reference[b] + 2e-12:
                        assert position[a] < position[b], index
            result = solve_rop(daop_to_rop(dm))
            assert isinstance(result, OptimalSolutions), index
            optimal = {spec[ALTERNATIVE_PARAMETER] for spec in result.optima}
            assert optimal == set(ranking.head_group()), index
            head = ranking.head_group()[0]
            assert result.objective_value == expected_utility(dm, head), index


def test_criterion_07_solver_matches_exhaustive_oracle(capsys):
    with criterion(7, time_limit=60.0):
        rng = random.Random(505)
        problems = [random_rop(rng) for _ in range(480)]
        problems += [random_rop(rng, max_space=1 << 14) for _ in range(20)]
        for index, problem in enumerate(problems):
            result = solve_rop(problem)
            check = brute_force_oracle(problem)
            assert type(result) is type(check), index
            if isinstance(result, OptimalSolutions):
                assert result.objective_value == check.objective_value, index
                assert result.optima == check.optima, index


def test_criterion_08_wider_tolerances_never_fire_more(capsys):
    with criterion(8):
        rng = random.Random(606)
        for index in range(100):
            model, trace, config = random_runtime_pair(rng)
            _, base = run_simulation(model, trace, config)
            bands = tuple(
                (trigger.criterion, float(rng.choice((0, 1, 2, 5))))
                for trigger in config.triggers
            )
            widened = replace(config, relaxation=bands)
            _, wide = run_simulation(model, trace, widened)
            assert wide.trigger_count <= base.trigger_count, index


def test_criterion_09_optimal_time_fraction_bounds(capsys):
    with criterion(9):
        rng = random.Random(707)
        for index in range(100):
            model, trace, config = random_runtime_pair(rng)
            _, metrics = run_simulation(model, trace, config)
            assert metrics.optimal_time_fraction == 1.0, index
        shock = load("shock.model")
        _, blind = run_simulation(shock.model, load("shock.trace"), shock.config)
        assert blind.optimal_time_fraction < 1.0
        assert blind.ignored_event_count >= 1


def test_criterion_10_deterministic_output_and_round_trips(capsys):
    with criterion(10):
        alerts = str(FIXTURES / "alerts.model")
        dispatch = str(FIXTURES / "dispatch.model")
        respond = str(FIXTURES / "respond.model")
        shock = str(FIXTURES / "shock.model")
        alerts_trace = str(FIXTURES / "alerts_failure.trace")
        shock_tr = str(FIXTURES / "shock.trace")
        commands = [
            ("validate", alerts),
            ("validate", dispatch),
            ("validate", respond),
            ("validate", shock),
            ("enumerate", alerts),
            ("solve", alerts),
            ("encode-rdrp", dispatch),
            ("rank", respond),
            ("simulate", alerts, alerts_trace),
            ("simulate", shock, shock_tr),
        ]
        for argv in commands:
            first_code = cli_main(list(argv))
            first = capsys.readouterr()
            second_code = cli_main(list(argv))
            second = capsys.readouterr()
            assert first_code == second_code == 0, argv
            assert first.out == second.out, argv
            assert first.err == second.err == "", argv
        for name in ("alerts.model", "dispatch.model", "respond.model", "shock.model"):
            text = (FIXTURES / name).read_text(encoding="utf-8")
            assert serialize_model(parse_model(text)) == text, name
        for name in ("alerts_failure.trace", "shock.trace"):
            text = (FIXTURES / name).read_text(encoding="utf-8")
            assert serialize_trace(parse_trace(text)) == text, name
