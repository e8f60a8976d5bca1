"""Self-tests of the benchmark's checks.

    python3 -m pytest perfbench/test_checks.py

Each check must accept the right answer, built here from the independent
computation, and reject a deliberately wrong one.  The last tests run a few
real requests of every workload through its check, and show that the
timing at the reference speed cancels a change of machine speed.
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402


def _spec(k, i, j):
    names = W._ids("a", k) + W._ids("s", k)
    chosen = {f"a{i:02d}", f"s{j:02d}"}
    return SimpleNamespace(items=tuple(sorted((n, int(n in chosen)) for n in names)))


# ---------------------------------------------------------------------------
# solve-onehot

K = 4
WA = [5, 9, 9, 2]
WS = [3, 7, 7, 1]


def _solve_answer(healthy):
    value, pairs = W.best_pairs(K, WA, WS, healthy)
    return SimpleNamespace(optima=[_spec(K, i, j) for i, j in pairs], objective_value=value)


def test_solve_check_accepts_closed_form():
    answer = _solve_answer({0, 1, 2})
    assert len(answer.optima) == 4  # two tied channels x two tied stores
    assert W.check_solve(K, WA, WS, {0, 1, 2}, answer) is None


@pytest.mark.parametrize("mutation", ["value", "drop", "order", "unhealthy", "infeasible"])
def test_solve_check_rejects(mutation):
    healthy = {0, 2, 3}
    answer = _solve_answer(healthy)
    if mutation == "value":
        answer.objective_value += 1
    elif mutation == "drop":
        answer.optima = answer.optima[:-1]
    elif mutation == "order":
        answer.optima = answer.optima[::-1]
    elif mutation == "unhealthy":
        answer.optima = [_spec(K, 1, 1)] + answer.optima[1:]
    else:
        answer = SimpleNamespace(reason="no feasible specification")
    assert W.check_solve(K, WA, WS, healthy, answer) is not None


# ---------------------------------------------------------------------------
# simulate-onehot


# WS has two tied best stores; start on the one last in canonical order.
START = W.best_pairs(K, WA, WS, set(range(K)))[1][-1]


def _sim_answer(events, hidden):
    k, wa, ws = W.SIM_K, WA, WS
    active, flags = W.expected_simulation(k, wa, ws, events, W.SIM_HORIZON, START)
    periods = []
    start = 0
    for tick in range(1, W.SIM_HORIZON + 1):
        if tick == W.SIM_HORIZON or active[tick] != active[start]:
            periods.append(
                SimpleNamespace(
                    spec=_spec(k, *active[start]), start=start, end=tick,
                    optimal=tuple(flags[start:tick]),
                )
            )
            start = tick
    timeline = SimpleNamespace(status="completed", periods=periods)
    metrics = SimpleNamespace(
        optimal_time_fraction=sum(flags) / W.SIM_HORIZON,
        ignored_event_count=1 if hidden else 0,
        trigger_count=0,
    )
    return timeline, metrics


def _trace(hidden):
    return W.make_sim_trace(random.Random(3), W.SIM_K, WA, WS, hidden, START)


@pytest.mark.parametrize("hidden", [False, True])
def test_simulation_check_accepts_reference(hidden):
    events = _trace(hidden)
    timeline, metrics = _sim_answer(events, hidden)
    assert (metrics.optimal_time_fraction < 1.0) == hidden
    assert W.check_simulation(W.SIM_K, WA, WS, START, events, hidden, (timeline, metrics)) is None


@pytest.mark.parametrize("mutation", ["spec", "flag", "fraction", "ignored", "status"])
def test_simulation_check_rejects(mutation):
    events = _trace(True)
    timeline, metrics = _sim_answer(events, True)
    if mutation == "spec":
        last = timeline.periods[-1]
        last.spec = _spec(W.SIM_K, 3, 3)
    elif mutation == "flag":
        first = timeline.periods[0]
        first.optimal = (False,) + first.optimal[1:]
    elif mutation == "fraction":
        metrics.optimal_time_fraction = 1.0
    elif mutation == "ignored":
        metrics.ignored_event_count = 0
    else:
        timeline.status = "no-feasible-adaptation"
    assert W.check_simulation(W.SIM_K, WA, WS, START, events, True, (timeline, metrics)) is not None


def test_simulation_check_rejects_canonical_tie_break():
    events = _trace(False)
    timeline, metrics = _sim_answer(events, False)
    first_store = W.best_pairs(K, WA, WS, set(range(K)))[1][0][1]
    assert first_store != START[1]
    for period in timeline.periods[1:]:
        channel, _ = W._spec_pair(K, period.spec.items)
        period.spec = _spec(K, channel, first_store)
    assert W.check_simulation(W.SIM_K, WA, WS, START, events, False, (timeline, metrics)) is not None


def test_simulation_check_requires_full_fraction_when_all_visible():
    events = _trace(False)
    timeline, metrics = _sim_answer(events, False)
    metrics.optimal_time_fraction = 11 / 12
    assert W.check_simulation(W.SIM_K, WA, WS, START, events, False, (timeline, metrics)) is not None


# ---------------------------------------------------------------------------
# goals-rdrp


def _graph():
    rng = random.Random(7)
    while True:
        parts = W.random_goal_graph(rng)
        expected, satisfies = W.smallest_selections(*parts)
        if expected:
            return expected, satisfies, parts


def test_goals_check_accepts_reference():
    expected, satisfies, _ = _graph()
    direct = sorted(expected, key=lambda sel: tuple(sorted(sel)))
    answer = (direct, list(reversed(expected)), -len(expected[0]))
    assert W.check_goals(expected, satisfies, answer) is None


@pytest.mark.parametrize("mutation", ["drop", "bigger", "decoded", "objective", "infeasible"])
def test_goals_check_rejects(mutation):
    expected, satisfies, parts = _graph()
    direct = sorted(expected, key=lambda sel: tuple(sorted(sel)))
    decoded = list(expected)
    objective = -len(expected[0])
    s_atoms = parts[2]
    if mutation == "drop":
        direct = direct[1:] if len(direct) > 1 else []
    elif mutation == "bigger":
        extra = next(a for a in s_atoms if a not in direct[0])
        direct = [direct[0] | {extra}] + direct[1:]
    elif mutation == "decoded":
        decoded = decoded + decoded[:1]
    elif mutation == "objective":
        objective -= 1
    else:
        decoded, objective = None, None
    assert W.check_goals(expected, satisfies, (direct, decoded, objective)) is not None


def test_own_closure_derives_everything_from_a_conflict():
    derived = W.closure({"a", "b"}, [("c", ("a",))], [("b", "c")], {"a", "b", "c", "d"})
    assert None in derived and "d" in derived


# ---------------------------------------------------------------------------
# cli-rank


def _rank_output(expected):
    return "".join(f"rank {p} {a} {float(eu):.6f}\n" for p, a, eu in expected)


def _rank_inputs():
    alternatives = W.random_alternatives(random.Random(5), 6) + W.planted_alternatives()
    weights = [1, 2, -3, 4]
    return alternatives, weights


def test_rank_check_accepts_exact_ranking():
    alternatives, weights = _rank_inputs()
    expected = W.exact_ranking(alternatives, weights)
    ties = [(p, a) for p, a, _ in expected if a.startswith("tie_")]
    assert ties[0][0] == ties[1][0]  # the planted pair shares one position
    answer = [(0, "ok\n"), (0, _rank_output(expected))]
    assert W.check_rank(expected, answer) is None


@pytest.mark.parametrize("mutation", ["split", "swap", "value", "exit", "validate"])
def test_rank_check_rejects(mutation):
    alternatives, weights = _rank_inputs()
    expected = W.exact_ranking(alternatives, weights)
    rows = list(expected)
    validate = (0, "ok\n")
    code = 0
    if mutation == "split":
        at = next(n for n, (_, a, _) in enumerate(rows) if a == "tie_y")
        p, a, eu = rows[at]
        rows[at] = (p + 1, a, eu)
    elif mutation == "swap":
        rows[0], rows[-1] = (rows[0][0], rows[-1][1], rows[-1][2]), (rows[-1][0], rows[0][1], rows[0][2])
    elif mutation == "value":
        p, a, eu = rows[0]
        rows[0] = (p, a, eu + Fraction(1, 100))
    elif mutation == "exit":
        code = 1
    else:
        validate = (1, "line 3: semantic: broken\n")
    answer = [validate, (code, _rank_output(rows))]
    assert W.check_rank(expected, answer) is not None


# ---------------------------------------------------------------------------
# The program against the checks


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_real_requests_pass_their_checks(name, tmp_path):
    workload = W.WORKLOADS[name](1, str(tmp_path))
    requests = workload.setup()
    regular = [r for r in requests if not r.planted][:4]
    for request in regular:
        assert request.check(request.call()) is None


def test_planted_requests_differ_only_by_the_tie(tmp_path):
    workload = W.cli_rank(1, str(tmp_path))
    planted = [r for r in workload.setup() if r.planted]
    assert len(planted) == W.RANK_PLANTED
    for request in planted:
        problem = request.check(request.call())
        assert problem is None or problem.startswith("tie_")


# ---------------------------------------------------------------------------
# Timing at the reference speed


def test_speed_clock_cancels_a_change_of_machine_speed():
    clock = run.SpeedClock()
    assert clock.call(lambda: "result") == "result"
    assert clock.reference[0] > 0 and clock.raw[0] >= 0
    # The same call at the reference speed, on a machine running at half
    # speed, and while the machine slows down: the routine around it
    # slows down too.
    clock.raw = [0.004, 0.008, 0.006]
    clock.reference = [run.REFERENCE_S, 2 * run.REFERENCE_S, 1.5 * run.REFERENCE_S]
    assert clock.scaled() == pytest.approx([0.004] * 3)
