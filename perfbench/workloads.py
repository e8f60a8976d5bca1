"""The four benchmark workloads: seeded inputs, the timed calls, and checks.

Each workload generates its inputs from a seed as file texts (the benchmark's
own work, never timed), then ``setup`` parses them with the program's own
parsers into problem objects (timed as ``setup_s``) and returns the request
list.  Every request is a zero-argument call into the program plus a check
of its result.  The expected answers are computed here by independent means
(closed forms, exact fractions, the benchmark's own forward chaining and its
own model of the simulator's switching rule); no check compares against a
stored copy of the program's output and no check calls into the program.

Sizes are fixed per workload so that every request costs about the same.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional


@dataclass
class Request:
    """One timed call into the program and the check of its result.

    ``check`` returns None when the result is right, otherwise a message.
    ``planted`` marks a request that carries a known fault of the program.
    """

    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    planted: bool = False


@dataclass
class Workload:
    """``setups_per_pass`` gives each run dozens to hundreds of set-up
    timings: one set-up of a millisecond is too short to time on its own."""

    setup: Callable[[], list[Request]]
    setups_per_pass: int


# ---------------------------------------------------------------------------
# One-hot k x k models (shared by solve-onehot and simulate-onehot)


def _ids(prefix: str, k: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(k)]


def onehot_model_text(
    k: int,
    weights_a: list[int],
    weights_s: list[int],
    health_domain: str,
    detect: str,
    gate_weight: int,
    tail: str = "",
) -> str:
    """A model choosing exactly one channel ``aNN`` and one store ``sNN``.

    Channel i is usable only while ``gate_weight * a_i - ok_i <= 0`` holds,
    i.e. while its health ``ok_i`` is at least ``gate_weight``; the utility is
    the weighted sum of the chosen channel and store.
    """
    a, s, ok = _ids("a", k), _ids("s", k), _ids("ok", k)
    top = sum(weights_a) + sum(weights_s)
    lines = ["ropas-model v1", "", "[variables]"]
    lines.append(f"criterion utility int:0:{top} kind=utility pref=higher-better")
    lines += [f"parameter {p} bool default=0" for p in a + s]
    lines += [f"monitored {m} {health_domain}{detect}" for m in ok]
    lines += ["", "[depends]"]
    terms = [f"{w}.0*{p}" for w, p in zip(weights_a + weights_s, a + s)]
    lines.append("weighted-sum utility_total -> utility : " + " + ".join(terms))
    lines.append(f"cardinality one_channel : {','.join(a)} == 1")
    lines.append(f"cardinality one_store : {','.join(s)} == 1")
    for p, m in zip(a, ok):
        lines.append(f"linear gate_{p} : {gate_weight}.0*{p} + -1.0*{m} <= 0.0")
    lines += ["", "[decision]", "rule utility", f"set {','.join(a + s)}"]
    return "\n".join(lines) + "\n" + tail


def _weights(rng: random.Random, k: int) -> list[int]:
    # A narrow range makes tied optima common, which the checks must handle.
    return [rng.randint(1, 12) for _ in range(k)]


def _pair_key(k: int, i: int, j: int) -> tuple[int, ...]:
    """Canonical sort key of the one-hot spec (a_i, s_j): parameter ids sorted,
    Boolean domain order 0 then 1."""
    names = sorted(_ids("a", k) + _ids("s", k))
    chosen = {f"a{i:02d}", f"s{j:02d}"}
    return tuple(1 if n in chosen else 0 for n in names)


def best_pairs(
    k: int, weights_a: list[int], weights_s: list[int], healthy: set[int]
) -> tuple[int, list[tuple[int, int]]]:
    """Closed-form optimum over (healthy channel, store) pairs, canonical order."""
    top_a = max(weights_a[i] for i in healthy)
    top_s = max(weights_s)
    pairs = [
        (i, j)
        for i in healthy
        if weights_a[i] == top_a
        for j in range(k)
        if weights_s[j] == top_s
    ]
    pairs.sort(key=lambda p: _pair_key(k, *p))
    return top_a + top_s, pairs


def _spec_pair(k: int, items) -> Optional[tuple[int, int]]:
    """(channel, store) of a one-hot specification's items, None otherwise."""
    values = dict(items)
    if sorted(values) != sorted(_ids("a", k) + _ids("s", k)):
        return None
    on = [n for n, v in values.items() if v == 1]
    off = [n for n, v in values.items() if v == 0]
    if len(on) != 2 or len(on) + len(off) != 2 * k:
        return None
    a = [n for n in on if n.startswith("a")]
    s = [n for n in on if n.startswith("s")]
    if len(a) != 1 or len(s) != 1:
        return None
    return int(a[0][1:]), int(s[0][1:])


# ---------------------------------------------------------------------------
# solve-onehot


SOLVE_K = 10
SOLVE_FAILED = 3  # failed channels in every environment, so costs match
SOLVE_ENVIRONMENTS = 64


def check_solve(k, weights_a, weights_s, healthy, result) -> Optional[str]:
    value, pairs = best_pairs(k, weights_a, weights_s, healthy)
    optima = getattr(result, "optima", None)
    if optima is None:
        return f"expected optima, got {result!r}"
    if result.objective_value != value:
        return f"objective {result.objective_value!r} != {value}"
    got = [_spec_pair(k, spec.items) for spec in optima]
    if got != pairs:
        return f"optima {got} != {pairs}"
    return None


def solve_onehot(seed: int, workdir: str) -> Workload:
    from ropas import formats, solver

    rng = random.Random(f"solve-onehot/{seed}")
    k = SOLVE_K
    weights_a, weights_s = _weights(rng, k), _weights(rng, k)
    text = onehot_model_text(k, weights_a, weights_s, "bool", "", 1)
    environments = []
    for _ in range(SOLVE_ENVIRONMENTS):
        failed = set(rng.sample(range(k), SOLVE_FAILED))
        environments.append(
            {f"ok{i:02d}": 0 if i in failed else 1 for i in range(k)}
        )

    def setup() -> list[Request]:
        model = formats.parse_model(text).model
        requests = []
        for env in environments:
            healthy = {i for i in range(k) if env[f"ok{i:02d}"]}
            requests.append(
                Request(
                    call=lambda env=env: solver.solve_rop(solver.rop(model, env)),
                    check=lambda r, h=healthy: check_solve(k, weights_a, weights_s, h, r),
                )
            )
        return requests

    return Workload(setup, 16)


# ---------------------------------------------------------------------------
# simulate-onehot

SIM_K = 4
SIM_FAILURES = 2  # failures of the active channel in every trace
SIM_HORIZON = 12
SIM_TRACES = 24
SIM_HIDDEN_EVERY = 4  # every 4th trace hides its last failure for a while
SIM_REPORT_DELAY = 3  # ticks until a hidden failure becomes visible

# Health levels: 2 healthy, 1 failed and reported, 0 failed but outside the
# detectable range (the running system cannot see it).
HEALTHY, REPORTED, HIDDEN = 2, 1, 0


def _switch(k, weights_a, weights_s, healthy, current):
    """The simulator's documented target rule over one-hot pairs: best
    utility, then fewest parameter changes, then canonical order.  Returns
    the chosen pair and every optimum."""
    _, pairs = best_pairs(k, weights_a, weights_s, healthy)

    def changes(p):
        return 2 * (p[0] != current[0]) + 2 * (p[1] != current[1])

    return min(pairs, key=lambda p: (changes(p), _pair_key(k, *p))), pairs


def expected_simulation(k, weights_a, weights_s, events, horizon, initial):
    """Per tick: the spec the running system holds and the omniscient
    accepted set, starting on the ``initial`` pair.  Re-solves happen only
    when the active channel becomes infeasible in the replay's believed
    environment."""

    def replay(full_scope):
        health = {i: HEALTHY for i in range(k)}
        current, accepted = initial, [initial]
        by_tick = {}
        for tick, channel, level in events:
            by_tick.setdefault(tick, []).append((channel, level))
        active, accepted_per_tick = [], []
        for tick in range(horizon):
            for channel, level in by_tick.get(tick, ()):
                if full_scope or level != HIDDEN:
                    health[channel] = level
            if health[current[0]] != HEALTHY:
                healthy = {i for i in range(k) if health[i] == HEALTHY}
                current, accepted = _switch(k, weights_a, weights_s, healthy, current)
            active.append(current)
            accepted_per_tick.append(set(accepted))
        return active, accepted_per_tick

    active, _ = replay(False)
    _, omniscient = replay(True)
    flags = [spec in omni for spec, omni in zip(active, omniscient)]
    return active, flags


def make_sim_trace(rng, k, weights_a, weights_s, hidden, initial):
    """Fail the active channel SIM_FAILURES times; when ``hidden``, the last
    failure is invisible until it is reported SIM_REPORT_DELAY ticks later."""
    last = SIM_HORIZON - 1 - SIM_REPORT_DELAY
    ticks = sorted(rng.sample(range(1, last + 1), SIM_FAILURES))
    healthy = set(range(k))
    current = initial
    events = []
    for n, tick in enumerate(ticks):
        channel = current[0]
        if hidden and n == len(ticks) - 1:
            events.append((tick, channel, HIDDEN))
            events.append((tick + SIM_REPORT_DELAY, channel, REPORTED))
        else:
            events.append((tick, channel, REPORTED))
        healthy.discard(channel)
        current, _ = _switch(k, weights_a, weights_s, healthy, current)
    return events


def check_simulation(k, weights_a, weights_s, initial, events, hidden, result) -> Optional[str]:
    timeline, metrics = result
    if timeline.status != "completed":
        return f"status {timeline.status}"
    active, flags = expected_simulation(k, weights_a, weights_s, events, SIM_HORIZON, initial)
    got_specs, got_flags = [], []
    for period in timeline.periods:
        pair = _spec_pair(k, period.spec.items)
        got_specs += [pair] * (period.end - period.start)
        got_flags += list(period.optimal)
    if got_specs != active:
        return f"active specs {got_specs} != {active}"
    if got_flags != flags:
        return f"optimal flags {got_flags} != {flags}"
    if metrics.optimal_time_fraction != sum(flags) / SIM_HORIZON:
        return f"optimal_time_fraction {metrics.optimal_time_fraction!r}"
    if not hidden and metrics.optimal_time_fraction != 1.0:
        return "every event is visible but optimal_time_fraction != 1"
    if metrics.ignored_event_count != (1 if hidden else 0):
        return f"ignored_event_count {metrics.ignored_event_count}"
    if metrics.trigger_count != 0:
        return f"trigger_count {metrics.trigger_count}"
    return None


def simulate_onehot(seed: int, workdir: str) -> Workload:
    from ropas import formats, runtime

    rng = random.Random(f"simulate-onehot/{seed}")
    k = SIM_K
    weights_a, weights_s = _weights(rng, k), _weights(rng, k)
    # Two stores share the best weight, and the run starts on the one that
    # comes last in canonical order: every re-solve must keep it by the
    # fewest-changes rule, which canonical order alone would not.
    top = max(weights_s)
    others = [j for j in range(k) if weights_s[j] != top]
    if others:
        weights_s[rng.choice(others)] = top
    start = best_pairs(k, weights_a, weights_s, set(range(k)))[1][-1]
    health = ",".join(f"ok{i:02d}={HEALTHY}" for i in range(k))
    spec = ",".join(
        f"{p}={int(p in (f'a{start[0]:02d}', f's{start[1]:02d}'))}"
        for p in sorted(_ids("a", k) + _ids("s", k))
    )
    # The utility trigger never fires (every utility is >= 0); it makes each
    # re-solve run the calm filter over all candidates, as real triggers do.
    tail = (
        "\n[triggers]\ntrigger utility in [0.0,*]\n"
        f"\n[simulation]\nhorizon {SIM_HORIZON}\ninitial {health}\ninitial-spec {spec}\n"
    )
    text = onehot_model_text(
        k, weights_a, weights_s, f"int:0:{HEALTHY}", f" detect={REPORTED},{HEALTHY}", HEALTHY, tail
    )
    traces = []
    for n in range(SIM_TRACES):
        hidden = n % SIM_HIDDEN_EVERY == SIM_HIDDEN_EVERY - 1
        events = make_sim_trace(rng, k, weights_a, weights_s, hidden, start)
        lines = ["ropas-trace v1"] + [f"t={t} ok{c:02d}={v}" for t, c, v in events]
        traces.append((events, hidden, "\n".join(lines) + "\n"))

    def setup() -> list[Request]:
        bundle = formats.parse_model(text)
        requests = []
        for events, hidden, trace_text in traces:
            trace = formats.parse_trace(trace_text)
            requests.append(
                Request(
                    call=lambda t=trace: runtime.run_simulation(bundle.model, t, bundle.config),
                    check=lambda r, e=events, h=hidden: check_simulation(
                        k, weights_a, weights_s, start, e, h, r
                    ),
                )
            )
        return requests

    return Workload(setup, 16)


# ---------------------------------------------------------------------------
# goals-rdrp

GOALS_WINDOW = 4  # selectable atoms per requirement
GOALS_R = 3  # requirement atoms
GOALS_N = GOALS_R * GOALS_WINDOW + 1  # selectable atoms: the windows plus one shortcut
GOALS_GRAPHS = 24


def random_goal_graph(rng: random.Random):
    """Atoms, refinements (conclusion, premises), conflicts and partitions.

    Requirement ``r<w>`` is refined from the w-th window of four selectable
    atoms (in sorted order), given random roles x0..x3: ``r <- x0,x1``,
    ``r <- x2,x3``, and ``x3`` is itself derivable (``x3 <- x0,k0`` in the
    first window, ``x3 <- x0,x2`` elsewhere).  The last requirement also
    has the shortcut ``r <- s12,k1``.  Conflicts join x0 of the first two
    windows, and x1 of the last two.  Every graph has the same make-up, so
    the encoded search prunes at the same depths and every request costs
    about the same; only which atom plays which role changes with the seed.
    """
    s = [f"s{i:02d}" for i in range(GOALS_N)]
    r = [f"r{i}" for i in range(GOALS_R)]
    kn = ["k0", "k1"]
    refinements = []
    roles = []
    for w, atom in enumerate(r):
        x = rng.sample(s[w * GOALS_WINDOW : (w + 1) * GOALS_WINDOW], GOALS_WINDOW)
        roles.append(x)
        refinements.append((atom, tuple(sorted((x[0], x[1])))))
        refinements.append((atom, tuple(sorted((x[2], x[3])))))
        refinements.append((x[3], tuple(sorted((x[0], kn[0] if w == 0 else x[2])))))
    refinements.append((r[-1], (kn[1], s[-1])))
    conflicts = [
        tuple(sorted((roles[0][0], roles[1][0]))),
        tuple(sorted((roles[1][1], roles[2][1]))),
    ]
    return r, kn, s, refinements, conflicts


def closure(facts, refinements, conflicts, atoms):
    """Forward chaining to a fixed point; a derived conflict pair derives
    every atom (and the inconsistency marker None)."""
    derived = set(facts)
    changed = True
    while changed:
        changed = False
        for conclusion, premises in refinements:
            if conclusion not in derived and all(p in derived for p in premises):
                derived.add(conclusion)
                changed = True
    if any(a in derived and b in derived for a, b in conflicts):
        return set(atoms) | {None}
    return derived


def smallest_selections(r, kn, s, refinements, conflicts):
    """Minimum-size satisfying selections, by increasing size."""
    atoms = set(r) | set(kn) | set(s)

    def satisfies(selection):
        derived = closure(set(kn) | set(selection), refinements, conflicts, atoms)
        return None not in derived and set(r) <= derived

    for size in range(len(s) + 1):
        found = [frozenset(c) for c in combinations(sorted(s), size) if satisfies(c)]
        if found:
            return found, satisfies
    return [], satisfies


def goal_graph_text(r, kn, s, refinements, conflicts) -> str:
    lines = ["ropas-model v1", "", "[goalgraph]"]
    lines += [f"atom {a} r mandatory" for a in r]
    lines += [f"atom {a} k" for a in kn]
    lines += [f"atom {a} s" for a in s]
    lines += [f"refine {c} <- {','.join(p)}" for c, p in refinements]
    lines += [f"conflict {a} {b}" for a, b in conflicts]
    return "\n".join(lines) + "\n"


def check_goals(expected, satisfies, result) -> Optional[str]:
    direct, decoded, objective = result
    if direct != sorted(expected, key=lambda sel: tuple(sorted(sel))):
        return f"solve_rdrp {direct} != {expected}"
    if decoded is None or set(decoded) != set(expected) or len(decoded) != len(expected):
        return f"decoded optima {decoded} != {expected}"
    if objective != -len(expected[0]):
        return f"objective {objective!r} != {-len(expected[0])}"
    for selection in direct:
        if not satisfies(selection):
            return f"selection {sorted(selection)} fails the closure"
    return None


def goals_rdrp(seed: int, workdir: str) -> Workload:
    from ropas import formats, goals, solver

    rng = random.Random(f"goals-rdrp/{seed}")
    graphs = []
    for _ in range(GOALS_GRAPHS):
        parts = random_goal_graph(rng)
        graphs.append((goal_graph_text(*parts), *smallest_selections(*parts)))

    def both_routes(graph):
        direct = goals.solve_rdrp(graph)
        result = solver.solve_rop(solver.encode_rdrp(graph))
        optima = getattr(result, "optima", None)
        if optima is None:
            return direct, None, None
        decoded = [solver.decode_selection(graph, spec) for spec in optima]
        return direct, decoded, result.objective_value

    def setup() -> list[Request]:
        requests = []
        for text, expected, satisfies in graphs:
            graph = formats.parse_model(text).goals
            requests.append(
                Request(
                    call=lambda g=graph: both_routes(g),
                    check=lambda res, e=expected, f=satisfies: check_goals(e, f, res),
                )
            )
        return requests

    return Workload(setup, 16)


# ---------------------------------------------------------------------------
# cli-rank

RANK_FILES = 32
RANK_PLANTED = 4  # seed-independent files carrying a float-split exact tie
RANK_ALTERNATIVES = 32
RANK_ATTRIBUTES = 4
RANK_OUTCOMES = 3  # per lottery
RANK_LO, RANK_HI = -5, 5


def _dyadic(rng: random.Random, count: int) -> list[Fraction]:
    """Probabilities that are multiples of 1/64: their float products and sums
    are exact, so a seeded file never carries an accidental float split."""
    cuts = sorted(rng.sample(range(1, 64), count - 1))
    return [Fraction(b - a, 64) for a, b in zip([0] + cuts, cuts + [64])]


def _decimal(value: Fraction) -> str:
    text = f"{float(value):.10f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def decision_text(alternatives, weights) -> str:
    """alternatives: [(id, [[(value, probability Fraction), ...] per attribute])]."""
    attrs = [f"x{i}" for i in range(len(weights))]
    lines = ["ropas-model v1", "", "[attributes]"]
    lines += [f"attribute {a} int:{RANK_LO}:{RANK_HI}" for a in attrs]
    lines += ["", "[alternatives]"]
    lines += [f"alternative {alt_id}" for alt_id, _ in alternatives]
    for alt_id, lotteries in alternatives:
        for attr, lot in zip(attrs, lotteries):
            pairs = " ".join(f"{v}:{_decimal(p)}" for v, p in lot)
            lines.append(f"lottery {alt_id} {attr} {pairs}")
    lines += ["", "[utility]"]
    lines.append("weighted-sum " + " + ".join(f"{w}.0*{a}" for w, a in zip(weights, attrs)))
    lines += ["", "[transform]", "identity"]
    return "\n".join(lines) + "\n"


def random_alternatives(rng: random.Random, count: int):
    out = []
    for n in range(count):
        lotteries = []
        for _ in range(RANK_ATTRIBUTES):
            values = rng.sample(range(RANK_LO, RANK_HI + 1), RANK_OUTCOMES)
            lotteries.append(list(zip(values, _dyadic(rng, RANK_OUTCOMES))))
        out.append((f"alt{n:02d}", lotteries))
    return out


def planted_alternatives():
    """Two alternatives whose exact expected utilities are both 9/10 but whose
    float sums differ: 0.7*0 + 0.3*3 = 0.8999999999999999 and
    0.1*0 + 0.9*1 = 0.9.  Their other attributes contribute exactly 0."""
    zero = [(0, Fraction(1))]
    tie_x = [[(0, Fraction(7, 10)), (3, Fraction(3, 10))]] + [zero] * (RANK_ATTRIBUTES - 1)
    tie_y = [[(0, Fraction(1, 10)), (1, Fraction(9, 10))]] + [zero] * (RANK_ATTRIBUTES - 1)
    return [("tie_x", tie_x), ("tie_y", tie_y)]


def exact_ranking(alternatives, weights):
    """[(position, id, Fraction eu)] ordered by exact expected utility, then
    id; tied alternatives share a position.  Probabilities are read back
    from the decimal literals written to the file."""
    scored = []
    for alt_id, lotteries in alternatives:
        eu = sum(
            (w * sum((Fraction(_decimal(p)) * v for v, p in lot), Fraction(0))
             for w, lot in zip(weights, lotteries)),
            Fraction(0),
        )
        scored.append((alt_id, eu))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    out = []
    for alt_id, eu in scored:
        ahead = sum(1 for _, other in scored if other > eu)
        out.append((ahead + 1, alt_id, eu))
    return out


def check_rank(expected, result) -> Optional[str]:
    (code_v, out_v), (code_r, out_r) = result
    if code_v != 0 or out_v != "ok\n":
        return f"validate exited {code_v} printing {out_v!r}"
    if code_r != 0:
        return f"rank exited {code_r}"
    got = []
    for line in out_r.splitlines():
        fields = line.split()
        if len(fields) != 4 or fields[0] != "rank":
            return f"unexpected rank line {line!r}"
        got.append((int(fields[1]), fields[2], float(fields[3])))
    for (p, a, _), (want_p, want_a, _) in zip(got, expected):
        if (p, a) != (want_p, want_a):
            return f"{a} printed at rank {p}; expected {want_a} at rank {want_p}"
    if len(got) != len(expected):
        return f"{len(got)} rank lines for {len(expected)} alternatives"
    for (_, alt_id, printed), (_, _, eu) in zip(got, expected):
        if abs(Fraction(printed) - eu) > Fraction(1, 10**6):
            return f"{alt_id} printed {printed} for {float(eu)}"
    return None


def cli_rank(seed: int, workdir: str) -> Workload:
    from ropas import cli, formats

    rng = random.Random(f"cli-rank/{seed}")
    # The planted files do not depend on the seed, so they fail in every run.
    fixed = random.Random("cli-rank/planted")
    specs = []
    for n in range(RANK_FILES):
        planted = n < RANK_PLANTED
        source = fixed if planted else rng
        weights = [source.randint(-5, 5) or 1 for _ in range(RANK_ATTRIBUTES)]
        count = RANK_ALTERNATIVES - (2 if planted else 0)
        alternatives = random_alternatives(source, count)
        if planted:
            weights[0] = 1
            alternatives += planted_alternatives()
        specs.append((planted, alternatives, weights))
    os.makedirs(workdir, exist_ok=True)
    files = []
    for n, (planted, alternatives, weights) in enumerate(specs):
        path = os.path.join(workdir, f"rank{n:02d}.model")
        text = decision_text(alternatives, weights)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        files.append((path, text, planted, exact_ranking(alternatives, weights)))

    def run_cli(path):
        outputs = []
        for argv in (["validate", path], ["rank", "--oracle", path]):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            outputs.append((code, buffer.getvalue()))
        return outputs

    def setup() -> list[Request]:
        requests = []
        for path, text, planted, expected in files:
            formats.parse_model(text)
            requests.append(
                Request(
                    call=lambda p=path: run_cli(p),
                    check=lambda r, e=expected: check_rank(e, r),
                    planted=planted,
                )
            )
        return requests

    return Workload(setup, 1)


WORKLOADS = {
    "solve-onehot": solve_onehot,
    "simulate-onehot": simulate_onehot,
    "goals-rdrp": goals_rdrp,
    "cli-rank": cli_rank,
}
