"""Benchmark command: one workload per fresh process, one caller thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Untraced (``--trace 0``): the workload's inputs are generated from the seed,
set up once and warmed up with untimed requests, and then served in whole
passes over the same request list in a closed loop until ``--seconds`` have
passed and at least ``MIN_REQUESTS`` were served; the pass that crosses the
limit is finished, so every run serves every request equally often.  Before
each pass the inputs are set up again (parsed into problem objects) a fixed
number of times, and ``setup_s`` is the median of those set-ups.  Each
result is checked outside its timed call.  Every time is reported at the
reference speed (see ``SpeedClock``).

Traced (``--trace 1``): every workload is generated from the seed, and one
untraced pass and one traced set-up and pass of each are run; each per-layer
metric is read from the workload that exercises its layer, and
``trace.overhead_pct`` compares the traced passes with the untraced ones.
``attempted`` and ``failed`` count the named workload's traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Callable, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench-work")

WARMUP_REQUESTS = 3
MIN_REQUESTS = 100  # so that at least ten requests lie beyond p90

# The reference routine's time at the reference speed: 8000 iterations of
# ``reference_work`` took 1.0 ms on the 2-core Xeon of the README's figures
# when it ran at its full speed.
REFERENCE_ITERATIONS = 8000
REFERENCE_S = 0.001


def reference_work() -> int:
    """Fixed interpreter-bound work of the benchmark's own: dict lookups and
    integer arithmetic, the kind of work the program's layers do."""
    counts: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3
    return len(counts)


def time_reference() -> float:
    began = time.perf_counter()
    reference_work()
    return time.perf_counter() - began


class SpeedClock:
    """Times calls, each one between two runs of ``reference_work``.

    The speed a shared machine gives one process can swing by 2x for
    minutes at a time, which moves raw wall-clock medians of identical code
    by as much as 43% between runs (README.md, "Timing at the reference
    speed").  ``scaled`` therefore reports each call's time at the
    reference speed: its raw time times ``REFERENCE_S`` over the mean time
    of the routine runs right before and right after it.  A change to the
    program moves the scaled times as it moves the raw ones; a change in
    the speed of the machine moves the routine too, and cancels out.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.reference: list[float] = []  # per call: mean routine time around it

    def call(self, func: Callable[[], object]) -> object:
        before = time_reference()
        began = time.perf_counter()
        result = func()
        self.raw.append(time.perf_counter() - began)
        self.reference.append((before + time_reference()) / 2)
        return result

    def scaled(self) -> list[float]:
        return [t * REFERENCE_S / ref for t, ref in zip(self.raw, self.reference)]


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ropas", "__init__.py")):
        sys.exit(f"no program source at {src}")
    sys.path.insert(0, src)
    import ropas

    if not os.path.abspath(ropas.__file__).startswith(src + os.sep):
        sys.exit(f"imported ropas from {ropas.__file__}, not from {src}")
    sys.path.insert(0, HERE)


class Tally:
    """Checks results.  A planted request that fails shows the known fault
    it carries; any other failure makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, request, result) -> None:
        self.attempted += 1
        problem = request.check(result)
        if problem is None:
            return
        self.failed += 1
        if not request.planted:
            self.errors.append(problem)

    @property
    def correct(self) -> bool:
        return not self.errors


def serve_pass(requests, tally: Tally, clock: SpeedClock) -> None:
    for request in requests:
        tally.record(request, clock.call(request.call))


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, os.path.join(WORKDIR, str(os.getpid())))
    requests = workload.setup()
    for request in requests[:WARMUP_REQUESTS]:
        request.call()
    gc.collect()

    tally = Tally()
    setups, timed = SpeedClock(), SpeedClock()
    start = time.perf_counter()
    while True:
        # Set-ups are timed between passes, not in one block at start, so
        # they meet the same machine conditions as the requests.
        for _ in range(workload.setups_per_pass):
            requests = setups.call(workload.setup)
        serve_pass(requests, tally, timed)
        if time.perf_counter() - start >= seconds and len(timed.raw) >= MIN_REQUESTS:
            break

    latencies = timed.scaled()
    ms = [x * 1000.0 for x in latencies]
    deciles = statistics.quantiles(ms, n=10)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups.scaled()), "s"),
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return {"tally": tally, "metrics": metrics}


class TracedRun(NamedTuple):
    tracer: object  # tracing.Tracer
    tally: Tally  # of the traced pass
    plain_s: float  # untraced pass's request time, at the reference speed
    traced_s: float  # traced pass's request time, at the reference speed
    speed: float  # brings the traced pass's raw times to the reference speed


def traced_workload(name: str, seed: int) -> TracedRun:
    """One untraced pass, then one traced set-up and pass."""
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, os.path.join(WORKDIR, str(os.getpid()), name))
    requests = workload.setup()
    for request in requests[:WARMUP_REQUESTS]:
        request.call()
    plain = SpeedClock()
    serve_pass(requests, Tally(), plain)

    tracer = Tracer()
    tracer.install()
    try:
        requests = workload.setup()
        traced = SpeedClock()
        tally = Tally()
        serve_pass(requests, tally, traced)
    finally:
        tracer.uninstall()
    speed = REFERENCE_S / statistics.median(traced.reference)
    return TracedRun(tracer, tally, sum(plain.scaled()), sum(traced.scaled()), speed)


def per_layer_metrics(traces: dict) -> dict:
    """Every per-layer metric, each read from the workload that exercises
    its layer (see the table in README.md); times at the reference speed."""
    def span(workload, name):
        return traces[workload].tracer.spans[name]

    def ms(workload, name):
        return span(workload, name).self_time * traces[workload].speed * 1000.0

    def calls(workload, name):
        return float(span(workload, name).calls)

    def extra(workload, name, key):
        return float(span(workload, name).extra.get(key, 0))

    sim, solve, goals, cli = "simulate-onehot", "solve-onehot", "goals-rdrp", "cli-rank"
    parse = span(cli, "formats.parse_model")
    out = {
        "runtime.run_simulation.ms": (ms(sim, "runtime.run_simulation"), "ms"),
        "runtime.adaptation_candidates.calls": (calls(sim, "runtime.adaptation_candidates"), "count"),
        "runtime.adaptation_candidates.ms": (ms(sim, "runtime.adaptation_candidates"), "ms"),
        "runtime.check_triggers.calls": (calls(sim, "runtime.check_triggers"), "count"),
        "runtime.feasibility_checks_per_solve": (
            calls(sim, "model.is_feasible") / calls(sim, "runtime.adaptation_candidates"),
            "ratio",
        ),
        "runtime.evaluations_per_candidate": (
            calls(sim, "model.evaluate")
            / extra(sim, "runtime.adaptation_candidates", "returned"),
            "ratio",
        ),
        "model.validate_model.calls": (calls(solve, "model.validate_model"), "count"),
        "model.validate_model.ms": (ms(solve, "model.validate_model"), "ms"),
        "model.evaluate.calls": (calls(sim, "model.evaluate"), "count"),
        "model.evaluate.ms": (ms(sim, "model.evaluate"), "ms"),
        "model.is_feasible.calls": (calls(sim, "model.is_feasible"), "count"),
        "model.is_feasible.ms": (ms(sim, "model.is_feasible"), "ms"),
        "model.enumerate_specifications.ms": (ms(sim, "model.enumerate_specifications"), "ms"),
        "model.feasible_ratio": (
            extra(sim, "model.enumerate_specifications", "feasible")
            / extra(sim, "model.enumerate_specifications", "space"),
            "ratio",
        ),
        "solver.rop.ms": (ms(solve, "solver.rop"), "ms"),
        "solver.solve_rop.calls": (calls(solve, "solver.solve_rop"), "count"),
        "solver.solve_rop.ms": (ms(solve, "solver.solve_rop"), "ms"),
        "solver.encode_rdrp.ms": (ms(goals, "solver.encode_rdrp"), "ms"),
        "goals.solve_rdrp.ms": (ms(goals, "goals.solve_rdrp"), "ms"),
        "goals.check_drp.calls": (calls(goals, "goals.check_drp"), "count"),
        "goals.derive_closure.calls": (calls(goals, "goals.derive_closure"), "count"),
        "goals.derive_closure.ms": (ms(goals, "goals.derive_closure"), "ms"),
        "goals.closures_per_solve": (
            calls(goals, "goals.derive_closure") / calls(goals, "goals.solve_rdrp"),
            "ratio",
        ),
        "goals.satisfying_ratio": (
            extra(goals, "goals.check_drp", "satisfying") / calls(goals, "goals.check_drp"),
            "ratio",
        ),
        "formats.parse_model.ms": (ms(cli, "formats.parse_model"), "ms"),
        "formats.parse_model.kb_per_s": (
            parse.extra["bytes"] / 1024.0 / (parse.total * traces[cli].speed),
            "kB/s",
        ),
        "formats.parse_trace.ms": (ms(sim, "formats.parse_trace"), "ms"),
        "decisions.rank_alternatives.ms": (ms(cli, "decisions.rank_alternatives"), "ms"),
        "decisions.expected_utility.calls": (calls(cli, "decisions.expected_utility"), "count"),
        "decisions.expected_utility.ms": (ms(cli, "decisions.expected_utility"), "ms"),
        "cli.main.self_ms": (ms(cli, "cli.main"), "ms"),
    }
    plain = sum(t.plain_s for t in traces.values())
    traced = sum(t.traced_s for t in traces.values())
    out["trace.overhead_pct"] = ((traced - plain) / plain * 100.0, "%")
    return out


def run_traced(name: str, seed: int) -> dict:
    from workloads import WORKLOADS

    traces = {other: traced_workload(other, seed) for other in WORKLOADS}
    return {"tally": traces[name].tally, "metrics": per_layer_metrics(traces)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        if args.trace:
            outcome = run_traced(args.workload, args.seed)
        else:
            outcome = run_untraced(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(os.path.join(WORKDIR, str(os.getpid())), ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass

    tally = outcome["tally"]
    for problem in tally.errors[:5]:
        print(f"wrong result: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    key: {"value": value, "unit": unit}
                    for key, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
