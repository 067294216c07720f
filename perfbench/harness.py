"""Timing protocol shared by the workloads: set-up, passes, checks, metrics.

Host speed. The 2-vCPU host these figures come from changes speed by
itself: a fixed loop of interpreted integer code takes anywhere from 1x
to 2x its best time, in stretches that last from seconds to minutes, so
a whole run can land in a slow stretch. Raw times of one commit then
spread by 20-30% from run to run, more than any bound worth having.
Every timing the benchmark reports is therefore host-normalized: two
reference loops are timed between tasks (never inside one), and each
measured time is scaled by nominal / measured reference time around it.
The slow stretches slow interpreted bytecode far more than C-level
big-integer division (about 50% against 15%), so a workload weights
the two loops by its `bytecode_share`. A normalized second is a second
on the host in its fast state, where the loops take their nominal
times. Raw times are kept beside the normalized ones: in the result
files, in the printed lines, and as the per-layer raw.wall_s, so that a
claim can also be checked on raw paired runs.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

from spans import LAYERS, Tracer
from workloads import ROOT, child_env

# Nominal times: each loop's time in the fast state of the 2-vCPU host
# (Python 3.11.7) the baseline was recorded on. They set the scale of
# the figures, not their spread.
BYTECODE_NOMINAL_S = 0.0042
BIGINT_NOMINAL_S = 0.00125
REF_EVERY_S = 0.25      # task time between two reference timings
_TABLE = list(range(4096))
_BIG = random.Random(0).getrandbits(8000)


def reference() -> tuple[float, float]:
    """Times of the two reference loops: interpreted integer arithmetic with
    list reads, and big-integer division by small radices."""
    table = _TABLE
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += table[i & 4095] * i
    t1 = time.perf_counter()
    for _ in range(2):
        n = _BIG
        for radix in range(2, 400):
            n, _digit = divmod(n, radix)
    return t1 - t0, time.perf_counter() - t1


def speed_factor(before, after, bytecode_share: float = 1.0) -> float:
    """Nominal over measured reference time, from the timings on both sides
    of a task, the two loops weighted by the work's bytecode share."""
    bytecode = 2 * BYTECODE_NOMINAL_S / (before[0] + after[0])
    bigint = 2 * BIGINT_NOMINAL_S / (before[1] + after[1])
    return bytecode_share * bytecode + (1 - bytecode_share) * bigint


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Tally:
    """Outcome of every attempted task and its normalized times.

    times[traced][i] holds task i's normalized time from each pass in
    which it passed its check, raw[traced][i] the same times unscaled;
    untraced and traced passes are kept apart. A task's time is the
    median over its passes.
    """

    def __init__(self, ntasks: int) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.items = [0] * ntasks
        self.times: dict[bool, list[list[float]]] = {
            flag: [[] for _ in range(ntasks)] for flag in (False, True)}
        self.raw: dict[bool, list[list[float]]] = {
            flag: [[] for _ in range(ntasks)] for flag in (False, True)}
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.factors: list[float] = []
        self.setups: list[float] = []
        self.raw_setups: list[float] = []

    def latencies(self, traced: bool = False, raw: bool = False) -> list[float]:
        """Median time of each task that passed at least once."""
        per_task = (self.raw if raw else self.times)[traced]
        return [statistics.median(t) for t in per_task if t] or [0.0]


def describe(task: tuple) -> str:
    """Short text for a task; str() of an int above 4300 digits is refused."""
    return repr(tuple(f"<{x.bit_length()}-bit int>"
                      if isinstance(x, int) and x.bit_length() > 64 else x
                      for x in task))


def run_pass(wl, tally: Tally, tracer: Tracer | None) -> float:
    """One pass over the task list, then the checks; returns its raw wall time."""
    results = []
    factors = [0.0] * len(wl.tasks)
    chunk_start, chunk_work = 0, 0.0
    ref_before = reference()
    started = time.perf_counter()
    for i, task in enumerate(wl.tasks):
        if tracer is not None:
            tracer.current_query = i
        t0 = time.perf_counter()
        try:
            result, error = wl.run(task), None
        except Exception as exc:  # a failed task is counted, not fatal
            result, error = None, exc
        latency = time.perf_counter() - t0
        results.append((latency, result, error))
        chunk_work += latency
        if chunk_work >= REF_EVERY_S or i == len(wl.tasks) - 1:
            if tracer is not None:
                tracer.current_query = -1
            ref_after = reference()
            factor = speed_factor(ref_before, ref_after, wl.bytecode_share)
            factors[chunk_start:i + 1] = [factor] * (i + 1 - chunk_start)
            tally.factors.append(factor)
            ref_before, chunk_start, chunk_work = ref_after, i + 1, 0.0
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.current_query = -1
    times = tally.times[tracer is not None]
    raw_times = tally.raw[tracer is not None]
    for i, (task, (latency, result, error)) in enumerate(zip(wl.tasks, results)):
        tally.attempted += 1
        ok = error is None
        if ok:
            try:
                ok = wl.check(i, task, result)
            except Exception as exc:
                error = exc
                ok = False
        if ok:
            times[i].append(latency * factors[i])
            raw_times[i].append(latency)
            tally.items[i] = wl.items(task, result)
        else:
            tally.failed += 1
            if len(tally.failures) < 5:
                why = repr(error) if error else "wrong output"
                tally.failures.append(f"task {i} {describe(task)}: {why}")
    return wall


def run_passes(wl, seconds: float, tally: Tally, min_passes: int,
               tracer: Tracer | None = None) -> None:
    """Repeat the task list until the run's time is spent, at least min_passes.

    With a tracer, passes alternate untraced and traced, so both kinds
    see the same states of the host.
    """
    started = time.perf_counter()
    done = 0
    while True:
        traced = tracer is not None and done % 2 == 1
        if traced:
            tracer.install()
        try:
            wall = run_pass(wl, tally, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        tally.walls[traced].append(wall)
        done += 1
        elapsed = time.perf_counter() - started
        if done >= min_passes and elapsed + elapsed / done / 2 >= seconds:
            return


def timed(fn, *args, **kwargs):
    """(result, normalized seconds, raw seconds) of one call of interpreted
    code (set-up, atlas builds, interpreter start), between reference
    timings."""
    ref_before = reference()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    raw = time.perf_counter() - t0
    return result, raw * speed_factor(ref_before, reference()), raw


def atlas_probe(wl, tracer: Tracer) -> dict[str, float]:
    """Atlas build times for e = 4..6 (spans on) and e = 6 bytes per entry."""
    fh = wl.fh
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    atlas = fh.enumerate_attractors(6)
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    out = {"dynamics.atlas_entries.e6": atlas.memo_bound,
           "dynamics.atlas_bytes_per_entry.e6": retained / atlas.memo_bound}
    del atlas
    tracer.current_query = -2
    tracer.install()
    for e in (4, 5, 6):
        times = [timed(fh.enumerate_attractors, e)[1] for _ in range(3)]
        out[f"dynamics.atlas_build_ms.e{e}"] = statistics.median(times) * 1e3
    tracer.uninstall()
    tracer.current_query = -1
    return out


def interpreter_probe() -> dict[str, float]:
    """Bare interpreter start and `import facthappy.cli` on top of it, ms.

    The two are timed in alternation, so each difference compares
    neighbours in time.
    """
    env = child_env()

    def start_ms(code: str) -> float:
        argv = [sys.executable, "-c", code]
        return timed(subprocess.run, argv, check=True, cwd=ROOT, env=env,
                     timeout=60)[1] * 1e3

    bare, extra = [], []
    for _ in range(9):
        bare.append(start_ms("pass"))
        extra.append(start_ms("import facthappy.cli") - bare[-1])
    return {"cli.interp_start_ms": statistics.median(bare),
            "cli.import_ms": statistics.median(extra)}


def layer_metrics(tracer: Tracer, passes: int, factor: float) -> dict[str, float]:
    """Per-pass counts and times, and unit costs, from the spans of queries.

    Span times are scaled by the run's mean host factor.
    """
    s = tracer.summary()
    calls, counts = s["calls"], tracer.counts
    total = Counter({k: v * factor for k, v in s["total_ns"].items()})

    def per_pass(x):
        return x / passes

    def ratio(num, den):
        return num / den if den else 0.0

    conv_ns = total["factoradic.to_factoradic"] + total["factoradic.to_natural"]
    main_ns = s["durations"].get("cli.main", [])
    out = {
        "factoradic.convert_calls": per_pass(calls["factoradic.to_factoradic"]
                                             + calls["factoradic.to_natural"]),
        "factoradic.digits_converted": per_pass(counts["factoradic.digits"]),
        "factoradic.convert_s": per_pass(conv_ns) / 1e9,
        "factoradic.ns_per_digit": ratio(conv_ns, counts["factoradic.digits"]),
        "dynamics.extend_entries": per_pass(counts["dynamics.extend_entries"]),
        "dynamics.extend_ns_per_entry": ratio(
            total["dynamics.extended_index_table"],
            counts["dynamics.extend_entries"]),
        "dynamics.step_calls": per_pass(calls["dynamics.happy_step_nat"]),
        "dynamics.step_ns_per_digit": ratio(total["dynamics.happy_step_nat"],
                                            counts["dynamics.step_digits"]),
        "dynamics.classify_calls": per_pass(calls["dynamics.classify"]),
        "dynamics.classify_us": ratio(total["dynamics.classify"],
                                      calls["dynamics.classify"]) / 1e3,
        "dynamics.orbit_steps": per_pass(counts["dynamics.orbit_steps"]),
        "towers.nice_check_s": per_pass(total["towers.nice_check"]) / 1e9,
        "towers.build_sequence_s": per_pass(total["towers.build_sequence"]) / 1e9,
        "towers.replay_steps": per_pass(counts["towers.replay_steps"]),
        "towers.verify_concrete_s": per_pass(total["towers.verify_concrete"]) / 1e9,
        "analysis.values_scanned": per_pass(counts["analysis.density_values"]
                                            + counts["analysis.values_scanned"]),
        "analysis.density_s": per_pass(total["analysis.density"]) / 1e9,
        "analysis.density_ns_per_value": ratio(total["analysis.density"],
                                               counts["analysis.density_values"]),
        "analysis.runs_s": per_pass(total["analysis.smallest_runs"]) / 1e9,
        "analysis.emit_s": per_pass(total["analysis.emit_report"]) / 1e9,
        "analysis.runs_useful_ratio": ratio(counts["analysis.runs_useful"],
                                            counts["analysis.runs_extended"]),
        "cli.calls": per_pass(calls["cli.main"]),
        "cli.main_ms": statistics.median(main_ns) * factor / 1e6 if main_ns else 0.0,
        "trace.spans": per_pass(sum(calls.values())),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_pass(s["self_ns"][layer] * factor) / 1e9
    return out


def summary(times: list[float], tail_pct: int) -> dict[str, float]:
    """wall_s, p50 and tail (ms) of per-task times."""
    return {"wall_s": sum(times),
            "latency_p50_ms": percentile(times, 50) * 1e3,
            "latency_tail_ms": percentile(times, tail_pct) * 1e3}


def raw_figures(wl, tally: Tally) -> dict[str, float]:
    """The untraced end-to-end times without host scaling."""
    return {"setup_s": statistics.median(tally.raw_setups),
            **summary(tally.latencies(raw=True), wl.tail_pct),
            "host_factor": statistics.median(tally.factors)}


def measure(wl, seconds: float, traced: bool, min_passes: int | None = None):
    """Set up, run passes for `seconds`, check; return (metrics, tally, tracer)."""
    min_passes = wl.min_passes if min_passes is None else min_passes
    tally = Tally(len(wl.tasks))
    for _ in range(wl.setup_reps):
        gc.collect()
        _, normalized, raw = timed(wl.setup)
        tally.setups.append(normalized)
        tally.raw_setups.append(raw)
    if not traced:
        wl.prepare(lambda i: None)
        run_passes(wl, seconds, tally, min_passes)
        times = tally.latencies()
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        return {
            "setup_s": statistics.median(tally.setups),
            **summary(times, wl.tail_pct),
            # 0 only when every task failed, which `failed` reports.
            "items_per_s": sum(tally.items) / sum(times) if sum(times) else 0.0,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }, tally, None

    tracer = Tracer()
    metrics = atlas_probe(wl, tracer)
    # The workloads that never start an interpreter report 0 here, as
    # they do for every layer they do not call.
    metrics.update(interpreter_probe() if not wl.in_process else
                   {"cli.interp_start_ms": 0.0, "cli.import_ms": 0.0})
    tracer.install()
    ref_before = reference()
    wl.prepare(lambda i: setattr(tracer, "current_query", i))
    tracer.current_query = -1
    factor = speed_factor(ref_before, reference())
    tracer.uninstall()
    run_passes(wl, seconds, tally, max(2, min_passes), tracer)
    if wl.in_process:
        # Spans come from the traced passes; scale by their mean factor.
        traced_passes = len(tally.walls[True])
        factor = statistics.fmean(tally.factors)
    else:
        # Spans come from the one in-process reference pass in prepare().
        traced_passes = 1
    metrics.update(layer_metrics(tracer, traced_passes, factor))
    metrics["trace.overhead_s"] = (sum(tally.latencies(True))
                                   - sum(tally.latencies(False)))
    raw = raw_figures(wl, tally)
    metrics["raw.wall_s"] = raw["wall_s"]
    metrics["raw.host_factor"] = raw["host_factor"]
    return metrics, tally, tracer
