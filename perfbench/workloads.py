"""The three workloads: a fixed task list made from the seed, and its checks.

Each workload is one closed-loop caller: the next task starts when the
previous one has returned. A run repeats the task list ("a pass") while
its time lasts. run() is the timed call into the package; check() runs
after the pass, outside any timing, and uses only oracle.py.

Sizes are stratified rather than drawn independently, so every seed
gets the same mix of costs and only the exact values change; that keeps
medians and tail percentiles comparable across seeds.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package(with_cli: bool = False):
    """Import facthappy afresh from src/, dropping any loaded copy first."""
    for name in [k for k in sys.modules
                 if k == "facthappy" or k.startswith("facthappy.")]:
        del sys.modules[name]
    package = importlib.import_module("facthappy")
    if with_cli:
        importlib.import_module("facthappy.cli")
    return package


def stratified_digits(rng, count: int, lo: float, hi: float) -> list[int]:
    """count decimal sizes, log-uniform on [10^lo, 10^hi], one per stratum, ascending."""
    return [round(10 ** (lo + (hi - lo) * (k + rng.random()) / count))
            for k in range(count)]


def random_with_digits(rng, d: int) -> int:
    return rng.randrange(10 ** (d - 1), 10 ** d)


class Workload:
    name = ""
    tail_pct = 90        # latency_tail_ms is this percentile
    min_passes = 3       # each task's least time is over at least 3 runs
    setup_reps = 7       # setup_s is the median of this many set-ups
    in_process = True    # passes call the package in this process
    bytecode_share = 1.0  # weight of the bytecode reference loop (harness.py)
    aliases: dict[str, tuple[str, float, str]] = {}

    def __init__(self, rng, small: bool = False):
        self.tasks = self.make_tasks(rng, small)
        self.fh = None

    def make_tasks(self, rng, small: bool) -> list[tuple]:
        raise NotImplementedError

    def setup(self) -> None:
        """Import the package and build what the timed phase reads."""
        raise NotImplementedError

    def prepare(self, mark) -> None:
        """Untimed work the checks need before the passes; mark(i) tags query i."""

    def run(self, task):
        raise NotImplementedError

    def check(self, index: int, task: tuple, result) -> bool:
        raise NotImplementedError

    def items(self, task: tuple, result) -> int:
        """Units of work one task completes, for items_per_s."""
        return 1


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


class Census(Workload):
    """Long interval scans: density tallies and smallest-run sweeps."""

    name = "census"
    aliases = {"items_per_s": ("values_per_s", 1.0, "1/s"),
               "latency_p50_ms": ("task_p50_ms", 1.0, "ms"),
               "latency_tail_ms": ("task_p90_ms", 1.0, "ms")}

    def make_tasks(self, rng, small):
        end = 10 ** 4 if small else oracle.INTERVAL_END
        tasks = [("density", e, end) for e in range(2, 7)]
        # Three seeded bounds, each within 1% below a fixed share of the
        # interval, so the scan length barely depends on the seed.
        for e, share in ((4, 0.25), (5, 0.5), (6, 0.75)):
            tasks.append(("density", e,
                          int(end * share) - rng.randrange(end // 100)))
        tasks += [("runs", e, m_max, cap) for e, m_max, cap in oracle.RUN_SWEEPS
                  if not small or cap <= 10 ** 4]
        return tasks

    def setup(self):
        self.atlases = None
        self.fh = import_package()
        self.atlases = {e: self.fh.enumerate_attractors(e) for e in range(2, 7)}

    def run(self, task):
        fh = self.fh
        if task[0] == "density":
            _, e, upper = task
            report = fh.density(e, upper, self.atlases[e])
        else:
            _, e, m_max, cap = task
            report = fh.smallest_runs(e, 1, m_max, self.atlases[e],
                                      search_cap=cap)
        return report, fh.emit_report(report, "csv")

    def check(self, index, task, result):
        report, text = result
        if task[0] == "density":
            return check_density(task[1], task[2], report, text)
        _, e, m_max, cap = task
        starts = {r.m: r.start for r in report.records}
        rows = [(int(m), int(start)) for _, _, m, start in _csv_rows(text)]
        return (report.complete and report.search_cap == cap
                and starts == oracle.run_starts(e)
                and rows == sorted(starts.items()))

    def items(self, task, result):
        if task[0] == "density":
            return task[2]
        report = result[0]
        last = report.records[-1]
        return last.start + last.m - report.search_floor


def check_density(e: int, upper: int, report, text: str) -> bool:
    """Tally sums to upper, matches the reference at 10! - 1, and the CSV agrees."""
    counts = {att.text: c for att, c in report.counts.items() if c}
    if report.e != e or report.upper != upper:
        return False
    if min(report.counts.values()) < 0 or sum(report.counts.values()) != upper:
        return False
    if upper == oracle.INTERVAL_END and counts != oracle.DENSITY_COUNTS[e]:
        return False
    rows = {att: int(c) for _, att, c, num, den in _csv_rows(text)
            if num == c and int(den) == upper}
    return rows == counts


class Orbits(Workload):
    """Point queries on integers up to ~10^4 digits, plus run certificates."""

    name = "orbits"
    tail_pct = 99
    # Most of the time is C-level big-integer division. Of the weights
    # tried (0, 0.3, 0.5, 0.7, 1) over 70 passes, 0.5-0.7 gave the
    # steadiest normalized pass times: spread 0.03, against 0.05 for
    # either loop alone and 0.075 raw.
    bytecode_share = 0.6
    aliases = {"items_per_s": ("queries_per_s", 1.0, "1/s"),
               "latency_p50_ms": ("query_p50_us", 1e3, "us"),
               "latency_tail_ms": ("query_p99_us", 1e3, "us")}
    QUERIES = 2000
    # Shares of the stream, in twentieths. No record of real use exists;
    # assumed: classify, the paper's point query, is half the stream;
    # conversion round trips and add, the arithmetic around it, most of
    # the rest; certificates, the costliest queries, a tenth.
    MIX = (("classify", 10), ("roundtrip", 5), ("add", 3), ("cert", 2))
    LOG_DIGITS = (math.log10(3), 4.0)

    def make_tasks(self, rng, small):
        total = 100 if small else self.QUERIES
        tasks: list[tuple] = []
        for kind, share in self.MIX:
            count = total * share // 20
            if kind == "cert":
                combos = [(e, p, m) for (e, p) in sorted(oracle.NICE_OFFSETS)
                          for m in range(1, 21)]
                rng.shuffle(combos)
                tasks += [("cert",) + combos[k % len(combos)]
                          for k in range(count)]
                continue
            sizes = stratified_digits(rng, count, *self.LOG_DIGITS)
            for k, d in enumerate(sizes):
                n = random_with_digits(rng, d)
                if kind == "classify":
                    tasks.append(("classify", n, 2 + k % 5))
                elif kind == "roundtrip":
                    tasks.append(("roundtrip", n))
                else:
                    tasks.append(("add", n, rng.randrange(1, n + 1)))
        rng.shuffle(tasks)
        self.sample = set(rng.sample(range(len(tasks)), len(tasks) // 10))
        return tasks

    def setup(self):
        self.atlases = None
        self.fh = import_package()
        self.atlases = {e: self.fh.enumerate_attractors(e) for e in range(2, 7)}

    def run(self, task):
        fh = self.fh
        kind = task[0]
        if kind == "classify":
            return fh.classify(task[1], task[2], self.atlases[task[2]])
        if kind == "roundtrip":
            text = fh.format(fh.to_factoradic(task[1]))
            return text, fh.to_natural(fh.parse(text))
        if kind == "add":
            return fh.add(fh.to_factoradic(task[1]), task[2])
        _, e, p, m = task
        atlas = self.atlases[e]
        witness = fh.nice_check(e, p, oracle.NICE_OFFSETS[(e, p)], atlas)
        cert = fh.build_sequence(e, p, m, witness, atlas)
        steps = [fh.replay_run(cert, i) for i in range(1, m + 1)]
        if cert.chain.depth <= 1:
            fh.verify_concrete(cert)
        return witness, cert, steps

    def check(self, index, task, result):
        sampled = index in self.sample
        kind = task[0]
        if kind == "classify":
            _, n, e = task
            if result.start != n or result.e != e:
                return False
            return not sampled or oracle.orbit(n, e) == (
                result.steps_to_attractor, result.attractor.members)
        if kind == "roundtrip":
            text, back = result
            return back == task[1] and (
                not sampled or text == oracle.digits_text(task[1]))
        if kind == "add":
            return not sampled or oracle.value(result.digits) == task[1] + task[2]
        _, e, p, m = task
        witness, cert, steps = result
        if steps != [cert.steps_by_index[i] for i in range(1, m + 1)]:
            return False
        if not sampled:
            return True
        offset = oracle.NICE_OFFSETS[(e, p)]
        for u, q in witness.q_by_member.items():
            if oracle.first_passage(offset + u, e, p) != q:
                return False
        for i in range(1, m + 1):
            u = i
            for _ in range(cert.r):
                u = oracle.step(u, e)
            q = witness.q_by_member.get(u)
            if q is None or cert.steps_by_index[i] != cert.r + q:
                return False
        return True


class CliCalls(Workload):
    """Short scripted queries, each a fresh `python -m facthappy.cli`."""

    name = "cli"
    in_process = False
    aliases = {"items_per_s": ("calls_per_s", 1.0, "1/s"),
               "latency_p50_ms": ("call_p50_ms", 1.0, "ms"),
               "latency_tail_ms": ("call_p90_ms", 1.0, "ms")}

    def make_tasks(self, rng, small):
        pairs = sorted(oracle.NICE_OFFSETS)
        formats = ([], ["--format", "csv"], ["--format", "json"])
        calls = []
        for k in range(4):
            n = random_with_digits(rng, stratified_digits(rng, 1, 0, 2.5)[0])
            calls.append(["convert", str(n)] if k % 2 else
                         ["convert", "--digits", oracle.digits_text(n)])
        for k in range(5):
            n = random_with_digits(rng, stratified_digits(rng, 1, 0, 1.6)[0])
            calls.append(["orbit", str(n), "--e", str(2 + k)]
                         + (["--trace"] if k < 2 else []))
        calls += [["attractors", "--e", str(e)] for e in range(1, 7)]
        calls += [["attractors", "--e", str(e), "--format", "csv"] for e in (5, 6)]
        calls += [["bound", "--e", str(rng.randint(1, 6))] for _ in range(2)]
        for _ in range(4):
            e, p = rng.choice(pairs)
            calls.append(["nice", "--e", str(e), "--p", str(p),
                          "--l", str(oracle.NICE_OFFSETS[(e, p)])])
        for k in range(4):
            e, p = rng.choice(pairs)
            calls.append(["build", "--e", str(e), "--p", str(p),
                          "--m", str(rng.randint(1, 20))]
                         + (["--format", "json"] if k % 2 else []))
        for k, (e, m_max) in enumerate(((2, 11), (3, 41), (4, 100))):
            calls.append(["runs", "--e", str(e), "--max-m",
                          str(rng.randint(1, m_max)), "--cap", "10000"]
                         + list(formats[k]))
        for k, e in enumerate((4, 5, 6) * 3):
            calls.append(["density", "--e", str(e), "--upper",
                          str(rng.randint(1, 10 ** 4))] + list(formats[k // 3]))
        if small:
            calls = [c for c in calls if c[0] in ("convert", "orbit", "bound")]
        rng.shuffle(calls)
        return [tuple(c) for c in calls]

    def setup(self):
        self.fh = import_package(with_cli=True)
        self.env = child_env()

    def prepare(self, mark):
        """Expected stdout of every call, from cli.main in this process."""
        self.expected = []
        for i, argv in enumerate(self.tasks):
            mark(i)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = self.fh.cli.main(list(argv))
            self.expected.append((code, out.getvalue().encode()))

    def run(self, task):
        proc = subprocess.run(
            [sys.executable, "-m", "facthappy.cli", *task], cwd=ROOT,
            env=self.env, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, index, task, result):
        return result == self.expected[index] and result[0] == 0


def child_env() -> dict[str, str]:
    """The caller's environment, with PYTHONPATH=src and the thread knob unset."""
    env = {k: v for k, v in os.environ.items() if k != "FACTHAPPY_THREADS"}
    env["PYTHONPATH"] = "src"
    return env


WORKLOADS = {w.name: w for w in (Census, Orbits, CliCalls)}
