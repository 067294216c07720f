"""In-memory span recorder for traced runs.

A traced run replaces each public function of the package, in every
facthappy module that holds it, by a wrapper that records one span:
name, start and end (ns), parent span and query id. Spans live in flat
arrays while the run goes and are written out once at the end. The
package's own files are not touched; uninstall() puts the originals
back.

Span times are read from a clock that stops while the tracer works: the
wrapper's bookkeeping and the notes (work counts, some of them costly,
such as a big integer's factorial-base length) are kept out of every
span, parents included, so self times measure the package and not the
tracer. The cost of tracing shows in the harness's trace.overhead_s.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from array import array
from collections import Counter, defaultdict

# The public functions wrapped in a traced run, by module. The span name
# is "<module>.<function>"; the module is the layer.
PUBLIC = {
    "factoradic": ("to_factoradic", "to_natural", "format", "parse", "add",
                   "digit_count"),
    "dynamics": ("happy_step_nat", "happy_step", "classify",
                 "enumerate_attractors", "descent_bound"),
    "towers": ("nice_check", "build_sequence", "replay_run",
               "verify_concrete"),
    "analysis": ("density", "smallest_runs", "emit_report"),
    "cli": ("main",),
}
LAYERS = tuple(PUBLIC)


def factoradic_digits(n: int) -> int:
    """Digit count of n >= 0 in the factorial base: the k with k! <= n < (k+1)!."""
    if n < 1:
        return 0
    ln = math.log(n)
    lo, hi = 1, 2
    while math.lgamma(hi + 1) <= ln:
        hi *= 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if math.lgamma(mid + 1) <= ln:
            lo = mid
        else:
            hi = mid - 1
    k, f = lo, math.factorial(lo)
    while f > n:
        f //= k
        k -= 1
    while f * (k + 1) <= n:
        k += 1
        f *= k
    return k


def _note_runs(counts, args, kwargs, search):
    # The sweep visits floor..(end of the last resolved run); the table
    # behind it was extended to search_cap.
    last = search.records[-1] if search.records else None
    end = last.start + last.m - 1 if last else search.search_floor - 1
    swept = search.search_cap if not search.complete else end
    counts["analysis.values_scanned"] += swept - search.search_floor + 1
    counts["analysis.runs_useful"] += end
    counts["analysis.runs_extended"] += search.search_cap


# Work counts taken from arguments and results, after the span closes.
# Only spans of a query (id >= 0) count.
NOTES = {
    "factoradic.to_factoradic":
        lambda c, a, k, r: c.update({"factoradic.digits": len(r.digits)}),
    "factoradic.to_natural":
        lambda c, a, k, r: c.update({"factoradic.digits": len(a[0])}),
    "dynamics.happy_step_nat":
        lambda c, a, k, r: c.update({"dynamics.step_digits":
                                     factoradic_digits(a[0])}),
    "dynamics.classify":
        lambda c, a, k, r: c.update({"dynamics.orbit_steps":
                                     r.steps_to_attractor}),
    "dynamics.extended_index_table":
        lambda c, a, k, r: c.update({"dynamics.extend_entries":
                                     max(0, a[1] - a[0].memo_bound)}),
    "towers.replay_run":
        lambda c, a, k, r: c.update({"towers.replay_steps": r}),
    "analysis.density":
        lambda c, a, k, r: c.update({"analysis.density_values": r.upper}),
    "analysis.smallest_runs": _note_runs,
}


class Tracer:
    """Span arrays plus the counters the notes fill."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.query = array("q")
        self.counts: Counter = Counter()
        self.current_query = -1
        self._paused = array("q", [0])  # ns the span clock has been stopped
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        note = NOTES.get(name)
        stack = self._stack
        clock = time.perf_counter_ns
        name_col, start_col, end_col = self.name_id, self.start, self.end
        parent_col, query_col = self.parent, self.query
        paused = self._paused

        def traced(*args, **kwargs):
            entered = clock()
            idx = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1] if stack else -1)
            query_col.append(self.current_query)
            end_col.append(0)
            stack.append(idx)
            started = clock()
            paused[0] += started - entered
            start_col.append(started - paused[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                end_col[idx] = ended - paused[0]
                stack.pop()
                paused[0] += clock() - ended
            if note is not None and self.current_query >= 0:
                noted = clock()
                note(self.counts, args, kwargs, result)
                paused[0] += clock() - noted
            return result

        return traced

    def install(self) -> None:
        """Wrap every PUBLIC function wherever a facthappy module holds it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "facthappy" or k.startswith("facthappy.")]
        for layer, attrs in PUBLIC.items():
            home = sys.modules.get(f"facthappy.{layer}")
            if home is None:  # never imported, so never called
                continue
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = self.wrap(f"{layer}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
        atlas_cls = sys.modules["facthappy.dynamics"].AttractorAtlas
        original = atlas_cls.extended_index_table
        self._undo.append((atlas_cls, "extended_index_table", original))
        atlas_cls.extended_index_table = self.wrap(
            "dynamics.extended_index_table", original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __len__(self) -> int:
        return len(self.name_id)

    def summary(self, queries=lambda q: q >= 0) -> dict:
        """Per-name totals and per-layer self time over spans of selected queries.

        A span's self time is its duration minus that of its direct
        children, which nest inside it.
        """
        n = len(self)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        durations: dict[str, list[int]] = defaultdict(list)
        for i in range(n):
            if not queries(self.query[i]):
                continue
            name = self.names[self.name_id[i]]
            calls[name] += 1
            total_ns[name] += dur[i]
            self_ns[name.split(".", 1)[0]] += dur[i] - child[i]
            durations[name].append(dur[i])
        return {"calls": calls, "total_ns": total_ns, "self_ns": self_ns,
                "durations": durations}

    def write(self, path) -> None:
        """One JSON header line with the span names, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names,
                                  "fields": ["name", "start_ns", "end_ns",
                                             "parent", "query"],
                                  "clock": "perf_counter_ns, tracer time "
                                           "taken out"}) + "\n")
            for i in range(len(self)):
                out.write(f"[{self.name_id[i]},{self.start[i]},{self.end[i]},"
                          f"{self.parent[i]},{self.query[i]}]\n")
