"""Interval tallies: smallest consecutive runs and attractor densities.

A run search reads an attractor-index table that covers every one-step
image of the searched interval. A density tally never visits the values
themselves: the step-sum digit DP of dynamics counts them by step
value, and the atlas classifies them, dense ones by such a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import TYPE_CHECKING

from .dynamics import (
    _LOW, Attractor, AttractorAtlas, _high_sum, _low_sums, _packed_tally,
    classify, happy_step_nat, step_image_bound, step_sum_tally)
from .factoradic import _need_ints, digit_count

if TYPE_CHECKING:
    from fractions import Fraction

# Largest search_cap smallest_runs accepts: its table holds one entry
# per value up to the cap or, if smaller, the cap's step image bound.
DEFAULT_SEARCH_CAP = 10 ** 6
# density packs when top + 1 <= this * Catalan(k + 1). At k! - 1 the
# whole packed call, tally and classification, took 0.5-0.67 of the dict
# path's time at ratios 3.27-3.76, and 1.07-1.3 of it at 5.31 and 7.19.
_DENSE_RATIO = 4


@dataclass(frozen=True)
class RunRecord:
    """Least start of m consecutive integers that all iterate to p."""

    e: int
    p: int
    m: int
    start: int


@dataclass(frozen=True)
class RunSearch:
    """Sweep outcome; complete is False when the cap cut the search short."""

    e: int
    p: int
    search_floor: int
    search_cap: int
    records: tuple[RunRecord, ...]
    complete: bool


@dataclass(frozen=True)
class DensityReport:
    """Exact attractor tallies over [1, upper].

    counts covers every attractor of the exponent in canonical order,
    zero entries included; proportions are exact rationals count/upper.
    """

    e: int
    upper: int
    counts: dict[Attractor, int]
    proportions: dict[Attractor, Fraction]


def is_p_happy(n: int, e: int, p: int, atlas: AttractorAtlas | None = None) -> bool:
    """Does the orbit of n settle on the fixed point p?"""
    _need_ints(p=p)
    if p < 1:
        raise ValueError(f"fixed point must be a positive integer, got {p}")
    if happy_step_nat(p, e) != p:
        raise ValueError(f"{p} is not a fixed point for e={e}")
    return classify(n, e, atlas).attractor.members == (p,)


def smallest_runs(e: int, p: int, m_max: int, atlas: AttractorAtlas, *,
                  search_floor: int = 2,
                  search_cap: int = DEFAULT_SEARCH_CAP) -> RunSearch:
    """Least start of each run length 1..m_max, by stride probes.

    The default floor of 2 matches the usual convention of starting the
    search above the trivial fixed point 1; pass 1 for the full search.
    With best the longest run found, every longer run from n on holds
    one of n + best, n + 2 * best + 1, ...; a hit is widened to its run.
    Entries 1..top of the atlas's index table are read, top =
    min(cap, step_image_bound(e, cap)); a larger n is read through its
    step, its 7!-block's high sum plus a low-digit sum.
    A search_cap over DEFAULT_SEARCH_CAP or below search_floor raises
    ValueError before the table is built. Unresolved lengths are
    reported by a RunSearch with complete=False rather than an error.
    """
    _need_ints(p=p, m_max=m_max, search_floor=search_floor,
               search_cap=search_cap)
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    if search_floor not in (1, 2):
        raise ValueError(f"search_floor must be 1 or 2, got {search_floor}")
    if atlas.e != e:
        raise ValueError(f"atlas is for exponent {atlas.e}, not {e}")
    if search_cap > DEFAULT_SEARCH_CAP:
        raise ValueError(f"search cap {search_cap} is over the limit of "
                         f"{DEFAULT_SEARCH_CAP:,}")
    if search_cap < search_floor:
        raise ValueError(f"search cap {search_cap} is below the search "
                         f"floor {search_floor}")
    if p not in atlas.fixed_points:
        raise ValueError(f"{p} is not a fixed point for e={atlas.e}")
    target = atlas.fixed_points.index(p)  # fixed points lead atlas.attractors
    top = min(search_cap, step_image_bound(e, search_cap))
    table = atlas.extended_index_table(top)
    low = _low_sums(e)
    high = [_high_sum(q, e) for q in range(search_cap // _LOW + 1)]

    def hit(n: int) -> bool:  # n and its step share their attractor
        v = n if n <= top else high[n // _LOW] + low[n % _LOW]
        return table[v] == target

    starts: dict[int, int] = {}
    best, n = 0, search_floor  # no run below n is longer than best
    while best < m_max:
        q, stride = n + best, best + 1
        while q <= top and table[q] != target:
            q += stride
        while top < q <= search_cap:  # read through the step, block by block
            base, r = q - q % _LOW, q % _LOW
            h, stop = high[base // _LOW], min(_LOW, search_cap + 1 - base)
            while r < stop and table[h + low[r]] != target:
                r += stride
            q = base + r
            if r < stop:
                break
        if q > search_cap:
            break
        start = end = q
        while start > n and hit(start - 1):
            start -= 1
        last = min(search_cap, start + m_max - 1)
        while end < last and hit(end + 1):
            end += 1
        for m in range(best + 1, end - start + 2):
            starts[m] = start
        best = max(best, end - start + 1)
        n = end + 2  # end + 1 is a miss
    records = tuple(RunRecord(e=e, p=p, m=m, start=starts[m])
                    for m in sorted(starts))
    return RunSearch(e=e, p=p, search_floor=search_floor,
                     search_cap=search_cap, records=records,
                     complete=best >= m_max)


def density(e: int, upper: int, atlas: AttractorAtlas) -> DensityReport:
    """Tally every n in [1, upper] by attractor, exactly, without a scan.

    The n are counted by step value. Dense step sums (top + 1 <=
    _DENSE_RATIO * Catalan(k + 1), top the largest sum of k digits, k
    upper's digit count): one pass over _packed_tally's slots 1..top and
    the same entries of atlas.extended_index_table(top). Sparse:
    atlas.totals over the keys of step_sum_tally. Either tally raises
    ValueError before any work when it could exceed DENSITY_WORK_LIMIT
    dictionary updates.
    """
    _need_ints(upper=upper)
    if upper < 1:
        raise ValueError(f"interval end must be positive, got {upper}")
    if atlas.e != e:
        raise ValueError(f"atlas is for exponent {atlas.e}, not {e}")
    k = digit_count(upper)
    top = sum(i ** e for i in range(1, k + 1))
    if top + 1 > _DENSE_RATIO * comb(2 * k + 2, k + 1) // (k + 2):
        tally = step_sum_tally(e, upper)
        del tally[0]  # n = 0
        totals = atlas.totals(tally)
    else:
        slots = _packed_tally(e, upper)[1:]  # slot 0 is n = 0
        table = atlas.extended_index_table(top)  # after the DP's peak memory
        totals = [0] * len(atlas.attractors)
        for a, c in zip(islice(table, 1, None), slots):
            totals[a] += c
    from fractions import Fraction
    counts = dict(zip(atlas.attractors, totals))
    proportions = {att: Fraction(c, upper) for att, c in counts.items()}
    return DensityReport(e=e, upper=upper, counts=counts,
                         proportions=proportions)


def emit_report(report: DensityReport | RunSearch, format: str = "csv") -> str:
    """Deterministic CSV or JSON text for a density report or run search.

    Density rows carry the defining rational count/upper unreduced;
    zero-count attractors are omitted. All numbers are full decimal.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    if isinstance(report, DensityReport):
        rows = [(att.text, c) for att, c in report.counts.items() if c > 0]
        if format == "csv":
            lines = ["e,attractor,count,proportion_num,proportion_den"]
            lines += [f"{report.e},{text},{c},{c},{report.upper}"
                      for text, c in rows]
            return "\n".join(lines) + "\n"
        obj = {
            "e": report.e,
            "upper": report.upper,
            "rows": [{"attractor": text, "count": c,
                      "proportion_num": c, "proportion_den": report.upper}
                     for text, c in rows],
        }
    elif isinstance(report, RunSearch):
        if format == "csv":
            lines = ["e,p,m,start"]
            lines += [f"{r.e},{r.p},{r.m},{r.start}" for r in report.records]
            return "\n".join(lines) + "\n"
        obj = {
            "e": report.e,
            "p": report.p,
            "floor": report.search_floor,
            "cap": report.search_cap,
            "complete": report.complete,
            "rows": [{"m": r.m, "start": r.start} for r in report.records],
        }
    else:
        raise TypeError(f"cannot serialize {type(report).__name__}")
    import json
    return json.dumps(obj)
