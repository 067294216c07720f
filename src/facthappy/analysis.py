"""Interval tallies: smallest consecutive runs and attractor densities.

A run search finds runs of the target's byte in the atlas's
attractor-index table by C-level bytes.find. A density tally never
visits the values themselves: the step-sum digit DP of dynamics counts
them by step value, and the atlas classifies them, dense ones by that
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from math import comb
from typing import TYPE_CHECKING

from .dynamics import (
    _LOW, Attractor, AttractorAtlas, _check_exponent, _packed_tally, classify,
    happy_step_nat)
from .factoradic import _need_ints, digit_count

if TYPE_CHECKING:
    from fractions import Fraction

# Largest search_cap smallest_runs accepts: a search that needs a value
# past 7! grows its table to the cap, one byte per value, at most 1 MB.
DEFAULT_SEARCH_CAP = 10 ** 6
# density packs when memo_bound < top and top + 1 <= this * Catalan(k + 1),
# the form whose whole call was faster on a fresh atlas (cold) at (k+1)! - 1.
# Up to memo_bound every table entry is an atlas dict read. Packed over dict
# time, cold / warm (a later call on the same atlas), where the form differs
# from the ratio-4 rule alone: e = 5, k = 9 (ratio 7.19) packs, 0.76 / 0.55;
# the dict serves upper = 1 at e = 1..8, 1.22-1.53 / 1.08-1.18, e = 1, k = 2,
# 1.27 / 1.06, e = 2, k = 2 and 3, 1.30 / 1.08 and 1.08 / 0.88, e = 3,
# k = 2, 3 and 4, 1.34 / 1.10, 1.28 / 1.00 and 1.05 / 0.78, and e = 4, k = 2,
# 1.48 / 1.12 (11-36 us a call). e = 6, k = 12 (9.07) took 0.78-0.88 cold,
# but 1.04 as the first call of a fresh process.
_DENSE_RATIO = 8


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
    """Least start of each run length 1..m_max, by byte searches.

    The default floor of 2 matches the usual convention of starting the
    search above the trivial fixed point 1; pass 1 for the full search.
    With best the longest run found, the least start of a longer one is
    the first match of best + 1 target bytes in the atlas's index table
    (bytes.find); its length is the count of target bytes it leads.
    The table is asked for [1, min(cap, 7!)] or the longer one the atlas
    keeps, and grows once, to the cap, when the search needs a value
    past its end.
    A non-int exponent, a search_cap over DEFAULT_SEARCH_CAP or below
    search_floor raises ValueError before the table is built. Unresolved
    lengths are reported by a RunSearch with complete=False rather than
    an error.
    """
    _check_exponent(e)
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
    hit = bytes([atlas.fixed_points.index(p)])  # they lead atlas.attractors
    table = atlas.extended_index_table(min(search_cap, _LOW))
    records: list[RunRecord] = []
    best, n = 0, search_floor  # no run below n is longer than best
    while best < m_max:
        start = table.find(hit * (best + 1), n, search_cap + 1)
        if start < 0 and len(table) > search_cap:
            break
        last = min(search_cap, start + m_max - 1)
        w = table[start:last + 1]  # read only when start >= 0
        length = len(w) - len(w.lstrip(hit))
        if start < 0 or start + length == len(table) <= last:
            table = atlas.extended_index_table(search_cap)  # past its end
            continue
        records += [RunRecord(e, p, m, start)
                    for m in range(best + 1, length + 1)]
        best, n = length, start + length + 1  # a miss, or past last
    return RunSearch(e=e, p=p, search_floor=search_floor,
                     search_cap=search_cap, records=tuple(records),
                     complete=best >= m_max)


def density(e: int, upper: int, atlas: AttractorAtlas) -> DensityReport:
    """Tally every n in [1, upper] by attractor, exactly, without a scan.

    The n are counted by step value. Dense step sums (top, the largest
    sum of upper's k digits, above atlas.memo_bound, and top + 1 <=
    _DENSE_RATIO * Catalan(k + 1)): one pass over the nonzero slots among
    _packed_tally's slots 1..top, each beside its entry of
    atlas.extended_index_table(top). Otherwise atlas.totals over the
    keys of atlas.step_sum_tally, which starts from the free tallies the
    atlas kept. Either tally raises ValueError before any work when it
    could exceed DENSITY_WORK_LIMIT dictionary updates.
    """
    _need_ints(upper=upper)
    if upper < 1:
        raise ValueError(f"interval end must be positive, got {upper}")
    if atlas.e != e:
        raise ValueError(f"atlas is for exponent {atlas.e}, not {e}")
    _check_exponent(e)  # 2.0 passes the atlas check; the dict tally reads atlas.e
    k = digit_count(upper)
    top = sum(i ** e for i in range(1, k + 1))
    if top <= atlas.memo_bound or \
            top + 1 > _DENSE_RATIO * comb(2 * k + 2, k + 1) // (k + 2):
        tally = atlas.step_sum_tally(upper)
        del tally[0]  # n = 0
        totals = atlas.totals(tally)
    else:
        slots = _packed_tally(e, upper)[1:]  # slot 0 is n = 0
        table = atlas.extended_index_table(top)  # after the DP's peak memory
        totals = [0] * len(atlas.attractors)
        for a, c in compress(zip(islice(table, 1, None), slots), slots):
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
