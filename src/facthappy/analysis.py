"""Interval tallies: smallest consecutive runs and attractor densities.

A run sweep reads an attractor-index table that covers every one-step
image of the swept interval. A density tally never visits the values
themselves: below any prefix of a factoradic expansion the lower digits
range freely and independently, so the step value adds up position by
position, and the tally over [1, upper] is a sum over the prefixes of
upper of shifted per-position distributions. Each distinct step value
is then classified once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import Attractor, AttractorAtlas, classify, happy_step_nat
from .factoradic import to_factoradic

DEFAULT_SEARCH_CAP = 10 ** 6

# Refuse a density call whose dictionary work could exceed this many
# updates. It admits e = 5 up to 14! - 1 and e >= 6 up to 13! - 1; the
# largest accepted calls take seconds and a few hundred MB at most.
DENSITY_WORK_LIMIT = 15 * 10 ** 6


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


def _fixed_point_index(atlas: AttractorAtlas, p: int) -> int:
    target = Attractor.fixed_point(p)
    for idx, att in enumerate(atlas.attractors):
        if att == target:
            return idx
    raise ValueError(f"{p} is not a fixed point for e={atlas.e}")


def is_p_happy(n: int, e: int, p: int, atlas: AttractorAtlas | None = None) -> bool:
    """Does the orbit of n settle on the fixed point p?"""
    if atlas is not None:
        _fixed_point_index(atlas, p)
    elif happy_step_nat(p, e) != p:
        raise ValueError(f"{p} is not a fixed point for e={e}")
    return classify(n, e, atlas).attractor == Attractor.fixed_point(p)


def smallest_runs(e: int, p: int, m_max: int, atlas: AttractorAtlas, *,
                  search_floor: int = 2,
                  search_cap: int = DEFAULT_SEARCH_CAP) -> RunSearch:
    """Least start of each run length 1..m_max, by one memoized forward sweep.

    The default floor of 2 matches the usual convention of starting the
    search above the trivial fixed point 1; pass 1 for the full search.
    The sweep keeps the current run start; a miss resets it. Memory is
    one table entry per integer up to the cap, and a search_cap over
    1,000,000 raises ValueError before the table is built. Unresolved
    lengths are reported by a RunSearch with complete=False rather
    than an error.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    if search_floor not in (1, 2):
        raise ValueError(f"search_floor must be 1 or 2, got {search_floor}")
    if atlas.e != e:
        raise ValueError(f"atlas is for exponent {atlas.e}, not {e}")
    target = _fixed_point_index(atlas, p)
    table = atlas.extended_index_table(search_cap)
    starts: dict[int, int] = {}
    run_start = None
    next_m = 1
    for n in range(search_floor, search_cap + 1):
        if table[n] == target:
            if run_start is None:
                run_start = n
            length = n - run_start + 1
            while next_m <= length and next_m <= m_max:
                starts[next_m] = run_start
                next_m += 1
            if next_m > m_max:
                break
        else:
            run_start = None
    records = tuple(RunRecord(e=e, p=p, m=m, start=starts[m])
                    for m in sorted(starts))
    return RunSearch(e=e, p=p, search_floor=search_floor,
                     search_cap=search_cap, records=records,
                     complete=next_m > m_max)


def _density_work(e: int, width: int) -> int:
    """Bound on the dictionary updates of a tally over width positions.

    The sums over i - 1 free positions number at most one more than
    their largest value and at most Catalan(i), the count of digit
    multisets those positions admit; position i touches each of them
    at most i + 2 times (i + 1 shifts of low, one of tally). Stops
    early once over DENSITY_WORK_LIMIT.
    """
    work = 0
    top = 0
    catalan = 1
    for i in range(1, width + 1):
        work += (i + 2) * min(top + 1, catalan)
        if work > DENSITY_WORK_LIMIT:
            break
        top += i ** e
        catalan = catalan * 2 * (2 * i + 1) // (i + 2)
    return work


def _shift_into(dst: dict[int, int], src: dict[int, int], by: int) -> None:
    get = dst.get
    for s, c in src.items():
        dst[s + by] = get(s + by, 0) + c


def density(e: int, upper: int, atlas: AttractorAtlas) -> DensityReport:
    """Tally every n in [1, upper] by attractor, exactly, without a scan.

    A digit DP over the factoradic digits of upper. low maps each step
    sum of the positions below i, all digits free, to how many digit
    strings give it; tally does the same for the n in [0, upper mod i!].
    Position i, where upper has digit d, extends both: an n whose digit
    there is some a < d has a free lower part, one whose digit is d
    continues the old tally. Each distinct sum is then classified once
    by the atlas.

    Cost follows the number of distinct step sums, not upper: a few
    dictionary updates per sum and position, milliseconds at 10! - 1.
    A call whose bound from _density_work exceeds DENSITY_WORK_LIMIT
    is refused with ValueError before any work.
    """
    if upper < 1:
        raise ValueError(f"interval end must be positive, got {upper}")
    if atlas.e != e:
        raise ValueError(f"atlas is for exponent {atlas.e}, not {e}")
    digits = to_factoradic(upper).digits
    if _density_work(e, len(digits)) > DENSITY_WORK_LIMIT:
        raise ValueError(
            f"density for upper={upper} at e={e} is too large: tallying "
            f"its step sums may take over {DENSITY_WORK_LIMIT} dictionary "
            f"updates")
    low = {0: 1}
    tally = {0: 1}
    for i, d in enumerate(digits, start=1):
        powers = [a ** e for a in range(i + 1)]
        grown: dict[int, int] = {}
        for a in range(d):
            _shift_into(grown, low, powers[a])
        below = dict(grown)
        _shift_into(below, tally, powers[d])
        tally = below
        if i < len(digits):
            for a in range(d, i + 1):
                _shift_into(grown, low, powers[a])
            low = grown
    tally[0] -= 1  # n = 0
    totals = [0] * len(atlas.attractors)
    for s, c in tally.items():
        if c:
            totals[atlas.attractor_index(s)] += c
    counts = {att: totals[idx] for idx, att in enumerate(atlas.attractors)}
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
        return json.dumps(obj)
    if isinstance(report, RunSearch):
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
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(report).__name__}")
