"""Interval scans: smallest consecutive runs and attractor densities.

Both scans lean on the same memoization: an attractor-index table that
covers every one-step image of the interval, so classifying a value is
a table read, or one step plus a table read. A density scan is one
serial pass: it reads the covered prefix of the interval straight from
the table, then streams the step images of the rest through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import (
    Attractor,
    AttractorAtlas,
    classify,
    happy_step_nat,
    step_image_bound,
    _step_images,
)

DEFAULT_SEARCH_CAP = 10 ** 6


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
    one table entry per integer up to the cap, so keep search_cap in
    the millions at most. Unresolved lengths are reported by a
    RunSearch with complete=False rather than an error.
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


def density(e: int, upper: int, atlas: AttractorAtlas) -> DensityReport:
    """Classify every n in [1, upper] and tally by attractor, exactly.

    One serial pass: values the table covers are read directly, and
    each value beyond it takes a single step, streamed by the factoradic
    counter, before its lookup. Memory is the table, not the interval.
    """
    if upper < 1:
        raise ValueError(f"interval end must be positive, got {upper}")
    if atlas.e != e:
        raise ValueError(f"atlas is for exponent {atlas.e}, not {e}")
    # Coverage up to the interval end makes every lookup direct; when
    # the interval outgrows the one-step image bound, covering that
    # bound is enough because larger values resolve through one step.
    table = atlas.extended_index_table(min(upper, step_image_bound(e, upper)))
    totals = [0] * len(atlas.attractors)
    covered = min(upper, len(table) - 1)
    for n in range(1, covered + 1):
        totals[table[n]] += 1
    for s in _step_images(e, covered + 1, upper):
        totals[table[s]] += 1
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
