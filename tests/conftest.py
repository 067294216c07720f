from collections.abc import Iterator
from fractions import Fraction

import pytest

from facthappy import enumerate_attractors
from facthappy.analysis import DensityReport, RunRecord, RunSearch
from facthappy.dynamics import Attractor, happy_step_nat, step_image_bound
from facthappy.factoradic import digit_count, to_factoradic

_ATLASES = {}


def loop_digits(n):
    """Factoradic digits of n >= 0, one radix at a time: the definition.

    The division loop the package runs below its split threshold, kept
    here as the oracle for the split conversion at any size.
    """
    out = []
    radix = 2
    while n:
        n, r = divmod(n, radix)
        out.append(r)
        radix += 1
    return tuple(out)


def loop_step(n, e):
    """Step map by its definition: the e-th powers of the loop digits."""
    return sum(a ** e for a in loop_digits(n))


def loop_natural(digits):
    """Value of little-endian factoradic digits, one factorial at a time."""
    total = 0
    fact = 1
    for i, a in enumerate(digits, start=1):
        fact *= i
        total += a * fact
    return total


def loop_add(digits, y):
    """Digits of digits + y, y carried in from the 1! place one radix at a time."""
    out = list(digits)
    i = 0
    while y:
        if i == len(out):
            out.append(0)
        y, out[i] = divmod(out[i] + y, i + 2)
        i += 1
    return tuple(out)


def _step_images(e: int, lo: int, hi: int) -> Iterator[int]:
    """Yield step(n) for n in lo..hi via an incrementing factoradic counter.

    Bumping the counter touches O(1) digit positions amortized, so this
    is much cheaper than a division loop per value. Digits sit in a
    fixed-width list sized for hi; position idx holds the (idx+1)!-place
    digit, bounded by idx + 1. Nothing is yielded when hi < lo.
    """
    if hi < lo:
        return
    width = digit_count(hi) + 1
    digits = list(to_factoradic(lo).digits)
    digits += [0] * (width - len(digits))
    powers = [a ** e for a in range(width + 1)]
    inc = [0] + [powers[a] - powers[a - 1] for a in range(1, width + 1)]
    psum = sum(powers[a] for a in digits)
    yield psum
    for _ in range(lo, hi):
        idx = 0
        while True:
            d = digits[idx]
            if d <= idx:
                digits[idx] = d + 1
                psum += inc[d + 1]
                break
            digits[idx] = 0
            psum -= powers[d]
            idx += 1
        yield psum


@pytest.fixture(scope="session")
def atlas():
    """Factory for attractor atlases, cached across the whole session."""
    def get(e):
        if e not in _ATLASES:
            _ATLASES[e] = enumerate_attractors(e)
        return _ATLASES[e]
    return get


def scan_density(e, upper, atlas):
    """Reference tally for density: classify every n in [1, upper] in turn.

    Values the extended table covers are read directly; each value
    beyond it takes a single step, streamed by the factoradic counter,
    before its lookup. Time is linear in upper.
    """
    # Covering the one-step image bound is enough: larger values
    # resolve through one step into the table.
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


def walk_tally(e, lo, hi, atlas):
    """Per-value tally over [lo, hi], independent of the scan and the DP.

    Each n is walked with the division-loop step down to memo_bound,
    then its attractor index is read from the atlas.
    """
    totals = [0] * len(atlas.attractors)
    for n in range(lo, hi + 1):
        while n > atlas.memo_bound:
            n = happy_step_nat(n, e)
        totals[atlas.attractor_index(n)] += 1
    return totals


def sweep_runs(e, p, m_max, atlas, search_floor, search_cap):
    """Reference run search: one forward sweep over [search_floor, search_cap].

    The sweep reads a table extended to the cap and keeps the current
    run start; a miss resets it. Arguments are assumed valid.
    """
    target = atlas.attractors.index(Attractor.fixed_point(p))
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
