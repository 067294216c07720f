import decimal
from collections.abc import Iterator
from fractions import Fraction
from types import SimpleNamespace

import pytest

from facthappy import analysis, enumerate_attractors
from facthappy.analysis import DensityReport, RunRecord, RunSearch
from facthappy.dynamics import (
    Attractor, descent_bound, happy_step_nat, step_image_bound)
from facthappy.factoradic import digit_count, to_factoradic

_ATLASES = {}
_TABLES = {}  # exponent -> index_table's list, grown on demand


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


def is_factoradic(digits):
    """Does a little-endian digit tuple meet the definition?

    0 <= a_i <= i at every position i and a nonzero top digit a_k, each
    a_i an int. The oracle for the strings the package builds without
    FactoradicRep's own check; it shares no code with that check.
    """
    return (type(digits) is tuple
            and all(type(a) is int and 0 <= a <= i
                    for i, a in zip(range(1, len(digits) + 1), digits))
            and (not digits or digits[-1] != 0))


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


def robbins_log10(w):
    """Decimal bounds (lower, upper) on log10(w!), for w >= 1.

    Robbins (Amer. Math. Monthly 62, 1955): w! lies strictly between
    sqrt(2 pi w) (w/e)^w times exp(1/(12w + 1)) and times exp(1/(12w)).
    The digits carried put the rounding error far below the 10^-20
    each bound is widened by.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = len(str(w)) + 40
        w = decimal.Decimal(w)
        two_pi = decimal.Decimal("6.28318530717958647692528676655900576839")
        log10_e = decimal.Decimal(1).exp().log10()
        stirling = (two_pi * w).log10() / 2 + w * (w.log10() - log10_e)
        margin = decimal.Decimal(10) ** -20
        return (stirling + log10_e / (12 * w + 1) - margin,
                stirling + log10_e / (12 * w) + margin)


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


def index_table(atlas, upper):
    """Attractor index of every n in [1, upper] by definition; entry 0 is -1.

    The atlas resolves each n up to memo_bound; a larger n takes the
    entry of S(n), streamed by the factoradic counter, and S(n) < n
    there. So the oracles below do not read extended_index_table, the
    table density and smallest_runs read. One list per exponent is kept
    for the session and grown on demand; it may run past upper.
    """
    table = _TABLES.setdefault(atlas.e, [-1])
    table += [atlas.attractor_index(n)
              for n in range(len(table), min(upper, atlas.memo_bound) + 1)]
    for s in _step_images(atlas.e, len(table), upper):
        table.append(table[s])
    return table


def scan_density(e, upper, atlas):
    """Reference tally for density: classify every n in [1, upper] in turn.

    Values index_table covers are read directly; each value beyond it
    takes a single step, streamed by the factoradic counter, before its
    lookup. Time is linear in upper.
    """
    # Covering the one-step image bound is enough: larger values
    # resolve through one step into the table.
    covered = min(upper, step_image_bound(e, upper))
    table = index_table(atlas, covered)
    totals = [0] * len(atlas.attractors)
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

    The sweep reads index_table up to the cap and keeps the current run
    start; a miss resets it. Arguments are assumed valid.
    """
    target = atlas.attractors.index(Attractor.fixed_point(p))
    table = index_table(atlas, search_cap)
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


# The tally and the classification each path of analysis.density runs.
_PATHS = {"packed": ["packed", "table"], "dict": ["dict", "totals"]}


def _density_path(monkeypatch, e, upper):
    """Which path analysis.density takes for (e, upper), without its work."""
    calls = []
    monkeypatch.setattr(analysis, "_packed_tally",
                        lambda *args: calls.append("packed") or [1])
    stub = SimpleNamespace(
        e=e, attractors=(),
        memo_bound=step_image_bound(e, descent_bound(e).bound),
        step_sum_tally=lambda upper: calls.append("dict") or {0: 1},
        extended_index_table=lambda top: calls.append("table") or bytes(1),
        totals=lambda tally: calls.append("totals") or [])
    assert analysis.density(e, upper, stub).counts == {}
    return next((path for path, run in _PATHS.items() if run == calls), calls)
