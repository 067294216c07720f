"""Digit-power dynamics on the factorial number system.

The map under study sends n to the sum of the e-th powers of its
factoradic digits (0 maps to 0). This module provides the map itself,
orbit classification with exact step counts, a certified bound above
which the map strictly decreases, a digit DP tallying step values, and
the atlas of fixed points and cycles found on the step images below it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import islice, repeat
from math import factorial
from operator import itemgetter
from threading import Lock

from .factoradic import (
    ComputationError, FactoradicRep, _need_ints, _split_digits, digit_count)

DEFAULT_ORBIT_CAP = 10_000
# Most dictionary updates a step-sum tally may need, packed or not: it admits
# density at e = 5 to 14! - 1 and e >= 6 to 13! - 1, and the atlas for e <= 8.
DENSITY_WORK_LIMIT = 15 * 10 ** 6
_LOW = 5040  # 7!: _step_tables tabulates step sums of the six lowest digits
# Exponents whose tables _step_tables keeps. By tracemalloc an entry takes
# 44, 183 and 467 KiB at e = 2, 5 and 200 as built, and its powers add at
# most 156, 171 and 1,248 KiB up to _POWERS_TOP: at most 16 x 1.7 MiB.
_LOW_SUMS_KEPT = 16
# happy_step_nat steps an n of up to this many bits by _high_sum and the
# low-sum table: 0.93-1.00 of the split digit sum's time at 672 bits,
# 0.94-1.03 at 704, 1.08-1.19 at 832 and 1.26-1.36 at 1,088 (e = 2, 5).
_TABLE_BITS = 672
_TABLE_DIGITS = 121  # digits of 2^_TABLE_BITS - 1, the kept powers' first reach
# Largest digit whose power is kept, as for digit texts: the CLI's largest
# digit is 1,558 and 10^(10^4)'s 3,248.
_POWERS_TOP = 4096
_LOCK = Lock()  # one builder or grower of the step tables at a time
# Largest exponent any step, bound or orbit accepts: at e = 200 the step
# tables hold 467 KiB (1.7 MiB with every digit power) and a default cap
# orbit of 2021 gives up after 3-5 s, and both grow with e.
EXPONENT_LIMIT = 200


class CertificationError(ComputationError):
    """The exact-integer descent certificate failed for this exponent."""


class OrbitCapError(ComputationError):
    """An orbit walk exceeded its safety cap before reaching an attractor."""


class WitnessError(ComputationError):
    """An offset failed to steer every attractor member into the target."""


class ReplayError(ComputationError):
    """Symbolic replay of a certificate broke an exact side condition."""


class SizeCapError(ComputationError):
    """Materializing a chain would exceed the allowed digit count."""


def happy_step(d: FactoradicRep, e: int) -> int:
    """Sum of e-th powers of the digits of d; the empty digit string gives 0."""
    _check_exponent(e)
    return _power_sum(d.digits, e)


def happy_step_nat(n: int, e: int) -> int:
    """One step of the digit-power map applied to a nonnegative integer.

    An n over _TABLE_BITS bits takes its digits from the split conversion;
    a smaller one, _high_sum(n // 7!) plus its cached low-sum table entry.
    Both read each digit's power from the kept list of _step_tables.
    """
    _check_exponent(e)
    if type(n) is not int or n < 0:  # a bool or a float is refused too
        raise ValueError(f"expected a nonnegative integer, got {n!r}")
    if n.bit_length() > _TABLE_BITS:
        return _power_sum(_split_digits(n), e)
    powers, low = _step_tables(e)
    q, r = divmod(n, _LOW)
    return _high_sum(q, powers) + low[r]


def iterate(n: int, e: int, count: int) -> int:
    """count-fold composition of the step map; count = 0 returns n unchanged."""
    _need_ints(n=n, count=count)
    if count < 0:
        raise ValueError(f"iteration count must be nonnegative, got {count}")
    _check_exponent(e)
    for _ in range(count):
        n = happy_step_nat(n, e)
    return n


def _check_exponent(e: int) -> None:
    if type(e) is not int or e < 1:
        raise ValueError(f"exponent must be a positive integer, got {e}")
    if e > EXPONENT_LIMIT:
        raise ValueError(
            f"exponent {e} is above the limit of {EXPONENT_LIMIT}")


@dataclass(frozen=True)
class Attractor:
    """A fixed point or cycle, stored as the member tuple in orbit order.

    Canonical form: the tuple starts at the smallest member and follows
    the map, so consecutive entries map to each other and the last maps
    back to the first. A single member is a fixed point.
    """

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("attractor needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"repeated members in {self.members}")
        if self.members[0] != min(self.members):
            raise ValueError(f"not in canonical rotation: {self.members}")

    @classmethod
    def fixed_point(cls, p: int) -> "Attractor":
        return cls((p,))

    @classmethod
    def cycle(cls, members: tuple[int, ...]) -> "Attractor":
        """Canonicalize a cycle given in orbit order from any entry point."""
        k = members.index(min(members))
        return cls(members[k:] + members[:k])

    @property
    def is_fixed_point(self) -> bool:
        return len(self.members) == 1

    @property
    def kind(self) -> str:
        return "fixed_point" if self.is_fixed_point else "cycle"

    @property
    def text(self) -> str:
        """Compact label: "5" for a fixed point, "(2114;3401)" for a cycle."""
        if self.is_fixed_point:
            return str(self.members[0])
        return "(" + ";".join(str(m) for m in self.members) + ")"


@dataclass(frozen=True)
class OrbitReport:
    start: int
    e: int
    steps_to_attractor: int
    attractor: Attractor
    trajectory: tuple[int, ...] | None = None


@dataclass(frozen=True)
class DescentBound:
    """Certified threshold above which one step strictly decreases.

    j is the least integer with j! > j^(e-1); the bound equals
    sum(i * i! for i <= j) = (j+1)! - 1. tail_offset is the exact
    worst-case contribution of the digit positions 2..j-1, i.e.
    sum over those positions of min(a * i! - a^e for 0 <= a <= i).
    a * i! - a^e is concave in a, so each minimum is min(0, i * i! - i^e).

    certificate_ok records three exact integer checks:
      base_case       j! > j^(e-1)
      induction_step  (j+1)^(e-1) <= j^(e-1) * (j+1), which propagates
                      the base case to every k >= j because
                      (1 + 1/k)^(e-1) decreases in k
      dominance       (j+1)! - (j+1)^(e-1) + tail_offset > 0, which
                      forces n - step(n) > 0 for every n above the bound
    """

    e: int
    j: int
    bound: int
    tail_offset: int
    certificate_ok: bool
    failed_checks: tuple[str, ...] = ()


def smallest_j(e: int) -> int:
    """Least j >= 1 with j! > j^(e-1), by ascending exact search.

    Exponents above EXPONENT_LIMIT raise ValueError.
    """
    _check_exponent(e)
    j = 1
    fact = 1
    while True:
        fact *= j
        if fact > j ** (e - 1):
            return j
        j += 1


def descent_bound(e: int) -> DescentBound:
    """Compute the descent threshold for e and run its certificate checks."""
    j = smallest_j(e)
    bound = factorial(j + 1) - 1
    tail = sum(min(0, i * factorial(i) - i ** e) for i in range(2, j))
    failed = []
    if not factorial(j) > j ** (e - 1):
        failed.append("base_case")
    if not (j + 1) ** (e - 1) <= j ** (e - 1) * (j + 1):
        failed.append("induction_step")
    if not factorial(j + 1) - (j + 1) ** (e - 1) + tail > 0:
        failed.append("dominance")
    return DescentBound(
        e=e, j=j, bound=bound, tail_offset=tail,
        certificate_ok=not failed, failed_checks=tuple(failed),
    )


def step_image_bound(e: int, upper: int) -> int:
    """Upper bound for one step applied to any n <= upper."""
    _check_exponent(e)
    return sum(i ** e for i in range(1, digit_count(upper) + 1))


def _density_work(e: int, width: int) -> int:
    """Bound on the dictionary updates of a tally over width positions.

    The sums over i - 1 free positions number at most one more than
    their largest value and at most Catalan(i), the count of digit
    multisets those positions admit; position i touches each of them
    at most i + 2 times (i + 1 shifts of low, one of tally). The shift
    for the digit 0 is a plain copy of low, but the bound still counts
    it as a shift. Stops early once over DENSITY_WORK_LIMIT.
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


def _shift_into(dst: dict[int, int], src: dict[int, int], by: int) -> dict[int, int]:
    get = dst.get
    for s, c in src.items():
        t = s + by
        dst[t] = get(t, 0) + c
    return dst


def _tally_dp(e: int, upper: int, one, copy, shift_add, lows=()):
    """The step-sum digit DP over the factoradic digits of upper.

    A tally counts digit strings by step sum: one tallies {0}, copy(t)
    copies t, and shift_add(dst, src, by) returns dst, reused or not,
    plus src shifted by by. low tallies the positions below i, all
    digits free; tally the n in [0, upper mod i!]. Position i, where
    upper has digit d, extends both: an n whose digit there is a < d
    has a free lower part, one whose digit is d continues the old tally.
    While every digit so far is maximal, tally is low. lows holds free
    tallies already built, low_i = the tally of [0, (i+1)! - 1] at index
    i - 1: a position it covers builds only its a < d part, and a result
    that would be one of them is a copy. A list lows gains each low the
    DP builds. Over DENSITY_WORK_LIMIT by _density_work, or given a
    non-int upper, it raises ValueError first.
    """
    _check_exponent(e)
    _need_ints(upper=upper)
    if upper < 0:
        raise ValueError(f"expected a nonnegative integer, got {upper}")
    digits = _split_digits(upper)
    if _density_work(e, len(digits)) > DENSITY_WORK_LIMIT:
        raise ValueError(
            f"tallying the step sums up to upper={upper} at e={e} may take "
            f"over {DENSITY_WORK_LIMIT:,} dictionary updates")
    powers = _step_tables(e)[0]  # the work limit keeps upper below 104 digits
    keep = lows.append if type(lows) is list else None
    low = tally = one
    maximal = True
    for i, d in enumerate(digits, start=1):
        maximal = maximal and d == i
        if i <= len(lows):  # low_i is built: only the a < d part is left
            if not maximal and d:
                below = copy(low)
                for a in range(1, d):
                    below = shift_add(below, low, powers[a])
                tally = shift_add(below, tally, powers[d])
            low = lows[i - 1]
            if maximal:
                tally = low if i < len(digits) else copy(low)
            continue
        grown = copy(low)  # the digit a = 0 adds 0 ** e = 0
        for a in range(1, d):
            grown = shift_add(grown, low, powers[a])
        if maximal:
            low = tally = shift_add(grown, low, powers[i])
        else:
            if d:  # with d = 0 no a < d term: the tally carries over as it is
                below = grown if i == len(digits) else copy(grown)
                tally = shift_add(below, tally, powers[d])
            if i < len(digits):
                for a in range(max(d, 1), i + 1):
                    grown = shift_add(grown, low, powers[a])
                low = grown
        if keep and i < len(digits):
            keep(low)
    return tally


def step_sum_tally(e: int, upper: int) -> dict[int, int]:
    """Map each step value of an n in [0, upper] to how many n have it.

    _tally_dp on a dictionary: cost follows the distinct sums, not upper.
    """
    return _tally_dp(e, upper, {0: 1}, dict, _shift_into)


def _packed_tally(e: int, upper: int) -> memoryview | list[int]:
    """_tally_dp with the counts packed into one int.

    Slot s, w bits wide, holds the count of step sum s: a shift by a ** e
    is << a ** e * w and a merge is +. A count is at most upper + 1, and
    w is the fewest whole bytes that hold it (24 bits at 10! - 1), so no
    carry crosses a slot. Returns the count of every step sum from 0 up
    to the largest one met, zeros included: slots of 3, 5, 6 or 7 bytes
    are widened to 4 or 8 for the one C-level cast, wider ones read one
    by one.
    """
    step = -(-(upper + 1).bit_length() // 8)  # bytes per slot
    w = 8 * step
    tally = _tally_dp(e, upper, 1, int, lambda a, b, by: a + (b << by * w))
    data = tally.to_bytes(-(-tally.bit_length() // w) * step, "little")
    del tally  # freed before any widening copy is made
    if step > 8 or sys.byteorder != "little":
        return [int.from_bytes(data[j:j + step], "little")
                for j in range(0, len(data), step)]
    wide = 1 << (step - 1).bit_length()  # 1, 2, 4 or 8 bytes
    if wide != step:
        buf = bytearray(len(data) // step * wide)
        for j in range(step):
            buf[j::wide] = data[j::step]
        data = buf
    return memoryview(data).cast({1: "B", 2: "H", 4: "I", 8: "Q"}[wide])


def _build_step_tables(e: int) -> tuple[list[int], tuple[int, ...]]:
    """([a ** e for a = 0.._TABLE_DIGITS], the step sums of [0, 7! - 1]).

    The powers hold every digit of an n of up to _TABLE_BITS bits;
    _power_sum grows them in place. Position i = 1..6 of a low sum adds
    the power of its digit a <= i.
    """
    powers = [a ** e for a in range(_TABLE_DIGITS + 1)]
    low = [0]
    for i in range(1, 7):
        low = [s + p for p in powers[:i + 1] for s in low]
    return powers, tuple(low)


class _StepTables(dict):
    """Exponent -> _build_step_tables(e), built once and kept for the process.

    A hit is a C-level dict read. A miss builds under _LOCK and checks
    again first, so threads that miss together share one entry and one
    powers list. Past _LOW_SUMS_KEPT exponents the oldest-built goes.
    """

    def __missing__(self, e: int) -> tuple[list[int], tuple[int, ...]]:
        with _LOCK:
            tables = self.get(e)
            if tables is None:
                tables = _build_step_tables(e)
                if len(self) >= _LOW_SUMS_KEPT:
                    del self[next(iter(self))]
                self[e] = tables
        return tables


_STEP_TABLES = _StepTables()
_step_tables = _STEP_TABLES.__getitem__


def _power_sum(digits, e: int) -> int:
    """Sum of the e-th powers of little-endian digits.

    The digit at position i is at most i, so the kept powers, grown in
    place to len(digits) but not past _POWERS_TOP, hold every digit up
    to that position; a later one is raised by pow.
    """
    powers = _step_tables(e)[0]
    top = min(len(digits), _POWERS_TOP)
    if len(powers) <= top:
        with _LOCK:  # readers take no lock: they see the list or a longer one
            powers.extend(a ** e for a in range(len(powers), top + 1))
    if len(digits) < len(powers):
        return sum(map(powers.__getitem__, digits))
    return (sum(map(powers.__getitem__, islice(digits, _POWERS_TOP)))
            + sum(map(pow, islice(digits, _POWERS_TOP, None), repeat(e))))


def _high_sum(q: int, powers: list[int]) -> int:
    """Sum of the kept powers of the digits of q * 7! from the 7! place up.

    Each digit is in powers while q * 7! has at most _TABLE_BITS bits.
    """
    s, radix = 0, 8
    while q:
        q, r = divmod(q, radix)
        s += powers[r]
        radix += 1
    return s


class AttractorAtlas:
    """Classification of every positive integer, stored for the image set Im.

    bound is the certified descent threshold for e, and memo_bound the
    largest one-step image of a value up to bound. Every n >= 1 steps
    into [1, memo_bound], and one more step into Im = S([1, memo_bound]),
    which is closed under the map and holds every attractor member; any
    other value steps until it meets Im. The classification never
    changes. The index table of extended_index_table is immutable bytes,
    replaced whole when it grows, so a reader keeps the table it was
    handed and never sees a half-built one. lows, the free tallies of
    the build's step-sum DP (see step_sum_tally), is a tuple no call
    writes to.
    """

    def __init__(self, e: int, bound: int, memo_bound: int,
                 attractors: tuple[Attractor, ...],
                 index: dict[int, int], steps: dict[int, int],
                 lows: tuple[dict[int, int], ...] = ()):
        self.e = e
        self.bound = bound
        self.memo_bound = memo_bound
        self.attractors = attractors
        self.fixed_points = tuple(
            a.members[0] for a in attractors if a.is_fixed_point)
        self.cycles = tuple(a for a in attractors if not a.is_fixed_point)
        self._index = index
        self._steps = steps
        self._table = bytes(1)  # extended_index_table's; entry 0 is unused
        self._lows = lows

    def _resolve(self, n: int, cap: int = DEFAULT_ORBIT_CAP) -> tuple[int, int]:
        """(attractor index, steps to reach it) for any n >= 1."""
        if n < 1:
            raise ValueError(f"expected a positive integer, got {n}")
        index = self._index
        v, total = n, 0
        while v not in index:
            v = happy_step_nat(v, self.e)
            total += 1
            if total > cap:
                raise OrbitCapError(
                    f"orbit of {n} under e={self.e} exceeded {cap} steps")
        return index[v], total + self._steps[v]

    def attractor_index(self, n: int) -> int:
        _need_ints(n=n)
        return self._resolve(n)[0]

    def lookup(self, n: int) -> tuple[Attractor, int]:
        """(attractor, steps to reach it) for any n >= 1."""
        _need_ints(n=n)
        index, steps = self._resolve(n)
        return self.attractors[index], steps

    def step_sum_tally(self, upper: int) -> dict[int, int]:
        """step_sum_tally(e, upper), its free tallies read from the kept ones.

        low_i, the tally of [0, (i+1)! - 1], is kept for each i below the
        digit count of memo_bound, so its keys lie in Im and 0.
        """
        return _tally_dp(self.e, upper, {0: 1}, dict, _shift_into, self._lows)

    def totals(self, tally: dict[int, int]) -> list[int]:
        """Summed counts per attractor index of a {value >= 1: count} tally.

        Density's sparse path: a value outside Im steps until it meets Im.
        Each step adds the step sum of the value's 7!-block base, taken
        once per block met, to the step sum of its six lowest digits.
        """
        if min(tally, default=1) < 1:
            raise ValueError("tally values must be positive integers")
        e, index = self.e, self._index
        powers, low = _step_tables(e)
        totals = [0] * len(self.attractors)
        highs: dict[int, int] = {}
        for v, c in tally.items():
            while (a := index.get(v)) is None:
                q, r = divmod(v, _LOW)
                high = highs.get(q)
                if high is None:
                    high = highs[q] = (_high_sum(q, powers)
                                       if v.bit_length() <= _TABLE_BITS
                                       else happy_step_nat(q * _LOW, e))
                v = high + low[r]
            totals[a] += c
        return totals

    def extended_index_table(self, upper: int) -> bytes:
        """Attractor-index table covering at least [1, upper]; entry 0 unused.

        The table the atlas keeps, one byte per value, handed out as it
        is and so possibly longer than upper + 1. It grows only when
        upper is past its end: the fill resumes at the first block of 7!
        values the table does not hold whole, and the grown table
        replaces it whole. A block's values share their digits from the
        7! place up, so the step of base + r is the block's high sum
        plus the step of r. A whole block whose largest image is below
        its base is one C-level gather of the low sums from the table's
        slice at the block's high sum. In any other block a value up to
        memo_bound is read through its image, which is in Im, and a
        larger one from the table, since its image is smaller. The fill
        grows a bytearray, one byte per value, copied once into the kept
        bytes. Callers, smallest_runs and density's packed path, bound
        upper. An index past 255 raises ValueError and leaves the kept
        table as it was.
        """
        _need_ints(upper=upper)
        kept = self._table
        if upper < len(kept):
            return kept
        index = self._index
        powers, low = _step_tables(self.e)
        gather = itemgetter(*low)
        first = len(kept) // _LOW
        table = bytearray(kept[:max(1, first * _LOW)])
        append = table.append
        for q in range(first, upper // _LOW + 1):
            base, high = q * _LOW, _high_sum(q, powers)
            end = min(_LOW, upper + 1 - base)
            if end == _LOW and high + low[-1] < base:  # images all earlier
                table.extend(gather(table[high:high + low[-1] + 1]))
                continue
            start = len(table) - base  # 1 in block 0, past its unused entry
            split = max(start, min(end, self.memo_bound + 1 - base))
            table.extend([index[high + s] for s in low[start:split]])
            for s in low[split:end]:
                append(table[high + s])
        self._table = table = bytes(table)
        return table


def enumerate_attractors(e: int) -> AttractorAtlas:
    """Classify the image set Im, collecting every attractor.

    Fixed points come first in ascending order, then cycles ordered by
    smallest member. Refuses an exponent whose certificate failed. Im
    is the key set of step_sum_tally(e, memo_bound) without 0, so e over
    EXPONENT_LIMIT, or e >= 9, whose tally is over DENSITY_WORK_LIMIT,
    raises ValueError before any work. The atlas keeps the free tallies
    that DP built on the way.
    """
    bound = descent_bound(e)
    if not bound.certificate_ok:
        raise CertificationError(
            f"exponent {e}: certificate checks failed: "
            + ", ".join(bound.failed_checks))
    m = bound.bound
    memo_bound = step_image_bound(e, m)
    lows: list[dict[int, int]] = []
    try:
        index = dict.fromkeys(
            _tally_dp(e, memo_bound, {0: 1}, dict, _shift_into, lows), -1)
    except ValueError as exc:
        raise ValueError(f"exponent {e}: the atlas is too large: {exc}") from None
    del index[0]
    powers, low = _step_tables(e)
    highs: dict[int, int] = {}  # 7!-block quotient -> its high sum
    steps: dict[int, int] = {}
    found: list[tuple[int, ...]] = []
    # Each walk stamps what it visits with -2 - n and stops at the first
    # value not -1; meeting its own stamp closes a new attractor.
    for n, a in index.items():
        if a != -1:  # resolved by an earlier walk
            continue
        path: list[int] = []
        v = n
        while index[v] == -1:
            index[v] = -2 - n
            path.append(v)
            q, r = divmod(v, _LOW)
            high = highs.get(q)
            if high is None:
                high = highs[q] = _high_sum(q, powers)
            v = high + low[r]
        if index[v] == -2 - n:
            k = path.index(v)
            for mv in path[k:]:
                index[mv], steps[mv] = len(found), 0
            found.append(tuple(path[k:]))
            del path[k:]
        a, s = index[v], steps[v]
        for pv in reversed(path):
            s += 1
            index[pv] = a
            steps[pv] = s
    canon = [Attractor.cycle(members) for members in found]
    attractors = tuple(sorted(canon, key=lambda att: (
        not att.is_fixed_point, att.members[0])))
    remap = [attractors.index(att) for att in canon]
    for v, a in index.items():
        index[v] = remap[a]
    return AttractorAtlas(e, m, memo_bound, attractors, index, steps,
                          tuple(lows))


def classify(n: int, e: int, atlas: AttractorAtlas | None = None, *,
             cap: int = DEFAULT_ORBIT_CAP, trace: bool = False) -> OrbitReport:
    """Follow the orbit of n until it enters a fixed point or cycle.

    cap bounds the walk itself: without an atlas it keeps a visited map
    up to the first repeat, so n's distinct orbit values, the cycle
    included, must number at most cap (a fixed point n passes any cap);
    with one it takes at most cap steps to the atlas's image set, which
    supplies the rest: classify(3598, 2, cap=5) raises OrbitCapError and
    classify(3598, 2, enumerate_attractors(2), cap=5) returns 6 steps.
    steps_to_attractor is the least step count whose iterate lies on the
    attractor; trace records the values from n through its entry point.
    Exponents above EXPONENT_LIMIT and a negative cap raise ValueError.
    """
    _need_ints(n=n, cap=cap)
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if cap < 0:
        raise ValueError(f"orbit cap must be nonnegative, got {cap}")
    _check_exponent(e)
    if atlas is not None:
        if atlas.e != e:
            raise ValueError(f"atlas is for exponent {atlas.e}, not {e}")
        index, total = atlas._resolve(n, cap)
        attractor = atlas.attractors[index]
    else:
        pos = {n: 0}  # each value met -> its step index, in orbit order
        v = n
        while (v := happy_step_nat(v, e)) not in pos:
            pos[v] = len(pos)
            if len(pos) > cap:
                raise OrbitCapError(
                    f"orbit of {n} under e={e} exceeded {cap} steps")
        total = pos[v]
        attractor = Attractor.cycle(tuple(pos)[total:])
    trajectory = None
    if trace:
        values = [n]
        v = n
        for _ in range(total):
            v = happy_step_nat(v, e)
            values.append(v)
        trajectory = tuple(values)
    return OrbitReport(start=n, e=e, steps_to_attractor=total,
                       attractor=attractor, trajectory=trajectory)
