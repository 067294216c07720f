"""Digit-power dynamics on the factorial number system.

The map under study sends n to the sum of the e-th powers of its
factoradic digits (0 maps to 0). This module provides the map itself,
orbit classification with exact step counts, a certified bound above
which the map strictly decreases, and the full atlas of fixed points
and cycles obtained by sweeping the interval below that bound.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import factorial

from .factoradic import (
    _SPLIT_BITS, FactoradicRep, _split_digits, digit_count, to_factoradic)

DEFAULT_ORBIT_CAP = 10_000
_ATLAS_ENTRY_LIMIT = 1_000_000  # admits e = 6 (446,964), refuses e = 7
# Largest exponent smallest_j and classify accept: at e = 200 a default
# cap orbit of 2021 gives up after 3-5 s, and the cost grows with e.
EXPONENT_LIMIT = 200


class CertificationError(RuntimeError):
    """The exact-integer descent certificate failed for this exponent."""


class OrbitCapError(RuntimeError):
    """An orbit walk exceeded its safety cap before reaching an attractor."""


def happy_step(d: FactoradicRep, e: int) -> int:
    """Sum of e-th powers of the digits of d; the empty digit string gives 0."""
    _check_exponent(e)
    return sum(a ** e for a in d.digits)


def happy_step_nat(n: int, e: int) -> int:
    """One step of the digit-power map applied to a nonnegative integer.

    An n over _SPLIT_BITS bits takes its digits from the split
    conversion; below that one loop divides and sums as it goes.
    """
    _check_exponent(e)
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    if n.bit_length() > _SPLIT_BITS:
        return sum(a ** e for a in _split_digits(n))
    total = 0
    radix = 2
    while n:
        n, r = divmod(n, radix)
        total += r ** e
        radix += 1
    return total


def iterate(n: int, e: int, count: int) -> int:
    """count-fold composition of the step map; count = 0 returns n unchanged."""
    if count < 0:
        raise ValueError(f"iteration count must be nonnegative, got {count}")
    for _ in range(count):
        n = happy_step_nat(n, e)
    return n


def _check_exponent(e: int) -> None:
    if e < 1:
        raise ValueError(f"exponent must be a positive integer, got {e}")


def _check_exponent_limit(e: int) -> None:
    _check_exponent(e)
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
    _check_exponent_limit(e)
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
    return sum(i ** e for i in range(1, digit_count(upper) + 1))


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


class AttractorAtlas:
    """Classification of every positive integer, memoized on [1, memo_bound].

    bound is the certified descent threshold for e, and memo_bound is the
    largest one-step image of a value up to bound: the memo is closed
    under the step map, and larger values step down into it first. The
    atlas is immutable after construction and safe to share across threads.
    """

    def __init__(self, e: int, bound: int, memo_bound: int,
                 attractors: tuple[Attractor, ...],
                 index: list[int], steps: list[int]):
        self.e = e
        self.bound = bound
        self.memo_bound = memo_bound
        self.attractors = attractors
        self.fixed_points = tuple(
            a.members[0] for a in attractors if a.is_fixed_point)
        self.cycles = tuple(a for a in attractors if not a.is_fixed_point)
        self._index = index
        self._steps = steps

    def _resolve(self, n: int, cap: int = DEFAULT_ORBIT_CAP) -> tuple[int, int]:
        """(attractor index, steps to reach it) for any n >= 1."""
        if n < 1:
            raise ValueError(f"expected a positive integer, got {n}")
        v, total = n, 0
        while v > self.memo_bound:
            v = happy_step_nat(v, self.e)
            total += 1
            if total > cap:
                raise OrbitCapError(
                    f"orbit of {n} under e={self.e} exceeded {cap} steps")
        return self._index[v], total + self._steps[v]

    def attractor_index(self, n: int) -> int:
        return self._resolve(n)[0]

    def lookup(self, n: int) -> tuple[Attractor, int]:
        """(attractor, steps to reach it) for any n >= 1."""
        index, steps = self._resolve(n)
        return self.attractors[index], steps

    def extended_index_table(self, upper: int) -> list[int]:
        """Attractor-index table covering [1, max(upper, memo_bound)].

        Entry 0 is unused (-1). Above memo_bound each value resolves
        through a single step, which lands in the memo for a value up
        to bound and strictly lower above it by the certified descent,
        so one forward pass fills the extension. Returns the internal
        table when it already suffices; treat the result as read-only.
        An upper over _ATLAS_ENTRY_LIMIT raises ValueError up front.
        """
        if upper <= self.memo_bound:
            return self._index
        if upper > _ATLAS_ENTRY_LIMIT:
            raise ValueError(
                f"an index table up to {upper} would hold over the limit "
                f"of {_ATLAS_ENTRY_LIMIT:,} values")
        table = list(self._index)
        append = table.append
        for s in _step_images(self.e, self.memo_bound + 1, upper):
            append(table[s])
        return table


def enumerate_attractors(e: int) -> AttractorAtlas:
    """Classify [1, M] for the certified bound M, collecting every attractor.

    Fixed points come first in ascending order, then cycles ordered by
    smallest member. Refuses to run on an exponent whose certificate
    failed, since the sweep interval would prove nothing. Time and
    memory are linear in the bound (j+1)! - 1, which grows factorially
    in e; over _ATLAS_ENTRY_LIMIT values (e >= 7) it raises ValueError.
    """
    # Search j (see smallest_j) only while (j+1)! - 1 fits the limit;
    # j! <= j^(j-1) means j > e, so a huge e fails fast.
    _check_exponent(e)
    j = fact = 1
    while not (e < j and fact > j ** (e - 1)):
        j += 1
        fact *= j
        if fact * (j + 1) - 1 > _ATLAS_ENTRY_LIMIT:
            raise ValueError(
                f"exponent {e}: the atlas needs at least {fact * (j + 1) - 1:,}"
                f" entries, over the limit of {_ATLAS_ENTRY_LIMIT:,}")
    bound = descent_bound(e)
    if not bound.certificate_ok:
        raise CertificationError(
            f"exponent {e}: certificate checks failed: "
            + ", ".join(bound.failed_checks))
    m = bound.bound
    # Walk from all of [1, memo_bound]: it is closed under the step map.
    memo_bound = step_image_bound(e, m)
    img = list(_step_images(e, 0, memo_bound))
    index = [-1] * (memo_bound + 1)
    steps = [0] * (memo_bound + 1)
    found: list[tuple[int, ...]] = []
    # Each walk stamps what it visits with -2 - n and stops at the first
    # value not -1; meeting its own stamp closes a new attractor.
    for n in range(1, memo_bound + 1):
        path: list[int] = []
        v = n
        while index[v] == -1:
            index[v] = -2 - n
            path.append(v)
            v = img[v]
        if index[v] == -2 - n:
            k = path.index(v)
            a = len(found)
            found.append(tuple(path[k:]))
            for mv in path[k:]:
                index[mv] = a
            del path[k:]
            s = 0
        else:
            a = index[v]
            s = steps[v]
        for pv in reversed(path):
            s += 1
            index[pv] = a
            steps[pv] = s
    canon = [Attractor.cycle(members) for members in found]
    order = sorted(range(len(canon)), key=lambda a: (
        not canon[a].is_fixed_point, canon[a].members[0]))
    attractors = tuple(canon[a] for a in order)
    remap = [0] * len(order)
    for new, old in enumerate(order):
        remap[old] = new
    for n in range(1, memo_bound + 1):
        index[n] = remap[index[n]]
    return AttractorAtlas(e, m, memo_bound, attractors, index, steps)


def classify(n: int, e: int, atlas: AttractorAtlas | None = None, *,
             cap: int = DEFAULT_ORBIT_CAP, trace: bool = False) -> OrbitReport:
    """Follow the orbit of n until it enters a fixed point or cycle.

    With an atlas, the atlas resolves n; without one the walk keeps a
    visited map and detects the first repeat. steps_to_attractor is the
    least step count whose iterate lies on the attractor. trace
    additionally records the values from n up to and including the
    attractor entry point. Exponents above EXPONENT_LIMIT raise
    ValueError.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    _check_exponent_limit(e)
    if atlas is not None:
        if atlas.e != e:
            raise ValueError(f"atlas is for exponent {atlas.e}, not {e}")
        index, total = atlas._resolve(n, cap)
        attractor = atlas.attractors[index]
    else:
        path = [n]
        pos = {n: 0}
        v = n
        while True:
            v = happy_step_nat(v, e)
            entry = pos.get(v)
            if entry is not None:
                break
            pos[v] = len(path)
            path.append(v)
            if len(path) > cap:
                raise OrbitCapError(
                    f"orbit of {n} under e={e} exceeded {cap} steps")
        attractor = Attractor.cycle(tuple(path[entry:]))
        total = entry
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
