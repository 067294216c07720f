"""Exact arithmetic in the factorial number system.

Every nonnegative integer n has a unique expansion

    n = a_1 * 1! + a_2 * 2! + ... + a_k * k!

with 0 <= a_i <= i and a_k != 0. Digits are stored little-endian
(``digits[0]`` is the 1! place) so that appending low-order zeros is a
tuple prefix. Zero is the empty digit tuple, which keeps the
"top digit is nonzero" invariant uniform.

The textual form is big-endian, '.'-separated, '!'-terminated:
2020 <-> "2.4.4.0.2.0!", zero <-> "0!".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log, perm
from typing import Iterable, Iterator

# Integers over this many bits are split by products of consecutive
# radices (see _split_digits), and split blocks are cut down to at most
# this many bits before the one-radix-at-a-time loop runs on them (or,
# in _join, Horner's rule). The loop stops losing to the split between
# about 1,200 and 1,600 bits (2-core x86-64, Python 3.11.7).
_SPLIT_BITS = 1536
_LN2 = log(2)


class MalformedRepresentationError(ValueError):
    """A digit sequence or digit string violates the factoradic invariants."""


def _validate(digits: tuple[int, ...]) -> None:
    for i, a in enumerate(digits, start=1):
        if not 0 <= a <= i:
            raise MalformedRepresentationError(
                f"digit {a} at position {i} outside [0, {i}]")
    if digits and digits[-1] == 0:
        raise MalformedRepresentationError("top digit is zero")


@dataclass(frozen=True)
class FactoradicRep:
    """Immutable factorial-base digit string, little-endian, no top zero."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        _validate(self.digits)

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __str__(self) -> str:
        return format(self)


ZERO = FactoradicRep(())


def _cut(lo: int, hi: int, target: float) -> int:
    """Least m in (lo, hi] with ln(lo * (lo+1) * ... * (m-1)) >= target.

    Returns hi when the whole product stays below the target. The
    logarithm only balances a split; the digits stay exact either way.
    """
    base = lgamma(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lgamma(mid) - base < target:
            lo = mid
        else:
            hi = mid
    return hi


def _mid(lo: int, hi: int) -> int:
    """Split point of the radices lo..hi-1, halving their log product.

    0 when their product has at most _SPLIT_BITS bits: a leaf block.
    """
    size = lgamma(hi) - lgamma(lo)
    if size <= _SPLIT_BITS * _LN2:
        return 0
    return _cut(lo, hi - 1, size / 2)


def _fill(n: int, lo: int, hi: int, out: list[int]) -> None:
    """Append exactly hi - lo digits of n < lo * ... * (hi-1), radix lo first."""
    mid = _mid(lo, hi)
    if not mid:
        for radix in range(lo, hi):
            n, r = divmod(n, radix)
            out.append(r)
        return
    # perm(mid - 1, mid - lo) is lo * ... * (mid-1), by a product tree.
    q, r = divmod(n, perm(mid - 1, mid - lo))
    _fill(r, lo, mid, out)
    _fill(q, mid, hi, out)


def _split_digits(n: int) -> list[int]:
    """Factoradic digits of n >= 0, little-endian with a nonzero top digit.

    While n has over _SPLIT_BITS bits, divide it by P, the product of the
    next k radices with P about sqrt(n): the remainder gives exactly k
    digits, split the same way, and the quotient carries on from the
    radix k places up. The rest, and any smaller n, runs one radix at a
    time. Python 3.11 divides big integers by schoolbook long division,
    so this is still quadratic; it gains a constant factor over the
    loop (about 8x at 32,000 decimal digits).
    """
    out: list[int] = []
    radix = 2
    while n.bit_length() > _SPLIT_BITS:
        # Every radix is at least 2, so bit_length radices pass sqrt(n).
        hi = _cut(radix, radix + n.bit_length(), n.bit_length() * _LN2 / 2)
        n, r = divmod(n, perm(hi - 1, hi - radix))
        _fill(r, radix, hi, out)
        radix = hi
    while n:
        n, r = divmod(n, radix)
        out.append(r)
        radix += 1
    return out


def _join(digits: tuple[int, ...], lo: int, hi: int) -> int:
    """Value of the digits for the radices lo..hi-1: low + P * high."""
    mid = _mid(lo, hi)
    if not mid:
        total = 0
        for radix in range(hi - 1, lo - 1, -1):
            total = total * radix + digits[radix - 2]
        return total
    return (_join(digits, lo, mid)
            + perm(mid - 1, mid - lo) * _join(digits, mid, hi))


def to_factoradic(n: int) -> FactoradicRep:
    """Digits of n >= 0 by successive division (radix 2, 3, 4, ...).

    A big n is split first by products of radices (see _split_digits).
    """
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    return FactoradicRep(tuple(_split_digits(n)))


def to_natural(d: FactoradicRep | Iterable[int]) -> int:
    """Evaluate a digit sequence back to its integer value.

    Accepts a FactoradicRep or a raw little-endian digit iterable; raw
    sequences are validated first (digit bounds, nonzero top digit).
    Long strings are joined from two halves as low + P * high, P the
    product of the radices of the low half (see _join).
    """
    if not isinstance(d, FactoradicRep):
        d = FactoradicRep(tuple(d))
    return _join(d.digits, 2, len(d.digits) + 2)


def digit_count(n: int) -> int:
    """Number of factoradic digits of n >= 0 (0 has none)."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    return len(_split_digits(n))


def shift(d: FactoradicRep, t: int) -> FactoradicRep:
    """Pad t zeros below d, moving digit a_i to position t + i.

    The value becomes sum(a_i * (t+i)!). Zero shifts to zero.
    """
    if t < 0:
        raise ValueError(f"shift amount must be nonnegative, got {t}")
    if t == 0 or not d.digits:
        return d
    return FactoradicRep((0,) * t + d.digits)


def add(d: FactoradicRep, y: int) -> FactoradicRep:
    """Factorial-base addition of a nonnegative integer y to d.

    y is converted first and added digit by digit: position i keeps
    (digit + digit of y + carry) mod (i + 2) and passes the quotient up
    as the carry, which then goes on up alone. The last digit written
    is a nonzero remainder, so no top zero can form.
    """
    if y < 0:
        raise ValueError(f"addend must be nonnegative, got {y}")
    out = list(d.digits)
    ys = _split_digits(y)
    out += [0] * (len(ys) - len(out))
    carry = 0
    for i, a in enumerate(ys):
        carry, out[i] = divmod(out[i] + a + carry, i + 2)
    i = len(ys)
    while carry:
        if i == len(out):
            out.append(0)
        carry, out[i] = divmod(out[i] + carry, i + 2)
        i += 1
    return FactoradicRep(tuple(out))


def parse(text: str) -> FactoradicRep:
    """Parse the '.'-separated, '!'-terminated big-endian digit format.

    Digits are ASCII 0-9 only. A token longer than the largest digit its
    position allows is refused before int() reads it. Errors quote at
    most 40 characters.
    """
    if not text.endswith("!"):
        raise MalformedRepresentationError(
            f"missing '!' terminator after {text[-40:]!r}")
    body = text[:-1]
    if body == "0":
        return ZERO
    tokens = body.split(".")
    values = []
    for pos, tok in zip(range(len(tokens), 0, -1), tokens):
        if (not (tok.isascii() and tok.isdigit())
                or (len(tok) > 1 and tok[0] == "0")
                or len(tok) > len(str(pos))):
            raise MalformedRepresentationError(
                f"bad digit token {tok[:40]!r} at position {pos}")
        values.append(int(tok))
    if values[0] == 0:
        raise MalformedRepresentationError(
            f"leading zero digit at position {len(tokens)}")
    return FactoradicRep(tuple(reversed(values)))


def format(d: FactoradicRep) -> str:
    """Render big-endian with '.' separators and a trailing '!'; zero is "0!"."""
    if not d.digits:
        return "0!"
    return ".".join(str(a) for a in reversed(d.digits)) + "!"
