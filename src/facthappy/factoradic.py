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
from functools import lru_cache
from math import perm
from operator import le
from typing import Iterable, Iterator

# Block j: the _WIDTH radices 2 + _WIDTH*j .. 1 + _WIDTH*(j+1). Node (level, j):
# blocks j*2^level .. (j+1)*2^level - 1. 56 times within 8% of the best of
# 40-80 both ways at 600-10^4 digits.
_WIDTH = 56
# Most decimal digits an integer argument or a printed integer may have:
# Python's default int/str conversion limit. The CLI refuses longer
# input before int() reads it, and a longer result before it is printed.
DIGIT_LIMIT = 4300


class MalformedRepresentationError(ValueError):
    """A digit sequence or digit string violates the factoradic invariants."""


class ComputationError(RuntimeError):
    """Base of the dynamics failures the CLI exits 2 on.

    Defined here, in the one layer every command loads, so the CLI
    catches them without importing dynamics.
    """


def _need_ints(**values: int) -> None:
    for name, value in values.items():
        if type(value) is not int:  # a bool, a float or a Fraction is refused
            raise ValueError(f"{name} must be an int, got {value!r}")


def _validate(digits: tuple[int, ...]) -> None:
    for i, a in enumerate(digits, start=1):
        if type(a) is not int or not 0 <= a <= i:
            raise MalformedRepresentationError(
                f"digit {a!r} at position {i} is not an int" if type(a) is not int
                else f"digit {a} at position {i} outside [0, {i}]")
    if digits and digits[-1] == 0:
        raise MalformedRepresentationError("top digit is zero")


@dataclass(frozen=True)
class FactoradicRep:
    """Immutable factorial-base digit string, little-endian, no top zero.

    Digits from outside the package are checked where they enter: by
    this constructor, so by to_natural of a raw iterable, and by parse.
    to_factoradic, add, shift and towers.preimage_ones build their
    digits valid; they and parse return through _trusted, unchecked.
    """

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


def _trusted(digits: tuple[int, ...]) -> FactoradicRep:
    """A FactoradicRep of digits valid by construction, without _validate.

    Sets the field as the frozen dataclass's __init__ does, so equality,
    hashing and repr are those of a checked representation.
    """
    rep = object.__new__(FactoradicRep)
    object.__setattr__(rep, "digits", digits)
    return rep


@lru_cache(maxsize=None)  # no lock: a race computes an equal product twice
def _node(level: int, j: int) -> int:
    """Product of the radices of node (level, j), kept for the process."""
    return (_node(level - 1, 2 * j) * _node(level - 1, 2 * j + 1) if level
            else perm(1 + _WIDTH * (j + 1), _WIDTH))


def _fill(n: int, level: int, j: int, out: list[int], full: bool) -> None:
    """Append the digits of n, below the product of node (level, j), to out.

    len(out) is the node's first digit index. A zero quotient ends the
    walk, so zeros are written only below a nonzero digit. full says the
    quotient above the node is nonzero: a full leaf holds no top digit
    and writes its whole width without testing n for zero.
    """
    while level:
        level -= 1
        j *= 2
        n, r = divmod(n, _node(level, j))
        _fill(r, level, j, out, n != 0)
        if not n:
            return
        j += 1
        out += [0] * ((_WIDTH * j << level) - len(out))
    radices = range(2 + _WIDTH * j, 2 + _WIDTH * (j + 1))
    if full:
        for radix in radices:
            n, r = divmod(n, radix)
            out.append(r)
        return
    for radix in radices:
        if not n:
            break
        n, r = divmod(n, radix)
        out.append(r)


def _split_digits(n: int) -> list[int]:
    """Factoradic digits of n >= 0, little-endian with a nonzero top digit.

    n fills the least root (level, 0) whose product tops it (see _fill).
    """
    out: list[int] = []
    level = 0
    while n >= _node(level, 0):
        level += 1
    _fill(n, level, 0, out, False)
    return out


def _horner(digits: tuple[int, ...], lo: int, hi: int) -> int:
    """Value of the digits at the radices lo..hi-1, by Horner's rule."""
    total = 0
    for radix in range(hi - 1, lo - 1, -1):
        total = total * radix + digits[radix - 2]
    return total


def _join(digits: tuple[int, ...], level: int, j: int) -> int:
    """Value of the digits in node (level, j), as low + P * high; past the end, 0."""
    if not level:
        return _horner(digits, 2 + _WIDTH * j,
                       min(2 + _WIDTH * (j + 1), len(digits) + 2))
    level -= 1
    low = _join(digits, level, 2 * j)
    if _WIDTH * ((2 * j + 1) << level) >= len(digits):
        return low
    return low + _node(level, 2 * j) * _join(digits, level, 2 * j + 1)


def to_factoradic(n: int) -> FactoradicRep:
    """Digits of n >= 0 by successive division (radix 2, 3, 4, ...).

    A big n is split first by the radix tree (see _split_digits). n must
    be an int: a bool, a float or a Fraction is refused by name.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n!r}")
    return _trusted(tuple(_split_digits(n)))


def to_natural(d: FactoradicRep | Iterable[int]) -> int:
    """Evaluate a digit sequence back to its integer value.

    Accepts a FactoradicRep or a raw little-endian digit iterable; raw
    sequences are validated first (digit bounds, nonzero top digit).
    Long strings are joined along the radix tree as low + P * high, P
    the product of the radices of the low half (see _join).
    """
    if not isinstance(d, FactoradicRep):
        d = FactoradicRep(tuple(d))
    blocks = -(-len(d.digits) // _WIDTH)  # up to three take Horner's rule
    return (_join(d.digits, (blocks - 1).bit_length(), 0) if blocks > 3
            else _horner(d.digits, 2, len(d.digits) + 2))


def digit_count(n: int) -> int:
    """Number of factoradic digits of n >= 0 (0 has none); n must be an int."""
    if type(n) is not int or n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n!r}")
    return len(_split_digits(n))


def _decimal_digits(n: int) -> int:
    """Decimal digits of n >= 1, without turning n into a string."""
    digits = n.bit_length() * 1233 >> 12  # 1233/4096 < log10(2): a lower bound
    while n >= 10 ** digits:
        digits += 1
    return digits


def shift(d: FactoradicRep, t: int) -> FactoradicRep:
    """Pad t zeros below d, moving digit a_i to position t + i.

    The value becomes sum(a_i * (t+i)!). Zero shifts to zero. Each
    a_i <= i < t + i, and the top digit stays nonzero. t must be an int.
    """
    _need_ints(t=t)
    if t < 0:
        raise ValueError(f"shift amount must be nonnegative, got {t}")
    if t == 0 or not d.digits:
        return d
    return _trusted((0,) * t + d.digits)


def add(d: FactoradicRep, y: int) -> FactoradicRep:
    """Factorial-base addition of a nonnegative integer y to d.

    y is converted first and added digit by digit: position i keeps
    (digit + digit of y + carry) mod (i + 2) and passes the quotient up
    as the carry, which then goes on up alone. The last digit written
    is a nonzero remainder, so no top zero can form. y must be an int,
    not a bool, a float or a Fraction.
    """
    _need_ints(addend=y)
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
    return _trusted(tuple(out))


@lru_cache(maxsize=None)  # kept, about 0.48 MB; a race builds an equal one twice
def _digit_texts() -> tuple[tuple[str, ...], dict[str, int]]:
    """Texts of the digits 0..4096, enough for 4,096-digit strings, and their values."""
    texts = tuple(map(str, range(4097)))
    return texts, dict(zip(texts, range(4097)))


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
    k = len(tokens)
    # A token that is not the exact text of a digit, or is past the table,
    # misses it; the loop below then names the first fault of the text.
    try:
        digits = tuple(map(_digit_texts()[1].__getitem__, reversed(tokens)))
        if digits[-1] and all(map(le, digits, range(1, k + 1))):
            return _trusted(digits)
    except KeyError:
        pass
    for pos, tok in zip(range(k, 0, -1), tokens):
        if (not (tok.isascii() and tok.isdigit())
                or (len(tok) > 1 and tok[0] == "0")
                or len(tok) > len(str(pos))):
            raise MalformedRepresentationError(
                f"bad digit token {tok[:40]!r} at position {pos}")
    if tokens[0] == "0":
        raise MalformedRepresentationError(
            f"leading zero digit at position {k}")
    return FactoradicRep(tuple(map(int, reversed(tokens))))


def format(d: FactoradicRep) -> str:
    """Render big-endian with '.' separators and a trailing '!'; zero is "0!"."""
    if not d.digits:
        return "0!"
    texts = _digit_texts()[0]
    if len(d.digits) < len(texts):
        return ".".join(map(texts.__getitem__, reversed(d.digits))) + "!"
    return ".".join(str(a) for a in reversed(d.digits)) + "!"
