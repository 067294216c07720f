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
from typing import Iterable, Iterator


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


def to_factoradic(n: int) -> FactoradicRep:
    """Digits of n >= 0 by successive division (radix 2, 3, 4, ...)."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    out = []
    radix = 2
    while n:
        n, r = divmod(n, radix)
        out.append(r)
        radix += 1
    return FactoradicRep(tuple(out))


def to_natural(d: FactoradicRep | Iterable[int]) -> int:
    """Evaluate a digit sequence back to its integer value.

    Accepts a FactoradicRep or a raw little-endian digit iterable; raw
    sequences are validated first (digit bounds, nonzero top digit).
    """
    if not isinstance(d, FactoradicRep):
        d = FactoradicRep(tuple(d))
    total = 0
    fact = 1
    for i, a in enumerate(d.digits, start=1):
        fact *= i
        total += a * fact
    return total


def digit_count(n: int) -> int:
    """Number of factoradic digits of n >= 0 (0 has none)."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    count = 0
    radix = 2
    while n:
        n //= radix
        radix += 1
        count += 1
    return count


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

    y is carried in from the 1! place: position i keeps (digit + y) mod
    (i + 2) and passes the quotient up as the new y. The last digit
    written is a nonzero remainder, so no top zero can form.
    """
    if y < 0:
        raise ValueError(f"addend must be nonnegative, got {y}")
    out = list(d.digits)
    i = 0
    while y:
        if i == len(out):
            out.append(0)
        y, out[i] = divmod(out[i] + y, i + 2)
        i += 1
    return FactoradicRep(tuple(out))


def parse(text: str) -> FactoradicRep:
    """Parse the '.'-separated, '!'-terminated big-endian digit format."""
    if not text.endswith("!"):
        raise MalformedRepresentationError(f"missing '!' terminator: {text!r}")
    body = text[:-1]
    if body == "0":
        return ZERO
    tokens = body.split(".")
    values = []
    for tok in tokens:
        if not tok.isdigit() or (len(tok) > 1 and tok[0] == "0"):
            raise MalformedRepresentationError(f"bad digit token {tok!r} in {text!r}")
        values.append(int(tok))
    if values[0] == 0:
        raise MalformedRepresentationError(f"leading zero digit in {text!r}")
    return FactoradicRep(tuple(reversed(values)))


def format(d: FactoradicRep) -> str:
    """Render big-endian with '.' separators and a trailing '!'; zero is "0!"."""
    if not d.digits:
        return "0!"
    return ".".join(str(a) for a in reversed(d.digits)) + "!"
