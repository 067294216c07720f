"""Constructive certificates for arbitrarily long runs of p-happy integers.

The construction rests on two exact identities:

* the all-ones number ones(x) = 1*1! + 1*2! + ... + 1*x! steps to x for
  every exponent, so every positive integer has a preimage;
* if x is padded with t low zeros and y has at most t digits, the digit
  multisets of pad(x) + y are disjoint, so
  step(pad_t(x) + y) = step(x) + step(y).

Chaining the two yields numbers l_0 whose next m successors all funnel
into a chosen fixed point p. The chain levels grow as towers of
factorials (the digit count of one level equals the *value* of the
next), so certificates stay symbolic: a ChainNumber records base, pad
width and depth, and verification replays the step map one level at a
time, checking the digit-count side condition exactly at each step and
finishing with ordinary integer iteration on the small concrete tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import (
    AttractorAtlas, ReplayError, SizeCapError, WitnessError, happy_step,
    happy_step_nat)
from .factoradic import (
    DIGIT_LIMIT, FactoradicRep, _decimal_digits, _need_ints, _trusted, add,
    digit_count, shift, to_factoradic, to_natural)

# Longest run build_sequence certifies. Each index is looked up, stepped
# and replayed, so the time is linear in m: m = 10^4 takes 0.3-1.2 s for
# e = 2..5 and m = 3 * 10^4 takes 0.8-3.8 s (2-core x86-64, Python
# 3.11.7), and every index keeps a step count in the certificate.
RUN_LENGTH_LIMIT = 10 ** 4
# Most digits materialize expands a chain into: the digit tuple holds
# one 8-byte pointer per digit, 8 MB at the limit.
EXPANSION_LIMIT = 10 ** 6


def preimage_ones(x: int) -> FactoradicRep:
    """The all-ones representation of length x; its step image is x for any e."""
    _need_ints(x=x)
    if x < 1:
        raise ValueError(f"need a positive length, got {x}")
    return _trusted((1,) * x)


def additivity_check(x: int, y: int, t: int, e: int) -> bool:
    """Evaluate step(pad_t(x) + y) == step(x) + step(y) concretely.

    True is guaranteed whenever t >= digit_count(y); with a smaller t
    the identity can fail, which is exactly what makes the negative
    cases informative.
    """
    _need_ints(x=x, y=y, t=t, e=e)
    if x < 1 or y < 0 or t < 0:
        raise ValueError(f"need x >= 1, y >= 0, t >= 0, got {(x, y, t)}")
    padded = to_natural(shift(to_factoradic(x), t)) + y
    return happy_step_nat(padded, e) == happy_step_nat(x, e) + happy_step_nat(y, e)


@dataclass(frozen=True)
class NiceWitness:
    """An offset that drives every attractor member of an exponent to p.

    q_by_member[u] is the measured first-passage count: iterating the
    step map q_by_member[u] times from offset + u lands exactly on p.
    """

    e: int
    p: int
    offset: int
    q_by_member: dict[int, int]


def nice_check(e: int, p: int, offset: int, atlas: AttractorAtlas) -> NiceWitness:
    """Verify that offset + u iterates to p for every attractor member u.

    Members are taken from the atlas (fixed points and all cycle
    members), and so is each first passage: for a fixed point it is
    the step count to that attractor. Raises WitnessError naming the
    first failing member and where its orbit actually went; a non-int
    e, p or offset, a p that is not a fixed point or a negative offset
    raises ValueError first.
    """
    _need_ints(e=e, p=p, offset=offset)
    if atlas.e != e:
        raise ValueError(f"atlas is for exponent {atlas.e}, not {e}")
    if p not in atlas.fixed_points:
        raise ValueError(f"{p} is not a fixed point for e={e}")
    if offset < 0:  # 1 is a member, so offset + u must stay >= 1
        raise ValueError(f"offset must be nonnegative, got {offset}")
    members = sorted(
        m for att in atlas.attractors for m in att.members)
    q_by_member: dict[int, int] = {}
    for u in members:
        landed, q = atlas.lookup(offset + u)
        if landed.members != (p,):
            raise WitnessError(f"offset {offset}: member {u} did not reach {p} "
                               f"(orbit settles on {landed.text})")
        q_by_member[u] = q
    return NiceWitness(e=e, p=p, offset=offset, q_by_member=q_by_member)


@dataclass(frozen=True)
class ChainNumber:
    """Symbolic tower value. depth 0 is the concrete integer base.

    For depth r >= 1 the value is defined top-down: level r is base,
    and level j (j < r) is the all-ones number of length value(level
    j+1), padded with shift low zeros. One step of the map therefore
    sends level j to level j+1, and sends level j plus a small y to
    level j+1 plus step(y) provided y fits in the pad.
    """

    base: int
    shift: int
    depth: int

    def __post_init__(self) -> None:
        _need_ints(base=self.base, shift=self.shift, depth=self.depth)
        if self.base < 0 or self.shift < 0 or self.depth < 0:
            raise ValueError("base, shift and depth must be nonnegative")
        if self.depth > 0 and self.base < 1:
            raise ValueError("a chain of positive depth needs base >= 1")


@dataclass(frozen=True)
class SequenceCertificate:
    """Witness that chain + 1, ..., chain + m all iterate to p.

    The fields are the JSON form's (l is offset, per_i steps_by_index);
    chain = ChainNumber(offset, t, r) and size_note are read off them.
    steps_by_index[i] is the exact step count of chain + i, r symbolic
    peels then the concrete tail, and every replay of i demands it. Its
    keys must be exactly 1..m: the first missing or extra index raises
    ValueError, and so do a step count that is not an int and a negative
    t, r or offset.
    """

    e: int
    p: int
    m: int
    t: int
    r: int
    offset: int
    steps_by_index: dict[int, int]

    def __post_init__(self) -> None:
        _need_ints(e=self.e, p=self.p, m=self.m, t=self.t, r=self.r,
                   offset=self.offset)
        for name, value in (("t", self.t), ("r", self.r),
                            ("offset", self.offset)):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        for i in range(1, self.m + 1):
            if i not in self.steps_by_index:
                raise ValueError(f"steps_by_index has no index {i}")
        for i, steps in self.steps_by_index.items():
            if not (type(i) is int and 1 <= i <= self.m):
                raise ValueError(
                    f"steps_by_index has index {i!r} outside [1, {self.m}]")
            _need_ints(**{f"steps_by_index[{i}]": steps})

    @property
    def chain(self) -> ChainNumber:
        return ChainNumber(self.offset, self.t, self.r)

    @property
    def size_note(self) -> str:
        return _size_note(self.chain)


def _finish(cert: SequenceCertificate, i: int, value: int, steps: int) -> int:
    """Iterate value to p after steps steps; the total must be steps_by_index[i]."""
    budget = cert.steps_by_index[i]
    while value != cert.p:
        if steps >= budget:
            raise ReplayError(
                f"index {i}: concrete orbit missed {cert.p} within {budget} steps")
        value = happy_step_nat(value, cert.e)
        steps += 1
    if steps != budget:
        raise ReplayError(
            f"index {i}: concrete orbit took {steps} steps, certificate says {budget}")
    return steps


def replay_run(cert: SequenceCertificate, i: int) -> int:
    """Replay the orbit of chain + i down to p; return its step count.

    The first r steps rewrite (level j) + y to (level j+1) + step(y),
    checking the pad condition digit_count(y) <= t, as y < (t+1)!, met by
    any y < 2^t; then the value is the small integer offset + y and plain
    iteration finishes the job. A violated side condition, or a total
    other than steps_by_index[i], raises ReplayError naming i.
    """
    _need_ints(i=i)
    if not 1 <= i <= cert.m:
        raise ValueError(f"index {i} outside [1, {cert.m}]")
    y = i
    for _ in range(cert.r):
        if y.bit_length() > cert.t and y >= math.factorial(cert.t + 1):
            raise ReplayError(
                f"index {i}: intermediate {y} has more than t={cert.t} digits")
        y = happy_step_nat(y, cert.e)
    return _finish(cert, i, cert.offset + y, cert.r)


def build_sequence(e: int, p: int, m: int, witness: NiceWitness,
                   atlas: AttractorAtlas) -> SequenceCertificate:
    """Construct and verify a certificate for m consecutive p-happy integers.

    Chooses the least depth r such that every i in [1, m] reaches an
    attractor member within r steps, and the least pad width t covering
    every intermediate digit count. The witness supplies the tail step
    counts; total steps per index are then r plus the tail. The
    certificate is only returned after replay_run has replayed every
    index to its count. A non-int e, p or m, or an m outside
    [1, RUN_LENGTH_LIMIT], raises ValueError first.
    """
    _need_ints(e=e, p=p, m=m)
    _check_run_length(m)
    if witness.e != e or witness.p != p:
        raise ValueError(
            f"witness is for (e={witness.e}, p={witness.p}), not (e={e}, p={p})")
    if atlas.e != e:
        raise ValueError(f"atlas is for exponent {atlas.e}, not {e}")
    r = max(atlas.lookup(i)[1] for i in range(1, m + 1))
    if r > 0 and witness.offset < 1:
        raise WitnessError(
            "offset 0 cannot seed a chain: the all-ones preimage needs a "
            "positive length")
    top = 0  # digit_count is monotone: t comes from the largest value
    steps_by_index: dict[int, int] = {}
    for i in range(1, m + 1):
        u = i
        for _ in range(r):
            top = max(top, u)
            u = happy_step_nat(u, e)
        top = max(top, u)
        if u not in witness.q_by_member:
            raise WitnessError(
                f"value {u} reached from {i} is not covered by the witness")
        steps_by_index[i] = witness.q_by_member[u] + r
    cert = SequenceCertificate(e=e, p=p, m=m, t=digit_count(top), r=r,
                               offset=witness.offset, steps_by_index=steps_by_index)
    for i in range(1, m + 1):
        replay_run(cert, i)
    return cert


def _check_run_length(m: int) -> None:
    if m < 1:
        raise ValueError(f"run length must be positive, got {m}")
    if m > RUN_LENGTH_LIMIT:
        raise ValueError(
            f"run length {m} is above the limit of {RUN_LENGTH_LIMIT}")


def _level_width_log10(chain: ChainNumber) -> int:
    """An integer L with 10^L at most the expanded digit count.

    Walks the digit count from the top level down: the next one is pad +
    value(current level), and a level of width w has value at least w!.
    While w < 20 (19! < 10^18 < 20!) the walk is exact and ends with
    floor(log10 width). At the first w >= 20 it stops, so deep towers
    bound the first astronomical level, not the (even larger) final one,
    by Robbins's log10(w!) > log10(sqrt(2 pi w)) + w * log10(w / e) >=
    1 + w * (lg / 1024 * 0.301029995 - 0.434294482), lg / 1024 <= log2(w).
    """
    width = chain.shift + chain.base
    for _ in range(chain.depth - 1):
        if width >= 20:
            low = max(width.bit_length() - 64, 0)  # w's top 64 bits
            lg = 1024 * low + ((width >> low) ** 1024).bit_length() - 1
            return 1 + width * (lg * 301029995 - 1024 * 434294482) // 1024 // 10 ** 9
        width = chain.shift + sum(
            math.factorial(k) for k in range(chain.shift + 1, width + 1))
    return _decimal_digits(width) - 1


def _decimal(n: int) -> str:
    """n in decimal, or its length past DIGIT_LIMIT digits, where str() refuses."""
    digits = _decimal_digits(abs(n))
    return str(n) if digits <= DIGIT_LIMIT else f"<{digits:,}-digit integer>"


def _size_note(chain: ChainNumber) -> str:
    if chain.depth == 0:
        return f"concrete value {_decimal(chain.base)}"
    if chain.depth == 1:
        return (f"ones block of length {_decimal(chain.base)} shifted by "
                f"{_decimal(chain.shift)} ({_decimal(chain.shift + chain.base)} "
                f"digits)")
    return (f"ones-block tower: depth {chain.depth}, pad {_decimal(chain.shift)}, "
            f"top value {_decimal(chain.base)}; at least "
            f"10^{_decimal(_level_width_log10(chain))} digits when expanded")


def materialize(chain: ChainNumber) -> FactoradicRep:
    """Expand a chain to explicit digits if it fits under EXPANSION_LIMIT.

    Walks the levels from the top, each the pad plus the value of the
    level above digits wide: a depth-2 chain with a typical offset
    already tops the limit, while tiny tops stay small. A level of width
    w is summed only while pad + w <= digit_count(10^(d + 1)), d the
    limit's decimal digit count. A refusal bounds the digits of the
    level it refuses as the size note does, and carries the note.
    """
    if chain.depth == 0:
        return to_factoradic(chain.base)
    t, width = chain.shift, chain.base
    most = chain.depth > 1 and digit_count(10 ** (_decimal_digits(EXPANSION_LIMIT) + 1))
    for level in range(chain.depth - 1, -1, -1):
        if t + width > EXPANSION_LIMIT:
            raise SizeCapError(
                f"level {level} needs {_decimal(t + width)} digits, above the "
                f"cap of {EXPANSION_LIMIT} ({_size_note(chain)})")
        if level == 0:
            return shift(preimage_ones(width), t)
        if t + width > most:
            raise SizeCapError(
                f"level {level - 1} would need about 10^"
                f"{_decimal(_level_width_log10(ChainNumber(width, t, 2)))} "
                f"digits, above the cap of {EXPANSION_LIMIT} "
                f"({_size_note(chain)})")
        width = sum(math.factorial(t + i) for i in range(1, width + 1))


def verify_concrete(cert: SequenceCertificate) -> None:
    """Cross-check the symbolic replay against explicit digit strings.

    Materializes the chain (raising SizeCapError when it cannot fit),
    adds each index with full carry propagation, applies the first step
    directly on the digit string and finishes on plain integers as
    replay_run does, to exactly steps_by_index[i]. The digit-string
    step is the one the symbolic replay performs by rewriting, so this
    closes the loop for every chain small enough to expand.
    """
    rep = materialize(cert.chain)
    for i in range(1, cert.m + 1):
        with_index = add(rep, i)
        if cert.r == 0:
            _finish(cert, i, to_natural(with_index), 0)
            continue
        value = happy_step(with_index, cert.e)
        if cert.r == 1 and value != cert.offset + happy_step_nat(i, cert.e):
            raise ReplayError(
                f"index {i}: digit-string step gave {value}, symbolic "
                f"replay predicts {cert.offset + happy_step_nat(i, cert.e)}")
        _finish(cert, i, value, 1)


def certificate_to_json(cert: SequenceCertificate) -> str:
    """Stable JSON form: e, p, m, t, r, l, per_i, size_note in that order."""
    import json
    obj = {
        "e": cert.e,
        "p": cert.p,
        "m": cert.m,
        "t": cert.t,
        "r": cert.r,
        "l": cert.offset,
        "per_i": [{"i": i, "steps": cert.steps_by_index[i]}
                  for i in sorted(cert.steps_by_index)],
        "size_note": cert.size_note,
    }
    return json.dumps(obj)
