"""The split conversion against the one-radix-at-a-time loop, at every size.

Every public conversion runs the split kernels, which divide by
products of radices above factoradic._SPLIT_BITS bits and run one
radix at a time below. The loops in conftest.py define the digits;
these tests hold the kernels to them from 0 up to 2^17 bits, across
the split threshold, and check the identities the paper's certificates
use on integers of thousands of digits.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import loop_add, loop_digits, loop_natural, loop_step
from facthappy import classify, factoradic, happy_step_nat
from facthappy.factoradic import (
    _SPLIT_BITS, FactoradicRep, add, digit_count, parse, to_factoradic,
    to_natural)
from facthappy.towers import additivity_check

BIG = settings(max_examples=25, deadline=None)


@st.composite
def big_ints(draw, lo_bits=2 ** 10, hi_bits=2 ** 17):
    """An integer of exactly b bits, b drawn from [lo_bits, hi_bits]."""
    bits = draw(st.integers(lo_bits, hi_bits))
    seed = draw(st.integers(0, 2 ** 32))
    return random.Random(seed).getrandbits(bits) | 1 << (bits - 1)


def any_ints():
    """Small integers, which the split kernels run by the loop, or big ones."""
    return st.one_of(st.integers(0, 2 ** _SPLIT_BITS), big_ints())


def check_all(n):
    """Every fast path agrees with the loops on n."""
    digits = loop_digits(n)
    assert to_factoradic(n).digits == digits
    assert digit_count(n) == len(digits)
    assert to_natural(FactoradicRep(digits)) == n
    assert to_natural(list(digits)) == n
    for e in (1, 2, 5):
        assert happy_step_nat(n, e) == loop_step(n, e)
    for y in (1, n, n // 3 + 7):
        assert add(FactoradicRep(digits), y).digits == loop_add(digits, y)


@BIG
@given(n=any_ints())
def test_to_factoradic_matches_loop(n):
    assert to_factoradic(n).digits == loop_digits(n)


@BIG
@given(n=any_ints(), e=st.integers(1, 6))
def test_happy_step_nat_matches_loop(n, e):
    assert happy_step_nat(n, e) == loop_step(n, e)


@BIG
@given(n=any_ints())
def test_to_natural_matches_loop(n):
    digits = loop_digits(n)
    assert to_natural(FactoradicRep(digits)) == loop_natural(digits) == n


@BIG
@given(x=st.one_of(st.just(0), st.integers(0, 2 ** _SPLIT_BITS),
                   big_ints(1, 2 ** 17)),
       y=any_ints())
def test_add_matches_loop(x, y):
    digits = loop_digits(x)
    assert add(FactoradicRep(digits), y).digits == loop_add(digits, y)


@BIG
@given(n=any_ints())
def test_digit_count_matches_loop(n):
    assert digit_count(n) == len(loop_digits(n))


@pytest.mark.parametrize("bits", [_SPLIT_BITS - 1, _SPLIT_BITS, _SPLIT_BITS + 1])
def test_threshold_plus_minus_one_bit(bits):
    rng = random.Random(bits)
    for n in (1 << (bits - 1), (1 << bits) - 1,
              rng.getrandbits(bits) | 1 << (bits - 1)):
        assert n.bit_length() == bits
        check_all(n)


def test_factorials_across_threshold():
    # k is the least k with k! over the threshold: k! - 1 keeps every
    # digit at its maximum below it, k! and k! + 1 are one digit longer.
    k = next(k for k in range(2, 10 ** 4)
             if math.factorial(k).bit_length() > _SPLIT_BITS)
    for j in (k - 1, k, k + 1, 2 * k, 5 * k):
        f = math.factorial(j)
        for n in (f - 1, f, f + 1):
            check_all(n)
    assert to_factoradic(math.factorial(k) - 1).digits == tuple(range(1, k))


def test_remainder_blocks_with_leading_zeros():
    # n = q * K! is divisible by every product of radices 2..j with
    # j <= K, so the low split blocks come out all zero; + r puts a
    # short nonzero tail under a run of zeros.
    rng = random.Random(2024)
    for bits in (3 * _SPLIT_BITS, 12 * _SPLIT_BITS, 2 ** 16):
        big_k = next(k for k in range(2, 10 ** 5)
                     if math.factorial(k).bit_length() > 2 * bits // 3)
        q = rng.getrandbits(bits // 3) | 1
        for r in (0, 1, rng.getrandbits(64), math.factorial(big_k // 2)):
            n = q * math.factorial(big_k) + r
            check_all(n)
        assert to_factoradic(q * math.factorial(big_k)).digits[:big_k - 1] \
            == (0,) * (big_k - 1)


def test_long_zero_runs_join():
    for t in (_SPLIT_BITS, 3 * _SPLIT_BITS):
        for top in ((1,), (0, 2), (3, 0, 0, 5)):
            digits = (0,) * t + top
            assert to_natural(digits) == loop_natural(digits)


@settings(max_examples=15, deadline=None)
@given(d=st.integers(1000, 4000), seed=st.integers(0, 2 ** 32),
       e=st.integers(2, 6))
def test_classify_big_n_with_and_without_atlas(atlas, d, seed, e):
    n = random.Random(seed).randrange(10 ** (d - 1), 10 ** d)
    with_atlas = classify(n, e, atlas(e))
    without = classify(n, e)
    assert (with_atlas.steps_to_attractor, with_atlas.attractor) \
        == (without.steps_to_attractor, without.attractor)


@BIG
@given(n=any_ints())
def test_format_parse_round_trip_big(n):
    rep = to_factoradic(n)
    text = factoradic.format(rep)
    assert parse(text) == rep and to_natural(parse(text)) == n


@settings(max_examples=15, deadline=None)
@given(x=big_ints(2 ** 10, 2 ** 14), y=st.integers(0, 10 ** 400),
       extra=st.integers(0, 40), e=st.integers(1, 6))
def test_additivity_with_enough_padding_big(x, y, extra, e):
    t = digit_count(y) + extra
    assert additivity_check(x, y, t, e, strict=True)
