"""The split conversion against the one-radix-at-a-time loop, at every size.

Every public conversion runs the split kernels, which divide by the
products of a cached tree of radix blocks, factoradic._WIDTH radices
each, from the product of the first block on and run one radix at a
time below. The loops in conftest.py define the digits; these tests
hold the kernels to them from 0 up to 2^17 bits, across the thresholds,
at the tree's own node products, block edges and level changes, from an
empty cache in a fresh interpreter and under threads, and check the
identities the paper's certificates use on integers of thousands of
digits.
"""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import loop_add, loop_digits, loop_natural, loop_step
from facthappy import classify, factoradic, happy_step_nat
from facthappy.dynamics import _TABLE_BITS
from facthappy.factoradic import (
    _WIDTH, FactoradicRep, _node, add, digit_count, parse, to_factoradic,
    to_natural)
from facthappy.towers import additivity_check

TESTS = os.path.dirname(os.path.abspath(__file__))
BIG = settings(max_examples=25, deadline=None)
# The least integer the tree divides: the product of block 0.
THRESHOLD = _node(0, 0)
T_BITS = THRESHOLD.bit_length()


def first_radix(j):
    """First radix of block j: the edge between blocks j - 1 and j."""
    return 2 + _WIDTH * j


@st.composite
def big_ints(draw, lo_bits=2 ** 10, hi_bits=2 ** 17):
    """An integer of exactly b bits, b drawn from [lo_bits, hi_bits]."""
    bits = draw(st.integers(lo_bits, hi_bits))
    seed = draw(st.integers(0, 2 ** 32))
    return random.Random(seed).getrandbits(bits) | 1 << (bits - 1)


def any_ints():
    """Small integers, which the split kernels run by the loop, or big ones."""
    return st.one_of(st.integers(0, _node(1, 0)),
                     big_ints(T_BITS // 2, 2 ** 17))


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
@given(x=st.one_of(st.just(0), st.integers(0, _node(1, 0)),
                   big_ints(1, 2 ** 17)),
       y=any_ints())
def test_add_matches_loop(x, y):
    digits = loop_digits(x)
    assert add(FactoradicRep(digits), y).digits == loop_add(digits, y)


@BIG
@given(n=any_ints())
def test_digit_count_matches_loop(n):
    assert digit_count(n) == len(loop_digits(n))


@st.composite
def sparse_digits(draw):
    """A string of up to 10^4 digits with 1-5 nonzero digits, the top one
    included: its splits meet zero quotients and zero padding at every
    level of the tree."""
    length = draw(st.integers(1, 10 ** 4))
    digits = [0] * length
    for i in draw(st.sets(st.integers(0, length - 1), max_size=4)) | {length - 1}:
        digits[i] = draw(st.integers(1, i + 1))
    return tuple(digits)


@BIG
@given(digits=sparse_digits())
def test_sparse_digit_strings_both_ways(digits):
    n = loop_natural(digits)
    assert to_factoradic(n).digits == digits
    assert to_natural(digits) == n
    assert digit_count(n) == len(digits)


# 512 bits lies between the products of one block and of two.
@pytest.mark.parametrize("bits", [511, 512, 513, T_BITS - 1, T_BITS, T_BITS + 1,
                                  _TABLE_BITS - 1, _TABLE_BITS, _TABLE_BITS + 1])
def test_threshold_plus_minus_one_bit(bits):
    rng = random.Random(bits)
    for n in (1 << (bits - 1), (1 << bits) - 1,
              rng.getrandbits(bits) | 1 << (bits - 1)):
        assert n.bit_length() == bits
        check_all(n)


def test_tree_threshold_plus_minus_one():
    # to_natural joins along the tree from four blocks on: the product of
    # blocks 0-2 minus 1 is the longest string it evaluates by Horner's rule.
    for product in (THRESHOLD, _node(1, 0), math.factorial(1 + 3 * _WIDTH)):
        for n in (product - 1, product, product + 1):
            check_all(n)


def test_factorials_across_threshold():
    # k is the least k with k! at or over the threshold: k! - 1 keeps
    # every digit at its maximum below it, k! and k! + 1 are one digit
    # longer.
    k = next(k for k in range(2, 10 ** 4) if math.factorial(k) >= THRESHOLD)
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
    for bits in (6 * T_BITS, 24 * T_BITS, 2 ** 16):
        big_k = next(k for k in range(2, 10 ** 5)
                     if math.factorial(k).bit_length() > 2 * bits // 3)
        q = rng.getrandbits(bits // 3) | 1
        for r in (0, 1, rng.getrandbits(64), math.factorial(big_k // 2)):
            n = q * math.factorial(big_k) + r
            check_all(n)
        assert to_factoradic(q * math.factorial(big_k)).digits[:big_k - 1] \
            == (0,) * (big_k - 1)


def test_long_zero_runs_join():
    for t in (2 * _WIDTH - 1, 9 * _WIDTH + 8, 27 * _WIDTH + 24):
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
    assert additivity_check(x, y, t, e)


def check_conversions(n):
    """to_factoradic, digit_count and to_natural agree with the loops on n."""
    digits = loop_digits(n)
    assert to_factoradic(n).digits == digits
    assert digit_count(n) == len(digits)
    assert to_natural(digits) == loop_natural(digits) == n


def test_node_products_plus_minus_one():
    # A node product is exactly the value where a block's digits roll
    # over: P - 1 fills the node with maximal digits, P and P + 1 carry
    # into the next radix.
    for level in range(6):
        for j in range(64 >> level):
            product = _node(level, j)
            for n in (product - 1, product, product + 1):
                check_conversions(n)


def test_factorials_around_block_edges():
    # k! - 1 has its top digit at radix k, k! at radix k + 1: k around
    # each edge puts the last digit just below, on and just above it.
    for edge in map(first_radix, range(1, 41)):
        for k in range(edge - 2, edge + 2):
            for n in (math.factorial(k) - 1, math.factorial(k)):
                check_conversions(n)


def test_digit_strings_ending_on_block_edges():
    # A string of edge - 2 digits fills its blocks exactly; one digit
    # less leaves the last block short, one more opens the next block.
    rng = random.Random(31)
    for edge in map(first_radix, range(1, 41)):
        for length in (edge - 3, edge - 2, edge - 1):
            digits = tuple(rng.randint(0, i) for i in range(1, length)) \
                + (rng.randint(1, length),)
            n = loop_natural(digits)
            assert to_natural(digits) == n
            assert to_factoradic(n).digits == digits


@pytest.mark.parametrize("level", range(8))
def test_lengths_where_the_tree_changes_level(level):
    # W * 2^level digits fill the first 2^level blocks, and one digit more
    # moves both directions to a root one level up: (W * 2^level + 1)! is
    # the product of node (level, 0). Random strings and k! - 1, k!, k! + 1
    # with k! - 1 at each length, against the loops both ways.
    width = _WIDTH << level
    assert math.factorial(width + 1) == _node(level, 0)
    rng = random.Random(level)
    for length in (width - 1, width, width + 1):
        digits = tuple(rng.randint(0, i) for i in range(1, length)) \
            + (rng.randint(1, length),)
        assert to_factoradic(loop_natural(digits)).digits == digits
        f = math.factorial(length + 1)
        for n in (loop_natural(digits), f - 1, f, f + 1):
            check_conversions(n)


# Converts n of each size in the given order from an empty cache, value
# first so that a join meets blocks no division has made, and compares
# with the loops; prints the number of values checked.
ORDERED = """
import random, sys
from conftest import loop_digits, loop_natural
from facthappy.factoradic import _node, digit_count, to_factoradic, to_natural
assert _node.cache_info().currsize == 0
rng = random.Random(5)
checked = 0
for d in map(int, sys.argv[1:]):
    n = rng.randrange(10 ** (d - 1), 10 ** d)
    digits = loop_digits(n)
    assert to_natural(digits) == loop_natural(digits) == n, d
    assert to_factoradic(n).digits == digits, d
    assert digit_count(n) == len(digits), d
    checked += 1
print(checked)
"""

SIZES = tuple(round(10 ** (1 + k / 40)) for k in range(121))  # 10 to 10^4


@pytest.mark.parametrize("order", ["descending-ascending", "ascending"])
def test_sizes_in_order_from_an_empty_cache(order):
    sizes = SIZES[::-1] + SIZES if order == "descending-ascending" else SIZES
    proc = subprocess.run(
        [sys.executable, "-c", ORDERED, *map(str, sizes)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(TESTS, os.pardir, "src"), TESTS])))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(sizes)


# Four threads convert interleaved sizes from an empty cache, two from the
# largest down, switching every microsecond, and compare with the loops;
# prints the count.
THREADED = """
import random, sys, threading
from conftest import loop_digits
from facthappy.factoradic import _node, to_factoradic, to_natural
assert _node.cache_info().currsize == 0
rng = random.Random(7)
sizes = [round(10 ** (1 + 3 * k / 23)) for k in range(24)]
values = [rng.randrange(10 ** (d - 1), 10 ** d) for d in sizes]
expected = [loop_digits(n) for n in values]
start = threading.Barrier(4)
done = []
def work(k):
    start.wait()
    order = list(range(k, 24, 4)) + list(range((k + 2) % 4, 24, 4))
    for i in (order if k % 2 else order[::-1]):
        assert to_factoradic(values[i]).digits == expected[i], i
        assert to_natural(expected[i]) == values[i], i
        done.append(i)
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
    assert not t.is_alive()
print(len(done))
"""


def test_four_threads_share_the_cache():
    proc = subprocess.run(
        [sys.executable, "-c", THREADED], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(TESTS, os.pardir, "src"), TESTS])))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 4 * 12
