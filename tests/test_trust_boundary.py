"""Digit strings are checked where they enter the package, and only there.

FactoradicRep(...), parse and to_natural of a raw iterable check their
digits. to_factoradic, add, shift, towers.preimage_ones and so
towers.materialize build theirs valid and skip the check; these tests
hold every string they return to conftest.is_factoradic, the definition
itself, at radix-tree block edges (2 + 56·j), through carries at every
position, at every shift up to 70 and on random integers of up to 10^5
bits, and pin the refusals at the boundary, of non-int values included.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import is_factoradic, loop_add, loop_digits
from facthappy.analysis import density, smallest_runs
from facthappy.dynamics import (
    enumerate_attractors, happy_step_nat, step_sum_tally)
from facthappy.factoradic import (
    ZERO, FactoradicRep, MalformedRepresentationError, add, digit_count, parse,
    shift, to_factoradic, to_natural)
from facthappy.towers import ChainNumber, materialize, preimage_ones

# 0 and k! - 1, k!, k! + 1 for k up to 300: every digit maximal, one
# digit alone, and a low digit beside it, on both sides of each edge.
EDGES = [0] + [math.factorial(k) + d for k in range(1, 301) for d in (-1, 0, 1)]


def built(rep):
    """rep meets the definition and behaves as a checked FactoradicRep."""
    assert type(rep) is FactoradicRep and is_factoradic(rep.digits)
    checked = FactoradicRep(rep.digits)
    assert rep == checked and hash(rep) == hash(checked)
    assert repr(rep) == repr(checked)
    return rep


@st.composite
def random_ints(draw, max_bits=10 ** 5):
    """A random integer of up to max_bits bits, 0 included."""
    bits = draw(st.integers(0, max_bits))
    return random.Random(draw(st.integers(0, 2 ** 32))).getrandbits(bits)


def test_to_factoradic_at_block_edges():
    for n in EDGES:
        assert built(to_factoradic(n)).digits == loop_digits(n)


@settings(max_examples=25, deadline=None)
@given(n=random_ints())
def test_to_factoradic_random(n):
    built(to_factoradic(n))


def test_add_carries_through_every_position():
    # k! - 1 has every digit maximal: adding 1 carries through all k - 1
    # positions into a new top digit. y shorter than d, then longer.
    for k in range(1, 301):
        full = math.factorial(k) - 1
        d = to_factoradic(full)
        for y in (1, 2, math.factorial(k // 2 + 1) - 1, full, full * 3 + 1):
            assert built(add(d, y)).digits == loop_add(d.digits, y)
            assert built(add(to_factoradic(k), y)).digits == \
                loop_add(loop_digits(k), y)
    assert built(add(ZERO, 0)) == ZERO


@settings(max_examples=25, deadline=None)
@given(x=random_ints(), y=random_ints())
def test_add_random(x, y):
    built(add(to_factoradic(x), y))


def test_shift_by_every_amount_up_to_70():
    reps = [ZERO] + [to_factoradic(n) for n in (1, 5, 23, 24, 10 ** 100)]
    reps.append(to_factoradic(math.factorial(113) - 1))
    for t in range(71):
        for d in reps:
            assert built(shift(d, t)).digits == \
                ((0,) * t + d.digits if d.digits else ())


def test_preimage_ones_and_materialize():
    for x in (*range(1, 130), 10 ** 4):
        assert built(preimage_ones(x)).digits == (1,) * x
    for base in (0, 1, 2, 57, 58, 10 ** 30):
        assert built(materialize(ChainNumber(base, 2, 0))) == \
            to_factoradic(base)
    for base, t in ((1, 0), (3, 0), (20, 2), (55, 3), (500, 70)):
        rep = built(materialize(ChainNumber(base, t, 1)))
        assert rep.digits == (0,) * t + (1,) * base


@pytest.mark.parametrize("call, text", [
    (lambda: FactoradicRep((1, 3)), "digit 3 at position 2 outside [0, 2]"),
    (lambda: to_natural([1, 0]), "top digit is zero"),
    (lambda: parse("3.0!"), "digit 3 at position 2 outside [0, 2]"),
], ids=["FactoradicRep", "to_natural", "parse"])
def test_entry_points_still_check(call, text):
    with pytest.raises(MalformedRepresentationError) as info:
        call()
    assert str(info.value) == text


def test_step_sum_tally_refuses_a_negative_upper():
    with pytest.raises(ValueError) as info:
        step_sum_tally(5, -1)
    assert str(info.value) == "expected a nonnegative integer, got -1"


@pytest.mark.parametrize("call, text", [
    (lambda: to_factoradic(2.5), "expected a nonnegative integer, got 2.5"),
    (lambda: to_factoradic(Fraction(7, 2)),
     "expected a nonnegative integer, got Fraction(7, 2)"),
    (lambda: to_factoradic(3.0), "expected a nonnegative integer, got 3.0"),
    (lambda: to_factoradic(True), "expected a nonnegative integer, got True"),
    (lambda: to_factoradic("3"), "expected a nonnegative integer, got '3'"),
    (lambda: to_factoradic(-1), "expected a nonnegative integer, got -1"),
    (lambda: digit_count(2.5), "expected a nonnegative integer, got 2.5"),
    (lambda: digit_count(Fraction(7, 2)),
     "expected a nonnegative integer, got Fraction(7, 2)"),
    (lambda: digit_count(3.0), "expected a nonnegative integer, got 3.0"),
    (lambda: digit_count(True), "expected a nonnegative integer, got True"),
    (lambda: digit_count(-1), "expected a nonnegative integer, got -1"),
    (lambda: add(to_factoradic(3), 0.5), "addend must be an int, got 0.5"),
    (lambda: add(to_factoradic(3), Fraction(1, 2)),
     "addend must be an int, got Fraction(1, 2)"),
    (lambda: add(to_factoradic(3), Fraction(2)),
     "addend must be an int, got Fraction(2, 1)"),
    (lambda: add(to_factoradic(3), False), "addend must be an int, got False"),
    (lambda: add(to_factoradic(3), -1), "addend must be nonnegative, got -1"),
    (lambda: shift(to_factoradic(5), True), "t must be an int, got True"),
    (lambda: shift(ZERO, 2.5), "t must be an int, got 2.5"),
    (lambda: enumerate_attractors(2).lookup(2.5), "n must be an int, got 2.5"),
    (lambda: enumerate_attractors(2).lookup(True), "n must be an int, got True"),
    (lambda: enumerate_attractors(2).attractor_index(3.0),
     "n must be an int, got 3.0"),
    (lambda: enumerate_attractors(2).extended_index_table(True),
     "upper must be an int, got True"),
    (lambda: enumerate_attractors(2).extended_index_table(Fraction(10)),
     "upper must be an int, got Fraction(10, 1)"),
    (lambda: smallest_runs(2, 1, 3, enumerate_attractors(2), search_cap=2.5),
     "search_cap must be an int, got 2.5"),
    (lambda: smallest_runs(2, 1, 3, enumerate_attractors(2), search_cap=True),
     "search_cap must be an int, got True"),
    (lambda: density(2, 2.5, enumerate_attractors(2)),
     "upper must be an int, got 2.5"),
    (lambda: density(2, True, enumerate_attractors(2)),
     "upper must be an int, got True"),
    (lambda: step_sum_tally(2, 10.0), "upper must be an int, got 10.0"),
    (lambda: step_sum_tally(2, True), "upper must be an int, got True"),
    (lambda: happy_step_nat(2.0, 2), "expected a nonnegative integer, got 2.0"),
    (lambda: happy_step_nat(True, 2),
     "expected a nonnegative integer, got True"),
], ids=["float", "Fraction", "integral float", "bool", "str", "negative",
        "digit_count float", "digit_count Fraction",
        "digit_count integral float", "digit_count bool", "digit_count negative",
        "add float", "add Fraction", "add integral Fraction", "add bool",
        "add negative", "shift bool", "shift float", "lookup float",
        "lookup bool", "attractor_index integral float",
        "extended_index_table bool", "extended_index_table Fraction",
        "smallest_runs float", "smallest_runs bool", "density float",
        "density bool", "step_sum_tally float", "step_sum_tally bool",
        "happy_step_nat float", "happy_step_nat bool"])
def test_non_int_values_are_refused(call, text):
    # An integer must be an int: a bool, though an int subclass, would
    # be read as 0 or 1, and an integral float or Fraction as its value.
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == text


@pytest.mark.parametrize("digits, text", [
    ((0.5,), "digit 0.5 at position 1 is not an int"),
    ((1, 1.0), "digit 1.0 at position 2 is not an int"),
    ((Fraction(1),), "digit Fraction(1, 1) at position 1 is not an int"),
    ((True,), "digit True at position 1 is not an int"),
    ((1, 0, False, 1), "digit False at position 3 is not an int"),
    (("1",), "digit '1' at position 1 is not an int"),
    ((1, 3), "digit 3 at position 2 outside [0, 2]"),
])
def test_non_int_digits_are_refused(digits, text):
    for call in (FactoradicRep, to_natural):
        with pytest.raises(MalformedRepresentationError) as info:
            call(digits)
        assert str(info.value) == text
