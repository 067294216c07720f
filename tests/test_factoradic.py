import math
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, strategies as st

from facthappy import factoradic
from facthappy.factoradic import (
    FactoradicRep,
    MalformedRepresentationError,
    add,
    digit_count,
    parse,
    shift,
    to_factoradic,
    to_natural,
)


@pytest.mark.parametrize("n, digits", [
    (2020, (0, 2, 0, 4, 4, 2)),
    (0, ()),
    (5, (1, 2)),
    (23, (1, 2, 3)),
    (1, (1,)),
    (24, (0, 0, 0, 1)),
])
def test_to_factoradic_examples(n, digits):
    assert to_factoradic(n).digits == digits


def test_to_factoradic_rejects_negative():
    with pytest.raises(ValueError):
        to_factoradic(-1)


def test_to_natural_examples():
    assert to_natural(FactoradicRep((0, 2, 0, 4, 4, 2))) == 2020
    assert to_natural(FactoradicRep(())) == 0
    # 1!+2!+3!, evaluated independently
    assert to_natural([1, 1, 1]) == sum(math.factorial(i) for i in (1, 2, 3))


@pytest.mark.parametrize("digits", [
    [0, 3],        # digit 3 at position 2 exceeds its bound
    [2],           # digit 2 at position 1 exceeds its bound
    [1, 0],        # zero top digit
    [0],           # zero is the empty tuple, not a single zero
])
def test_to_natural_rejects_malformed(digits):
    with pytest.raises(MalformedRepresentationError):
        to_natural(digits)


def test_roundtrip_exhaustive_to_one_million():
    assert all(to_natural(to_factoradic(n)) == n for n in range(10 ** 6 + 1))


def test_roundtrip_large_random():
    rng = random.Random(20201)
    for _ in range(200):
        n = rng.randrange(10 ** 12, 10 ** 18)
        assert to_natural(to_factoradic(n)) == n


@pytest.mark.parametrize("k", range(1, 13))
def test_all_max_digits_sum_to_next_factorial_minus_one(k):
    assert sum(i * math.factorial(i) for i in range(1, k + 1)) \
        == math.factorial(k + 1) - 1


def test_shift_pads_low_zeros():
    five = to_factoradic(5)
    assert to_natural(shift(five, 2)) == 54
    assert shift(five, 0) is five
    assert to_natural(shift(to_factoradic(1), 3)) == math.factorial(4)
    assert shift(to_factoradic(0), 7).digits == ()


def test_shift_rejects_negative():
    with pytest.raises(ValueError):
        shift(to_factoradic(5), -1)


def test_shift_preserves_nonzero_digit_multiset():
    rng = random.Random(7)
    for _ in range(300):
        d = to_factoradic(rng.randrange(1, 10 ** 9))
        t = rng.randrange(0, 12)
        shifted = shift(d, t)
        original = sorted(a for a in d.digits if a)
        assert sorted(a for a in shifted.digits if a) == original


def test_add_examples():
    assert to_natural(add(to_factoradic(20), 5)) == 25
    assert add(to_factoradic(23), 1).digits == (0, 0, 0, 1)
    assert add(to_factoradic(0), 2020) == to_factoradic(2020)
    assert add(to_factoradic(7), 0) == to_factoradic(7)


def test_add_matches_integer_addition():
    rng = random.Random(99)
    for _ in range(2000):
        a = rng.randrange(0, 10 ** 10)
        b = rng.randrange(0, 10 ** 10)
        assert to_natural(add(to_factoradic(a), b)) == a + b


@given(a=st.integers(0, 10 ** 300), b=st.integers(0, 10 ** 300))
def test_add_agrees_with_integer_addition(a, b):
    assert to_natural(add(to_factoradic(a), b)) == a + b


@pytest.mark.parametrize("k", range(1, 41))
def test_add_carries_through_every_position(k):
    # k! - 1 has every digit at its maximum; adding 1 carries to the top.
    assert add(to_factoradic(math.factorial(k) - 1), 1) == to_factoradic(math.factorial(k))


def test_add_rejects_negative_addend():
    with pytest.raises(ValueError):
        add(to_factoradic(3), -1)


@pytest.mark.parametrize("text, value", [
    ("2.4.4.0.2.0!", 2020),
    ("0!", 0),
    ("1!", 1),
    ("1.2.3!", None),   # digit 3 at position 1 exceeds its bound
])
def test_parse_roundtrip_or_reject(text, value):
    if value is None:
        with pytest.raises(MalformedRepresentationError):
            parse(text)
    else:
        assert to_natural(parse(text)) == value
        assert factoradic.format(to_factoradic(value)) == text


@pytest.mark.parametrize("text", [
    "", "2020", "2.4!x", "0.1!", "04!", "1..2!", "1. 2!", "-1!", "2.!", "!",
])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(MalformedRepresentationError):
        parse(text)


@pytest.mark.parametrize("text, message", [
    # Eleven tokens, so the top position is two digits wide: each of
    # these passes the width check for the whole string and must still
    # meet the error the token-by-token reading gives.
    ("1" + ".0" * 8 + ".01.0!", "bad digit token '01' at position 2"),
    ("1" + ".0" * 8 + ".00.0!", "bad digit token '00' at position 2"),
    ("1" + ".0" * 6 + ".10.0.0.0!", "bad digit token '10' at position 4"),
    ("1" + ".0" * 8 + ".9.2!", "digit 2 at position 1 outside [0, 1]"),
    ("0" + ".0" * 10 + "!", "leading zero digit at position 11"),
])
def test_parse_errors_in_long_text(text, message):
    with pytest.raises(MalformedRepresentationError,
                       match=f"^{re.escape(message)}$"):
        parse(text)


def test_parse_refuses_every_non_ascii_digit():
    # str.isdigit holds for these; each must meet the bad-token error,
    # never int(), which rejects some and reads others as 0-9.
    others = [chr(c) for c in range(128, 0x110000) if chr(c).isdigit()]
    assert len(others) > 500
    for ch in others:
        for text, pos in ((ch + "!", 1), ("1." + ch + "!", 1),
                          (ch + ".0!", 2)):
            with pytest.raises(MalformedRepresentationError,
                               match=f"^bad digit token .* at position {pos}$"):
                parse(text)


def test_format_parse_roundtrip_random():
    rng = random.Random(31)
    for _ in range(500):
        n = rng.randrange(0, 10 ** 12)
        assert to_natural(parse(factoradic.format(to_factoradic(n)))) == n


def test_digit_count_matches_length():
    rng = random.Random(55)
    assert digit_count(0) == 0
    for _ in range(500):
        n = rng.randrange(1, 10 ** 12)
        assert digit_count(n) == len(to_factoradic(n).digits)


def test_rep_validates_on_construction():
    with pytest.raises(MalformedRepresentationError):
        FactoradicRep((1, 3))
    with pytest.raises(MalformedRepresentationError):
        FactoradicRep((1, 2, 0))


# parse and format read and print through a table of digit texts for
# strings of up to 4,096 digits, and without one past that; these hold
# both sides of that edge to the definition of the text form.

def _read_by_definition(text):
    """Digits of text, read token by token; errors worded as parse words them."""
    if not text.endswith("!"):
        raise MalformedRepresentationError(
            f"missing '!' terminator after {text[-40:]!r}")
    if text == "0!":
        return ()
    tokens = text[:-1].split(".")
    for pos, tok in zip(range(len(tokens), 0, -1), tokens):
        if (not all("0" <= c <= "9" for c in tok) or not tok
                or (len(tok) > 1 and tok[0] == "0")
                or len(tok) > len(str(pos))):
            raise MalformedRepresentationError(
                f"bad digit token {tok[:40]!r} at position {pos}")
    if tokens[0] == "0":
        raise MalformedRepresentationError(
            f"leading zero digit at position {len(tokens)}")
    digits = tuple(int(tok) for tok in reversed(tokens))
    for i, a in enumerate(digits, start=1):
        if a > i:
            raise MalformedRepresentationError(
                f"digit {a} at position {i} outside [0, {i}]")
    return digits


def _text_by_definition(digits):
    return ".".join(str(a) for a in reversed(digits)) + "!" if digits else "0!"


def _random_digits(rng, k):
    return tuple(rng.randint(0, i) for i in range(1, k)) + (rng.randint(1, k),)


def _outcome(read, text):
    try:
        return read(text)
    except MalformedRepresentationError as exc:
        return str(exc)


TABLE_EDGE_COUNTS = sorted({1} | {2 ** b + d for b in range(1, 14) for d in (-1, 0, 1)})


@pytest.mark.parametrize("k", TABLE_EDGE_COUNTS)
def test_parse_and_format_match_the_definition(k):
    rng = random.Random(k)
    for digits in (_random_digits(rng, k), tuple(range(1, k + 1))):
        text = factoradic.format(FactoradicRep(digits))
        assert text == _text_by_definition(digits)
        assert parse(text).digits == _read_by_definition(text) == digits


MUTATIONS = {
    "leading zero": lambda tok, pos: "0" + tok,
    "one over its position": lambda tok, pos: str(pos + 1),
    "plus sign": lambda tok, pos: "+1",
    "space": lambda tok, pos: " 1",
    "underscore": lambda tok, pos: "1_0",
    "non-ASCII digit": lambda tok, pos: "\u0663",  # ARABIC-INDIC DIGIT THREE
    "empty": lambda tok, pos: "",
    "over-long": lambda tok, pos: "9" * (len(str(pos)) + 1),
    "zero": lambda tok, pos: "0",
}


@pytest.mark.parametrize("k, positions", [
    (12, range(1, 13)),
    (4096, (4096, 4095, 1000, 10, 1)),
    (4100, (4100, 4097, 4096, 2000, 10, 1)),
], ids=["12 digits", "4,096 digits", "4,100 digits"])
def test_parse_words_each_mutated_token_as_the_definition(k, positions):
    rng = random.Random(k)
    tokens = _text_by_definition(_random_digits(rng, k))[:-1].split(".")
    for pos in positions:
        for name, mutate in MUTATIONS.items():
            mutated = tokens.copy()
            mutated[k - pos] = mutate(tokens[k - pos], pos)
            text = ".".join(mutated) + "!"
            expected = _outcome(_read_by_definition, text)
            assert _outcome(lambda t: parse(t).digits, text) == expected, (name, pos)
            if pos == k and name == "zero":
                assert expected == f"leading zero digit at position {k}"


def test_digit_table_first_use_from_threads():
    # More threads than cores all meet the table's first use at once,
    # with a short switch interval; each must read and print its own
    # string exactly.
    rng = random.Random(9)
    reps = [FactoradicRep(_random_digits(rng, k))
            for k in (1, 2, 7, 300, 4095, 4096, 4097, 6000)] * 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            factoradic._digit_texts.cache_clear()
            barrier = threading.Barrier(len(reps))

            def round_trip(rep):
                barrier.wait(timeout=30)
                text = factoradic.format(rep)
                return text, parse(text)

            with ThreadPoolExecutor(max_workers=len(reps)) as pool:
                results = list(pool.map(round_trip, reps, timeout=60))
            for rep, (text, back) in zip(reps, results):
                assert text == _text_by_definition(rep.digits) and back == rep
    finally:
        sys.setswitchinterval(interval)
