import math
import os
import random
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    _density_path, _step_images, index_table, loop_natural, loop_step)
from facthappy import dynamics
from facthappy.analysis import density, smallest_runs
from facthappy.dynamics import (
    DENSITY_WORK_LIMIT,
    EXPONENT_LIMIT,
    Attractor,
    AttractorAtlas,
    CertificationError,
    DescentBound,
    OrbitCapError,
    classify,
    descent_bound,
    enumerate_attractors,
    happy_step,
    happy_step_nat,
    iterate,
    smallest_j,
    step_image_bound,
    step_sum_tally,
    _density_work,
    _high_sum,
    _packed_tally,
)
from facthappy.factoradic import FactoradicRep, digit_count, to_factoradic

# Fixed points and cycles for each certified exponent, in canonical form.
EXPECTED_ATLAS = {
    1: ((1,), ()),
    2: ((1, 4, 5), ()),
    3: ((1, 16, 17), ()),
    4: ((1, 658, 659), ()),
    5: ((1, 34, 35, 308, 309, 1058, 1059), ((2114, 3401),)),
    6: ((1, 8258, 8259), ((67, 794, 731),)),
}
EXPECTED_BOUND = {1: 5, 2: 23, 3: 119, 4: 5039, 5: 40319, 6: 362879}
EXPECTED_TAIL_OFFSET = {1: 0, 2: 0, 3: -13, 4: -260, 5: -7162, 6: -144501}
EXPECTED_MEMO_BOUND = {1: 3, 2: 14, 3: 100, 4: 2275, 5: 29008, 6: 446964}
# Beyond the paper's e <= 6: fixed points, and each cycle's least member
# with its length.
EXPECTED_ATLAS_BEYOND = {
    7: ((1, 130, 131, 2318, 2319, 2939396, 2939397, 3205134, 3205135),
        ((4631, 3), (16387, 2), (18828, 8), (18956, 2), (298639, 5))),
    8: ((1, 528260, 528261, 2201570, 2201571),
        ((66052, 65), (6352547, 3))),
}
# |Im|, Im = S([1, memo_bound]), the values the atlas stores.
EXPECTED_IMAGE_SET_SIZE = {1: 2, 2: 6, 3: 31, 4: 193, 5: 779, 6: 5290,
                           7: 28244, 8: 122664}


def test_happy_step_examples():
    assert happy_step(to_factoradic(2020), 2) == 40
    assert happy_step(to_factoradic(4), 2) == 4
    assert happy_step(to_factoradic(17), 3) == 17
    for e in range(1, 7):
        assert happy_step(to_factoradic(0), e) == 0


def test_happy_step_nat_examples():
    assert happy_step_nat(5, 2) == 5
    assert happy_step_nat(9, 4) == 3
    for e in range(1, 9):
        assert happy_step_nat(1, e) == 1
        assert happy_step_nat(0, e) == 0


def test_happy_step_rejects_bad_exponent():
    with pytest.raises(ValueError):
        happy_step_nat(10, 0)


def test_iterate_examples():
    assert iterate(2020, 2, 5) == 1
    assert iterate(2021, 2, 3) == 5
    for n in (0, 1, 17, 2020):
        assert iterate(n, 3, 0) == n


def test_step_images_range_matches_direct():
    rng = random.Random(4)
    nine = math.factorial(9)
    ranges = [(lo, lo + 3000) for lo in
              (rng.randrange(0, 10 ** 6) for _ in range(3))]
    # hi < lo (empty), lo = 0, lo = hi, and a new top digit at 9!
    ranges += [(10, 9), (0, 200), (777, 777), (nine - 5, nine + 5)]
    for e in (1, 2, 5):
        for lo, hi in ranges:
            images = list(_step_images(e, lo, hi))
            assert images == [happy_step_nat(n, e) for n in range(lo, hi + 1)]


@pytest.mark.parametrize("e, j", [(1, 2), (2, 3), (3, 4), (4, 6), (5, 7), (6, 8)])
def test_smallest_j(e, j):
    assert smallest_j(e) == j


@pytest.mark.parametrize("e", range(1, 10))
def test_smallest_j_is_minimal(e):
    j = smallest_j(e)
    assert math.factorial(j) > j ** (e - 1)
    if j > 1:
        assert math.factorial(j - 1) <= (j - 1) ** (e - 1)


@pytest.mark.parametrize("e", range(1, 7))
def test_descent_bound_values(e):
    bound = descent_bound(e)
    assert bound.j == smallest_j(e)
    assert bound.bound == EXPECTED_BOUND[e]
    assert bound.tail_offset == EXPECTED_TAIL_OFFSET[e]
    assert bound.certificate_ok
    assert bound.failed_checks == ()


def test_descent_bound_certifies_larger_exponents():
    for e in range(7, 16):
        assert descent_bound(e).certificate_ok


@pytest.mark.parametrize("e", range(1, 41))
def test_descent_tail_matches_definition(e):
    j = smallest_j(e)
    definition = sum(min(a * math.factorial(i) - a ** e for a in range(i + 1))
                     for i in range(2, j))
    assert descent_bound(e).tail_offset == definition


def test_exponent_limit():
    # A refused exponent builds no table: the step tables and every
    # lru_cache of dynamics, by whatever name, stay empty.
    assert smallest_j(EXPONENT_LIMIT) > EXPONENT_LIMIT
    assert descent_bound(EXPONENT_LIMIT).certificate_ok
    caches = [f for f in vars(dynamics).values() if hasattr(f, "cache_info")]
    for cache in caches:
        cache.cache_clear()
    dynamics._STEP_TABLES.clear()
    for call in (smallest_j, descent_bound, lambda e: classify(2021, e),
                 lambda e: happy_step_nat(2021, e),
                 lambda e: iterate(2021, e, 3),
                 lambda e: happy_step(to_factoradic(2021), e),
                 lambda e: step_sum_tally(e, 2021)):
        for e in (EXPONENT_LIMIT + 1, 10 ** 6):
            started = time.perf_counter()
            with pytest.raises(ValueError, match=f"^exponent {e} is above "):
                call(e)
            assert time.perf_counter() - started < 0.05
    assert all(cache.cache_info().currsize == 0 for cache in caches)
    assert not dynamics._STEP_TABLES



def test_non_integer_exponent_is_refused():
    # True == 1 and 2.0 == 2, but only an int exponent is an exponent.
    calls = (smallest_j, descent_bound, enumerate_attractors,
             lambda e: classify(5, e), lambda e: happy_step_nat(10 ** 300, e),
             lambda e: happy_step_nat(5, e), lambda e: iterate(5, e, 2),
             lambda e: happy_step(to_factoradic(5), e),
             lambda e: step_sum_tally(e, 2021), lambda e: step_image_bound(e, 10))
    for call in calls:
        for e in (2.5, 2.0, 1.0, Fraction(2), "2", True, False, 0):
            with pytest.raises(ValueError, match=re.escape(
                    f"exponent must be a positive integer, got {e}") + "$"):
                call(e)


@pytest.mark.parametrize("call, text", [
    (lambda: classify(True, 2), "n must be an int, got True"),
    (lambda: classify(2.5, 2), "n must be an int, got 2.5"),
    (lambda: classify(5, 2, cap=2.5), "cap must be an int, got 2.5"),
    (lambda: iterate(5.0, 2, 2), "n must be an int, got 5.0"),
    (lambda: iterate(5, 2, Fraction(2)),
     "count must be an int, got Fraction(2, 1)"),
], ids=["classify bool n", "classify float n", "classify cap", "iterate n",
        "iterate count"])
def test_non_int_start_cap_and_count_are_refused(call, text):
    # Unchecked, True would be classified as the attractor "True", a
    # float n would break on its first step and a float cap would count.
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == text


def test_descent_bound_reports_each_failed_check(monkeypatch):
    # Every e in 1..200 passes its checks; j = 1 at e = 5 fails all three:
    # 1! = 1^4, 2^4 > 1^4 * 2 and 2! - 2^4 + 0 < 0.
    real = dynamics.smallest_j
    monkeypatch.setattr(dynamics, "smallest_j",
                        lambda e: 1 if e == 5 else real(e))
    bound = descent_bound(5)
    assert bound.failed_checks == ("base_case", "induction_step", "dominance")
    assert bound.certificate_ok is False
    with pytest.raises(CertificationError, match=re.escape(
            "exponent 5: certificate checks failed: base_case, "
            "induction_step, dominance") + "$"):
        enumerate_attractors(5)


def test_negative_step_input_and_count_are_refused():
    with pytest.raises(ValueError,
                       match="^expected a nonnegative integer, got -1$"):
        happy_step_nat(-1, 2)
    with pytest.raises(ValueError,
                       match="^iteration count must be nonnegative, got -1$"):
        iterate(5, 2, -1)


def test_happy_step_nat_matches_loop_at_block_and_table_edges():
    # Both steps against the definition at 7!-block edges, around
    # _TABLE_BITS bits, at the largest k! - 1 below 2^_TABLE_BITS (every
    # digit maximal), and at digit strings whose top digit sits at
    # positions 4,096-4,098: the kept powers' last entry and the first
    # two past it. From an empty cache, ascending (the powers grow a
    # little at each longer n) and descending (they grow once, to the cap).
    rng = random.Random(672)
    block = math.factorial(7)
    values = [k * block + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    bits = dynamics._TABLE_BITS
    for b in (bits - 1, bits, bits + 1):
        high = 1 << (b - 1)
        values += [(1 << b) - 1, high, rng.getrandbits(b - 1) | high]
    k = max(j for j in range(bits) if math.factorial(j) <= 1 << bits)
    values.append(math.factorial(k) - 1)
    for top in (4096, 4097, 4098):
        values.append(loop_natural(tuple(range(1, top + 1))))
        values.append(loop_natural(
            tuple(rng.randint(0, i) for i in range(1, top)) + (top,)))
    for e in (1, 2, 5, 8, EXPONENT_LIMIT):
        expected = [loop_step(n, e) for n in values]
        for order in (1, -1):
            dynamics._STEP_TABLES.clear()
            for n, want in list(zip(values, expected))[::order]:
                assert happy_step_nat(n, e) == want, (n.bit_length(), e)
                assert happy_step(to_factoradic(n), e) == want
            powers = dynamics._step_tables(e)[0]
            assert powers == [a ** e for a in range(dynamics._POWERS_TOP + 1)]


def test_kept_powers_start_at_the_table_digits_and_stop_at_the_cap():
    dynamics._STEP_TABLES.clear()
    k = digit_count((1 << dynamics._TABLE_BITS) - 1)
    assert len(dynamics._step_tables(5)[0]) == k + 1
    happy_step_nat(math.factorial(201) - 1, 5)  # the digits 1..200
    assert len(dynamics._step_tables(5)[0]) == 201
    n = 10 ** 10 ** 5 - 1  # 25,205 digits
    want = sum(a ** 5 for a in to_factoradic(n).digits)
    assert happy_step_nat(n, 5) == want
    assert len(dynamics._step_tables(5)[0]) == dynamics._POWERS_TOP + 1 <= 4097


def test_kept_powers_grown_by_threads():
    # Threads that each step a digit string longer than the one shared
    # kept list grow it at once, with powers slow enough at e = 200 that
    # the growths overlap; every step is right and the list holds each
    # power once, in order.
    e = EXPONENT_LIMIT
    rng = random.Random(38)
    reps = [FactoradicRep(tuple(rng.randint(0, i) for i in range(1, k)) + (k,))
            for k in (130, 700, 2000, 4096, 4097, 5000)] * 2
    expected = [sum(a ** e for a in d.digits) for d in reps]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            dynamics._STEP_TABLES.clear()
            happy_step_nat(1, e)  # the entry every thread reads
            barrier = threading.Barrier(len(reps))
            results = [None] * len(reps)

            def step(i):
                barrier.wait(timeout=30)
                results[i] = happy_step(reps[i], e)

            threads = [threading.Thread(target=step, args=(i,))
                       for i in range(len(reps))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == expected
            powers = dynamics._step_tables(e)[0]
            assert powers == [a ** e for a in range(dynamics._POWERS_TOP + 1)]
    finally:
        sys.setswitchinterval(interval)


def test_step_tables_built_once_by_racing_first_calls(monkeypatch):
    # More threads than cores make their first call at one exponent at
    # once, from a cold cache: one build, and every thread gets the one
    # kept entry, so all step with the same powers list.
    e = EXPONENT_LIMIT
    builds = []
    build = dynamics._build_step_tables

    def counted(e):
        builds.append(e)
        return build(e)

    monkeypatch.setattr(dynamics, "_build_step_tables", counted)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    count = min(2 * cores + 2, 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            dynamics._STEP_TABLES.clear()
            builds.clear()
            barrier = threading.Barrier(count)
            tables = [None] * count
            steps = [None] * count

            def first_call(i):
                barrier.wait(timeout=30)
                tables[i] = dynamics._step_tables(e)
                steps[i] = happy_step_nat(2021, e)

            threads = [threading.Thread(target=first_call, args=(i,))
                       for i in range(count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert builds == [e]
            kept = dynamics._step_tables(e)
            assert all(t is kept for t in tables)
            assert steps == [loop_step(2021, e)] * count
    finally:
        sys.setswitchinterval(interval)


def test_descent_above_bound_randomized():
    rng = random.Random(1234)
    for e in range(2, 7):
        m = descent_bound(e).bound
        for _ in range(10 ** 4):
            n = rng.randrange(m + 1, 10 ** 9)
            assert happy_step_nat(n, e) < n


@pytest.mark.parametrize("e", range(1, 7))
def test_enumerate_attractors_table(e, atlas):
    at = atlas(e)
    fixed, cycles = EXPECTED_ATLAS[e]
    assert at.fixed_points == fixed
    assert tuple(c.members for c in at.cycles) == cycles
    assert at.bound == EXPECTED_BOUND[e]


@pytest.mark.parametrize("e", range(1, 7))
def test_atlas_classifies_everything(e, atlas):
    at = atlas(e)
    for n in range(1, at.memo_bound + 1):
        idx = at.attractor_index(n)
        assert 0 <= idx < len(at.attractors)
    # spot-check the stored step counts against direct iteration
    rng = random.Random(e)
    for _ in range(300):
        n = rng.randrange(1, at.bound + 1)
        att, steps = at.lookup(n)
        assert iterate(n, e, steps) in att.members
        if steps:
            assert iterate(n, e, steps - 1) not in att.members


def test_atlas_members_are_actual_orbits(atlas):
    for e in range(1, 7):
        at = atlas(e)
        for p in at.fixed_points:
            assert happy_step_nat(p, e) == p
        for cyc in at.cycles:
            ms = cyc.members
            for a, b in zip(ms, ms[1:] + ms[:1]):
                assert happy_step_nat(a, e) == b


def _assert_matches_oracle(at, n):
    report = classify(n, at.e)  # no atlas: first-repeat detection
    assert at.lookup(n) == (report.attractor, report.steps_to_attractor)


@pytest.mark.parametrize("e", range(1, 6))
def test_atlas_matches_oracle_exhaustively(e, atlas):
    at = atlas(e)
    for n in range(1, max(at.bound, at.memo_bound) + 1):
        _assert_matches_oracle(at, n)


@pytest.mark.parametrize("e", range(1, 7))
def test_memo_is_smallest_step_closed_range(e, atlas):
    at = atlas(e)
    assert at.memo_bound == step_image_bound(e, at.bound) == EXPECTED_MEMO_BOUND[e]
    assert max(_step_images(e, 1, at.memo_bound)) <= at.memo_bound
    for att in at.attractors:
        assert max(att.members) <= at.memo_bound


@pytest.mark.parametrize("e", range(2, 7))
def test_lookup_above_memo_matches_oracle(e, atlas):
    at = atlas(e)
    values = {10 ** 30, 10 ** 300}
    for k in range(2, 41):
        values.update((math.factorial(k) - 1, math.factorial(k) + 1))
    for n in sorted(values):
        _assert_matches_oracle(at, n)
        assert at.attractor_index(n) == at.attractors.index(at.lookup(n)[0])


@pytest.mark.parametrize("e", range(1, 9))
def test_extended_index_table_matches_attractor_index(e, atlas):
    at = atlas(e)
    block = math.factorial(7)
    low = dynamics._step_tables(e)[1]
    assert low == tuple(loop_step(n, e) for n in range(block))
    uppers = {0, 1, 2}
    uppers.update(k * block + d for k in (1, 2, 3) for d in (-1, 0, 1))
    if e <= 6:
        uppers.update(at.memo_bound + d for d in (-1, 0, 1))
    expected = [-1] + [at.attractor_index(n) for n in range(1, max(uppers) + 1)]
    for upper in sorted(uppers):
        table = at.extended_index_table(upper)
        assert len(table) > upper
        assert list(table[1:upper + 1]) == expected[1:upper + 1]


@pytest.mark.parametrize("e", range(1, 9))
def test_extended_index_table_matches_definition_table(e, atlas):
    # index_table resolves n <= memo_bound through the atlas and reads
    # any larger n at S(n), streamed by the factoradic counter.
    at = atlas(e)
    upper = 3 * 10 ** 5 if e <= 6 else 2 * 10 ** 4
    table = at.extended_index_table(upper)
    assert len(table) > upper
    assert list(table[1:upper + 1]) == index_table(at, upper)[1:upper + 1]


def test_high_sum_matches_definition():
    # The step of q * 7! is the power sum of its digits from the 7! place
    # up, whose radices are 8, 9, ...: block edges of each radix, and
    # random q up to the largest quotient happy_step_nat passes.
    block = math.factorial(7)
    rng = random.Random(672)
    largest = (1 << dynamics._TABLE_BITS) // block
    qs = {0, 1, largest} | {rng.randrange(largest) for _ in range(200)}
    for k in range(8, 30):
        edge = math.factorial(k) // block
        qs.update((edge - 1, edge, edge + 1, 2 * edge - 1, 2 * edge))
    for e in range(1, 9):
        powers = dynamics._step_tables(e)[0]
        for q in qs:
            assert _high_sum(q, powers) == loop_step(q * block, e), (q, e)


@pytest.mark.parametrize("e", range(1, 9))
def test_extended_index_table_one_pass_blocks(e, atlas):
    # From the first 7!-block whose largest image lies below its base, a
    # block is read from the earlier entries alone.
    at = atlas(e)
    block, (powers, low) = math.factorial(7), dynamics._step_tables(e)
    first = next(q * block for q in range(1, 10 ** 8 // block)
                 if _high_sum(q, powers) + low[-1] < q * block)
    table = at.extended_index_table(first + 2 * block)
    for n in range(max(1, first - block), first + 2 * block + 1):
        assert table[n] == at.attractor_index(n)


def _fresh(at):
    """An atlas with at's classification and no kept index table yet."""
    return AttractorAtlas(at.e, at.bound, at.memo_bound, at.attractors,
                          at._index, at._steps)


_BLOCK_EDGES = [k * math.factorial(7) + d
                for k in range(1, 60) for d in (-1, 0, 1)]


def _gather_edges(e):
    """Uppers at and inside the 7!-blocks where the one-gather fill starts
    or stops at e (its largest image drops below the block's base, or
    rises past it again), up to block 72."""
    block, (powers, low) = math.factorial(7), dynamics._step_tables(e)
    gathers = [_high_sum(q, powers) + low[-1] < q * block for q in range(73)]
    return [q * block + d for q in range(1, 73) if gathers[q] != gathers[q - 1]
            for d in (-1, 0, 1, block // 2, block - 2, block - 1)]


_GATHER_EDGES = sorted({n for e in range(2, 7) for n in _gather_edges(e)})


@pytest.mark.parametrize("e", range(2, 7))
@settings(max_examples=25, deadline=None)
@given(uppers=st.lists(st.one_of(st.integers(-3, 0), st.integers(1, 3 * 10 ** 5),
                                 st.sampled_from(_BLOCK_EDGES),
                                 st.sampled_from(_GATHER_EDGES)),
                       min_size=1, max_size=8))
@example(uppers=_GATHER_EDGES)  # each call resumes a kept table ending mid-block
@example(uppers=[n - 1 for n in _GATHER_EDGES[::-1]])  # one build, then reads
def test_kept_table_matches_definition_table(e, atlas, uppers):
    # Uppers that grow, shrink, repeat and cross 7!-block edges, on one
    # atlas: each call's entries 1..upper are what a table built for it
    # alone would hold. The examples walk every block edge where the
    # one-gather fill starts or stops at e = 2..6, a partial last block
    # on each side of those edges, and fills that resume in mid-block.
    at = _fresh(atlas(e))
    for upper in uppers:
        table, top = at.extended_index_table(upper), max(upper, 0)
        assert len(table) > top
        assert list(table[1:top + 1]) == index_table(at, top)[1:top + 1]


def test_table_fill_peaks_near_one_byte_per_entry(atlas):
    # runs --e 6 at the default cap fills entries 1..978,405: a bytearray
    # grown in place and copied once into the kept bytes, no list of
    # pointers (8 bytes per entry) on the way.
    at, upper = _fresh(atlas(6)), 978_405
    tracemalloc.start()
    try:
        table = at.extended_index_table(upper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) > upper
    assert peak < 3 * upper, peak


def test_kept_table_is_returned_as_immutable_bytes(atlas):
    # The kept table itself is handed out: no caller can write to it, and
    # a covered upper returns the very object, however far short it falls.
    at = _fresh(atlas(5))
    table = at.extended_index_table(6000)
    assert type(table) is bytes
    with pytest.raises(TypeError):
        table[1] = 7
    for upper in (6000, 5000, 1, 0, -2):
        assert at.extended_index_table(upper) is table
    grown = at.extended_index_table(12_000)
    assert grown is not table and grown[:5040] == table[:5040]
    assert at.extended_index_table(6000) is grown


def test_covered_upper_builds_nothing(atlas, monkeypatch):
    calls = []
    high_sum = dynamics._high_sum
    monkeypatch.setattr(dynamics, "_high_sum",
                        lambda q, powers: calls.append(q) or high_sum(q, powers))
    at = _fresh(atlas(4))
    at.extended_index_table(3 * math.factorial(7) - 1)
    assert calls == [0, 1, 2]
    calls.clear()
    for upper in (3 * math.factorial(7) - 1, 5040, 1, 0, -2):
        at.extended_index_table(upper)
    assert calls == []
    at.extended_index_table(3 * math.factorial(7))  # one block past the end
    assert calls == [3]
    calls.clear()
    at.extended_index_table(4 * math.factorial(7) + 10)  # resumes at block 3
    assert calls == [3, 4]


def test_kept_table_shared_by_threads(atlas):
    # Threads that grow one atlas's table at once may each build and
    # publish; whichever table is kept, every call's entries 1..upper
    # are right.
    at = _fresh(atlas(5))
    expected = index_table(at, 60_000)
    uppers = [5039, 60_000, 5040, 30_000, 1, 45_000, 10_080, 59_999]
    failures = []

    def reader(k):
        for upper in uppers[k:] + uppers[:k]:
            table = at.extended_index_table(upper)
            if len(table) <= upper or \
                    list(table[1:upper + 1]) != expected[1:upper + 1]:
                failures.append((k, upper))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_kept_table_refuses_an_index_past_a_byte(atlas):
    # Every atlas the work limit admits has at most 14 attractors; an
    # index past 255 raises rather than wraps.
    at = atlas(2)
    many = tuple(Attractor.fixed_point(p) for p in range(1, 258))
    wide = AttractorAtlas(2, at.bound, at.memo_bound, many,
                          dict.fromkeys(at._index, 256), at._steps)
    kept = wide._table
    with pytest.raises(ValueError, match=r"range\(0, 256\)"):
        wide.extended_index_table(10)
    assert wide._table is kept and kept == bytes(1)


# The census workload's run sweeps (e, m_max, search cap), each beside a
# density over [1, 10! - 1] at the same exponent; at e <= 4 both read
# the index table.
_CENSUS_PAIRS = ((2, 11, 10 ** 4), (3, 41, 10 ** 4), (4, 602, 10 ** 4),
                 (5, 10, 800_000))


@pytest.mark.parametrize("e, m_max, cap", _CENSUS_PAIRS)
def test_density_and_runs_agree_on_a_shared_atlas(e, m_max, cap, atlas):
    upper = math.factorial(10) - 1

    def runs(at):
        return smallest_runs(e, 1, m_max, at, search_cap=cap)

    alone = density(e, upper, _fresh(atlas(e))), runs(_fresh(atlas(e)))
    shared = _fresh(atlas(e))
    assert (density(e, upper, shared), runs(shared)) == alone
    shared = _fresh(atlas(e))
    assert runs(shared) == alone[1]
    assert density(e, upper, shared) == alone[0]
    assert (density(e, upper, shared), runs(shared)) == alone


@pytest.mark.parametrize("e", range(1, 7))
def test_atlas_lookup_of_every_image_value_matches_oracle(e, atlas):
    at = atlas(e)
    for v in at._index:
        _assert_matches_oracle(at, v)


def test_atlas_rejects_nonpositive(atlas):
    at = atlas(2)
    for n in (0, -1):
        with pytest.raises(ValueError, match="positive integer"):
            at.attractor_index(n)
        with pytest.raises(ValueError, match="positive integer"):
            at.lookup(n)


def test_atlas_matches_oracle_sampled_e6(atlas):
    at = atlas(6)
    rng = random.Random(2019)
    sample = {rng.randrange(1, at.memo_bound + 1) for _ in range(5000)}
    for edge in (at.bound, at.memo_bound):
        sample.update(range(max(1, edge - 100), min(at.memo_bound, edge + 100) + 1))
    for n in sorted(sample):
        _assert_matches_oracle(at, n)


def test_atlas_limit_admits_e8_refuses_e9():
    # The one work limit: the step-sum tally over [0, memo_bound] fits it
    # up to e = 8; EXPONENT_LIMIT refuses a huge e before any tally.
    for e in range(1, 10):
        memo_bound = step_image_bound(e, descent_bound(e).bound)
        work = _density_work(e, digit_count(memo_bound))
        assert (work <= DENSITY_WORK_LIMIT) == (e <= 8)
    for e in (9, 10, EXPONENT_LIMIT, EXPONENT_LIMIT + 1, 10 ** 6):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"^exponent {e}[: ]"):
            enumerate_attractors(e)
        assert time.perf_counter() - started < 1


@pytest.mark.parametrize("e", range(1, 9))
def test_atlas_stores_exactly_the_closed_image_set(e, atlas):
    at = atlas(e)
    image_set = set(step_sum_tally(e, at.memo_bound)) - {0}
    if e <= 6:  # by definition: stream every n in [1, memo_bound]
        assert image_set == set(_step_images(e, 1, at.memo_bound))
    assert len(image_set) == EXPECTED_IMAGE_SET_SIZE[e]
    assert set(at._index) == set(at._steps) == image_set
    assert all(happy_step_nat(v, e) in image_set for v in image_set)
    for att in at.attractors:
        assert set(att.members) <= image_set


def _tally_uppers():
    """Uppers around factorials, and ones with zero factoradic digits.

    k! and k! + 1 have zeros at every position but the top one or two;
    the last two have a zero just below the top and zeros low down.
    """
    uppers = [0, 1, 5, 23, 24, 719, 5000, math.factorial(8) + 17]
    for k in range(1, 9):
        f = math.factorial(k)
        uppers += [f - 1, f, f + 1, 2 * f]
    uppers += [loop_natural((1, 2, 1, 2, 5, 0, 3)),
               loop_natural((0, 0, 0, 4, 0, 6, 2))]
    return uppers


def test_step_sum_tally_matches_stream():
    for e in range(1, 9):
        for upper in _tally_uppers():
            assert step_sum_tally(e, upper) == Counter(_step_images(e, 0, upper))


@settings(deadline=None)
@given(e=st.integers(1, 8), upper=st.integers(0, 5 * 10 ** 4))
def test_step_sum_tally_matches_stream_property(e, upper):
    assert step_sum_tally(e, upper) == Counter(_step_images(e, 0, upper))


def _shift_every_digit_tally(e, upper):
    """The tally recurrence with every digit a shifted in, a = 0 included."""
    digits = to_factoradic(upper).digits
    low, tally = {0: 1}, {0: 1}
    for i, d in enumerate(digits, start=1):
        grown = Counter()
        for a in range(d):
            for s, c in low.items():
                grown[s + a ** e] += c
        below = Counter(grown)
        for s, c in tally.items():
            below[s + d ** e] += c
        tally = dict(below)
        for a in range(d, i + 1):
            for s, c in low.items():
                grown[s + a ** e] += c
        low = grown
    return tally


def test_step_sum_tally_key_order():
    for e in (1, 2, 5, 8):
        for upper in _tally_uppers():
            assert list(step_sum_tally(e, upper).items()) == \
                list(_shift_every_digit_tally(e, upper).items())


def _maximal_prefix_uppers():
    """d * k! - 1, and uppers whose run of maximal digits breaks at b.

    Below d * k! - 1 every digit is maximal; in the others, positions
    1..b-1 hold their largest digit, position b a smaller one, and up to
    two digits follow, eight digits in all.
    """
    uppers = {d * math.factorial(k) - 1
              for k in range(1, 10) for d in range(1, k + 1)}
    for b in range(1, 9):
        for d in range(b):
            for tail in ((), (b + 1,), (1,), (0, b + 2)):
                if b + len(tail) <= 8:
                    uppers.add(loop_natural(tuple(range(1, b)) + (d,) + tail))
    return sorted(uppers)


@pytest.mark.parametrize("e", range(1, 9))
def test_step_sum_tally_on_maximal_prefixes(e):
    # While every digit so far is maximal the tally is low itself.
    for upper in _maximal_prefix_uppers():
        assert list(step_sum_tally(e, upper).items()) == \
            list(_shift_every_digit_tally(e, upper).items())


def test_atlas_keeps_the_free_tallies_of_its_build(atlas):
    # low_i, the tally of [0, (i+1)! - 1], for each i below the digit
    # count of memo_bound: its keys lie in Im and 0.
    for e in range(1, 9):
        at = atlas(e)
        assert type(at._lows) is tuple
        assert len(at._lows) == digit_count(at.memo_bound) - 1
        for i, low in enumerate(at._lows, start=1):
            assert low == step_sum_tally(e, math.factorial(i + 1) - 1)
            assert low.keys() <= at._index.keys() | {0}


@settings(deadline=None, max_examples=60)
@given(e=st.integers(1, 6), upper=st.integers(0, math.factorial(12) - 1))
@example(e=6, upper=math.factorial(10) - 1)
@example(e=6, upper=2_691_830)
@example(e=6, upper=math.factorial(9) - 1)
@example(e=5, upper=math.factorial(12) - 1)
def test_tally_from_kept_lows_matches_a_fresh_tally(atlas, e, upper):
    # With the kept list and without it, the same counts in the same order.
    assert list(atlas(e).step_sum_tally(upper).items()) == \
        list(step_sum_tally(e, upper).items())


@pytest.mark.parametrize("upper", [math.factorial(11) - 1,
                                   2 * math.factorial(10) + 17])
def test_tally_from_kept_lows_matches_a_fresh_tally_at_e7(atlas, upper):
    assert list(atlas(7).step_sum_tally(upper).items()) == \
        list(step_sum_tally(7, upper).items())


def test_atlas_without_kept_lows_builds_them():
    # An atlas built from six arguments keeps no tallies and builds all.
    at = enumerate_attractors(4)
    bare = _fresh(at)
    assert bare._lows == ()
    for upper in (0, 1, 23, 2021, math.factorial(8) - 1, 10 ** 6):
        assert bare.step_sum_tally(upper) == at.step_sum_tally(upper) == \
            step_sum_tally(4, upper)


def _packed_dict(e, upper):
    """The packed slots as a {step sum: count} dict of the nonzero ones.

    The last slot is the largest step sum met, so it is never zero.
    """
    slots = _packed_tally(e, upper)
    assert slots[-1]
    return {s: c for s, c in enumerate(slots) if c}


def test_packed_tally_matches_stream_and_dict_dp():
    # The stream oracle walks every value, so it checks the uppers up to
    # 8!; above that the recurrence that shifts every digit in is the
    # oracle. The dict DP is compared at every upper. Uppers with over
    # 10^6 slots, which take seconds each at e = 7 and 8, where density
    # never packs them, are left out.
    for e in range(1, 9):
        for upper in _tally_uppers() + _maximal_prefix_uppers():
            if step_image_bound(e, upper) >= 10 ** 6:
                continue
            packed = _packed_dict(e, upper)
            assert packed == step_sum_tally(e, upper)
            assert list(packed) == sorted(packed)
            if upper <= math.factorial(8):
                assert packed == Counter(_step_images(e, 0, upper))
            else:
                assert packed == _shift_every_digit_tally(e, upper)


@settings(deadline=None)
@given(e=st.integers(1, 8), upper=st.integers(0, 5 * 10 ** 4))
def test_packed_tally_matches_stream_property(e, upper):
    assert _packed_dict(e, upper) == Counter(_step_images(e, 0, upper))


@pytest.mark.parametrize("e", range(1, 9))
def test_density_tally_of_zero_and_one(e, atlas):
    # Zero and one digits are dense at every e: the packed kernel runs,
    # and its slot 0, n = 0, is left out. 1 is the first fixed point.
    at = atlas(e)
    assert _packed_dict(e, 0) == {0: 1}
    assert _packed_dict(e, 1) == {0: 1, 1: 1}
    assert list(density(e, 1, at).counts.values()) == \
        [1] + [0] * (len(at.attractors) - 1)


@pytest.mark.parametrize("k, width", [(7, 8), (10, 16), (15, 32), (24, 64)])
def test_packed_tally_counts_past_each_slot_width(k, width):
    # The largest count needs more than width bits, so its slot is wider:
    # 16 bits (7! - 1) unpack in one cast, 24 (10! - 1) and 48 (15! - 1)
    # widened to 32 and 64 first, 80 (24! - 1) slot by slot.
    upper = math.factorial(k) - 1
    packed = _packed_dict(1, upper)
    assert packed == step_sum_tally(1, upper) == _shift_every_digit_tally(1, upper)
    assert max(packed.values()) >= 2 ** width


def test_packed_tally_wide_slots():
    # 21! - 1 is over 2 ** 64, so slots are 72 bits wide and unpack one
    # at a time.
    upper = math.factorial(21) - 1
    assert upper.bit_length() > 64
    assert _packed_dict(2, upper) == step_sum_tally(2, upper) == \
        _shift_every_digit_tally(2, upper)


@pytest.mark.parametrize("width", range(8, 80, 8))
def test_packed_tally_at_slot_width_edges(width):
    # 2 ** width - 2 is the last upper with width-bit slots: 8, 16, 32 and
    # 64 bits unpack in one cast, 24, 40, 48 and 56 are widened to 32 or
    # 64 first, and 72 unpack slot by slot.
    for upper in (2 ** width - 2, 2 ** width - 1, 2 ** width):
        for e in (1, 2):
            assert _packed_dict(e, upper) == step_sum_tally(e, upper) == \
                _shift_every_digit_tally(e, upper)


def test_density_path_for_census_and_boundary_inputs(monkeypatch):
    f10 = math.factorial(10)
    for e in (2, 3, 4, 5):
        assert _density_path(monkeypatch, e, f10 - 1) == "packed"
    assert _density_path(monkeypatch, 6, f10 - 1) == "dict"
    # The seeded census bounds lie within 1% below a share of 10! - 1.
    for e, share, path in ((4, 0.25, "packed"), (5, 0.5, "packed"),
                           (6, 0.75, "dict")):
        for upper in (int((f10 - 1) * share) - (f10 - 1) // 100,
                      int((f10 - 1) * share)):
            assert _density_path(monkeypatch, e, upper) == path
    for e, k, path in ((5, 10, "packed"), (5, 9, "dict"), (5, 11, "packed"),
                       (5, 14, "packed"), (6, 13, "dict"), (4, 10, "packed")):
        assert _density_path(monkeypatch, e, math.factorial(k) - 1) == path


# The least digit count density packs at, per exponent: below it top is
# at most memo_bound, or over _DENSE_RATIO times Catalan(k + 1) (e = 5 at
# k = 8); e >= 6 never packs within the work limit.
_FIRST_PACKED = {1: 3, 2: 4, 3: 5, 4: 7, 5: 9}


@pytest.mark.parametrize("e", range(1, 9))
def test_density_path_at_each_digit_count(e, monkeypatch):
    # Both ends of each digit count k, k! and (k+1)! - 1, take one form;
    # the whole calls at the small k this keeps on the dictionary were
    # slower packed (upper = 1, e = 4 at 3! - 1, e = 3 at 5! - 1).
    first = _FIRST_PACKED.get(e, math.inf)
    for k in range(1, 200):
        if _density_work(e, k) > DENSITY_WORK_LIMIT:
            break
        path = "packed" if k >= first else "dict"
        for upper in (math.factorial(k), math.factorial(k + 1) - 1):
            assert _density_path(monkeypatch, e, upper) == path, (k, upper)


@pytest.mark.parametrize("e", [2, 5])
def test_totals_of_values_past_the_table_bits(e, atlas):
    # A value over _TABLE_BITS bits has digits past the kept powers it
    # started with: its block's high sum is a whole step of the block base.
    at = atlas(e)
    bits = dynamics._TABLE_BITS
    values = [(1 << bits) - 1, 1 << bits, (1 << bits) + 7, 10 ** 300,
              math.factorial(200) - 1, 5, 3 * 10 ** 4000]
    tally = {v: i + 1 for i, v in enumerate(values)}
    expected = [0] * len(at.attractors)
    for v, c in tally.items():
        expected[at.attractor_index(v)] += c
    dynamics._STEP_TABLES.clear()  # the powers to 121 only
    assert at.totals(tally) == expected


def test_slot_classification_matches_totals(atlas):
    # The packed path against step_sum_tally's keys through atlas.totals.
    f10 = math.factorial(10)
    quarter = int((f10 - 1) * 0.25)  # the seeded census share at e = 4
    cases = [(2, f10 - 1), (3, f10 - 1), (4, f10 - 1),
             (4, quarter - (f10 - 1) // 100), (4, quarter),
             (2, math.factorial(21) - 1)]  # 72-bit slots, one at a time
    # 2 ** w - 2 is the last upper with w-bit slots, 2 ** w - 1 the first
    # with wider ones.
    cases += [(e, 2 ** w - d) for w in (8, 16, 32, 64) for d in (2, 1)
              for e in (1, 2)]
    for e, upper in cases:
        at = atlas(e)
        with pytest.MonkeyPatch.context() as mp:
            assert _density_path(mp, e, upper) == "packed"
        tally = step_sum_tally(e, upper)
        del tally[0]
        assert list(density(e, upper, at).counts.values()) == \
            at.totals(tally), (e, upper)
    # At k! - 1 every digit is maximal, so the largest step sum, the last
    # slot, is top, which the table covers.
    for e in (2, 3, 4):
        top = step_image_bound(e, f10 - 1)
        assert len(_packed_tally(e, f10 - 1)) == top + 1
        assert len(atlas(e).extended_index_table(top)) > top


@pytest.mark.parametrize("e", range(1, 9))
def test_density_tally_refuses_what_step_sum_tally_refuses(e, atlas, monkeypatch):
    k = next(k for k in range(3, 200)
             if _density_work(e, k) > DENSITY_WORK_LIMIT)  # digits of (k+1)!-1
    refused = math.factorial(k + 1) - 1
    with pytest.raises(ValueError) as dict_exc:
        step_sum_tally(e, refused)
    with pytest.raises(ValueError) as exc:
        density(e, refused, atlas(e))
    assert str(exc.value) == str(dict_exc.value)
    # The packed form meets the same work check before any of its DP.
    started = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        _packed_tally(e, refused)
    assert time.perf_counter() - started < 1
    assert str(exc.value) == str(dict_exc.value)
    accepted = math.factorial(k) - 1  # k - 1 digits
    assert _density_path(monkeypatch, e, accepted) == ("packed" if e <= 5 else "dict")


def test_totals_match_attractor_index(atlas):
    rng = random.Random(5040)
    for e in (2, 5, 6, 7):
        at = atlas(e)
        tally = {rng.randrange(1, 10 ** rng.randrange(1, 40)): rng.randrange(1, 9)
                 for _ in range(2000)}
        expected = [0] * len(at.attractors)
        for v, c in tally.items():
            expected[at.attractor_index(v)] += c
        assert at.totals(tally) == expected
        assert at.totals({}) == [0] * len(at.attractors)


@pytest.mark.parametrize("e", range(1, 9))
def test_totals_block_path_matches_attractor_index(atlas, e):
    # A value outside Im steps through the high sum of its 7!-block;
    # keys sit at block edges, crowd one block, lie in Im, and lie more
    # than one step away from Im.
    at = atlas(e)
    block = math.factorial(7)
    rng = random.Random(e)
    image = sorted(at._index)
    keys = set(rng.sample(image, min(len(image), 200)))
    for k in (1, 2, 3, 7, 88, 199, 10 ** 3, 10 ** 6, 10 ** 30):
        keys.update((k * block - 1, k * block, k * block + 1))
    keys.update(range(41 * block + 17, 41 * block + 617))
    keys.update(rng.randrange(1, 10 ** 12) for _ in range(300))
    far = [v for v in keys if v not in at._index
           and happy_step_nat(v, e) not in at._index]
    assert len(far) >= 100
    tally = {v: 1 + v % 5 for v in keys}
    expected = [0] * len(at.attractors)
    for v, c in tally.items():
        expected[at.attractor_index(v)] += c
    assert at.totals(tally) == expected
    for v in far[:50] + image[:50]:
        got = at.totals({v: 1})
        assert got[at.attractor_index(v)] == sum(got) == 1


def test_totals_rejects_nonpositive_values(atlas):
    at = atlas(2)
    for value in (0, -5):
        with pytest.raises(ValueError, match="positive"):
            at.totals({3: 1, value: 1})


@pytest.mark.parametrize("e", (7, 8))
def test_atlas_beyond_the_paper(e, atlas):
    at = atlas(e)
    fixed, cycles = EXPECTED_ATLAS_BEYOND[e]
    assert at.fixed_points == fixed
    assert [(c.members[0], len(c.members)) for c in at.cycles] == list(cycles)
    for p in at.fixed_points:
        assert happy_step_nat(p, e) == p
    for cyc in at.cycles:
        ms = cyc.members
        for a, b in zip(ms, ms[1:] + ms[:1]):
            assert happy_step_nat(a, e) == b
    rng = random.Random(e)
    for n in [rng.randrange(1, 10 ** 12) for _ in range(300)]:
        _assert_matches_oracle(at, n)



@pytest.mark.parametrize("e", range(1, 9))
def test_fixed_points_lead_the_attractors_in_ascending_order(e, atlas):
    # analysis and towers find a fixed point p by its place in
    # fixed_points, which is its place in attractors.
    at = atlas(e)
    fixed = at.fixed_points
    assert list(fixed) == sorted(fixed)
    assert at.attractors[:len(fixed)] == tuple(
        Attractor.fixed_point(p) for p in fixed)
    assert not any(a.is_fixed_point for a in at.attractors[len(fixed):])

def test_enumerate_attractors_refuses_failed_certificate(monkeypatch):
    fake = DescentBound(e=2, j=3, bound=23, tail_offset=0,
                        certificate_ok=False, failed_checks=("dominance",))
    monkeypatch.setattr(dynamics, "descent_bound", lambda e: fake)
    with pytest.raises(CertificationError):
        enumerate_attractors(2)


def test_classify_examples(atlas):
    r = classify(2021, 2, atlas(2))
    assert r.attractor == Attractor.fixed_point(5)
    assert r.steps_to_attractor == 3
    r = classify(3401, 5, atlas(5))
    assert r.attractor.members == (2114, 3401)
    assert r.steps_to_attractor == 0
    r = classify(1, 3)
    assert r.attractor == Attractor.fixed_point(1)
    assert r.steps_to_attractor == 0
    r = classify(18, 3, atlas(3))
    assert r.attractor == Attractor.fixed_point(1)
    assert r.steps_to_attractor == 4


def test_classify_with_and_without_atlas_agree(atlas):
    rng = random.Random(77)
    for e in (2, 4, 6):
        at = atlas(e)
        for _ in range(150):
            n = rng.randrange(1, 10 ** 8)
            direct = classify(n, e)
            memo = classify(n, e, at)
            assert direct.attractor == memo.attractor
            assert direct.steps_to_attractor == memo.steps_to_attractor


def test_classify_trace(atlas):
    r = classify(2020, 2, atlas(2), trace=True)
    assert r.trajectory == (2020, 40, 9, 3, 2, 1)
    r = classify(2020, 2, trace=True)
    assert r.trajectory == (2020, 40, 9, 3, 2, 1)
    r = classify(3401, 5, trace=True)
    assert r.trajectory == (3401,)


def test_classify_cap(atlas):
    with pytest.raises(OrbitCapError):
        classify(2020, 2, cap=2)
    with pytest.raises(OrbitCapError):
        classify(10 ** 30, 2, atlas(2), cap=1)
    # The cap counts only the walk itself: 3598 needs all 7 of its orbit
    # values without an atlas, and 4 steps to the image set with one.
    with pytest.raises(OrbitCapError, match="exceeded 5 steps$"):
        classify(3598, 2, cap=5)
    assert classify(3598, 2, atlas(2), cap=5).steps_to_attractor == 6


def test_classify_least_cap_without_atlas():
    # Without an atlas the walk keeps n and each new value up to the
    # first repeat, and those distinct values, n and the cycle included,
    # must number at most cap (see classify's docstring): the least cap
    # that succeeds is their count, and one less gives up. A fixed point
    # n repeats at once, so it passes any cap, and its least cap is 0.
    for n, e, least in ((2020, 2, 6), (123456, 6, 10), (3401, 5, 2), (5, 2, 0)):
        report = classify(n, e, cap=least)
        assert report == classify(n, e)
        if least:
            with pytest.raises(OrbitCapError, match=f"exceeded {least - 1} steps$"):
                classify(n, e, cap=least - 1)


def test_classify_rejects_bad_input(atlas):
    with pytest.raises(ValueError):
        classify(0, 2)
    with pytest.raises(ValueError):
        classify(5, 3, atlas(2))
    for at in (None, atlas(2)):
        with pytest.raises(ValueError, match="cap must be nonnegative, got -1"):
            classify(2021, 2, at, cap=-1)
        assert classify(1, 2, at, cap=0).steps_to_attractor == 0


def test_cycle_canonicalization_and_validation():
    assert Attractor.cycle((3401, 2114)).members == (2114, 3401)
    assert Attractor.cycle((731, 67, 794)).members == (67, 794, 731)
    with pytest.raises(ValueError):
        Attractor((3401, 2114))
    with pytest.raises(ValueError):
        Attractor((2, 3, 2))
    with pytest.raises(ValueError):
        Attractor(())


def test_cycle_detection_rotation_invariant(atlas):
    for e in (5, 6):
        for cyc in atlas(e).cycles:
            for member in cyc.members:
                assert classify(member, e).attractor == cyc


def test_attractor_text_labels():
    assert Attractor.fixed_point(5).text == "5"
    assert Attractor.cycle((3401, 2114)).text == "(2114;3401)"
    assert Attractor.fixed_point(5).kind == "fixed_point"
    assert Attractor.cycle((3401, 2114)).kind == "cycle"


def test_parity_identity_spot():
    # n - step(n) is shared between each odd n and its even predecessor
    for e in range(1, 7):
        for n in range(1, 3000, 2):
            assert n - happy_step_nat(n, e) == (n - 1) - happy_step_nat(n - 1, e)


def test_fixed_points_above_one_pair_up(atlas):
    for e in range(1, 9):
        big = [p for p in atlas(e).fixed_points if p > 1]
        assert len(big) % 2 == 0
        for lo, hi in zip(big[::2], big[1::2]):
            assert lo % 2 == 0 and hi == lo + 1


def test_exponent_one_descends():
    for n in range(2, 10 ** 5 + 1):
        assert happy_step_nat(n, 1) < n


def test_step_image_bound_dominates():
    rng = random.Random(11)
    for e in (2, 3, 6):
        upper = rng.randrange(10 ** 5, 10 ** 7)
        cap = step_image_bound(e, upper)
        for _ in range(200):
            n = rng.randrange(1, upper + 1)
            assert happy_step_nat(n, e) <= cap
