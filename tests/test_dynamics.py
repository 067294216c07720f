import math
import random

import pytest

from facthappy.dynamics import (
    Attractor,
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
    _step_images,
)
from facthappy.factoradic import to_factoradic

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


def test_enumerate_attractors_refuses_failed_certificate():
    fake = DescentBound(e=2, j=3, bound=23, tail_offset=0,
                        certificate_ok=False, failed_checks=("dominance",))
    with pytest.raises(CertificationError):
        enumerate_attractors(2, fake)


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


def test_classify_rejects_bad_input(atlas):
    with pytest.raises(ValueError):
        classify(0, 2)
    with pytest.raises(ValueError):
        classify(5, 3, atlas(2))


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
    for e in range(1, 7):
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
