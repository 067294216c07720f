import json
import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import scan_density, sweep_runs, walk_tally
from facthappy.analysis import (
    RunRecord,
    RunSearch,
    density,
    emit_report,
    is_p_happy,
    smallest_runs,
)
from facthappy.dynamics import (
    Attractor, AttractorAtlas, WitnessError, enumerate_attractors,
    happy_step_nat, step_image_bound)
from facthappy.towers import nice_check


def _orbit_reaches(n, e, p):
    """Definition-level oracle: direct iteration with a visited set."""
    seen = set()
    while n not in seen:
        if n == p:
            return True
        seen.add(n)
        n = happy_step_nat(n, e)
    return False


def test_is_p_happy_examples(atlas):
    assert is_p_happy(2020, 2, 1, atlas(2)) is True
    assert is_p_happy(4, 2, 1, atlas(2)) is False
    assert is_p_happy(2021, 2, 5, atlas(2)) is True
    assert is_p_happy(2021, 2, 5) is True


def test_is_p_happy_rejects_non_fixed_point(atlas):
    with pytest.raises(ValueError):
        is_p_happy(10, 2, 7, atlas(2))
    with pytest.raises(ValueError):
        is_p_happy(10, 2, 7)
    # 0 and negative p are refused alike with and without an atlas.
    for p in (0, -1):
        with pytest.raises(ValueError, match=f"positive integer, got {p}$"):
            is_p_happy(10, 2, p, atlas(2))
        with pytest.raises(ValueError, match=f"positive integer, got {p}$"):
            is_p_happy(10, 2, p)


def test_is_p_happy_checks_p_by_the_step_then_the_atlas_exponent(atlas):
    # 5 is a fixed point for e=2, so the refusal names the atlas, which
    # is for another exponent, as classify does.
    with pytest.raises(ValueError, match="^atlas is for exponent 3, not 2$"):
        is_p_happy(10, 2, 5, atlas(3))
    with pytest.raises(ValueError, match="^7 is not a fixed point for e=2$"):
        is_p_happy(10, 2, 7, atlas(3))


def test_is_p_happy_matches_direct_oracle(atlas):
    rng = random.Random(2024)
    for e in (2, 3, 4, 5):
        at = atlas(e)
        fixed = at.fixed_points
        for k in range(10 ** 4):
            n = rng.randrange(1, 10 ** 7)
            p = fixed[k % len(fixed)]
            assert is_p_happy(n, e, p, at) == _orbit_reaches(n, e, p)


def test_smallest_runs_examples(atlas):
    search = smallest_runs(2, 1, 4, atlas(2), search_cap=10 ** 4)
    assert [(r.m, r.start) for r in search.records] == \
        [(1, 2), (2, 2), (3, 6), (4, 6)]
    assert search.complete
    search = smallest_runs(2, 1, 11, atlas(2), search_cap=10 ** 4)
    assert search.records[-1] == RunRecord(e=2, p=1, m=11, start=112)
    search = smallest_runs(2, 1, 1, atlas(2), search_floor=1, search_cap=100)
    assert search.records[0].start == 1


def test_smallest_runs_monotone_starts(atlas):
    for e, p in ((2, 1), (2, 5), (3, 17)):
        search = smallest_runs(e, p, 8, atlas(e), search_cap=10 ** 5)
        starts = [r.start for r in search.records]
        assert starts == sorted(starts)


def test_smallest_runs_partial_below_cap(atlas):
    search = smallest_runs(5, 1, 10, atlas(5), search_cap=5000)
    assert not search.complete
    assert [r.m for r in search.records] == list(range(1, 10))
    assert all(r.start == 2 for r in search.records)


def test_smallest_runs_validates(atlas):
    with pytest.raises(ValueError):
        smallest_runs(2, 7, 3, atlas(2))
    with pytest.raises(ValueError):
        smallest_runs(2, 1, 0, atlas(2))
    with pytest.raises(ValueError):
        smallest_runs(2, 1, 3, atlas(2), search_floor=3)
    for floor, cap in ((2, -7), (2, 0), (2, 1), (1, 0), (1, -1)):
        with pytest.raises(ValueError, match=f"search cap {cap} is below "
                                             f"the search floor {floor}"):
            smallest_runs(2, 1, 3, atlas(2), search_floor=floor,
                          search_cap=cap)
    # A cap equal to the floor sweeps exactly one value.
    for floor in (1, 2):
        search = smallest_runs(2, 1, 3, atlas(2), search_floor=floor,
                               search_cap=floor)
        assert [(r.m, r.start) for r in search.records] == [(1, floor)]
        assert not search.complete


def test_smallest_runs_refuses_an_atlas_of_another_exponent(atlas):
    with pytest.raises(ValueError, match="^atlas is for exponent 3, not 2$"):
        smallest_runs(2, 1, 3, atlas(3))


@settings(deadline=None)
@given(data=st.data(), e=st.integers(1, 6), floor=st.sampled_from((1, 2)),
       m_max=st.integers(1, 50))
def test_smallest_runs_matches_sweep(atlas, data, e, floor, m_max):
    at = atlas(e)
    p = data.draw(st.sampled_from(at.fixed_points), label="p")
    cap = data.draw(st.integers(floor, 10 ** 5), label="cap")
    assert smallest_runs(e, p, m_max, at, search_floor=floor,
                         search_cap=cap) == sweep_runs(e, p, m_max, at,
                                                       floor, cap)


def _image_bound_caps(e):
    """Caps B - 1, B, B + 1 around each B = step_image_bound(e, B) <= 10^6.

    Up to cap B the table reaches the cap; from B + 1 on it stops at B
    and the values above B are read through their step.
    """
    caps = []
    for k in range(1, 10):
        b = sum(i ** e for i in range(1, k + 1))
        if b < 10 ** 6 and step_image_bound(e, b) == b \
                == step_image_bound(e, b + 1):
            caps += [c for c in (b - 1, b, b + 1) if c >= 1]
    return caps


@pytest.mark.parametrize("e", range(1, 7))
def test_smallest_runs_matches_sweep_at_edges(atlas, e):
    at = atlas(e)
    assert _image_bound_caps(e)
    for p in at.fixed_points:
        for floor in (1, 2):
            def same(m_max, cap):
                search = smallest_runs(e, p, m_max, at, search_floor=floor,
                                       search_cap=cap)
                assert search == sweep_runs(e, p, m_max, at, floor, cap)
                return search

            for m_max in (1, 2, 50):
                same(m_max, floor)  # the cap is the floor
                for cap in (5039, 5040, 5041):
                    same(m_max, cap)
            for cap in _image_bound_caps(e):
                if cap >= floor and (cap < 10 ** 5 or p == at.fixed_points[-1]):
                    same(50, cap)
            # m_max above any run: the search runs to the cap
            search = same(10 ** 4 + 1, 10 ** 4)
            assert not search.complete
            # the longest run below 10^4 ends exactly at the cap
            last = search.records[-1]
            end = last.start + last.m - 1
            assert same(last.m, end).complete
            assert not same(last.m + 1, end).complete
            if end > floor:
                assert not same(last.m, end - 1).complete


@pytest.mark.parametrize("e", (7, 8))
def test_smallest_runs_matches_sweep_beyond_the_paper(atlas, e):
    # 14 attractors at e = 7 and 7 at e = 8: the hit mask picks out
    # target indices above 0, and every cap here is below the image bound.
    at = atlas(e)
    assert len(at.attractors) == {7: 14, 8: 7}[e]
    for p in at.fixed_points:
        for floor in (1, 2):
            for cap in (floor, 5039, 5040, 5041, 10 ** 4, 15_000, 2 * 10 ** 4):
                assert step_image_bound(e, cap) >= cap
                for m_max in (1, 3, 50):
                    assert smallest_runs(e, p, m_max, at, search_floor=floor,
                                         search_cap=cap) == \
                        sweep_runs(e, p, m_max, at, floor, cap)


# At e = 2 the table stops at step_image_bound(2, 10^6) = 285, so every
# probe above 285 reads 7!-block high sums. These caps sit on each side
# of every block edge below 10^6 (198 * 7! = 997,920).
_BLOCK_EDGE_CAPS = sorted(
    k * factorial(7) + d for k in range(1, 199) for d in (-1, 0, 1))


def _cut(full, cap):
    """The sweep at a smaller cap, read off a sweep to a larger one.

    The least start of length m stays the answer at cap iff its run
    ends by cap; every later start of such a run ends later still.
    """
    records = tuple(r for r in full.records if r.start + r.m - 1 <= cap)
    return RunSearch(e=full.e, p=full.p, search_floor=full.search_floor,
                     search_cap=cap, records=records,
                     complete=len(records) == len(full.records) and full.complete)


@pytest.mark.parametrize("floor", (1, 2))
def test_smallest_runs_at_every_block_edge_cap(atlas, floor):
    # The least 9-run of 5-happy numbers starts at 10,003: a cap below its
    # end cuts the probe in the cap's block, and a later cap leaves the
    # search done before its last block.
    at, p, m_max = atlas(2), 5, 9
    assert step_image_bound(2, 10 ** 6) == 285
    full = sweep_runs(2, p, m_max, at, floor, _BLOCK_EDGE_CAPS[-1])
    assert full.complete
    last = full.records[-1]
    caps = [c for c in _BLOCK_EDGE_CAPS if c <= last.start + 2 * factorial(7)]
    for cap in caps[:9]:  # the cut agrees with sweeps of its own
        assert _cut(full, cap) == sweep_runs(2, p, m_max, at, floor, cap)
    for cap in _BLOCK_EDGE_CAPS:
        assert smallest_runs(2, p, m_max, at, search_floor=floor,
                             search_cap=cap) == _cut(full, cap)


@pytest.mark.parametrize("floor", (1, 2))
@pytest.mark.parametrize("p, m_max", ((1, 64), (4, 6), (5, 11)))
def test_smallest_runs_probes_to_block_edge_caps(atlas, floor, p, m_max):
    # No run of length m_max below 10^6: the probe reads block by block
    # up to the cap, and its last block is cut there.
    at = atlas(2)
    full = sweep_runs(2, p, m_max, at, floor, _BLOCK_EDGE_CAPS[-1])
    assert not full.complete
    for k in (1, 2, 40, 160, 198):
        for cap in (k * factorial(7) - 1, k * factorial(7), k * factorial(7) + 1):
            expected = _cut(full, cap)
            if k <= 2:
                assert expected == sweep_runs(2, p, m_max, at, floor, cap)
            assert smallest_runs(2, p, m_max, at, search_floor=floor,
                                 search_cap=cap) == expected


@pytest.mark.parametrize("floor", (1, 2))
def test_smallest_runs_widens_a_run_across_a_block_edge(atlas, floor):
    # 80639 = 16 * 7! - 1 and 80640 are both 4-happy at e = 2, well above
    # the table's top of 285: the probe of this search lands on 80640
    # and widens the hit back into the block below.
    at = atlas(2)
    target = at.fixed_points.index(4)
    assert [at.attractor_index(n) == target
            for n in range(80638, 80642)] == [False, True, True, False]
    for cap in (80639, 80640, 10 ** 6):
        for m_max in (3, 6):
            assert smallest_runs(2, 4, m_max, at, search_floor=floor,
                                 search_cap=cap) == \
                sweep_runs(2, 4, m_max, at, floor, cap)


def _record_uppers(monkeypatch):
    """The upper of every extended_index_table call from here on."""
    asked = []
    extend = AttractorAtlas.extended_index_table

    def recording(self, upper):
        asked.append(upper)
        return extend(self, upper)

    monkeypatch.setattr(AttractorAtlas, "extended_index_table", recording)
    return asked


def test_smallest_runs_answered_in_the_first_block_builds_no_more(
        monkeypatch):
    # runs --e 6 --max-m 3 at the default cap: every answer lies below
    # 7!, so a fresh atlas keeps no table past the first block.
    at = enumerate_attractors(6)
    asked = _record_uppers(monkeypatch)
    search = smallest_runs(6, 1, 3, at)
    assert search.complete
    assert [r.start for r in search.records] == [2, 2, 6]
    assert asked and max(asked) <= factorial(7)
    assert len(at.extended_index_table(1)) <= factorial(7) + 1


def test_smallest_runs_grows_the_table_to_the_cap_at_most(monkeypatch):
    at = enumerate_attractors(5)
    asked = _record_uppers(monkeypatch)
    search = smallest_runs(5, 1, 10, at, search_cap=800_000)
    assert search.complete
    assert search.records[-1] == RunRecord(e=5, p=1, m=10, start=700_273)
    assert asked and max(asked) <= 800_000


@pytest.mark.parametrize("e", range(2, 7))
def test_smallest_runs_on_a_fresh_atlas_matches_sweep(atlas, e):
    # Each search gets an atlas that keeps no table yet, so its table
    # starts at the first 7! block and grows to the cap only when the
    # search needs a value past that block. The sweep reads its own table.
    at = atlas(e)
    cases = [(p, floor, m_max, cap)
             for p in at.fixed_points for floor in (1, 2)
             for m_max in (3, 50)
             for cap in (5039, 5040, 5041, 10079, 10080, 10081)]
    # m_max above any run below the cap: the search runs to the cap
    cases += [(p, floor, 10 ** 4 + 1, 10 ** 4)
              for p in at.fixed_points for floor in (1, 2)]
    if e == 3:  # 1-happy from 4,857 to 5,055: the run crosses 7!
        cases += [(1, floor, m_max, cap) for floor in (1, 2)
                  for m_max in (198, 199, 200) for cap in (5040, 10 ** 4)]
    if e == 4:  # 1-happy from 4,714 to 5,655, after 2,097 to 3,603
        cases += [(1, floor, m_max, 10 ** 4) for floor in (1, 2)
                  for m_max in (942, 1507, 1508)]
    for p, floor, m_max, cap in cases:
        assert smallest_runs(e, p, m_max, enumerate_attractors(e),
                             search_floor=floor, search_cap=cap) == \
            sweep_runs(e, p, m_max, at, floor, cap), (p, floor, m_max, cap)


@pytest.mark.parametrize("e, bad", ((2, 2.0), (1, True)))
def test_non_integer_exponent_is_refused_before_any_table(atlas, monkeypatch,
                                                          e, bad):
    # bad == e, so the atlas check alone would pass it.
    asked = _record_uppers(monkeypatch)
    text = re.escape(f"exponent must be a positive integer, got {bad}") + "$"
    with pytest.raises(ValueError, match=text):
        smallest_runs(bad, 1, 3, atlas(e))
    with pytest.raises(ValueError, match=text):
        density(bad, 10, atlas(e))
    assert asked == []


def test_density_small_interval(atlas):
    report = density(2, 5, atlas(2))
    by_text = {att.text: c for att, c in report.counts.items()}
    assert by_text == {"1": 3, "4": 1, "5": 1}
    assert sum(report.counts.values()) == 5
    assert sum(report.proportions.values()) == 1


def test_density_counts_match_direct_oracle(atlas):
    for e in (2, 5):
        at = atlas(e)
        upper = 400
        report = density(e, upper, at)
        for att, count in report.counts.items():
            if att.is_fixed_point:
                expected = sum(1 for n in range(1, upper + 1)
                               if _orbit_reaches(n, e, att.members[0]))
                assert count == expected
        assert sum(report.counts.values()) == upper


def _assert_matches_scan(e, upper, at):
    report = density(e, upper, at)
    scan = scan_density(e, upper, at)
    assert report.counts == scan.counts
    for fmt in ("csv", "json"):
        assert emit_report(report, fmt) == emit_report(scan, fmt)


@settings(deadline=None)
@given(e=st.integers(1, 6), upper=st.integers(1, 10 ** 6))
def test_density_matches_scan(atlas, e, upper):
    _assert_matches_scan(e, upper, atlas(e))


@settings(deadline=None)
@given(e=st.integers(1, 8), upper=st.integers(1, 2 * 10 ** 4))
def test_density_matches_walk_property(atlas, e, upper):
    # walk_tally steps every value itself; scan_density would read the
    # same extended_index_table the packed path classifies with.
    at = atlas(e)
    assert list(density(e, upper, at).counts.values()) == \
        walk_tally(e, 1, upper, at)


@pytest.mark.parametrize("e", range(2, 7))
def test_density_leaves_the_kept_free_tallies_as_built(e):
    # At (j+1)! - 1 with j up to the kept count, every digit is maximal
    # and the tally is a kept one: density gets a copy, so its deletion
    # of n = 0 leaves the kept tally whole for every later call.
    shared = enumerate_attractors(e)
    kept = len(shared._lows)
    rng = random.Random(39 + e)
    uppers = [factorial(j + 1) - 1 for j in range(1, kept + 1)]
    uppers += [factorial(10) - 1] + [rng.randrange(1, 10 ** 7) for _ in range(4)]
    for upper in uppers:
        fresh = enumerate_attractors(e)
        assert density(e, upper, shared) == density(e, upper, fresh), upper
    assert shared._lows == enumerate_attractors(e)._lows


@pytest.mark.parametrize("e", range(1, 7))
def test_density_matches_scan_at_factorials(atlas, e):
    # k! starts a new top digit; k! - 1 has every digit at its maximum
    for k in range(1, 10):
        for upper in (factorial(k) - 1, factorial(k), factorial(k) + 1):
            if upper >= 1:
                _assert_matches_scan(e, upper, atlas(e))



# For each fixed point (e, p): the least starts of runs of length 1..5
# below 5000 at search floors 1 and 2, whether all five were found, how
# many n in [1, 5000] are p-happy, and the least offset y <= 500 that
# nice_check accepts (None if there is none).
FIXED_POINT_ANSWERS = {
    (1, 1): ((1, 1, 1, 1, 1), (2, 2, 2, 2, 2), True, 5000, 0),
    (2, 1): ((1, 1, 1, 6, 112), (2, 2, 6, 6, 112), True, 3114, 2),
    (2, 4): ((4, 151), (4, 151), False, 304, None),
    (2, 5): ((5, 13, 65, 65, 91), (5, 13, 65, 65, 91), True, 1582, 9),
    (3, 1): ((1, 1, 1, 1, 1), (2, 2, 2, 2, 2), True, 4588, 2),
    (3, 16): ((16, 1747), (16, 1747), False, 111, None),
    (3, 17): ((17, 61, 3576), (17, 61, 3576), False, 301, None),
    (4, 1): ((1, 1, 1, 1, 1), (2, 2, 2, 2, 2), True, 4892, 6),
    (4, 658): ((617, 661), (617, 661), False, 48, None),
    (4, 659): ((604, 1381), (604, 1381), False, 60, None),
    (5, 1): ((1, 1, 1, 1, 1), (2, 2, 2, 2, 2), True, 395, None),
    (5, 34): ((11, 17, 21, 65, 65), (11, 17, 21, 65, 65), True, 2023, None),
    (5, 35): ((35, 157, 3576), (35, 157, 3576), False, 106, None),
    (5, 308): ((70, 70, 91), (70, 70, 91), False, 245, None),
    (5, 309): ((105, 223, 223), (105, 223, 223), False, 229, None),
    (5, 1058): ((94, 100, 106, 106, 106), (94, 100, 106, 106, 106), True, 526, None),
    (5, 1059): ((95, 331, 4231), (95, 331, 4231), False, 185, None),
    (6, 1): ((1, 1, 1, 6), (2, 2, 6, 6), False, 52, None),
    (6, 8258): ((580, 580, 586, 586, 586), (580, 580, 586, 586, 586), True, 157, None),
    (6, 8259): ((1307, 4471), (1307, 4471), False, 21, None),
    (7, 1): ((1, 1, 1, 1, 1), (2, 2, 2, 2, 2), True, 118, None),
    (7, 130): ((11, 37), (11, 37), False, 55, None),
    (7, 131): ((35, 157), (35, 157), False, 50, None),
    (7, 2318): ((16, 16, 16, 16, 16), (16, 16, 16, 16, 16), True, 1133, None),
    (7, 2319): ((22, 181), (22, 181), False, 110, None),
    (7, 2939396): ((4907,), (4907,), False, 4, None),
    (7, 2939397): ((), (), False, 0, None),
    (7, 3205134): ((4900,), (4900,), False, 2, None),
    (7, 3205135): ((), (), False, 0, None),
    (8, 1): ((1, 1, 1, 6), (2, 2, 6, 6), False, 42, None),
    (8, 528260): ((3594, 3594, 3594, 3594), (3594, 3594, 3594, 3594), False, 8, None),
    (8, 528261): ((), (), False, 0, None),
    (8, 2201570): ((), (), False, 0, None),
    (8, 2201571): ((), (), False, 0, None),
}


def test_every_fixed_point_answers_as_pinned(atlas):
    got = {}
    for e in range(1, 9):
        at = atlas(e)
        for p in at.fixed_points:
            one, two = (smallest_runs(e, p, 5, at, search_floor=floor,
                                      search_cap=5000) for floor in (1, 2))
            assert one.complete == two.complete
            assert is_p_happy(p, e, p) and is_p_happy(p, e, p, at)
            happy = sum(is_p_happy(n, e, p, at) for n in range(1, 5001))
            got[e, p] = (tuple(r.start for r in one.records),
                         tuple(r.start for r in two.records), one.complete,
                         happy, next((y for y in range(501)
                                      if _nice(e, p, y, at)), None))
    assert got == FIXED_POINT_ANSWERS


def _nice(e, p, offset, at):
    try:
        nice_check(e, p, offset, at)
    except WitnessError:
        return False
    return True

@pytest.mark.parametrize("e", (2, 3, 4, 5))
def test_density_difference_at_astronomical_bound(atlas, e):
    at = atlas(e)
    lo = factorial(13)
    hi = lo + 10 ** 4
    below, through = density(e, lo, at), density(e, hi, at)
    got = [through.counts[att] - below.counts[att] for att in at.attractors]
    assert got == walk_tally(e, lo + 1, hi, at)


def test_density_exponent_one_is_all_happy(atlas):
    # every positive integer is 1-power happy
    upper = factorial(20) - 1
    report = density(1, upper, atlas(1))
    assert report.counts == {Attractor.fixed_point(1): upper}


def test_density_validates(atlas):
    with pytest.raises(ValueError):
        density(2, 0, atlas(2))
    with pytest.raises(ValueError):
        density(3, 10, atlas(2))
    with pytest.raises(ValueError, match=f"upper={10 ** 40} at e=6"):
        density(6, 10 ** 40, atlas(6))


def test_density_refuses_a_non_integer_exponent(atlas):
    # 2.0 == 2, so the atlas check passes; the tally of either path
    # refuses the exponent: packed at e = 2, 10 and dict at e = 5, 10^6.
    for e, upper in ((2, 10), (5, 10 ** 6)):
        for bad in (float(e), Fraction(e)):
            with pytest.raises(ValueError, match=re.escape(
                    f"exponent must be a positive integer, got {bad}") + "$"):
                density(bad, upper, atlas(e))


@pytest.mark.parametrize("call, text", [
    (lambda atlas: is_p_happy(5, 2, 5.0), "p must be an int, got 5.0"),
    (lambda atlas: smallest_runs(2, 5.0, 3, atlas(2)),
     "p must be an int, got 5.0"),
    (lambda atlas: smallest_runs(2, 1, 3.5, atlas(2)),
     "m_max must be an int, got 3.5"),
    (lambda atlas: smallest_runs(2, 1, 3, atlas(2), search_floor=1.0),
     "search_floor must be an int, got 1.0"),
], ids=["is_p_happy p", "smallest_runs p", "smallest_runs m_max",
        "smallest_runs search_floor"])
def test_non_int_fixed_point_and_run_bounds_are_refused(call, text, atlas):
    # Unchecked, a float p would be written into the run JSON as 5.0 and
    # m_max = 3.5 would answer up to m = 4; each is refused by name.
    with pytest.raises(ValueError) as info:
        call(atlas)
    assert type(info.value) is ValueError and str(info.value) == text


def test_emit_density_csv_golden(atlas):
    report = density(2, 5, atlas(2))
    assert emit_report(report, "csv") == (
        "e,attractor,count,proportion_num,proportion_den\n"
        "2,1,3,3,5\n"
        "2,4,1,1,5\n"
        "2,5,1,1,5\n"
    )


def test_emit_density_json_golden(atlas):
    report = density(2, 5, atlas(2))
    obj = json.loads(emit_report(report, "json"))
    assert obj == {
        "e": 2, "upper": 5,
        "rows": [
            {"attractor": "1", "count": 3, "proportion_num": 3, "proportion_den": 5},
            {"attractor": "4", "count": 1, "proportion_num": 1, "proportion_den": 5},
            {"attractor": "5", "count": 1, "proportion_num": 1, "proportion_den": 5},
        ],
    }


def test_emit_density_single_row_for_unit_interval(atlas):
    report = density(2, 1, atlas(2))
    assert emit_report(report, "csv") == (
        "e,attractor,count,proportion_num,proportion_den\n"
        "2,1,1,1,1\n"
    )


def test_emit_density_includes_cycle_rows(atlas):
    report = density(5, 4000, atlas(5))
    csv_text = emit_report(report, "csv")
    assert "5,(2114;3401)," in csv_text


def test_emit_runs_csv_golden(atlas):
    search = smallest_runs(2, 1, 4, atlas(2), search_cap=10 ** 4)
    assert emit_report(search, "csv") == (
        "e,p,m,start\n"
        "2,1,1,2\n"
        "2,1,2,2\n"
        "2,1,3,6\n"
        "2,1,4,6\n"
    )
    obj = json.loads(emit_report(search, "json"))
    assert obj["complete"] is True
    assert obj["rows"][2] == {"m": 3, "start": 6}


def test_emit_report_rejects_unknown_format(atlas):
    report = density(2, 5, atlas(2))
    with pytest.raises(ValueError):
        emit_report(report, "xml")
    with pytest.raises(TypeError):
        emit_report("nonsense", "csv")
