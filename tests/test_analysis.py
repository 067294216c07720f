import json
import random

import pytest

from facthappy.analysis import (
    RunRecord,
    density,
    emit_report,
    is_p_happy,
    smallest_runs,
)
from facthappy.dynamics import happy_step_nat


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


def test_density_validates(atlas):
    with pytest.raises(ValueError):
        density(2, 0, atlas(2))
    with pytest.raises(ValueError):
        density(3, 10, atlas(2))


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
