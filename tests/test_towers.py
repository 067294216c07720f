import dataclasses
import decimal
import json
import math
import random
import re
import time
from fractions import Fraction

import pytest

from conftest import robbins_log10
from facthappy import towers
from facthappy.cli import BUILTIN_OFFSETS
from facthappy.dynamics import classify, happy_step, happy_step_nat, iterate
from facthappy.factoradic import add, digit_count, to_factoradic, to_natural
from facthappy.towers import (
    EXPANSION_LIMIT,
    RUN_LENGTH_LIMIT,
    ChainNumber,
    NiceWitness,
    ReplayError,
    SequenceCertificate,
    SizeCapError,
    WitnessError,
    _size_note,
    additivity_check,
    build_sequence,
    certificate_to_json,
    materialize,
    nice_check,
    preimage_ones,
    replay_run,
    verify_concrete,
)

# Known-good offsets with their measured first-passage counts.
WITNESSES = {
    (2, 1, 20): {1: 3, 4: 1, 5: 2},
    (2, 4, 2841): {1: 2, 4: 2, 5: 2},
    (2, 5, 45): {1: 2, 4: 1, 5: 1},
    (3, 1, 2): {1: 2, 16: 4, 17: 5},
    (3, 16, 50127): {1: 2, 16: 3, 17: 3},
    (3, 17, 4506): {1: 2, 16: 2, 17: 2},
    (4, 1, 6): {1: 2, 658: 12, 659: 12},
    (4, 658, 65763): {1: 1, 658: 2, 659: 2},
    (4, 659, 31743): {1: 2, 658: 2, 659: 2},
}


def test_preimage_ones_basics():
    assert preimage_ones(3).digits == (1, 1, 1)
    assert to_natural(preimage_ones(3)) == 9
    assert preimage_ones(1).digits == (1,)
    assert to_natural(preimage_ones(20)) == sum(
        math.factorial(i) for i in range(1, 21))
    with pytest.raises(ValueError):
        preimage_ones(0)


def test_preimage_ones_steps_back_spot():
    for e in range(1, 7):
        for x in (1, 2, 3, 20, 77):
            assert happy_step(preimage_ones(x), e) == x


def test_additivity_check_examples():
    assert additivity_check(5, 3, 2, 2) is True
    # the identity is sharp: with no padding it fails for x = y = 1, e = 2
    assert additivity_check(1, 1, 0, 2) is False
    rng = random.Random(3)
    for _ in range(50):
        assert additivity_check(rng.randrange(1, 10 ** 6), 0, 0, 2) is True


def test_additivity_randomized():
    rng = random.Random(42)
    for _ in range(1000):
        x = rng.randrange(1, 10 ** 6)
        y = rng.randrange(0, 10 ** 4)
        t = digit_count(y) + rng.randrange(0, 3)
        e = rng.randrange(1, 7)
        assert additivity_check(x, y, t, e) is True


@pytest.mark.parametrize("key", sorted(WITNESSES))
def test_nice_check_known_offsets(key, atlas):
    e, p, offset = key
    witness = nice_check(e, p, offset, atlas(e))
    assert witness.q_by_member == WITNESSES[key]


def _first_passage(v, e, p):
    """Steps from v to p by plain iteration; None if a repeat comes first."""
    seen = set()
    q = 0
    while v != p:
        if v in seen:
            return None
        seen.add(v)
        v = happy_step_nat(v, e)
        q += 1
    return q


@pytest.mark.parametrize("key", sorted(WITNESSES))
def test_nice_check_matches_first_passage_walk(key, atlas):
    e, p, builtin = key
    at = atlas(e)
    members = sorted(m for att in at.attractors for m in att.members)
    rng = random.Random(f"nice-{e}-{p}")
    outcomes = set()
    for k in range(200):
        offset = builtin if k == 0 else rng.randrange(0, 10 ** 5)
        walked = {u: _first_passage(offset + u, e, p) for u in members}
        failing = [u for u in members if walked[u] is None]
        if not failing:
            assert nice_check(e, p, offset, at).q_by_member == walked
            outcomes.add("pass")
            continue
        u = failing[0]
        landed = classify(offset + u, e).attractor.text
        with pytest.raises(WitnessError) as info:
            nice_check(e, p, offset, at)
        assert str(info.value) == (
            f"offset {offset}: member {u} did not reach {p} "
            f"(orbit settles on {landed})")
        outcomes.add("fail")
    assert outcomes == {"pass", "fail"}


def test_nice_check_failure_names_member(atlas):
    with pytest.raises(WitnessError, match="member 4"):
        nice_check(2, 1, 0, atlas(2))


def test_nice_check_rejects_non_fixed_point(atlas):
    # Bad input, not a failed witness: ValueError, so the CLI exits 1.
    with pytest.raises(ValueError, match="^7 is not a fixed point for e=2$"):
        nice_check(2, 7, 20, atlas(2))


def test_nice_check_rejects_negative_offset(atlas):
    # The message names the offset, not offset + u for some member u.
    for offset in (-1, -3, -10 ** 30):
        with pytest.raises(
                ValueError, match=f"^offset must be nonnegative, got {offset}$"):
            nice_check(2, 1, offset, atlas(2))
    assert nice_check(3, 1, 2, atlas(3)).offset == 2


def _refused(call):
    with pytest.raises(ValueError) as info:
        call()
    return type(info.value), str(info.value)


# A float or a bool that compares equal to an int is refused by name,
# never carried into a witness or a certificate.
def test_nice_check_refuses_a_float_p(atlas):
    assert _refused(lambda: nice_check(2, 1.0, 20, atlas(2))) == (
        ValueError, "p must be an int, got 1.0")


def test_nice_check_refuses_a_float_offset(atlas):
    assert _refused(lambda: nice_check(2, 1, 20.0, atlas(2))) == (
        ValueError, "offset must be an int, got 20.0")


def test_build_sequence_refuses_a_bool_m(atlas):
    witness = nice_check(2, 1, 20, atlas(2))
    assert _refused(lambda: build_sequence(2, 1, True, witness, atlas(2))) == (
        ValueError, "m must be an int, got True")


def test_preimage_ones_refuses_a_float_length():
    assert _refused(lambda: preimage_ones(3.0)) == (
        ValueError, "x must be an int, got 3.0")


def test_towers_refuse_a_float_e_or_p(atlas):
    witness = nice_check(2, 1, 20, atlas(2))
    assert _refused(lambda: nice_check(2.0, 1, 20, atlas(2))) == (
        ValueError, "e must be an int, got 2.0")
    assert _refused(lambda: build_sequence(2.0, 1, 3, witness, atlas(2))) == (
        ValueError, "e must be an int, got 2.0")
    assert _refused(lambda: build_sequence(2, 1.0, 3, witness, atlas(2))) == (
        ValueError, "p must be an int, got 1.0")


def test_additivity_check_refuses_a_float_y():
    assert _refused(lambda: additivity_check(2, 1.5, 3, 2)) == (
        ValueError, "y must be an int, got 1.5")


def test_additivity_check_refuses_a_float_t():
    assert _refused(lambda: additivity_check(2, 1, 3.0, 2)) == (
        ValueError, "t must be an int, got 3.0")


def _certificate(atlas, **fields):
    good = build_sequence(2, 1, 3, nice_check(2, 1, 20, atlas(2)), atlas(2))
    return dataclasses.replace(good, **fields)


@pytest.mark.parametrize("call, text", [
    (lambda atlas: replay_run(_certificate(atlas), 1.0),
     "i must be an int, got 1.0"),
    (lambda atlas: ChainNumber(1.5, 0, 1), "base must be an int, got 1.5"),
    (lambda atlas: ChainNumber(3, True, 1), "shift must be an int, got True"),
    (lambda atlas: ChainNumber(3, 1, 2.0), "depth must be an int, got 2.0"),
    (lambda atlas: _certificate(atlas, e=2.0), "e must be an int, got 2.0"),
    (lambda atlas: _certificate(atlas, p=True), "p must be an int, got True"),
    (lambda atlas: _certificate(atlas, m=3.0), "m must be an int, got 3.0"),
    (lambda atlas: _certificate(atlas, t=2.5), "t must be an int, got 2.5"),
    (lambda atlas: _certificate(atlas, r=Fraction(1)),
     "r must be an int, got Fraction(1, 1)"),
    (lambda atlas: _certificate(atlas, offset=20.0),
     "offset must be an int, got 20.0"),
    (lambda atlas: _certificate(atlas, steps_by_index={1: 5, 2: 5.0, 3: 5}),
     "steps_by_index[2] must be an int, got 5.0"),
], ids=["replay_run i", "chain base", "chain shift", "chain depth",
        "certificate e", "certificate p", "certificate m", "certificate t",
        "certificate r", "certificate offset", "certificate steps"])
def test_replay_materialize_and_certificate_refuse_non_ints(call, text, atlas):
    # Unchecked, a float offset would break certificate_to_json, a float t
    # or step count would replay and a float base would reach the size
    # note: each is refused by name.
    assert _refused(lambda: call(atlas)) == (ValueError, text)


@pytest.mark.parametrize("fields, text", [
    ({"t": 0, "r": -2, "offset": 20, "steps_by_index": {1: 1}},
     "r must be nonnegative, got -2"),
    ({"t": -1, "r": 0, "offset": 20, "steps_by_index": {1: 3}},
     "t must be nonnegative, got -1"),
    ({"t": 0, "r": 0, "offset": -20, "steps_by_index": {1: 3}},
     "offset must be nonnegative, got -20"),
], ids=["negative r", "negative t", "negative offset"])
def test_certificate_refuses_negative_fields(fields, text):
    # Unchecked, r = -2 replayed 20 + 1 as 1 step to p = 1 (21 takes 3
    # at e = 2), and t = -1 replayed and then broke certificate_to_json.
    assert _refused(lambda: SequenceCertificate(e=2, p=1, m=1, **fields)) == (
        ValueError, text)


def test_additivity_check_refuses_values_out_of_range():
    for args in ((0, 1, 3), (2, -1, 3), (2, 1, -3)):
        assert _refused(lambda: additivity_check(*args, 2)) == (
            ValueError, f"need x >= 1, y >= 0, t >= 0, got {args}")


def test_towers_refuse_an_atlas_of_another_exponent(atlas):
    witness = nice_check(2, 1, 20, atlas(2))
    assert _refused(lambda: nice_check(2, 1, 20, atlas(3))) == (
        ValueError, "atlas is for exponent 3, not 2")
    assert _refused(lambda: build_sequence(2, 1, 3, witness, atlas(3))) == (
        ValueError, "atlas is for exponent 3, not 2")


def test_build_sequence_refuses_offset_zero_for_a_chain(atlas):
    # At e = 1 the index 2 = 1.0! steps to 1, so r = 1 and the chain needs
    # an all-ones block of length offset = 0.
    witness = nice_check(1, 1, 0, atlas(1))
    with pytest.raises(WitnessError, match="^offset 0 cannot seed a chain: "
                       "the all-ones preimage needs a positive length$"):
        build_sequence(1, 1, 2, witness, atlas(1))


def test_build_sequence_refuses_a_witness_without_a_reached_member(atlas):
    witness = NiceWitness(e=2, p=1, offset=20, q_by_member={4: 1, 5: 2})
    with pytest.raises(WitnessError, match="^value 1 reached from 1 is not "
                       "covered by the witness$"):
        build_sequence(2, 1, 3, witness, atlas(2))


def test_verify_concrete_names_a_depth_one_step_that_differs(atlas):
    # With no pad the index's carry reaches the ones block, so the digit
    # string steps to 22 where the rewrite of the chain predicts 20 + 1.
    cert = build_sequence(2, 1, 2, nice_check(2, 1, 20, atlas(2)), atlas(2))
    assert (cert.r, cert.t) == (1, 2)
    with pytest.raises(ReplayError, match="^index 1: digit-string step gave "
                       "22, symbolic replay predicts 21$"):
        verify_concrete(dataclasses.replace(cert, t=0))


def test_build_sequence_depth_two(atlas):
    witness = nice_check(2, 1, 20, atlas(2))
    cert = build_sequence(2, 1, 3, witness, atlas(2))
    assert (cert.r, cert.t) == (2, 2)
    assert cert.steps_by_index == {1: 5, 2: 5, 3: 5}
    for i in (1, 2, 3):
        assert replay_run(cert, i) == 5


def test_build_sequence_pad_covers_every_visited_value(atlas):
    # t is the most digits among i, step(i), ..., step^r(i), end included.
    for (e, p, offset) in WITNESSES:
        witness = nice_check(e, p, offset, atlas(e))
        for m in (1, 2, 7, 20):
            cert = build_sequence(e, p, m, witness, atlas(e))
            assert cert.t == max(digit_count(iterate(i, e, k))
                                 for i in range(1, m + 1)
                                 for k in range(cert.r + 1))


# build_sequence's pad width t and depth r for m = 1..20 at each e, and
# its step counts for m = 20 at each built-in offset, as recorded when t
# was the most digits over a per-step digit_count. A run of m keeps the
# first m counts, moved by its own r.
PAD_T = {2: (1, 2, 2, 2, 2) + (3,) * 15,
         3: (1, 2, 2) + (3,) * 14 + (4,) * 3,
         4: (1, 2, 2) + (4,) * 7 + (5,) * 10}
DEPTH_R = {2: (0, 1) + (2,) * 6 + (3,) * 8 + (4,) * 4,
           3: (0, 1, 2, 3) + (4,) * 6 + (5,) * 10,
           4: (0, 1, 2, 5) + (8,) * 6 + (14,) * 10}
STEPS_20 = {
    (2, 1): (7, 7, 7, 5, 6, 7, 7, 7, 7, 6, 7, 5, 6, 6, 7, 7, 7, 7, 6, 6),
    (2, 4): (6,) * 20,
    (2, 5): (6, 6, 6, 5, 5, 6, 6, 6, 6, 5, 6, 5, 5, 5, 6, 6, 6, 6, 5, 5),
    (3, 1): (7,) * 15 + (9, 10, 7, 7, 7),
    (3, 16): (7,) * 15 + (8, 8, 7, 7, 7),
    (3, 17): (7,) * 20,
    (4, 1): (16,) * 20,
    (4, 658): (15,) * 20,
    (4, 659): (16,) * 20,
}


@pytest.mark.parametrize("e, p", sorted(BUILTIN_OFFSETS))
def test_builtin_certificates_keep_pad_and_steps(e, p, atlas):
    witness = nice_check(e, p, BUILTIN_OFFSETS[(e, p)], atlas(e))
    for m in range(1, 21):
        cert = build_sequence(e, p, m, witness, atlas(e))
        assert (cert.t, cert.r) == (PAD_T[e][m - 1], DEPTH_R[e][m - 1])
        moved = DEPTH_R[e][m - 1] - DEPTH_R[e][19]
        assert cert.steps_by_index == {
            i: s + moved for i, s in enumerate(STEPS_20[(e, p)][:m], start=1)}


def test_replay_pad_check_matches_digit_count(atlas):
    # Every narrower pad fails at the first intermediate with more than
    # t digits by the definition, and names it; the rest replay in full.
    witness = nice_check(3, 1, 2, atlas(3))
    good = build_sequence(3, 1, 20, witness, atlas(3))
    for t in range(good.t + 1):
        cert = dataclasses.replace(good, t=t)
        for i in range(1, 21):
            over = [y for y in (iterate(i, 3, k) for k in range(good.r))
                    if digit_count(y) > t]
            if not over:
                assert replay_run(cert, i) == good.steps_by_index[i]
                continue
            with pytest.raises(ReplayError, match=(
                    f"^index {i}: intermediate {over[0]} has more than "
                    f"t={t} digits$")):
                replay_run(cert, i)


def test_replay_wide_pad_is_fast(atlas):
    # Every intermediate is below 2^t, so (t+1)! is never needed.
    witness = nice_check(3, 1, 2, atlas(3))
    good = build_sequence(3, 1, 20, witness, atlas(3))
    wide = dataclasses.replace(good, t=10 ** 6)
    started = time.perf_counter()
    for i in range(1, 21):
        assert replay_run(wide, i) == good.steps_by_index[i]
        assert time.perf_counter() - started < 0.5


def test_build_sequence_run_of_one_is_concrete(atlas):
    witness = nice_check(2, 1, 20, atlas(2))
    cert = build_sequence(2, 1, 1, witness, atlas(2))
    assert cert.r == 0
    assert cert.chain.depth == 0
    assert cert.steps_by_index == {1: 3}
    # the certified number is simply offset + 1 = 21
    assert to_natural(materialize(cert.chain)) + 1 == 21
    verify_concrete(cert)


def test_build_sequence_pair_with_small_offset(atlas):
    witness = nice_check(4, 1, 6, atlas(4))
    cert = build_sequence(4, 1, 2, witness, atlas(4))
    assert cert.steps_by_index == {1: 3, 2: 3}
    verify_concrete(cert)


def test_verify_concrete_handles_small_depth_two_chain(atlas):
    # offset 1 works for the always-descending exponent 1, and its tiny
    # tower values keep even a depth-2 chain materializable
    witness = nice_check(1, 1, 1, atlas(1))
    cert = build_sequence(1, 1, 3, witness, atlas(1))
    assert cert.chain.depth == 2
    verify_concrete(cert)


@pytest.mark.parametrize("key", sorted(WITNESSES) + [(1, 1, 1)])
def test_replay_agrees_with_verify_concrete(key, atlas):
    # Every chain that expands under the limit (depth <= 1, and the small
    # depth-2 towers of e = 1) must take the replayed step counts on its
    # explicit digit string too.
    e, p, offset = key
    witness = nice_check(e, p, offset, atlas(e))
    expanded = set()
    for m in range(1, 21):
        cert = build_sequence(e, p, m, witness, atlas(e))
        replayed = {i: replay_run(cert, i) for i in range(1, m + 1)}
        assert replayed == cert.steps_by_index
        try:
            verify_concrete(cert)
            expanded.add(cert.chain.depth)
        except SizeCapError:
            assert cert.chain.depth >= 2
    assert expanded >= ({0, 1, 2} if e == 1 else {0, 1})


def test_certificate_json_golden(atlas):
    witness = nice_check(2, 1, 20, atlas(2))
    cert = build_sequence(2, 1, 3, witness, atlas(2))
    text = certificate_to_json(cert)
    assert json.loads(text) == {
        "e": 2, "p": 1, "m": 3, "t": 2, "r": 2, "l": 20,
        "per_i": [{"i": 1, "steps": 5}, {"i": 2, "steps": 5},
                  {"i": 3, "steps": 5}],
        "size_note": cert.size_note,
    }
    assert text.index('"e"') < text.index('"p"') < text.index('"m"') \
        < text.index('"t"') < text.index('"r"') < text.index('"l"') \
        < text.index('"per_i"') < text.index('"size_note"')


def test_build_sequence_validates_inputs(atlas):
    witness = nice_check(2, 1, 20, atlas(2))
    with pytest.raises(ValueError):
        build_sequence(2, 1, 0, witness, atlas(2))
    with pytest.raises(ValueError):
        build_sequence(2, 4, 3, witness, atlas(2))
    with pytest.raises(ValueError):
        build_sequence(3, 1, 3, witness, atlas(2))
    for m in (RUN_LENGTH_LIMIT + 1, 10 ** 11):
        with pytest.raises(ValueError, match=f"run length {m} is above the "
                           f"limit of {RUN_LENGTH_LIMIT}"):
            build_sequence(2, 1, m, witness, atlas(2))


def test_depth_one_chain_plus_small_index_keeps_upper_digits():
    rng = random.Random(5)
    for base, t in ((3, 4), (20, 6), (45, 9), (65763, 12)):
        rep = materialize(ChainNumber(base=base, shift=t, depth=1))
        for i in [1, math.factorial(t + 1) - 1] + [
                rng.randrange(1, math.factorial(t + 1)) for _ in range(20)]:
            digits = add(rep, i).digits
            assert digits[t:] == rep.digits[t:]
            low = to_factoradic(i).digits
            assert digits[:t] == low + (0,) * (t - len(low))


def test_materialize_depths(atlas, monkeypatch):
    assert materialize(ChainNumber(20, 2, 0)) == to_factoradic(20)
    rep = materialize(ChainNumber(20, 2, 1))
    assert rep.digits == (0, 0) + (1,) * 20
    assert to_natural(rep) == sum(math.factorial(i + 2) for i in range(1, 21))
    with pytest.raises(SizeCapError, match="10\\^"):
        materialize(ChainNumber(20, 2, 2))
    monkeypatch.setattr(towers, "EXPANSION_LIMIT", 40)
    with pytest.raises(SizeCapError):
        materialize(ChainNumber(50, 3, 1))


def _float_rule(x, cap):
    """The lgamma estimate materialize once refused a level by."""
    return math.lgamma(x + 1) / math.log(10) > len(str(cap)) + 1


def test_materialize_refuses_by_exact_factorial_bound(monkeypatch):
    # The level below one of width w and pad t needs more than (t + w)!
    # digits. It is refused at once when that factorial passes
    # 10 ** (len(str(EXPANSION_LIMIT)) + 1); the exact product decides as
    # the float estimate did, with x! just below and just above the bound.
    for cap in (1, 9, 10, 99, 100, 999, 1000, 12345, 10 ** 5 - 1, 10 ** 6):
        monkeypatch.setattr(towers, "EXPANSION_LIMIT", cap)
        limit = 10 ** (len(str(cap)) + 1)
        top = max(x for x in range(1, 40) if math.factorial(x) <= limit)
        assert math.factorial(top) <= limit < math.factorial(top + 1)
        grid = {(t, w) for t in range(7) for w in range(1, 8)}
        grid |= {(t, x - t) for x in range(top - 1, top + 3)
                 for t in range(x)}
        for t, w in sorted(grid):
            exact = math.factorial(t + w) > limit
            assert exact == _float_rule(t + w, cap)
            try:
                materialize(ChainNumber(w, t, 2))
                refused = ""
            except SizeCapError as exc:
                refused = str(exc)
            if t + w <= cap:
                assert ("would need about" in refused) == exact
    # Each exponent is at most log10 of the expanded digit count: 21.07,
    # where Robbins's bound on 22! gives 20, then 4.66, 4.66 and 5.61,
    # walked exactly as pad + top < 20.
    pinned = {
        (20, 2, 10 ** 6): "level 0 would need about 10^20 digits, above the "
        "cap of 1000000 (ones-block tower: depth 2, pad 2, top value 20; at "
        "least 10^20 digits when expanded)",
        (5, 3, 100): "level 0 would need about 10^4 digits, above the cap of "
        "100 (ones-block tower: depth 2, pad 3, top value 5; at least 10^4 "
        "digits when expanded)",
        (4, 4, 999): "level 0 would need about 10^4 digits, above the cap of "
        "999 (ones-block tower: depth 2, pad 4, top value 4; at least 10^4 "
        "digits when expanded)",
        (9, 0, 10 ** 5): "level 0 needs 409113 digits, above the cap of "
        "100000 (ones-block tower: depth 2, pad 0, top value 9; at least 10^5 "
        "digits when expanded)",
    }
    for (base, t, cap), text in pinned.items():
        monkeypatch.setattr(towers, "EXPANSION_LIMIT", cap)
        with pytest.raises(SizeCapError) as caught:
            materialize(ChainNumber(base, t, 2))
        assert str(caught.value) == text
    monkeypatch.undo()
    assert len(materialize(ChainNumber(7, 1, 2)).digits) == 46233


def test_materialize_refuses_past_the_expansion_limit(monkeypatch):
    # ChainNumber(12, 0, 2) is 1! + ... + 12! = 522,956,313 digits wide at
    # level 0, over EXPANSION_LIMIT: level 1 is 12 digits wide, past the
    # widths whose level below can fit, so it is refused by name, at once,
    # and no digit is built.
    monkeypatch.setattr(towers, "preimage_ones", None)
    started = time.perf_counter()
    with pytest.raises(SizeCapError) as caught:
        materialize(ChainNumber(12, 0, 2))
    assert time.perf_counter() - started < 1
    assert str(caught.value) == (
        "level 0 would need about 10^8 digits, above the cap of 1000000 "
        "(ones-block tower: depth 2, pad 0, top value 12; at least 10^8 "
        "digits when expanded)")
    # At the limit itself the level is built (stubbed here: 8 MB).
    monkeypatch.setattr(towers, "preimage_ones", lambda width: width)
    monkeypatch.setattr(towers, "shift", lambda width, t: t + width)
    assert EXPANSION_LIMIT == 10 ** 6
    assert materialize(ChainNumber(EXPANSION_LIMIT - 3, 3, 1)) \
        == EXPANSION_LIMIT
    with pytest.raises(SizeCapError) as caught:
        materialize(ChainNumber(EXPANSION_LIMIT - 2, 3, 1))
    assert str(caught.value) == (
        "level 0 needs 1000001 digits, above the cap of 1000000 (ones block "
        "of length 999998 shifted by 3 (1000001 digits))")


def _note_exponent(chain):
    note = _size_note(chain)
    return int(re.fullmatch(
        r".*; at least 10\^(\d+) digits when expanded", note).group(1))


def test_size_notes_past_the_float_and_int_str_limits():
    # A level width w past the float range is bounded like any other:
    # the note's exponent lies below Robbins's lower bound on log10(w!),
    # within w / 1000 of it (log2 w is read to 1/1024 from the top 64
    # bits of w). A base, pad or exponent past 4,300 decimal digits is
    # written by its length.
    big = 10 ** 400
    with pytest.raises(SizeCapError) as caught:
        materialize(ChainNumber(big, 0, 2))
    exponent = 3995654848409443359375 * 10 ** 381 + 1
    assert str(caught.value) == (
        f"level 1 needs {big} digits, above the cap of 1000000 (ones-block "
        f"tower: depth 2, pad 0, top value {big}; at least "
        f"10^{exponent} digits when expanded)")
    lower, upper = robbins_log10(big)
    assert upper - big // 1000 < exponent < lower
    assert _size_note(ChainNumber(10 ** 5000, 0, 0)) == (
        "concrete value <5,001-digit integer>")
    with pytest.raises(SizeCapError) as caught:
        materialize(ChainNumber(3, 10 ** 5000, 2))
    assert str(caught.value) == (
        "level 1 needs <5,001-digit integer> digits, above the cap of 1000000 "
        "(ones-block tower: depth 2, pad <5,001-digit integer>, top value 3; "
        "at least 10^<5,004-digit integer> digits when expanded)")


def test_size_note_exponent_grows_with_the_width():
    # The exponent is an integer lower bound on log10(w!) at every width,
    # float range or not, so it never falls as w grows and never tops
    # w * log10(w).
    with decimal.localcontext() as ctx:
        ctx.prec = 450
        last = 0
        for w in (20, 10 ** 6, 2 * 10 ** 305, 3 * 10 ** 305, 10 ** 306,
                  10 ** 400):
            exponent = _note_exponent(ChainNumber(w, 0, 2))
            assert last <= exponent <= w * decimal.Decimal(w).log10()
            last = exponent


def test_size_note_is_a_tight_floor_of_log10_w_factorial():
    # At the first level of width w >= 20 the note takes an integer L
    # with 10^L <= w!, and it is at most 2 below floor(log10(w!)).
    for w in range(20, 3001):
        exponent = _note_exponent(ChainNumber(w, 0, 2))
        assert 10 ** exponent <= math.factorial(w) < 10 ** (exponent + 3), w


def _expanded_digits(base, t, r, limit):
    """Digit count of ChainNumber(base, t, r) expanded, level by level.

    None if some level above the last is over limit digits wide.
    """
    width = t + base
    for _ in range(r - 1):
        if width > limit:
            return None
        fact, value = math.factorial(t), 0
        for k in range(t + 1, width + 1):
            fact *= k
            value += fact
        width = t + value
    return width


def test_size_note_never_tops_the_expanded_digit_count():
    # Every depth-2 and depth-3 chain with pad < 8 and top value < 40
    # whose levels can be summed: 10^L is at most the true digit count.
    checked = 0
    for r in (2, 3):
        for t in range(8):
            for base in range(1, 40):
                digits = _expanded_digits(base, t, r, 3000)
                if digits is not None:
                    checked += 1
                    assert 10 ** _note_exponent(ChainNumber(base, t, r)) <= digits
    assert checked == 333


def test_refusal_exponent_bounds_the_level_it_refuses(monkeypatch):
    # Every depth-2 and depth-3 chain with pad < 8 and top value < 40, at
    # limits 10^0 to 10^9: a "level k would need about 10^L digits" refusal
    # bounds level k itself, so 10^L is at most its digit count wherever
    # that level can be summed. Accepted chains are not expanded.
    monkeypatch.setattr(towers, "preimage_ones", lambda width: None)
    monkeypatch.setattr(towers, "shift", lambda rep, t: None)
    checked = 0
    for r in (2, 3):
        for t in range(8):
            for base in range(1, 40):
                for k in range(10):
                    monkeypatch.setattr(towers, "EXPANSION_LIMIT", 10 ** k)
                    try:
                        materialize(ChainNumber(base, t, r))
                        continue
                    except SizeCapError as exc:
                        refused = re.match(r"level (\d+) would need about "
                                           r"10\^(\d+) digits", str(exc))
                    if refused is None:
                        continue
                    level, exponent = map(int, refused.groups())
                    digits = _expanded_digits(base, t, r - level, 3000)
                    if digits is not None:
                        checked += 1
                        assert 10 ** exponent <= digits, (base, t, r, k)
    assert checked == 4275
    # Level 0 of ChainNumber(20, 2, 3) has W! digits or more, W = 2 +
    # 3! + ... + 22! the width of level 1: its exponent lies below
    # Robbins's lower bound on log10(W!), within W / 1000 of it.
    width = 2 + sum(math.factorial(k) for k in range(3, 23))
    monkeypatch.setattr(towers, "EXPANSION_LIMIT", 10 ** 30)
    with pytest.raises(SizeCapError) as caught:
        materialize(ChainNumber(20, 2, 3))
    exponent = 24302788316452078687533
    assert str(caught.value) == (
        f"level 0 would need about 10^{exponent} digits, above the cap of "
        f"{10 ** 30} (ones-block tower: depth 3, pad 2, top value 20; at "
        f"least 10^20 digits when expanded)")
    lower, upper = robbins_log10(width)
    assert upper - width // 1000 < exponent < lower


def test_chain_level_rewrite_holds_concretely():
    # one step of a padded ones block plus a small y adds the step of y
    rng = random.Random(8)
    for e in (2, 3, 4):
        for _ in range(30):
            base = rng.randrange(1, 200)
            t = rng.randrange(1, 6)
            rep = materialize(ChainNumber(base, t, 1))
            y = rng.randrange(0, math.factorial(t + 1))
            assert digit_count(y) <= t
            assert happy_step(add(rep, y), e) == base + happy_step_nat(y, e)


def test_replay_rejects_undersized_pad(atlas):
    witness = nice_check(2, 1, 20, atlas(2))
    good = build_sequence(2, 1, 3, witness, atlas(2))
    bad = SequenceCertificate(
        e=good.e, p=good.p, m=good.m, t=0, r=good.r, offset=good.offset,
        steps_by_index=good.steps_by_index)
    with pytest.raises(ReplayError):
        replay_run(bad, 2)


def test_chain_and_size_note_follow_the_fields(atlas):
    # chain and size_note are read off offset, t and r, so a replaced
    # field moves both, and the replay and the expansion check one pad.
    witness = nice_check(2, 1, 20, atlas(2))
    good = build_sequence(2, 1, 3, witness, atlas(2))
    for k in (0, 1, 5, 10 ** 6):
        cert = dataclasses.replace(good, t=k)
        assert cert.chain == ChainNumber(good.offset, k, good.r)
        assert cert.size_note == _size_note(ChainNumber(good.offset, k, good.r))
    cert = dataclasses.replace(good, offset=45, r=1)
    assert cert.chain == ChainNumber(45, good.t, 1)
    assert cert.size_note == "ones block of length 45 shifted by 2 (47 digits)"


@pytest.mark.parametrize("e, p, offset, m", [
    (2, 1, 20, 1), (2, 1, 20, 2), (4, 1, 6, 2), (1, 1, 1, 3)])
def test_replay_and_verify_concrete_demand_the_certified_count(
        e, p, offset, m, atlas):
    # One count off by one, either way, fails both checks at that index
    # and no other; depths 0, 1 and 2 all expand here.
    good = build_sequence(e, p, m, nice_check(e, p, offset, atlas(e)), atlas(e))
    assert good.r <= 2
    for i in range(1, m + 1):
        for delta in (-1, 1):
            steps = {**good.steps_by_index, i: good.steps_by_index[i] + delta}
            cert = dataclasses.replace(good, steps_by_index=steps)
            with pytest.raises(ReplayError, match=f"^index {i}: concrete orbit "):
                replay_run(cert, i)
            with pytest.raises(ReplayError, match=f"^index {i}: concrete orbit "):
                verify_concrete(cert)
            for j in set(range(1, m + 1)) - {i}:
                assert replay_run(cert, j) == good.steps_by_index[j]


def test_replay_count_texts(atlas):
    witness = nice_check(2, 1, 20, atlas(2))
    good = build_sequence(2, 1, 2, witness, atlas(2))
    assert good.steps_by_index[2] == 4
    for steps, text in ((3, "index 2: concrete orbit missed 1 within 3 steps"),
                        (5, "index 2: concrete orbit took 4 steps, "
                            "certificate says 5"),
                        (0, "index 2: concrete orbit missed 1 within 0 steps")):
        cert = dataclasses.replace(
            good, steps_by_index={**good.steps_by_index, 2: steps})
        for check in (lambda: replay_run(cert, 2), lambda: verify_concrete(cert)):
            with pytest.raises(ReplayError) as info:
                check()
            assert str(info.value) == text


def test_certificate_indices_must_be_one_to_m(atlas):
    # A missing index would fail the replay with a bare KeyError, and an
    # extra one would reach the JSON form; both are refused on creation.
    good = build_sequence(2, 1, 3, nice_check(2, 1, 20, atlas(2)), atlas(2))
    steps = good.steps_by_index
    for change, text in (
            ({"steps_by_index": {1: 5, 3: 5}}, "steps_by_index has no index 2"),
            ({"steps_by_index": {}}, "steps_by_index has no index 1"),
            ({"m": 4}, "steps_by_index has no index 4"),
            ({"steps_by_index": {**steps, 4: 5}},
             "steps_by_index has index 4 outside [1, 3]"),
            ({"steps_by_index": {**steps, 0: 5}},
             "steps_by_index has index 0 outside [1, 3]"),
            ({"steps_by_index": {**steps, "2": 5}},
             "steps_by_index has index '2' outside [1, 3]"),
            ({"m": 2}, "steps_by_index has index 3 outside [1, 2]")):
        with pytest.raises(ValueError) as info:
            dataclasses.replace(good, **change)
        assert str(info.value) == text


def _from_json(text):
    """The certificate that certificate_to_json wrote, from t, r, l and per_i."""
    obj = json.loads(text)
    return SequenceCertificate(
        e=obj["e"], p=obj["p"], m=obj["m"], t=obj["t"], r=obj["r"],
        offset=obj["l"],
        steps_by_index={row["i"]: row["steps"] for row in obj["per_i"]})


@pytest.mark.parametrize("e, p, offset, ms", [
    *((e, p, offset, range(1, 21)) for (e, p), offset in sorted(
        BUILTIN_OFFSETS.items())),
    (1, 1, 1, [3])])
def test_certificate_json_holds_what_the_replay_needs(e, p, offset, ms, atlas):
    witness = nice_check(e, p, offset, atlas(e))
    for m in ms:
        cert = build_sequence(e, p, m, witness, atlas(e))
        text = certificate_to_json(cert)
        back = _from_json(text)
        assert back == cert
        assert json.loads(text)["size_note"] == back.size_note
        assert {i: replay_run(back, i) for i in range(1, m + 1)} == \
            cert.steps_by_index
    if e == 1:
        assert back.chain.depth == 2


def test_replay_index_bounds(atlas):
    witness = nice_check(2, 1, 20, atlas(2))
    cert = build_sequence(2, 1, 2, witness, atlas(2))
    with pytest.raises(ValueError):
        replay_run(cert, 0)
    with pytest.raises(ValueError):
        replay_run(cert, 3)


def test_chain_number_validation():
    with pytest.raises(ValueError):
        ChainNumber(-1, 0, 0)
    with pytest.raises(ValueError):
        ChainNumber(0, 2, 1)
