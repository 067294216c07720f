import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from conftest import loop_digits
from facthappy import cli, dynamics, factoradic


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convert_to_digits(capsys):
    code, out, err = run_cli(capsys, "convert", "2020")
    assert (code, out, err) == (0, "2.4.4.0.2.0!\n", "")


def test_convert_from_digits(capsys):
    code, out, _ = run_cli(capsys, "convert", "--digits", "2.4.4.0.2.0!")
    assert (code, out) == (0, "2020\n")
    code, out, _ = run_cli(capsys, "convert", "--digits", "0!")
    assert (code, out) == (0, "0\n")


def test_convert_usage_errors(capsys):
    code, _, err = run_cli(capsys, "convert")
    assert code == 1 and err.startswith("error:")
    code, _, err = run_cli(capsys, "convert", "5", "--digits", "1!")
    assert code == 1 and err.startswith("error:")
    code, _, err = run_cli(capsys, "convert", "--digits", "3.1!")
    assert code == 1 and err.startswith("error:")


def test_orbit_summary(capsys):
    code, out, _ = run_cli(capsys, "orbit", "2021", "--e", "2")
    assert code == 0
    assert out == "start: 2021\ne: 2\nsteps: 3\nattractor: fixed point 5\n"


def test_orbit_trace_format(capsys):
    code, out, _ = run_cli(capsys, "orbit", "2020", "--e", "2", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0\t2020\t2.4.4.0.2.0!"
    assert lines[5] == "5\t1\t1!"
    assert lines[-1] == "attractor: fixed point 1"


def test_orbit_cycle_phrase(capsys):
    code, out, _ = run_cli(capsys, "orbit", "3401", "--e", "5")
    assert code == 0
    assert "attractor: cycle (2114;3401)" in out


def test_orbit_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "orbit", "2020", "--e", "2", "--cap", "2")
    assert code == 2
    assert err.startswith("error:") and "\n" not in err.strip()


def test_attractors_human(capsys):
    code, out, _ = run_cli(capsys, "attractors", "--e", "6")
    assert code == 0
    assert out == (
        "e: 6\nbound: 362879\n"
        "fixed points: 1, 8258, 8259\n"
        "cycles: (67;794;731)\n"
    )


def test_attractors_beyond_the_paper(capsys):
    code, out, _ = run_cli(capsys, "attractors", "--e", "7")
    assert code == 0 and ("fixed points: 1, 130, 131, 2318, 2319, 2939396, "
                          "2939397, 3205134, 3205135\n") in out
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "attractors", "--e", "8", "--format", "csv")
    assert time.perf_counter() - started < 5
    assert code == 0
    assert out.startswith("kind,members\nfixed_point,1\nfixed_point,528260\n"
                          "fixed_point,528261\nfixed_point,2201570\n"
                          "fixed_point,2201571\ncycle,66052;")


def test_attractors_csv(capsys):
    code, out, _ = run_cli(capsys, "attractors", "--e", "5", "--format", "csv")
    assert code == 0
    assert out == (
        "kind,members\n"
        "fixed_point,1\nfixed_point,34\nfixed_point,35\n"
        "fixed_point,308\nfixed_point,309\n"
        "fixed_point,1058\nfixed_point,1059\n"
        "cycle,2114;3401\n"
    )


def test_bound_output(capsys):
    code, out, _ = run_cli(capsys, "bound", "--e", "4")
    assert code == 0
    assert out == "e: 4\nj: 6\nbound: 5039\ntail_offset: -260\ncertificate: ok\n"


def test_nice_output(capsys):
    code, out, _ = run_cli(capsys, "nice", "--e", "2", "--p", "1", "--l", "20")
    assert code == 0
    assert out == "e: 2\np: 1\nl: 20\nu=1: q=3\nu=4: q=1\nu=5: q=2\n"


def test_nice_failure_exit(capsys):
    code, _, err = run_cli(capsys, "nice", "--e", "2", "--p", "1", "--l", "0")
    assert code == 2 and "member 4" in err


def test_nice_and_build_bad_input_exit_one(capsys):
    for argv, message in (
            (("nice", "--e", "2", "--p", "3", "--l", "1"),
             "3 is not a fixed point for e=2"),
            (("build", "--e", "2", "--p", "3", "--m", "2", "--l", "5"),
             "3 is not a fixed point for e=2"),
            (("runs", "--e", "2", "--p", "3", "--max-m", "2"),
             "3 is not a fixed point for e=2"),
            (("nice", "--e", "2", "--p", "1", "--l", "-3"),
             "offset must be nonnegative, got -3"),
            (("nice", "--e", "2", "--p", "1", "--l", "20", "--cap", "5"),
             "unrecognized arguments: --cap 5"),
            (("build", "--e", "2", "--p", "1", "--m", "2", "--l", "-1"),
             "offset must be nonnegative, got -1")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_each_failure_class_exits_two(capsys, monkeypatch):
    from facthappy import towers
    for cls in (dynamics.CertificationError, dynamics.OrbitCapError,
                towers.WitnessError, towers.ReplayError, towers.SizeCapError):
        def fail(args, cls=cls):
            raise cls(f"{cls.__name__} raised")
        monkeypatch.setitem(cli._DISPATCH, "bound", fail)
        code, out, err = run_cli(capsys, "bound", "--e", "2")
        assert (code, out, err) == (2, "", f"error: {cls.__name__} raised\n")
        assert cls.__bases__ == (factoradic.ComputationError,)


def test_other_runtime_errors_are_not_failures(capsys, monkeypatch):
    # RecursionError is a RuntimeError: it must surface, not exit 2.
    for cls in (RecursionError, RuntimeError, NotImplementedError):
        def fail(args, cls=cls):
            raise cls("boom")
        monkeypatch.setitem(cli._DISPATCH, "bound", fail)
        with pytest.raises(cls, match="boom"):
            cli.main(["bound", "--e", "2"])


def test_build_json(capsys):
    code, out, _ = run_cli(capsys, "build", "--e", "2", "--p", "1", "--m", "2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["e"] == 2 and obj["p"] == 1 and obj["l"] == 20
    assert obj["per_i"] == [{"i": 1, "steps": 4}, {"i": 2, "steps": 4}]


def test_build_uses_builtin_offsets(capsys):
    code, out, _ = run_cli(capsys, "build", "--e", "4", "--p", "659", "--m", "1")
    assert code == 0
    assert "l: 31743" in out


def test_build_unknown_pair_needs_offset(capsys):
    code, _, err = run_cli(capsys, "build", "--e", "5", "--p", "34", "--m", "2")
    assert code == 1 and "--l" in err
    code, out, _ = run_cli(capsys, "build", "--e", "1", "--p", "1", "--m", "3",
                           "--l", "1")
    assert code == 0 and "m: 3" in out


def test_build_with_an_offset_past_the_float_range(capsys):
    # A 310-digit nice offset for (5, 34): the top level's width w = pad +
    # offset is past the float range. The note's exponent lies below
    # Robbins's lower bound on log10(w!), within w / 1000 of his upper one.
    from conftest import robbins_log10
    from facthappy.towers import nice_check
    atlas = dynamics.enumerate_attractors(5)
    rng = random.Random(1)
    while True:
        offset = rng.randrange(10 ** 309, 10 ** 310)
        try:
            nice_check(5, 34, offset, atlas)
            break
        except dynamics.WitnessError:
            pass
    code, out, err = run_cli(capsys, "build", "--e", "5", "--p", "34",
                             "--m", "3", "--l", str(offset))
    assert (code, err) == (0, "")
    exponent = int(re.search(
        f"\nsize: ones-block tower: depth 2, pad 2, top value {offset}; "
        "at least 10\\^(\\d+) digits when expanded\n", out).group(1))
    lower, upper = robbins_log10(offset + 2)
    assert upper - (offset + 2) // 1000 < exponent < lower


def test_convert_refuses_a_negative_n(capsys):
    assert run_cli(capsys, "convert", "-5") == (
        1, "", "error: n must be nonnegative\n")


def test_bound_exits_2_when_a_check_fails(capsys, monkeypatch):
    # Every e in 1..EXPONENT_LIMIT passes descent_bound's checks, so the
    # failing bound is a stand-in.
    failed = dynamics.DescentBound(e=2, j=3, bound=23, tail_offset=0,
                                   certificate_ok=False,
                                   failed_checks=("base_case", "dominance"))
    monkeypatch.setattr(dynamics, "descent_bound", lambda e: failed)
    assert run_cli(capsys, "bound", "--e", "2") == (
        2, "e: 2\nj: 3\nbound: 23\ntail_offset: 0\n"
        "certificate: FAILED (base_case, dominance)\n", "")


def test_runs_csv(capsys):
    code, out, _ = run_cli(capsys, "runs", "--e", "2", "--max-m", "4",
                           "--cap", "1000", "--format", "csv")
    assert code == 0
    assert out == "e,p,m,start\n2,1,1,2\n2,1,2,2\n2,1,3,6\n2,1,4,6\n"


def test_runs_floor_one(capsys):
    code, out, _ = run_cli(capsys, "runs", "--e", "2", "--max-m", "1",
                           "--floor", "1", "--cap", "100")
    assert code == 0 and "m=1: start 1" in out


def test_runs_partial_exits_two(capsys):
    code, out, err = run_cli(capsys, "runs", "--e", "5", "--max-m", "10",
                             "--cap", "5000")
    assert code == 2
    assert "m=10: not found below 5000" in out
    assert err.startswith("error:")


def test_density_csv(capsys):
    code, out, _ = run_cli(capsys, "density", "--e", "2", "--upper", "23",
                           "--format", "csv")
    assert code == 0
    assert out == (
        "e,attractor,count,proportion_num,proportion_den\n"
        "2,1,13,13,23\n"
        "2,4,2,2,23\n"
        "2,5,8,8,23\n"
    )


def test_density_json_ends_with_newline(capsys):
    code, out, _ = run_cli(capsys, "density", "--e", "2", "--upper", "23",
                           "--format", "json")
    assert code == 0 and out.endswith("}\n")
    assert json.loads(out)["upper"] == 23


def test_density_human(capsys):
    code, out, _ = run_cli(capsys, "density", "--e", "2", "--upper", "5")
    assert code == 0
    assert out == "e: 2\nupper: 5\n1: 3 (3/5)\n4: 1 (1/5)\n5: 1 (1/5)\n"


def test_density_ignores_threads_env(capsys, monkeypatch):
    # The scan has no thread knob: the variable is not read at all.
    monkeypatch.delenv("FACTHAPPY_THREADS", raising=False)
    code, base, _ = run_cli(capsys, "density", "--e", "2", "--upper", "10")
    assert code == 0
    monkeypatch.setenv("FACTHAPPY_THREADS", "zero")
    code, out, err = run_cli(capsys, "density", "--e", "2", "--upper", "10")
    assert (code, out, err) == (0, base, "")


def test_density_refuses_astronomical_upper(capsys):
    upper = str(10 ** 40)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "density", "--e", "6", "--upper", upper)
    assert time.perf_counter() - started < 10
    assert (code, out) == (1, "")
    assert err.startswith("error:") and f"upper={upper} at e=6" in err


def test_atlas_commands_refuse_oversized_exponent(capsys):
    for e in ("9", "1000000"):
        for argv in (("attractors", "--e", e),
                     ("nice", "--e", e, "--p", "1", "--l", "5"),
                     ("build", "--e", e, "--p", "1", "--m", "3", "--l", "5"),
                     ("runs", "--e", e, "--max-m", "3"),
                     ("density", "--e", e, "--upper", "5")):
            started = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - started < 1
            assert (code, out) == (1, "")
            assert re.match(rf"error: exponent {e}\b", err)


def test_bound_and_orbit_refuse_exponent_over_limit(capsys):
    over = str(dynamics.EXPONENT_LIMIT + 1)
    for e in (over, "1000", "1000000"):
        for argv in (("bound", "--e", e), ("orbit", "2021", "--e", e),
                     ("orbit", "2021", "--e", e, "--trace")):
            started = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - started < 1
            assert (code, out) == (1, "")
            assert err.startswith(f"error: exponent {e} is above the limit")
    code, out, _ = run_cli(capsys, "bound", "--e", str(dynamics.EXPONENT_LIMIT))
    assert code == 0 and "certificate: ok" in out


def test_runs_refuses_cap_over_table_limit(capsys):
    cap = str(10 ** 12)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "runs", "--e", "2", "--max-m", "3",
                             "--cap", cap)
    assert time.perf_counter() - started < 5
    assert (code, out) == (1, "")
    assert err.startswith("error:") and cap in err
    code, out, _ = run_cli(capsys, "runs", "--e", "2", "--max-m", "3",
                           "--cap", str(10 ** 6))
    assert code == 0 and out.endswith("m=3: start 6\n")


def test_negative_and_below_floor_caps_refused(capsys):
    for argv, value in (
            (("runs", "--e", "2", "--max-m", "3", "--cap", "-7"), "-7"),
            (("runs", "--e", "2", "--max-m", "3", "--cap", "1"), "1"),
            (("runs", "--e", "2", "--max-m", "3", "--floor", "1",
              "--cap", "0"), "0"),
            (("orbit", "2021", "--e", "2", "--cap", "-1"), "-1"),
            (("orbit", "2021", "--e", "2", "--trace", "--cap", "-1"), "-1")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and value in err.split()
    code, out, _ = run_cli(capsys, "runs", "--e", "2", "--max-m", "1",
                           "--floor", "1", "--cap", "1")
    assert (code, out) == (0, "e: 2\np: 1\nfloor: 1\nm=1: start 1\n")


def test_oversized_exponent_refused_in_subprocess():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    for e in ("9", "1000000"):
        proc = subprocess.run(
            [sys.executable, "-m", "facthappy.cli", "density", "--e", e,
             "--upper", "5"], env=env, capture_output=True, text=True,
            timeout=30)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert f"exponent {e}" in proc.stderr


def test_closed_stdout_exits_one_without_traceback():
    # The read end is closed before the child writes, so its first write
    # or the flush in main meets a broken pipe.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (("convert", "2020"),
                 ("runs", "--e", "4", "--max-m", "600", "--cap", "10000"),
                 ("build", "--e", "2", "--p", "1", "--m", "3000")):
        proc = subprocess.Popen(
            [sys.executable, "-m", "facthappy.cli", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, "")


def test_build_run_length_limit(capsys):
    from facthappy.towers import RUN_LENGTH_LIMIT
    for m in (RUN_LENGTH_LIMIT + 1, 10 ** 11):
        code, out, err = run_cli(capsys, "build", "--e", "2", "--p", "1",
                                 "--m", str(m))
        assert (code, out, err) == (
            1, "", f"error: run length {m} is above the limit of "
            f"{RUN_LENGTH_LIMIT}\n")
    code, out, _ = run_cli(capsys, "build", "--e", "2", "--p", "1",
                           "--m", str(RUN_LENGTH_LIMIT))
    assert code == 0 and out.endswith(f"i={RUN_LENGTH_LIMIT}: 9 steps\n")


def test_integer_arguments_over_digit_limit_refused_briefly(capsys):
    over = "9" * (factoradic.DIGIT_LIMIT + 1)
    for argv in (("convert", over), ("orbit", over, "--e", "2"),
                 ("density", "--e", "2", "--upper", "+" + over)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err) < 200
        assert "4,301 decimal digits" in err and "4,300" in err


def test_convert_result_over_digit_limit_refused(capsys):
    text = factoradic.format(factoradic.FactoradicRep(
        loop_digits(10 ** factoradic.DIGIT_LIMIT)))
    code, out, err = run_cli(capsys, "convert", "--digits", text)
    assert (code, out) == (1, "")
    assert err == ("error: the result has 4,301 decimal digits, "
                   "over the limit of 4,300\n")


def test_convert_digit_text_errors_are_brief(capsys):
    # A token too long for its position is refused before int() reads it,
    # and the error quotes a bounded excerpt, not the whole text.
    for text in ("9" * 5000 + ".1!", "1." * 2999 + "x!", "x" * 5000 + "!",
                 "1." * 3000):
        code, out, err = run_cli(capsys, "convert", "--digits", text)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err) < 200
        assert "set_int_max_str_digits" not in err
    _, _, err = run_cli(capsys, "convert", "--digits", "9" * 5000 + ".1!")
    assert "at position 2" in err
    _, _, err = run_cli(capsys, "convert", "--digits", "1." * 2999 + "x!")
    assert err == "error: bad digit token 'x' at position 1\n"


def test_convert_refuses_non_ascii_digits(capsys):
    # str.isdigit admits these; int() either rejects them ('²') or reads
    # them as ASCII digits ('٣' is 3), so neither may reach it.
    for text, token, pos in (("²!", "²", 1), ("٣.١.٠!", "٣", 3),
                             ("3.1.٠!", "٠", 1), ("１!", "１", 1)):
        code, out, err = run_cli(capsys, "convert", "--digits", text)
        assert (code, out) == (1, "")
        assert err == f"error: bad digit token {token!r} at position {pos}\n"
    assert run_cli(capsys, "convert", "--digits", "3.1.0!")[:2] == (0, "20\n")


def test_convert_at_digit_limit_is_byte_identical(capsys):
    n = 10 ** factoradic.DIGIT_LIMIT - 1
    text = ".".join(str(a) for a in reversed(loop_digits(n))) + "!"
    code, out, _ = run_cli(capsys, "convert", "9" * factoradic.DIGIT_LIMIT)
    assert (code, out) == (0, text + "\n")
    code, out, _ = run_cli(capsys, "convert", "--digits", text)
    assert (code, out) == (0, "9" * factoradic.DIGIT_LIMIT + "\n")


def test_identical_argv_identical_bytes(capsys):
    probes = [
        ("orbit", "2021", "--e", "2"),
        ("attractors", "--e", "5", "--format", "csv"),
        ("build", "--e", "3", "--p", "17", "--m", "4", "--format", "json"),
        ("density", "--e", "3", "--upper", "5000", "--format", "json"),
    ]
    for argv in probes:
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "orbit", "abc", "--e", "2")
    assert code == 1 and err.startswith("error:")
    code, _, err = run_cli(capsys, "unknown-command")
    assert code == 1
    code, _, err = run_cli(capsys, "orbit", "5")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "facthappy" in out
