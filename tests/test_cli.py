import json

from facthappy import cli


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
