"""Golden CLI outputs: stdout, stderr and exit code, byte for byte.

The corpus in golden/density.json holds text, csv and json `density`
output for e = 1..8 at several uppers, and the refusal of the least
k! - 1 over the work limit for each e. The corpus in golden/cli.json
holds every command line of the README, three calls that exit 1 (two
of them malformed digit text) and two that exit 2, then the
cli-workload calls of perfbench seed 1; stdout longer than _HASHED
characters is kept as its sha256. A change that alters output on
purpose rewrites the corpora and names the entries it changed. To rewrite them:

    PYTHONPATH=src python tests/test_golden.py

The README tables between "<!-- gate: name -->" and "<!-- /gate -->"
are rebuilt from the library, all but their timing cells.
"""

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from itertools import count
from math import factorial
from pathlib import Path

import pytest

from conftest import _density_path
from facthappy import cli, dynamics

CORPUS = Path(__file__).with_name("golden") / "density.json"
CLI_CORPUS = Path(__file__).with_name("golden") / "cli.json"
README = Path(__file__).parents[1] / "README.md"
# Least k with k! - 1 refused by the density work bound, per exponent.
_REFUSED_K = {1: 105, 2: 48, 3: 28, 4: 19, 5: 15, 6: 14, 7: 14, 8: 14}
_HASHED = 500
# An atlas over the work limit (exit 1), an orbit cap reached and a
# failed witness (exit 2), a digit over its position and a token with a
# leading zero (exit 1).
_FAILING = [("attractors", "--e", "9"), ("orbit", "2021", "--e", "2", "--cap", "2"),
            ("nice", "--e", "2", "--p", "1", "--l", "0"),
            ("convert", "--digits", "1.2.3!"), ("convert", "--digits", "3.05.1.0!")]
# The 39 calls of perfbench's cli workload at seed 1, in its order; each
# exits 0.
_WORKLOAD = [tuple(line.split()) for line in """\
orbit 8778391 --e 6
convert 745
runs --e 4 --max-m 47 --cap 10000 --format json
attractors --e 1
attractors --e 6 --format csv
attractors --e 5 --format csv
orbit 14974418716924632758626636873436700 --e 5
nice --e 2 --p 4 --l 2841
density --e 5 --upper 2216 --format csv
convert --digits 1.72.59.18.21.28.45.62.40.67.15.59.48.20.74.29.3.27.37.60.0.19.\
34.43.55.55.8.23.36.15.38.33.50.15.37.19.11.14.50.23.27.1.15.14.44.37.16.22.19.31.\
0.8.23.4.12.30.4.5.27.20.22.24.23.21.11.20.10.1.13.10.9.1.9.11.0.4.4.11.1.1.8.1.0.\
4.3.1.0.0!
density --e 4 --upper 3822 --format json
attractors --e 2
orbit 886497180106 --e 4
nice --e 2 --p 4 --l 2841
runs --e 2 --max-m 11 --cap 10000
convert --digits 3.8.0.5.6.0.2.2.0.0!
density --e 6 --upper 810 --format csv
nice --e 4 --p 658 --l 65763
attractors --e 4
density --e 4 --upper 9004 --format csv
nice --e 3 --p 16 --l 50127
density --e 5 --upper 3340 --format json
density --e 5 --upper 5947
build --e 2 --p 4 --m 3
attractors --e 6
attractors --e 3
bound --e 2
density --e 6 --upper 8702 --format json
orbit 650 --e 3 --trace
bound --e 2
attractors --e 5
build --e 2 --p 1 --m 2 --format json
density --e 6 --upper 6502
runs --e 3 --max-m 30 --cap 10000 --format csv
build --e 3 --p 1 --m 11
convert 50485772071901991291557710414801567865001462280649752495309002138319217355\
31028283623938767249820219215828139865545659108011692302526608052979240856551145\
141259431080406681340744114440973200230869578
orbit 61 --e 2 --trace
density --e 4 --upper 1810
build --e 4 --p 1 --m 15 --format json
""".splitlines()]


def _argv_list():
    calls = []
    for e in range(1, 9):
        for upper in (1, 2021, 999_983, factorial(10) - 1):
            for fmt in ((), ("--format", "csv"), ("--format", "json")):
                calls.append(("density", "--e", str(e), "--upper", str(upper))
                             + fmt)
        calls.append(("density", "--e", str(e), "--upper",
                      str(factorial(_REFUSED_K[e]) - 1)))
    # Past 10! - 1 where the tally is cheap: counts over 2^32 and 2^64.
    for e, k in ((1, 30), (2, 21), (3, 20), (4, 13), (5, 11)):
        calls.append(("density", "--e", str(e), "--upper",
                      str(factorial(k) - 1), "--format", "csv"))
    return calls


def _cli_argv_list():
    """The README's command lines, read as CI reads them, _FAILING, _WORKLOAD."""
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```text\n", 1)[1].split("```", 1)[0]
    calls = [tuple(shlex.split(line.split("#", 1)[0])[1:])
             for line in block.splitlines() if line.startswith("facthappy ")]
    return calls + _FAILING + _WORKLOAD


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_hashed(argv):
    entry = _run(argv)
    if len(entry["stdout"]) > _HASHED:
        stdout = entry.pop("stdout").encode()
        entry["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
    return entry


def test_corpus_covers_every_call():
    corpus = json.loads(CORPUS.read_text())
    assert [tuple(entry["argv"]) for entry in corpus] == _argv_list()
    assert {entry["code"] for entry in corpus} == {0, 1}


def test_cli_corpus_covers_the_readme():
    corpus = json.loads(CLI_CORPUS.read_text())
    assert [tuple(entry["argv"]) for entry in corpus] == _cli_argv_list()
    readme = len(corpus) - len(_FAILING) - len(_WORKLOAD)
    assert readme > 0
    codes = [entry["code"] for entry in corpus]
    assert codes[readme:readme + len(_FAILING)] == [1, 2, 2, 1, 1]
    assert set(codes[:readme] + codes[readme + len(_FAILING):]) == {0}


def test_density_outputs_match_corpus(atlas, monkeypatch):
    # The atlas is the same for every call of an exponent; reuse the
    # session's so the corpus runs in well under the tier-1 budget.
    monkeypatch.setattr(dynamics, "enumerate_attractors", atlas)
    for entry in json.loads(CORPUS.read_text()):
        assert _run(entry["argv"]) == entry, entry["argv"]


def test_cli_outputs_match_corpus(atlas, monkeypatch):
    monkeypatch.setattr(dynamics, "enumerate_attractors", atlas)
    for entry in json.loads(CLI_CORPUS.read_text()):
        assert _run_hashed(entry["argv"]) == entry, entry["argv"]


def _gated_table(name):
    """Cells of each row of the README table gated as name, rule row aside."""
    text = README.read_text()
    assert text.count(f"<!-- gate: {name} -->\n") == 1, name
    block = text.split(f"<!-- gate: {name} -->\n")[1].split("\n<!-- /gate -->")[0]
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in block.splitlines() if not line.startswith("|---")]


def test_readme_tables_match_library(atlas):
    exponents = range(1, 9)
    head = ["e"] + [str(e) for e in exponents]
    rows = {row[0]: row for row in _gated_table("atlas sizes")}
    assert [rows["e"], rows["memo_bound"], rows[r"\|Im\|"]] == [
        head, ["memo_bound"] + [f"{atlas(e).memo_bound:,}" for e in exponents],
        [r"\|Im\|"] + [f"{len(atlas(e)._index):,}" for e in exponents]]
    with pytest.MonkeyPatch.context() as mp:
        form = [_density_path(mp, e, factorial(10) - 1) for e in exponents]
        rows = {row[0]: row for row in _gated_table("density form at 10! - 1")}
        assert [rows["e"], rows["form"]] == [head, ["form"] + form]
        accepted = [["e", "upper", "path"]]
        for e in exponents:  # (k+1)! - 1 has k digits, the first refused
            k = next(k for k in count(2) if dynamics._density_work(e, k)
                     > dynamics.DENSITY_WORK_LIMIT)
            accepted.append([str(e), f"{k}! - 1",
                             _density_path(mp, e, factorial(k) - 1)])
    assert [row[:3] for row in _gated_table("largest accepted k! - 1")] \
        == accepted
    beyond = [["e", "fixed points", "cycles"]]
    for e in (7, 8):
        at = atlas(e)
        beyond.append([str(e), ", ".join(map(str, at.fixed_points)), ", ".join(
            f"{c.members[0]} ({len(c.members)})" for c in at.cycles)])
    assert _gated_table("attractors e = 7, 8") == beyond


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    for path, argvs, run in ((CORPUS, _argv_list(), _run),
                             (CLI_CORPUS, _cli_argv_list(), _run_hashed)):
        corpus = [run(argv) for argv in argvs]
        path.write_text(json.dumps(corpus, indent=1) + "\n")
        print(f"wrote {len(corpus)} entries to {path}", file=sys.stderr)
