"""Golden `density` outputs: stdout, stderr and exit code, byte for byte.

The corpus in golden/density.json holds text, csv and json output for
e = 1..8 at several uppers, and the refusal of the least k! - 1 over the
work limit for each e. A change that alters output on purpose rewrites
the corpus and names the entries it changed. To rewrite it:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from math import factorial
from pathlib import Path

from facthappy import cli, dynamics

CORPUS = Path(__file__).with_name("golden") / "density.json"
# Least k with k! - 1 refused by the density work bound, per exponent.
_REFUSED_K = {1: 105, 2: 48, 3: 28, 4: 19, 5: 15, 6: 14, 7: 14, 8: 14}


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


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_corpus_covers_every_call():
    corpus = json.loads(CORPUS.read_text())
    assert [tuple(entry["argv"]) for entry in corpus] == _argv_list()
    assert {entry["code"] for entry in corpus} == {0, 1}


def test_density_outputs_match_corpus(atlas, monkeypatch):
    # The atlas is the same for every call of an exponent; reuse the
    # session's so the corpus runs in well under the tier-1 budget.
    monkeypatch.setattr(dynamics, "enumerate_attractors", atlas)
    for entry in json.loads(CORPUS.read_text()):
        assert _run(entry["argv"]) == entry, entry["argv"]


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    corpus = [_run(argv) for argv in _argv_list()]
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(corpus)} entries to {CORPUS}", file=sys.stderr)
