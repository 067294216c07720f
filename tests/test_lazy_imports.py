"""Which layers each command loads, and the package's lazy exports.

Each check runs in a fresh interpreter, since the test session has long
imported every module.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# Every public name of the package as it was when all of its modules
# were imported up front.
EXPORTED = (
    "Attractor", "AttractorAtlas", "CertificationError", "ChainNumber",
    "DensityReport", "DescentBound", "FactoradicRep",
    "MalformedRepresentationError", "NiceWitness", "OrbitCapError",
    "OrbitReport", "ReplayError", "RunRecord", "RunSearch",
    "SequenceCertificate", "SizeCapError", "WitnessError",
    "add", "additivity_check", "analysis", "build_sequence",
    "certificate_to_json", "classify", "density", "descent_bound",
    "digit_count", "dynamics", "emit_report", "enumerate_attractors",
    "factoradic", "format", "happy_step", "happy_step_nat", "is_p_happy",
    "iterate", "materialize", "nice_check", "parse", "preimage_ones",
    "replay_run", "shift", "smallest_j", "smallest_runs", "to_factoradic",
    "to_natural", "towers", "verify_concrete",
)


def fresh(code, *argv):
    """Run code in a new interpreter with src/ on the path; parse its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED_BY_COMMAND = """
import contextlib, io, json, sys
from facthappy import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("facthappy."))]))
"""


@pytest.mark.parametrize("argv, loaded", [
    (("convert", "2020"), ()),
    (("convert", "--digits", "2.4.4.0.2.0!"), ()),
    (("orbit", "2021", "--e", "2", "--trace"), ("dynamics",)),
    (("bound", "--e", "5"), ("dynamics",)),
    (("attractors", "--e", "4", "--format", "csv"), ("dynamics",)),
    (("nice", "--e", "2", "--p", "1", "--l", "20"), ("dynamics", "towers")),
    (("build", "--e", "3", "--p", "17", "--m", "4", "--format", "json"),
     ("dynamics", "towers")),
    (("runs", "--e", "2", "--max-m", "3"), ("analysis", "dynamics")),
    (("density", "--e", "3", "--upper", "100", "--format", "json"),
     ("analysis", "dynamics")),
])
def test_command_loads_only_its_layers(argv, loaded):
    code, modules = fresh(LOADED_BY_COMMAND, *argv)
    assert code == 0
    assert modules == sorted(
        f"facthappy.{m}" for m in ("cli", "factoradic", *loaded))


# Reads sys.modules before anything in this script imports json.
STDLIB_LOADED_BY_COMMAND = """
import sys
before = set(sys.modules)
import contextlib, io
from facthappy import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = sorted(m for m in ("json", "fractions")
                if m in sys.modules and m not in before)
import json
print(json.dumps([code, loaded]))
"""


@pytest.mark.parametrize("argv, loaded", [
    (("nice", "--e", "2", "--p", "1", "--l", "20"), []),
    (("build", "--e", "3", "--p", "17", "--m", "4"), []),
    (("runs", "--e", "2", "--max-m", "3"), []),
    (("runs", "--e", "2", "--max-m", "3", "--format", "csv"), []),
    (("density", "--e", "3", "--upper", "100"), ["fractions"]),
    (("density", "--e", "3", "--upper", "100", "--format", "csv"),
     ["fractions"]),
    (("build", "--e", "3", "--p", "17", "--m", "4", "--format", "json"),
     ["json"]),
    (("runs", "--e", "2", "--max-m", "3", "--format", "json"), ["json"]),
])
def test_json_and_fractions_load_only_where_used(argv, loaded):
    assert fresh(STDLIB_LOADED_BY_COMMAND, *argv) == [0, loaded]


def test_every_exported_name_is_its_home_object():
    checks = fresh("""
import json, sys, types
import facthappy
lazy = sorted(m for m in ("dynamics", "towers", "analysis")
              if f"facthappy.{m}" in sys.modules)
out = {"lazy_at_import": lazy, "all": sorted(facthappy.__all__),
       "dir": sorted(n for n in dir(facthappy) if not n.startswith("_"))}
for name in facthappy.__all__:
    obj = getattr(facthappy, name)
    if isinstance(obj, types.ModuleType):
        home = sys.modules[f"facthappy.{name}"]
        out[name] = obj is home
    else:
        out[name] = obj is getattr(sys.modules[obj.__module__], name)
    out[name] = out[name] and vars(facthappy)[name] is obj  # kept, not re-imported
print(json.dumps(out))
""")
    assert checks.pop("lazy_at_import") == []
    assert checks.pop("all") == sorted(EXPORTED)
    assert checks.pop("dir") == sorted(EXPORTED)
    assert checks == dict.fromkeys(EXPORTED, True)


def test_exceptions_load_no_lazy_layer():
    # The towers exceptions live in dynamics, so reading them loads
    # dynamics on first use but neither towers nor analysis.
    checks = fresh("""
import json, sys
import facthappy
from facthappy import ReplayError
errors = [facthappy.WitnessError, ReplayError, facthappy.SizeCapError]
print(json.dumps({
    "home": [err.__module__ for err in errors],
    "lazy": sorted(m for m in sys.modules
                   if m in ("facthappy.towers", "facthappy.analysis")),
    "all": sorted(facthappy.__all__),
}))
""")
    assert checks == {"home": ["facthappy.dynamics"] * 3, "lazy": [],
                      "all": sorted(EXPORTED)}
    assert len(EXPORTED) == 47


def test_star_import_and_from_import_match_home_modules():
    checks = fresh("""
import json, sys
from facthappy import nice_check, smallest_runs, towers
names = {}
exec("from facthappy import *", names)
names = {k: v for k, v in names.items() if not k.startswith("__")}
home = lambda k, v: (sys.modules.get(f"facthappy.{k}")
                     or getattr(sys.modules[v.__module__], k))
print(json.dumps({
    "names": sorted(names),
    "same": all(v is home(k, v) for k, v in names.items()),
    "from": [nice_check is towers.nice_check,
             smallest_runs is sys.modules["facthappy.analysis"].smallest_runs],
}))
""")
    assert checks == {"names": sorted(EXPORTED), "same": True,
                      "from": [True, True]}


def test_unknown_name_raises_attribute_error():
    import facthappy
    with pytest.raises(AttributeError,
                       match="^module 'facthappy' has no attribute 'nope'$"):
        facthappy.nope
    assert not hasattr(facthappy, "DEFAULT_SEARCH_CAP")
    with pytest.raises(ImportError):
        exec("from facthappy import nope", {})


def test_older_copy_keeps_the_layers_it_loaded():
    # A copy of the package kept after it was deleted from sys.modules
    # and imported afresh loads a layer once and keeps it, so after a
    # second re-import its emit_report still takes its own RunSearch.
    # Its atlas gives the same answers as the newer copy's.
    checks = fresh("""
import json, sys

def reimport():
    for key in [k for k in sys.modules if k.split(".")[0] == "facthappy"]:
        del sys.modules[key]
    import facthappy
    return facthappy

import facthappy as old
atlas = old.enumerate_attractors(2)
new = reimport()
new_atlas = new.enumerate_attractors(2)
search = old.smallest_runs(2, 1, 3, atlas)
out = {"starts": [r.start for r in search.records],
       "q": old.nice_check(2, 1, 20, atlas).q_by_member[4]}

def nice(fh, at, p, offset):
    try:
        return sorted(fh.nice_check(2, p, offset, at).q_by_member.items())
    except Exception as exc:
        return str(exc)

cases = [(p, n) for p in (1, 4, 5) for n in range(1, 301)]
out["happy"] = ([old.is_p_happy(n, 2, p, atlas) for p, n in cases]
                == [new.is_p_happy(n, 2, p, new_atlas) for p, n in cases])
cases = [(1, 20), (4, 2841), (5, 45), (4, 20), (5, 0)]
out["nice"] = [nice(old, atlas, p, y) for p, y in cases]
out["nice_same"] = out["nice"] == [nice(new, new_atlas, p, y) for p, y in cases]
newer = reimport()
text = old.emit_report(search, "json")
out["emit_same"] = text == newer.emit_report(
    newer.smallest_runs(2, 1, 3, newer.enumerate_attractors(2)), "json")
out["kept"] = (old.emit_report is old.analysis.emit_report
               and old.smallest_runs is old.analysis.smallest_runs
               and old.nice_check is old.towers.nice_check)
print(json.dumps(out))
""")
    nice = checks.pop("nice")
    assert [type(answer) for answer in nice] == [list, list, list, str, str]
    assert nice[0] == [[1, 3], [4, 1], [5, 2]]
    assert checks == {"starts": [2, 2, 6], "q": 1, "happy": True,
                      "nice_same": True, "emit_same": True, "kept": True}
