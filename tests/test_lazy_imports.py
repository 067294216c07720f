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
    "OrbitReport", "PaddingTooSmallError", "ReplayError", "RunRecord",
    "RunSearch", "SequenceCertificate", "SizeCapError", "WitnessError",
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
    (("orbit", "2021", "--e", "2", "--trace"), ()),
    (("bound", "--e", "5"), ()),
    (("attractors", "--e", "4", "--format", "csv"), ()),
    (("nice", "--e", "2", "--p", "1", "--l", "20"), ("towers",)),
    (("build", "--e", "3", "--p", "17", "--m", "4", "--format", "json"),
     ("towers",)),
    (("runs", "--e", "2", "--max-m", "3"), ("analysis",)),
    (("density", "--e", "3", "--upper", "100", "--format", "json"),
     ("analysis",)),
])
def test_command_loads_only_its_layers(argv, loaded):
    code, modules = fresh(LOADED_BY_COMMAND, *argv)
    assert code == 0
    assert modules == sorted(
        f"facthappy.{m}" for m in ("cli", "dynamics", "factoradic", *loaded))


def test_every_exported_name_is_its_home_object():
    checks = fresh("""
import json, sys, types
import facthappy
lazy = sorted(m for m in ("towers", "analysis")
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


def test_older_copy_loads_against_its_own_modules():
    # A copy of the package kept after it was deleted from sys.modules
    # and imported afresh binds its lazy modules to its own dynamics, and
    # leaves the newer copy's entries as they were.
    checks = fresh("""
import json, sys
import facthappy as old
atlas = old.enumerate_attractors(2)
for key in [k for k in sys.modules if k.split(".")[0] == "facthappy"]:
    del sys.modules[key]
import facthappy as new
out = {"starts": [r.start for r in old.smallest_runs(2, 1, 3, atlas).records],
       "q": old.nice_check(2, 1, 20, atlas).q_by_member[4]}
out["old_bound"] = (old.analysis.Attractor is old.dynamics.Attractor
                    and old.towers.Attractor is old.dynamics.Attractor)
out["new_untouched"] = (sys.modules["facthappy"] is new and sorted(
    k for k in sys.modules if k.startswith("facthappy.")) == [
        "facthappy.dynamics", "facthappy.factoradic"])
out["new_bound"] = (new.analysis.Attractor is new.dynamics.Attractor
                    and new.analysis is not old.analysis
                    and sys.modules["facthappy.analysis"] is new.analysis)
print(json.dumps(out))
""")
    assert checks == {"starts": [2, 2, 6], "q": 1, "old_bound": True,
                      "new_untouched": True, "new_bound": True}
