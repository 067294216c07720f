"""Exact factorial-base arithmetic and digit-power orbit dynamics."""

from importlib import import_module as _import_module

from .factoradic import (
    FactoradicRep, MalformedRepresentationError, add, digit_count, format,
    parse, shift, to_factoradic, to_natural)

# dynamics, towers and analysis load on first use, since convert needs
# none of them and most other commands need only dynamics. Each name
# below maps to its home module.
_LAZY = dict.fromkeys((
    "dynamics", "Attractor", "AttractorAtlas", "CertificationError",
    "DescentBound", "OrbitCapError", "OrbitReport", "ReplayError",
    "SizeCapError", "WitnessError", "classify", "descent_bound",
    "enumerate_attractors", "happy_step", "happy_step_nat", "iterate",
    "smallest_j"), "dynamics")
_LAZY.update(dict.fromkeys((
    "towers", "ChainNumber", "NiceWitness", "SequenceCertificate",
    "additivity_check", "build_sequence", "certificate_to_json",
    "materialize", "nice_check", "preimage_ones", "replay_run",
    "verify_concrete"), "towers"))
_LAZY.update(dict.fromkeys((
    "analysis", "DensityReport", "RunRecord", "RunSearch", "density",
    "emit_report", "is_p_happy", "smallest_runs"), "analysis"))

__all__ = [name for name in globals() if name[0] != "_"] + list(_LAZY)
__version__ = "1.0.0"


def __getattr__(name: str):
    """Import a lazy name's home module and keep both names here (PEP 562).

    Keeping the module under its home name too means a package copy kept
    across a re-import reads every later name from the module it loaded.
    """
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals().get(home) or _import_module(f"{__name__}.{home}")
    globals()[home] = module
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
