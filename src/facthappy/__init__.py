"""Exact factorial-base arithmetic and digit-power orbit dynamics."""

from importlib import import_module as _import_module
from sys import modules as _modules

from .factoradic import (
    FactoradicRep, MalformedRepresentationError, add, digit_count, format,
    parse, shift, to_factoradic, to_natural)
from .dynamics import (
    Attractor, AttractorAtlas, CertificationError, DescentBound,
    OrbitCapError, OrbitReport, classify, descent_bound, enumerate_attractors,
    happy_step, happy_step_nat, iterate, smallest_j)

# towers and analysis load on first use, since most commands need
# neither. Each name below maps to its home module.
_LAZY = dict.fromkeys((
    "towers", "ChainNumber", "NiceWitness", "PaddingTooSmallError", "ReplayError",
    "SequenceCertificate", "SizeCapError", "WitnessError", "additivity_check",
    "build_sequence", "certificate_to_json", "materialize", "nice_check",
    "preimage_ones", "replay_run", "verify_concrete"), "towers")
_LAZY.update(dict.fromkeys((
    "analysis", "DensityReport", "RunRecord", "RunSearch", "density",
    "emit_report", "is_p_happy", "smallest_runs"), "analysis"))

__all__ = [name for name in globals() if name[0] != "_"] + list(_LAZY)
__version__ = "1.0.0"
_SELF = _modules[__name__]


def __getattr__(name: str):
    """Import a lazy name's home module and keep the name here (PEP 562)."""
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals().get(home) or _load(home)
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def _load(home: str):
    """Import home against this copy of the package and its modules.

    Once the package is deleted from sys.modules and imported afresh, an
    older copy still binds its own dynamics; the newer entries come back.
    """
    if _modules.get(__name__) is _SELF:  # the usual case: nothing to swap
        return _import_module(f"{__name__}.{home}")
    ours = {__name__: _SELF, f"{__name__}.factoradic": factoradic,
            f"{__name__}.dynamics": dynamics, f"{__name__}.{home}": None}
    saved = {key: _modules.pop(key, None) for key in ours}
    _modules.update((key, mod) for key, mod in ours.items() if mod)
    try:
        return _import_module(f"{__name__}.{home}")
    finally:
        if saved[__name__] is not None:  # a newer copy is current
            for key in ours:
                _modules.pop(key, None)
            _modules.update((key, mod) for key, mod in saved.items() if mod)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
