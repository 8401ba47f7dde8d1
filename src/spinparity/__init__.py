"""Spin-ensemble simulator for the Boolean parity query problem.

Compiles truth tables into diagonal phase oracles, evolves a spin-ensemble
deviation state through an oracle + offset-shift + purge pulse sequence,
reads per-spin longitudinal signals, and bisects over offset sizes to decide
the parity of the function in at most n sequence runs.

The dense reference engine's names (``run_sequence``, ``DeviationState``,
...) load on first use (PEP 562), so a process that only solves never
imports ``ensemble`` or its worker threads.
"""

from importlib import import_module as _import_module

from .oracles import PhaseFunction, ShiftSpec
from .protocol import IterationRecord, RunTrace, SignalError, SignalVector, solve_parity
from .reference import (
    ReferenceReport,
    brute_parity,
    brute_shift_sums,
    brute_shifted_signal,
    brute_spin_sums,
    reference_report,
)
from .spinops import SpinSystem

__version__ = "0.1.0"

_DENSE_ENGINE = frozenset({
    "DeviationState",
    "DiagonalUnitary",
    "apply_pulse",
    "bit_sign_table",
    "conjugate",
    "evolved_purged_state",
    "gradient_filter",
    "initial_state",
    "phase_oracle",
    "read_signal",
    "run_sequence",
    "shift_unitary_direct",
    "zero_quantum_filter",
})
_DENSE_MODULES = frozenset({"ensemble", "_workers"})

# ``from spinparity import *`` binds the whole public API, the dense engine's
# names and the package's modules included, and so loads the dense engine.
__all__ = [
    "IterationRecord", "PhaseFunction", "ReferenceReport", "RunTrace", "ShiftSpec", "SignalError",
    "SignalVector", "SpinSystem", "brute_parity", "brute_shift_sums", "brute_shifted_signal",
    "brute_spin_sums", "reference_report", "solve_parity",
    "ensemble", "oracles", "protocol", "reference", "spinops",
    *sorted(_DENSE_ENGINE),
]


def __getattr__(name):
    if name in _DENSE_ENGINE:
        return getattr(_import_module(".ensemble", __name__), name)
    if name in _DENSE_MODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _DENSE_ENGINE | _DENSE_MODULES)
