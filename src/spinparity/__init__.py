"""Spin-ensemble simulator for the Boolean parity query problem.

Compiles truth tables into diagonal phase oracles, evolves a spin-ensemble
deviation state through an oracle + offset-shift + purge pulse sequence,
reads per-spin longitudinal signals, and bisects over offset sizes to decide
the parity of the function in at most n sequence runs.
"""

from .ensemble import (
    DeviationState,
    DiagonalUnitary,
    apply_pulse,
    bit_sign_table,
    conjugate,
    evolved_purged_state,
    gradient_filter,
    initial_state,
    phase_oracle,
    read_signal,
    run_sequence,
    shift_unitary_direct,
    zero_quantum_filter,
)
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
