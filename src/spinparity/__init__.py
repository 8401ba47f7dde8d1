"""Spin-ensemble simulator for the Boolean parity query problem.

Compiles truth tables into diagonal phase oracles, evolves a spin-ensemble
deviation state through an oracle + offset-shift + purge pulse sequence,
reads per-spin longitudinal signals, and bisects over offset sizes to decide
the parity of the function in at most n sequence runs.
"""

from .ensemble import (
    PulseSpec,
    SignalVector,
    apply_pulse,
    evolved_purged_state,
    gradient_filter,
    initial_state,
    oracle_conjugation_expansion,
    oracle_evolution_expansion,
    read_signal,
    run_sequence,
    selective_conjugation_expansion,
    zero_quantum_filter,
)
from .oracles import (
    CompiledShift,
    Factor,
    PhaseFunction,
    ShiftSpec,
    block_phase_shift,
    mark_count,
    phase_oracle,
    selective_phase_shift,
    shift_index_set,
    shift_unitary_compiled,
    shift_unitary_direct,
    sign_oracle,
)
from .protocol import IterationRecord, RunTrace, SignalError, projected_call_counts, solve_parity
from .reference import (
    ReferenceReport,
    brute_parity,
    brute_shift_sums,
    brute_shifted_signal,
    brute_spin_sums,
    reference_report,
)
from .spinops import (
    BitSignTable,
    DeviationState,
    DiagonalUnitary,
    Operator,
    SpinSystem,
    basis_projector,
    basis_projector_product,
    bit_sign_table,
    coherence_order,
    conjugate,
    spin_operator,
)

__version__ = "0.1.0"
