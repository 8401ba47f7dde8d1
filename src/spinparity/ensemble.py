"""Ensemble dynamics: initial deviation state, hard pulses, the two-stage
purge filter, signal readout, and closed-form evaluators that cross-check the
matrix pipeline term by term.

The sequence is: transverse initial state -> phase oracle at 90 degrees ->
optional offset shift -> hard 90-degree y pulse on all spins -> gradient
filter -> zero-quantum filter -> longitudinal readout.  For the plain
sequence the per-spin amplitudes are exactly the signed mark sums of the
truth table; with an offset shift the amplitudes subtract the shift's
per-spin offsets whenever the marked set and shift block do not collide on a
spin's index pairs, and always agree with that difference modulo 2 (see
``run_sequence``).

Two engines run it.  ``run_sequence`` is the dense reference: it builds,
rotates and purges the N x N density matrix stage by stage.  ``pair_sequence``
is the one the solver uses: the purged state is a sum of single-spin
longitudinal terms, so spin k's amplitude depends only on the product ``p``
of the oracle and shift phase vectors over spin k's index pairs,
``amp_k = -Im sum_{r: bit k = 0} p_r * conj(p_{r + 2^(n-k)})``, which is
O(nN) and independent of the polarizations.  The test suite checks the two
against each other and against the integer reference; they agree to
round-off and can differ only in the residue left for an exact zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .oracles import PhaseFunction, ShiftSpec, phase_oracle, shift_unitary_direct
from .spinops import (
    STRUCT_TOL,
    DeviationState,
    SpinSystem,
    _popcounts,
    apply_diagonal,
    bit_sign_table,
    conjugate,
)

# Evaluating the full product-operator expansion of the oracle-evolved state
# assembles O(G^2 * n) terms; keep it off the large-register path.
EXPANSION_QUBIT_CAP = 8


@dataclass(frozen=True)
class PulseSpec:
    """Hard pulse applied simultaneously to every work spin: rotation
    ``exp(-i * angle * sum_k I_k,axis)``."""

    axis: str
    angle: float

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError(f"pulse axis must be 'x' or 'y', got {self.axis!r}")
        if not -2.0 * np.pi < self.angle < 2.0 * np.pi:
            raise ValueError(f"pulse angle {self.angle} outside (-2pi, 2pi)")


@dataclass(frozen=True)
class SignalVector:
    """Per-spin signed readout amplitudes with zero-detection flags."""

    amplitudes: tuple
    zero_flags: tuple
    threshold: float

    def __post_init__(self):
        amps = tuple(float(a) for a in self.amplitudes)
        flags = tuple(bool(z) for z in self.zero_flags)
        if len(amps) != len(flags):
            raise ValueError("amplitude and flag counts differ")
        for a, z in zip(amps, flags):
            if z != (abs(a) < self.threshold):
                raise ValueError("zero flags inconsistent with threshold")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "zero_flags", flags)


def initial_state(system: SpinSystem) -> DeviationState:
    """Transverse starting state: the polarization-weighted sum of per-spin
    y components.  Assembled directly from its index-pair structure."""
    n, N = system.n, system.dim
    rho = np.zeros((N, N), dtype=complex)
    x = np.arange(N)
    for k in range(1, n + 1):
        step = 1 << (n - k)
        r = x[(x >> (n - k)) & 1 == 0]
        rho[r, r + step] += -0.5j * system.epsilon[k - 1]
        rho[r + step, r] += 0.5j * system.epsilon[k - 1]
    return DeviationState(rho, validate=False)


def _rot2(axis: str, angle: float) -> np.ndarray:
    c, s = np.cos(0.5 * angle), np.sin(0.5 * angle)
    if axis == "y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _contract_axis(mat: np.ndarray, flat: np.ndarray, lead: int) -> np.ndarray:
    """Apply a 2x2 matrix to one binary axis of a flattened tensor whose
    leading block size is ``lead``; batched matmul keeps the runs contiguous."""
    return np.matmul(mat, flat.reshape(lead, 2, -1))


def apply_pulse(state: DeviationState, pulse: PulseSpec) -> DeviationState:
    """Conjugate by the hard-pulse rotation, one single-spin contraction per
    tensor leg instead of a dense N^3 product."""
    N = state.dim
    n = N.bit_length() - 1
    r = _rot2(pulse.axis, pulse.angle)
    t = state.rho
    for j in range(n):  # row legs
        t = _contract_axis(r, t, 1 << j)
    rc = r.conj()
    for j in range(n):  # column legs
        t = _contract_axis(rc, t, N << j)
    return DeviationState(t.reshape(N, N), validate=False)


@lru_cache(maxsize=None)
def _zero_order_mask(N: int) -> np.ndarray:
    pc = _popcounts(N)
    mask = pc[None, :] == pc[:, None]
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=None)
def _zero_quantum_mask(N: int) -> np.ndarray:
    mask = _zero_order_mask(N) & ~np.eye(N, dtype=bool)
    mask.setflags(write=False)
    return mask


def gradient_filter(state: DeviationState) -> DeviationState:
    """Cancel every element of nonzero coherence order; populations and
    zero-quantum elements survive."""
    keep = _zero_order_mask(state.dim)
    return DeviationState(np.where(keep, state.rho, 0.0), validate=False)


def zero_quantum_filter(state: DeviationState) -> DeviationState:
    """Cancel the off-diagonal zero-quantum elements; composed with the
    gradient filter this is an exact projection onto the diagonal."""
    kill = _zero_quantum_mask(state.dim)
    return DeviationState(np.where(kill, 0.0, state.rho), validate=False)


def _check_threshold(threshold: float, snr_mode: bool, N: int) -> None:
    """A nonzero amplitude is at least one unit (1, or 2/N in SNR mode) in
    magnitude, so the threshold must lie strictly between 0 and that unit to
    tell zero from nonzero."""
    unit = 2.0 / N if snr_mode else 1.0
    if not 0.0 < threshold < unit:
        raise ValueError(f"threshold must lie in (0, {unit:g}), got {threshold!r}")


def _signal(amps: np.ndarray, N: int, threshold: float, snr_mode: bool) -> SignalVector:
    """Scale integer-unit amplitudes to the 2/N physical scale in SNR mode
    and flag the ones below the threshold as zero."""
    if snr_mode:
        amps = amps * (2.0 / N)
    flags = np.abs(amps) < threshold
    return SignalVector(tuple(amps), tuple(flags), threshold)


def read_signal(
    state: DeviationState,
    system: SpinSystem,
    threshold: float = 1e-9,
    snr_mode: bool = False,
) -> SignalVector:
    """Extract per-spin longitudinal amplitudes from a purged state.

    ``amplitude[k] = 2 Tr(rho I_kz) / epsilon_k``; for pipeline outputs this
    is the integer signal the sequence encodes.  In SNR mode amplitudes are
    rescaled by 2/N to the physically detectable magnitude and the given
    threshold acts as the detection floor; it must lie in (0, unit), see
    ``_check_threshold``.
    """
    _check_threshold(threshold, snr_mode, system.dim)
    if state.dim != system.dim:
        raise ValueError(f"dimension mismatch: {state.dim} vs {system.dim}")
    magnitudes = np.abs(state.rho)
    np.fill_diagonal(magnitudes, 0.0)
    worst = magnitudes.max()
    if worst > STRUCT_TOL:
        raise ValueError(
            f"readout requires a purged (diagonal) state; off-diagonal max {worst:.3e}"
        )
    d = np.diag(state.rho).real
    table = bit_sign_table(system.n)
    amps = table.values @ d / np.asarray(system.epsilon)
    return _signal(amps, system.dim, threshold, snr_mode)


def selective_conjugation_expansion(state: DeviationState, s: int, theta: float) -> DeviationState:
    """Closed-form conjugation by a single selective phase shift: identity
    minus anticommutator, plus commutator and sandwich terms.  Equals direct
    conjugation exactly."""
    N = state.dim
    if not 0 <= s < N:
        raise IndexError(f"basis index {s} outside 0..{N - 1}")
    d = np.zeros(N)
    d[s] = 1.0
    return _phase_projector_expansion(state, d, theta)


def oracle_conjugation_expansion(state: DeviationState, f: PhaseFunction, theta: float) -> DeviationState:
    """Closed-form conjugation by the phase oracle, with the marked-index
    indicator playing the projector weight and the sandwich term carrying the
    double sum over marked index pairs."""
    if f.dim != state.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {state.dim}")
    return _phase_projector_expansion(state, f.exponents().astype(float), theta)


def _phase_projector_expansion(state: DeviationState, d: np.ndarray, theta: float) -> DeviationState:
    one_minus_cos = 1.0 - np.cos(theta)
    sin = np.sin(theta)
    sandwich = one_minus_cos**2 + sin**2
    dr, dc = d[:, None], d[None, :]
    factor = 1.0 - one_minus_cos * (dr + dc) + 1j * sin * (dc - dr) + sandwich * dr * dc
    return DeviationState(factor * state.rho)


def oracle_evolution_expansion(system: SpinSystem, f: PhaseFunction, theta: float) -> DeviationState:
    """Product-operator expansion of the oracle-evolved transverse state.

    Sums four groups of terms: the untouched initial state, the
    anticommutator terms (one per marked index and spin, keeping the y
    component), the sine terms (same support, rotated to x with the bit
    sign), and the quadratic double sum over ordered marked pairs.  The
    projector contexts collapse each term onto a single bit-flip index pair:
    a quadratic term survives only when the two marked indices differ at
    exactly one bit, and the linear terms address the pair obtained by
    toggling the term's spin.  Matches direct conjugation exactly.
    """
    if system.n > EXPANSION_QUBIT_CAP:
        raise ValueError(
            f"expansion is capped at {EXPANSION_QUBIT_CAP} spins (term count grows "
            f"as G^2 * n), got n={system.n}"
        )
    if f.n != system.n:
        raise ValueError(f"dimension mismatch: {f.dim} vs {system.dim}")
    n, N = system.n, system.dim
    eps = system.epsilon
    one_minus_cos = 1.0 - np.cos(theta)
    sin = np.sin(theta)
    quad = one_minus_cos**2 + sin**2

    rho = initial_state(system).rho.copy()
    marked = np.flatnonzero(f.marks)
    table = bit_sign_table(n)

    for s in marked:
        for k in range(1, n + 1):
            bitmask = 1 << (n - k)
            r, c = int(s) & ~bitmask, int(s) | bitmask
            e = eps[k - 1]
            # anticommutator term: coefficient -(1 - cos) on the y component
            rho[r, c] += -one_minus_cos * e * (-0.5j)
            rho[c, r] += -one_minus_cos * e * (+0.5j)
            # sine term: coefficient -sin * a_k^s on the x component
            a = table.sign(k, s)
            rho[r, c] += -sin * e * a * 0.5
            rho[c, r] += -sin * e * a * 0.5
    for i, s in enumerate(marked):
        for t in marked[i + 1 :]:
            diff = int(s) ^ int(t)
            if diff & (diff - 1):
                # contexts differ on more than one spin: every tensor factor
                # chain contains a vanishing projector product
                continue
            k = n - diff.bit_length() + 1
            e = eps[k - 1]
            r, c = int(min(s, t)), int(max(s, t))
            rho[r, c] += quad * e * (-0.5j)
            rho[c, r] += quad * e * (+0.5j)
    return DeviationState(rho)


def evolved_purged_state(system: SpinSystem, f: PhaseFunction, shift: ShiftSpec = None) -> DeviationState:
    """Run the pulse sequence up to (and including) the purge, returning the
    diagonal state the readout sees."""
    if f.n != system.n:
        raise ValueError(f"truth table is for n={f.n}, system has n={system.n}")
    rho = initial_state(system)
    rho = conjugate(phase_oracle(f, 0.5 * np.pi), rho)
    if shift is not None:
        rho = conjugate(shift_unitary_direct(shift, system.n), rho)
    rho = apply_pulse(rho, PulseSpec("y", 0.5 * np.pi))
    rho = gradient_filter(rho)
    rho = zero_quantum_filter(rho)
    return rho


def run_sequence(
    system: SpinSystem,
    f: PhaseFunction,
    shift: ShiftSpec = None,
    threshold: float = 1e-9,
    snr_mode: bool = False,
) -> SignalVector:
    """Full sequence: evolve, purge, and read the per-spin amplitudes.

    Without a shift, ``amplitude[k]`` equals the signed mark sum of spin k
    exactly.  With a shift the amplitude picks up ``-offset[k]`` for every
    shift member whose spin-k partner index is unmarked; pairs where a mark
    and a shift member face each other across spin k saturate (the two
    quarter-turn phases add to a half turn whose transverse projection
    vanishes), so the amplitude can differ from ``marksum - offset`` by a
    multiple of 2 but never changes parity.
    """
    state = evolved_purged_state(system, f, shift)
    return read_signal(state, system, threshold=threshold, snr_mode=snr_mode)


def pair_sequence(
    system: SpinSystem,
    f: PhaseFunction,
    shift: ShiftSpec = None,
    threshold: float = 1e-9,
    snr_mode: bool = False,
) -> SignalVector:
    """Same readout as ``run_sequence`` in O(nN), without the density matrix.

    The oracle and shift phases multiply into one vector ``p``; spin k's
    amplitude is ``-Im sum p_r * conj(p_c)`` over its index pairs ``(r, c)``
    with c = r + 2^(n-k), and the polarization cancels.
    """
    if f.n != system.n:
        raise ValueError(f"truth table is for n={f.n}, system has n={system.n}")
    n, N = system.n, system.dim
    _check_threshold(threshold, snr_mode, N)
    p = apply_diagonal(phase_oracle(f, 0.5 * np.pi), np.ones(N, dtype=complex))
    if shift is not None:
        p = apply_diagonal(shift_unitary_direct(shift, n), p)
    amps = np.empty(n)
    for k in range(1, n + 1):
        t = p.reshape(1 << (k - 1), 2, 1 << (n - k))
        amps[k - 1] = -np.vdot(t[:, 1, :], t[:, 0, :]).imag
    return _signal(amps, N, threshold, snr_mode)
