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
longitudinal terms, so spin k's amplitude depends only on the oracle and
shift phases over spin k's index pairs.  At 90 degrees those phases are
powers of ``-i`` with exponents ``q``, and a pair ``(r, r + 2^(n-k))`` adds
``sin(pi/2 * (q_r - q_{r + 2^(n-k)}))``, which is 0 or +/-1: an exact
integer readout in O(nN), independent of the polarizations.  The engine
holds ``q`` mod 4 as two N-bit bit planes and reads each spin as two
popcounts over the planes and their ``2^(n-k)``-shifted copies.  The test
suite checks the pair engine against the integer reference, which it agrees
with exactly, and against the dense engine, which it agrees with to
round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .oracles import PhaseFunction, ShiftSpec, phase_oracle, shift_unitary_direct
from .spinops import (
    STRUCT_TOL,
    DeviationState,
    SpinSystem,
    apply_diagonal,
    bit_sign_table,
    conjugate,
)

# Evaluating the full product-operator expansion of the oracle-evolved state
# assembles O(G^2 * n) terms; keep it off the large-register path.
EXPANSION_QUBIT_CAP = 8

# Zero-detection floor of every readout when none is given: far below the
# smallest unit, 2/N = 2^-11 at n = 12.
DEFAULT_THRESHOLD = 1e-9


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
        amps = tuple(map(float, self.amplitudes))
        flags = tuple(map(bool, self.zero_flags))
        if len(amps) != len(flags):
            raise ValueError("amplitude and flag counts differ")
        threshold = self.threshold
        if flags != tuple([abs(a) < threshold for a in amps]):
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


def apply_pulse(state: DeviationState, pulse: PulseSpec) -> DeviationState:
    """Conjugate by the hard-pulse rotation ``R^(x)n = A (x) B``, with ``A``
    on the high ``n // 2`` spins and ``B`` on the rest: four contractions
    with the two small factors, written into one new N x N array."""
    N = state.dim
    n = N.bit_length() - 1
    r = _rot2(pulse.axis, pulse.angle)
    a = reduce(np.kron, [r] * (n // 2), np.eye(1))
    b = reduce(np.kron, [r] * (n - n // 2), np.eye(1))
    da, db = len(a), len(b)
    t = a @ state.rho.reshape(da, -1)  # row legs of the high spins
    for blk in t.reshape(da, db, N):  # row legs of the low spins
        blk[...] = b @ blk
    for rows in t.reshape(db, da, da, db):  # column legs
        rows[...] = a.conj() @ rows @ b.conj().T
    return DeviationState(t.reshape(N, N), validate=False)


@lru_cache(maxsize=None)
def _zero_order_mask(N: int) -> np.ndarray:
    """True where |r><c| has coherence order 0: r and c have equal popcounts."""
    pc = np.array([x.bit_count() for x in range(N)])
    mask = pc[None, :] == pc[:, None]
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
    out = np.where(_zero_order_mask(state.dim), 0.0, state.rho)
    np.fill_diagonal(out, state.rho.diagonal())
    return DeviationState(out, validate=False)


def signal_unit(N: int, snr_mode: bool) -> float:
    """Magnitude of one whole amplitude unit: 1, or in SNR mode the ``2/N``
    minimum nonzero signal."""
    return 2.0 / N if snr_mode else 1.0


def _signal(amps, N: int, threshold: float, snr_mode: bool) -> SignalVector:
    """The readout of both engines: scale amplitudes in whole units (any
    sequence of numbers) by ``signal_unit`` and flag those below the
    threshold as zero.  A nonzero amplitude is at least one unit, so the
    threshold must lie strictly between 0 and the unit."""
    unit = signal_unit(N, snr_mode)
    if not 0.0 < threshold < unit:
        raise ValueError(f"threshold must lie in (0, {unit:g}), got {threshold!r}")
    amps = [a * unit for a in amps]
    return SignalVector(amps, [abs(a) < threshold for a in amps], threshold)


def read_signal(
    state: DeviationState,
    system: SpinSystem,
    threshold: float = DEFAULT_THRESHOLD,
    snr_mode: bool = False,
) -> SignalVector:
    """Extract per-spin longitudinal amplitudes from a purged state.

    ``amplitude[k] = 2 Tr(rho I_kz) / epsilon_k``; for pipeline outputs this
    is the integer signal the sequence encodes.  In SNR mode amplitudes are
    rescaled by 2/N to the physically detectable magnitude and the given
    threshold acts as the detection floor; it must lie in (0, unit), see
    ``signal_unit``.
    """
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
    threshold: float = DEFAULT_THRESHOLD,
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


@lru_cache(maxsize=None)
def _low_masks(n: int) -> tuple:
    """``(step, low)`` for every spin k = 1..n: its pair step ``2^(n-k)`` and
    the bitset of the indices whose spin-k bit is 0 (n*N/8 bytes in all)."""
    N = 1 << n
    masks = []
    for k in range(1, n + 1):
        step = 1 << (n - k)
        # `step` ones then `step` zeros, repeated N / (2 step) times
        low = ((1 << N) - 1) // ((1 << 2 * step) - 1) * ((1 << step) - 1)
        masks.append((step, low))
    return tuple(masks)


def pair_sequence(
    system: SpinSystem,
    f: PhaseFunction,
    shift: ShiftSpec = None,
    threshold: float = DEFAULT_THRESHOLD,
    snr_mode: bool = False,
) -> SignalVector:
    """Same readout as ``run_sequence`` in O(nN), without the density matrix,
    in exact integers.

    At 90 degrees every phase is a power of ``-i``, so the state is held as
    its quarter-turn exponents ``q`` mod 4, in two bit planes (see
    ``spinops.apply_diagonal``): the oracle adds ``g(x)`` and the shift adds
    -1 on its block.  An index pair ``(r, c)`` of spin k, c = r + 2^(n-k),
    then adds ``sin(pi/2 * (q_r - q_c))`` to that spin's amplitude; the
    polarization cancels.  The sine is +/-1 exactly when ``q_r`` and ``q_c``
    differ in bit 0 (``odd``), and -1 when moreover ``q_c = q_r + 1`` mod 4,
    which on such a pair is bit 1 of ``q_r`` xor bits 1 and 0 of ``q_c``
    (``neg``).  So ``amp_k = |odd| - 2 |neg|``: two popcounts over the
    planes and their ``2^(n-k)``-shifted copies.
    """
    if f.n != system.n:
        raise ValueError(f"truth table is for n={f.n}, system has n={system.n}")
    n, N = system.n, system.dim
    marks = int.from_bytes(np.packbits(f.marks, bitorder="little").tobytes(), "little")
    q = apply_diagonal((0, 0), marks, +1)
    if shift is not None:
        block = shift.block(n)
        q = apply_diagonal(q, (1 << block.stop) - (1 << block.start), -1)
    q0, q1 = q
    p = q0 ^ q1
    amps = []
    for step, low in _low_masks(n):
        odd = (q0 ^ (q0 >> step)) & low
        neg = (q1 ^ (p >> step)) & odd
        amps.append(odd.bit_count() - 2 * neg.bit_count())
    return _signal(amps, N, threshold, snr_mode)
