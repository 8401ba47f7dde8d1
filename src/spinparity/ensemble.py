"""Ensemble dynamics: initial deviation state, the hard y pulse, the two-stage
purge filter, the readout rule, and the two engines that run the sequence.
The closed-form conjugation and evolution expansions that cross-check the
dense pipeline term by term live in ``verification``.

The sequence is: transverse initial state -> phase oracle at 90 degrees ->
optional offset shift -> hard 90-degree y pulse on all spins -> gradient
filter -> zero-quantum filter -> longitudinal readout.  For the plain
sequence the per-spin amplitudes are exactly the signed mark sums of the
truth table; with an offset shift the amplitudes subtract the shift's
per-spin offsets whenever the marked set and shift block do not collide on a
spin's index pairs, and always agree with that difference modulo 2 (see
``run_sequence``).

Two engines run it.  ``run_sequence`` is the dense reference: it builds the
N x N density matrix once (``initial_state``), and every later stage
(``spinops.conjugate``, ``apply_pulse`` and the two filters) transforms that
state's array in place and returns the same state.  ``pair_sequence``
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

# Zero-detection floor of every readout when none is given: far below the
# smallest unit, 2/N = 2^-11 at n = 12.
DEFAULT_THRESHOLD = 1e-9


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


def apply_pulse(state: DeviationState, angle: float) -> DeviationState:
    """Conjugate the state in place by the hard y pulse
    ``exp(-i * angle * sum_k I_ky)`` on every spin and return it.

    The rotation ``R^(x)n`` splits as ``A (x) B``, with ``A`` on the high
    ``n // 2`` spins and ``B`` on the rest.  Both factors are the real
    rotation ``[[c, -s], [s, c]]`` to the Kronecker power, so three of the
    four legs (the row legs of both factors and the column legs of ``A``)
    run as float64 matmuls on the state's float view, with the real and
    imaginary parts riding along as an extra column axis.  Only the column
    legs of ``B`` contract the innermost complex axis and stay a complex
    matmul.  The row legs of ``A`` run first, one strided slab of rows at a
    time; the other three legs then run together on each block of
    ``len(B)`` consecutive rows, which they alone mix.  Two buffers of one
    block each are all the pulse allocates.
    """
    if not -2.0 * np.pi < angle < 2.0 * np.pi:
        raise ValueError(f"pulse angle {angle} outside (-2pi, 2pi)")
    N = state.dim
    n = N.bit_length() - 1
    c, s = np.cos(0.5 * angle), np.sin(0.5 * angle)
    r = np.array([[c, -s], [s, c]])
    a = reduce(np.kron, [r] * (n // 2), np.eye(1))
    b = reduce(np.kron, [r] * (n - n // 2), np.eye(1))
    da, db = len(a), len(b)
    g = state.rho.view(np.float64).reshape(da, db, 2 * N)  # re and im side by side
    buf = np.empty((2, db, 2 * N))  # two blocks of db rows, reused by every leg
    for j in range(db):  # row legs of A: rows j, j + db, j + 2 db, ...
        np.matmul(a, g[:, j], out=buf[0, :da])
        g[:, j] = buf[0, :da]
    bt = b.T.astype(complex)
    for rows in g:  # the other legs one block of db consecutive rows at a time
        np.matmul(b, rows, out=buf[0])  # row legs of B
        np.matmul(a, buf[0].reshape(db, da, 2 * db), out=buf[1].reshape(db, da, 2 * db))
        np.matmul(buf[1].view(complex).reshape(-1, db), bt, out=rows.view(complex).reshape(-1, db))
    return state


@lru_cache(maxsize=None)
def _zero_order_mask(N: int) -> np.ndarray:
    """True where |r><c| has coherence order 0: r and c have equal popcounts."""
    pc = np.array([x.bit_count() for x in range(N)])
    mask = pc[None, :] == pc[:, None]
    mask.setflags(write=False)
    return mask


def gradient_filter(state: DeviationState) -> DeviationState:
    """Cancel every element of nonzero coherence order, in place; populations
    and zero-quantum elements survive."""
    np.copyto(state.rho, 0.0, where=~_zero_order_mask(state.dim))
    return state


def zero_quantum_filter(state: DeviationState) -> DeviationState:
    """Cancel the off-diagonal zero-quantum elements, in place; composed with
    the gradient filter this is an exact projection onto the diagonal."""
    rho = state.rho
    diagonal = rho.diagonal().copy()
    np.copyto(rho, 0.0, where=_zero_order_mask(state.dim))
    np.fill_diagonal(rho, diagonal)
    return state


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


def _off_diagonal_max(rho: np.ndarray) -> float:
    """max |rho[r, c]| over r != c (NaN if any is NaN), one block of rows at
    a time, so no N x N copy is made."""
    N = len(rho)
    h = min(N, max(1, (1 << 16) // N))  # rows per block, a power of 2 dividing N
    mag = np.empty((h, N))
    worst = 0.0
    for i in range(0, N, h):
        np.abs(rho[i : i + h], out=mag)
        mag.reshape(-1)[i :: N + 1] = 0.0  # the diagonal entries of this block
        worst = np.maximum(worst, mag.max())
    return worst


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
    worst = _off_diagonal_max(state.rho)
    if not worst <= STRUCT_TOL:
        raise ValueError(
            f"readout requires a purged (diagonal) state; off-diagonal max {worst:.3e}"
        )
    d = np.diag(state.rho).real
    amps = bit_sign_table(system.n) @ d / np.asarray(system.epsilon)
    return _signal(amps, system.dim, threshold, snr_mode)


def evolved_purged_state(system: SpinSystem, f: PhaseFunction, shift: ShiftSpec = None) -> DeviationState:
    """Run the pulse sequence up to (and including) the purge, returning the
    diagonal state the readout sees: the initial state's one N x N array,
    transformed in place by every stage."""
    if f.n != system.n:
        raise ValueError(f"truth table is for n={f.n}, system has n={system.n}")
    rho = initial_state(system)
    rho = conjugate(phase_oracle(f, 0.5 * np.pi), rho)
    if shift is not None:
        rho = conjugate(shift_unitary_direct(shift, system.n), rho)
    rho = apply_pulse(rho, 0.5 * np.pi)
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
        # `step` ones then `step` zeros, doubled until it spans N bits
        low, width = (1 << step) - 1, 2 * step
        while width < N:
            low |= low << width
            width *= 2
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
