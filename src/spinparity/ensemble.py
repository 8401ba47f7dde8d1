"""Ensemble dynamics: initial deviation state, the hard y pulse, the two-stage
purge filter, the readout rule, and the two engines that run the sequence.
The closed-form conjugation and evolution expansions that cross-check the
dense pipeline term by term live in the tests' ``verification`` module.

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
state's array in place and returns the same state.  Each of those stages,
and the readout's purity check, works on independent row slabs, blocks or
bands of the state, which ``_workers.run_split`` deals out to worker threads
on a process with more than one CPU, from n = 9 up (the pulse from n = 10,
under a one-thread BLAS); the result is byte-identical to one worker's.
``pair_sequence`` is the one the solver uses: the purged state is a sum of
single-spin longitudinal terms, so spin k's amplitude depends only on the
oracle and shift phases over spin k's index pairs.  At 90 degrees those phases are
powers of ``-i`` with exponents ``q``, and a pair ``(r, r + 2^(n-k))`` adds
``sin(pi/2 * (q_r - q_{r + 2^(n-k)}))``, which is 0 or +/-1: an exact
integer readout in O(nN), independent of the polarizations.  The engine
holds ``q`` mod 4 as two N-bit bit planes and reads each spin as two
popcounts over the planes and their ``2^(n-k)``-shifted copies.  Both
engines end in ``_signal``, which builds each amplitude and zero flag once,
under the zero rule ``_zero_flags`` that the public ``SignalVector``
constructor checks.  The test suite checks the pair engine against the
integer reference, which it agrees with exactly, and against the dense
engine, which it agrees with to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from ._workers import band_rows, blas_single_threaded, run_split, worker_count
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


def _zero_flags(amplitudes, threshold) -> tuple:
    """The zero rule of every readout: an amplitude reads as zero exactly
    when its magnitude lies below the threshold."""
    return tuple([abs(a) < threshold for a in amplitudes])


@dataclass(frozen=True)
class SignalVector:
    """Per-spin signed readout amplitudes with zero-detection flags.

    The constructor converts the amplitudes to floats and the flags to bools
    and checks the flags against the zero rule.  The engines build theirs
    through ``_signal``, which establishes the same invariant by construction
    and so skips the second pass.
    """

    amplitudes: tuple
    zero_flags: tuple
    threshold: float

    def __post_init__(self):
        amps = tuple(map(float, self.amplitudes))
        flags = tuple(map(bool, self.zero_flags))
        if len(amps) != len(flags):
            raise ValueError("amplitude and flag counts differ")
        if flags != _zero_flags(amps, self.threshold):
            raise ValueError("zero flags inconsistent with threshold")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "zero_flags", flags)

    @classmethod
    def _from_readout(cls, amplitudes: tuple, zero_flags: tuple, threshold: float) -> "SignalVector":
        """Wrap a readout without checking it.  The caller guarantees what
        the constructor would check: a tuple of Python floats and the tuple
        of bools ``_zero_flags`` gives for them at ``threshold``."""
        sig = object.__new__(cls)
        object.__setattr__(sig, "amplitudes", amplitudes)
        object.__setattr__(sig, "zero_flags", zero_flags)
        object.__setattr__(sig, "threshold", threshold)
        return sig


@lru_cache(maxsize=None)
def _pair_indices(n: int) -> tuple:
    """Per spin k = 1..n, ``(r, r + 2^(n-k))``: the ``N/2`` indices ``r``
    whose spin-k bit is 0 and their partners, as read-only ``int32`` arrays
    (``n N`` entries in all)."""
    x = np.arange(1 << n, dtype=np.int32)
    pairs = []
    for k in range(1, n + 1):
        r = x[(x >> (n - k)) & 1 == 0]
        c = r + (1 << (n - k))
        r.setflags(write=False)
        c.setflags(write=False)
        pairs.append((r, c))
    return tuple(pairs)


def initial_state(system: SpinSystem) -> DeviationState:
    """Transverse starting state: the polarization-weighted sum of per-spin
    y components, ``-i eps_k / 2`` at each index pair ``(r, c)`` of spin k
    and ``+i eps_k / 2`` at ``(c, r)``.  Assembled directly from that
    index-pair structure (cached per n), one assignment per triangle and
    spin."""
    rho = np.zeros((system.dim, system.dim), dtype=complex)
    for (r, c), eps in zip(_pair_indices(system.n), system.epsilon):
        rho.imag[c, r] = 0.5 * eps
        rho.imag[r, c] = -0.5 * eps
    return DeviationState(rho, validate=False)


# Floats per step of either pulse pass: a step takes as many whole slabs
# (pass 1) or blocks (pass 2) as fit, and at least one, so a small register
# takes a few BLAS calls instead of one per slab.  From n = 10 up every step
# is one slab or block; a worker's buffer is 0.13 of the state at n = 9 and
# 0.06 from n = 10 up.
_PULSE_STEP_FLOATS = 1 << 14


def _pulse_split(n: int) -> tuple:
    """Spins per Kronecker factor of the hard pulse, highest spins first: one
    factor up to 4 spins, else three as equal as possible, larger first (at
    most 4 spins each up to n = 12)."""
    if n <= 4:
        return (n,)
    return tuple(n // 3 + (i < n % 3) for i in range(3))


@lru_cache(maxsize=16)
def _pulse_factors(n: int, angle: float) -> tuple:
    """The factors ``R^(x)k`` of the hard pulse for ``_pulse_split(n)``, with
    ``R = [[c, -s], [s, c]]`` the real y rotation, then ``kron(F^T, I_2)`` for
    the innermost factor ``F``: its column legs on the state's float view.
    Read-only arrays, cached per ``(n, angle)``."""
    c, s = np.cos(0.5 * angle), np.sin(0.5 * angle)
    r = np.array([[c, -s], [s, c]])
    factors = [reduce(np.kron, [r] * k, np.eye(1)) for k in _pulse_split(n)]
    factors.append(np.kron(factors[-1].T, np.eye(2)))
    for f in factors:
        f.setflags(write=False)
    return tuple(factors)


def apply_pulse(state: DeviationState, angle: float) -> DeviationState:
    """Conjugate the state in place by the hard y pulse
    ``exp(-i * angle * sum_k I_ky)`` on every spin and return it.

    The rotation ``R^(x)n`` is the Kronecker product of the factors of
    ``_pulse_split(n)``: one of up to 4 spins, or three of at most 4 spins
    each up to n = 12, so each leg costs ``N^2`` times the factor's size
    (cached per ``(n, angle)``).  ``R`` is real, so every leg runs as a
    float64 matmul on the state's float view, with the real and imaginary
    parts side by side.  Two passes do the legs:

    - pass 1 takes a slab of rows ``j, j + N/d, j + 2N/d, ...`` (``d`` the
      outer factor's size), applies the outer factor's row leg into a
      buffer, then every column leg, the innermost one as a matmul against
      ``kron(F^T, I_2)`` that writes the slab straight back;
    - pass 2 takes a block of ``N/d`` consecutive rows, which the inner
      factors' row legs alone mix, and applies them, the second writing
      straight back.

    No leg is a complex matmul and no slab or block is copied back.  The
    slabs of pass 1, and the blocks of pass 2, are independent, so under a
    one-thread BLAS (``_workers.blas_single_threaded``) each pass is dealt
    out to the workers of ``_workers.run_split``, each with its own buffer,
    the larger of two slab steps and one block step, that serves both
    passes (see ``_PULSE_STEP_FLOATS``).
    """
    if not -2.0 * np.pi < angle < 2.0 * np.pi:
        raise ValueError(f"pulse angle {angle} outside (-2pi, 2pi)")
    N = state.dim
    *factors, last = _pulse_factors(N.bit_length() - 1, angle)
    d = len(factors[0])
    rest = N // d
    g = state.rho.view(np.float64).reshape(d, rest, 2 * N)  # re and im side by side
    t = min(rest, max(1, _PULSE_STEP_FLOATS // (2 * N * d)))  # slabs per pass-1 step
    u = min(d, max(1, _PULSE_STEP_FLOATS // (2 * N * rest)))  # blocks per pass-2 step
    size = max(2 * d * t, u * rest) * 2 * N  # floats of one worker's buffer
    chunks = min(rest // t, d // u) if len(factors) == 3 else rest // t
    workers = worker_count(N, chunks if blas_single_threaded() else 1, 8 * size)
    bufs = np.empty((workers, size))
    w = len(last)

    def slabs(i, lo, hi):
        buf = bufs[i, : 2 * d * t * 2 * N].reshape(2, d * t, 2 * N)
        for j in range(lo * t, hi * t, t):
            slab = g[:, j : j + t]
            np.matmul(factors[0], slab.reshape(d, -1), out=buf[0].reshape(d, -1))
            rows = d * t  # column legs of all but the innermost factor
            for k, f in enumerate(factors[:-1]):
                np.matmul(f, buf[k % 2].reshape(rows, len(f), -1), out=buf[1 - k % 2].reshape(rows, len(f), -1))
                rows *= len(f)
            np.matmul(buf[(len(factors) - 1) % 2].reshape(d, -1, w), last, out=slab.reshape(d, -1, w))

    run_split(slabs, workers, rest // t)
    if len(factors) == 3:
        _, f2, f3 = factors

        def blocks(i, lo, hi):
            tmp = bufs[i, : u * rest * 2 * N].reshape(u, rest, 2 * N)
            for b in range(lo * u, hi * u, u):
                block = g[b : b + u]
                np.matmul(f2, block.reshape(u, len(f2), -1), out=tmp.reshape(u, len(f2), -1))
                np.matmul(f3, tmp.reshape(u * len(f2), len(f3), -1), out=block.reshape(u * len(f2), len(f3), -1))

        run_split(blocks, workers, d // u)
    return state


@lru_cache(maxsize=None)
def _order_tables(N: int) -> tuple:
    """``(popcounts, nonzero, zero)`` for the indices ``0..N-1``: each index's
    popcount (``intp``), and two read-only ``(n + 1) x N`` bool tables whose
    row ``w`` is true at the columns ``c`` whose coherence order against a
    row of popcount ``w``, ``popcount(c) - w``, is nonzero (zero)."""
    pc = np.array([x.bit_count() for x in range(N)], dtype=np.intp)
    zero = np.arange(N.bit_length())[:, None] == pc[None, :]
    nonzero = ~zero
    for a in (pc, nonzero, zero):
        a.setflags(write=False)
    return pc, nonzero, zero


def _cancel_off_diagonal(state: DeviationState, pc: np.ndarray, table: np.ndarray) -> DeviationState:
    """Cancel, in place, every off-diagonal element ``[r, c]`` where
    ``table[pc[r], c]`` is true, ``pc`` the popcounts, one band of rows at a
    time: a band's mask is its rows' rows of the table, so no N x N mask is
    built, and ``np.putmask`` writes the band.  A cancelled element reads
    +0.0, both words zero, whatever it held, NaN, inf and -0.0 included, so
    a purged state passes the readout's exact-zero screen
    (``_off_diagonal_max``)."""
    rho, N = state.rho, state.dim
    h = band_rows(N)
    workers = worker_count(N, N // h, h * N)
    masks = np.empty((workers, h, N), dtype=bool)

    def bands(i, lo, hi):
        mask = masks[i]
        flat = mask.reshape(-1)
        for r in range(lo * h, hi * h, h):
            table.take(pc[r : r + h], axis=0, out=mask, mode="clip")
            flat[r :: N + 1] = False  # the diagonal entries of this band
            np.putmask(rho[r : r + h], mask, 0.0)

    run_split(bands, workers, N // h)
    return state


def gradient_filter(state: DeviationState) -> DeviationState:
    """Cancel every element of nonzero coherence order, in place; populations
    and zero-quantum elements survive."""
    pc, nonzero, _ = _order_tables(state.dim)
    return _cancel_off_diagonal(state, pc, nonzero)


def zero_quantum_filter(state: DeviationState) -> DeviationState:
    """Cancel the off-diagonal zero-quantum elements, in place; composed with
    the gradient filter this is an exact projection onto the diagonal."""
    pc, _, zero = _order_tables(state.dim)
    return _cancel_off_diagonal(state, pc, zero)


def signal_unit(N: int, snr_mode: bool) -> float:
    """Magnitude of one whole amplitude unit: 1, or in SNR mode the ``2/N``
    minimum nonzero signal."""
    return 2.0 / N if snr_mode else 1.0


def _signal(amps, N: int, threshold: float, snr_mode: bool) -> SignalVector:
    """The readout of both engines: scale amplitudes in whole units (Python
    ints or floats) by ``signal_unit`` and flag those below the threshold as
    zero, building each float and flag once.  A nonzero amplitude is at least
    one unit, so the threshold must lie strictly between 0 and the unit."""
    unit = signal_unit(N, snr_mode)
    if not 0.0 < threshold < unit:
        raise ValueError(f"threshold must lie in (0, {unit:g}), got {threshold!r}")
    threshold = float(threshold)  # a numpy threshold would give numpy flags
    amps = tuple([a * unit for a in amps])
    return SignalVector._from_readout(amps, _zero_flags(amps, threshold), threshold)


def _off_diagonal_max(rho: np.ndarray) -> float:
    """max |rho[r, c]| over r != c (NaN if any is NaN), one band of rows at a
    time, so no N x N copy is made.

    Each band is first screened on the state's 64-bit words: when its
    nonzero words are exactly those of its own diagonal entries, every
    off-diagonal element is +0.0 and the band's max is 0.0, which is what
    the exact path gives.  Any other band, one with a -0.0, a NaN or any
    stray value, takes the exact path: ``np.abs`` into a buffer, the
    diagonal zeroed, then the max.  A worker allocates its buffer at its
    first such band; the workers' buffers add up to one band's worth, each
    taking bands a power of 2 times shorter."""
    N = len(rho)
    h = band_rows(N)
    workers = worker_count(N, N // h)
    h = max(1, h >> (workers - 1).bit_length())  # at most h rows of buffer in all
    pairs = rho.view(np.uint64).reshape(N, N, 2)  # each element's real and imaginary words
    maxima = np.empty(N // h)

    def bands(i, lo, hi):
        mag = None
        for b in range(lo, hi):
            r = b * h
            band = pairs[r : r + h]
            # the diagonal entries' word pairs sit 2(N + 1) words apart
            if np.count_nonzero(band) == np.count_nonzero(band.reshape(-1, 2)[r :: N + 1]):
                maxima[b] = 0.0
                continue
            if mag is None:
                mag = np.empty((h, N))
            np.abs(rho[r : r + h], out=mag)
            mag.reshape(-1)[r :: N + 1] = 0.0  # the diagonal entries of this band
            maxima[b] = mag.max()

    run_split(bands, workers, N // h)
    return maxima.max()


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

    The state must be purged: ``ValueError`` when the largest off-diagonal
    modulus (``_off_diagonal_max``) exceeds ``STRUCT_TOL`` or is NaN, with
    that modulus in the message.  A band of rows whose off-diagonal
    elements are all +0.0, as the purge filters leave them, is passed on an
    exact-zero word count; any other band is measured exactly.
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
    return _signal(amps.tolist(), system.dim, threshold, snr_mode)


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
    ``spinops.apply_diagonal``): the oracle adds ``g(x)``, as the bitset
    ``f.mark_bits`` that ``f`` packs once for all its runs, and the shift
    adds -1 on its block.  An index pair ``(r, c)`` of spin k, c = r + 2^(n-k),
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
    q = apply_diagonal((0, 0), f.mark_bits, +1)
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
