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
and the readout's purity check, works on independent pieces of the state,
which ``_workers`` deals out to worker threads; its docstring says how and
from which n.
``pair_sequence`` is the one the solver uses: the purged state is a sum of
single-spin longitudinal terms, so spin k's amplitude depends only on the
oracle and shift phases over spin k's index pairs.  At 90 degrees those phases are
powers of ``-i`` with exponents ``q``, and a pair ``(r, r + 2^(n-k))`` adds
``sin(pi/2 * (q_r - q_{r + 2^(n-k)}))``, which is 0 or +/-1: an exact
integer readout in O(nN), independent of the polarizations.  The engine
holds ``q`` mod 4 as two N-bit bit planes and reads each spin as two
popcounts over the planes and their ``2^(n-k)``-shifted copies.  Both
engines read in whole units of spin sum and end in ``_signal``, which builds
each amplitude as a float and its zero flag once, at the one fixed floor
``DEFAULT_THRESHOLD``, under the zero rule ``_zero_flags`` that the public
``SignalVector`` constructor checks.  Neither takes a floor or a scale: the
``2/N`` physical scale of the CLI's ``--snr`` is applied by
``protocol.solve_parity`` alone.  The test suite checks the pair engine
against the integer reference, which it agrees with exactly, and against the
dense engine, which it agrees with to round-off.
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

# Zero floor of every readout.  Both engines read in whole units, so any floor
# in (0, 1) tells zero from nonzero; this one sits far above the dense
# engine's round-off and far below one unit.
DEFAULT_THRESHOLD = 1e-9


def _zero_flags(amplitudes, threshold) -> tuple:
    """The zero rule of every readout: an amplitude reads as zero exactly
    when its magnitude lies below the threshold."""
    return tuple([abs(a) < threshold for a in amplitudes])


@dataclass(frozen=True)
class SignalVector:
    """Per-spin signed readout amplitudes with zero-detection flags.

    The constructor converts the amplitudes to floats and the flags to bools
    and checks the flags against the zero rule at the given threshold.  The
    engines build theirs through ``_signal``, which establishes the same
    invariant at ``DEFAULT_THRESHOLD`` by construction and so skips the
    second pass.
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


def initial_state(system: SpinSystem) -> DeviationState:
    """Transverse starting state: the polarization-weighted sum of per-spin
    y components, ``-i eps_k / 2`` at each index pair ``(r, c)`` of spin k,
    ``c = r + 2^(n-k)``, and ``+i eps_k / 2`` at ``(c, r)``.  One assignment
    a spin writes ``-i eps_k / 2`` times index ``x``'s spin-k sign in
    ``bit_sign_table`` at ``[x, x ^ 2^(n-k)]``, for every ``x``."""
    N = system.dim
    rho = np.zeros((N, N), dtype=complex)
    x = np.arange(N)
    for k, (signs, eps) in enumerate(zip(bit_sign_table(system.n), system.epsilon), 1):
        rho.imag[x, x ^ (N >> k)] = -0.5 * eps * signs
    return DeviationState(rho, validate=False)


# Floats per pass-1 step of the pulse, which is also each worker's one buffer:
# a step takes as many whole slabs as fit, and at least one, so a small
# register takes a few BLAS calls instead of one per slab.  The buffer is
# the whole state up to n = 7 and 256 kB from there to n = 10, 1/16 of the
# state at n = 9 and 1/64 at n = 10; from n = 10 up a step is one slab,
# 1/128 of the state at n = 11 and 1/256 at n = 12.  A pass-2 step fills
# the same buffer with a column chunk of one block, 2 chunks a block at
# n = 9 and 4 at n = 10, or up to n = 8 fills part of it with a whole
# block; at half this size, 4 chunks a block made the n = 9 pulse slower
# than whole blocks did (BENCH_pulse_memory.json).
_PULSE_STEP_FLOATS = 1 << 15


def _pulse_split(n: int) -> tuple:
    """Spins per Kronecker factor of the hard pulse, highest spins first:
    three as equal as possible, larger first, at most 4 spins each up to
    n = 12.  A factor of no spin is the 1 x 1 identity: ``(1, 1, 0)`` at
    n = 2."""
    return tuple(n // 3 + (i < n % 3) for i in range(3))


@lru_cache(maxsize=16)
def _pulse_factors(n: int, angle: float) -> tuple:
    """The three factors ``R^(x)k`` of the hard pulse for ``_pulse_split(n)``,
    with ``R = [[c, -s], [s, c]]`` the real y rotation, then
    ``kron(F^T, I_2)`` for the innermost factor ``F``: its column legs on the
    state's float view.  Read-only arrays, cached per ``(n, angle)``."""
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

    The rotation ``R^(x)n`` is the Kronecker product of the three factors of
    ``_pulse_split(n)``, of at most 4 spins each up to n = 12, so each leg
    costs ``N^2`` times the factor's size (cached per ``(n, angle)``).  ``R``
    is real, so every leg runs as a float64 matmul on the state's float
    view, with the real and imaginary parts side by side.  Two passes do the
    legs:

    - pass 1 takes a slab of rows ``j, j + N/d, j + 2N/d, ...`` (``d`` the
      outer factor's size), applies the outer factor's row leg into a
      buffer, then the three column legs, back and forth between the buffer
      and the slab, whose old contents the row leg has read: the innermost
      one, a matmul against ``kron(F^T, I_2)``, ends in the slab;
    - pass 2 takes a block of ``N/d`` consecutive rows, which the inner
      factors' row legs alone mix, and applies them into the buffer and
      back.  A row leg acts on each column on its own, so each step takes
      one chunk of a block's columns, as many as fit the buffer.

    No leg is a complex matmul and nothing is copied back.  The slabs of
    pass 1, and the column chunks of pass 2, are independent, so under a
    one-thread BLAS (``_workers.blas_single_threaded``) each pass is dealt
    out to the workers of ``_workers.run_split``, each with one buffer of
    one pass-1 step, ``d t 2N`` floats for ``t`` slabs a step, that serves
    both passes (see ``_PULSE_STEP_FLOATS``).
    """
    if not -2.0 * np.pi < angle < 2.0 * np.pi:
        raise ValueError(f"pulse angle {angle} outside (-2pi, 2pi)")
    N = state.dim
    f1, f2, f3, last = _pulse_factors(N.bit_length() - 1, angle)
    d, w = len(f1), len(last)
    rest = N // d
    g = state.rho.view(np.float64).reshape(d, rest, 2 * N)  # re and im side by side
    t = min(rest, max(1, _PULSE_STEP_FLOATS // (2 * N * d)))  # slabs per pass-1 step
    size = d * t * 2 * N  # floats of one worker's buffer: one pass-1 step
    cols = min(2 * N, size // rest)  # columns per pass-2 step, of one block
    per_block = 2 * N // cols
    # pass 1's chunk count, which pass 2's equals wherever the pulse splits
    workers = worker_count(N, rest // t if blas_single_threaded() else 1, 8 * size)
    bufs = np.empty((workers, size))

    def slabs(i, lo, hi):
        buf = bufs[i].reshape(d, t, 2 * N)
        for j in range(lo * t, hi * t, t):
            slab = g[:, j : j + t]
            np.matmul(f1, slab.reshape(d, -1), out=buf.reshape(d, -1))
            np.matmul(f1, buf.reshape(d, t, d, -1), out=slab.reshape(d, t, d, -1))
            np.matmul(f2, slab.reshape(d, t * d, len(f2), -1), out=buf.reshape(d, t * d, len(f2), -1))
            np.matmul(buf.reshape(d, -1, w), last, out=slab.reshape(d, -1, w))

    def blocks(i, lo, hi):
        tmp = bufs[i, : rest * cols].reshape(len(f2), len(f3), cols)
        for k in range(lo, hi):
            b, c = divmod(k, per_block)
            part = g[b, :, c * cols : (c + 1) * cols].reshape(len(f2), len(f3), cols)
            np.matmul(f2, part.transpose(1, 0, 2), out=tmp.transpose(1, 0, 2))
            np.matmul(f3, tmp, out=part)

    run_split(slabs, workers, rest // t)
    run_split(blocks, workers, d * per_block)
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


def _signal(amps) -> SignalVector:
    """The readout of both engines: turn amplitudes in whole units (Python
    ints or floats) into floats and flag those below ``DEFAULT_THRESHOLD`` as
    zero, building each float and flag once.  What the public constructor
    would check holds by construction, so it is not run."""
    amps = tuple(map(float, amps))
    sig = object.__new__(SignalVector)
    object.__setattr__(sig, "amplitudes", amps)
    object.__setattr__(sig, "zero_flags", _zero_flags(amps, DEFAULT_THRESHOLD))
    object.__setattr__(sig, "threshold", DEFAULT_THRESHOLD)
    return sig


def _off_diagonal_max(rho: np.ndarray) -> float:
    """max |rho[r, c]| over r != c (NaN if any is NaN), one band of rows at a
    time, so no N x N copy is made.

    Each band is first screened on the state's 64-bit words: when its
    nonzero words are exactly those of its own diagonal entries, every
    off-diagonal element is +0.0 and the band's max is 0.0, which is what
    the exact path gives.  Any other band, one with a -0.0, a NaN or any
    stray value, takes the exact path: ``np.abs`` into a buffer, the
    diagonal zeroed, then the max.  The bands are ``band_rows(N)`` high, as
    the purge filters' are, and a worker allocates its one band of buffer
    at its first such band."""
    N = len(rho)
    h = band_rows(N)
    # the buffer stays out of the budget: it is made only for a band that
    # fails the screen, and counted it would hold n = 9 to one worker
    workers = worker_count(N, N // h)
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


def read_signal(state: DeviationState, system: SpinSystem) -> SignalVector:
    """Extract per-spin longitudinal amplitudes from a purged state, in whole
    units of spin sum, each flagged zero below ``DEFAULT_THRESHOLD``.

    ``amplitude[k] = 2 Tr(rho I_kz) / epsilon_k``; for pipeline outputs this
    is the integer signal the sequence encodes, to round-off.

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
    return _signal(amps.tolist())


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


def run_sequence(system: SpinSystem, f: PhaseFunction, shift: ShiftSpec = None) -> SignalVector:
    """Full sequence: evolve, purge, and read the per-spin amplitudes in
    whole units (``read_signal``).

    Without a shift, ``amplitude[k]`` equals the signed mark sum of spin k
    exactly.  With a shift the amplitude picks up ``-offset[k]`` for every
    shift member whose spin-k partner index is unmarked; pairs where a mark
    and a shift member face each other across spin k saturate (the two
    quarter-turn phases add to a half turn whose transverse projection
    vanishes), so the amplitude can differ from ``marksum - offset`` by a
    multiple of 2 but never changes parity.
    """
    state = evolved_purged_state(system, f, shift)
    return read_signal(state, system)


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


def pair_sequence(system: SpinSystem, f: PhaseFunction, shift: ShiftSpec = None) -> SignalVector:
    """Same readout as ``run_sequence`` in O(nN), without the density matrix,
    in exact whole units.

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
    n = system.n
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
    return _signal(amps)
