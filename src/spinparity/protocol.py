"""The production engine and its search: the exact integer pair engine
``pair_sequence``, the readout rule that both engines share, and the parity
determination, a base run, a zero-signal decision and the integer bisection
over offset sizes that pins down the parity in at most n runs.

The sequence is: transverse initial state -> phase oracle at 90 degrees ->
optional offset shift -> hard 90-degree y pulse on all spins -> gradient
filter -> zero-quantum filter -> longitudinal readout.  ``ensemble`` runs
it densely, as the reference; ``pair_sequence`` reads the same amplitudes
without the density matrix.  The purged state is a sum of single-spin
longitudinal terms, so spin k's amplitude depends only on the oracle and
shift phases over spin k's index pairs, and at 90 degrees each pair adds 0
or +/-1: an exact integer readout in O(nN), independent of the
polarizations, whose closed form ``pair_sequence`` gives.  Both
engines read in whole units of spin sum and end in ``_signal``, which
builds each amplitude as a float and its zero flag once, at the one fixed
floor ``DEFAULT_THRESHOLD``, under the zero rule ``_zero_flags`` that the
public ``SignalVector`` constructor checks.  Neither takes a floor or a
scale: the ``2/N`` physical scale of the CLI's ``--snr`` is applied by
``solve_parity`` alone.  The test suite checks the pair engine against the
integer reference, which it agrees with exactly, and against the dense
engine, which it agrees with to round-off; nothing here imports the dense
engine or its worker threads.

The base run reads the per-spin mark sums.  If any spin reads zero the mark
count is even and the answer is immediate.  Otherwise the search takes the
branch sign of the spin-1 mark sum S_1, and in units the spin-1 amplitude at
offset size M is

    sign * a_1(M) = sign * S_1 - M + 2 C(M),

where C(M) counts the spin-1 index pairs (r, r + N/2) with r < M whose
shifted member (r for sign +1, r + N/2 for sign -1) is unmarked and whose
other member is marked.  So each unit of M moves the amplitude by exactly
+/-1, though not always downward, and at M = N/2 it equals the number of
spin-1 pairs holding one mark minus N/2, which is <= 0.  Each probe keeps
sign * a(lo) > 0 >= sign * a(hi), and a +/-1 walk cannot pass from positive
to non-positive without hitting 0, so bisection lands on a zero; its parity
equals the parity of the mark count.  A bracket of width one whose left edge
is still nonzero forces the zero at its right edge without spending another
run, which is what keeps the total at n.  Every probe checks that walk: in
units, the spin-1 amplitude at offset M is congruent to the base amplitude
plus M mod 2, because each index pair adds ``sin(pi/2 * dq)``, which is
``dq`` mod 2, and the shift takes M from spin 1's exponent sum.

Every run goes through ``pair_sequence``, whose amplitudes are whole units,
so the amplitude unit is known here alone: the walk check reads them as
they come, and in SNR mode ``solve_parity`` records them times ``2/N``, the
minimum nonzero physical signal.  The worst-case call budget that criterion
7 checks, ``projected_call_counts``, is test-only and lives in the tests'
``verification`` module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .oracles import PhaseFunction, ShiftSpec
from .spinops import SpinSystem, apply_diagonal

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
    """Same readout as the dense ``ensemble.run_sequence`` in O(nN), without
    the density matrix, in exact whole units.

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


# Bound under the dense engine's name: the benchmark's tracer wraps
# ``protocol.run_sequence`` as the sequence run the solver reaches.
run_sequence = pair_sequence


class SignalError(ValueError):
    """A search invariant failed, so no parity can be trusted."""


@dataclass(frozen=True)
class IterationRecord:
    """One sequence execution: offset tried (None for the base run), branch
    sign, observed amplitudes, and the decision taken."""

    m: int
    sign: int
    amplitudes: tuple
    decision: str


@dataclass(frozen=True)
class RunTrace:
    """Iterations and answer of one parity determination.  Each run applies
    the oracle once at 90 degrees, which counts as two sign-oracle calls, so
    both call counts are derived from the iterations."""

    iterations: tuple
    parity: int
    m_star: int

    def __post_init__(self):
        if self.parity not in (+1, -1):
            raise ValueError("parity must be +1 or -1")

    @property
    def uo_calls(self) -> int:
        return len(self.iterations)

    @property
    def uf_calls(self) -> int:
        return 2 * self.uo_calls


def solve_parity(system: SpinSystem, f: PhaseFunction, snr_mode: bool = False) -> RunTrace:
    """Determine the parity of ``f`` in at most ``n`` sequence runs.

    In SNR mode the recorded amplitudes, and those the decisions print, are
    the engine's whole units times ``2/N``, the physically detectable scale;
    branch decisions only use signs and zero flags, so the control flow is
    unchanged.  Raises ``SignalError`` when a probe's spin-1 amplitude breaks
    the parity walk.
    """
    half = system.dim // 2
    scale = 2.0 / system.dim
    records = []

    def recorded(amps: tuple) -> tuple:
        """The amplitudes a record holds: the engine's, or in SNR mode
        those times ``2/N``."""
        return tuple([a * scale for a in amps]) if snr_mode else amps

    sig = run_sequence(system, f, None)
    base_amps = recorded(sig.amplitudes)
    if any(sig.zero_flags):
        zeros = [k + 1 for k, z in enumerate(sig.zero_flags) if z]
        records.append(
            IterationRecord(None, None, base_amps,
                            f"zero signal on spin(s) {zeros}; mark count is even")
        )
        return RunTrace(tuple(records), +1, None)

    sign = +1 if sig.amplitudes[0] > 0 else -1
    records.append(
        IterationRecord(None, None, base_amps,
                        f"no zero signal; bracketing spin 1 with branch sign {sign:+d}")
    )

    base = round(sig.amplitudes[0])
    lo, hi = 0, half
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probe = run_sequence(system, f, ShiftSpec(mid, sign))
        a = probe.amplitudes[0]
        amps = recorded(probe.amplitudes)
        if (round(a) - base + mid) % 2:
            raise SignalError(
                f"spin-1 amplitude {amps[0]:+.12g} at offset {mid} breaks the parity "
                f"walk from base amplitude {base_amps[0]:+.12g}"
            )
        if probe.zero_flags[0]:
            hi = mid
            decision = f"offset {mid} nulls the spin-1 signal"
        elif sign * a > 0:
            lo = mid
            decision = f"spin-1 amplitude {amps[0]:+.12g}; zero above offset {mid}"
        else:
            hi = mid
            decision = f"spin-1 amplitude {amps[0]:+.12g}; zero below offset {mid}"
        records.append(IterationRecord(mid, sign, amps, decision))
        if probe.zero_flags[0]:
            break
    # The zero is at hi: a zero probe put it there, or the bracket has width
    # one, where the walk moves by one per unit offset, so a nonzero left
    # edge and the crossing guarantee force the zero at hi.
    m_star = hi
    parity = +1 if m_star % 2 == 0 else -1
    return RunTrace(tuple(records), parity, m_star)
