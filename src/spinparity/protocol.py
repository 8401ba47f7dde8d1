"""The production engine and its search: the exact integer pair kernel
``run_sequence``, its single-run wrapper ``pair_sequence``, the readout rule
that both engines share, and the parity determination, a base run, a
zero-signal decision and the integer bisection over offset sizes that pins
down the parity in at most n runs.

The sequence is: transverse initial state -> phase oracle at 90 degrees ->
optional offset shift -> hard 90-degree y pulse on all spins -> gradient
filter -> zero-quantum filter -> longitudinal readout.  ``ensemble`` runs
it densely, as the reference; the kernel ``run_sequence`` reads the same
amplitudes without the density matrix.  The purged state is a sum of
single-spin longitudinal terms, so spin k's amplitude depends only on the
oracle and shift phases over spin k's index pairs, and at 90 degrees each
pair adds 0 or +/-1: an exact integer readout in O(nN), independent of the
polarizations.  The kernel takes the marked set and the shift block as two
bitsets and returns the n amplitudes as ints; its docstring gives the
closed form.  ``pair_sequence`` and the dense engine end in ``_signal``,
which builds each amplitude as a float and its zero flag once, at the one
fixed floor ``DEFAULT_THRESHOLD``, under the zero rule ``_zero_flags`` that
the public ``SignalVector`` constructor checks.  Neither engine takes a
floor or a scale: the ``2/N`` physical scale of the CLI's ``--snr`` is
applied by ``solve_parity`` alone.  The test suite checks the kernel
against the integer reference, which it agrees with exactly, and against
the dense engine, which it agrees with to round-off; nothing here imports
the dense engine or its worker threads.

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

``solve_parity`` packs the marked set once and calls the kernel directly
for each of its runs, with the probe's block as a bitset, so a run builds
no ``ShiftSpec`` and no ``SignalVector``.  The kernel's amplitudes are
exact ints, so the zero test is ``== 0`` and the walk check is integer
arithmetic; each record holds them as floats, or in SNR mode times
``2/N``, the minimum nonzero physical signal.  The worst-case call budget
that criterion 7 checks, ``projected_call_counts``, is test-only and lives
in the tests' ``verification`` module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .oracles import PhaseFunction, ShiftSpec
from .spinops import _OP_COUNTS, SpinSystem

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


# The benchmark's tracer wraps the kernel under this name, as the sequence run
# the solver reaches: ``solve_parity`` and ``pair_sequence`` call it through
# the module global, so each run counts as one ``protocol.run_sequence`` call.
def run_sequence(n: int, g: int, e: int) -> list:
    """The n integer amplitudes, spin 1 first, of one run whose oracle marks
    the N-bit set ``g`` and whose shift block is the N-bit set ``e`` (0 for
    an unshifted run): the dense ``ensemble.run_sequence``'s readout in
    O(nN), without the density matrix, in exact whole units.

    At 90 degrees every phase is a power of ``-i``, so the state is held as
    its quarter-turn exponents ``q`` mod 4, in two bit planes: bit x of
    ``q0`` (``q1``) is bit 0 (1) of index x's exponent.  The oracle adds
    ``g(x)`` and the shift adds -1 on its block; from zero planes those two
    mod-4 adds give ``q0 = g ^ e`` and ``q1 = ~g & e``.  An index pair
    ``(r, c)`` of spin k, c = r + 2^(n-k), then adds ``sin(pi/2 * (q_r -
    q_c))`` to that spin's amplitude; the polarization cancels.  The sine
    is +/-1 exactly when ``q_r`` and ``q_c`` differ in bit 0 (``odd``), and
    -1 when moreover ``q_c = q_r + 1`` mod 4, which on such a pair is bit 1
    of ``q_r`` xor bits 1 and 0 of ``q_c`` (``neg``).  So ``amp_k = |odd| -
    2 |neg|``: two popcounts over the planes and their ``2^(n-k)``-shifted
    copies.  Counts the oracle add, and the shift add if ``e`` is nonzero,
    with the diagonal conjugations.
    """
    q0 = g ^ e
    q1 = ~g & e
    p = q0 ^ q1
    _OP_COUNTS["diagonal"] += 2 if e else 1
    amps = []
    for step, low in _low_masks(n):
        odd = (q0 ^ (q0 >> step)) & low
        neg = (q1 ^ (p >> step)) & odd
        amps.append(odd.bit_count() - 2 * neg.bit_count())
    return amps


def _check_sizes(system: SpinSystem, f: PhaseFunction) -> None:
    if f.n != system.n:
        raise ValueError(f"truth table is for n={f.n}, system has n={system.n}")


def pair_sequence(system: SpinSystem, f: PhaseFunction, shift: ShiftSpec = None) -> SignalVector:
    """One run of the pair engine as a ``SignalVector``: the kernel
    ``run_sequence`` on ``f.mark_bits``, packed once for all of ``f``'s runs,
    and the bitset of ``shift``'s block."""
    _check_sizes(system, f)
    e = 0
    if shift is not None:
        block = shift.block(system.n)
        e = (1 << block.stop) - (1 << block.start)
    return _signal(run_sequence(system.n, f.mark_bits, e))


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
    branch decisions only use signs and zeros, so the control flow is
    unchanged.  Raises ``SignalError`` when a probe's spin-1 amplitude breaks
    the parity walk.
    """
    _check_sizes(system, f)
    n, g = system.n, f.mark_bits
    half = 1 << (n - 1)
    scale = 2.0 / system.dim
    records = []

    def recorded(amps: list) -> tuple:
        """The amplitudes a record holds: the kernel's as floats, or in SNR
        mode those times ``2/N``."""
        return tuple([a * scale for a in amps]) if snr_mode else tuple(map(float, amps))

    units = run_sequence(n, g, 0)
    base_amps = recorded(units)
    if 0 in units:
        zeros = [k + 1 for k, a in enumerate(units) if a == 0]
        records.append(
            IterationRecord(None, None, base_amps,
                            f"zero signal on spin(s) {zeros}; mark count is even")
        )
        return RunTrace(tuple(records), +1, None)

    base = units[0]
    sign = +1 if base > 0 else -1
    records.append(
        IterationRecord(None, None, base_amps,
                        f"no zero signal; bracketing spin 1 with branch sign {sign:+d}")
    )

    # each probe's block, as ``ShiftSpec(mid, sign).block(n)`` gives it: the
    # ``mid`` smallest indices on spin 1's ``sign`` branch, from ``start``
    start = 0 if sign > 0 else half
    lo, hi = 0, half
    while hi - lo > 1:
        mid = (lo + hi) // 2
        units = run_sequence(n, g, ((1 << mid) - 1) << start)
        a = units[0]
        amps = recorded(units)
        if (a - base + mid) % 2:
            raise SignalError(
                f"spin-1 amplitude {amps[0]:+.12g} at offset {mid} breaks the parity "
                f"walk from base amplitude {base_amps[0]:+.12g}"
            )
        if a == 0:
            hi = mid
            decision = f"offset {mid} nulls the spin-1 signal"
        elif sign * a > 0:
            lo = mid
            decision = f"spin-1 amplitude {amps[0]:+.12g}; zero above offset {mid}"
        else:
            hi = mid
            decision = f"spin-1 amplitude {amps[0]:+.12g}; zero below offset {mid}"
        records.append(IterationRecord(mid, sign, amps, decision))
        if a == 0:
            break
    # The zero is at hi: a zero probe put it there, or the bracket has width
    # one, where the walk moves by one per unit offset, so a nonzero left
    # edge and the crossing guarantee force the zero at hi.
    m_star = hi
    parity = +1 if m_star % 2 == 0 else -1
    return RunTrace(tuple(records), parity, m_star)
