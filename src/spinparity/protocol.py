"""Parity determination: base run, zero-signal decision, and the integer
bisection over offset sizes that pins down the parity in at most n runs.

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

Every run goes through the exact integer pair engine
``ensemble.pair_sequence``, whose amplitudes are whole units flagged zero at
the one fixed floor ``ensemble.DEFAULT_THRESHOLD``; the dense
``ensemble.run_sequence`` is the reference it is tested against.  Both
engines read in whole units, so the amplitude unit is known here alone: the
walk check reads them as they come, and in SNR mode ``solve_parity`` records
them times ``2/N``, the minimum nonzero physical signal.  The worst-case
call budget that criterion 7 checks, ``projected_call_counts``, is
test-only and lives in the tests' ``verification`` module.
"""

from __future__ import annotations

from dataclasses import dataclass

# Bound under the dense engine's name: the benchmark's tracer wraps
# ``protocol.run_sequence`` as the sequence run the solver reaches.
from .ensemble import pair_sequence as run_sequence
from .oracles import PhaseFunction, ShiftSpec
from .spinops import SpinSystem


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
