"""Brute-force ground truth for everything the simulator reproduces.

Every function here is a plain-Python scan over the full truth table
(``f.marks.tolist()``) with integer arithmetic, deliberately O(N * n), and
shares no matrix code with the simulator: it computes its own bit signs and
takes only the ``PhaseFunction`` and ``ShiftSpec`` inputs from it.  The
shifted readout builds the README's quarter-turn exponents
``q_x = g(x) - [x in shift block]`` once and reads each spin's index pairs
from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracles import PhaseFunction, ShiftSpec


def _bit_sign_sums(indices, n: int) -> tuple:
    """Per-spin signed counts of ``indices`` (a list or range): each index
    counts +1 where the spin's bit is 0 and -1 where it is 1."""
    return tuple(
        len(indices) - 2 * sum((s >> (n - k)) & 1 for s in indices) for k in range(1, n + 1)
    )


def brute_parity(f: PhaseFunction) -> int:
    """Product of all truth-table values, by direct iteration."""
    p = 1
    for g in f.marks.tolist():
        if g:
            p = -p
    return p


def brute_spin_sums(f: PhaseFunction) -> tuple:
    """Per-spin signed mark sums: marked indices count +1 where the spin's
    bit is 0 and -1 where it is 1.  Each lies in [-N/2, N/2]."""
    return _bit_sign_sums([x for x, g in enumerate(f.marks.tolist()) if g], f.n)


def brute_shift_index_set(spec: ShiftSpec, n: int) -> range:
    """Canonical offset block, re-derived independently: the m smallest
    indices on the requested spin-1 branch."""
    spec.validate(n)
    start = 0 if spec.sign > 0 else 1 << (n - 1)
    return range(start, start + spec.m)


def brute_shift_sums(spec: ShiftSpec, n: int) -> tuple:
    """Per-spin offsets of the canonical block; spin 1 gives sign * m."""
    return _bit_sign_sums(brute_shift_index_set(spec, n), n)


# Transverse projection of a quarter-turn phase ladder: a net phase step of
# j quarter turns between an index pair contributes sin(j*pi/2).
_QUARTER_TURN_SINE = {-2: 0, -1: -1, 0: 0, 1: 1, 2: 0}


def brute_shifted_signal(f: PhaseFunction, spec: ShiftSpec = None) -> tuple:
    """Exact per-spin readout of the (optionally shifted) sequence.

    Pure integer enumeration over the spin's index pairs: each pair carries
    the net quarter-turn count (mark difference minus shift-membership
    difference), whose transverse projection is 0 or +/-1.  Without a shift
    this reduces to the spin sums; with a shift it equals spin sums minus
    offsets except on pairs where a mark and a shift member saturate the
    phase (net +/-2 quarter turns), and always matches it modulo 2.
    """
    n, dim = f.n, f.dim
    q = [int(g) for g in f.marks.tolist()]
    if spec is not None:
        for x in brute_shift_index_set(spec, n):
            q[x] -= 1
    out = []
    for k in range(1, n + 1):
        step = 1 << (n - k)
        out.append(
            sum(
                _QUARTER_TURN_SINE[q[r] - q[r + step]]
                for block in range(0, dim, 2 * step)
                for r in range(block, block + step)
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class ReferenceReport:
    """Ground-truth bundle for one function (and optional shift)."""

    parity: int
    mark_total: int
    spin_sums: tuple
    shift_sums: tuple

    def __post_init__(self):
        if self.parity != (-1) ** self.mark_total:
            raise ValueError("parity inconsistent with the mark count")
        for p in self.spin_sums:
            if (p - self.mark_total) % 2 != 0:
                raise ValueError("spin sums must share the mark count's parity")


def reference_report(f: PhaseFunction, spec: ShiftSpec = None) -> ReferenceReport:
    return ReferenceReport(
        parity=brute_parity(f),
        mark_total=sum(f.marks.tolist()),
        spin_sums=brute_spin_sums(f),
        shift_sums=brute_shift_sums(spec, f.n) if spec is not None else None,
    )
