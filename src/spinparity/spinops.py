"""The register, its spin-count check, and the bit-plane diagonal add.

Everything here works on a register of ``n`` work spins with dimension
``N = 2**n``.  Spin 1 owns the most significant bit of a basis index, so
basis state ``s`` assigns spin ``k`` the bit ``(s >> (n - k)) & 1``, with
bit 0 corresponding to magnetic quantum number +1/2.  A quarter-turn
diagonal unitary acts on a state vector held as its quarter-turn exponents
mod 4, in two bit planes, by a bitwise mod-4 add, O(N/64) machine words:
the pair engine's one state operation (``protocol.pair_sequence``).  The
dense state and unitary types, and their conjugation, live with the dense
engine in ``ensemble``; the single-spin operators, basis projectors and
scalar coherence order that tests build their targets from live in the
tests' ``verification`` module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Dense-matrix size guard: N^2 complex entries, so n = 12 is ~268 MB per
# matrix.  A hard error beats silent truncation.
DEFAULT_QUBIT_CAP = 12

# Instrumentation, read by the benchmark to count the elementwise diagonal
# steps: ``apply_diagonal`` here and ``ensemble.conjugate``.  No dense
# conjugation path exists, so "dense" stays 0; the benchmark still reads
# both keys.  Diagnostic only; not part of any numeric result.
_OP_COUNTS = {"diagonal": 0, "dense": 0}


def op_counts() -> dict:
    return dict(_OP_COUNTS)


def _is_integer(x) -> bool:
    """True for a Python or numpy integer; a bool is not one, though
    True == 1.  The one integer rule of spin counts, marks and shift sizes."""
    return not isinstance(x, bool) and isinstance(x, (int, np.integer))


def check_spin_count(n) -> int:
    """The spin count ``n`` as a Python int, so no ``1 << n`` wraps in int64;
    ``ValueError`` unless it is a non-bool integer in 1..DEFAULT_QUBIT_CAP.
    Called before anything of size ``2**n`` is allocated."""
    if not _is_integer(n):
        raise ValueError(f"spin count must be an integer, got {n!r}")
    n = int(n)
    if not 1 <= n <= DEFAULT_QUBIT_CAP:
        raise ValueError(f"spin count {n} outside 1..{DEFAULT_QUBIT_CAP}")
    return n


@dataclass(frozen=True)
class SpinSystem:
    """Work register: spin count and per-spin polarization parameters.

    Parameters
    ----------
    n : int
        Number of work spins, ``1 <= n <= DEFAULT_QUBIT_CAP``.
    epsilon : tuple of float, optional
        Polarization parameter of each spin, all finite and positive.
        Defaults to 1.0 for every spin.
    """

    n: int
    epsilon: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "n", check_spin_count(self.n))
        eps = self.epsilon
        if eps is None:
            eps = (1.0,) * self.n
        eps = tuple(float(e) for e in np.atleast_1d(eps))
        if len(eps) != self.n:
            raise ValueError(f"expected {self.n} polarization parameters, got {len(eps)}")
        if not all(0.0 < e < np.inf for e in eps):
            raise ValueError("polarization parameters must all be finite and positive")
        object.__setattr__(self, "epsilon", eps)

    @property
    def dim(self) -> int:
        return 1 << self.n


def apply_diagonal(q: tuple, e: int, sign: int) -> tuple:
    """Apply a quarter-turn diagonal unitary to a length-N vector held as its
    quarter-turn exponents mod 4 (entries ``(-i)**q``), and return the result.

    ``q = (q0, q1)`` are the exponents' two bit planes as Python ints: bit x
    of ``q0`` (``q1``) is bit 0 (1) of index x's exponent.  The unitary adds
    ``sign`` (+1 or -1) to the exponent of every index in the bitset ``e``,
    as a mod-4 add with one carry plane.  Counted with the diagonal
    conjugations."""
    q0, q1 = q
    if sign == 1:
        q1 ^= q0 & e
    elif sign == -1:
        q1 ^= ~q0 & e
    else:
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    _OP_COUNTS["diagonal"] += 1
    return q0 ^ e, q1
