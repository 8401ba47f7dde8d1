"""The register, its spin-count check, and the diagonal-op counter.

Everything here works on a register of ``n`` work spins with dimension
``N = 2**n``.  Spin 1 owns the most significant bit of a basis index, so
basis state ``s`` assigns spin ``k`` the bit ``(s >> (n - k)) & 1``, with
bit 0 corresponding to magnetic quantum number +1/2.  The pair engine's
kernel (``protocol.run_sequence``) builds its quarter-turn exponent planes
inline and counts its adds here, as the dense engine's ``ensemble.conjugate``
counts its conjugations.  The dense state and unitary types, and their
conjugation, live with the dense engine in ``ensemble``; the single-spin
operators, basis projectors, scalar coherence order and the generic mod-4
add on bit planes that tests build their targets from live in the tests'
``verification`` module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Dense-matrix size guard: N^2 complex entries, so n = 12 is ~268 MB per
# matrix.  A hard error beats silent truncation.
DEFAULT_QUBIT_CAP = 12

# Instrumentation, read by the benchmark to count the elementwise diagonal
# steps: the pair kernel's oracle and shift adds (``protocol.run_sequence``)
# and ``ensemble.conjugate``.  No dense conjugation path exists, so "dense"
# stays 0; the benchmark still reads both keys.  Diagnostic only; not part
# of any numeric result.
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

