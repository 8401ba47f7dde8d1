"""Register, state and phase types, and the unitary conjugation they run.

Everything here works on a register of ``n`` work spins with dimension
``N = 2**n``.  Spin 1 owns the most significant bit of a basis index, so
basis state ``s`` assigns spin ``k`` the bit ``(s >> (n - k)) & 1``, with
bit 0 corresponding to magnetic quantum number +1/2.  States are plain
complex matrices; the only unitaries conjugated here are diagonal, stored as
phase vectors so that conjugation stays O(N^2), band by band of rows, which
the dense engine's worker threads share out (see ``_workers``).  A
quarter-turn diagonal unitary acts on a state vector held as its
quarter-turn exponents mod 4, in two bit planes, by a bitwise mod-4 add,
O(N/64) machine words.  The single-spin operators, basis projectors and
scalar coherence order that tests build their targets from live in the
tests' ``verification`` module.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np

from ._workers import band_rows, run_split, worker_count

# Absolute tolerance for structural invariants (hermiticity, unit modulus,
# tracelessness): ~100x double round-off for phase products up to N = 4096.
STRUCT_TOL = 1e-12

# Dense-matrix size guard: N^2 complex entries, so n = 12 is ~268 MB per
# matrix.  A hard error beats silent truncation.
DEFAULT_QUBIT_CAP = 12

# Instrumentation, read by the benchmark to count the elementwise diagonal
# steps.  No dense conjugation path exists, so "dense" stays 0; the benchmark
# still reads both keys.  Diagnostic only; not part of any numeric result.
_OP_COUNTS = {"diagonal": 0, "dense": 0}


def op_counts() -> dict:
    return dict(_OP_COUNTS)


def _is_integer(x) -> bool:
    """True for a Python or numpy integer; a bool is not one, though
    True == 1.  The one integer rule of spin counts, marks and shift sizes."""
    return not isinstance(x, bool) and isinstance(x, (int, np.integer))


def integer_spin_count(n) -> int:
    """The spin count ``n`` as a Python int, so no ``1 << n`` wraps in int64;
    ``ValueError`` unless it is a non-bool integer.  The integer half of
    ``check_spin_count``, for counts that no state is built for."""
    if not _is_integer(n):
        raise ValueError(f"spin count must be an integer, got {n!r}")
    return int(n)


def check_spin_count(n) -> int:
    """The spin count ``n`` as a Python int; ``ValueError`` unless it is a
    non-bool integer in 1..DEFAULT_QUBIT_CAP.  Called before anything of size
    ``2**n`` is allocated."""
    n = integer_spin_count(n)
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


@dataclass(frozen=True)
class DiagonalUnitary:
    """Diagonal unitary stored as its length-N vector of unit phases."""

    phases: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phases, dtype=complex).reshape(-1)
        err = np.abs(np.abs(p) - 1.0).max()
        if not err <= STRUCT_TOL:
            raise ValueError(f"phases deviate from unit modulus by {err:.3e}")
        object.__setattr__(self, "phases", p)

    @property
    def dim(self) -> int:
        return self.phases.shape[0]


@dataclass(frozen=True)
class DeviationState:
    """Traceless Hermitian matrix: the observable part of an ensemble state.

    The component proportional to identity carries no NMR signal and is
    dropped throughout, so every state handled here has exactly zero trace.
    The dimension must be ``2**n`` with ``n >= 1``.  ``rho`` is a writable
    C-contiguous complex array (the given one when it already is, else a
    copy), and the dense stages (``conjugate``, ``ensemble.apply_pulse`` and
    both purge filters) transform it in place and return the same state, so
    a caller that still needs the input passes a copy.  ``validate=False``
    skips the O(N^2) structural checks, not the dimension check; reserved for
    transforms that provably preserve them (phase conjugation, rotations,
    coherence masks), each covered by a preservation test.
    """

    rho: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool = True):
        m = np.require(self.rho, dtype=complex, requirements="CW")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"state must be square, got shape {m.shape}")
        N = m.shape[0]
        if N < 2 or N & (N - 1):
            raise ValueError(f"state dimension must be 2**n with n >= 1, got {N}")
        if validate:
            herm = np.abs(m - m.conj().T).max()
            if not herm <= STRUCT_TOL:
                raise ValueError(f"state deviates from Hermitian by {herm:.3e}")
            tr = abs(m.trace())
            if not tr <= STRUCT_TOL:
                raise ValueError(f"deviation state must be traceless, |trace| = {tr:.3e}")
        object.__setattr__(self, "rho", m)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


def bit_sign_table(n: int) -> np.ndarray:
    """The +/-1 encoding of basis-index bits for ``n`` spins: a read-only
    ``(n, 2**n)`` float64 array of exact +/-1.0, one row per spin (cached),
    so the readout's product with a float diagonal casts nothing.

    Entry ``[k-1, s]`` is +1 exactly when bit ``k`` of index ``s`` is 0
    (spin 1 = most significant bit), so ``diag(1/2 + a/2, 1/2 - a/2)`` is
    the single-spin projector selecting that bit.  Each row is balanced:
    half the entries are +1.
    """
    # checked before the cache, where True and 1 would share a key
    return _bit_sign_table(check_spin_count(n))


@lru_cache(maxsize=None)
def _bit_sign_table(n: int) -> np.ndarray:
    shifts = np.arange(n - 1, -1, -1)[:, None]  # n - k for k = 1..n
    v = 1.0 - 2.0 * ((np.arange(1 << n) >> shifts) & 1)
    v.setflags(write=False)
    return v


def conjugate(u: DiagonalUnitary, state: DeviationState) -> DeviationState:
    """Diagonal unitary conjugation ``rho -> u rho u^dagger``, in place on the
    state's array; returns the same state.

    The elementwise path ``rho[r, c] *= phases[r] * conj(phases[c])`` is
    O(N^2) with no N x N temporary, run on bands of rows, which
    ``_workers.run_split`` deals out to its workers; ``TypeError`` for
    anything but a ``DiagonalUnitary``.
    """
    if not isinstance(u, DiagonalUnitary):
        raise TypeError(f"cannot conjugate by {type(u).__name__}")
    if u.dim != state.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {state.dim}")
    rho, N = state.rho, state.dim
    _OP_COUNTS["diagonal"] += 1
    p = u.phases
    pc = p.conj()
    h = band_rows(N)
    workers = worker_count(N, N // h)

    def bands(i, lo, hi):
        # elementwise scaling preserves hermiticity and trace exactly
        for r in range(lo * h, hi * h, h):
            rows = rho[r : r + h]
            rows *= pc
            rows *= p[r : r + h, None]

    run_split(bands, workers, N // h)
    return state


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
