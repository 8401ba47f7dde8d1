"""Dense spin-1/2 algebra on computational-basis indices.

Everything here works on a register of ``n`` work spins with dimension
``N = 2**n``.  Spin 1 owns the most significant bit of a basis index, so
basis state ``s`` assigns spin ``k`` the bit ``(s >> (n - k)) & 1``, with
bit 0 corresponding to magnetic quantum number +1/2.  All operators are
plain complex matrices; diagonal unitaries are stored as phase vectors so
that conjugation stays O(N^2).  A quarter-turn diagonal unitary acts on a
state vector held as its quarter-turn exponents mod 4, in two bit planes, by
a bitwise mod-4 add, O(N/64) machine words.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

# Absolute tolerance for structural invariants (hermiticity, unit modulus,
# tracelessness): ~100x double round-off for phase products up to N = 4096.
STRUCT_TOL = 1e-12

# Dense-matrix size guard: N^2 complex entries, so n = 12 is ~268 MB per
# matrix.  A hard error beats silent truncation.
DEFAULT_QUBIT_CAP = 12

_HALF_SIGMA = {
    "x": 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": 0.5 * np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Instrumentation, read by the benchmark to confirm the elementwise paths are
# what actually runs.  Diagnostic only; not part of any numeric result.
_OP_COUNTS = {"diagonal": 0, "dense": 0}


def reset_op_counts() -> None:
    _OP_COUNTS["diagonal"] = 0
    _OP_COUNTS["dense"] = 0


def op_counts() -> dict:
    return dict(_OP_COUNTS)


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
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"spin count must be a positive integer, got {self.n!r}")
        if self.n > DEFAULT_QUBIT_CAP:
            raise ValueError(f"n={self.n} exceeds the dense-matrix cap of {DEFAULT_QUBIT_CAP}")
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
class Operator:
    """Square complex matrix on the register."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_hermitian(self, tol: float = STRUCT_TOL) -> bool:
        return bool(np.abs(self.entries - self.entries.conj().T).max() <= tol)


@dataclass(frozen=True)
class DiagonalUnitary:
    """Diagonal unitary stored as its length-N vector of unit phases."""

    phases: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phases, dtype=complex).reshape(-1)
        err = np.abs(np.abs(p) - 1.0).max()
        if err > STRUCT_TOL:
            raise ValueError(f"phases deviate from unit modulus by {err:.3e}")
        object.__setattr__(self, "phases", p)

    @property
    def dim(self) -> int:
        return self.phases.shape[0]

    def compose(self, other: "DiagonalUnitary") -> "DiagonalUnitary":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return DiagonalUnitary(self.phases * other.phases)

    def adjoint(self) -> "DiagonalUnitary":
        return DiagonalUnitary(self.phases.conj())


@dataclass(frozen=True)
class DeviationState:
    """Traceless Hermitian matrix: the observable part of an ensemble state.

    The component proportional to identity carries no NMR signal and is
    dropped throughout, so every state handled here has exactly zero trace.
    ``validate=False`` skips the O(N^2) structural checks; reserved for
    transforms that provably preserve them (phase conjugation, rotations,
    coherence masks), each covered by a preservation test.
    """

    rho: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool = True):
        m = np.asarray(self.rho, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"state must be square, got shape {m.shape}")
        if validate:
            herm = np.abs(m - m.conj().T).max()
            if herm > STRUCT_TOL:
                raise ValueError(f"state deviates from Hermitian by {herm:.3e}")
            tr = abs(m.trace())
            if tr > STRUCT_TOL:
                raise ValueError(f"deviation state must be traceless, |trace| = {tr:.3e}")
        object.__setattr__(self, "rho", m)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class BitSignTable:
    """The +/-1 encoding of basis-index bits, one row per spin, built from
    ``n`` alone.

    ``values[k-1, s]`` is +1 exactly when bit ``k`` of index ``s`` is 0
    (spin 1 = most significant bit), so ``diag(1/2 + a/2, 1/2 - a/2)`` is
    the single-spin projector selecting that bit.  Each row is balanced:
    half the entries are +1.
    """

    n: int
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("spin count must be >= 1")
        shifts = np.arange(self.n - 1, -1, -1)[:, None]  # n - k for k = 1..n
        v = 1 - 2 * ((np.arange(1 << self.n) >> shifts) & 1)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def sign(self, k: int, s: int) -> int:
        """Entry for spin ``k`` (1-based) at basis index ``s``."""
        return int(self.values[k - 1, s])


@lru_cache(maxsize=None)
def bit_sign_table(n: int) -> BitSignTable:
    """Build the +/-1 bit table for ``n`` spins (cached; table is frozen)."""
    t = BitSignTable(n=n)
    t.values.setflags(write=False)
    return t


def spin_operator(n: int, k: int, axis: str) -> Operator:
    """Single-spin angular momentum component embedded in the register.

    Returns ``E (x) ... (x) sigma_axis/2 (x) ... (x) E`` with the nontrivial
    factor at slot ``k`` (slot 1 leftmost / most significant).  Hermitian
    with eigenvalues +/-1/2.
    """
    if not 1 <= k <= n:
        raise IndexError(f"spin index {k} outside 1..{n}")
    if axis not in _HALF_SIGMA:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    m = np.array([[1.0 + 0.0j]])
    for j in range(1, n + 1):
        m = np.kron(m, _HALF_SIGMA[axis] if j == k else np.eye(2, dtype=complex))
    return Operator(m)


def basis_projector(n: int, s: int) -> Operator:
    """Diagonal projector onto computational basis index ``s``."""
    N = 1 << n
    if not 0 <= s < N:
        raise IndexError(f"basis index {s} outside 0..{N - 1}")
    d = np.zeros(N, dtype=complex)
    d[s] = 1.0
    return Operator(np.diag(d))


def basis_projector_product(table: BitSignTable, s: int) -> Operator:
    """Same projector assembled as the tensor product of per-spin factors
    ``(E/2 + a_k I_kz)``, with ``a_k`` read from the bit-sign table."""
    N = table.dim
    if not 0 <= s < N:
        raise IndexError(f"basis index {s} outside 0..{N - 1}")
    diag = np.array([1.0 + 0.0j])
    for k in range(1, table.n + 1):
        a = table.sign(k, s)
        diag = np.kron(diag, np.array([0.5 + 0.5 * a, 0.5 - 0.5 * a], dtype=complex))
    return Operator(np.diag(diag))


def coherence_order(r: int, c: int) -> int:
    """Coherence order of the matrix element |r><c|.

    Difference of total magnetic quantum numbers under the bit-0 <-> m=+1/2
    convention, i.e. ``popcount(c) - popcount(r)``.
    """
    return int(c).bit_count() - int(r).bit_count()


def conjugate(u, state: DeviationState) -> DeviationState:
    """Unitary conjugation ``u rho u^dagger``.

    Diagonal unitaries take the elementwise path
    ``rho'[r, c] = phases[r] * conj(phases[c]) * rho[r, c]`` (O(N^2));
    dense matrix products are reserved for general ``Operator`` inputs.
    """
    rho = state.rho
    if isinstance(u, DiagonalUnitary):
        if u.dim != state.dim:
            raise ValueError(f"dimension mismatch: {u.dim} vs {state.dim}")
        _OP_COUNTS["diagonal"] += 1
        p = u.phases
        # elementwise scaling preserves hermiticity and trace exactly
        out = rho * p.conj()[None, :]
        out *= p[:, None]
        return DeviationState(out, validate=False)
    if isinstance(u, Operator):
        if u.dim != state.dim:
            raise ValueError(f"dimension mismatch: {u.dim} vs {state.dim}")
        _OP_COUNTS["dense"] += 1
        m = u.entries
        return DeviationState(m @ rho @ m.conj().T)
    raise TypeError(f"cannot conjugate by {type(u).__name__}")


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
