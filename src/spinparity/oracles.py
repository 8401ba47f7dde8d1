"""Truth tables, their phase oracle, and the offset shift used by the parity
search.

A Boolean phase function marks a subset of basis indices with -1; its oracle
is the diagonal unitary applying that sign (or a general phase angle) to the
marked indices.  The offset shift is a known, non-oracle diagonal unitary
phasing a contiguous block of indices chosen so that all members share the
sign of spin 1's bit; it is built here directly, one selective shift per
block member.  Its compiled form, a short product of nonselective block
shifts conjugated by bit flips, lives in ``verification`` with the
selective, sign and block shifts, which only the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinops import DEFAULT_QUBIT_CAP, DiagonalUnitary


def _check_spin_count(n) -> None:
    """Reject a spin count outside 1..DEFAULT_QUBIT_CAP before anything of
    size 2^n is allocated."""
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= DEFAULT_QUBIT_CAP:
        raise ValueError(f"spin count {n!r} outside 1..{DEFAULT_QUBIT_CAP}")


@dataclass(frozen=True)
class PhaseFunction:
    """Truth table of f: {0..N-1} -> {+1, -1}, stored as the marked set.

    ``marks[x]`` is True exactly when ``f(x) = -1``; equivalently the binary
    exponent g(x) with ``f(x) = exp(-i pi g(x))`` is 1 there and 0 elsewhere.
    ``marks`` is a read-only copy of the given table, so neither the caller's
    array nor a write through ``f.marks`` can change a built function.
    """

    n: int
    marks: np.ndarray

    def __post_init__(self):
        _check_spin_count(self.n)
        # a numpy size would carry int64 into every count derived from n
        object.__setattr__(self, "n", int(self.n))
        m = np.asarray(self.marks).reshape(-1)
        if m.dtype != bool and not np.all((m == 0) | (m == 1)):
            raise ValueError("truth-table entries must be bools or 0/1 marks")
        m = m.astype(bool)
        if m.shape[0] != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} truth-table entries, got {m.shape[0]}")
        m.setflags(write=False)
        object.__setattr__(self, "marks", m)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def values(self) -> np.ndarray:
        """f(x) as a +/-1 integer vector."""
        return 1 - 2 * self.marks.astype(np.int64)

    def exponents(self) -> np.ndarray:
        """g(x) as a 0/1 integer vector."""
        return self.marks.astype(np.int64)

    @classmethod
    def constant(cls, n: int, value: int = +1) -> "PhaseFunction":
        _check_spin_count(n)
        if value not in (+1, -1):
            raise ValueError("constant value must be +1 or -1")
        return cls(n, np.full(1 << n, value == -1))

    @classmethod
    def single(cls, n: int, x0: int) -> "PhaseFunction":
        _check_spin_count(n)
        N = 1 << n
        if not 0 <= x0 < N:
            raise IndexError(f"marked index {x0} outside 0..{N - 1}")
        m = np.zeros(N, dtype=bool)
        m[x0] = True
        return cls(n, m)

    @classmethod
    def from_marks(cls, n: int, marked) -> "PhaseFunction":
        _check_spin_count(n)
        N = 1 << n
        m = np.zeros(N, dtype=bool)
        for x in marked:
            if not 0 <= x < N:
                raise IndexError(f"marked index {x} outside 0..{N - 1}")
            m[x] = True
        return cls(n, m)

    @classmethod
    def random(cls, n: int, density: float, seed: int) -> "PhaseFunction":
        """Seeded random truth table; each index is marked with probability
        ``density``.  Uses numpy's PCG64 generator so identical seeds give
        identical tables on every platform."""
        _check_spin_count(n)
        if not 0.0 <= density <= 1.0:
            raise ValueError("mark density must lie in [0, 1]")
        rng = np.random.default_rng(seed)
        return cls(n, rng.random(1 << n) < density)


def mark_count(f: PhaseFunction) -> int:
    """Number of marked inputs; its parity equals the parity of f."""
    return int(f.marks.sum())


def phase_oracle(f: PhaseFunction, theta: float) -> DiagonalUnitary:
    """Generalized oracle with phases exp(-i theta g(x)); reduces to the sign
    oracle at theta = pi."""
    return DiagonalUnitary(np.exp(-1j * theta * f.exponents()))


@dataclass(frozen=True)
class ShiftSpec:
    """Offset shift specification: block size and spin-1 branch.

    ``m`` selective shifts make up the offset unitary; ``sign`` selects
    whether the shifted block lives on the bit-1 = 0 side (+1) or the
    bit-1 = 1 side (-1), so that the spin-1 offset equals ``sign * m``.
    """

    m: int
    sign: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise ValueError(f"shift size must be a positive integer, got {self.m!r}")
        # a numpy size would carry int64 into the big-integer shift bitset
        object.__setattr__(self, "m", int(self.m))

    def validate(self, n: int) -> None:
        if self.m > 1 << (n - 1):
            raise ValueError(f"shift size {self.m} exceeds 2^(n-1) = {1 << (n - 1)}")

    def block(self, n: int) -> slice:
        """The canonical offset block: the ``m`` smallest indices on the
        chosen spin-1 branch, so every member's spin-1 sign is ``sign``."""
        self.validate(n)
        start = 0 if self.sign > 0 else 1 << (n - 1)
        return slice(start, start + self.m)

    @property
    def bits(self) -> tuple:
        """Exponents of the binary decomposition of ``m``, descending."""
        return tuple(k for k in range(self.m.bit_length() - 1, -1, -1) if (self.m >> k) & 1)


def shift_unitary_direct(spec: ShiftSpec, n: int) -> DiagonalUnitary:
    """Offset unitary as the literal product of ``m`` selective shifts at
    angle -pi/2, one per index of the canonical block ``spec.block(n)``,
    whose members all have spin-1 sign ``spec.sign``."""
    p = np.ones(1 << n, dtype=complex)
    p[spec.block(n)] = np.exp(0.5j * np.pi)
    return DiagonalUnitary(p)
