"""Truth tables, their phase oracle, and the offset shift used by the parity
search: ``PhaseFunction``, ``phase_oracle``, ``ShiftSpec`` with its block,
and ``shift_unitary_direct``.

A Boolean phase function marks a subset of basis indices with -1; its oracle
is the diagonal unitary applying that sign (or a general phase angle) to the
marked indices.  The offset shift is a known, non-oracle diagonal unitary
phasing a contiguous block of indices chosen so that all members share the
sign of spin 1's bit; it is built here directly, one selective shift per
block member.  Its compiled form, a short product of nonselective block
shifts conjugated by bit flips over the set bits of the shift size, lives in
the tests' ``verification`` module with the selective, sign and block shifts,
which only the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spinops import DiagonalUnitary, _is_integer, check_spin_count


def _is_sign(value) -> bool:
    """True for +1 or -1; a bool is not a sign, though True == 1."""
    return not isinstance(value, (bool, np.bool_)) and value in (+1, -1)


@dataclass(frozen=True, eq=False)
class PhaseFunction:
    """Truth table of f: {0..N-1} -> {+1, -1}, stored as the marked set.

    ``marks[x]`` is True exactly when ``f(x) = -1``; equivalently the binary
    exponent g(x) with ``f(x) = exp(-i pi g(x))`` is 1 there and 0 elsewhere.
    ``marks`` is a read-only copy of the given table over immutable bytes, so
    neither the caller's array nor a write through ``f.marks`` can change a
    built function (``f.marks.setflags(write=True)`` raises), and
    ``mark_bits``, packed from it once, always agrees with it.  Two
    functions are equal, and hash alike, exactly when they have the same
    ``n`` and the same marked set.
    """

    n: int
    marks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", check_spin_count(self.n))
        m = np.asarray(self.marks).reshape(-1)
        if m.dtype != bool and not np.all((m == 0) | (m == 1)):
            raise ValueError("truth-table entries must be bools or 0/1 marks")
        m = m.astype(bool)
        if m.shape[0] != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} truth-table entries, got {m.shape[0]}")
        object.__setattr__(self, "marks", np.frombuffer(m.tobytes(), dtype=bool))

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, so each gets
        # read-only marks of its own and packs its own ``mark_bits``
        return (type(self), (self.n, self.marks))

    def __eq__(self, other):
        if not isinstance(other, PhaseFunction):
            return NotImplemented
        return self.n == other.n and self.mark_bits == other.mark_bits

    def __hash__(self):
        return hash((self.n, self.mark_bits))

    @property
    def dim(self) -> int:
        return 1 << self.n

    @cached_property
    def mark_bits(self) -> int:
        """The marked set as an N-bit int, bit x set exactly when x is
        marked: packed on first use and kept for every later run."""
        return int.from_bytes(np.packbits(self.marks, bitorder="little").tobytes(), "little")

    def exponents(self) -> np.ndarray:
        """g(x) as a 0/1 integer vector."""
        return self.marks.astype(np.int64)

    @classmethod
    def constant(cls, n: int, value: int = +1) -> "PhaseFunction":
        n = check_spin_count(n)
        if not _is_sign(value):
            raise ValueError("constant value must be +1 or -1")
        return cls(n, np.full(1 << n, value == -1))

    @classmethod
    def single(cls, n: int, x0: int) -> "PhaseFunction":
        return cls.from_marks(n, [x0])

    @classmethod
    def from_marks(cls, n: int, marked) -> "PhaseFunction":
        """The function marking exactly the indices in ``marked``; each must
        be a non-bool integer in ``0..2**n - 1``, else ``IndexError``."""
        n = check_spin_count(n)
        N = 1 << n
        m = np.zeros(N, dtype=bool)
        for x in marked:
            if not _is_integer(x) or not 0 <= x < N:
                raise IndexError(f"marked index {x!r} is not an integer in 0..{N - 1}")
            m[x] = True
        return cls(n, m)

    @classmethod
    def random(cls, n: int, density: float, seed: int) -> "PhaseFunction":
        """Seeded random truth table; each index is marked with probability
        ``density``.  Uses numpy's PCG64 generator so identical seeds give
        identical tables on every platform."""
        n = check_spin_count(n)
        if not 0.0 <= density <= 1.0:
            raise ValueError("mark density must lie in [0, 1]")
        rng = np.random.default_rng(seed)
        return cls(n, rng.random(1 << n) < density)


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
        if not _is_sign(self.sign):
            raise ValueError("sign must be +1 or -1")
        if not _is_integer(self.m) or self.m < 1:
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


def shift_unitary_direct(spec: ShiftSpec, n: int) -> DiagonalUnitary:
    """Offset unitary as the literal product of ``m`` selective shifts at
    angle -pi/2, one per index of the canonical block ``spec.block(n)``,
    whose members all have spin-1 sign ``spec.sign``."""
    p = np.ones(1 << n, dtype=complex)
    p[spec.block(n)] = np.exp(0.5j * np.pi)
    return DiagonalUnitary(p)
