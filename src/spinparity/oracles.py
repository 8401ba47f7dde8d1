"""Diagonal unitaries: selective phase shifts, truth-table oracles, and the
compiled offset shifts used by the parity search.

A Boolean phase function marks a subset of basis indices with -1; its oracle
is the diagonal unitary applying that sign (or a general phase angle) to the
marked indices.  The offset shift is a known, non-oracle diagonal unitary
phasing a contiguous block of indices chosen so that all members share the
sign of spin 1's bit; it is constructed both directly and as a short product
of nonselective block shifts conjugated by bit flips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinops import DEFAULT_QUBIT_CAP, DiagonalUnitary


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
        if not 1 <= self.n <= DEFAULT_QUBIT_CAP:
            raise ValueError(f"spin count {self.n} outside 1..{DEFAULT_QUBIT_CAP}")
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
        if value not in (+1, -1):
            raise ValueError("constant value must be +1 or -1")
        return cls(n, np.full(1 << n, value == -1))

    @classmethod
    def single(cls, n: int, x0: int) -> "PhaseFunction":
        N = 1 << n
        if not 0 <= x0 < N:
            raise IndexError(f"marked index {x0} outside 0..{N - 1}")
        m = np.zeros(N, dtype=bool)
        m[x0] = True
        return cls(n, m)

    @classmethod
    def from_marks(cls, n: int, marked) -> "PhaseFunction":
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
        if not 0.0 <= density <= 1.0:
            raise ValueError("mark density must lie in [0, 1]")
        rng = np.random.default_rng(seed)
        return cls(n, rng.random(1 << n) < density)


def mark_count(f: PhaseFunction) -> int:
    """Number of marked inputs; its parity equals the parity of f."""
    return int(f.marks.sum())


def selective_phase_shift(n: int, s: int, theta: float) -> DiagonalUnitary:
    """Diagonal unitary phasing basis index ``s`` by exp(-i theta), leaving
    every other index untouched."""
    N = 1 << n
    if not 0 <= s < N:
        raise IndexError(f"basis index {s} outside 0..{N - 1}")
    p = np.ones(N, dtype=complex)
    p[s] = np.exp(-1j * theta)
    return DiagonalUnitary(p)


def sign_oracle(f: PhaseFunction) -> DiagonalUnitary:
    """Oracle applying the sign f(x) to each basis index; squares to identity."""
    return DiagonalUnitary(f.values().astype(complex))


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


def shift_index_set(spec: ShiftSpec, n: int) -> np.ndarray:
    """Basis indices whose selective shifts compose the offset unitary.

    The canonical choice is the nested-subcube block ``spec.block(n)``.
    Every member has spin-1 sign equal to ``spec.sign``, so the spin-1
    offset is exactly ``sign * m``.
    """
    block = spec.block(n)
    return np.arange(block.start, block.stop)


def block_phase_shift(n: int, width: int, theta: float) -> DiagonalUnitary:
    """Nonselective shift phasing every index whose first ``width`` bits are
    zero, i.e. the projector onto the all-up subcube of the leading spins."""
    if not 1 <= width <= n:
        raise ValueError(f"block width {width} outside 1..{n}")
    N = 1 << n
    p = np.ones(N, dtype=complex)
    p[: 1 << (n - width)] = np.exp(-1j * theta)
    return DiagonalUnitary(p)


def shift_unitary_direct(spec: ShiftSpec, n: int) -> DiagonalUnitary:
    """Offset unitary as the literal product of ``m`` selective shifts at
    angle -pi/2, one per index in the canonical set."""
    p = np.ones(1 << n, dtype=complex)
    p[shift_index_set(spec, n)] = np.exp(0.5j * np.pi)
    return DiagonalUnitary(p)


@dataclass(frozen=True)
class Factor:
    """One factor of the compiled offset circuit.

    ``kind`` is 'block' (nonselective shift, ``arg`` = width, with ``angle``)
    or 'flip'/'unflip' (pi rotation about x on spin ``arg``, realized on
    diagonal phase vectors as a bit permutation with global phase -/+ i).
    """

    kind: str
    arg: int
    angle: float = 0.0


@dataclass(frozen=True)
class CompiledShift:
    unitary: DiagonalUnitary
    factors: tuple


def shift_unitary_compiled(spec: ShiftSpec, n: int) -> CompiledShift:
    """Offset unitary compiled into block shifts and single-spin pi flips.

    One block of width ``n - k`` per set bit ``2**k`` of ``m``, each block
    after the first conjugated by the accumulated bit flips; zero bits of
    ``m`` contribute nothing (their zero-angle block and flips are skipped).
    The factor count is at most ``3n + 1`` and the result equals the direct
    product exactly, including global phase.
    """
    spec.validate(n)
    factors = []
    if spec.sign < 0:
        factors.append(Factor("flip", 1))
    set_bits = spec.bits
    for i, k in enumerate(set_bits):
        factors.append(Factor("block", n - k, -0.5 * np.pi))
        if i + 1 < len(set_bits):
            factors.append(Factor("flip", n - k))
    for k in set_bits[-2::-1]:
        factors.append(Factor("unflip", n - k))
    if spec.sign < 0:
        factors.append(Factor("unflip", 1))

    # Fold the product left to right, normal-ordering every permutation to
    # the left: the running product is  phase * P_mask * diag(d).
    N = 1 << n
    phase = 1.0 + 0.0j
    mask = 0
    diag = np.ones(N, dtype=complex)
    idx = np.arange(N)
    for fac in factors:
        if fac.kind == "block":
            diag = diag * block_phase_shift(n, fac.arg, fac.angle).phases
        else:
            bitmask = 1 << (n - fac.arg)
            # P_mask * D * X_j  ==  P_(mask^j) * diag(d flipped at bit j)
            mask ^= bitmask
            diag = diag[idx ^ bitmask]
            phase *= -1.0j if fac.kind == "flip" else 1.0j
    if mask != 0:
        raise AssertionError("compiled flips do not cancel; construction bug")
    return CompiledShift(DiagonalUnitary(phase * diag), tuple(factors))
