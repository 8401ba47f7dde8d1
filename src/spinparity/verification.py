"""Test-only constructions that cross-check the production closed forms.

No production module imports this one; it imports from them, and nothing
on the solver, dense-engine, CLI or benchmark path calls into it.  It holds
the dense single-spin algebra the tests build their targets from (spin
operators, basis projectors, the scalar coherence order), the selective,
sign and block phase shifts, the compiled offset-shift circuit with the
set-bit list of the shift size it is built from (criterion 5), the
closed-form conjugation and evolution expansions (criterion 4), and the
projected worst-case oracle-call budget (criterion 7).  The package does
not import it, so callers import these names from
``spinparity.verification``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import initial_state
from .oracles import PhaseFunction, ShiftSpec
from .spinops import DeviationState, DiagonalUnitary, SpinSystem, bit_sign_table, integer_spin_count

_HALF_SIGMA = {
    "x": 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": 0.5 * np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def spin_operator(n: int, k: int, axis: str) -> np.ndarray:
    """Single-spin angular momentum component embedded in the register.

    Returns ``E (x) ... (x) sigma_axis/2 (x) ... (x) E`` as a complex N x N
    array, with the nontrivial factor at slot ``k`` (slot 1 leftmost / most
    significant).  Hermitian with eigenvalues +/-1/2.
    """
    if not 1 <= k <= n:
        raise IndexError(f"spin index {k} outside 1..{n}")
    if axis not in _HALF_SIGMA:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    m = np.array([[1.0 + 0.0j]])
    for j in range(1, n + 1):
        m = np.kron(m, _HALF_SIGMA[axis] if j == k else np.eye(2, dtype=complex))
    return m


def basis_projector(n: int, s: int) -> np.ndarray:
    """Diagonal projector onto computational basis index ``s``."""
    N = 1 << n
    if not 0 <= s < N:
        raise IndexError(f"basis index {s} outside 0..{N - 1}")
    d = np.zeros(N, dtype=complex)
    d[s] = 1.0
    return np.diag(d)


def basis_projector_product(n: int, s: int) -> np.ndarray:
    """Same projector assembled as the tensor product of per-spin factors
    ``(E/2 + a_k I_kz)``, with ``a_k`` read from the bit-sign table."""
    N = 1 << n
    if not 0 <= s < N:
        raise IndexError(f"basis index {s} outside 0..{N - 1}")
    diag = np.array([1.0 + 0.0j])
    for a in bit_sign_table(n)[:, s]:
        diag = np.kron(diag, np.array([0.5 + 0.5 * a, 0.5 - 0.5 * a], dtype=complex))
    return np.diag(diag)


def coherence_order(r: int, c: int) -> int:
    """Coherence order of the matrix element |r><c|.

    Difference of total magnetic quantum numbers under the bit-0 <-> m=+1/2
    convention, i.e. ``popcount(c) - popcount(r)``.
    """
    return int(c).bit_count() - int(r).bit_count()


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
    return DiagonalUnitary((1 - 2 * f.marks).astype(complex))


def block_phase_shift(n: int, width: int, theta: float) -> DiagonalUnitary:
    """Nonselective shift phasing every index whose first ``width`` bits are
    zero, i.e. the projector onto the all-up subcube of the leading spins."""
    if not 1 <= width <= n:
        raise ValueError(f"block width {width} outside 1..{n}")
    N = 1 << n
    p = np.ones(N, dtype=complex)
    p[: 1 << (n - width)] = np.exp(-1j * theta)
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
    # exponents of the set bits of m, descending
    set_bits = [k for k in range(spec.m.bit_length() - 1, -1, -1) if spec.m >> k & 1]
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


# Evaluating the full product-operator expansion of the oracle-evolved state
# assembles O(G^2 * n) terms; keep it off the large-register path.
EXPANSION_QUBIT_CAP = 8

def selective_conjugation_expansion(state: DeviationState, s: int, theta: float) -> DeviationState:
    """Closed-form conjugation by a single selective phase shift: identity
    minus anticommutator, plus commutator and sandwich terms.  Equals direct
    conjugation exactly."""
    N = state.dim
    if not 0 <= s < N:
        raise IndexError(f"basis index {s} outside 0..{N - 1}")
    d = np.zeros(N)
    d[s] = 1.0
    return _phase_projector_expansion(state, d, theta)


def oracle_conjugation_expansion(state: DeviationState, f: PhaseFunction, theta: float) -> DeviationState:
    """Closed-form conjugation by the phase oracle, with the marked-index
    indicator playing the projector weight and the sandwich term carrying the
    double sum over marked index pairs."""
    if f.dim != state.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {state.dim}")
    return _phase_projector_expansion(state, f.exponents().astype(float), theta)


def _phase_projector_expansion(state: DeviationState, d: np.ndarray, theta: float) -> DeviationState:
    one_minus_cos = 1.0 - np.cos(theta)
    sin = np.sin(theta)
    sandwich = one_minus_cos**2 + sin**2
    dr, dc = d[:, None], d[None, :]
    factor = 1.0 - one_minus_cos * (dr + dc) + 1j * sin * (dc - dr) + sandwich * dr * dc
    return DeviationState(factor * state.rho)


def oracle_evolution_expansion(system: SpinSystem, f: PhaseFunction, theta: float) -> DeviationState:
    """Product-operator expansion of the oracle-evolved transverse state.

    Sums four groups of terms: the untouched initial state, the
    anticommutator terms (one per marked index and spin, keeping the y
    component), the sine terms (same support, rotated to x with the bit
    sign), and the quadratic double sum over ordered marked pairs.  The
    projector contexts collapse each term onto a single bit-flip index pair:
    a quadratic term survives only when the two marked indices differ at
    exactly one bit, and the linear terms address the pair obtained by
    toggling the term's spin.  Matches direct conjugation exactly.
    """
    if system.n > EXPANSION_QUBIT_CAP:
        raise ValueError(
            f"expansion is capped at {EXPANSION_QUBIT_CAP} spins (term count grows "
            f"as G^2 * n), got n={system.n}"
        )
    if f.n != system.n:
        raise ValueError(f"dimension mismatch: {f.dim} vs {system.dim}")
    n, N = system.n, system.dim
    eps = system.epsilon
    one_minus_cos = 1.0 - np.cos(theta)
    sin = np.sin(theta)
    quad = one_minus_cos**2 + sin**2

    rho = initial_state(system).rho.copy()
    marked = np.flatnonzero(f.marks)
    table = bit_sign_table(n)

    for s in marked:
        for k in range(1, n + 1):
            bitmask = 1 << (n - k)
            r, c = int(s) & ~bitmask, int(s) | bitmask
            e = eps[k - 1]
            # anticommutator term: coefficient -(1 - cos) on the y component
            rho[r, c] += -one_minus_cos * e * (-0.5j)
            rho[c, r] += -one_minus_cos * e * (+0.5j)
            # sine term: coefficient -sin * a_k^s on the x component
            a = table[k - 1, s]
            rho[r, c] += -sin * e * a * 0.5
            rho[c, r] += -sin * e * a * 0.5
    for i, s in enumerate(marked):
        for t in marked[i + 1 :]:
            diff = int(s) ^ int(t)
            if diff & (diff - 1):
                # contexts differ on more than one spin: every tensor factor
                # chain contains a vanishing projector product
                continue
            k = n - diff.bit_length() + 1
            e = eps[k - 1]
            r, c = int(min(s, t)), int(max(s, t))
            rho[r, c] += quad * e * (-0.5j)
            rho[c, r] += quad * e * (+0.5j)
    return DeviationState(rho)


def projected_call_counts(n: int) -> dict:
    """Worst-case oracle budget (criterion 7): n sequence runs, each
    consuming one 90-degree oracle application, i.e. two sign-oracle calls.
    Uncapped: no state is built."""
    n = integer_spin_count(n)
    if n < 1:
        raise ValueError("spin count must be >= 1")
    return {"uo": n, "uf": 2 * n}
