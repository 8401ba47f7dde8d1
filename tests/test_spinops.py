import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinparity import (
    DeviationState,
    DiagonalUnitary,
    SpinSystem,
    bit_sign_table,
    conjugate,
)
from spinparity.ensemble import STRUCT_TOL

from helpers import copy_state, random_complex_state, random_deviation_state, same_bytes, split_and_serial
from verification import (
    apply_diagonal,
    basis_projector,
    basis_projector_product,
    coherence_order,
    spin_operator,
)


class TestSpinSystem:
    def test_defaults(self):
        s = SpinSystem(3)
        assert s.dim == 8
        assert s.epsilon == (1.0, 1.0, 1.0)

    def test_epsilon_length_checked(self):
        with pytest.raises(ValueError):
            SpinSystem(2, epsilon=(1.0,))

    def test_epsilon_positive(self):
        for bad in (-0.5, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SpinSystem(2, epsilon=(1.0, bad))

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            SpinSystem(13)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            SpinSystem(0)


class TestSpinOperator:
    def test_single_spin_z(self):
        m = spin_operator(1, 1, "z")
        assert np.allclose(m, np.diag([0.5, -0.5]))

    def test_tensor_placement_second_spin(self):
        m = spin_operator(2, 2, "z")
        assert np.allclose(m, np.diag([0.5, -0.5, 0.5, -0.5]))

    def test_first_spin_x_explicit_entries(self):
        # hand-expanded 4x4 Kronecker product: sigma_x/2 on the leading slot
        m = spin_operator(2, 1, "x")
        expected = np.zeros((4, 4), dtype=complex)
        for r, c in [(0, 2), (2, 0), (1, 3), (3, 1)]:
            expected[r, c] = 0.5
        assert np.abs(m - expected).max() < STRUCT_TOL

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_hermitian_with_half_eigenvalues(self, axis):
        for n in (1, 2, 3):
            for k in range(1, n + 1):
                m = spin_operator(n, k, axis)
                assert np.abs(m - m.conj().T).max() <= STRUCT_TOL
                eig = np.sort(np.linalg.eigvalsh(m))
                assert np.allclose(np.abs(eig), 0.5)

    def test_out_of_range_spin(self):
        with pytest.raises(IndexError):
            spin_operator(2, 3, "z")
        with pytest.raises(IndexError):
            spin_operator(2, 0, "z")

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            spin_operator(2, 1, "q")

    def test_longitudinal_trace_identity(self):
        # Tr(I_kz I_jz) = delta_kj * 2^(n-2)
        for n in range(2, 9):
            ops = [spin_operator(n, k, "z") for k in range(1, n + 1)]
            for k in range(n):
                for j in range(n):
                    tr = np.trace(ops[k] @ ops[j]).real
                    want = 2.0 ** (n - 2) if k == j else 0.0
                    assert abs(tr - want) < 1e-9


class TestBitSignTable:
    def test_single_spin_row(self):
        t = bit_sign_table(1)
        assert t.shape == (1, 2)
        assert list(t[0]) == [1, -1]

    def test_n2_index2(self):
        # s = 2 is binary 10: leading bit set, trailing bit clear
        t = bit_sign_table(2)
        assert t[0, 2] == -1
        assert t[1, 2] == +1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_balanced(self, n):
        t = bit_sign_table(n)
        assert t.shape == (n, 1 << n)
        assert np.all(t.sum(axis=1) == 0)
        assert np.all(np.abs(t) == 1)

    def test_cached_and_read_only(self):
        t = bit_sign_table(3)
        assert bit_sign_table(3) is t
        with pytest.raises(ValueError, match="read-only"):
            t[0, 0] = -1
        assert t[0, 0] == +1


class TestBasisProjector:
    def test_direct_n1(self):
        assert np.allclose(basis_projector(1, 0), np.diag([1.0, 0.0]))

    def test_direct_n2(self):
        assert np.allclose(basis_projector(2, 3), np.diag([0, 0, 0, 1.0]))

    def test_product_form_n2_s1(self):
        # (E/2 + I_1z) (x) (E/2 - I_2z) expands to diag(0, 1, 0, 0)
        assert np.allclose(basis_projector_product(2, 1), np.diag([0, 1.0, 0, 0]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_forms_agree(self, n):
        for s in range(1 << n):
            a = basis_projector(n, s)
            b = basis_projector_product(n, s)
            assert np.abs(a - b).max() < STRUCT_TOL

    def test_idempotent_unit_trace(self):
        for n in (1, 2, 3, 4):
            for s in range(1 << n):
                p = basis_projector(n, s)
                assert np.abs(p @ p - p).max() < STRUCT_TOL
                assert abs(p.trace() - 1.0) < STRUCT_TOL

    @pytest.mark.parametrize("n", range(1, 7))
    def test_completeness(self, n):
        total = sum(basis_projector(n, s) for s in range(1 << n))
        assert np.abs(total - np.eye(1 << n)).max() < STRUCT_TOL

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            basis_projector(2, 4)
        with pytest.raises(IndexError):
            basis_projector_product(2, -1)


class TestCoherenceOrder:
    def test_diagonal_is_zero_quantum(self):
        for r in range(8):
            assert coherence_order(r, r) == 0

    def test_double_quantum(self):
        assert coherence_order(0, 3) == 2

    def test_zero_quantum_off_diagonal(self):
        assert coherence_order(1, 2) == 0

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_antisymmetric(self, r, c):
        assert coherence_order(r, c) == -coherence_order(c, r)


class TestConjugate:
    def test_identity_phases(self):
        rng = np.random.default_rng(11)
        state = random_deviation_state(2, rng)
        u = DiagonalUnitary(np.ones(4))
        assert np.abs(conjugate(u, copy_state(state)).rho - state.rho).max() == 0.0

    def test_diagonal_state_invariant(self):
        d = np.diag([1.0, -0.25, -0.5, -0.25])
        state = DeviationState(d)
        u = DiagonalUnitary(np.exp(-1j * np.linspace(0.1, 2.0, 4)))
        assert np.abs(conjugate(u, state).rho - d).max() < STRUCT_TOL

    def test_elementwise_phase_rule(self):
        # a pi shift on index 0 negates the single-spin x component
        ix = DeviationState(spin_operator(1, 1, "x"))
        u = DiagonalUnitary(np.array([np.exp(-1j * np.pi), 1.0]))
        out = conjugate(u, copy_state(ix))
        assert np.abs(out.rho + ix.rho).max() < STRUCT_TOL
        assert out.rho[0, 1] == pytest.approx(np.exp(-1j * np.pi) * ix.rho[0, 1])

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            state = random_deviation_state(n, rng)
            u = DiagonalUnitary(np.exp(-1j * rng.uniform(0, 2 * np.pi, 1 << n)))
            out = conjugate(u, state)
            assert abs(out.rho.trace()) < STRUCT_TOL
            assert np.abs(out.rho - out.rho.conj().T).max() < STRUCT_TOL

    def test_roundtrip_is_identity(self):
        rng = np.random.default_rng(13)
        state = random_deviation_state(3, rng)
        u = DiagonalUnitary(np.exp(-1j * rng.uniform(0, 2 * np.pi, 8)))
        there = conjugate(u, copy_state(state))
        assert np.abs(there.rho - state.rho).max() > 0.1
        back = conjugate(DiagonalUnitary(u.phases.conj()), copy_state(there))
        assert np.abs(back.rho - state.rho).max() < STRUCT_TOL

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(14)
        state = random_deviation_state(2, rng)
        with pytest.raises(ValueError):
            conjugate(DiagonalUnitary(np.ones(8)), state)

    def test_length_one_unitary_rejected(self):
        # a single phase would broadcast over any state without an error
        rng = np.random.default_rng(16)
        state = random_deviation_state(2, rng)
        before = state.rho.copy()
        with pytest.raises(ValueError, match="dimension mismatch"):
            conjugate(DiagonalUnitary(np.array([1j])), state)
        assert np.array_equal(state.rho, before)

    @pytest.mark.parametrize("n", [10, 11])
    def test_split_is_byte_identical(self, monkeypatch, n):
        # from n = 10 up the row bands are dealt out to worker threads
        rng = np.random.default_rng(17 + n)
        state = random_complex_state(n, rng)
        u = DiagonalUnitary(np.exp(-1j * rng.uniform(0, 2 * np.pi, 1 << n)))
        split, serial = split_and_serial(monkeypatch, lambda: conjugate(u, copy_state(state)).rho)
        assert same_bytes(split, serial)
        assert not same_bytes(serial, state.rho)

    def test_rejects_unknown_operand(self):
        rng = np.random.default_rng(15)
        with pytest.raises(TypeError):
            conjugate(np.eye(4), random_deviation_state(2, rng))


@st.composite
def _diagonal_ops(draw):
    """A register size and a list of (N-bit bitset, sign) quarter-turn ops."""
    N = 1 << draw(st.integers(1, 8))
    bitsets = st.integers(0, (1 << N) - 1)
    ops = draw(st.lists(st.tuples(bitsets, st.sampled_from((1, -1))), max_size=12))
    return N, ops


class TestApplyDiagonal:
    @given(_diagonal_ops())
    def test_matches_integer_sums_mod_4(self, case):
        N, ops = case
        q, want = (0, 0), np.zeros(N, dtype=np.int64)
        for e, sign in ops:
            q = apply_diagonal(q, e, sign)
            # Python shifts: a numpy shift of e would overflow for N > 63
            want += sign * np.array([(e >> x) & 1 for x in range(N)], dtype=np.int64)
        q0, q1 = q
        got = [((q0 >> x) & 1) + 2 * ((q1 >> x) & 1) for x in range(N)]
        assert got == (want % 4).tolist()
        assert q0 >> N == 0 and q1 >> N == 0

    def test_rejects_sign_other_than_one(self):
        for sign in (0, 2, -2):
            with pytest.raises(ValueError):
                apply_diagonal((0, 0), 0b1011, sign)


class TestTypeValidation:
    def test_diagonal_unitary_requires_unit_modulus(self):
        with pytest.raises(ValueError):
            DiagonalUnitary(np.array([1.0, 0.5]))

    def test_deviation_state_requires_hermitian(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            DeviationState(m)

    def test_deviation_state_requires_traceless(self):
        with pytest.raises(ValueError):
            DeviationState(np.eye(2))

    # each guard sits at STRUCT_TOL = 1e-12: a deviation of 1e-10 is
    # rejected and one of 1e-14 (round-off) accepted, so loosening or
    # tightening a guard by two orders of magnitude fails here
    def test_unit_modulus_guard_at_its_tolerance(self):
        with pytest.raises(ValueError, match="unit modulus"):
            DiagonalUnitary(np.array([1.0 + 1e-10, 1.0]))
        DiagonalUnitary(np.array([1.0 + 1e-14, 1.0]))

    def test_hermitian_guard_at_its_tolerance(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DeviationState(np.array([[0.0, 1e-10], [0.0, 0.0]]))
        DeviationState(np.array([[0.0, 1e-14], [0.0, 0.0]]))

    def test_trace_guard_at_its_tolerance(self):
        with pytest.raises(ValueError, match="traceless"):
            DeviationState(np.diag([1e-10, 0.0]))
        DeviationState(np.diag([1e-14, 0.0]))
