import numpy as np
import pytest

from spinparity import (
    DeviationState,
    PhaseFunction,
    ShiftSpec,
    basis_projector,
    bit_sign_table,
    block_phase_shift,
    conjugate,
    mark_count,
    phase_oracle,
    selective_phase_shift,
    shift_unitary_compiled,
    shift_unitary_direct,
    sign_oracle,
)
from spinparity.reference import brute_shift_index_set
from spinparity.spinops import STRUCT_TOL

from helpers import copy_state


class TestPhaseFunction:
    def test_sign_and_exponent_relation(self):
        f = PhaseFunction.from_marks(3, [1, 4, 7])
        vals = f.values()
        assert np.array_equal(vals, np.where(f.marks, -1, 1))
        assert np.allclose(np.exp(-1j * np.pi * f.exponents()), vals)

    def test_constant_factories(self):
        assert mark_count(PhaseFunction.constant(2, +1)) == 0
        assert mark_count(PhaseFunction.constant(3, -1)) == 8

    def test_single_factory(self):
        f = PhaseFunction.single(2, 3)
        assert list(np.flatnonzero(f.marks)) == [3]
        with pytest.raises(IndexError):
            PhaseFunction.single(2, 4)

    def test_random_is_seed_deterministic(self):
        a = PhaseFunction.random(5, 0.4, 123)
        b = PhaseFunction.random(5, 0.4, 123)
        c = PhaseFunction.random(5, 0.4, 124)
        assert np.array_equal(a.marks, b.marks)
        assert not np.array_equal(a.marks, c.marks)

    def test_bad_density(self):
        with pytest.raises(ValueError):
            PhaseFunction.random(3, 1.5, 0)

    def test_wrong_table_length(self):
        with pytest.raises(ValueError):
            PhaseFunction(2, [True, False])

    def test_entries_other_than_bools_or_0_1_rejected(self):
        # read as 8 marks, the +/-1 value table would make both solvers
        # answer +1 for this function of parity -1
        tables = [PhaseFunction.single(3, 5).values()]
        tables += [[bad] + [0] * 7 for bad in (2, -1, 0.3, float("nan"))]
        for table in tables:
            with pytest.raises(ValueError, match="bools or 0/1"):
                PhaseFunction(3, table)

    def test_integer_marks_equal_bool_marks(self):
        ints = [0, 1, 1, 0, 0, 0, 1, 0]
        f = PhaseFunction(3, np.array(ints))
        assert f.marks.dtype == bool
        assert np.array_equal(f.marks, PhaseFunction(3, [x == 1 for x in ints]).marks)

    def test_marks_are_a_read_only_copy(self):
        arr = np.zeros(8, dtype=bool)
        f = PhaseFunction(3, arr)
        arr[5] = True
        assert not f.marks.any()
        assert mark_count(f) == 0
        with pytest.raises(ValueError):
            f.marks[5] = True
        assert not f.marks.any()


class TestSelectivePhaseShift:
    def test_zero_angle_is_identity(self):
        assert np.allclose(selective_phase_shift(2, 1, 0.0).phases, np.ones(4))

    def test_pi_shift_single_spin(self):
        assert np.allclose(selective_phase_shift(1, 1, np.pi).phases, [1.0, -1.0])

    def test_leaves_basis_populations_unchanged(self):
        # conjugating any diagonal (population) state is a no-op
        state = DeviationState(np.diag([0.5, -0.5, 0.25, -0.25]))
        u = selective_phase_shift(2, 2, 0.7)
        assert np.abs(conjugate(u, copy_state(state)).rho - state.rho).max() < STRUCT_TOL

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            selective_phase_shift(2, 4, 1.0)


class TestSignOracle:
    def test_trivial_function_gives_identity(self):
        assert np.allclose(sign_oracle(PhaseFunction.constant(2, +1)).phases, np.ones(4))

    def test_single_marked_index(self):
        f = PhaseFunction.from_marks(2, [2])
        assert np.allclose(sign_oracle(f).phases, [1, 1, -1, 1])

    def test_squares_to_identity(self):
        f = PhaseFunction.random(4, 0.5, 7)
        u = sign_oracle(f)
        assert np.allclose(u.compose(u).phases, np.ones(16))

    def test_equals_product_of_selective_shifts(self):
        rng = np.random.default_rng(21)
        for n in range(1, 7):
            f = PhaseFunction(n, rng.random(1 << n) < 0.5)
            product = np.ones(1 << n, dtype=complex)
            for x in range(1 << n):
                product *= selective_phase_shift(n, x, np.pi * f.exponents()[x]).phases
            assert np.abs(sign_oracle(f).phases - product).max() < STRUCT_TOL


class TestPhaseOracle:
    def test_pi_angle_reduces_to_sign_oracle(self):
        f = PhaseFunction.random(3, 0.6, 3)
        assert np.abs(phase_oracle(f, np.pi).phases - sign_oracle(f).phases).max() < STRUCT_TOL

    def test_quarter_turn_phases(self):
        f = PhaseFunction.from_marks(2, [1, 3])
        assert np.allclose(phase_oracle(f, np.pi / 2).phases, [1, -1j, 1, -1j])

    def test_trivial_function_any_angle(self):
        f = PhaseFunction.constant(3, +1)
        assert np.allclose(phase_oracle(f, 1.234).phases, np.ones(8))

    def test_angle_additivity(self):
        f = PhaseFunction.random(3, 0.5, 9)
        a, b = 0.71, 1.93
        combined = phase_oracle(f, a).compose(phase_oracle(f, b))
        assert np.abs(combined.phases - phase_oracle(f, a + b).phases).max() < STRUCT_TOL


class TestMarkCount:
    def test_examples(self):
        assert mark_count(PhaseFunction.constant(3, +1)) == 0
        assert mark_count(PhaseFunction.constant(3, -1)) == 8
        f = PhaseFunction.from_marks(2, [1, 2])
        assert mark_count(f) == 2
        assert (-1) ** mark_count(f) == +1


class TestShiftIndexSet:
    def test_half_block_is_leading_bit_zero(self):
        n = 4
        block = ShiftSpec(8, +1).block(n)
        assert block == slice(0, 8)
        assert np.all(bit_sign_table(n)[0, block] == +1)

    def test_unit_block_is_index_zero(self):
        assert ShiftSpec(1, +1).block(3) == slice(0, 1)

    def test_negative_branch_mirrors(self):
        block = ShiftSpec(3, -1).block(3)
        assert block == slice(4, 7)
        assert np.all(bit_sign_table(3)[0, block] == -1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_spin1_sum_is_signed_size(self, n):
        t = bit_sign_table(n)
        for m in range(1, (1 << (n - 1)) + 1):
            for sign in (+1, -1):
                assert t[0, ShiftSpec(m, sign).block(n)].sum() == sign * m

    def test_size_out_of_range(self):
        with pytest.raises(ValueError):
            ShiftSpec(5, +1).block(3)
        with pytest.raises(ValueError):
            ShiftSpec(0, +1)

    def test_bits_reconstruct_size(self):
        for m in range(1, 33):
            assert sum(1 << k for k in ShiftSpec(m, +1).bits) == m


class TestShiftUnitary:
    def test_unit_shift_phases(self):
        assert np.allclose(shift_unitary_direct(ShiftSpec(1, +1), 2).phases, [1j, 1, 1, 1])

    def test_half_shift_phases(self):
        assert np.allclose(shift_unitary_direct(ShiftSpec(2, +1), 2).phases, [1j, 1j, 1, 1])

    def test_equals_product_of_selective_shifts(self):
        n = 4
        spec = ShiftSpec(5, +1)
        product = np.ones(1 << n, dtype=complex)
        for l in brute_shift_index_set(spec, n):
            product *= selective_phase_shift(n, l, -np.pi / 2).phases
        assert np.abs(shift_unitary_direct(spec, n).phases - product).max() < STRUCT_TOL

    def test_commutes_with_phase_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            f = PhaseFunction(n, rng.random(1 << n) < 0.5)
            spec = ShiftSpec(int(rng.integers(1, (1 << (n - 1)) + 1)), int(rng.choice([-1, 1])))
            um = shift_unitary_direct(spec, n)
            uo = phase_oracle(f, float(rng.uniform(0, 2 * np.pi)))
            assert np.abs(um.compose(uo).phases - uo.compose(um).phases).max() < STRUCT_TOL


class TestBlockPhaseShift:
    def test_full_width_is_selective_on_zero(self):
        n = 3
        assert np.allclose(
            block_phase_shift(n, n, 0.9).phases, selective_phase_shift(n, 0, 0.9).phases
        )

    def test_width_one_quarter_turn(self):
        assert np.allclose(block_phase_shift(2, 1, -np.pi / 2).phases, [1j, 1j, 1, 1])

    def test_zero_angle_is_identity(self):
        assert np.allclose(block_phase_shift(3, 2, 0.0).phases, np.ones(8))

    def test_bad_width(self):
        with pytest.raises(ValueError):
            block_phase_shift(3, 0, 1.0)
        with pytest.raises(ValueError):
            block_phase_shift(3, 4, 1.0)


class TestCompiledShift:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_direct_everywhere(self, n):
        for m in range(1, (1 << (n - 1)) + 1):
            for sign in (+1, -1):
                spec = ShiftSpec(m, sign)
                direct = shift_unitary_direct(spec, n)
                comp = shift_unitary_compiled(spec, n)
                assert np.abs(comp.unitary.phases - direct.phases).max() < STRUCT_TOL
                assert len(comp.factors) <= 3 * n + 1

    def test_power_of_two_is_single_block(self):
        for n in (3, 5):
            for k in range(n):
                comp = shift_unitary_compiled(ShiftSpec(1 << k, +1), n)
                assert len(comp.factors) == 1
                assert comp.factors[0].kind == "block"
                assert comp.factors[0].arg == n - k

    def test_three_term_size_uses_three_blocks(self):
        # m = 2^3 + 2^1 + 2^0 needs three blocks and two flip/unflip pairs
        comp = shift_unitary_compiled(ShiftSpec(11, +1), 5)
        kinds = [fac.kind for fac in comp.factors]
        assert kinds.count("block") == 3
        assert kinds.count("flip") == 2 and kinds.count("unflip") == 2


class TestDiagonalCommutation:
    def test_random_pairs_commute_exactly(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            f = PhaseFunction(n, rng.random(1 << n) < 0.5)
            builders = [
                sign_oracle(f),
                phase_oracle(f, float(rng.uniform(0, 2 * np.pi))),
                selective_phase_shift(n, int(rng.integers(0, 1 << n)), float(rng.uniform(0, np.pi))),
                block_phase_shift(n, int(rng.integers(1, n + 1)), float(rng.uniform(-np.pi, np.pi))),
            ]
            i, j = rng.integers(0, len(builders), size=2)
            u, v = builders[int(i)], builders[int(j)]
            assert np.abs(u.compose(v).phases - v.compose(u).phases).max() < STRUCT_TOL
