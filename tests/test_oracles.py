import copy
import pickle

import numpy as np
import pytest

from spinparity import (
    DeviationState,
    PhaseFunction,
    ShiftSpec,
    SpinSystem,
    bit_sign_table,
    brute_parity,
    conjugate,
    phase_oracle,
    shift_unitary_direct,
    solve_parity,
)
from spinparity.ensemble import STRUCT_TOL
from spinparity.reference import brute_shift_index_set

from helpers import copy_state
from verification import (
    block_phase_shift,
    selective_phase_shift,
    shift_unitary_compiled,
    sign_oracle,
)


class TestPhaseFunction:
    def test_sign_and_exponent_relation(self):
        f = PhaseFunction.from_marks(3, [1, 4, 7])
        vals = 1 - 2 * f.marks
        assert list(np.flatnonzero(vals == -1)) == [1, 4, 7]
        assert np.allclose(np.exp(-1j * np.pi * f.marks.astype(np.int64)), vals)

    def test_constant_factories(self):
        assert not PhaseFunction.constant(2, +1).marks.any()
        assert PhaseFunction.constant(3, -1).marks.all()

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
        tables = [1 - 2 * PhaseFunction.single(3, 5).marks]
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
        with pytest.raises(ValueError):
            f.marks[5] = True
        with pytest.raises(ValueError):
            f.marks.setflags(write=True)
        assert not f.marks.any()
        assert f.mark_bits == 0

    def test_copies_and_pickles_stay_read_only(self):
        f = PhaseFunction.from_marks(4, [2, 11])
        bits = f.mark_bits
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g.n == 4 and np.array_equal(g.marks, f.marks)
            with pytest.raises(ValueError):
                g.marks.setflags(write=True)
            assert g.mark_bits == bits

    def test_equality_and_hash_follow_size_and_marks(self):
        f = PhaseFunction.from_marks(4, [2, 11])
        same = [
            PhaseFunction(4, f.marks.copy()),
            PhaseFunction(4, f.marks.astype(np.int64)),
            PhaseFunction.from_marks(4, [11, 2, 2]),
            copy.copy(f),
            copy.deepcopy(f),
            pickle.loads(pickle.dumps(f)),
        ]
        for g in same:
            assert g == f and not g != f and hash(g) == hash(f)
        assert len({f, *same}) == 1
        assert {f: "f"}[same[-1]] == "f"
        different = [
            PhaseFunction.from_marks(4, [2]),
            PhaseFunction.from_marks(4, [2, 12]),
            PhaseFunction.from_marks(5, [2, 11]),  # same mark_bits, other n
            PhaseFunction.constant(4, -1),
        ]
        for g in different:
            assert g != f and not g == f
        assert len({f, *different}) == 5
        assert f != (4, f.mark_bits) and f != f.mark_bits


class TestMarkBits:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_the_marked_set(self, n):
        N = 1 << n
        rng = np.random.default_rng(900 + n)
        tables = [
            PhaseFunction.constant(n, +1),
            PhaseFunction.constant(n, -1),
            PhaseFunction.single(n, 0),
            PhaseFunction.single(n, N - 1),
            PhaseFunction.single(n, int(rng.integers(N))),
            PhaseFunction.from_marks(n, []),
            PhaseFunction.from_marks(n, range(N)),
            PhaseFunction.random(n, 0.5, seed=n),
            PhaseFunction.random(n, 0.1, seed=100 + n),
            PhaseFunction(n, rng.random(N) < 0.9),
        ]
        for f in tables:
            bits = f.mark_bits
            assert type(bits) is int
            assert bits == sum(1 << x for x in range(N) if f.marks[x]), np.flatnonzero(f.marks)

    def test_packed_once_per_function(self, monkeypatch):
        calls = []
        packbits = np.packbits

        def counting_packbits(*args, **kwargs):
            calls.append(args)
            return packbits(*args, **kwargs)

        monkeypatch.setattr(np, "packbits", counting_packbits)
        f = PhaseFunction.from_marks(10, [3, 700, 1023])
        trace = solve_parity(SpinSystem(10), f)
        assert trace.uo_calls > 1 and trace.parity == -1
        assert f.mark_bits == (1 << 3) | (1 << 700) | (1 << 1023)
        assert len(calls) == 1
        assert PhaseFunction(10, f.marks).mark_bits == f.mark_bits  # a new function packs its own
        assert len(calls) == 2


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
        assert np.allclose(u.phases * u.phases, np.ones(16))

    def test_equals_product_of_selective_shifts(self):
        rng = np.random.default_rng(21)
        for n in range(1, 7):
            f = PhaseFunction(n, rng.random(1 << n) < 0.5)
            product = np.ones(1 << n, dtype=complex)
            for x in range(1 << n):
                product *= selective_phase_shift(n, x, np.pi * f.marks.astype(np.int64)[x]).phases
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

    @pytest.mark.parametrize("theta", [np.pi / 2, np.pi])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_reads_the_marks_as_integer_exponents(self, n, theta):
        # the oracle reads bool marks; its phases are those of the 0/1 exponents
        f = PhaseFunction.random(n, 0.5, seed=n)
        want = np.exp(-1j * theta * f.marks.astype(np.int64))
        assert phase_oracle(f, theta).phases.tobytes() == want.tobytes()

    def test_angle_additivity(self):
        f = PhaseFunction.random(3, 0.5, 9)
        a, b = 0.71, 1.93
        combined = phase_oracle(f, a).phases * phase_oracle(f, b).phases
        assert np.abs(combined - phase_oracle(f, a + b).phases).max() < STRUCT_TOL


class TestMarkCount:
    def test_examples(self):
        # the marked set and its packed bits count the same marks, whose
        # parity is the parity of f
        examples = [
            (PhaseFunction.constant(3, +1), 0),
            (PhaseFunction.constant(3, -1), 8),
            (PhaseFunction.from_marks(2, [1, 2]), 2),
        ]
        for f, count in examples:
            assert int(f.marks.sum()) == f.mark_bits.bit_count() == count
            assert brute_parity(f) == (-1) ** count


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
        # the compiled shift has one block of width n - k per set bit 2**k of m
        n = 6
        for m in range(1, 33):
            factors = shift_unitary_compiled(ShiftSpec(m, +1), n).factors
            widths = [fac.arg for fac in factors if fac.kind == "block"]
            assert len(set(widths)) == len(widths)
            assert sum(1 << (n - w) for w in widths) == m


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
