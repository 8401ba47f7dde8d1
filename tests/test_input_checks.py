"""Inputs that used to pass validation and give silently wrong results or
numpy's own errors: numpy integer sizes, bool sizes and indices, NaN
entries in the structural checks, and states whose dimension is not a power
of two."""

import dataclasses
import json

import numpy as np
import pytest

from spinparity import (
    DeviationState,
    DiagonalUnitary,
    PhaseFunction,
    ShiftSpec,
    SpinSystem,
    bit_sign_table,
    brute_parity,
    brute_shifted_signal,
    read_signal,
    reference_report,
    shift_unitary_direct,
    solve_parity,
)
from spinparity.ensemble import apply_pulse
from spinparity.protocol import pair_sequence

from helpers import random_deviation_state
from verification import shift_unitary_compiled


class TestSpinCountBeforeAllocation:
    # n = 40 used to ask numpy for 1-8 TiB, n = 64 overflowed numpy's
    # dimension limit and n = -1 failed in a negative shift
    FACTORIES = {
        "constant": lambda n: PhaseFunction.constant(n, -1),
        "single": lambda n: PhaseFunction.single(n, 3),
        "from_marks": lambda n: PhaseFunction.from_marks(n, [3]),
        "random": lambda n: PhaseFunction.random(n, 0.5, 1),
    }

    @pytest.mark.parametrize("factory", sorted(FACTORIES))
    @pytest.mark.parametrize("n", [40, 64, -1, 0])
    def test_factories_reject_before_allocating(self, factory, n):
        with pytest.raises(ValueError, match=rf"^spin count {n} outside 1\.\.12$"):
            self.FACTORIES[factory](n)

    # the constructors, the factories and bit_sign_table read the one
    # rule, spinops.check_spin_count
    SIZED = {
        "SpinSystem": SpinSystem,
        "PhaseFunction": lambda n: PhaseFunction(n, []),
        "bit_sign_table": bit_sign_table,
        **FACTORIES,
    }

    @pytest.mark.parametrize("entry", ["SpinSystem", "PhaseFunction", "bit_sign_table"])
    @pytest.mark.parametrize("n", [13, 40, -1, 0])
    def test_constructors_give_the_one_message(self, entry, n):
        with pytest.raises(ValueError, match=rf"^spin count {n} outside 1\.\.12$"):
            self.SIZED[entry](n)

    @pytest.mark.parametrize("entry", sorted(SIZED))
    @pytest.mark.parametrize("n", [True, False, np.True_, 3.0, "3", None])
    def test_non_integer_counts_rejected(self, entry, n):
        # a bool is not a spin count, though True == 1
        with pytest.raises(ValueError, match=r"^spin count must be an integer, got "):
            self.SIZED[entry](n)


class TestMarkedIndex:
    # single(3, True) used to mark all 8 indices (numpy read the bool as a
    # mask), so the parity read +1 where index 1 alone gives -1, and
    # from_marks(3, [False]) marked nothing
    @pytest.mark.parametrize("x", [True, False, np.True_, 1.5, 1.0, "1", None, -1, 8])
    def test_single_and_from_marks_reject(self, x):
        with pytest.raises(IndexError, match=r"^marked index .* is not an integer in 0\.\.7$"):
            PhaseFunction.single(3, x)
        with pytest.raises(IndexError, match=r"^marked index .* is not an integer in 0\.\.7$"):
            PhaseFunction.from_marks(3, [2, x])

    def test_numpy_integer_index_accepted(self):
        f = PhaseFunction.single(3, np.int64(1))
        assert f == PhaseFunction.from_marks(3, [1]) == PhaseFunction.from_marks(3, np.array([1]))
        assert brute_parity(f) == -1

    @pytest.mark.parametrize("m", [True, False, np.True_, 1.0, 0, -2])
    def test_shift_size_rejects_bools_and_non_positive(self, m):
        with pytest.raises(ValueError, match="shift size must be a positive integer"):
            ShiftSpec(m, 1)


class TestSign:
    # a bool is no sign, though True == 1
    @pytest.mark.parametrize("sign", [True, False, np.True_, 0, 2, "1", None])
    def test_shift_and_constant_reject(self, sign):
        with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
            ShiftSpec(1, sign)
        with pytest.raises(ValueError, match=r"^constant value must be \+1 or -1$"):
            PhaseFunction.constant(3, sign)

    @pytest.mark.parametrize("sign", [1, -1, np.int64(1), np.int64(-1)])
    def test_integer_signs_accepted(self, sign):
        assert ShiftSpec(1, sign).sign == sign
        assert PhaseFunction.constant(3, sign).marks.all() == (sign == -1)


class TestNumpyIntegerSizes:
    def test_sizes_stored_as_python_ints(self):
        assert type(SpinSystem(np.int64(6)).n) is int
        assert type(ShiftSpec(np.int64(3), -1).m) is int

    def test_phase_function_size_stored_as_python_int(self):
        f = PhaseFunction(np.int64(7), np.random.default_rng(7).random(128) < 0.5)
        assert type(f.n) is int
        report = reference_report(f, ShiftSpec(np.int64(5), -1))
        json.dumps(dataclasses.asdict(report))
        with pytest.raises(ValueError, match="spin count"):
            PhaseFunction(3.0, np.zeros(8, dtype=bool))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_solve_parity_matches_brute_force(self, n):
        system = SpinSystem(np.int64(n))
        for seed in range(5):
            f = PhaseFunction.random(n, 0.5, seed=100 * n + seed)
            assert solve_parity(system, f).parity == brute_parity(f), f"n={n} seed={seed}"

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pair_engine_matches_integer_reference(self, n):
        rng = np.random.default_rng(700 + n)
        system = SpinSystem(n)
        for _ in range(4):
            f = PhaseFunction.random(n, 0.5, seed=int(rng.integers(1 << 30)))
            m, sign = int(rng.integers(1, (1 << (n - 1)) + 1)), int(rng.choice((1, -1)))
            got = pair_sequence(system, f, ShiftSpec(np.int64(m), sign)).amplitudes
            assert got == brute_shifted_signal(f, ShiftSpec(m, sign)), f"n={n} m={m} sign={sign}"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_compiled_shift_matches_direct(self, n):
        for m in range(1, (1 << (n - 1)) + 1):
            for sign in (1, -1):
                compiled = shift_unitary_compiled(ShiftSpec(np.int64(m), sign), n).unitary
                direct = shift_unitary_direct(ShiftSpec(m, sign), n)
                np.testing.assert_array_equal(compiled.phases, direct.phases)


class TestNaNRejected:
    @pytest.mark.parametrize("phases", [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]])
    def test_diagonal_unitary(self, phases):
        with pytest.raises(ValueError, match="unit modulus"):
            DiagonalUnitary(phases)

    def test_deviation_state_all_nan(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DeviationState(np.full((4, 4), np.nan))

    def test_deviation_state_one_nan_population(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            DeviationState(rho)

    def test_read_signal_nan_off_diagonal(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 2] = rho[2, 1] = np.nan
        with pytest.raises(ValueError, match="purged"):
            read_signal(DeviationState(rho, validate=False), SpinSystem(2))


class TestStateDimension:
    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("dim", [0, 1, 3, 5, 6, 12])
    def test_rejects_dimension_not_a_power_of_two(self, dim, validate):
        # a zero matrix passes the structural checks, so only the size can fail
        with pytest.raises(ValueError, match=r"2\*\*n with n >= 1, got " + str(dim)):
            DeviationState(np.zeros((dim, dim)), validate=validate)

    def test_array_is_writable_and_c_contiguous(self):
        # the dense stages work in place on it, through reshapes and float views
        rng = np.random.default_rng(81)
        h = random_deviation_state(4, rng).rho
        frozen = h.copy()
        frozen.setflags(write=False)
        for given in (np.asfortranarray(h), frozen):
            state = DeviationState(given)
            assert state.rho.flags.c_contiguous and state.rho.flags.writeable
            assert np.array_equal(state.rho, h)
            out = apply_pulse(state, 0.9).rho
            want = apply_pulse(DeviationState(h.copy()), 0.9).rho
            assert np.array_equal(out, want)
