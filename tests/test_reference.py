import numpy as np
import pytest

from spinparity import (
    PhaseFunction,
    ReferenceReport,
    ShiftSpec,
    brute_parity,
    brute_shift_sums,
    brute_shifted_signal,
    brute_spin_sums,
    reference_report,
)
from spinparity.reference import brute_shift_index_set

from helpers import random_function


class TestBruteParity:
    def test_examples(self):
        assert brute_parity(PhaseFunction.constant(3, +1)) == +1
        assert brute_parity(PhaseFunction.single(3, 5)) == -1
        assert brute_parity(PhaseFunction.from_marks(2, [1, 2])) == +1

    def test_equals_mark_count_sign(self):
        rng = np.random.default_rng(201)
        for _ in range(100):
            f = random_function(int(rng.integers(1, 7)), rng)
            assert brute_parity(f) == (-1) ** int(f.marks.sum())


class TestBruteSpinSums:
    def test_trivial_functions_vanish(self):
        assert brute_spin_sums(PhaseFunction.constant(3, +1)) == (0, 0, 0)
        assert brute_spin_sums(PhaseFunction.constant(3, -1)) == (0, 0, 0)

    def test_two_marks_example(self):
        assert brute_spin_sums(PhaseFunction.from_marks(2, [0, 1])) == (2, 0)

    def test_bounded_by_half_dimension(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            sums = brute_spin_sums(random_function(n, rng))
            assert all(abs(p) <= 1 << (n - 1) for p in sums)

    def test_shares_mark_count_parity(self):
        rng = np.random.default_rng(203)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            f = random_function(n, rng)
            g = int(f.marks.sum())
            assert all((p - g) % 2 == 0 for p in brute_spin_sums(f))


class TestBruteShiftSums:
    def test_unit_shift(self):
        assert brute_shift_sums(ShiftSpec(1, +1), 3) == (1, 1, 1)

    def test_half_shift(self):
        n = 4
        sums = brute_shift_sums(ShiftSpec(8, +1), n)
        assert sums == (8, 0, 0, 0)

    def test_spin1_sum_is_signed_size(self):
        rng = np.random.default_rng(204)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, (1 << (n - 1)) + 1))
            sign = int(rng.choice([-1, 1]))
            assert brute_shift_sums(ShiftSpec(m, sign), n)[0] == sign * m

    def test_equals_spin_sums_of_the_block(self):
        # both sums come from one helper: the block's offsets are the spin
        # sums of the function that marks exactly the block
        specs = [
            (n, ShiftSpec(m, sign))
            for n in range(1, 5)
            for sign in (1, -1)
            for m in range(1, (1 << (n - 1)) + 1)
        ]
        rng = np.random.default_rng(207)
        for n in range(5, 13):
            for _ in range(6):
                m = int(rng.integers(1, (1 << (n - 1)) + 1))
                specs.append((n, ShiftSpec(m, int(rng.choice([-1, 1])))))
        for n, spec in specs:
            block = PhaseFunction.from_marks(n, brute_shift_index_set(spec, n))
            assert brute_shift_sums(spec, n) == brute_spin_sums(block)

    def test_spin1_spans_search_domain(self):
        n = 5
        seen = {brute_shift_sums(ShiftSpec(m, +1), n)[0] for m in range(1, 17)}
        assert seen == set(range(1, 17))


class TestBruteShiftedSignal:
    def test_without_shift_reduces_to_spin_sums(self):
        rng = np.random.default_rng(205)
        for _ in range(50):
            f = random_function(int(rng.integers(1, 7)), rng)
            assert brute_shifted_signal(f) == brute_spin_sums(f)

    def test_saturating_pair_example(self):
        # marks {1, 3, 4} with a unit shift: the (0, 4) pair saturates, so
        # spin 1 reads 2 while sums-minus-offsets says 0
        f = PhaseFunction.from_marks(3, [1, 3, 4])
        got = brute_shifted_signal(f, ShiftSpec(1, +1))
        assert got == (2, 0, 0)
        want = np.array(brute_spin_sums(f)) - np.array(brute_shift_sums(ShiftSpec(1, +1), 3))
        assert list(want) == [0, 0, -2]

    def test_offset_difference_mod_2(self):
        rng = np.random.default_rng(206)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            f = random_function(n, rng)
            spec = ShiftSpec(int(rng.integers(1, (1 << (n - 1)) + 1)), int(rng.choice([-1, 1])))
            got = np.array(brute_shifted_signal(f, spec))
            want = np.array(brute_spin_sums(f)) - np.array(brute_shift_sums(spec, n))
            assert np.all((got - want) % 2 == 0)


class TestReferenceReport:
    def test_bundle(self):
        f = PhaseFunction.from_marks(3, [0, 1])
        rep = reference_report(f, ShiftSpec(2, +1))
        assert rep.parity == +1
        assert rep.mark_total == 2
        assert rep.spin_sums == (2, 2, 0)
        assert rep.shift_sums == (2, 2, 0)

    def test_without_shift(self):
        rep = reference_report(PhaseFunction.single(2, 3))
        assert rep.shift_sums is None
        assert rep.parity == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            ReferenceReport(parity=+1, mark_total=1, spin_sums=(1,), shift_sums=None)
        with pytest.raises(ValueError):
            ReferenceReport(parity=-1, mark_total=1, spin_sums=(2,), shift_sums=None)
