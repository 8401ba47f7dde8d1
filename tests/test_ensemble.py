import contextvars
import functools
import os
import queue
import signal
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from spinparity import (
    DeviationState,
    PhaseFunction,
    ShiftSpec,
    SignalVector,
    SpinSystem,
    apply_pulse,
    bit_sign_table,
    brute_shifted_signal,
    brute_shift_sums,
    brute_spin_sums,
    conjugate,
    evolved_purged_state,
    gradient_filter,
    initial_state,
    phase_oracle,
    read_signal,
    run_sequence,
    shift_unitary_direct,
    zero_quantum_filter,
)
from spinparity import _workers, ensemble
from spinparity.ensemble import STRUCT_TOL

from helpers import (
    copy_state,
    engine_cases,
    random_complex_state,
    random_deviation_state,
    random_function,
    same_bytes,
    split_and_serial,
)
from verification import (
    coherence_order,
    oracle_conjugation_expansion,
    oracle_evolution_expansion,
    selective_conjugation_expansion,
    selective_phase_shift,
    spin_operator,
)


@functools.lru_cache(maxsize=None)
def purged_pipeline_state(n):
    """A purged n-spin pipeline state and its system, shared between tests:
    a test that plants a value copies the array first."""
    system = SpinSystem(n)
    return system, evolved_purged_state(system, random_function(n, np.random.default_rng(900 + n)))


def stray_sites(n):
    """One off-diagonal element in the first, a middle and the last band of
    rows, whatever the band height."""
    N = 1 << n
    return [(0, N - 1), (N // 2 + 1, 3), (N - 1, N - 2)]


def dense_pulse_matrix(n, axis, angle):
    gen = sum(spin_operator(n, k, axis) for k in range(1, n + 1))
    return expm(-1j * angle * gen)


def spinwise_pulse(rho, n, axis, angle):
    """Conjugate by the pulse one spin at a time with its 2 x 2 rotation
    ``r``, which is real about y: ``r`` mixes the rows of each spin's index
    pairs on the state's float view, where the real and imaginary parts ride
    along, and then, on the transpose, the columns."""
    r = expm(-1j * angle * spin_operator(1, 1, axis))
    assert not r.imag.any(), "the float-view reference needs a real rotation"
    N = 1 << n
    for _ in range(2):  # rows, then the rows of the transpose
        g = rho.view(np.float64)
        for k in range(n):
            g = np.matmul(r.real, g.reshape(1 << k, 2, -1))
        rho = g.reshape(N, 2 * N).view(complex).T.copy()
    return rho


def pulse_step_bytes(n):
    """Bytes of one pass-1 step of the hard pulse on n spins, ``d t 2N``
    floats for the outer factor's size ``d`` and ``t`` slabs a step: each
    worker's one buffer, which serves both passes."""
    N = 1 << n
    d = 1 << ensemble._pulse_split(n)[0]
    t = min(N // d, max(1, ensemble._PULSE_STEP_FLOATS // (2 * N * d)))
    return 8 * d * t * 2 * N


class TestInitialState:
    def test_single_spin_is_transverse_y(self):
        rho = initial_state(SpinSystem(1)).rho
        assert np.allclose(rho, spin_operator(1, 1, "y"))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_traceless(self, n):
        assert abs(initial_state(SpinSystem(n)).rho.trace()) < STRUCT_TOL

    def test_frobenius_norm(self):
        rho = initial_state(SpinSystem(2)).rho
        assert np.linalg.norm(rho) ** 2 == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_operator_sum(self, n):
        eps = tuple(0.5 + 0.25 * k for k in range(n))
        system = SpinSystem(n, epsilon=eps)
        expected = sum(eps[k - 1] * spin_operator(n, k, "y") for k in range(1, n + 1))
        assert np.abs(initial_state(system).rho - expected).max() < STRUCT_TOL


class TestApplyPulse:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(51)
        state = random_deviation_state(2, rng)
        out = apply_pulse(copy_state(state), 0.0)
        assert np.abs(out.rho - state.rho).max() < STRUCT_TOL

    def test_two_quarter_turns_compose(self):
        rng = np.random.default_rng(52)
        state = random_deviation_state(3, rng)
        twice = apply_pulse(apply_pulse(copy_state(state), np.pi / 2), np.pi / 2)
        once = apply_pulse(copy_state(state), np.pi)
        assert np.abs(once.rho - state.rho).max() > 0.1  # a half turn moves a random state
        assert np.abs(twice.rho - once.rho).max() < 1e-12

    def test_quarter_turn_convention(self):
        # the 90-degree y pulse carries x magnetization onto -z
        state = DeviationState(spin_operator(1, 1, "x"))
        out = apply_pulse(state, np.pi / 2)
        assert np.abs(out.rho + spin_operator(1, 1, "z")).max() < 1e-12

    # the pulse rotates about y, the one axis the sequence uses; the
    # references below are built for any axis from the spin operators
    @pytest.mark.parametrize("axis", ["y"])
    def test_matches_dense_exponential(self, axis):
        rng = np.random.default_rng(53)
        for n in (1, 2, 3):
            state = random_deviation_state(n, rng)
            angle = float(rng.uniform(-np.pi, np.pi))
            fast = apply_pulse(copy_state(state), angle).rho
            r = dense_pulse_matrix(n, axis, angle)
            assert np.abs(fast - r @ state.rho @ r.conj().T).max() < 1e-11

    @pytest.mark.parametrize("n", range(1, 13))
    def test_split_is_three_factors_of_at_most_four_spins(self, n):
        # every n runs three factors, a zero-spin one the 1 x 1 identity
        split = ensemble._pulse_split(n)
        assert len(split) == 3
        assert sum(split) == n
        assert list(split) == sorted(split, reverse=True)
        assert max(split) <= 4

    @pytest.mark.parametrize("axis", ["y"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_dense_exponential_for_every_factor_split(self, axis, n):
        # three factors at every n, spins from the high end: n = 1..4 as
        # (1, 0, 0), (1, 1, 0), (1, 1, 1) and (2, 1, 1); n = 5..7 as
        # (2, 2, 1), (2, 2, 2) and (3, 2, 2)
        rng = np.random.default_rng(100 + n)
        state = random_deviation_state(n, rng)
        angle = float(rng.uniform(-np.pi, np.pi))
        fast = apply_pulse(copy_state(state), angle).rho
        r = dense_pulse_matrix(n, axis, angle)
        assert np.abs(fast - r @ state.rho @ r.conj().T).max() < 1e-11

    @pytest.mark.parametrize("axis", ["y"])
    @pytest.mark.parametrize("n", range(1, 12))
    def test_matches_spinwise_rotation_past_expm_range(self, axis, n):
        # every split the pulse uses up to n = 11, one per n: three factors
        # from (1, 0, 0) spins up to (4, 4, 3); from n = 8 on, past the
        # dense exponential's range, this is the only reference
        rng = np.random.default_rng(200 + n)
        state = random_deviation_state(n, rng)
        angle = float(rng.uniform(-np.pi, np.pi))
        fast = apply_pulse(copy_state(state), angle).rho
        assert np.abs(fast - spinwise_pulse(state.rho, n, axis, angle)).max() < 1e-11

    def test_pipeline_output_hermitian_traceless_at_n10(self):
        rng = np.random.default_rng(55)
        n = 10
        system = SpinSystem(n)
        state = conjugate(phase_oracle(random_function(n, rng), np.pi / 2), initial_state(system))
        state = conjugate(shift_unitary_direct(ShiftSpec(300, -1), n), state)
        out = apply_pulse(state, np.pi / 2).rho
        assert np.abs(out - out.conj().T).max() < STRUCT_TOL
        assert abs(out.trace()) < STRUCT_TOL

    def test_peak_allocation_is_one_state(self, monkeypatch):
        # the rotation works in place on the state's array; each worker's one
        # buffer, one pass-1 step, is a fraction of it, and the buffer budget
        # caps the workers: 3 of 8 CPUs at n = 9, all 8 from n = 10 up
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 8)
        for n in (9, 10, 11):
            state = initial_state(SpinSystem(n))
            apply_pulse(state, np.pi / 2)
            tracemalloc.start()
            try:
                out = apply_pulse(state, np.pi / 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out is state
            assert peak <= 0.25 * out.rho.nbytes, (n, peak)
        assert len(_workers._queues) >= 3

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_pulse_buffer_is_one_slab_step_per_worker(self, monkeypatch, n):
        # pass 2 runs its blocks in column chunks that fit the pass-1 step's
        # buffer, so no worker holds a whole block (1 MB at n = 10)
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 8)
        state = initial_state(SpinSystem(n))
        apply_pulse(state, np.pi / 2)
        tracemalloc.start()
        try:
            apply_pulse(state, np.pi / 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workers = _workers.worker_count(state.dim, state.dim, pulse_step_bytes(n))
        assert workers > 1
        assert peak <= workers * pulse_step_bytes(n) + 64 * 1024, (n, workers, peak)

    def test_angle_outside_open_range_rejected(self):
        state = initial_state(SpinSystem(2))
        before = state.rho.copy()
        for angle in (7.0, -7.0, 2.0 * np.pi, float("nan")):
            with pytest.raises(ValueError, match=r"outside \(-2pi, 2pi\)"):
                apply_pulse(state, angle)
        assert np.array_equal(state.rho, before)


class TestPurgeFilters:
    def test_gradient_keeps_diagonal(self):
        d = np.diag([0.5, -0.5, 0.25, -0.25])
        state = DeviationState(d)
        assert np.array_equal(gradient_filter(state).rho, d)

    def test_gradient_kills_single_quantum(self):
        state = DeviationState(spin_operator(1, 1, "x"))
        assert np.abs(gradient_filter(state).rho).max() == 0.0

    def test_gradient_order_selection_n2(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 2] = 0.3 + 0.1j  # zero-quantum
        m[2, 1] = np.conj(m[1, 2])
        m[0, 3] = 0.2 - 0.4j  # double-quantum
        m[3, 0] = np.conj(m[0, 3])
        out = gradient_filter(DeviationState(m.copy())).rho
        assert out[1, 2] == m[1, 2]
        assert out[0, 3] == 0.0

    def test_zero_quantum_filter_kills_zq(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 2] = 0.3 + 0.1j
        m[2, 1] = np.conj(m[1, 2])
        out = zero_quantum_filter(DeviationState(m)).rho
        assert np.abs(out).max() == 0.0

    def test_zero_quantum_filter_keeps_diagonal(self):
        d = np.diag([0.5, -0.5, 0.25, -0.25])
        assert np.array_equal(zero_quantum_filter(DeviationState(d)).rho, d)

    def test_composition_is_diagonal_projection(self):
        rng = np.random.default_rng(54)
        for n in (1, 2, 3, 4):
            state = random_deviation_state(n, rng)
            purged = zero_quantum_filter(gradient_filter(copy_state(state))).rho
            assert np.array_equal(purged, np.diag(np.diag(state.rho)))
            swapped = gradient_filter(zero_quantum_filter(copy_state(state))).rho
            assert np.array_equal(swapped, purged)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_filters_select_by_scalar_coherence_order(self, n):
        # every element of a random state is nonzero, so each kept or
        # cancelled element shows; the masks must agree with coherence_order
        state = random_deviation_state(n, np.random.default_rng(56 + n))
        rho = state.rho
        grad = gradient_filter(copy_state(state)).rho
        zq = zero_quantum_filter(copy_state(state)).rho
        N = 1 << n
        for r in range(N):
            for c in range(N):
                zero_order = coherence_order(r, c) == 0
                assert grad[r, c] == (rho[r, c] if zero_order else 0.0)
                assert zq[r, c] == (0.0 if zero_order and r != c else rho[r, c])

    def test_purge_idempotent(self):
        rng = np.random.default_rng(55)
        state = random_deviation_state(3, rng)
        once = zero_quantum_filter(gradient_filter(copy_state(state)))
        twice = zero_quantum_filter(gradient_filter(copy_state(once)))
        assert np.abs(once.rho - state.rho).max() > 0.1  # the purge cancels coherences
        assert np.array_equal(once.rho, twice.rho)


class TestReadSignal:
    def test_zero_state(self):
        sig = read_signal(DeviationState(np.zeros((4, 4))), SpinSystem(2))
        assert sig.amplitudes == (0.0, 0.0)
        assert sig.zero_flags == (True, True)

    def test_recovers_longitudinal_integers(self):
        n, N = 2, 4
        eps = (0.75, 1.5)
        system = SpinSystem(n, epsilon=eps)
        target = (3, -1)
        rho = (2.0 / N) * sum(
            eps[k - 1] * target[k - 1] * spin_operator(n, k, "z") for k in (1, 2)
        )
        sig = read_signal(DeviationState(rho), system)
        assert sig.amplitudes == pytest.approx(target, abs=1e-12)
        assert sig.zero_flags == (False, False)

    def test_rejects_unpurged_state(self):
        state = DeviationState(spin_operator(2, 1, "x"))
        with pytest.raises(ValueError):
            read_signal(state, SpinSystem(2))

    def test_purity_check_reaches_every_row_block(self):
        # at n = 9 the check runs in four blocks of 128 rows; each stray
        # element has real and imaginary parts below the tolerance and a
        # modulus above it
        n, N = 9, 512
        system = SpinSystem(n)
        stray = 0.8 * STRUCT_TOL * (1 + 1j)
        for r, c in [(0, 1), (127, 128), (200, 7), (383, 384), (510, 511), (511, 0)]:
            rho = np.zeros((N, N), dtype=complex)
            rho[r, c], rho[c, r] = stray, np.conj(stray)
            with pytest.raises(ValueError, match="purged"):
                read_signal(DeviationState(rho, validate=False), system)
            rho[r, c] = rho[c, r] = np.nan
            with pytest.raises(ValueError, match="purged"):
                read_signal(DeviationState(rho, validate=False), system)
        rho = np.diag(np.linspace(-1.0, 1.0, N)).astype(complex)
        rho[300, 301] = rho[301, 300] = 0.5 * STRUCT_TOL
        read_signal(DeviationState(rho, validate=False), system)

    @pytest.mark.parametrize("n", [9, 10])
    def test_negative_zero_off_diagonal_is_accepted(self, n):
        # -0.0 has a nonzero word, so its band fails the exact-zero screen
        # and takes the exact path, where |-0.0| is 0.0
        system, state = purged_pipeline_state(n)
        expected = read_signal(state, system)
        for r, c in stray_sites(n):
            for value in (-0.0, complex(0.0, -0.0), complex(-0.0, -0.0)):
                rho = state.rho.copy()
                rho[r, c] = value
                assert read_signal(DeviationState(rho, validate=False), system) == expected, (r, c, value)

    @pytest.mark.parametrize("n", [9, 10])
    def test_stray_is_rejected_with_its_exact_modulus(self, n):
        system, state = purged_pipeline_state(n)
        for r, c in stray_sites(n):
            rho = state.rho.copy()
            rho[r, c] = 3e-12 * (1 + 1j)
            with pytest.raises(ValueError, match=r"off-diagonal max 4\.243e-12$"):
                read_signal(DeviationState(rho, validate=False), system)

    @pytest.mark.parametrize("n", [9, 10])
    def test_stray_in_a_band_with_zero_diagonal_is_rejected(self, n):
        # the screen must count the diagonal's nonzero words, not assume
        # every diagonal word is nonzero
        system, state = purged_pipeline_state(n)
        for r, c in stray_sites(n):
            for value in (3e-12, 3e-12j):
                rho = state.rho.copy()
                h = _workers.band_rows(len(rho))  # the screen's band height at any worker count
                rho[range(r - r % h, r - r % h + h), range(r - r % h, r - r % h + h)] = 0.0
                rho[r, c] = value
                with pytest.raises(ValueError, match=r"off-diagonal max 3\.000e-12$"):
                    read_signal(DeviationState(rho, validate=False), system)

    @pytest.mark.parametrize("n", [9, 10])
    def test_screen_verdicts_match_on_one_and_three_workers(self, monkeypatch, n):
        system, state = purged_pipeline_state(n)

        def verdicts():
            out = []
            for r, c in stray_sites(n):
                for value in (complex(-0.0, -0.0), 3e-12 * (1 + 1j), np.nan):
                    rho = state.rho.copy()
                    rho[r, c] = value
                    try:
                        out.append(read_signal(DeviationState(rho, validate=False), system))
                    except ValueError as exc:
                        out.append(str(exc))
            return out

        split, serial = split_and_serial(monkeypatch, verdicts)
        assert split == serial
        prefix = "readout requires a purged (diagonal) state; off-diagonal max "
        assert serial == [read_signal(state, system), prefix + "4.243e-12", prefix + "nan"] * 3

    def test_purged_pipeline_state_takes_the_screen(self):
        # every band of a purged state passes the exact-zero screen, which
        # allocates nothing, and the float64 sign table enters the amplitude
        # product uncast: an int64 table would cast n N floats, 80 kB here
        n = 10
        system, state = purged_pipeline_state(n)
        read_signal(state, system)  # build the cached bit-sign table outside the window
        tracemalloc.start()
        try:
            read_signal(state, system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024, peak

    def test_float_sign_table_product_matches_integer_table(self):
        # bit for bit the product on an int64 table of the same signs, which
        # numpy casts to float64 first: on random diagonals and on purged
        # pipeline states, read as read_signal reads them (few at n = 10,
        # where each dense run takes tens of milliseconds)
        rng = np.random.default_rng(58)
        diagonals = [rng.normal(size=1 << n) for n in range(1, 13) for _ in range(155)]
        for n, count in ((6, 20), (9, 20), (10, 4)):
            system = SpinSystem(n)
            for i in range(count):
                spec = None
                if i % 4:
                    spec = ShiftSpec(int(rng.integers(1, (1 << (n - 1)) + 1)), 1 - 2 * (i % 2))
                state = evolved_purged_state(system, random_function(n, rng), spec)
                diagonals.append(np.diag(state.rho).real)
        for d in diagonals:
            table = bit_sign_table(d.size.bit_length() - 1)
            assert table.dtype == np.float64
            assert same_bytes(table @ d, table.astype(np.int64) @ d)

    def test_readout_makes_no_state_sized_copy(self):
        n = 10
        system = SpinSystem(n)
        state = evolved_purged_state(system, random_function(n, np.random.default_rng(57)))
        read_signal(state, system)  # build the cached bit-sign table outside the window
        tracemalloc.start()
        try:
            read_signal(state, system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * state.rho.nbytes, peak

    def test_signal_vector_flag_consistency(self):
        with pytest.raises(ValueError):
            SignalVector((0.5,), (True,), 1e-9)
        with pytest.raises(ValueError, match="counts differ"):
            SignalVector((0.5, 0.0), (False,), 1e-9)


class TestConjugationExpansions:
    def test_selective_zero_and_full_turns(self):
        rng = np.random.default_rng(61)
        state = random_deviation_state(2, rng)
        for theta in (0.0, 2 * np.pi):
            out = selective_conjugation_expansion(state, 1, theta)
            assert np.abs(out.rho - state.rho).max() < 1e-12

    def test_selective_matches_direct(self):
        rng = np.random.default_rng(62)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            state = random_deviation_state(n, rng)
            s = int(rng.integers(0, 1 << n))
            theta = float(rng.uniform(0, 2 * np.pi))
            a = selective_conjugation_expansion(state, s, theta)
            b = conjugate(selective_phase_shift(n, s, theta), state)
            assert np.abs(a.rho - b.rho).max() < 1e-10

    def test_oracle_expansion_trivial_function(self):
        rng = np.random.default_rng(63)
        state = random_deviation_state(3, rng)
        out = oracle_conjugation_expansion(state, PhaseFunction.constant(3, +1), 1.1)
        assert np.abs(out.rho - state.rho).max() < 1e-12

    def test_oracle_expansion_single_mark_reduces_to_selective(self):
        rng = np.random.default_rng(64)
        state = random_deviation_state(3, rng)
        x0, theta = 5, np.pi / 2
        a = oracle_conjugation_expansion(state, PhaseFunction.single(3, x0), theta)
        b = selective_conjugation_expansion(state, x0, theta)
        assert np.abs(a.rho - b.rho).max() < 1e-12

    def test_oracle_expansion_matches_direct(self):
        rng = np.random.default_rng(65)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            state = random_deviation_state(n, rng)
            f = random_function(n, rng)
            theta = float(rng.uniform(0, 2 * np.pi))
            a = oracle_conjugation_expansion(state, f, theta)
            b = conjugate(phase_oracle(f, theta), state)
            assert np.abs(a.rho - b.rho).max() < 1e-10


class TestEvolutionExpansion:
    def test_trivial_function_keeps_initial_state(self):
        system = SpinSystem(3)
        out = oracle_evolution_expansion(system, PhaseFunction.constant(3, +1), 0.8)
        assert np.abs(out.rho - initial_state(system).rho).max() < 1e-12

    def test_single_mark_matches_selective_expansion(self):
        system = SpinSystem(3, epsilon=(1.0, 0.5, 2.0))
        x0, theta = 6, np.pi / 2
        a = oracle_evolution_expansion(system, PhaseFunction.single(3, x0), theta)
        b = selective_conjugation_expansion(initial_state(system), x0, theta)
        assert np.abs(a.rho - b.rho).max() < 1e-12

    def test_matches_direct_conjugation(self):
        rng = np.random.default_rng(66)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            eps = tuple(float(e) for e in rng.uniform(0.5, 2.0, n))
            system = SpinSystem(n, epsilon=eps)
            f = random_function(n, rng)
            theta = float(rng.uniform(0, 2 * np.pi))
            a = oracle_evolution_expansion(system, f, theta)
            b = conjugate(phase_oracle(f, theta), initial_state(system))
            assert np.abs(a.rho - b.rho).max() < 1e-9

    def test_size_cap(self):
        with pytest.raises(ValueError):
            oracle_evolution_expansion(SpinSystem(9), PhaseFunction.constant(9, +1), 0.5)


class TestRunSequence:
    def test_trivial_function_reads_zero(self):
        sig = run_sequence(SpinSystem(3), PhaseFunction.constant(3, +1))
        assert all(sig.zero_flags)

    def test_all_marked_reads_zero(self):
        for n in (1, 2, 3, 4):
            sig = run_sequence(SpinSystem(n), PhaseFunction.constant(n, -1))
            assert all(sig.zero_flags)

    def test_single_mark_at_zero(self):
        sig = run_sequence(SpinSystem(2), PhaseFunction.single(2, 0))
        assert sig.amplitudes == pytest.approx((1.0, 1.0), abs=1e-10)

    def test_single_mark_cancelled_by_unit_shift(self):
        sig = run_sequence(SpinSystem(2), PhaseFunction.single(2, 0), shift=ShiftSpec(1, +1))
        assert sig.amplitudes == pytest.approx((0.0, 0.0), abs=1e-10)

    def test_base_amplitudes_equal_spin_sums_exhaustive(self):
        # the dense runs of the shared engine-agreement pass
        for n in (1, 2, 3):
            for case in engine_cases(n):
                if case.spec is None:
                    sig = case.dense
                    want = brute_spin_sums(case.f)
                    assert sig.amplitudes == pytest.approx(want, abs=1e-9), case.where()

    def test_base_amplitudes_equal_spin_sums_random(self):
        rng = np.random.default_rng(71)
        for n in (4, 5, 6):
            system = SpinSystem(n)
            for _ in range(25):
                f = random_function(n, rng)
                sig = run_sequence(system, f)
                assert sig.amplitudes == pytest.approx(brute_spin_sums(f), abs=1e-9)

    def test_shifted_amplitudes_match_integer_reference(self):
        rng = np.random.default_rng(72)
        for _ in range(120):
            n = int(rng.integers(1, 7))
            f = random_function(n, rng)
            spec = ShiftSpec(int(rng.integers(1, (1 << (n - 1)) + 1)), int(rng.choice([-1, 1])))
            sig = run_sequence(SpinSystem(n), f, shift=spec)
            assert sig.amplitudes == pytest.approx(brute_shifted_signal(f, spec), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shifted_amplitudes_exhaustive_small_registers(self, n):
        for case in engine_cases(n):
            if case.spec is not None:
                sig = case.dense
                assert sig.amplitudes == pytest.approx(
                    brute_shifted_signal(case.f, case.spec), abs=1e-9
                ), case.where()

    def test_shifted_amplitudes_equal_offset_difference_without_collisions(self):
        # When no mark faces a shift member across any spin's index pairs the
        # readout is exactly spin sums minus offsets.
        rng = np.random.default_rng(73)
        checked = 0
        while checked < 40:
            n = int(rng.integers(2, 6))
            f = random_function(n, rng, density=0.3)
            spec = ShiftSpec(int(rng.integers(1, (1 << (n - 1)) + 1)), int(rng.choice([-1, 1])))
            if _has_saturating_pair(f, spec):
                continue
            sig = run_sequence(SpinSystem(n), f, shift=spec)
            want = np.array(brute_spin_sums(f)) - np.array(brute_shift_sums(spec, n))
            assert sig.amplitudes == pytest.approx(tuple(want), abs=1e-9)
            checked += 1

    def test_shifted_amplitudes_match_offset_difference_mod_2(self):
        rng = np.random.default_rng(74)
        for _ in range(80):
            n = int(rng.integers(2, 7))
            f = random_function(n, rng)
            spec = ShiftSpec(int(rng.integers(1, (1 << (n - 1)) + 1)), int(rng.choice([-1, 1])))
            sig = run_sequence(SpinSystem(n), f, shift=spec)
            amps = np.rint(sig.amplitudes).astype(int)
            want = np.array(brute_spin_sums(f)) - np.array(brute_shift_sums(spec, n))
            assert np.all((amps - want) % 2 == 0)

    def test_amplitudes_are_integers(self):
        rng = np.random.default_rng(75)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            f = random_function(n, rng)
            sig = run_sequence(SpinSystem(n), f)
            assert np.abs(np.asarray(sig.amplitudes) - np.rint(sig.amplitudes)).max() < 1e-10

    def test_purged_state_is_diagonal(self):
        rng = np.random.default_rng(76)
        f = random_function(4, rng)
        state = evolved_purged_state(SpinSystem(4), f, ShiftSpec(3, +1))
        off = state.rho - np.diag(np.diag(state.rho))
        assert np.abs(off).max() == 0.0

    def test_every_pipeline_stage_keeps_state_invariants(self):
        # covers the fast construction paths, which skip per-call validation
        rng = np.random.default_rng(77)
        n = 6
        system = SpinSystem(n, epsilon=tuple(rng.uniform(0.5, 2.0, n)))
        f = random_function(n, rng)
        stages = [initial_state(system)]
        stages.append(conjugate(phase_oracle(f, np.pi / 2), copy_state(stages[-1])))
        stages.append(conjugate(shift_unitary_direct(ShiftSpec(5, +1), n), copy_state(stages[-1])))
        stages.append(apply_pulse(copy_state(stages[-1]), np.pi / 2))
        stages.append(gradient_filter(copy_state(stages[-1])))
        stages.append(zero_quantum_filter(copy_state(stages[-1])))
        # every stage acts: none of them leaves this state as it was
        for before, after in zip(stages, stages[1:]):
            assert not np.array_equal(before.rho, after.rho)
        for stage in stages:
            assert np.abs(stage.rho - stage.rho.conj().T).max() < STRUCT_TOL
            assert abs(stage.rho.trace()) < STRUCT_TOL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_sequence(SpinSystem(3), PhaseFunction.constant(2, +1))

    @pytest.mark.parametrize("n", [9, 10])
    def test_run_holds_one_state_array(self, n):
        # every stage transforms the initial state's array in place, so a
        # warm run allocates one N x N complex array and small buffers, the
        # largest the pulse's: one pass-1 step per worker
        rng = np.random.default_rng(78 + n)
        system = SpinSystem(n)
        f = random_function(n, rng)
        spec = ShiftSpec(int(rng.integers(1, 1 << (n - 1))), -1)
        run_sequence(system, f, spec)  # builds the cached masks
        tracemalloc.start()
        try:
            run_sequence(system, f, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workers = _workers.worker_count(system.dim, system.dim, pulse_step_bytes(n))
        assert peak <= 16 * system.dim**2 + workers * pulse_step_bytes(n) + 64 * 1024, (workers, peak)


class TestWorkerSplit:
    """From n = 9 up the dense stages, the pulse included, deal their chunks
    out to worker threads; every result must be the one a single worker
    gives, byte for byte, and no worker may keep a finished run's state
    alive."""

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_pulse_is_byte_identical(self, monkeypatch, n):
        state = random_complex_state(n, np.random.default_rng(800 + n))
        split, serial = split_and_serial(monkeypatch, lambda: apply_pulse(copy_state(state), 1.234).rho)
        assert same_bytes(split, serial)

    @pytest.mark.parametrize("n", [10, 11])
    def test_filters_are_byte_identical_with_nan_and_inf(self, monkeypatch, n):
        rng = np.random.default_rng(810 + n)
        state = random_complex_state(n, rng)
        N = 1 << n
        rows, cols = rng.integers(0, N, 160), rng.integers(0, N, 160)
        rows[:8] = cols[:8]  # some on the diagonal
        specials = np.array([np.nan, np.inf, -np.inf, complex(np.nan, np.inf), complex(-0.0, -0.0)])
        state.rho[rows, cols] = specials[np.arange(160) % 5]
        same_order = np.array([r.bit_count() == c.bit_count() for r, c in zip(rows.tolist(), cols.tolist())])
        for stage, cancel in ((gradient_filter, ~same_order), (zero_quantum_filter, same_order & (rows != cols))):
            split, serial = split_and_serial(monkeypatch, lambda: stage(copy_state(state)).rho)
            assert same_bytes(split, serial), stage.__name__
            # a cancelled element reads +0.0, both words zero, whatever it
            # held, as the readout's exact-zero screen needs; the rest keep
            # their bytes
            assert same_bytes(serial[rows[cancel], cols[cancel]], np.zeros(cancel.sum(), dtype=complex)), stage.__name__
            assert same_bytes(serial[rows[~cancel], cols[~cancel]], state.rho[rows[~cancel], cols[~cancel]])
            assert 0 < cancel.sum() < len(cancel)

    @pytest.mark.parametrize("sign", [None, +1, -1])
    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_runs_are_byte_identical(self, monkeypatch, n, sign):
        rng = np.random.default_rng(820 + n)
        system = SpinSystem(n, epsilon=tuple(rng.uniform(0.5, 2.0, n)))
        f = random_function(n, rng)
        spec = None if sign is None else ShiftSpec(int(rng.integers(1, 1 << (n - 1))), sign)

        def run():
            state = evolved_purged_state(system, f, spec)
            return state.rho, read_signal(state, system)

        (split, split_sig), (serial, serial_sig) = split_and_serial(monkeypatch, run)
        assert same_bytes(split, serial)
        assert same_bytes(np.array(split_sig.amplitudes), np.array(serial_sig.amplitudes))
        assert split_sig == serial_sig

    def test_pulse_splits_only_under_a_one_thread_blas(self, monkeypatch):
        # workers calling a multi-threaded BLAS at once contend with its threads
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 3)
        split = _workers.run_split
        counts = []
        monkeypatch.setattr(ensemble, "run_split", lambda job, w, c: (counts.append(w), split(job, w, c)))
        state = initial_state(SpinSystem(10))
        for threads in ("4", "1"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            apply_pulse(state, np.pi / 2)
        assert counts == [1, 1, 3, 3]

    def test_finished_run_leaves_no_reference_to_its_state(self, monkeypatch):
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 3)
        state = evolved_purged_state(SpinSystem(10), random_function(10, np.random.default_rng(830)))
        assert len(_workers._queues) >= 3
        rho = weakref.ref(state.rho)
        del state
        assert rho() is None

    def test_exception_in_a_run_reaches_the_caller(self):
        ended = []

        def job(i, lo, hi):
            ended.append(i)
            if i == 1:
                raise KeyError(f"run {i}")

        with pytest.raises(KeyError, match="run 1"):
            _workers.run_split(job, 3, 3)
        assert sorted(ended) == [0, 1, 2]  # every run ended before the raise
        runs = []
        _workers.run_split(lambda i, lo, hi: runs.append((i, lo, hi)), 3, 7)
        assert sorted(runs) == [(0, 0, 2), (1, 2, 4), (2, 4, 7)]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
    def test_runs_overlap_on_bound_workers_with_the_small_buffer(self):
        cpus = sorted(os.sched_getaffinity(0))
        w = min(3, len(cpus))
        if w < 2:
            pytest.skip("one CPU in the affinity mask: nothing splits")
        barrier = threading.Barrier(w, timeout=30)  # broken unless all w runs overlap
        seen = {}

        def job(i, lo, hi):
            barrier.wait()
            affinity = os.sched_getaffinity(threading.get_native_id())
            seen[i] = (threading.current_thread().name, affinity, np.getbufsize())

        _workers.run_split(job, w, w)
        assert seen == {i: (f"spinparity-worker-{i}", {cpus[i]}, _workers.WORKER_BUFSIZE) for i in range(w)}

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no pthread_kill on this platform")
    def test_interrupted_caller_keeps_its_workers(self):
        # an interrupted caller's runs end on their own and the next split
        # queues behind them on the same workers: no thread is left behind
        _workers.run_split(lambda i, lo, hi: None, 2, 2)  # both workers are running
        threads = threading.active_count()
        for _ in range(5):
            caught = threading.Event()

            def job(i, lo, hi, caught=caught):
                if i == 1:
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                    caught.wait(timeout=30)  # held until the caller has been interrupted

            with pytest.raises(KeyboardInterrupt):
                _workers.run_split(job, 2, 2)
            caught.set()
        runs = []
        _workers.run_split(lambda i, lo, hi: runs.append(i), 2, 2)
        assert sorted(runs) == [0, 1]
        assert threading.active_count() == threads

    def test_no_thread_to_start_runs_inline(self, monkeypatch):
        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(_workers, "_queues", [])
        monkeypatch.setattr(threading.Thread, "start", refuse)
        runs = []
        _workers.run_split(lambda i, lo, hi: runs.append((i, lo, hi, threading.get_ident())), 3, 5)
        assert runs == [(0, 0, 5, threading.get_ident())]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_worker_whose_cpu_is_gone_runs_unbound(self):
        jobs, done = queue.SimpleQueue(), queue.SimpleQueue()
        # 4095: a CPU this machine does not have
        threading.Thread(target=_workers._work, args=(jobs, 4095), daemon=True).start()
        runs = []

        def job(i, lo, hi):
            runs.append((i, lo, hi, os.sched_getaffinity(threading.get_native_id())))

        jobs.put((contextvars.copy_context(), job, (0, 0, 1), done))
        assert done.get(timeout=30) is None
        assert runs == [(0, 0, 1, os.sched_getaffinity(0))]

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="thread-local error state")
    def test_runs_see_the_callers_error_state(self):
        seen = []
        bufsize = np.getbufsize()
        with np.errstate(over="raise"):
            _workers.run_split(lambda i, lo, hi: seen.append(np.geterr()["over"]), 3, 3)
        assert seen == ["raise"] * 3
        assert np.getbufsize() == bufsize  # the runs' smaller buffer stays theirs

    def test_concurrent_callers_share_the_workers(self, monkeypatch):
        # the callers' stages split at once, each queueing its runs behind
        # the others' on the same workers; every run must still read the same
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 3)
        system = SpinSystem(10)
        fs = [random_function(10, np.random.default_rng(840 + i)) for i in range(4)]
        want = [run_sequence(system, f) for f in fs]
        got = [[] for _ in fs]

        def caller(i):
            for _ in range(3):
                got[i].append(run_sequence(system, fs[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(fs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 3 for w in want]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_forked_child_starts_its_own_workers(self, monkeypatch):
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 3)
        system = SpinSystem(10)
        f = random_function(10, np.random.default_rng(850))
        want = run_sequence(system, f)  # the parent's workers are running
        assert len(_workers._queues) >= 3
        with warnings.catch_warnings():
            # Python 3.12 warns that forking a multi-threaded process may deadlock
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                fresh = not _workers._queues
                same = run_sequence(system, f) == want
                code = 0 if fresh and same and len(_workers._queues) == 3 else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish its run")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


def _has_saturating_pair(f, spec):
    """True when some spin pair carries a net two-quarter-turn phase step."""
    n = f.n
    members = set(int(l) for l in np.arange(spec.m) + (0 if spec.sign > 0 else 1 << (n - 1)))
    q = [int(f.marks[x]) - (1 if x in members else 0) for x in range(f.dim)]
    for k in range(1, n + 1):
        step = 1 << (n - k)
        for r in range(f.dim):
            if (r >> (n - k)) & 1 == 0 and abs(q[r] - q[r + step]) == 2:
                return True
    return False
