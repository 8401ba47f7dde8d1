import tracemalloc

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
    brute_shifted_signal,
    brute_shift_sums,
    brute_spin_sums,
    coherence_order,
    conjugate,
    evolved_purged_state,
    gradient_filter,
    initial_state,
    oracle_conjugation_expansion,
    oracle_evolution_expansion,
    phase_oracle,
    read_signal,
    run_sequence,
    selective_conjugation_expansion,
    shift_unitary_direct,
    spin_operator,
    zero_quantum_filter,
)
from spinparity.spinops import STRUCT_TOL

from helpers import copy_state, engine_cases, random_deviation_state, random_function


def dense_pulse_matrix(n, axis, angle):
    gen = sum(spin_operator(n, k, axis) for k in range(1, n + 1))
    return expm(-1j * angle * gen)


def spinwise_pulse(rho, n, axis, angle):
    """Conjugate by the pulse one spin at a time with its 2 x 2 rotation."""
    r = expm(-1j * angle * spin_operator(1, 1, axis))
    N = 1 << n
    for k in range(n):
        hi, lo = 1 << k, 1 << (n - 1 - k)
        rho = np.einsum("ij,ajbc->aibc", r, rho.reshape(hi, 2, lo, N)).reshape(N, N)
        rho = np.einsum("ij,cajb->caib", r.conj(), rho.reshape(N, hi, 2, lo)).reshape(N, N)
    return rho


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

    @pytest.mark.parametrize("axis", ["y"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_dense_exponential_for_every_factor_split(self, axis, n):
        # n = 1..7 puts 0..3 spins in the high factor and 1..4 in the low
        rng = np.random.default_rng(100 + n)
        state = random_deviation_state(n, rng)
        angle = float(rng.uniform(-np.pi, np.pi))
        fast = apply_pulse(copy_state(state), angle).rho
        r = dense_pulse_matrix(n, axis, angle)
        assert np.abs(fast - r @ state.rho @ r.conj().T).max() < 1e-11

    @pytest.mark.parametrize("axis", ["y"])
    @pytest.mark.parametrize("n", [8, 9])
    def test_matches_spinwise_rotation_past_expm_range(self, axis, n):
        # n = 9 is the first split past n = 7 with unequal factors (16 x 32)
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

    def test_peak_allocation_is_one_state(self):
        # the rotation works in place on the state's array; its two buffers
        # of len(B) rows each are a fraction of it
        state = initial_state(SpinSystem(9))
        apply_pulse(state, np.pi / 2)
        tracemalloc.start()
        try:
            out = apply_pulse(state, np.pi / 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is state
        assert peak <= 0.25 * out.rho.nbytes

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

    def test_rejects_negative_threshold(self):
        # nonzero amplitudes are at least 1, or 2/N = 0.5 in SNR mode at n=2
        bad = [(-1.0, False), (0.0, False), (float("nan"), False), (1.0, False),
               (1.5, False), (0.0, True), (0.5, True), (1.0, True)]
        for threshold, snr_mode in bad:
            with pytest.raises(ValueError):
                read_signal(DeviationState(np.zeros((4, 4))), SpinSystem(2),
                            threshold=threshold, snr_mode=snr_mode)

    def test_snr_mode_scales_by_two_over_dim(self):
        n, N = 3, 8
        system = SpinSystem(n)
        rho = (2.0 / N) * 4 * spin_operator(n, 1, "z")
        raw = read_signal(DeviationState(rho), system)
        snr = read_signal(DeviationState(rho), system, threshold=1e-3, snr_mode=True)
        assert raw.amplitudes[0] == pytest.approx(4.0, abs=1e-12)
        assert snr.amplitudes[0] == pytest.approx(1.0, abs=1e-12)

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
        from spinparity import selective_phase_shift

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
        # the dense runs of the shared engine-agreement pass, read as
        # run_sequence reads them by default
        for n in (1, 2, 3):
            for case in engine_cases(n):
                if case.spec is None:
                    sig = case.readouts[0].dense
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
                sig = case.readouts[0].dense
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
        # warm run allocates one N x N complex array and small buffers
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
        assert peak <= 1.25 * 16 * system.dim**2


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
