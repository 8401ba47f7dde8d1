import numpy as np
import pytest

from spinparity import (
    PhaseFunction,
    RunTrace,
    SignalError,
    SpinSystem,
    brute_parity,
    mark_count,
    projected_call_counts,
    solve_parity,
)

from helpers import function_from_mask, random_function


class TestDegenerateFunctions:
    def test_all_plus_resolves_immediately(self):
        trace = solve_parity(SpinSystem(3), PhaseFunction.constant(3, +1))
        assert trace.parity == +1
        assert trace.uo_calls == 1
        assert trace.m_star is None
        assert all(abs(a) < 1e-9 for a in trace.iterations[0].amplitudes)

    def test_all_minus_resolves_immediately(self):
        trace = solve_parity(SpinSystem(3), PhaseFunction.constant(3, -1))
        assert trace.parity == +1
        assert trace.uo_calls == 1
        assert all(abs(a) < 1e-9 for a in trace.iterations[0].amplitudes)


class TestSingleMark:
    def test_worked_example(self):
        # one mark at index 5 (binary 101): odd count, spin-1 sum is -1, so
        # the search runs on the negative branch and nulls at offset 1
        trace = solve_parity(SpinSystem(3), PhaseFunction.single(3, 5))
        assert trace.parity == -1
        assert trace.m_star == 1
        assert trace.iterations[0].amplitudes[0] == pytest.approx(-1.0, abs=1e-10)
        assert all(rec.sign == -1 for rec in trace.iterations[1:])
        assert trace.uo_calls <= 3

    def test_single_spin_register(self):
        for x0 in (0, 1):
            trace = solve_parity(SpinSystem(1), PhaseFunction.single(1, x0))
            assert trace.parity == -1
            assert trace.uo_calls == 1
            assert trace.m_star == 1


class TestCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small_registers(self, n):
        system = SpinSystem(n)
        for mask in range(1 << (1 << n)):
            f = function_from_mask(n, mask)
            trace = solve_parity(system, f)
            assert trace.parity == brute_parity(f), f"n={n} mask={mask}"
            assert trace.uo_calls <= n

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_randomized_larger_registers(self, n):
        rng = np.random.default_rng(100 + n)
        system = SpinSystem(n)
        for _ in range(150):
            f = random_function(n, rng)
            trace = solve_parity(system, f)
            assert trace.parity == brute_parity(f)
            assert trace.uo_calls <= n

    def test_nonuniform_polarization_is_irrelevant(self):
        rng = np.random.default_rng(140)
        system = SpinSystem(4, epsilon=(0.5, 1.25, 2.0, 0.75))
        for _ in range(40):
            f = random_function(4, rng)
            assert solve_parity(system, f).parity == brute_parity(f)

    def test_deterministic(self):
        f = PhaseFunction.random(5, 0.5, 999)
        system = SpinSystem(5)
        assert solve_parity(system, f) == solve_parity(system, f)


class TestTraceInvariants:
    def test_call_accounting(self):
        rng = np.random.default_rng(150)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            trace = solve_parity(SpinSystem(n), random_function(n, rng))
            assert trace.uo_calls == len(trace.iterations)
            assert trace.uf_calls == 2 * trace.uo_calls

    def test_base_run_amplitudes_share_mark_parity(self):
        rng = np.random.default_rng(151)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            f = random_function(n, rng)
            trace = solve_parity(SpinSystem(n), f)
            base = np.rint(trace.iterations[0].amplitudes).astype(int)
            assert np.all(base % 2 == mark_count(f) % 2)

    def test_mismatched_function_rejected(self):
        with pytest.raises(ValueError):
            solve_parity(SpinSystem(3), PhaseFunction.constant(2, +1))

    def test_run_trace_validation(self):
        with pytest.raises(ValueError):
            RunTrace((), 0, None)  # parity must be +/-1

    def test_snr_mode_same_answers(self):
        rng = np.random.default_rng(152)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            f = random_function(n, rng)
            plain = solve_parity(SpinSystem(n), f)
            scaled = solve_parity(SpinSystem(n), f, snr_mode=True)
            assert plain.parity == scaled.parity
            assert plain.m_star == scaled.m_star


class TestSignalInvariant:
    def test_threshold_below_round_off_never_silently_wrong(self):
        # at 1e-20 round-off residues of exact zeros escape the zero flag;
        # every such run must raise instead of steering the search
        rng = np.random.default_rng(0)
        raised = 0
        for _ in range(300):
            n = int(rng.integers(2, 7))
            f = PhaseFunction(n, rng.random(1 << n) < 0.5)
            try:
                trace = solve_parity(SpinSystem(n), f, threshold=1e-20)
            except SignalError:
                raised += 1
            else:
                assert trace.parity == brute_parity(f)
        assert raised > 0


class TestProjectedCallCounts:
    def test_thirty_spins(self):
        assert projected_call_counts(30) == {"uo": 30, "uf": 60}

    def test_small_registers(self):
        assert projected_call_counts(1) == {"uo": 1, "uf": 2}
        assert projected_call_counts(8) == {"uo": 8, "uf": 16}

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            projected_call_counts(0)
