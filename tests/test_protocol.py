import numpy as np
import pytest

from spinparity import (
    PhaseFunction,
    RunTrace,
    SignalError,
    SignalVector,
    ShiftSpec,
    SpinSystem,
    brute_parity,
    brute_spin_sums,
    solve_parity,
)
from spinparity import protocol
from spinparity.ensemble import DEFAULT_THRESHOLD, pair_sequence

from helpers import _exhaustive, function_from_mask, random_function
from verification import projected_call_counts


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


def _walk_cases():
    """Every function and shift for n <= 3; seeded functions at n = 4..8
    with every offset and both branch signs."""
    for n in (1, 2, 3):
        for system, f, spec in _exhaustive(n):
            if spec is not None:
                yield system, f, spec
    for n in range(4, 9):
        rng = np.random.default_rng(700 + n)
        system = SpinSystem(n)
        for _ in range(4):
            f = random_function(n, rng)
            for m in range(1, system.dim // 2 + 1):
                for sign in (+1, -1):
                    yield system, f, ShiftSpec(m, sign)


def test_spin_one_walk_closed_form():
    # sign * a_1(m) = sign * S_1 - m + 2 C(m), where C(m) counts the spin-1
    # pairs (r, r + N/2), r < m, whose shifted member (r for sign +1,
    # r + N/2 for sign -1) is unmarked and whose other member is marked
    checked = 0
    for system, f, spec in _walk_cases():
        half = system.dim // 2
        g, m, sign = f.marks, spec.m, spec.sign
        if sign > 0:
            c = sum(1 for r in range(m) if not g[r] and g[r + half])
        else:
            c = sum(1 for r in range(m) if g[r] and not g[r + half])
        a1 = pair_sequence(system, f, spec).amplitudes[0]
        want = sign * brute_spin_sums(f)[0] - m + 2 * c
        at = f"n={f.n} marks={np.flatnonzero(g).tolist()} shift={spec}"
        assert sign * a1 == want, at
        if m == half:
            # the crossing guarantee: spin-1 pairs with one mark, minus N/2
            assert want <= 0, at
        checked += 1
    assert checked == 2120 + 4 * sum(1 << n for n in range(4, 9))


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
            assert np.all(base % 2 == f.marks.sum() % 2)

    def test_mismatched_function_rejected(self):
        # the base run's engine call raises before any work
        with pytest.raises(ValueError, match=r"^truth table is for n=2, system has n=3$"):
            solve_parity(SpinSystem(3), PhaseFunction.constant(2, +1))

    def test_run_trace_validation(self):
        with pytest.raises(ValueError):
            RunTrace((), 0, None)  # parity must be +/-1

    def test_snr_mode_same_answers(self):
        # protocol alone applies the 2/N scale: every recorded amplitude is
        # the plain one times 2/N, bit for bit, and every decision is the
        # plain one but for the amplitude it prints
        rng = np.random.default_rng(152)
        for n in range(1, 11):
            system, scale = SpinSystem(n), 2.0 / (1 << n)
            fs = [PhaseFunction.constant(n, +1), PhaseFunction.constant(n, -1)]
            base_only = walks = 0
            for _ in range(500):
                if base_only >= 3 and walks >= 3:
                    break
                f = random_function(n, rng)
                odd = f.marks.sum() % 2 == 1
                zero = 0 in brute_spin_sums(f)
                if (odd and walks < 3) or (zero and base_only < 3):
                    fs.append(f)
                    walks, base_only = walks + odd, base_only + zero
            assert walks >= 3 and base_only >= 3, n
            for f in fs:
                plain = solve_parity(system, f)
                scaled = solve_parity(system, f, snr_mode=True)
                where = f"n={n} marks={np.flatnonzero(f.marks).tolist()}"
                assert (scaled.parity, scaled.m_star) == (plain.parity, plain.m_star), where
                assert len(scaled.iterations) == len(plain.iterations), where
                for p, s in zip(plain.iterations, scaled.iterations):
                    assert (s.m, s.sign) == (p.m, p.sign), where
                    want = [(a * scale).hex() for a in p.amplitudes]
                    assert [a.hex() for a in s.amplitudes] == want, where
                    printed = f"amplitude {p.amplitudes[0]:+.12g};"
                    assert s.decision == p.decision.replace(
                        printed, f"amplitude {s.amplitudes[0]:+.12g};"
                    ), where


class TestSignalInvariant:

    @pytest.mark.parametrize("snr_mode", [False, True])
    @pytest.mark.parametrize("bad_probe", [0, 1, 4])
    def test_probe_one_unit_off_raises(self, monkeypatch, snr_mode, bad_probe):
        # an odd-count table whose solve takes all n = 6 runs, so every probe
        # index used here is reached
        rng = np.random.default_rng(160)
        f = random_function(6, rng)
        while f.marks.sum() % 2 == 0:
            f = random_function(6, rng)
        system = SpinSystem(6)
        assert solve_parity(system, f, snr_mode=snr_mode).uo_calls == 6
        real = protocol.run_sequence
        probes = []

        def one_unit_off(system, f, shift):
            sig = real(system, f, shift)
            if shift is None:
                return sig
            probes.append(shift.m)
            if len(probes) - 1 != bad_probe:
                return sig
            amps = (sig.amplitudes[0] + 1.0,) + sig.amplitudes[1:]
            flags = tuple(abs(a) < DEFAULT_THRESHOLD for a in amps)
            return SignalVector(amps, flags, DEFAULT_THRESHOLD)

        monkeypatch.setattr(protocol, "run_sequence", one_unit_off)
        with pytest.raises(SignalError, match="parity walk"):
            solve_parity(system, f, snr_mode=snr_mode)
        assert len(probes) == bad_probe + 1


class TestProjectedCallCounts:
    def test_thirty_spins(self):
        assert projected_call_counts(30) == {"uo": 30, "uf": 60}

    def test_small_registers(self):
        assert projected_call_counts(1) == {"uo": 1, "uf": 2}
        assert projected_call_counts(8) == {"uo": 8, "uf": 16}

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            projected_call_counts(0)

    @pytest.mark.parametrize("n", [True, False, np.True_, 2.5, 3.0, "3", None])
    def test_rejects_non_integer_count(self, n):
        # uncapped, but a bool or a float is no spin count, though True == 1
        with pytest.raises(ValueError, match=r"^spin count must be an integer, got "):
            projected_call_counts(n)

    def test_numpy_integer_count_gives_python_ints(self):
        counts = projected_call_counts(np.int64(30))
        assert counts == {"uo": 30, "uf": 60}
        assert all(type(c) is int for c in counts.values())
