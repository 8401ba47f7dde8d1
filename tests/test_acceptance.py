"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from spinparity import (
    PhaseFunction,
    ShiftSpec,
    SpinSystem,
    brute_parity,
    brute_shift_sums,
    brute_spin_sums,
    conjugate,
    evolved_purged_state,
    initial_state,
    phase_oracle,
    run_sequence,
    shift_unitary_direct,
    solve_parity,
)
from spinparity.spinops import op_counts
from spinparity.verification import (
    oracle_conjugation_expansion,
    oracle_evolution_expansion,
    projected_call_counts,
    selective_conjugation_expansion,
    selective_phase_shift,
    shift_unitary_compiled,
    spin_operator,
)

from helpers import function_from_mask, random_deviation_state, random_function


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} [{label}] failed{suffix}"


def _longitudinal_target(system, per_spin):
    n, N = system.n, system.dim
    return (2.0 / N) * sum(
        system.epsilon[k - 1] * per_spin[k - 1] * spin_operator(n, k, "z")
        for k in range(1, n + 1)
    )


def test_criterion_1_parity_correctness():
    failures = []
    worst_runs = 0
    for n in (2, 3):
        system = SpinSystem(n)
        for mask in range(1 << (1 << n)):
            f = function_from_mask(n, mask)
            trace = solve_parity(system, f)
            worst_runs = max(worst_runs, trace.uo_calls - n)
            if trace.parity != brute_parity(f) or trace.uo_calls > n:
                failures.append((n, mask))
    rng = np.random.default_rng(1001)
    for n in (4, 5, 6, 7, 8):
        system = SpinSystem(n)
        for _ in range(500):
            f = random_function(n, rng)
            trace = solve_parity(system, f)
            if trace.parity != brute_parity(f) or trace.uo_calls > n:
                failures.append((n, tuple(np.flatnonzero(f.marks))))
    _verdict(
        1,
        "parity correctness in <= n runs",
        not failures,
        f"exhaustive n=2,3 plus 500 random per n=4..8; failures: {failures[:3]}",
    )


def test_criterion_2_base_state_reproduction():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for n in range(2, 7):
        cases = [SpinSystem(n), SpinSystem(n, epsilon=tuple(rng.uniform(0.5, 2.0, n)))]
        for system in cases:
            for _ in range(30):
                f = random_function(n, rng)
                got = evolved_purged_state(system, f).rho
                want = _longitudinal_target(system, brute_spin_sums(f))
                worst = max(worst, float(np.linalg.norm(got - want)))
    _verdict(2, "base sequence state", worst < 1e-9, f"max Frobenius error {worst:.2e}")


def test_criterion_3_shifted_state_reproduction():
    """Asserts the shifted purged state equals the additive-offset diagonal
    form.  The simulated unitary dynamics disagree with that form whenever a
    marked index and a shift member face each other across some spin's index
    pairs: their quarter-turn phases add to a half turn whose transverse
    projection vanishes, so such pairs contribute 0 rather than +/-2.  The
    criterion is kept exactly as stated; the readout's true closed form, its
    agreement modulo 2 with the additive form, and the search's correctness
    are all verified elsewhere (test_ensemble.py, test_protocol.py,
    criterion 1)."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    bad = []
    for n in range(2, 7):
        system = SpinSystem(n)
        for _ in range(40):
            f = random_function(n, rng)
            sums = brute_spin_sums(f)
            sign = (1 if sums[0] > 0 else -1) if sums[0] != 0 else int(rng.choice([-1, 1]))
            spec = ShiftSpec(int(rng.integers(1, (1 << (n - 1)) + 1)), sign)
            got = evolved_purged_state(system, f, spec).rho
            offsets = brute_shift_sums(spec, n)
            want = _longitudinal_target(system, [p - m for p, m in zip(sums, offsets)])
            err = float(np.linalg.norm(got - want))
            worst = max(worst, err)
            if err >= 1e-9 and len(bad) < 3:
                bad.append(
                    f"n={n} marks={[int(x) for x in np.flatnonzero(f.marks)]} m={spec.m} "
                    f"sign={spec.sign} sums={sums} offsets={tuple(offsets)} err={err:.3f}"
                )
    _verdict(
        3,
        "shifted sequence state",
        worst < 1e-9,
        f"max Frobenius error {worst:.2e}; first mismatches: {bad}",
    )


def test_criterion_4_closed_form_equivalence():
    rng = np.random.default_rng(1004)
    worst_sel = worst_orc = worst_evo = 0.0
    for n in range(2, 6):
        for _ in range(100):
            system = SpinSystem(n, epsilon=tuple(rng.uniform(0.5, 2.0, n)))
            state = random_deviation_state(n, rng)
            f = random_function(n, rng)
            theta = float(rng.uniform(0, 2 * np.pi))
            s = int(rng.integers(0, 1 << n))

            a = selective_conjugation_expansion(state, s, theta).rho
            b = conjugate(selective_phase_shift(n, s, theta), state).rho
            worst_sel = max(worst_sel, float(np.abs(a - b).max()))

            a = oracle_conjugation_expansion(state, f, theta).rho
            b = conjugate(phase_oracle(f, theta), state).rho
            worst_orc = max(worst_orc, float(np.abs(a - b).max()))

            a = oracle_evolution_expansion(system, f, theta).rho
            b = conjugate(phase_oracle(f, theta), initial_state(system)).rho
            worst_evo = max(worst_evo, float(np.abs(a - b).max()))
    ok = worst_sel < 1e-10 and worst_orc < 1e-10 and worst_evo < 1e-9
    _verdict(
        4,
        "closed forms vs direct conjugation",
        ok,
        f"selective {worst_sel:.2e}, oracle {worst_orc:.2e}, evolution {worst_evo:.2e}",
    )


def test_criterion_5_shift_compiler():
    worst = 0.0
    worst_factors = 0
    for n in range(2, 7):
        for m in range(1, (1 << (n - 1)) + 1):
            for sign in (+1, -1):
                spec = ShiftSpec(m, sign)
                direct = shift_unitary_direct(spec, n).phases
                comp = shift_unitary_compiled(spec, n)
                got = comp.unitary.phases
                # align the global phase before comparing, then compare raw
                align = got[0] / direct[0]
                worst = max(worst, float(np.abs(got / align - direct).max()))
                worst = max(worst, float(np.abs(got - direct).max()))
                worst_factors = max(worst_factors, len(comp.factors) - (3 * n + 1))
    ok = worst < 1e-12 and worst_factors <= 0
    _verdict(5, "compiled shift circuit", ok, f"max phase error {worst:.2e}, factor slack {worst_factors}")


def test_criterion_6_commutation():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f = random_function(n, rng)
        spec = ShiftSpec(int(rng.integers(1, (1 << (n - 1)) + 1)), int(rng.choice([-1, 1])))
        um = shift_unitary_direct(spec, n)
        uo = phase_oracle(f, float(rng.uniform(0, 2 * np.pi)))
        worst = max(worst, float(np.abs(um.phases * uo.phases - uo.phases * um.phases).max()))
    _verdict(6, "shift commutes with oracle", worst < 1e-12, f"max elementwise error {worst:.2e}")


def test_criterion_7_call_accounting():
    analytic_ok = projected_call_counts(30) == {"uo": 30, "uf": 60}
    rng = np.random.default_rng(1007)
    sim_ok = True
    for n in range(1, 9):
        system = SpinSystem(n)
        for _ in range(50):
            trace = solve_parity(system, random_function(n, rng))
            if trace.uo_calls > n or trace.uf_calls > 2 * n:
                sim_ok = False
    _verdict(
        7,
        "oracle-call accounting",
        analytic_ok and sim_ok,
        "projection {30, 60} at n=30; simulated runs within {n, 2n} for n<=8",
    )


def test_criterion_8_degenerate_functions():
    ok = True
    for n in range(1, 9):
        system = SpinSystem(n)
        for value in (+1, -1):
            trace = solve_parity(system, PhaseFunction.constant(n, value))
            zeros = all(abs(a) < 1e-9 for a in trace.iterations[0].amplitudes)
            if trace.parity != +1 or trace.uo_calls != 1 or not zeros:
                ok = False
    _verdict(8, "constant functions resolve in one all-zero run", ok)


def test_criterion_9_signal_scale():
    rng = np.random.default_rng(1009)
    ok = True
    detail = []
    for n in range(2, 7):
        N = 1 << n
        eps = tuple(float(e) for e in rng.uniform(0.5, 2.0, n))
        system = SpinSystem(n, epsilon=eps)
        fs = [PhaseFunction.single(n, int(x)) for x in rng.integers(0, N, 4)]
        fs += [random_function(n, rng) for _ in range(30)]
        min_coeff = [np.inf] * n
        max_coeff = [0.0] * n
        for f in fs:
            sig = run_sequence(system, f)
            for k in range(n):
                coeff = abs(sig.amplitudes[k]) * eps[k] * 2.0 / N
                if coeff > 1e-12:
                    min_coeff[k] = min(min_coeff[k], coeff)
                max_coeff[k] = max(max_coeff[k], coeff)
        for k in range(n):
            floor = 2.0 * eps[k] / N
            if abs(min_coeff[k] - floor) > 1e-12 * floor or max_coeff[k] > eps[k] + 1e-12:
                ok = False
                detail.append(f"n={n} spin={k + 1} min={min_coeff[k]:.3e} floor={floor:.3e}")
    _verdict(9, "minimum nonzero signal scale 2*eps/N", ok, "; ".join(detail))


def test_criterion_10_performance():
    system9, system10 = SpinSystem(9), SpinSystem(10)
    f9 = PhaseFunction.random(9, 0.5, 10)
    f10 = PhaseFunction.random(10, 0.5, 10)
    run_sequence(system9, f9)  # warm-up
    run_sequence(system10, f10)

    # interleaved min-of-8 pairs to ride out shared-CPU noise
    before = op_counts()
    t9 = t10 = np.inf
    for _ in range(8):
        t0 = time.perf_counter()
        run_sequence(system9, f9)
        t9 = min(t9, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_sequence(system10, f10)
        t10 = min(t10, time.perf_counter() - t0)
    dense = op_counts()["dense"] - before["dense"]
    ratio = t10 / t9
    ok = t10 < 5.0 and dense == 0 and 2.0 <= ratio <= 8.0
    _verdict(
        10,
        "performance and quadratic scaling",
        ok,
        f"n=10 run {t10 * 1e3:.1f} ms, ratio n=9->10 {ratio:.2f}, dense conjugations {dense}",
    )
