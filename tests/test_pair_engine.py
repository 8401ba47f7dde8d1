"""The O(nN) pair engine against the dense reference engine and the integer
reference, and the work the solver does through it."""

import numpy as np
import pytest

from spinparity import (
    PhaseFunction,
    ShiftSpec,
    SpinSystem,
    brute_shifted_signal,
    run_sequence,
    solve_parity,
)
from spinparity.ensemble import pair_sequence
from spinparity.spinops import op_counts, reset_op_counts

from helpers import function_from_mask

TOL = 1e-12


def _assert_engines_agree(system, f, spec, **kw):
    fast = pair_sequence(system, f, spec, **kw)
    dense = run_sequence(system, f, spec, **kw)
    exact = brute_shifted_signal(f, spec)
    scale = 2.0 / system.dim if kw.get("snr_mode") else 1.0
    where = f"n={f.n} marks={np.flatnonzero(f.marks).tolist()} shift={spec}"
    assert np.abs(np.subtract(fast.amplitudes, dense.amplitudes)).max() < TOL, where
    assert np.abs(np.subtract(fast.amplitudes, np.multiply(exact, scale))).max() < TOL, where
    assert fast.zero_flags == dense.zero_flags, where


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_small_registers(n):
    half = 1 << (n - 1)
    specs = [None] + [ShiftSpec(m, s) for m in range(1, half + 1) for s in (+1, -1)]
    system = SpinSystem(n)
    for mask in range(1 << (1 << n)):
        f = function_from_mask(n, mask)
        for spec in specs:
            _assert_engines_agree(system, f, spec)


@pytest.mark.parametrize("n", range(4, 11))
def test_random_functions_shifts_and_polarizations(n):
    rng = np.random.default_rng(400 + n)
    half = 1 << (n - 1)
    for i in range(6 if n < 10 else 3):
        system = SpinSystem(n, epsilon=tuple(rng.uniform(0.5, 2.0, n)))
        f = PhaseFunction(n, rng.random(1 << n) < rng.uniform(0.05, 0.95))
        spec = None
        if i % 3:
            spec = ShiftSpec(int(rng.integers(1, half + 1)), int(rng.choice((1, -1))))
        _assert_engines_agree(system, f, spec)


def test_snr_mode_agrees():
    rng = np.random.default_rng(411)
    for n in (2, 5, 7):
        system = SpinSystem(n)
        f = PhaseFunction(n, rng.random(1 << n) < 0.5)
        spec = ShiftSpec(int(rng.integers(1, (1 << (n - 1)) + 1)), -1)
        for s in (None, spec):
            _assert_engines_agree(system, f, s, threshold=0.1 / system.dim, snr_mode=True)


def test_rejects_bad_threshold_and_size_mismatch():
    f = PhaseFunction.single(2, 1)
    for threshold, snr_mode in [(0.0, False), (float("nan"), False), (1.0, False), (0.5, True)]:
        with pytest.raises(ValueError):
            pair_sequence(SpinSystem(2), f, threshold=threshold, snr_mode=snr_mode)
    with pytest.raises(ValueError):
        pair_sequence(SpinSystem(3), f)


def test_solver_op_counts_at_n10():
    # odd mark count: the base run finds no zero and the search probes n - 1
    # offsets, each run applying the oracle once and each probe the shift once
    rng = np.random.default_rng(412)
    while True:
        f = PhaseFunction(10, rng.random(1 << 10) < 0.5)
        if f.marks.sum() % 2:
            break
    reset_op_counts()
    trace = solve_parity(SpinSystem(10), f)
    counts = op_counts()
    shifted = sum(rec.m is not None for rec in trace.iterations)
    assert trace.parity == -1
    assert counts["diagonal"] == trace.uo_calls + shifted
    assert counts["dense"] == 0
