"""The O(nN) pair engine against the dense reference engine and the integer
reference, and the work the solver does through it."""

import tracemalloc

import numpy as np
import pytest

from spinparity import (
    PhaseFunction,
    ShiftSpec,
    SignalVector,
    SpinSystem,
    brute_parity,
    brute_shifted_signal,
    solve_parity,
)
from spinparity import ensemble
from spinparity.ensemble import pair_sequence
from spinparity.spinops import op_counts

from helpers import engine_cases

TOL = 1e-12


def _cases(n, shifted):
    """The cases of the shared pass over n spins: the base runs, or the
    shifted probes.  Every n has both."""
    cases = [case for case in engine_cases(n) if (case.spec is not None) == shifted]
    assert cases, f"n={n} shifted={shifted}"
    return cases


def _assert_readouts_agree(n):
    for case in engine_cases(n):
        at = case.where()
        assert np.abs(np.subtract(case.pair.amplitudes, case.dense.amplitudes)).max() < TOL, at
        assert np.abs(np.subtract(case.pair.amplitudes, case.exact)).max() < TOL, at
        assert case.pair.zero_flags == case.dense.zero_flags, at


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_small_registers(n):
    _assert_readouts_agree(n)


@pytest.mark.parametrize("n", range(4, 11))
def test_random_functions_shifts_and_polarizations(n):
    _assert_readouts_agree(n)


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("n", range(1, 11))
def test_amplitudes_are_whole_units(n, shifted):
    # exact integers, so no amplitude sits strictly between a flagged zero
    # and one unit, and the fixed floor tells every zero from every nonzero
    for case in _cases(n, shifted):
        for a in case.pair.amplitudes:
            assert a == round(a), case.where()


def _assert_built_like_public_constructor(sig, where):
    """The engines build their readout without the constructor's checks: it
    must hold Python floats and bools and be what the constructor builds."""
    assert all(type(a) is float for a in sig.amplitudes), where
    assert all(type(z) is bool for z in sig.zero_flags), where
    assert sig == SignalVector(sig.amplitudes, sig.zero_flags, sig.threshold), where


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("n", range(1, 11))
def test_pair_readout_passes_public_constructor(n, shifted):
    for case in _cases(n, shifted):
        _assert_built_like_public_constructor(case.pair, case.where())


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("n", range(1, 11))
def test_dense_readout_passes_public_constructor(n, shifted):
    for case in _cases(n, shifted):
        _assert_built_like_public_constructor(case.dense, case.where())


@pytest.mark.parametrize("n", range(1, 11))
def test_equals_integer_reference_exactly(n):
    for case in engine_cases(n):
        assert case.pair.amplitudes == tuple(map(float, case.exact)), case.where()
        assert case.pair.zero_flags == case.dense.zero_flags, case.where()


def _large_cases(n):
    """Seeded functions from sparse to dense, each with no shift, the edge
    shifts m = 1 and m = N/2 and a random shift, on both spin-1 branches."""
    rng = np.random.default_rng(500 + n)
    half = 1 << (n - 1)
    for density in (0.02, 0.5, 0.98):
        f = PhaseFunction(n, rng.random(1 << n) < density)
        m = int(rng.integers(2, half))
        yield f, None
        for size, sign in ((1, 1), (half, -1), (m, 1), (m, -1)):
            yield f, ShiftSpec(size, sign)


@pytest.mark.parametrize("n", range(9, 13))
def test_equals_integer_reference_exactly_on_large_registers(n):
    # bit planes of 512 to 4096 bits: many machine words per plane
    system = SpinSystem(n)
    for f, spec in _large_cases(n):
        fast = pair_sequence(system, f, spec)
        exact = tuple(float(a) for a in brute_shifted_signal(f, spec))
        where = f"n={n} marks={int(f.marks.sum())} shift={spec}"
        assert fast.amplitudes == exact, where
        assert fast.zero_flags == tuple(a == 0 for a in exact), where


def test_readout_allocates_no_per_index_arrays():
    # a run holds two N-bit planes and a few shifted copies (512 B each at
    # n = 12), no per-index or per-pair arrays
    n = 12
    system = SpinSystem(n)
    f = PhaseFunction(n, np.random.default_rng(414).random(1 << n) < 0.5)
    spec = ShiftSpec(1234, -1)
    pair_sequence(system, f, spec)  # build the per-n cache outside the window
    tracemalloc.start()
    try:
        pair_sequence(system, f, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 1024, peak


@pytest.mark.parametrize("n", range(1, 15))
def test_low_masks_match_per_index_construction(n):
    N = 1 << n
    for k, (step, low) in enumerate(ensemble._low_masks(n), start=1):
        assert step == 1 << (n - k)
        assert low == sum(1 << x for x in range(N) if not (x >> (n - k)) & 1), f"n={n} k={k}"


def test_rejects_oversized_shift():
    with pytest.raises(ValueError):
        pair_sequence(SpinSystem(3), PhaseFunction.single(3, 1), ShiftSpec(5, +1))


def test_solver_builds_no_phase_vectors(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the solver built a complex phase vector")

    monkeypatch.setattr(ensemble, "phase_oracle", forbidden)
    monkeypatch.setattr(ensemble, "shift_unitary_direct", forbidden)
    rng = np.random.default_rng(413)
    for _ in range(5):
        f = PhaseFunction(10, rng.random(1 << 10) < 0.5)
        assert solve_parity(SpinSystem(10), f).parity == brute_parity(f)


def test_rejects_size_mismatch():
    with pytest.raises(ValueError):
        pair_sequence(SpinSystem(3), PhaseFunction.single(2, 1))


def test_solver_op_counts_at_n10():
    # odd mark count: the base run finds no zero and the search probes n - 1
    # offsets, each run applying the oracle once and each probe the shift once
    rng = np.random.default_rng(412)
    while True:
        f = PhaseFunction(10, rng.random(1 << 10) < 0.5)
        if f.marks.sum() % 2:
            break
    before = op_counts()
    trace = solve_parity(SpinSystem(10), f)
    after = op_counts()
    shifted = sum(rec.m is not None for rec in trace.iterations)
    assert trace.parity == -1
    assert after["diagonal"] - before["diagonal"] == trace.uo_calls + shifted
    assert after["dense"] - before["dense"] == 0
