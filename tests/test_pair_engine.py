"""The O(nN) pair engine against the dense reference engine, the integer
reference and the generic mod-4 add, and the work the solver does through
it."""

import tracemalloc

import numpy as np
import pytest

from spinparity import (
    PhaseFunction,
    ShiftSpec,
    SignalVector,
    SpinSystem,
    bit_sign_table,
    brute_parity,
    brute_shifted_signal,
    solve_parity,
)
from spinparity import ensemble, protocol
from spinparity.protocol import pair_sequence
from spinparity.spinops import op_counts

from helpers import engine_cases, same_bytes
from verification import apply_diagonal

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


@pytest.mark.parametrize("n", range(1, 11))
def test_purge_changes_no_amplitude(n, monkeypatch):
    # both filters write only off-diagonal elements and the readout reads
    # only the diagonal, so the pulse's output already holds the amplitudes
    pulsed, real_pulse = [], ensemble.apply_pulse

    def pulse(state, angle):
        out = real_pulse(state, angle)
        pulsed.append(np.diag(out.rho).real.copy())
        return out

    monkeypatch.setattr(ensemble, "apply_pulse", pulse)
    signs = bit_sign_table(n)
    for case in engine_cases(n):
        pulsed.clear()
        ensemble.evolved_purged_state(case.system, case.f, case.spec)
        unpurged = signs @ pulsed[0] / np.asarray(case.system.epsilon)
        assert same_bytes(unpurged, np.array(case.dense.amplitudes)), case.where()


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


def _pair_sums(n, q):
    """Each spin's sum of ``sin(pi/2 * (q_r - q_c))`` over its index pairs
    ``(r, c = r + 2^(n-k))``, read per index off the planes ``q``."""
    N = 1 << n
    q0, q1 = (np.unpackbits(np.frombuffer(p.to_bytes(max(N // 8, 1), "little"), np.uint8),
                            bitorder="little")[:N].astype(np.int64) for p in q)
    exps = q0 + 2 * q1
    sine = np.array([0, 1, 0, -1])
    x = np.arange(N)
    sums = []
    for k in range(1, n + 1):
        step = 1 << (n - k)
        r = x[(x & step) == 0]
        sums.append(int(sine[(exps[r] - exps[r + step]) % 4].sum()))
    return sums


@pytest.mark.parametrize("n", range(1, 13))
def test_kernel_planes_are_two_generic_adds(n):
    # the kernel's inline planes q0 = g ^ e, q1 = ~g & e are the oracle's +1
    # add on g then the shift's -1 add on e; random bitsets, not just
    # blocks, and e = 0 for an unshifted run
    rng = np.random.default_rng(700 + n)
    N = 1 << n
    for i in range(6):
        g = int.from_bytes(rng.bytes(max(N // 8, 1)), "little") & ((1 << N) - 1)
        e = 0 if i == 0 else int.from_bytes(rng.bytes(max(N // 8, 1)), "little") & ((1 << N) - 1)
        q = apply_diagonal(apply_diagonal((0, 0), g, +1), e, -1)
        assert protocol.run_sequence(n, g, e) == _pair_sums(n, q), f"n={n} g={g:#x} e={e:#x}"


@pytest.mark.parametrize("n", range(1, 15))
def test_low_masks_match_per_index_construction(n):
    N = 1 << n
    for k, (step, low) in enumerate(protocol._low_masks(n), start=1):
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

    def added(run):
        before = op_counts()
        run()
        after = op_counts()
        return after["diagonal"] - before["diagonal"], after["dense"] - before["dense"]

    system = SpinSystem(10)
    even = PhaseFunction.from_marks(10, [3, 700])
    assert solve_parity(system, even).uo_calls == 1
    # a base-only solve: one oracle add; a single run: one more per shift
    assert added(lambda: solve_parity(system, even)) == (1, 0)
    assert added(lambda: pair_sequence(system, f)) == (1, 0)
    assert added(lambda: pair_sequence(system, f, ShiftSpec(300, -1))) == (2, 0)
