"""Shared test utilities."""

import functools
from typing import NamedTuple

import numpy as np

from spinparity import (
    DeviationState,
    PhaseFunction,
    ShiftSpec,
    SignalVector,
    SpinSystem,
    brute_shifted_signal,
    evolved_purged_state,
    read_signal,
)
from spinparity import _workers
from spinparity.ensemble import pair_sequence


def random_deviation_state(n: int, rng: np.random.Generator) -> DeviationState:
    """Random traceless Hermitian matrix on n spins."""
    N = 1 << n
    re, im = rng.normal(size=(N, N)), rng.normal(size=(N, N))
    # the Hermitian part of re + 1j * im, built in place, with its trace removed
    herm = np.empty((N, N), dtype=complex)
    np.add(re, re.T, out=herm.real)
    np.subtract(im, im.T, out=herm.imag)
    herm *= 0.5
    herm.reshape(-1)[:: N + 1] -= herm.trace() / N
    return DeviationState(herm)


def random_complex_state(n: int, rng: np.random.Generator) -> DeviationState:
    """A state whose every element is a random complex number, with no
    structure at all: for checks that compare two ways of running a stage,
    byte for byte."""
    N = 1 << n
    return DeviationState(rng.random((N, 2 * N)).view(complex), validate=False)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two arrays hold the same bytes: unlike ``==``, this tells
    -0.0 from 0.0 and matches NaN with the same NaN."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def split_and_serial(monkeypatch, run):
    """``run()`` with the dense stages split over 3 workers, then with one
    worker, each with the CPU count the stages see patched; the split one
    deals out more than two runs per stage even on a 2-CPU machine."""
    monkeypatch.setattr(_workers, "_cpu_count", lambda: 3)
    split = run()
    monkeypatch.setattr(_workers, "_cpu_count", lambda: 1)
    return split, run()


def copy_state(state: DeviationState) -> DeviationState:
    """A state on a copy of ``state``'s array: the dense stages transform the
    state they are given in place, so a test that reads the input afterwards
    passes them a copy."""
    return DeviationState(state.rho.copy(), validate=False)


def random_function(n: int, rng: np.random.Generator, density: float = None) -> PhaseFunction:
    d = float(rng.uniform(0.05, 0.95)) if density is None else density
    return PhaseFunction(n, rng.random(1 << n) < d)


def format_truth_table(f: PhaseFunction) -> str:
    """``f`` in the CLI's truth-table file format, which
    ``cli.parse_truth_table_text`` reads back."""
    row = "".join("-" if m else "+" for m in f.marks)
    return f"{f.n}\n{row}\n"


def function_from_mask(n: int, mask: int) -> PhaseFunction:
    """Truth table enumerated by an integer bitmask (bit x marks index x)."""
    return PhaseFunction(n, [(mask >> x) & 1 == 1 for x in range(1 << n)])


def _exhaustive(n):
    """Every function and every shift of an n-spin register."""
    half = 1 << (n - 1)
    specs = [None] + [ShiftSpec(m, s) for m in range(1, half + 1) for s in (+1, -1)]
    system = SpinSystem(n)
    for mask in range(1 << (1 << n)):
        f = function_from_mask(n, mask)
        for spec in specs:
            yield system, f, spec


def _seeded(n):
    """Seeded random functions, shifts and polarizations of an n-spin register."""
    rng = np.random.default_rng(400 + n)
    half = 1 << (n - 1)
    for i in range(6 if n < 10 else 3):
        system = SpinSystem(n, epsilon=tuple(rng.uniform(0.5, 2.0, n)))
        f = PhaseFunction(n, rng.random(1 << n) < rng.uniform(0.05, 0.95))
        spec = None
        if i % 3:
            spec = ShiftSpec(int(rng.integers(1, half + 1)), int(rng.choice((1, -1))))
        yield system, f, spec


class EngineCase(NamedTuple):
    system: SpinSystem
    f: PhaseFunction
    spec: ShiftSpec
    exact: tuple  # brute_shifted_signal(f, spec)
    pair: SignalVector  # pair_sequence's readout
    dense: SignalVector  # run_sequence's readout

    def where(self) -> str:
        return f"n={self.f.n} marks={np.flatnonzero(self.f.marks).tolist()} shift={self.spec}"


@functools.lru_cache(maxsize=None)
def engine_cases(n: int) -> tuple:
    """Every function and shift of an n-spin register for n <= 3, seeded ones
    above, each read once by each engine.  Cached per n, so the
    engine-agreement tests, each checking one property of these readouts,
    share one dense run per case."""
    cases = []
    for system, f, spec in _exhaustive(n) if n <= 3 else _seeded(n):
        dense = read_signal(evolved_purged_state(system, f, spec), system)
        pair = pair_sequence(system, f, spec)
        cases.append(EngineCase(system, f, spec, brute_shifted_signal(f, spec), pair, dense))
    return tuple(cases)
