"""Shared test utilities."""

import numpy as np

from spinparity import DeviationState, PhaseFunction


def random_deviation_state(n: int, rng: np.random.Generator) -> DeviationState:
    """Random traceless Hermitian matrix on n spins."""
    N = 1 << n
    raw = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    herm = 0.5 * (raw + raw.conj().T)
    herm -= np.eye(N) * herm.trace() / N
    return DeviationState(herm)


def copy_state(state: DeviationState) -> DeviationState:
    """A state on a copy of ``state``'s array: the dense stages transform the
    state they are given in place, so a test that reads the input afterwards
    passes them a copy."""
    return DeviationState(state.rho.copy(), validate=False)


def random_function(n: int, rng: np.random.Generator, density: float = None) -> PhaseFunction:
    d = float(rng.uniform(0.05, 0.95)) if density is None else density
    return PhaseFunction(n, rng.random(1 << n) < d)


def function_from_mask(n: int, mask: int) -> PhaseFunction:
    """Truth table enumerated by an integer bitmask (bit x marks index x)."""
    return PhaseFunction(n, [(mask >> x) & 1 == 1 for x in range(1 << n)])
