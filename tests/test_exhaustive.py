"""Every Boolean function on n = 4 spins: all 65,536 truth tables.

Criterion 1 enumerates n = 2 and 3 exhaustively; here the solver is checked
on the whole of the next register size, in at most n runs each.
"""

import numpy as np

from spinparity import PhaseFunction, SpinSystem, brute_parity, solve_parity


def test_every_function_on_four_spins():
    n = 4
    system = SpinSystem(n)
    bits = (np.arange(1 << (1 << n))[:, None] >> np.arange(1 << n)) & 1 == 1
    wrong, over = [], []
    for mask, marks in enumerate(bits):
        f = PhaseFunction(n, marks)
        trace = solve_parity(system, f)
        if trace.parity != brute_parity(f):
            wrong.append(mask)
        if trace.uo_calls > n:
            over.append(mask)
    assert len(bits) == 65536
    assert not wrong, f"{len(wrong)} wrong parities, first masks {wrong[:5]}"
    assert not over, f"{len(over)} solves over {n} runs, first masks {over[:5]}"
