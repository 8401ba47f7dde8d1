"""The benchmark's seeded workloads and the correctness gate every operation
passes through.

Each workload is one closed loop with one client.  Input ``i`` is generated
from ``(seed, i)`` alone, so a replay of the same seed sees the same inputs,
and the program receives only the generated truth tables.  ``run`` is the
timed operation; ``check`` compares its answer with the brute-force
``reference`` module afterwards, outside the timed section.

Every call into the program goes through a module attribute (``protocol.
solve_parity``, ``cli.main``, ...) so that the traced run can wrap it.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from spinparity import cli, ensemble, protocol, reference
from spinparity.oracles import PhaseFunction, ShiftSpec
from spinparity.spinops import SpinSystem, op_counts

# Amplitudes are floats that carry an integer signal; the reference is that
# integer.  Same absolute tolerance as the test suite.
AMP_TOL = 1e-9


class GateFailure(Exception):
    """An operation's answer disagrees with the reference."""


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def random_table(rng: np.random.Generator, n: int) -> PhaseFunction:
    """Truth table with each index marked with probability 0.5."""
    return PhaseFunction(n, rng.random(1 << n) < 0.5)


def collides(f: PhaseFunction, spec: ShiftSpec) -> bool:
    """Whether a marked index faces a shift member across some spin's index
    pair.  There the two quarter turns add to a half turn and the amplitude
    leaves the additive form: the quantity behind acceptance criterion 3."""
    if spec is None:
        return False
    n, N = f.n, f.dim
    block = reference.brute_shift_index_set(spec, n)
    q = f.marks.astype(np.int64)
    q[block.start:block.stop] -= 1
    x = np.arange(N)
    for k in range(1, n + 1):
        step = 1 << (n - k)
        r = x[(x & step) == 0]
        if np.any(np.abs(q[r] - q[r + step]) == 2):
            return True
    return False


@dataclass
class Outcome:
    """Facts about one verified operation that the benchmark reports."""

    uo_calls: int
    solves: int = 0
    base_only: int = 0
    shifted_runs: int = 0
    collisions: int = 0


def check_amplitudes(f: PhaseFunction, spec: ShiftSpec, amps) -> None:
    want = reference.brute_shifted_signal(f, spec)
    if len(amps) != len(want) or any(abs(a - w) > AMP_TOL for a, w in zip(amps, want)):
        raise GateFailure(f"amplitudes {list(amps)} differ from reference {list(want)} (shift {spec})")


def check_search(f: PhaseFunction, parity, rows, counts) -> Outcome:
    """Gate for one parity search.

    ``rows`` holds ``(m, sign, amplitudes)`` per sequence run, ``m`` None for
    the base run; ``counts`` is the (diagonal, dense) conjugation count the
    search caused.  ``parity`` None skips the parity comparison, for reports
    that do not carry it.
    """
    n = f.n
    if parity is not None and parity != reference.brute_parity(f):
        raise GateFailure(f"parity {parity:+d} but the reference says {reference.brute_parity(f):+d}")
    if not 1 <= len(rows) <= n:
        raise GateFailure(f"{len(rows)} oracle calls for n={n}")
    outcome = Outcome(uo_calls=len(rows), solves=1, base_only=int(len(rows) == 1))
    for m, sign, amps in rows:
        spec = None if m is None else ShiftSpec(m, sign)
        check_amplitudes(f, spec, amps)
        if spec is not None:
            outcome.shifted_runs += 1
            outcome.collisions += collides(f, spec)
    diagonal, dense = counts
    if dense:
        raise GateFailure(f"{dense} dense conjugations")
    # one oracle conjugation per run plus one shift conjugation per probe:
    # checks the reported oracle-call count against work actually done
    if diagonal != len(rows) + outcome.shifted_runs:
        raise GateFailure(f"{diagonal} diagonal conjugations for {len(rows)} reported runs")
    return outcome


class SolveN10:
    """Library ``solve_parity`` at n=10 on seeded random tables of odd mark
    count, which always take exactly n runs (see README)."""

    name = "solve-n10"
    n = 10

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.system = SpinSystem(self.n)

    def warm_up(self) -> None:
        # the constant function is decided by its base run: one sequence run
        # fills the bit-sign table and the coherence masks
        protocol.solve_parity(self.system, PhaseFunction.constant(self.n))

    def make_input(self, i: int) -> PhaseFunction:
        rng = _rng(self.seed, i)
        while True:
            f = random_table(rng, self.n)
            if f.marks.sum() % 2:
                return f

    def run(self, f):
        return protocol.solve_parity(self.system, f)

    def check(self, f, trace, counts) -> Outcome:
        if trace.uo_calls != len(trace.iterations):
            raise GateFailure("oracle-call count differs from the iteration count")
        rows = [(rec.m, rec.sign, rec.amplitudes) for rec in trace.iterations]
        return check_search(f, trace.parity, rows, counts)


class CliSmall:
    """In-process ``cli.main`` requests with ``--verify``, each on a fresh
    seeded truth-table file, n cycling through 2..6, alternating JSON and
    CSV reports."""

    name = "cli-small"
    sizes = (2, 3, 4, 5, 6)
    n = max(sizes)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.table = os.path.join(workdir, "table.txt")
        self.out = os.path.join(workdir, "report.out")

    def warm_up(self) -> None:
        for n in self.sizes:
            status = cli.main(["--n", str(n), "--function", "const-plus", "--verify", "--out", self.out])
            if status != 0:
                raise RuntimeError(f"warm-up request at n={n} exited with {status}")
        os.remove(self.out)

    def make_input(self, i: int):
        f = random_table(_rng(self.seed, i), self.sizes[i % len(self.sizes)])
        with open(self.table, "w", encoding="ascii") as fh:
            fh.write(f"{f.n}\n" + "".join("-" if m else "+" for m in f.marks) + "\n")
        return f, ("json", "csv")[i % 2]

    def run(self, inp):
        _, fmt = inp
        return cli.main(["--function", f"file:{self.table}", "--verify", "--format", fmt, "--out", self.out])

    def check(self, inp, status, counts) -> Outcome:
        f, fmt = inp
        # take the report off disk first, so a request that writes none
        # cannot be checked against its predecessor's
        try:
            with open(self.out, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(self.out)
        except FileNotFoundError:
            text = None
        if status != 0:
            raise GateFailure(f"exit status {status}")
        if text is None:
            raise GateFailure("no report written")
        if fmt == "json":
            rep = json.loads(text)
            if rep["n"] != f.n or rep["G_parity_reference"] != rep["parity"]:
                raise GateFailure(f"report parity {rep['parity']:+d}, G_parity_reference {rep['G_parity_reference']:+d}")
            if not rep["runs"] == rep["uo_calls"] == len(rep["trace"]) or rep["uf_calls"] != 2 * rep["uo_calls"]:
                raise GateFailure("report call counts are inconsistent")
            parity = rep["parity"]
            rows = [(r["M"], r["sign"], r["amplitudes"]) for r in rep["trace"]]
        else:
            # the CSV report carries no parity; --verify's exit status covers it
            parity = None
            rows = [
                (int(r[1]) if r[1] else None, int(r[2]) if r[2] else None, [float(a) for a in r[3:3 + f.n]])
                for r in list(csv.reader(io.StringIO(text)))[1:]
            ]
        return check_search(f, parity, rows, counts)


class DenseN10:
    """Direct ``ensemble.run_sequence`` at n=10: half the runs unshifted,
    half with ``ShiftSpec(m, +-1)``, m uniform in 1..N/2."""

    name = "dense-n10"
    n = 10

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.system = SpinSystem(self.n)

    def warm_up(self) -> None:
        ensemble.run_sequence(self.system, PhaseFunction.constant(self.n))

    def make_input(self, i: int):
        rng = _rng(self.seed, i)
        f = random_table(rng, self.n)
        spec = None
        if rng.random() < 0.5:
            spec = ShiftSpec(int(rng.integers(1, (1 << (self.n - 1)) + 1)), int(rng.choice((1, -1))))
        return f, spec

    def run(self, inp):
        f, spec = inp
        return ensemble.run_sequence(self.system, f, spec)

    def check(self, inp, sig, counts) -> Outcome:
        f, spec = inp
        check_amplitudes(f, spec, sig.amplitudes)
        diagonal, dense = counts
        if dense:
            raise GateFailure(f"{dense} dense conjugations")
        if diagonal != 1 + (spec is not None):
            raise GateFailure(f"{diagonal} diagonal conjugations for one run")
        return Outcome(uo_calls=1, shifted_runs=int(spec is not None), collisions=int(collides(f, spec)))


WORKLOADS = {w.name: w for w in (SolveN10, CliSmall, DenseN10)}


@dataclass
class Tally:
    """What one measured loop saw."""

    latencies: list = field(default_factory=list)  # seconds, verified operations only
    op_time: float = 0.0  # seconds inside timed sections, every operation
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # (operation index, reason), first few
    diagonal: int = 0
    dense: int = 0
    outcome: Outcome = field(default_factory=lambda: Outcome(uo_calls=0))

    def add(self, o: Outcome) -> None:
        for name in ("uo_calls", "solves", "base_only", "shifted_runs", "collisions"):
            setattr(self.outcome, name, getattr(self.outcome, name) + getattr(o, name))

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.op_time += other.op_time
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures = (self.failures + other.failures)[:5]
        self.diagonal += other.diagonal
        self.dense += other.dense
        self.add(other.outcome)


def measure(workload, seconds: float, max_ops: int = None, tracer=None, first: int = 0) -> Tally:
    """Closed loop: start the next operation only after the previous one has
    been timed and checked.  Runs inputs ``first, first + 1, ...`` until
    ``seconds`` of wall time have passed (at least one operation), or for
    exactly ``max_ops`` operations."""
    tally = Tally()
    span = tracer.span if tracer is not None else (lambda name, op: nullcontext())
    deadline = time.perf_counter() + seconds
    i = first
    while (i - first < max_ops) if max_ops is not None else (i == first or time.perf_counter() < deadline):
        inp = workload.make_input(i)
        before = op_counts()
        error = None
        t0 = time.perf_counter()
        try:
            with span("bench.op", i):
                result = workload.run(inp)
        except Exception as exc:  # a raising operation is a failed one, not a crashed run
            error = exc
        dt = time.perf_counter() - t0
        after = op_counts()
        counts = (after["diagonal"] - before["diagonal"], after["dense"] - before["dense"])
        tally.attempted += 1
        tally.op_time += dt
        tally.diagonal += counts[0]
        tally.dense += counts[1]
        try:
            if error is not None:
                raise GateFailure(f"raised {type(error).__name__}: {error}")
            with span("bench.gate", i):
                outcome = workload.check(inp, result, counts)
        except Exception as exc:  # includes reports the gate cannot parse
            tally.failed += 1
            if len(tally.failures) < 5:
                tally.failures.append((i, f"{type(exc).__name__}: {exc}"))
        else:
            tally.latencies.append(dt)
            tally.add(outcome)
        i += 1
    return tally
