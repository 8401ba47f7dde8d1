#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks three things and exits 1 on the first that does not hold:

1. every workload counts one deliberately wrong answer, fed in among
   correct ones, as exactly one failed operation;
2. the metric names and units run.py emits are the ones BENCHMARK.json
   declares;
3. in a directory holding only BENCHMARK.json and the benchmark's files,
   run.py exits with a nonzero status and prints no result.
"""

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run  # pins BLAS threads before numpy loads

run.import_program()

from spinparity.ensemble import SignalVector  # noqa: E402
from workloads import WORKLOADS, measure  # noqa: E402


def wrong_parity(workload, trace):
    return dataclasses.replace(trace, parity=-trace.parity)


def wrong_amplitude(workload, sig):
    amps = (sig.amplitudes[0] + 2.0,) + sig.amplitudes[1:]
    return SignalVector(amps, tuple(abs(a) < sig.threshold for a in amps), sig.threshold)


def wrong_report(workload, status):
    # a wrong parity that the program's own --verify also missed
    with open(workload.out, encoding="utf-8") as fh:
        report = json.load(fh)
    report["parity"] = report["G_parity_reference"] = -report["parity"]
    with open(workload.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return status


# workload -> (operations to run, index of the corrupted one, corruption);
# cli-small's even requests render JSON
INJECTIONS = {
    "solve-n10": (2, 1, wrong_parity),
    "cli-small": (6, 2, wrong_report),
    "dense-n10": (3, 1, wrong_amplitude),
}


def corrupt_once(workload, bad: int, corrupt) -> None:
    """Make operation number ``bad`` of ``workload`` return a wrong answer."""
    honest = workload.run
    calls = itertools.count()

    def run_op(inp):
        result = honest(inp)
        return corrupt(workload, result) if next(calls) == bad else result

    workload.run = run_op


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_injected_failures() -> None:
    for name, (ops, bad, corrupt) in INJECTIONS.items():
        with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.RESULTS_DIR) as workdir:
            workload = WORKLOADS[name](0, workdir)
            workload.warm_up()
            corrupt_once(workload, bad, corrupt)
            tally = measure(workload, seconds=0, max_ops=ops)
        if tally.attempted != ops or tally.failed != 1 or tally.failures[0][0] != bad:
            fail(f"{name}: injected wrong answer at operation {bad} gave "
                 f"{tally.failed}/{tally.attempted} failed, {tally.failures}")
        print(f"ok   {name}: wrong answer counted ({tally.failures[0][1][:90]})")


def check_declared_metrics() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != dict(run.END_TO_END):
        fail(f"end-to-end metrics {declared} differ from run.py's {dict(run.END_TO_END)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.per_layer_units():
        fail("per-layer metrics in BENCHMARK.json differ from run.py's")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("workloads in BENCHMARK.json differ from workloads.py's")
    print("ok   BENCHMARK.json declares exactly the metrics run.py emits")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix="bare-", dir=run.RESULTS_DIR) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare, env=env,
        )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"without src/ run.py exited {proc.returncode} with output {proc.stdout!r}")
    print(f"ok   without src/ run.py exits {proc.returncode}: {proc.stderr.strip()[:90]}")


if __name__ == "__main__":
    run.RESULTS_DIR.mkdir(exist_ok=True)
    check_declared_metrics()
    check_injected_failures()
    check_bare_directory()
