#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 bench/report.py --seeds 10

For each workload in BENCHMARK.json: one untraced run per seed 1..N, then
one traced run on seed 1, each ``run_seconds`` long.  For every end-to-end
metric it reports the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread, which is the quartile distance as a share of the
median, beside the bound that BENCHMARK.json fixes.  The traced run adds the
per-layer table and the tracing overhead.  Everything is read from the
result files the runs write, and the summary goes to
``bench/results/report.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import RESULTS_DIR, ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py process; returns the result file it wrote."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr}")
    stem = ("trace" if trace else "run") + f"-{workload}-seed{seed}"
    return json.loads((RESULTS_DIR / f"{stem}.json").read_text(encoding="utf-8"))


def summarise(values: list, unit: str, bound) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "bound": bound,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args(argv)
    if args.seeds < 2:
        p.error("--seeds must be at least 2 for quartiles")
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.seeds + 1))

    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [run_once(w, s, seconds, 0) for s in seeds]
        trace = run_once(w, seeds[0], seconds, 1)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: summarise([r["metrics"][m["name"]] for r in runs], m["unit"], m["bound"])
                for m in spec["end_to_end"]
            },
            "latency_samples": [r["samples"] for r in runs],
            "ungated": {
                name: summarise([r[name] for r in runs], unit, None)
                for name, unit in (("throughput_ops_s", "1/s"), ("latency_p50_s", "s"))
            },
            "latency_p90_s": [r["latency_p90_s"] for r in runs],
            "base_only_share": [r["base_only_share"] for r in runs],
            "collision_share": [r["collision_share"] for r in runs],
            "env": runs[0]["env"],
            "trace": {key: trace[key] for key in (
                "seed", "untraced", "traced", "tracing_overhead_s_per_op", "layers", "span_file",
                "spans_written", "spans_dropped")},
        }
        report["workloads"][w] = entry

        print(f"{w}: {entry['failed']}/{entry['attempted']} failed, "
              f"latency samples per run {entry['latency_samples']}")
        for name, s in {**entry["end_to_end"], **entry["ungated"]}.items():
            print(f"  {name:<20} median {s['median']:<12.6g} {s['unit']:<6} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}  bound {s['bound'] or 'none (not gated)'}")
        print(f"  tracing overhead {trace['tracing_overhead_s_per_op']:.6g} s/op; busiest layers:")
        for name, layer in list(trace["layers"].items())[:8]:
            print(f"    {name:<36} busy share {layer['busy_share_of_op']:.3f}  "
                  f"self share {layer['self_s'] / trace['layers']['bench.op']['busy_s']:.3f}")

    out = RESULTS_DIR / "report.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"report written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
