"""Command-line front end: truth-table ingestion, experiment execution,
verification against the brute-force reference, machine-readable reports,
and a benchmark mode.

Truth-table file format (bit-exact): line 1 is the spin count n in ASCII
digits, line 2 is exactly 2^n characters, '+' for f(x) = +1 and '-' for
f(x) = -1, where the character position is the basis index with spin 1 as
the most significant bit.  Whitespace is tolerated at line ends only.

Exit codes: 0 on success (and reference agreement when --verify is set),
1 on parse or configuration errors, 2 on verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass, replace

from .oracles import PhaseFunction
from .protocol import solve_parity
from .reference import reference_report
from .spinops import SpinSystem, check_spin_count


class TruthTableError(ValueError):
    """Malformed truth-table input; the message carries line/column."""


def parse_truth_table_text(text: str) -> PhaseFunction:
    lines = text.split("\n")
    header = lines[0].rstrip(" \t\r") if lines else ""
    if not (header.isascii() and header.isdigit()):
        raise TruthTableError(f"line 1: expected a spin count, got {header!r}")
    try:
        n = check_spin_count(int(header))
    except ValueError as exc:
        raise TruthTableError(f"line 1: {exc}") from None
    if len(lines) < 2:
        raise TruthTableError("line 2: missing truth-table row")
    row = lines[1].rstrip(" \t\r")
    N = 1 << n
    if len(row) != N:
        raise TruthTableError(
            f"line 2, column {min(len(row), N) + 1}: expected exactly {N} entries, found {len(row)}"
        )
    if row.strip("+-"):
        x = next(x for x, ch in enumerate(row) if ch not in "+-")
        raise TruthTableError(
            f"line 2, column {x + 1}: invalid character {row[x]!r} (expected '+' or '-')"
        )
    for i, extra in enumerate(lines[2:], start=3):
        if extra.strip():
            raise TruthTableError(f"line {i}: unexpected content {extra.strip()!r}")
    return PhaseFunction(n, [ch == "-" for ch in row])


def parse_truth_table(path: str) -> PhaseFunction:
    # Bytes that are not UTF-8 decode to one lone surrogate each, so every
    # non-ASCII input reaches the parser as a character with a position.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_truth_table_text(fh.read())


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a single function source plus execution options.

    ``source`` is one of ``const-plus``, ``const-minus``, ``single:<x>``,
    ``random`` (requires ``seed``), or ``file:<path>``.  Only ``random``
    takes ``seed`` and ``density`` (default 0.5); other sources reject them.
    """

    source: str
    n: int = None
    seed: int = None
    density: float = None
    snr: bool = False
    verify: bool = False

    def __post_init__(self):
        if self.source != "random":
            _reject_unused(
                f"--function {self.source}",
                {"--seed": self.seed is not None, "--density": self.density is not None},
            )


def resolve_function(cfg: ExperimentConfig) -> PhaseFunction:
    n = cfg.n
    src = cfg.source
    if src == "const-plus" or src == "const-minus":
        _require_n(n, src)
        return PhaseFunction.constant(n, +1 if src == "const-plus" else -1)
    if src.startswith("single:"):
        _require_n(n, src)
        index = src.split(":", 1)[1]
        try:
            x0 = int(index)
        except ValueError:
            raise ValueError(f"single:<x> needs an integer index x, got {index!r}") from None
        try:
            return PhaseFunction.single(n, x0)
        except IndexError as exc:
            raise ValueError(str(exc)) from None
    if src == "random":
        _require_n(n, src)
        if cfg.seed is None:
            raise ValueError("the random function source requires --seed for reproducibility")
        return PhaseFunction.random(n, 0.5 if cfg.density is None else cfg.density, cfg.seed)
    if src.startswith("file:"):
        f = parse_truth_table(src.split(":", 1)[1])
        if n is not None and f.n != n:
            raise ValueError(f"--n {n} contradicts the file's spin count {f.n}")
        return f
    raise ValueError(
        f"unknown function source {src!r}; expected const-plus, const-minus, "
        "single:<x>, random, or file:<path>"
    )


def _require_n(n, src):
    if n is None:
        raise ValueError(f"function source {src!r} requires --n")


def _round_sig(a: float) -> float:
    return float(f"{a:.12g}")


def run_experiment(cfg: ExperimentConfig) -> tuple:
    """Execute the parity protocol, returning (exit status, report dict)."""
    f = resolve_function(cfg)
    trace = solve_parity(SpinSystem(f.n), f, snr_mode=cfg.snr)
    report = {"n": f.n, "parity": trace.parity}
    status = 0
    if cfg.verify:
        ref = reference_report(f)
        report["G_parity_reference"] = ref.parity
        if ref.parity != trace.parity:
            status = 2
    report["runs"] = trace.uo_calls
    report["uo_calls"] = trace.uo_calls
    report["uf_calls"] = trace.uf_calls
    report["trace"] = [
        {
            "M": rec.m,
            "sign": rec.sign,
            "amplitudes": list(rec.amplitudes),
            "decision": rec.decision,
        }
        for rec in trace.iterations
    ]
    return status, report


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        # trace rows only
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        n_spins = report["n"]
        writer.writerow(
            ["iteration", "M", "sign"]
            + [f"amp_{k}" for k in range(1, n_spins + 1)]
            + ["decision"]
        )
        for i, rec in enumerate(report["trace"], start=1):
            writer.writerow(
                [i, "" if rec["M"] is None else rec["M"], "" if rec["sign"] is None else rec["sign"]]
                + [f"{a:.12g}" for a in rec["amplitudes"]]
                + [rec["decision"]]
            )
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


def bench(cfg: ExperimentConfig, sizes) -> dict:
    """Time the best of three dense sequence runs per size, on ``cfg``'s
    function source built at each size."""
    # imported here, so a solve or --verify never loads the dense engine
    from .ensemble import run_sequence

    if cfg.source.startswith("file:"):
        raise ValueError("bench requires a size-independent function source")
    seconds = []
    for n in sizes:
        f = resolve_function(replace(cfg, n=n))
        system = SpinSystem(n)
        run_sequence(system, f)  # warm-up
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            run_sequence(system, f)
            best = min(best, time.perf_counter() - t0)
        seconds.append(best)
    ratios = {}
    for i in range(1, len(sizes)):
        if sizes[i] == sizes[i - 1] + 1 and seconds[i - 1] > 0:
            ratios[f"{sizes[i - 1]}->{sizes[i]}"] = _round_sig(seconds[i] / seconds[i - 1])
    return {
        "sizes": list(sizes),
        "seconds_per_run": [_round_sig(s) for s in seconds],
        "ratios": ratios,
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.  Parsing reads
    it and never changes it, so every ``main`` call shares it."""
    p = argparse.ArgumentParser(
        prog="spinparity",
        description="Determine the parity of a Boolean phase function by "
        "simulating the spin-ensemble pulse sequence and offset bisection.",
    )
    p.add_argument("--n", type=int, help="spin count (required unless --function file:...)")
    p.add_argument(
        "--function",
        help="function source: const-plus | const-minus | single:<x> | random | file:<path>",
    )
    p.add_argument("--seed", type=int, help="seed for the random source (required with it)")
    p.add_argument("--density", type=float, help="mark density for the random source (default 0.5)")
    p.add_argument("--snr", action="store_true", help="report amplitudes at the 2/N physical scale")
    p.add_argument("--verify", action="store_true", help="cross-check against the brute-force reference")
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    p.add_argument("--bench", metavar="SIZES", help="benchmark mode: comma-separated spin counts")
    return p


def _emit(text: str, out: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_list(flag: str, text: str) -> list:
    """The comma-separated integers of ``flag``'s value ``text``; a bad item
    raises ``ValueError`` naming the flag and the item."""
    items = []
    for i, item in enumerate(text.split(","), start=1):
        try:
            items.append(int(item))
        except ValueError:
            raise ValueError(f"{flag} item {i} must be an integer, got {item!r}") from None
    return items


def _reject_unused(owner: str, flags: dict) -> None:
    """Raise for the flags in ``flags`` that were given (value true) but that
    ``owner`` would silently ignore."""
    given = [flag for flag, on in flags.items() if on]
    if given:
        raise ValueError(f"{owner} does not take {', '.join(given)}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return 0 if exc.code in (0, None) else 1
    try:
        if args.bench is None and not args.function:
            print("error: --function is required (or use --bench)", file=sys.stderr)
            return 1
        source = args.function or "random"  # --bench times random tables by default
        if args.bench is not None:
            _reject_unused(
                "--bench",
                {
                    "--n": args.n is not None,
                    "--snr": args.snr,
                    "--verify": args.verify,
                    "--format csv": args.fmt == "csv",
                },
            )
            sizes = _parse_list("--bench", args.bench)
            cfg = ExperimentConfig(
                source=source,
                # seeded by default, but only the random source takes a seed
                seed=0 if args.seed is None and source == "random" else args.seed,
                density=args.density,
            )
            report = bench(cfg, sizes)
            _emit(json.dumps(report, indent=2) + "\n", args.out)
            return 0
        cfg = ExperimentConfig(
            source=source,
            n=args.n,
            seed=args.seed,
            density=args.density,
            snr=args.snr,
            verify=args.verify,
        )
        status, report = run_experiment(cfg)
        _emit(render_report(report, args.fmt), args.out)
        return status
    except (TruthTableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
