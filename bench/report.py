"""Run every workload untraced and traced, and print every metric.

    python3 bench/report.py [--seed 1] [--seconds 30] [--baseline bench/baseline.json]

Each run is a separate `run.py` process, so set-up time and peak memory
are per run.  With `--baseline` the figures are also
written as JSON, with the commit, the Python version, the CPU count and
which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import LAYER_MOVES, ROOT, load_benchmark_spec
from workloads import WORKLOADS


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict, dict]:
    """(human lines, details, result) of one benchmark run."""
    argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.splitlines()
    details = json.loads(lines[-2][len("details "):])
    return lines[:-2], details, json.loads(lines[-1])


def commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    spec = load_benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path, help="also write the figures here as JSON")
    args = parser.parse_args(argv)

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    figures = {}
    for workload in WORKLOADS:
        plain_lines, plain, plain_result = run(workload, args.seed, args.seconds, 0)
        traced_lines, traced, _ = run(workload, args.seed, args.seconds, 1)
        print("\n".join(plain_lines + traced_lines) + "\n")
        figures[workload] = {
            "why": why[workload] if workload in why else WORKLOADS[workload].__doc__,
            "gated": workload in why,
            "attempted": plain_result["attempted"],
            "failed": plain_result["failed"],
            "failures": plain["failures"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "tracing_overhead_pct": traced["metrics"]["tracing.overhead"]["value"],
        }
    if args.baseline:
        record = {
            "commit": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "seed": args.seed,
            "seconds": args.seconds,
            "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
            "layer_moves": LAYER_MOVES,
            "workloads": figures,
        }
        args.baseline.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
