"""Benchmark of the `tnnlu` command line, end to end and layer by layer.

    python3 bench/run.py --workload guarded_cli --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`.  One process, one thread, one client in a closed loop: every op
is a `tnnlu.cli.main(argv)` call with the matrix text on stdin, issued
after the previous one returns, in a fixed seeded order.  The loop runs
whole passes over the workload's ops until `--seconds` have gone by;
afterwards every output is checked by `verify.check` against what its
input's construction predicts.  After every op the harness also times a
fixed computation of its own (`reference`); the gated op figures are in
units of its mean time, which cancels the drifting speed of a shared
machine.

With `--trace 0` it reports the end-to-end metrics.  With `--trace 1` it
wraps each layer's public functions (`spans.py`) on every other pass and
reports the per-layer metrics and the tracing overhead instead.
Human-readable lines come first, then one `details` line of JSON with
everything, then the result line of JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from inputs import pascal
from spans import TRACED, Tracer, summary
from verify import check, det
from workloads import KINDS, WORKLOADS, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 21
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "began = time.perf_counter()\n"
    "import tnnlu, tnnlu.cli\n"
    "tnnlu.cli.build_parser()\n"
    "print(repr(time.perf_counter() - began))\n"
)

# Layer metrics by name: how each is read from the span summary, and the
# end-to-end metric it should move, on which workload.
ECHELON = tuple(f"echelon.{name}" for name in TRACED["echelon"])
TIMES = {
    "cli.self_ms": ("self", ("cli.main",), "op_cost.mean on guarded_cli"),
    "core.parse_matrix.ms": ("busy", ("core.parse_matrix",), "neville_ms.p50, reconstruct_ms.p50 on large_factor"),
    "core.format.ms": ("busy", ("core.format_matrix",), "neville_ms.p50, reconstruct_ms.p50 on large_factor"),
    "core.minor_layers.ms": ("busy", ("core.iter_minor_layers",), "decompose_ms.*, detect_ms.*, check_tnn_ms.* on guarded_cli"),
    "core.det.ms": ("busy", ("core.det",), "explicit_ms.p50 on large_factor, selftest_ms.p50 on guarded_cli"),
    "core.rank.ms": ("busy", ("core.rank",), "detect_ms.p50 on guarded_cli"),
    "core.matmul.ms": ("busy", ("core.matmul",), "op_cost.p90 on large_factor"),
    "mclass.greedy_leaders.self_ms": ("self", ("mclass.greedy_leaders",), "detect_ms.* on guarded_cli and nontnn_reject; reconstruct_ms.p50 on large_factor"),
    "mclass.in_class_M.self_ms": ("self", ("mclass.in_class_M",), "detect_ms.* on guarded_cli and nontnn_reject"),
    "explicit.explicit_decompose.self_ms": ("self", ("explicit.explicit_decompose",), "explicit_ms.p50 on large_factor"),
    "explicit.reconstruct_lu.self_ms": ("self", ("explicit.reconstruct_lu",), "reconstruct_ms.p50 on large_factor"),
    "neville.neville_decompose.self_ms": ("self", ("neville.neville_decompose",), "neville_ms.* on large_factor"),
    "neville.format_trace.ms": ("busy", ("neville.format_trace",), "decompose_ms.p50 on guarded_cli"),
    "echelon.ms": ("busy", ECHELON, "decompose_ms.p50 on guarded_cli"),
    "tnn.is_tnn.self_ms": ("self", ("tnn.is_tnn",), "check_tnn_ms.*, decompose_ms.* on guarded_cli and nontnn_reject"),
    "identities.selftest.self_ms": ("self", ("identities.selftest",), "selftest_ms.p50 on guarded_cli"),
}
COUNTS = {
    "core.minor_layers.minors": ("minors", "decompose_ms.*, detect_ms.*, check_tnn_ms.* on guarded_cli (0 on large_factor)"),
    "core.det.calls": ("core.det", "explicit_ms.p50 on large_factor, selftest_ms.p50 on guarded_cli"),
    "core.rank.calls": ("core.rank", "detect_ms.p50 on guarded_cli"),
    "mclass.in_class_M.rejects": ("class_rejects", "detect_ms.* on nontnn_reject"),
    "neville.moves.eliminate": ("eliminate", "neville_ms.* on large_factor"),
    "neville.moves.delete": ("delete", "neville_ms.* on large_factor"),
}
RATIOS = {
    "tnn.minors_per_accept": ("tnn_minors_accept", "tnn_accepts", "check_tnn_ms.*, decompose_ms.* on guarded_cli"),
    "tnn.minors_per_reject": ("tnn_minors_reject", "tnn_rejects", "check_tnn_ms.* on nontnn_reject"),
}
LAYER_MOVES = {name: spec[-1] for table in (TIMES, COUNTS, RATIOS) for name, spec in table.items()}
LAYER_MOVES["neville.us_per_move"] = "neville_ms.* on large_factor"
LAYER_MOVES.update({f"{layer}.raised": "failed_frac on nontnn_mix" for layer in TRACED})


def measure_setup() -> float:
    """Median time, over fresh interpreters, to import the package and its
    CLI and build the parser.  One untimed start first writes bytecode."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        child = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        if k:
            times.append(float(child.stdout))
    return statistics.median(times)


def call(main, argv: tuple[str, ...], text: str) -> tuple[int, str, str, int]:
    """One op: (exit code, stdout, stderr, ns spent in main)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            began = time.perf_counter_ns()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed op, not a failed run
                code = -1
                print(f"crash: {type(exc).__name__}: {exc}", file=sys.stderr)
            spent = time.perf_counter_ns() - began
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue(), spent


class Record(NamedTuple):
    index: int  # into the workload's ops
    op_ns: int
    ref_ns: int  # the reference computation right after the op
    traced: bool


REFERENCE = pascal(8, 8)


def reference() -> int:
    """ns for a fixed exact computation of the benchmark's own (an 8x8
    determinant over `Fraction`, about 1 ms) run after every op.  Other
    tenants of a shared machine slow it down as much as the ops around it,
    so op time over reference time cancels the machine's drifting speed."""
    began = time.perf_counter_ns()
    det(REFERENCE)
    return time.perf_counter_ns() - began


def run_loop(cli, ops, seconds: float, tracer=None):
    """Whole passes over `ops` until `seconds` have passed.  With a tracer,
    passes alternate between traced and untraced, starting traced, so the
    tracing overhead is measured against untraced passes of the same
    minutes.  Returns the records, the distinct outcomes with their
    counts, and each pass's wall time in s."""
    records: list[Record] = []
    outcomes: dict[tuple[int, int, str, str], int] = {}
    passes: list[float] = []
    # The harness's own objects stay out of the collector's way, as they
    # would in a one-shot CLI process.
    gc.collect()
    gc.freeze()
    began = time.perf_counter()
    while len(passes) < (2 if tracer else 1) or time.perf_counter() - began < seconds:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.install()
        started = time.perf_counter()
        for index, op in enumerate(ops):
            if traced:
                tracer.op = len(records)
            code, out, err, spent = call(cli.main, op.argv, op.text)
            records.append(Record(index, spent, reference(), traced))
            key = (index, code, out, err)
            outcomes[key] = outcomes.get(key, 0) + 1
        passes.append(time.perf_counter() - started)
        if traced:
            tracer.uninstall()
    gc.unfreeze()
    return records, outcomes, passes


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as `statistics.quantiles(method="inclusive")`."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cost(records: list[Record]) -> float:
    """Mean op time in reference times."""
    return sum(r.op_ns for r in records) / sum(r.ref_ns for r in records)


def end_to_end(ops, records: list[Record], setup_s: float, rss_mb: float) -> dict:
    """Every end-to-end metric as {name: (value, unit, samples)}.

    The gated op figures (see BENCHMARK.json) are in units of the run's
    mean reference time (`reference`): `op_cost.mean`, `.p50` and `.p90`
    over every op of the run.  The same figures in wall time follow,
    ungated: on a shared machine they drift by more than any bound."""
    ref_ns = sum(r.ref_ns for r in records) / len(records)
    costs = [r.op_ns / ref_ns for r in records]
    op_ms = [r.op_ns / 1e6 for r in records]
    n = len(records)
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "op_cost.mean": (cost(records), "ref", n),
        "op_cost.p50": (quantile(costs, 50), "ref", n),
        "op_cost.p90": (quantile(costs, 90), "ref", n),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "reference_ms": (ref_ns / 1e6, "ms", n),
        "ops_per_s": (1e3 * n / sum(op_ms), "1/s", n),
        "op_ms.p50": (quantile(op_ms, 50), "ms", n),
        "op_ms.p90": (quantile(op_ms, 90), "ms", n),
    }
    for kind in KINDS:
        times = [r.op_ns / 1e6 for r in records if ops[r.index].kind == kind]
        if not times:
            continue
        metrics[f"{kind}_ms.p50"] = (quantile(times, 50), "ms", len(times))
        # A p90 needs ten samples beyond it.
        if len(times) >= 100:
            metrics[f"{kind}_ms.p90"] = (quantile(times, 90), "ms", len(times))
    return metrics


def per_layer(spans: list[list], records: list[Record]) -> dict:
    """Every layer metric as {name: (value, unit, samples)}: totals and
    per-op values under the layer names, shares of op time, counts."""
    s = summary(spans)
    total_ns = s["busy"]["cli.main"] or 1
    traced = [r for r in records if r.traced]
    ops_done = len(traced)
    overhead = cost(traced) / cost([r for r in records if not r.traced]) - 1
    metrics = {
        "traced.op_cost.mean": (cost(traced), "ref", ops_done),
        "tracing.overhead": (100 * overhead, "%", len(records)),
    }
    for name, (how, fnames, _) in TIMES.items():
        ns = sum(s[how][f] for f in fnames)
        calls = sum(s["calls"][f] for f in fnames)
        metrics[name] = (ns / 1e6, "ms", calls)
        metrics[name + "_per_op"] = (ns / 1e6 / ops_done, "ms/op", calls)
        metrics[name[: -len("ms")] + "share"] = (100 * ns / total_ns, "%", calls)
    for name, (key, _) in COUNTS.items():
        value = s["calls"][key] if key.startswith("core.") else s["counts"][key]
        metrics[name] = (value, "count", ops_done)
        metrics[name + "_per_op"] = (value / ops_done, "count/op", ops_done)
    for name, (num, den, _) in RATIOS.items():
        runs = s["counts"][den]
        metrics[name] = (s["counts"][num] / runs if runs else 0, "count", runs)
    moves = s["counts"]["eliminate"] + s["counts"]["delete"]
    if moves:
        own = s["self"]["neville.neville_decompose"]
        metrics["neville.us_per_move"] = (own / 1e3 / moves, "us", moves)
    for layer in TRACED:
        by_type = {k.split(".", 1)[1]: v for k, v in s["raised"].items() if k.startswith(layer + ".")}
        total = sum(by_type.values())
        metrics[f"{layer}.raised"] = (total, "count", ops_done)
        metrics[f"{layer}.raised_per_op"] = (total / ops_done, "count/op", ops_done)
        for kind, count in sorted(by_type.items()):
            metrics[f"{layer}.raised.{kind}"] = (count, "count", ops_done)
    return metrics


def load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tnnlu" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'tnnlu'}; run from a tnnlu checkout", file=sys.stderr)
        return 2
    spec = load_benchmark_spec()
    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    import tnnlu.cli

    if Path(tnnlu.cli.__file__).resolve().parent != (SRC / "tnnlu").resolve():
        print(f"error: imported tnnlu from {tnnlu.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ops = build(args.workload, args.seed)
    for op in ops[:3]:  # first calls pay for lazy imports and caches
        call(tnnlu.cli.main, op.argv, op.text)
    tracer = Tracer() if args.trace else None
    records, outcomes, passes = run_loop(tnnlu.cli, ops, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = 0
    reasons: dict[str, int] = {}
    for (index, code, out, err), count in outcomes.items():
        reason = check(ops[index], code, out, err)
        if reason:
            failed += count
            label = f"{ops[index].kind} {' '.join(ops[index].argv)}: {reason}"
            reasons[label] = reasons.get(label, 0) + count

    if tracer:
        metrics = per_layer(tracer.spans, records)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = end_to_end(ops, records, setup_s, rss_mb)
        wanted = [m["name"] for m in spec["end_to_end"]]
    metrics["failed_frac"] = (failed / len(records), "fraction", len(records))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(records)} ops in {sum(passes):.2f} s ({len(passes)} passes of {len(ops)})")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:9s} n={samples}")
    print(f"  failed ops: {failed} of {len(records)}")
    for label, count in sorted(reasons.items()):
        print(f"    FAILED x{count}: {label}")
    details = {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in metrics.items()}
    print("details " + json.dumps({"metrics": details, "failures": reasons}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
