"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

Runs every workload at a tiny size, in process, untraced and traced, and
shows that the checker catches a corrupted L, a wrong leader set, a
tampered witness and a wrong exit code.  Two tests also run `run.py`
itself: once in this checkout, once in a directory without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tnnlu  # noqa: E402
import tnnlu.cli  # noqa: E402
from run import call, per_layer, run_loop  # noqa: E402
from spans import Tracer  # noqa: E402
from verify import check  # noqa: E402
from workloads import WORKLOADS, build, known_defect_probes  # noqa: E402

PROBES = {(op.argv, op.text) for op in known_defect_probes()}


def outcomes(ops):
    return [(op, *call(tnnlu.cli.main, op.argv, op.text)[:3]) for op in ops]


def first(ops, kind, *flags):
    return next(op for op in ops if op.kind == kind and all(f in op.argv for f in flags))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(workload):
    ops = build(workload, seed=3, tiny=True)
    assert ops
    for op, code, out, err in outcomes(ops):
        if (op.argv, op.text) in PROBES:
            continue
        assert check(op, code, out, err) is None, (op.argv, op.text, code, out, err)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_traced(workload):
    ops = build(workload, seed=3, tiny=True)
    originals = {name: getattr(tnnlu.core, name) for name in ("det", "matmul", "iter_minor_layers")}
    tracer = Tracer()
    tracer.install()
    try:
        assert tnnlu.mclass.iter_minor_layers is not originals["iter_minor_layers"]
    finally:
        tracer.uninstall()
    records, _, passes = run_loop(tnnlu.cli, ops, 0, tracer)
    assert len(passes) == 2 and [r.traced for r in records] == [True] * len(ops) + [False] * len(ops)
    for name, fn in originals.items():
        assert getattr(tnnlu.core, name) is fn
    assert tnnlu.mclass.iter_minor_layers is originals["iter_minor_layers"]
    metrics = per_layer(tracer.spans, records)
    assert metrics["cli.self_ms"][0] > 0
    assert len({span[5] for span in tracer.spans}) == len(ops)
    # Tiny inputs are inside the size guard, so every workload sweeps.
    assert metrics["core.minor_layers.minors"][0] > 0


def decompose_outcome():
    """A checked decomposition of a full-rank input, whose L leads at row 1."""
    ops = build("guarded_cli", seed=3, tiny=True)
    op = next(op for op in ops if op.kind == "decompose" and op.leaders[0][:2] == (1, 2))
    code, out, err, _ = call(tnnlu.cli.main, op.argv, op.text)
    assert code == 0 and check(op, code, out, err) is None
    return op, out


def test_checker_catches_corrupted_L():
    op, out = decompose_outcome()
    lines = out.splitlines()
    at = lines.index("L:") + 2  # first row of L
    entries = lines[at + 1].split()  # second row: below the first lead
    entries[0] = str(Fraction(entries[0]) + 1)
    lines[at + 1] = " ".join(entries)
    assert "L·U != A" in check(op, 0, "\n".join(lines) + "\n", "")
    lines[at] = "2 " + " ".join(lines[at].split()[1:])  # the unit lead of L
    assert "does not lead with 1" in check(op, 0, "\n".join(lines) + "\n", "")


def test_checker_catches_wrong_leaders():
    op, out = decompose_outcome()
    lines = out.splitlines()
    r, c = op.leaders
    wrong_r = ",".join(str(i) for i in (r[:-1] + (r[-1] + 1,)))
    lines[1] = f"class: r = {{{wrong_r}}}, c = {{{','.join(map(str, c))}}}"
    assert check(op, 0, "\n".join(lines) + "\n", "") is not None
    detect = first(build("guarded_cli", seed=3, tiny=True), "detect")
    code, out, err, _ = call(tnnlu.cli.main, detect.argv, detect.text)
    assert check(detect, code, out, err) is None
    assert "detect said" in check(detect, 0, "class: none\n", "")
    assert "detect said" in check(detect, 0, f"class: r = {{{wrong_r}}}, c = {{{','.join(map(str, c))}}}\n", "")


def test_checker_catches_tampered_witness():
    op = first(build("nontnn_reject", seed=3, tiny=True), "check_tnn")
    code, out, err, _ = call(tnnlu.cli.main, op.argv, op.text)
    assert check(op, code, out, err) is None
    verdict, witness = out.splitlines()
    head, _, value = witness.partition("] = ")
    assert "recomputes" in check(op, 0, f"{verdict}\n{head}] = {Fraction(value) - 1}\n", "")
    assert "said True" in check(op, 0, "is_tnn: true\nwitness: none\n", "")


def test_checker_catches_wrong_exit_code():
    op, out = decompose_outcome()
    assert "exit 5" in check(op, 5, "", "error: not-tnn: made up\n")
    neville = first(build("nontnn_reject", seed=3, tiny=True), "neville")
    assert neville.codes == {5}
    assert check(neville, 5, "", "error: not-tnn: minor\n") is None
    assert "exit 0" in check(neville, 0, "method: neville\n", "")
    assert "without its 'not-tnn' error" in check(neville, 5, "", "error: size-guard: x\n")


def test_known_defects_are_failures():
    """The outputs the program printed for the two probes when this
    benchmark was written; both must count as failed."""
    corner, bent = known_defect_probes()
    unchecked = "method: auto\nclass: r = {1,2}, c = {2,3}\nL:\n2 2\n1 0\n1 1\nU:\n2 3\n0 1 1\n0 0 -1\n"
    assert "L·U != A" in check(corner, 0, unchecked, "")
    code, out, err, _ = call(tnnlu.cli.main, bent.argv, bent.text)
    if code == 0:
        assert check(bent, code, out, err).startswith("exit 0")


def bench_command(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize(
    "workload, trace",
    [("nontnn_reject", 0), ("nontnn_reject", 1), ("guarded_cli", 1), ("large_factor", 1)],
)
def test_command_prints_the_result_line(workload, trace):
    done = bench_command(BENCH.parent, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == names
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    # The design the workloads rest on: the minor sweeps dominate inside
    # the guard and never run beyond it.
    if workload == "guarded_cli":
        assert metrics["core.minor_layers.share"] > 50
    if workload == "large_factor":
        assert metrics["core.minor_layers.minors_per_op"] == 0


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench_command(tmp_path, "guarded_cli", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
