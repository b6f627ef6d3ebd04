"""Pinned bytes of the command line, each from `python -m tnnlu.cli` in a
fresh interpreter: a changed digest is changed output.  The inputs are 40x40
Pascal and a seeded 30x40 product of random TNN factors, on which every
factoring method prints the same pair, and 8x8 Pascal with one entry raised,
whose refusal names a minor.  The selftest's instance stream is pinned too: a
changed digest means a seed no longer runs the instances it always ran."""

import hashlib
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import tnnlu
from tnnlu import format_matrix, format_trace, neville_decompose, parse_matrix, parse_trace, reconstruct_lu, replay
from tnnlu.identities import _random_matrix

ENV = dict(os.environ, PYTHONPATH=str(Path(tnnlu.__file__).resolve().parent.parent))


def run(*argv):
    """The exit code, stdout and stderr bytes of one `tnnlu` call."""
    done = subprocess.run([sys.executable, "-m", "tnnlu.cli", *argv], capture_output=True, env=ENV, timeout=60)
    return done.returncode, done.stdout, done.stderr


def cli(*argv):
    """The stdout bytes of one `tnnlu` call, which must exit 0."""
    code, out, err = run(*argv)
    assert code == 0, err
    return out


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("pinned")
    rows = [" ".join(str(comb(i + j, i)) for j in range(40)) for i in range(40)]
    pascal = folder / "pascal40.mat"
    pascal.write_text("40 40\n" + "".join(row + "\n" for row in rows), encoding="utf-8")
    product = folder / "product.mat"
    product.write_bytes(cli("generate", "--size", "30", "40", "--seed", "5", "--factors", "400"))
    return {"pascal40": pascal, "product": product}


def test_the_seeded_product_is_pinned(inputs):
    digest = sha256(inputs["product"].read_bytes())
    assert digest == "bf6166747f523da49016e19edf8c7adb011c4b714880987c4c385922140308f9"


@pytest.mark.parametrize(
    "name, pin",
    [
        ("pascal40", "3f8f2810e0899b0ca6c103ec58b8a3e262f36e37a86d49c258984f2dafaff568"),
        ("product", "bd7f21f998f86f20ffd33bed3bf3c918513a17e33257576a2a4276fdf72e9510"),
    ],
    ids=["pascal40", "product"],
)
def test_the_neville_trace_is_pinned(inputs, name, pin):
    assert sha256(cli("decompose", "--method", "neville", "--trace", str(inputs[name]))) == pin


@pytest.mark.parametrize("name", ["pascal40", "product"])
def test_the_trace_text_replays_to_the_certified_pair(inputs, name):
    A = parse_matrix(inputs[name].read_text(encoding="utf-8"))
    pair, trace = neville_decompose(A)
    assert replay(A, parse_trace(format_trace(trace))) == pair == reconstruct_lu(A)


@pytest.mark.parametrize("name", ["pascal40", "product"])
def test_every_factoring_method_prints_one_pair(inputs, name):
    def printed(method):  # the output bar its "method:" line
        out = cli("decompose", "--method", method, "--unchecked", str(inputs[name]))
        return [line for line in out.splitlines(True) if not line.startswith(b"method:")]

    assert printed("explicit") == printed("reconstruct") == printed("neville")


def test_neville_names_the_first_negative_minor(tmp_path):
    # 8x8 Pascal with a[6,8] raised by 1: Neville finishes on it, and the run on Uᵀ rejects
    rows = [[comb(i + j, i) for j in range(8)] for i in range(8)]
    rows[5][7] += 1
    raised = tmp_path / "raised8.mat"
    raised.write_text("8 8\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")
    code, _, err = run("decompose", "--method", "neville", str(raised))
    assert code == 5
    line = b"error: not-tnn: input not totally nonnegative: minor [[1, 4, 5, 6, 7]|[2, 5, 6, 7, 8]] = -98"
    assert line in err.splitlines()


def test_the_identity_selftest_reports_ok():
    assert cli("identities-selftest", "--seed", "5", "--instances", "50").splitlines()[-1] == b"ok"


def test_the_selftest_instance_stream_is_pinned():
    # every shape of `_random_matrix` from 1x1 to 5x5, then the generator's next draw
    rng = random.Random(20260808)
    text = "".join(format_matrix(_random_matrix(rng, m, n)) for m in range(1, 6) for n in range(1, 6))
    digest = sha256((text + repr(rng.random())).encode())
    assert digest == "ae56e6f06e8e4fffdee395ae4507d5cddc736ffde737122de4a00c2bd2ea01a5"
