"""Pinned bytes of the command line, each from `python -m tnnlu.cli` in a
fresh interpreter: a changed digest is changed output.  The inputs are 40x40
and 8x8 Pascal and seeded products of random TNN factors, on which every
factoring method prints the same pair, 8x8 Pascal with one entry raised and a
3x3 with one negative minor, whose refusals name a minor, and 9x9 all-ones,
past the size guard.  The selftest's instance stream is pinned too: a changed
digest means a seed no longer runs the instances it always ran."""

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


def printed(*argv):
    """The stdout lines of one `decompose` call, which must exit 0, bar its "method:" line."""
    return [line for line in cli("decompose", *argv).splitlines(True) if not line.startswith(b"method:")]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def pascal_text(n):
    return f"{n} {n}\n" + "".join(" ".join(str(comb(i + j, i)) for j in range(n)) + "\n" for i in range(n))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("pinned")
    paths = {name: folder / f"{name}.mat" for name in ("pascal40", "product", "pascal8", "product8")}
    paths["pascal40"].write_text(pascal_text(40), encoding="utf-8")
    paths["product"].write_bytes(cli("generate", "--size", "30", "40", "--seed", "5", "--factors", "400"))
    paths["pascal8"].write_text(pascal_text(8), encoding="utf-8")
    paths["product8"].write_bytes(cli("generate", "--size", "8", "8", "--seed", "7", "--factors", "60"))
    return paths


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
    explicit, reconstruct, neville = (
        printed("--method", method, "--unchecked", str(inputs[name]))
        for method in ("explicit", "reconstruct", "neville")
    )
    assert explicit == reconstruct == neville


@pytest.mark.parametrize(
    "name, input_pin, pin",
    [
        (
            "pascal8",
            "69e58971181d223a6ef739abcb9831a2d7272a4c48eeee7d40f5870ad14da97a",
            "68c832a777c57981a60ee3dad7eff270649ccaad39ee2b3132b97de878a7a3ca",
        ),
        (
            "product8",
            "c7a52207309b733867bde1bb5cf048aa752b39510387df3e822fdaf2734391ee",
            "407541bc66781942659f3dae4257cc566e628b699ce6242d234dad52c1c0a829",
        ),
    ],
    ids=["pascal8", "product8"],
)
def test_auto_prints_the_reconstructed_pair(inputs, name, input_pin, pin):
    path = str(inputs[name])
    assert sha256(inputs[name].read_bytes()) == input_pin
    assert sha256(cli("decompose", "--method", "reconstruct", path)) == pin
    assert printed("--method", "auto", path) == printed("--method", "reconstruct", path)


@pytest.mark.parametrize(
    "inline, out",
    [
        (
            "0 0 0; 1 0 1; 1 0 1",
            b"method: neville\nclass: r = {2}, c = {1}\nL:\n3 1\n0\n1\n1\nU:\n1 3\n1 0 1\n"
            b"trace:\nD 1\nE 1 1 1\nD 2\n",
        ),
        (
            "1 1/2; 1/3 1",
            b"method: neville\nclass: r = {1,2}, c = {1,2}\nL:\n2 2\n1 0\n1/3 1\nU:\n2 2\n1 1/2\n0 5/6\n"
            b"trace:\nE 1 1 1/3\n",
        ),
    ],
    ids=["cryer", "rational"],
)
def test_small_neville_traces_are_pinned(inline, out):
    assert cli("decompose", "--inline", inline, "--method", "neville", "--trace") == out


def test_unchecked_neville_still_names_the_negative_minor():
    # --unchecked changes nothing: neville still decides TNN inside the guard
    code, out, err = run("decompose", "--method", "neville", "--unchecked", "--inline", "1 1 2; 0 1 1; 0 0 1")
    assert (code, out) == (5, b"")
    assert err == b"error: not-tnn: input not totally nonnegative: minor [[1, 2]|[2, 3]] = -1\n"


def test_all_ones_past_the_guard():
    ones = ";".join(" ".join(["1"] * 9) for _ in range(9))
    code, out, err = run("check-tnn", "--inline", ones)
    assert (code, out) == (6, b"")
    assert err == (
        b"error: size-guard: brute-force minor enumeration refused for 9x9 (min dimension > 8); "
        b"pass a larger max_size to override\n"
    )
    # auto --trace runs the gate, which sweeps no minor, so it answers past the guard
    traced = cli("decompose", "--method", "neville", "--trace", "--inline", ones)
    assert sha256(traced) == "55181c2b914d4154ca7f9efa86408d602c6cda6ecee2e1c38b65017ee63b8a4a"
    assert printed("--method", "auto", "--trace", "--inline", ones) == printed(
        "--method", "neville", "--trace", "--inline", ones
    )
    plain = cli("decompose", "--method", "reconstruct", "--inline", ones)
    assert sha256(plain) == "f29a82fe03e007915da380ed6c2da1cddcd084175c7896103a3b8bc7d8a08fbf"
    assert printed("--inline", ones) == printed("--method", "reconstruct", "--inline", ones)


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
