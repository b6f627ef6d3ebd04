"""Pinned bytes of the command line, each from `python -m tnnlu.cli` in a
fresh interpreter: a changed digest is changed output.  The inputs are 40x40
and 8x8 Pascal and seeded products of random TNN factors, on which every
factoring method prints the same pair, 8x8 Pascal with one entry raised and a
3x3 with one negative minor, whose refusals name a minor, 9x9 all-ones and
64x64 Pascal, which check-tnn accepts past the size guard, a 9x9 with one
negative minor, which it refuses there, and small console calls with their
exact stdout.  The selftest's instance stream is pinned too, its matrices and
every evaluator call it makes: a changed digest means a seed no longer runs
the instances it always ran.  So is
`det` and `rank` on 40x40 Pascal, in process."""

import hashlib
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import tnnlu
from tnnlu import (
    Mat, det, format_matrix, format_trace, neville_decompose, parse_matrix, parse_trace, rank, reconstruct_lu,
    replay,
)
from tnnlu import identities
from tnnlu.identities import _random_matrix

ENV = dict(os.environ, PYTHONPATH=str(Path(tnnlu.__file__).resolve().parent.parent))


def run(*argv, stdin=None):
    """The exit code, stdout and stderr bytes of one `tnnlu` call, fed ``stdin``."""
    command = [sys.executable, "-m", "tnnlu.cli", *argv]
    done = subprocess.run(command, input=stdin, capture_output=True, env=ENV, timeout=60)
    return done.returncode, done.stdout, done.stderr


def cli(*argv, stdin=None):
    """The stdout bytes of one `tnnlu` call, which must exit 0."""
    code, out, err = run(*argv, stdin=stdin)
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
    names = ("pascal40", "pascal64", "product", "pascal8", "product8", "raised8")
    paths = {name: folder / f"{name}.mat" for name in names}
    paths["pascal40"].write_text(pascal_text(40), encoding="utf-8")
    paths["pascal64"].write_text(pascal_text(64), encoding="utf-8")
    paths["product"].write_bytes(cli("generate", "--size", "30", "40", "--seed", "5", "--factors", "400"))
    paths["pascal8"].write_text(pascal_text(8), encoding="utf-8")
    paths["product8"].write_bytes(cli("generate", "--size", "8", "8", "--seed", "7", "--factors", "60"))
    # 8x8 Pascal with a[6,8] raised by 1
    rows = [[comb(i + j, i) for j in range(8)] for i in range(8)]
    rows[5][7] += 1
    paths["raised8"].write_text("8 8\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")
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
    # the guard bounds only the witness sweep, so check-tnn accepts past it
    ones = ";".join(" ".join(["1"] * 9) for _ in range(9))
    assert run("check-tnn", "--inline", ones) == (0, b"is_tnn: true\nwitness: none\n", b"")
    # a reject past it has no witness: the identity with a[1,2] = a[2,3] = 1
    # and a[1,3] = 2, whose minor [1,2|2,3] is -1
    rows = [["1" if i == j else "0" for j in range(9)] for i in range(9)]
    rows[0][1] = rows[1][2] = "1"
    rows[0][2] = "2"
    code, out, err = run("check-tnn", "--inline", ";".join(" ".join(row) for row in rows))
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


def test_neville_names_the_first_negative_minor(inputs):
    # Neville finishes on raised8, and the run on Uᵀ rejects
    code, _, err = run("decompose", "--method", "neville", str(inputs["raised8"]))
    assert code == 5
    line = b"error: not-tnn: input not totally nonnegative: minor [[1, 4, 5, 6, 7]|[2, 5, 6, 7, 8]] = -98"
    assert line in err.splitlines()


def test_check_tnn_names_the_first_negative_minor(inputs):
    # of order 5 and mid-way through its size in scan order
    out = cli("check-tnn", str(inputs["raised8"]))
    assert out == b"is_tnn: false\nwitness: [{1,4,5,6,7}|{2,5,6,7,8}] = -98\n"


@pytest.mark.parametrize("name", ["pascal64", "product"])
def test_check_tnn_accepts_past_the_guard(inputs, name):
    # the gate is polynomial: the guard's sweep never runs on an accept
    began = time.perf_counter()
    code, out, err = run("check-tnn", str(inputs[name]))
    assert time.perf_counter() - began < 1.0
    assert (code, out, err) == (0, b"is_tnn: true\nwitness: none\n", b"")


@pytest.mark.parametrize("guard", [(), ("--max-bruteforce", "12")], ids=["default", "12"])
def test_check_tnn_accepts_a_generated_product(guard):
    generated = cli("generate", "--size", "12", "12", "--seed", "3")
    assert sha256(generated) == "1be7b512f2367721bda1e2da1b2fb7d72c9d846faeb4ce4edd7408e3f5dc902e"
    assert cli("check-tnn", *guard, stdin=generated) == b"is_tnn: true\nwitness: none\n"


SMALL_MATRIX = "1/2 1/3 1; 1/5 1 2/7; 3 1/4 1"


@pytest.mark.parametrize(
    "argv, out",
    [
        (("check-tnn", "--inline", "0 1; 1 1"), b"is_tnn: false\nwitness: [{1,2}|{1,2}] = -1\n"),
        (
            ("check-tnn", "--inline", "1/2 1 1; 1/3 1 2/5; 1 1/7 1"),
            b"is_tnn: false\nwitness: [{1,2}|{1,3}] = -2/15\n",
        ),
        (
            # signed and unreduced tokens print in lowest terms
            ("decompose", "--inline", "2/4 -6/3 0/5 +7 -0"),
            b"method: auto\nclass: r = {1}, c = {1}\nL:\n1 1\n1\nU:\n1 5\n1/2 -2 0 7 0\n",
        ),
        (
            ("decompose", "--inline", SMALL_MATRIX, "--method", "reconstruct", "--trace"),
            b"method: reconstruct\nclass: r = {1,2,3}, c = {1,2,3}\nL:\n3 3\n1 0 0\n2/5 1 0\n6 -105/52 1\n"
            b"U:\n3 3\n1/2 1/3 1\n0 13/15 -4/35\n0 0 -68/13\ntrace:\nunavailable\n",
        ),
        (
            ("decompose", "--inline", "0 1 2 1; 0 2 4 2; 0 1 2 3; 0 3 6 11", "--trace"),
            b"method: auto\nclass: r = {1,3}, c = {2,4}\nL:\n4 2\n1 0\n2 0\n1 1\n3 4\n"
            b"U:\n2 4\n0 1 2 1\n0 0 0 2\ntrace:\nE 3 2 3\nE 2 2 1/2\nE 1 2 2\nD 2\nE 2 4 1\nD 3\n",
        ),
        (
            ("decompose", "--inline", "1 2; 3 4", "--trace"),
            b"method: auto\nclass: r = {1,2}, c = {1,2}\nL:\n2 2\n1 0\n3 1\nU:\n2 2\n1 2\n0 -2\n"
            b"trace:\nunavailable\n",
        ),
    ],
    ids=["check-tnn-2x2", "check-tnn-rational", "signed-tokens", "reconstruct-trace", "auto-4x4", "auto-2x2"],
)
def test_small_console_calls_are_pinned(argv, out):
    assert run(*argv) == (0, out, b"")


def test_structured_explicit_output_is_pinned():
    out = cli("decompose", "--inline", SMALL_MATRIX, "--method", "explicit", "--format", "structured")
    assert sha256(out) == "abe5264dc182bc5244d9112ff3e9e9ae36ad3ea97b0848362411404d0377304a"


def test_pascal40_det_and_rank():
    P = [[comb(i + j, i) for j in range(40)] for i in range(40)]
    assert det(Mat.from_rows(P)) == 1 and rank(Mat.from_rows(P)) == 40
    assert det(Mat.from_rows([P[1], P[0]] + P[2:])) == -1
    assert rank(Mat.from_rows(P[:-1] + [[x + y for x, y in zip(P[3], P[17])]])) == 39


def test_the_identity_selftest_reports_ok():
    assert cli("identities-selftest", "--seed", "5", "--instances", "50").splitlines()[-1] == b"ok"


def test_the_selftest_instance_stream_is_pinned():
    # every shape of `_random_matrix` from 1x1 to 5x5, then the generator's next draw
    rng = random.Random(20260808)
    text = "".join(format_matrix(_random_matrix(rng, m, n)) for m in range(1, 6) for n in range(1, 6))
    digest = sha256((text + repr(rng.random())).encode())
    assert digest == "ae56e6f06e8e4fffdee395ae4507d5cddc736ffde737122de4a00c2bd2ea01a5"


def test_every_selftest_call_is_pinned(monkeypatch):
    # each call of a public evaluator, with its arguments and result, over 300 seeds of 6 instances
    digest = hashlib.sha256()

    def logged(name, evaluator):
        def call(*args):
            result = evaluator(*args)
            digest.update(repr((name, args, result)).encode())
            return result
        return call

    for name in ("laplace_sum_rows", "laplace_sum_cols", "cauchy_binet_check", "sylvester_check",
                 "laplace_three_term", "muir_extend", "evaluate_identity"):
        monkeypatch.setattr(identities, name, logged(name, getattr(identities, name)))
    for seed in range(300):
        identities.selftest(seed, 6)
    assert digest.hexdigest() == "13b2b065a79caab850cc762b3de8b5d160e0966964e200826bb03edab53705e4"
