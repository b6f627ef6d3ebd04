"""Closed-form families, oracles that hold past the size guard with no
minor enumeration and no second elimination.

Symmetric Pascal P = [C(i+j, i)] is L·Lᵀ with L = [C(i, j)], so every
`decompose` method must print exactly those factors, in class r = c = {1..n}.
The Cauchy matrix [1/(x_i + y_j)] has every minor in closed form
(`conftest.cauchy_minor`): with x and y increasing it is totally positive,
and with x_k and x_k+1 swapped its negative minors are those whose rows hold
both k and k+1, so the scan-order witness is [{k,k+1}|{1,2}].
"""

import time
from fractions import Fraction
from math import comb

import pytest

from conftest import cauchy, cauchy_minor, pascal
from tnnlu import IndexSet, det, is_tnn, minor
from tnnlu.cli import main

METHODS = [
    ("--method", "auto"),
    ("--method", "auto", "--trace"),
    ("--method", "neville"),
    ("--method", "neville", "--trace"),
    ("--method", "explicit"),
    ("--method", "reconstruct"),
]


def matrix_text(rows):
    """``rows`` in the text format, written here rather than by the package."""
    return f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


@pytest.mark.parametrize("argv", METHODS, ids=[" ".join(argv[1:]) for argv in METHODS])
@pytest.mark.parametrize("n", [8, 16, 64])
def test_decompose_prints_the_binomial_factors_of_pascal(capsys, n, argv):
    L = [[comb(i, j) for j in range(n)] for i in range(n)]
    leaders = ",".join(str(i) for i in range(1, n + 1))
    expected = (
        f"method: {argv[1]}\nclass: r = {{{leaders}}}, c = {{{leaders}}}\n"
        f"L:\n{matrix_text(L)}U:\n{matrix_text([list(col) for col in zip(*L)])}"
    )
    inline = ";".join(" ".join(map(str, row)) for row in pascal(n).to_rows())
    began = time.perf_counter()
    code = main(["decompose", *argv, "--inline", inline])
    elapsed = time.perf_counter() - began
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    if "--trace" in argv:
        assert out.startswith(expected + "trace:\n")
    else:
        assert out == expected
    assert elapsed < 1.0


@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_hilbert_det_and_minor_are_the_cauchy_formula(n):
    x, y = range(1, n + 1), range(n)
    H = cauchy(x, y)
    everything = range(1, n + 1)
    assert det(H) == cauchy_minor(x, y, everything, everything)
    rows, cols = range(1, n + 1, 2), range(2, n + 1, 2)  # order n/2
    assert minor(H, rows, cols) == cauchy_minor(x, y, rows, cols)
    assert is_tnn(H).is_tnn


@pytest.mark.parametrize("n, k, value", [(16, 1, Fraction(-1, 12)), (32, 5, Fraction(-1, 1260))])
def test_swapped_cauchy_names_its_closed_form_witness(n, k, value):
    x, y = list(range(1, n + 1)), list(range(n))
    x[k - 1], x[k] = x[k], x[k - 1]
    report = is_tnn(cauchy(x, y), n)
    assert report == (False, (IndexSet((k, k + 1)), IndexSet((1, 2)), value))
    assert value == cauchy_minor(x, y, (k, k + 1), (1, 2))
