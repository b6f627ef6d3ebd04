from fractions import Fraction
from math import comb

import pytest

from conftest import (
    cauchon_check,
    delete_col,
    delete_row,
    deleting_derivations_accept,
    minor_cofactor,
    seeded,
)
from tnnlu import (
    IndexSet,
    Mat,
    SizeGuardError,
    TnnReport,
    is_tnn,
    matmul,
    random_tnn,
    rank,
)
from tnnlu.cli import main
from tnnlu.core import first_minor
from tnnlu.mclass import certify
from tnnlu.neville import _tnn_gate

CRYER = Mat.from_rows([[0, 0, 0], [1, 0, 1], [1, 0, 1]])


def test_is_tnn_examples():
    assert is_tnn(CRYER).is_tnn
    report = is_tnn(Mat.from_rows([[0, 1], [1, 1]]))
    assert not report.is_tnn
    assert report.witness == (IndexSet((1, 2)), IndexSet((1, 2)), Fraction(-1))


def test_identity_is_tnn():
    assert is_tnn(Mat.identity(3)).is_tnn


def test_witness_recomputes_negative():
    rng = seeded(83)
    found = 0
    while found < 10:
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        A = Mat(m, n, [Fraction(rng.randint(-2, 3)) for _ in range(m * n)])
        report = is_tnn(A)
        if report.is_tnn:
            continue
        rows, cols, value = report.witness
        assert value < 0
        assert minor_cofactor(A, tuple(rows), tuple(cols)) == value
        found += 1
    # the sweep runs on the integer lift; the witness is divided back by its
    # rows' denominators, here unequal from row to row
    found = 0
    while found < 10:
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        dens = rng.sample((2, 3, 5, 7), m)
        A = Mat.from_rows([[Fraction(rng.randint(-2, 3), d) for _ in range(n)] for d in dens])
        report = is_tnn(A)
        if report.is_tnn or len(set(A._dens)) < 2:
            continue
        rows, cols, value = report.witness
        assert value < 0
        assert minor_cofactor(A, tuple(rows), tuple(cols)) == value
        found += 1
    A = Mat.from_rows([["1/2", 1, 1], ["1/3", 1, "2/5"], [1, "1/7", 1]])
    assert is_tnn(A).witness == (IndexSet((1, 2)), IndexSet((1, 3)), Fraction(-2, 15))


def found_past_the_guard():
    """The identity with a[1,2] = a[2,3] = 1 and a[1,3] = 2: minor [1,2|2,3] = -1."""
    found = [[int(i == j) for j in range(9)] for i in range(9)]
    found[0][1] = found[1][2] = 1
    found[0][2] = 2
    return Mat.from_rows(found)


def test_size_guard_and_override():
    # the guard bounds only the witness sweep: an accept answers at every size
    assert is_tnn(Mat.identity(9)) == TnnReport(True)
    assert is_tnn(Mat.identity(9), max_size=0) == TnnReport(True)
    found = found_past_the_guard()
    with pytest.raises(SizeGuardError) as raised:
        is_tnn(found)
    assert str(raised.value) == (
        "brute-force minor enumeration refused for 9x9 (min dimension > 8); "
        "pass a larger max_size to override"
    )
    assert is_tnn(found, max_size=9) == TnnReport(False, (IndexSet((1, 2)), IndexSet((2, 3)), Fraction(-1)))
    # rectangular matrices are guarded on the smaller dimension only
    wide = Mat.zeros(2, 12)
    wide_found = Mat.from_rows([[1, 1, 2] + [0] * 9, [0, 1, 1] + [0] * 9])
    assert is_tnn(wide).is_tnn
    assert is_tnn(wide_found, max_size=2).witness == (IndexSet((1, 2)), IndexSet((2, 3)), Fraction(-1))


def negative(rows, cols, value):
    return value < 0


def test_gate_agrees_with_the_sweep_on_hard_cases():
    # one entry of a TNN matrix moved by a small amount, kept only when
    # every 1x1 and 2x2 minor stays >= 0, so a negative minor, if any, is
    # 3x3 or larger
    rng = seeded(87)
    checked = rejected = 0
    while checked < 1000:
        m, n = rng.randint(3, 6), rng.randint(3, 6)
        A = random_tnn(m, n, seed=rng.randint(0, 10**6), factors=rng.randint(8, 40))
        rows = A.to_rows()
        shift = Fraction(rng.choice((-1, 1)), rng.randint(1, 9))
        rows[rng.randrange(m)][rng.randrange(n)] += shift
        A = Mat.from_rows(rows)
        if first_minor(A, negative, 99, max_order=2) is not None:
            continue
        witness = first_minor(A, negative, 99)
        assert is_tnn(A) == TnnReport(witness is None, witness)
        checked += 1
        rejected += witness is not None
    assert rejected >= 50


def test_accept_path_enumerates_no_minor(monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("minor sweep on the accept path")

    monkeypatch.setattr("tnnlu.tnn.first_minor", sweep)
    pascal = Mat.from_rows([[comb(i + j, i) for j in range(8)] for i in range(8)])
    assert is_tnn(pascal) == TnnReport(True)
    singular = random_tnn(7, 9, seed=1, factors=40)
    assert rank(singular) == 5
    assert is_tnn(singular) == TnnReport(True)
    assert is_tnn(Mat.identity(9)) == TnnReport(True)


def test_a_gate_reject_never_reads_as_tnn(monkeypatch, capsys):
    # the gate is exact: a sweep that finds no negative minor leaves its reject standing
    monkeypatch.setattr("tnnlu.tnn.first_minor", lambda *args, **kwargs: None)
    assert is_tnn(Mat.from_rows([[1, 2], [3, 4]])) == TnnReport(False)
    assert main(["check-tnn", "--inline", "1 2; 3 4"]) == 0
    assert capsys.readouterr().out == "is_tnn: false\nwitness: none\n"


def test_gate_pins_past_the_guard():
    assert _tnn_gate(found_past_the_guard()) is None
    assert _tnn_gate(Mat.from_rows([[1] * 9] * 9)) is not None
    pascal = Mat.from_rows([[comb(i + j, i) for j in range(12)] for i in range(12)])
    assert _tnn_gate(pascal) is not None
    assert _tnn_gate(random_tnn(12, 12, seed=3)) is not None  # `tnnlu generate --size 12 12 --seed 3`


def test_certified_factors_pass_the_gate_past_the_guard():
    # the paper's theorem: a TNN matrix's class factors L and U are both TNN
    inputs = [Mat.from_rows([[comb(i + j, i) for j in range(n)] for i in range(n)]) for n in (16, 32, 64)]
    inputs += [random_tnn(12, 16, seed=4, factors=120), random_tnn(30, 40, seed=5, factors=400)]
    for A in inputs:
        assert _tnn_gate(A) is not None
        pair = certify(A)
        assert _tnn_gate(pair.L) is not None and _tnn_gate(pair.U) is not None


def test_gate_agrees_with_deleting_derivations_past_the_guard():
    # Cauchon's test shares no code with Neville, and stays polynomial here
    rng = seeded(88)
    verdicts = {True: 0, False: 0}
    for _ in range(100):
        m, n = rng.randint(9, 12), rng.randint(9, 12)
        A = random_tnn(m, n, seed=rng.randint(0, 10**6), factors=rng.randint(40, 160))
        rows = A.to_rows()
        rows[rng.randrange(m)][rng.randrange(n)] += Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
        for M in (A, Mat.from_rows(rows)):
            accept = deleting_derivations_accept(M)
            assert (_tnn_gate(M) is not None) == accept
            verdicts[accept] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 50


def test_negative_max_size_is_rejected():
    with pytest.raises(ValueError, match="max_size must be nonnegative"):
        is_tnn(Mat.from_rows([[0, 1], [1, 1]]), max_size=-1)
    # the accept path checks it too, before the gate
    with pytest.raises(ValueError, match="max_size must be nonnegative"):
        is_tnn(Mat.from_rows([[1, 1], [1, 1]]), max_size=-1)


def test_cauchon_examples():
    assert cauchon_check(CRYER) is True
    assert cauchon_check(Mat.from_rows([[0, 1], [1, 0]])) == (1, 2, 1, 2)
    assert cauchon_check(Mat.zeros(3, 3)) is True


def test_cauchon_first_violation_in_scan_order():
    A = Mat.from_rows([[1, 0, 1], [0, 0, 1], [1, 1, 1]])
    # first zero with something below and to the right is at (1, 2)
    assert cauchon_check(A) == (1, 3, 2, 3)


def test_random_tnn_is_deterministic():
    a = random_tnn(4, 5, seed=123, factors=9)
    b = random_tnn(4, 5, seed=123, factors=9)
    c = random_tnn(4, 5, seed=124, factors=9)
    assert a == b
    assert a != c  # overwhelmingly likely for these seeds, and frozen here


def test_random_tnn_outputs_are_tnn_and_pattern_clean():
    rng = seeded(84)
    singular = 0
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = random_tnn(m, n, seed=rng.randint(0, 10**6))
        assert is_tnn(A).is_tnn
        assert cauchon_check(A) is True
        from tnnlu import rank

        if rank(A) < min(m, n):
            singular += 1
    assert singular >= 5  # the generator is biased toward singular output


def test_random_tnn_zero_factors_is_rectangular_identity():
    assert random_tnn(3, 3, seed=0, factors=0) == Mat.identity(3)
    assert random_tnn(2, 4, seed=9, factors=0) == Mat.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])


def test_product_closure():
    rng = seeded(85)
    for _ in range(10):
        m = rng.randint(1, 4)
        k = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_tnn(m, k, seed=rng.randint(0, 10**6))
        B = random_tnn(k, n, seed=rng.randint(0, 10**6))
        assert is_tnn(matmul(A, B)).is_tnn


def test_deletion_closure():
    rng = seeded(86)
    for _ in range(10):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        A = random_tnn(m, n, seed=rng.randint(0, 10**6))
        for i in range(1, m + 1):
            assert is_tnn(delete_row(A, i)).is_tnn
        for j in range(1, n + 1):
            assert is_tnn(delete_col(A, j)).is_tnn
