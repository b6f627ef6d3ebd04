from fractions import Fraction
from math import comb

import pytest

from conftest import in_class_L, in_class_U, minor_cofactor, minor_ratio_pair, seeded
from tnnlu import (
    ClassDesc,
    IndexSet,
    LUPair,
    Mat,
    NotInClassError,
    detect_class,
    explicit_decompose,
    is_tnn,
    matmul,
    neville_decompose,
    random_tnn,
    rank,
    reconstruct_lu,
)
from tnnlu.mclass import certify

CRYER = Mat.from_rows([[0, 0, 0], [1, 0, 1], [1, 0, 1]])
CRYER_DESC = ClassDesc(IndexSet((2,)), IndexSet((1,)))
A4 = Mat.from_rows([[0, 1, 2, 1], [0, 2, 4, 2], [0, 1, 2, 3], [0, 3, 6, 11]])
A4_DESC = ClassDesc(IndexSet((1, 3)), IndexSet((2, 4)))


def test_cryer_golden():
    lu = explicit_decompose(CRYER, CRYER_DESC)
    assert lu.L == Mat.from_rows([[0], [1], [1]])
    assert lu.U == Mat.from_rows([[1, 0, 1]])
    assert reconstruct_lu(CRYER, CRYER_DESC) == lu
    # one route: both names are the class gate, which returns the pair
    assert explicit_decompose is reconstruct_lu is certify
    assert isinstance(certify(CRYER), LUPair) and certify(CRYER) == lu


def test_a4_golden():
    lu = explicit_decompose(A4, A4_DESC)
    assert lu.L == Mat.from_rows([[1, 0], [2, 0], [1, 1], [3, 4]])
    assert lu.U == Mat.from_rows([[0, 1, 2, 1], [0, 0, 0, 2]])
    assert reconstruct_lu(A4, A4_DESC) == lu


def test_a4_spot_entry_is_minor_ratio():
    # l[4,2] = [1,4|2,4] / [1,3|2,4], both minors checked against the oracle
    top = minor_cofactor(A4, (1, 4), (2, 4))
    bottom = minor_cofactor(A4, (1, 3), (2, 4))
    assert (top, bottom) == (8, 2)
    lu = explicit_decompose(A4, A4_DESC)
    assert lu.L.entry(4, 2) == Fraction(top, bottom) == 4


def test_identity_decomposes_to_itself():
    eye = Mat.identity(3)
    desc = ClassDesc(IndexSet((1, 2, 3)), IndexSet((1, 2, 3)))
    for method in (explicit_decompose, reconstruct_lu):
        lu = method(eye, desc)
        assert lu.L == eye and lu.U == eye


def test_rank_zero_matrix():
    A = Mat.zeros(3, 4)
    desc = ClassDesc(IndexSet(), IndexSet())
    for method in (explicit_decompose, reconstruct_lu):
        lu = method(A, desc)
        assert (lu.L.nrows, lu.L.ncols) == (3, 0)
        assert (lu.U.nrows, lu.U.ncols) == (0, 4)
        assert matmul(lu.L, lu.U) == A


def test_not_in_class_checked():
    with pytest.raises(NotInClassError):
        explicit_decompose(CRYER, ClassDesc(IndexSet((1,)), IndexSet((1,))))
    with pytest.raises(NotInClassError):
        reconstruct_lu(CRYER, ClassDesc(IndexSet((1,)), IndexSet((1,))))
    # a declared class other than A's is refused naming A's class, and a
    # failed clause is refused the same way whether or not a class is declared
    column = Mat.from_rows([[1], [1]])
    for A, desc, message in (
        (column, ClassDesc((2,), (1,)), "not in declared class: its class is r = [1], c = [1]"),
        (CRYER, ClassDesc((2,), (3,)), "not in declared class: its class is r = [2], c = [1]"),
        (Mat.identity(2), ClassDesc((1,), (1,)), "not in declared class: its class is r = [1, 2], c = [1, 2]"),
        (Mat.from_rows([[0, 1], [1, 1]]), ClassDesc((1,), (2,)), "matrix belongs to no class: A - L*U is nonzero at (2,1)"),
        (Mat.from_rows([[0, 1], [1, 1]]), None, "matrix belongs to no class: A - L*U is nonzero at (2,1)"),
    ):
        for method in (explicit_decompose, reconstruct_lu):
            with pytest.raises(NotInClassError) as raised:
                method(A, desc)
            assert str(raised.value) == message


def test_unchecked_hits_hard_error_on_zero_leading_minor():
    bad = ClassDesc(IndexSet((1,)), IndexSet((1,)))  # a[1,1] = 0
    for method in (explicit_decompose, reconstruct_lu):
        with pytest.raises(NotInClassError) as raised:
            method(CRYER, bad)
        assert str(raised.value) == "not in declared class: its class is r = [2], c = [1]"


def test_factorization_invariants_on_corpus():
    rng = seeded(71)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = random_tnn(m, n, seed=rng.randint(0, 10**6))
        desc = detect_class(A)
        assert desc is not None
        lu = explicit_decompose(A, desc)
        assert matmul(lu.L, lu.U) == A
        assert in_class_L(lu.L, desc.r, starred=True)
        assert in_class_U(lu.U, desc.c)
        # the column-j leading entry of L is exactly 1
        for j, rj in enumerate(desc.r, start=1):
            assert lu.L.entry(rj, j) == 1
        assert reconstruct_lu(A, desc) == lu


def test_three_paths_agree_and_factors_are_tnn():
    rng = seeded(72)
    for _ in range(12):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = random_tnn(m, n, seed=rng.randint(0, 10**6))
        desc = detect_class(A)
        explicit = explicit_decompose(A, desc)
        rebuilt = reconstruct_lu(A, desc)
        eliminated, _ = neville_decompose(A, max_size=0)
        assert explicit == rebuilt
        assert (explicit.L, explicit.U) == minor_ratio_pair(A, desc)
        assert eliminated.L == explicit.L and eliminated.U == explicit.U
        assert eliminated.desc == desc
        assert is_tnn(explicit.L).is_tnn
        assert is_tnn(explicit.U).is_tnn


def test_explicit_runs_no_determinant_per_entry(monkeypatch):
    # every minor ratio is a cell of the certified elimination's one
    # fraction-free table, so the route never evaluates a `minor` or `det`
    pascal = Mat.from_rows([[comb(i + j, i) for j in range(16)] for i in range(16)])
    product = random_tnn(12, 16, seed=11, factors=60)
    assert rank(product) < 12
    expected = [reconstruct_lu(A) for A in (pascal, product)]

    def refuse(*args):
        raise AssertionError("explicit_decompose evaluated a determinant")

    monkeypatch.setattr("tnnlu.core.minor", refuse)
    monkeypatch.setattr("tnnlu.core.det", refuse)
    assert [explicit_decompose(A) for A in (pascal, product)] == expected


def test_leading_minors_factor_through_the_pair():
    # [r_1..r_s | c_1..c_s] of A equals [r_1..r_s | 1..s] of L times
    # [1..s | c_1..c_s] of U, for every prefix length s
    from tnnlu import minor

    rng = seeded(73)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = random_tnn(m, n, seed=rng.randint(0, 10**6))
        desc = detect_class(A)
        lu = explicit_decompose(A, desc)
        lead = list(range(1, len(desc.r) + 1))
        for s in range(0, len(desc.r) + 1):
            left = minor(A, desc.r.prefix(s), desc.c.prefix(s))
            right = minor(lu.L, desc.r.prefix(s), lead[:s]) * minor(
                lu.U, lead[:s], desc.c.prefix(s)
            )
            assert left == right != 0
