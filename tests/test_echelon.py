from fractions import Fraction

import pytest

from conftest import (
    in_class_L,
    in_class_U,
    is_lower_echelon,
    is_upper_echelon,
    random_ascending_subset,
    random_class_L,
    random_class_U,
    row_leads,
    seeded,
)
from tnnlu import IndexSet, Mat, minor


def test_upper_echelon_examples():
    rep = is_upper_echelon(Mat.from_rows([[1, 0, 1], [0, 0, 0], [0, 0, 0]]))
    assert rep.is_echelon and not rep.is_strict
    assert rep.pivots == IndexSet((1,))

    rep = is_upper_echelon(Mat.from_rows([[0, 1, 2, 1], [0, 0, 0, 2]]))
    assert rep.is_echelon and rep.is_strict
    assert rep.pivots == IndexSet((2, 4))

    rep = is_upper_echelon(Mat.from_rows([[0, 1], [1, 0]]))
    assert not rep.is_echelon


def test_row_leads_marks_zero_rows_past_the_last_column():
    rows = Mat.from_rows([[0, 2, 0], [0, 0, 0], [5, 0, 1]]).to_rows()
    assert row_leads(rows, 3) == [2, 4, 1]
    assert row_leads([], 3) == []


def test_zero_row_above_nonzero_is_not_echelon():
    assert not is_upper_echelon(Mat.from_rows([[0, 0], [0, 1]])).is_echelon


def test_vacuous_zero_dimension_cases():
    rep = is_upper_echelon(Mat.zeros(0, 4))
    assert rep.is_echelon and rep.is_strict and len(rep.pivots) == 0
    rep = is_lower_echelon(Mat.zeros(4, 0))
    assert rep.is_echelon and rep.is_strict and len(rep.pivots) == 0


def test_transpose_duality():
    rng = seeded(21)
    for _ in range(120):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = Mat(m, n, [Fraction(rng.choice((0, 0, 1, 2))) for _ in range(m * n)])
        low = is_lower_echelon(A)
        upt = is_upper_echelon(A.transpose())
        assert (low.is_echelon, low.is_strict, low.pivots) == (
            upt.is_echelon,
            upt.is_strict,
            upt.pivots,
        )


def test_in_class_L_examples():
    assert in_class_L(Mat.from_rows([[0], [1], [1]]), [2], starred=True)
    assert in_class_L(Mat.from_rows([[1, 0], [2, 0], [1, 1], [3, 4]]), [1, 3], starred=True)
    assert not in_class_L(Mat.from_rows([[2], [0]]), [1], starred=True)
    # without the normalization requirement the same matrix passes
    assert in_class_L(Mat.from_rows([[2], [0]]), [1], starred=False)


def test_in_class_U_examples():
    assert in_class_U(Mat.from_rows([[1, 0, 1]]), [1])
    assert in_class_U(Mat.from_rows([[0, 1, 2, 1], [0, 0, 0, 2]]), [2, 4])
    assert not in_class_U(Mat.from_rows([[0, 0], [0, 1]]), [1, 2])


def test_in_class_shape_errors():
    with pytest.raises(ValueError):
        in_class_L(Mat.zeros(3, 2), [1])
    with pytest.raises(ValueError):
        in_class_L(Mat.zeros(3, 1), [4])
    with pytest.raises(ValueError):
        in_class_U(Mat.zeros(2, 3), [1])
    with pytest.raises(ValueError):
        in_class_U(Mat.zeros(1, 3), [4])


def test_class_L_is_strictly_lower_echelon_with_pivots_r():
    rng = seeded(33)
    for _ in range(40):
        m = rng.randint(1, 5)
        t = rng.randint(0, m)
        r = random_ascending_subset(rng, m, t)
        L = random_class_L(rng, m, r)
        assert in_class_L(L, r)
        rep = is_lower_echelon(L)
        assert rep.is_echelon and rep.is_strict
        assert rep.pivots == r


def test_class_U_is_strictly_upper_echelon_with_pivots_c():
    rng = seeded(34)
    for _ in range(40):
        n = rng.randint(1, 5)
        t = rng.randint(0, n)
        c = random_ascending_subset(rng, n, t)
        U = random_class_U(rng, n, c)
        assert in_class_U(U, c)
        rep = is_upper_echelon(U)
        assert rep.is_echelon and rep.is_strict
        assert rep.pivots == c


def test_class_L_leading_minors_are_pivot_products():
    rng = seeded(35)
    for _ in range(25):
        m = rng.randint(1, 5)
        t = rng.randint(1, m)
        r = random_ascending_subset(rng, m, t)
        L = random_class_L(rng, m, r)
        for s in range(1, t + 1):
            product = Fraction(1)
            for k in range(1, s + 1):
                product *= L.entry(r[k - 1], k)
            value = minor(L, r.prefix(s), range(1, s + 1))
            assert value == product
            assert value != 0
