"""The identity checks on integer numerators, held to the Fraction formulas
they replace.

Each evaluator in `tnnlu.identities` reads A's integer rows through the
kernel `core._minor_num`, a minor times its rows' denominators, and builds
at most one Fraction.  The formulas below are the same checks written
minor by minor with `minor` and `det`, one Fraction per minor.  Every
evaluator must return what its formula returns, of the same type, and
raise what it raises, with the same message, on hypothesis matrices with
index sets that run past A, mismatched sizes, empty sets and m x 0 or
0 x n factors.  `_random_matrix` draws its cells as the Fraction formula
here does, so `selftest` runs the very instances it always ran.  A kernel
made wrong on every 2x2, or every 3x3, minor makes every family of
`selftest` report failures; one wrong on every 4x4 minor, all but
Cauchy-Binet.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_rational_matrices
from tnnlu import (
    IndexSet,
    Mat,
    cauchy_binet_check,
    det,
    evaluate_identity,
    inversion_count,
    laplace_sum_cols,
    laplace_sum_rows,
    laplace_three_term,
    matmul,
    minor,
    muir_extend,
    sylvester_check,
    vanishing_check,
    vanishing_check_dual,
)
from tnnlu import core, identities
from tnnlu.identities import MinorTerm, TermIdentity, _random_matrix, selftest

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def sign(count):
    return -1 if count % 2 else 1


def fraction_random_matrix(rng, nrows, ncols):
    """`_random_matrix` as a Fraction per cell, through `Mat`."""
    entries = [
        Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        for _ in range(nrows * ncols)
    ]
    return Mat(nrows, ncols, entries)


def fraction_laplace_rows(A, I, J1, J2):
    I = IndexSet.coerce(I)
    J1 = IndexSet.coerce(J1)
    J2 = IndexSet.coerce(J2)
    if len(J1) + len(J2) != len(I):
        raise ValueError(f"|J1| + |J2| must equal |I|: {J1!r}, {J2!r}, {I!r}")
    total = Fraction(0)
    for chosen in combinations(I, len(J1)):
        I1 = IndexSet(chosen)
        I2 = I.difference(I1)
        total += sign(inversion_count(I1, I2)) * minor(A, I1, J1) * minor(A, I2, J2)
    return total


def fraction_laplace_cols(A, J, I1, I2):
    return fraction_laplace_rows(A.transpose(), J, I1, I2)


def fraction_vanishing(A, I, J, J1):
    I = IndexSet.coerce(I)
    J = IndexSet.coerce(J)
    J1 = IndexSet.coerce(J1)
    if len(I) != len(J):
        raise ValueError(f"|I| must equal |J|: {I!r}, {J!r}")
    if not J1.issubset(J):
        raise ValueError(f"J1 = {J1!r} must be contained in J = {J!r}")
    value = minor(A, I, J)  # an index past A raises before the hypothesis is read
    hypothesis = all(
        minor(A, IndexSet(sub), J1) == 0 for sub in combinations(I, len(J1))
    )
    return not hypothesis or value == 0


def fraction_vanishing_dual(A, I, J, I1):
    return fraction_vanishing(A.transpose(), J, I, I1)


def fraction_cauchy_binet(A, B, I, J):
    if A.ncols != B.nrows:
        raise ValueError(f"cannot multiply {A.nrows}x{A.ncols} by {B.nrows}x{B.ncols}")
    I = IndexSet.coerce(I)
    J = IndexSet.coerce(J)
    if len(I) != len(J):
        raise ValueError(f"|I| must equal |J|: {I!r}, {J!r}")
    if len(I) > A.ncols:
        raise ValueError(f"minor order {len(I)} exceeds inner dimension {A.ncols}")
    left = minor(matmul(A, B), I, J)
    right = Fraction(0)
    for K in combinations(range(1, A.ncols + 1), len(I)):
        right += minor(A, I, K) * minor(B, K, J)
    return left == right


def fraction_sylvester(A, m):
    if A.nrows != A.ncols:
        raise ValueError(f"square matrix required, got {A.nrows}x{A.ncols}")
    n = A.nrows
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n = {n}, got m = {m}")
    lead = tuple(range(1, m + 1))
    B = Mat(
        n - m,
        n - m,
        (
            minor(A, lead + (m + i,), lead + (m + j,))
            for i in range(1, n - m + 1)
            for j in range(1, n - m + 1)
        ),
    )
    return det(B) == det(A) * minor(A, lead, lead) ** (n - m - 1)


def fraction_evaluate(identity, A):
    total = Fraction(0)
    for term in identity.terms:
        total += (
            term.coefficient
            * minor(A, term.first[0], term.first[1])
            * minor(A, term.second[0], term.second[1])
        )
    return total


def outcome(check, *args):
    """What a check returns, with its type, or the error it raises."""
    try:
        value = check(*args)
    except (IndexError, ValueError) as exc:
        return type(exc), str(exc)
    return type(value), value


def index_set(data, top, size):
    """``size`` distinct ascending indices from 1..max(top, size)."""
    if not size:
        return ()
    drawn = st.lists(st.integers(1, max(top, size)), min_size=size, max_size=size, unique=True)
    return tuple(sorted(data.draw(drawn)))


def sometimes(data, value=1):
    """``value`` one time in four, else 0: an index past A or a size off by one."""
    return data.draw(st.sampled_from((0, 0, 0, value)))


def test_random_matrix_draws_the_fraction_stream():
    for seed in range(50):
        new, old = random.Random(seed), random.Random(seed)
        for m in range(6):
            for n in range(6):
                A = _random_matrix(new, m, n)
                assert (type(A._rows), type(A._dens)) == (tuple, tuple)
                assert all(type(row) is tuple for row in A._rows)
                assert A == fraction_random_matrix(old, m, n)
                assert new.getstate() == old.getstate()
        assert new.random() == old.random()


@SETTINGS
@given(small_rational_matrices(), st.data())
def test_laplace_sums_match_the_fraction_formula(A, data):
    for dual, outer, inner in ((False, A.nrows, A.ncols), (True, A.ncols, A.nrows)):
        size = data.draw(st.integers(0, outer))
        I = index_set(data, outer + sometimes(data), size)
        s1 = data.draw(st.integers(0, size))
        s2 = size - s1 + sometimes(data)
        J1 = index_set(data, inner + sometimes(data), s1)
        J2 = index_set(data, inner + sometimes(data), s2)
        if dual:
            got, want = outcome(laplace_sum_cols, A, I, J1, J2), outcome(fraction_laplace_cols, A, I, J1, J2)
        else:
            got, want = outcome(laplace_sum_rows, A, I, J1, J2), outcome(fraction_laplace_rows, A, I, J1, J2)
        assert got == want
        assert got[0] in (Fraction, ValueError, IndexError)


@SETTINGS
@given(small_rational_matrices(), st.data())
def test_vanishing_checks_match_the_fraction_formula(A, data):
    for dual in (False, True):
        size = data.draw(st.integers(0, min(A.nrows, A.ncols)))
        I = index_set(data, A.nrows + sometimes(data), size)
        J = index_set(data, A.ncols + sometimes(data), size + sometimes(data))
        fixed, pool = (I, A.nrows) if dual else (J, A.ncols)
        if sometimes(data):  # not contained in I or J
            sub = index_set(data, pool + 1, data.draw(st.integers(0, 2)))
        else:
            sub = tuple(sorted(data.draw(st.lists(st.sampled_from(fixed), unique=True)))) if fixed else ()
        if data.draw(st.booleans()):  # zero A on the fixed rows or columns, so the hypothesis holds
            rows, cols = (sub, J) if dual else (I, sub)
            A = Mat.from_rows(
                [[0 if i in rows and j in cols else x for j, x in enumerate(row, 1)] for i, row in enumerate(A.to_rows(), 1)],
                ncols=A.ncols,
            )
        if dual:
            got, want = outcome(vanishing_check_dual, A, I, J, sub), outcome(fraction_vanishing_dual, A, I, J, sub)
        else:
            got, want = outcome(vanishing_check, A, I, J, sub), outcome(fraction_vanishing, A, I, J, sub)
        assert got == want
        assert got[0] in (bool, ValueError, IndexError)
        assert got[1] is True or got[0] is not bool


@st.composite
def factor_pairs(draw):
    """(A, B) of shapes m x t and t x n, each of m, t, n from 0 to 4; one
    time in five B has t + 1 rows."""
    m, t, n = (draw(st.integers(0, 4)) for _ in range(3))
    A = draw(small_rational_matrices(m=m, n=t))
    B = draw(small_rational_matrices(m=t + draw(st.sampled_from((0, 0, 0, 0, 1))), n=n))
    return A, B


@SETTINGS
@given(factor_pairs(), st.data())
def test_cauchy_binet_matches_the_fraction_formula(pair, data):
    A, B = pair
    k = data.draw(st.integers(0, min(A.nrows, A.ncols, B.ncols) + sometimes(data)))
    I = index_set(data, A.nrows + sometimes(data), k)
    J = index_set(data, B.ncols + sometimes(data), k + sometimes(data))
    got = outcome(cauchy_binet_check, A, B, I, J)
    assert got == outcome(fraction_cauchy_binet, A, B, I, J)
    assert got[0] in (bool, ValueError, IndexError)
    assert got[1] is True or got[0] is not bool


@pytest.mark.parametrize("m, t, n", [(3, 0, 2), (0, 3, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1)])
def test_cauchy_binet_with_no_minor_order(m, t, n):
    rng = random.Random(m * 100 + t * 10 + n)
    A, B = _random_matrix(rng, m, t), _random_matrix(rng, t, n)
    assert cauchy_binet_check(A, B, [], []) is True
    assert fraction_cauchy_binet(A, B, [], []) is True


@SETTINGS
@given(st.integers(1, 5), st.data())
def test_sylvester_matches_the_fraction_formula(n, data):
    m = data.draw(st.integers(0, n))  # 0 and n are refused
    A = data.draw(small_rational_matrices(m=n, n=n + sometimes(data)))
    got = outcome(sylvester_check, A, m)
    assert got == outcome(fraction_sylvester, A, m)
    assert got[0] in (bool, ValueError)
    assert got[1] is True or got[0] is not bool


@st.composite
def term_identities(draw, nrows, ncols):
    """Sums of up to four two-factor terms of any degrees, with rational or
    int coefficients, whose index sets may run one past the matrix."""
    coefficient = st.sampled_from((1, -1, 3, Fraction(1, 2), Fraction(-3, 4), Fraction(0), Fraction(7, 6)))

    def pair():
        size = draw(st.integers(0, 3))
        rows = draw(st.lists(st.integers(1, max(nrows + 1, size)), min_size=size, max_size=size, unique=True))
        cols = draw(st.lists(st.integers(1, max(ncols + 1, size)), min_size=size, max_size=size, unique=True))
        return IndexSet(sorted(rows)), IndexSet(sorted(cols))

    count = draw(st.integers(0, 4))
    return TermIdentity(tuple(MinorTerm(draw(coefficient), pair(), pair()) for _ in range(count)))


@SETTINGS
@given(small_rational_matrices(), st.data())
def test_evaluate_identity_matches_the_fraction_formula(A, data):
    identity = data.draw(term_identities(A.nrows, A.ncols))
    got = outcome(evaluate_identity, identity, A)
    assert got == outcome(fraction_evaluate, identity, A)
    assert got[0] in (Fraction, IndexError)


@SETTINGS
@given(small_rational_matrices(m=5, n=5), st.integers(2, 3), st.integers(2, 5), st.integers(0, 2))
def test_muir_extensions_match_the_fraction_formula(A, s, k, ext):
    if s + 1 >= 6 - ext or k >= 6 - ext:  # P or Q would overlap the base
        return
    identity = muir_extend(laplace_three_term(1, s, 1, k), range(6 - ext, 6), range(6 - ext, 6))
    assert evaluate_identity(identity, A) == fraction_evaluate(identity, A) == 0
    assert type(evaluate_identity(identity, A)) is Fraction


@pytest.mark.parametrize("order", [2, 3, 4])
def test_a_wrong_kernel_fails_the_selftest(monkeypatch, order):
    kernel = core._minor_num

    def off_at_one_order(A, I, J):
        value = kernel(A, I, J)
        return value + 1 if len(I) == order else value

    monkeypatch.setattr(core, "_minor_num", off_at_one_order)
    monkeypatch.setattr(identities, "_minor_num", off_at_one_order)
    results = selftest(seed=20260808, instances=40)
    caught = {name for name, entry in results.items() if entry["failures"]}
    # A kernel that returns 0 for every minor, the empty one too, passes
    # every family, and so does `minor` returning 0 under the Fraction
    # formulas above: each family then compares two sides that are both 0.
    # Only a kernel wrong on some minors and right on others shows.  Orders
    # 2 to 4 are the ones `_minor_num` reads in closed form, 2 and 3 by
    # cofactors and 4 by 2x2 products; every family catches orders 2 and 3.
    # At order 4 Cauchy-Binet does not: none of its 40 instances here takes
    # a minor of order 4 (the largest it draws is 3).
    every = {"laplace_rows", "laplace_cols", "cauchy_binet", "sylvester", "muir_extended"}
    assert caught == (every - {"cauchy_binet"} if order == 4 else every)
