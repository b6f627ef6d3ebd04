"""Shared helpers: independent oracles, random exact matrix generators, and
the index-set and matrix helpers that only tests use, and the hypothesis
strategies for small integer and rational matrices.  Tests reach the
package's own oracles (the echelon predicates, `in_class_M`,
`greedy_leaders` and the uncertified `eliminate`) here, not from `tnnlu`.

The cofactor-expansion determinant here is deliberately naive and separate
from the production path; it is the oracle the fast determinant is judged
against (n <= 5 keeps it affordable).
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, prod

from hypothesis import strategies as st

from tnnlu import ClassDesc, IndexSet, Mat
from tnnlu.core import _in_range, _reduce
from tnnlu.echelon import (  # noqa: F401  (oracles the tests import from here)
    EchelonReport, in_class_L, in_class_U, is_lower_echelon, is_upper_echelon, row_leads,
)
from tnnlu.mclass import _factors, _table, greedy_leaders, in_class_M  # noqa: F401


def eliminate(A, desc=None):
    """The pair that `certify` returns, without its certificate: L and U read
    off the table of A, pivoted by the scan or at ``desc``'s leaders."""
    return _factors(A, _table(A, desc))


def _combine(cx, x, cy, y, den):
    """(cx·x + cy·y) / den in lowest terms (see `_reduce`)."""
    return _reduce([cx * a + cy * b for a, b in zip(x, y)], den)


def bareiss_reference(rows, pick):
    """`core._bareiss` without its shortcuts, the reference it is held to:
    every live row takes the one-line update, whatever its multiplier and
    the previous pivot."""
    live_rows = list(range(len(rows)))
    live_cols = list(range(len(rows[0]) if rows else 0))
    pivots = []
    prev = 1
    while live_rows and (step := pick(rows, live_rows, live_cols, pivots)) is not None:
        i, j = step
        live_rows.remove(i)
        live_cols.remove(j)
        ri = rows[i]
        p = ri[j]
        for h in live_rows:
            rh = rows[h]
            rhj = rh[j]
            for k in live_cols:
                rh[k] = (p * rh[k] - rhj * ri[k]) // prev
        pivots.append(step)
        prev = p
    return pivots


def indexset_leq(first, second):
    """Componentwise order on equal-cardinality ascending index sets."""
    a = IndexSet.coerce(first)
    b = IndexSet.coerce(second)
    if len(a) != len(b):
        raise ValueError(f"index sets must have equal cardinality: {a!r}, {b!r}")
    return all(x <= y for x, y in zip(a, b))


def submatrix(A, rows, cols):
    """The |rows| x |cols| matrix picking the given 1-based rows and columns."""
    I, J = IndexSet.coerce(rows), IndexSet.coerce(cols)
    _in_range(A, I, J)
    return Mat(len(I), len(J), [A.entry(i, j) for i in I for j in J])


def delete_row(A, i):
    """Copy of A with 1-based row i removed; a 1xn input yields a 0xn matrix."""
    if not 1 <= i <= A.nrows:
        raise IndexError(f"row {i} out of range for {A.nrows}x{A.ncols}")
    rows = A.to_rows()
    return Mat.from_rows(rows[: i - 1] + rows[i:], ncols=A.ncols)


def delete_col(A, j):
    """Copy of A with 1-based column j removed."""
    if not 1 <= j <= A.ncols:
        raise IndexError(f"column {j} out of range for {A.nrows}x{A.ncols}")
    return Mat.from_rows([row[: j - 1] + row[j:] for row in A.to_rows()], ncols=A.ncols - 1)


def cauchon_check(A):
    """Zero-pattern test that every TNN matrix satisfies.

    Looks for rows i < k and columns j < l with a[i,j] = 0 but a[i,l] != 0
    and a[k,j] != 0 (a zero with nonzero entries both to its right and
    below).  Returns True when none exists, else the first violation in
    row-major scan order of the zero entry, as (i, k, j, l).  Such a
    pattern forces a negative 2x2 minor, so no TNN matrix, and no state of
    Neville elimination on one, has it.
    """
    rows = A.to_rows()
    for i in range(1, A.nrows + 1):
        for j in range(1, A.ncols + 1):
            if rows[i - 1][j - 1] != 0:
                continue
            k = next((k for k in range(i + 1, A.nrows + 1) if rows[k - 1][j - 1] != 0), None)
            if k is None:
                continue
            l = next((l for l in range(j + 1, A.ncols + 1) if rows[i - 1][l - 1] != 0), None)
            if l is None:
                continue
            return (i, k, j, l)
    return True


def det_cofactor(rows):
    """Recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        rest = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(rest)
        total += term if j % 2 == 0 else -term
    return total


def minor_cofactor(A, I, J):
    """Minor of A via the naive oracle; I, J are iterables of 1-based indices."""
    return det_cofactor([[A.entry(i, j) for j in J] for i in I])


def minor_ratio_pair(A, desc):
    """The class factors (L, U) of A, entry by entry from the minor ratios

        L[h, j] = [r_<j, h | c_<=j] / [r_<=j | c_<=j]   (0 for h < r_j)
        U[i, k] = [r_<=i | c_<i, k] / [r_<i | c_<i]      (0 for k < c_i)

    with every minor from the naive oracle, so the fraction-free table that
    `certify` builds, and `explicit_decompose` returns, is judged against the
    formulas as written."""
    r, c = list(desc.r), list(desc.c)
    t = len(r)

    def ratio(rows, cols, below_rows, below_cols):
        return minor_cofactor(A, rows, cols) / minor_cofactor(A, below_rows, below_cols)

    L = [
        0 if h < r[j] else ratio(r[:j] + [h], c[: j + 1], r[: j + 1], c[: j + 1])
        for h in range(1, A.nrows + 1)
        for j in range(t)
    ]
    U = [
        0 if k < c[i] else ratio(r[: i + 1], c[:i] + [k], r[:i], c[:i])
        for i in range(t)
        for k in range(1, A.ncols + 1)
    ]
    return Mat(A.nrows, t, L), Mat(t, A.ncols, U)


def all_candidate_descs(m, n):
    """Every leader pair (r, c) an m x n matrix could have, by rank."""
    for t in range(0, min(m, n) + 1):
        for r in combinations(range(1, m + 1), t):
            for c in combinations(range(1, n + 1), t):
                yield ClassDesc(IndexSet(r), IndexSet(c))


def random_rational_matrix(rng, m, n, span=4, denoms=(1, 1, 2, 3)):
    """Dense matrix of small rationals of both signs."""
    return Mat(m, n, [Fraction(rng.randint(-span, span), rng.choice(denoms)) for _ in range(m * n)])


def random_ascending_subset(rng, limit, size):
    return IndexSet(sorted(rng.sample(range(1, limit + 1), size)))


def random_class_L(rng, m, r, starred=False):
    """Random matrix (entries of any sign) in the lower class with leaders r."""
    r = list(r)
    t = len(r)
    entries = []
    for i in range(1, m + 1):
        for j in range(1, t + 1):
            if i < r[j - 1]:
                entries.append(Fraction(0))
            elif i == r[j - 1]:
                entries.append(Fraction(1) if starred else Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
            else:
                entries.append(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))
    return Mat(m, t, entries)


def random_class_U(rng, n, c):
    """Random matrix (entries of any sign) in the upper class with leaders c."""
    c = list(c)
    t = len(c)
    entries = []
    for i in range(1, t + 1):
        for j in range(1, n + 1):
            if j < c[i - 1]:
                entries.append(Fraction(0))
            elif j == c[i - 1]:
                entries.append(Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
            else:
                entries.append(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))
    return Mat(t, n, entries)


def _same_shape(draw, entry, count, m=None, n=None):
    """Up to 4x5 with entries drawn from ``entry``, or m x n where given (either
    may be 0); with ``count`` > 1, a tuple of that many matrices of one shape."""
    m = draw(st.integers(1, 4)) if m is None else m
    n = draw(st.integers(1, 5)) if n is None else n
    drawn = tuple(
        Mat(m, n, draw(st.lists(entry, min_size=m * n, max_size=m * n))) for _ in range(count)
    )
    return drawn if count > 1 else drawn[0]


@st.composite
def small_integer_matrices(draw, count=1):
    """Entries of both signs with zero three times as likely as any other."""
    return _same_shape(draw, st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3)), count)


@st.composite
def small_rational_matrices(draw, count=1, m=None, n=None):
    """Integer and fractional entries of both signs, so that the rows' integer
    lifts carry unequal scales; zero is three times as likely as any other."""
    entry = st.sampled_from(
        (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(-3, 2))
    )
    return _same_shape(draw, entry, count, m, n)


def seeded(seed):
    return random.Random(seed)


def pascal(n):
    """The n x n symmetric Pascal matrix [C(i+j, i)], which is L·Lᵀ for the
    lower Pascal matrix L = [C(i, j)]: its class pair, in class {1..n}."""
    return Mat.from_rows([[comb(i + j, i) for j in range(n)] for i in range(n)])


def cauchy(x, y):
    """The Cauchy matrix [1/(x_i + y_j)], totally positive when x is increasing
    and positive and y increasing and nonnegative; Hilbert's is x = 1..n,
    y = 0..n-1."""
    return Mat.from_rows([[Fraction(1, a + b) for b in y] for a in x])


def cauchy_minor(x, y, rows, cols):
    """The minor of `cauchy(x, y)` on 1-based ``rows`` and ``cols`` by the
    closed form: every square submatrix of a Cauchy matrix is one, and

        det [1/(x_i + y_j)] = Π_{a<b} (x_b - x_a)(y_b - y_a) / Π_{a,b} (x_a + y_b).
    """
    xs, ys = [x[i - 1] for i in rows], [y[j - 1] for j in cols]
    k = len(xs)
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    return Fraction(
        prod((xs[b] - xs[a]) * (ys[b] - ys[a]) for a, b in pairs), prod(a + b for a in xs for b in ys)
    )


def deleting_derivations_accept(A):
    """Cauchon's deleting-derivations test on A's integer rows; True iff A
    is TNN, for real m x n matrices of any rank (Goodearl, Launois &
    Lenagan, Adv. Math. 226, 2011).  It shares no code with Neville
    elimination, so it is the polynomial oracle for the two-pass gate past
    the size guard.  Each row is integer numerators over one positive
    denominator.  For each pivot (j, c), from (m, n) down in reverse
    row-major order, with p = a[j,c] nonzero, every row i < j with
    f = a[i,c] nonzero gets a[i,k] - f·a[j,k]/p at each k < c.  A is TNN iff
    the result has no negative entry and each of its zeros has only zeros
    above it or only zeros to its left (a Cauchon diagram).  The test
    rejects at the first negative entry on the way, which keeps every
    pivot positive.
    """
    if any(v < 0 for row in A._rows for v in row):
        return False
    rows, dens = [list(row) for row in A._rows], list(A._dens)
    for j in range(A.nrows - 1, 0, -1):
        for c in range(A.ncols - 1, -1, -1):
            p = rows[j][c]
            if not p:
                continue
            left = rows[j][:c] + [0] * (A.ncols - c)
            for i in range(j):
                f = rows[i][c]
                if f:
                    rows[i], dens[i] = _combine(p, rows[i], -f, left, dens[i] * p)
                    if min(rows[i]) < 0:
                        return False
    return not any(
        v == 0 and any(row[:k]) and any(above[k] for above in rows[:i])
        for i, row in enumerate(rows)
        for k, v in enumerate(row)
    )
