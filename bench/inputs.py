"""Seeded input matrices for the benchmark, built without the package.

Every generator returns a list of rows of `Fraction` and takes a
`random.Random` (or nothing, for Pascal), so the inputs depend only on the
benchmark's seed.  None of them calls `tnnlu.random_tnn` or the test
helpers: a change to either cannot change what the benchmark feeds in.

Each construction also says what the right answer is, which the checker
in `verify.py` holds the program to:

* `pascal`, `bidiagonal_product`: totally nonnegative (TNN), so they lie
  in exactly one class; `bidiagonal_product` has exactly the rank asked for.
* `signed_member`: `L·U` with chosen leaders (r, c), so it is in class
  (r, c); its entry a[r1, c1] is negative, so it is not TNN.
* `raise_entry`: a TNN square matrix with one entry raised until a known
  2x2 minor is negative.
* `planted_nonmember`: carries `0 1; 1 1` in its leading corner, which no
  class member can (its first leader would need a[1,1] != 0).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from verify import det

Rows = list[list[Fraction]]

# Nonnegative bidiagonal multipliers: mostly small integers, some halves
# (so Fraction arithmetic is exercised), and zeros (so products stay sparse
# and their entries stay short).
_MULTIPLIERS = (0, 0, 1, 1, 1, 2, Fraction(1, 2))


def to_text(rows: Rows, ncols: int) -> str:
    """The `m n` header plus one line per row, as the CLI reads it."""
    lines = [f"{len(rows)} {ncols}"]
    lines.extend(" ".join(str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def pascal(m: int, n: int) -> Rows:
    """a[i, j] = C(i + j, i) (0-based): totally positive when square."""
    return [[Fraction(comb(i + j, i)) for j in range(n)] for i in range(m)]


def bidiagonal_product(rng: random.Random, m: int, n: int, rank: int) -> Rows:
    """E · D · F with D an m-by-n diagonal of `rank` positive entries and E
    (F) a product of nonnegative lower (upper) bidiagonal elementary
    factors, applied in full Neville sweeps.  Every factor is TNN, so the
    product is TNN; E and F are invertible, so its rank is exactly `rank`.
    """
    if not 0 <= rank <= min(m, n):
        raise ValueError(f"rank {rank} impossible for {m}x{n}")
    work = [[Fraction(0)] * n for _ in range(m)]
    for i in rng.sample(range(min(m, n)), rank):
        work[i][i] = Fraction(rng.randint(1, 3))
    for start in range(m - 1):
        for i in range(m - 2, start - 1, -1):
            lam = rng.choice(_MULTIPLIERS)
            if lam:
                work[i + 1] = [x + lam * y for x, y in zip(work[i + 1], work[i])]
    for start in range(n - 1):
        for j in range(n - 2, start - 1, -1):
            lam = rng.choice(_MULTIPLIERS)
            if lam:
                for row in work:
                    row[j + 1] += lam * row[j]
    return work


def signed_member(
    rng: random.Random, m: int, n: int, t: int
) -> tuple[Rows, tuple[tuple[int, ...], tuple[int, ...]]]:
    """A = L·U with L column echelon (unit leads at rows r) and U row
    echelon (nonzero leads at columns c), entries of both signs.

    Returns A and its leaders (r, c), 1-based.  By Cauchy-Binet such a
    product is in class (r, c).  The lead u[1, c1] is negative, hence so is
    a[r1, c1]: a 1x1 witness that A is not TNN.
    """
    r = tuple(sorted(rng.sample(range(1, m + 1), t)))
    c = tuple(sorted(rng.sample(range(1, n + 1), t)))
    L = [[Fraction(0)] * t for _ in range(m)]
    U = [[Fraction(0)] * n for _ in range(t)]
    for k in range(t):
        L[r[k] - 1][k] = Fraction(1)
        for i in range(r[k], m):
            L[i][k] = Fraction(rng.randint(-3, 3))
        U[k][c[k] - 1] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        for j in range(c[k], n):
            U[k][j] = Fraction(rng.randint(-3, 3))
    U[0][c[0] - 1] = -abs(U[0][c[0] - 1])
    A = [[sum((L[i][k] * U[k][j] for k in range(t)), Fraction(0)) for j in range(n)] for i in range(m)]
    return A, (r, c)


def raise_entry(rng: random.Random, A: Rows) -> tuple[Rows, tuple[int, int]]:
    """Raise one entry a[i, j] of a square TNN matrix so that the 2x2 minor
    on rows (i-1, i) and columns (j, j+1) is negative, keeping A invertible.

    Returns the new matrix and (i, j), 1-based.
    """
    n = len(A)
    spots = [(i, j) for i in range(1, n) for j in range(n - 1) if A[i - 1][j + 1] > 0]
    i, j = rng.choice(spots)
    out = [row[:] for row in A]
    # The minor is a[i-1,j] a[i,j+1] - a[i-1,j+1] a[i,j]: it turns
    # negative once a[i,j] exceeds a[i-1,j] a[i,j+1] / a[i-1,j+1].
    bar = A[i - 1][j] * A[i][j + 1] / A[i - 1][j + 1]
    raised = Fraction(int(bar) + rng.randint(1, 5))
    while True:
        out[i][j] = raised
        if det(out) != 0:
            return out, (i + 1, j + 1)
        raised += 1


def planted_nonmember(rng: random.Random, m: int, n: int) -> Rows:
    """Positive entries except the leading corner, which is `0 1; 1 1`.

    a[1,1] = 0 with a[1,2] and a[2,1] nonzero rules out every class, and
    the minor on rows {1,2}, columns {1,2} is -1: the first minor of size 2
    in scan order, and every entry is >= 0.
    """
    rows = [[Fraction(rng.randint(1, 5)) for _ in range(n)] for _ in range(m)]
    rows[0][0], rows[0][1] = Fraction(0), Fraction(1)
    rows[1][0], rows[1][1] = Fraction(1), Fraction(1)
    return rows
