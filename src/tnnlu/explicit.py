"""Minor-ratio and forward-substitution LU extraction for class members.

Both routines take (A, desc=None), open with the class gate
`mclass.certify` (class ``desc``, or the one its scan finds), and produce
the unique factorization A = L U with L an m-by-t column-echelon factor
whose leading entries are 1 at rows r, and U a t-by-n row-echelon factor
with leading entries at columns c.

`explicit_decompose` evaluates the paper's closed forms, every entry a
ratio of two bordered minors of A, all read off one fraction-free Bareiss
table of A's integer lift (Sylvester's identity): the route behind
``tnnlu decompose --method explicit``, computed apart from the elimination
so that the tests can hold the routes to each other.
`reconstruct_lu` returns the certified elimination's factors, which solve
for U row by row and L column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Mat, _bareiss, _integer_lift
from .mclass import ClassDesc, certify


@dataclass(frozen=True)
class LUPair:
    """A factorization A = L U together with the class it belongs to."""

    L: Mat
    U: Mat
    desc: ClassDesc


def explicit_decompose(A: Mat, desc: Optional[ClassDesc] = None) -> LUPair:
    """Closed-form decomposition from minor ratios, in the class `certify`
    accepts:

        L[h, j] = [r_<j, h | c_<=j] / [r_<=j | c_<=j]   (0 for h < r_j)
        U[i, k] = [r_<=i | c_<i, k] / [r_<i | c_<i]      (0 for k < c_i)

    Every minor is read off one `_bareiss` table of A's integer lift, with
    rows r then the rest and columns c then the rest; the certificate makes
    every leading minor nonzero, so no pivot is swapped."""
    desc = certify(A, desc).desc
    r, c = desc.r.indices, desc.c.indices
    t = len(r)
    lifted, scales = _integer_lift(A)
    rows = r + tuple(i for i in range(1, A.nrows + 1) if i not in r)
    cols = c + tuple(k for k in range(1, A.ncols + 1) if k not in c)
    table = [[lifted[i - 1][k - 1] for k in cols] for i in rows]
    _bareiss(table, t)
    row_of = {h: table[pos] for pos, h in enumerate(rows)}
    at_col = {k: pos for pos, k in enumerate(cols)}
    leading = [1] + [table[s][s] for s in range(t)]  # lifted [r_<=s | c_<=s]
    L = [
        Fraction(row_of[h][j] * scales[r[j] - 1], scales[h - 1] * table[j][j]) if h >= r[j] else 0
        for h in range(1, A.nrows + 1)
        for j in range(t)
    ]
    U = [
        Fraction(table[i][at_col[k]], scales[r[i] - 1] * leading[i]) if k >= c[i] else 0
        for i in range(t)
        for k in range(1, A.ncols + 1)
    ]
    return LUPair(Mat(A.nrows, t, L), Mat(t, A.ncols, U), desc)


def reconstruct_lu(A: Mat, desc: Optional[ClassDesc] = None) -> LUPair:
    """Forward substitution: the factors of `certify`'s elimination, pivoting
    on ``desc``'s leaders or on those its scan finds.  Agrees with
    `explicit_decompose`."""
    elim = certify(A, desc)
    return LUPair(elim.L, elim.U, elim.desc)
