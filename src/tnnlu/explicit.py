"""Minor-ratio and forward-substitution LU extraction for class members.

Both routines take (A, desc=None), open with the class gate
`mclass.certify` (class ``desc``, or the one its scan finds), and produce
the unique factorization A = L U with L an m-by-t column-echelon factor
whose leading entries are 1 at rows r, and U a t-by-n row-echelon factor
with leading entries at columns c.

`explicit_decompose` computes every entry as a ratio of minors of A, each
entry independently (its own determinant, read off A's one integer lift):
the slow, independent oracle behind ``tnnlu decompose --method explicit``
and the tests.
`reconstruct_lu` returns the certified elimination's factors, which solve
for U row by row and L column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Mat, minor
from .mclass import ClassDesc, certify


@dataclass(frozen=True)
class LUPair:
    """A factorization A = L U together with the class it belongs to."""

    L: Mat
    U: Mat
    desc: ClassDesc


def explicit_decompose(A: Mat, desc: Optional[ClassDesc] = None) -> LUPair:
    """Closed-form decomposition from minor ratios, in the class `certify`
    accepts; the certificate makes every leading minor nonzero."""
    desc = certify(A, desc).desc
    r = desc.r.indices
    c = desc.c.indices
    t = len(r)
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}

    def mn(rows: tuple[int, ...], cols: tuple[int, ...]) -> Fraction:
        key = (rows, cols)
        if key not in memo:
            memo[key] = minor(A, rows, cols)
        return memo[key]

    leading = [mn(r[:s], c[:s]) for s in range(t + 1)]

    l_entries: list[Fraction] = []
    for i in range(1, A.nrows + 1):
        for j in range(1, t + 1):
            if i < r[j - 1]:
                l_entries.append(Fraction(0))
            else:
                l_entries.append(mn(r[: j - 1] + (i,), c[:j]) / leading[j])
    u_entries: list[Fraction] = []
    for i in range(1, t + 1):
        for j in range(1, A.ncols + 1):
            if j < c[i - 1]:
                u_entries.append(Fraction(0))
            else:
                u_entries.append(mn(r[:i], c[: i - 1] + (j,)) / leading[i - 1])
    return LUPair(Mat(A.nrows, t, l_entries), Mat(t, A.ncols, u_entries), desc)


def reconstruct_lu(A: Mat, desc: Optional[ClassDesc] = None) -> LUPair:
    """Forward substitution: the factors of `certify`'s elimination, pivoting
    on ``desc``'s leaders or on those its scan finds.  Agrees with
    `explicit_decompose`."""
    elim = certify(A, desc)
    return LUPair(elim.L, elim.U, elim.desc)
