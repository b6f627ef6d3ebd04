"""Minor-ratio and forward-substitution LU extraction for class members.

Both routines produce, for a matrix in the class with leaders (r, c), the
unique factorization A = L U with L an m-by-t column-echelon factor whose
leading entries are 1 at rows r, and U a t-by-n row-echelon factor with
leading entries at columns c.

`explicit_decompose` computes every entry as a ratio of minors of A, each
entry independently, which makes it a true oracle for the other paths.
`reconstruct_lu` instead solves for U row by row and L column by column
using only previously determined entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Mat, minor
from .errors import NotInClassError
from .mclass import ClassDesc, eliminate, in_class_M


@dataclass(frozen=True)
class LUPair:
    """A factorization A = L U together with the class it belongs to."""

    L: Mat
    U: Mat
    desc: ClassDesc


def explicit_decompose(
    A: Mat, desc: ClassDesc, check: bool = True, max_size: int = 8
) -> LUPair:
    """Closed-form decomposition from minor ratios.

    With ``check`` true the class membership is verified first (subject to
    the brute-force size guard); with ``check`` false only the leading
    minors are consulted, and a zero one is a hard error.
    """
    if check and not in_class_M(A, desc, max_size):
        raise NotInClassError("not in declared class")
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
    for s in range(1, t + 1):
        if leading[s] == 0:
            raise NotInClassError("not in declared class")

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


def reconstruct_lu(
    A: Mat, desc: Optional[ClassDesc] = None, check: bool = True
) -> LUPair:
    """Forward substitution: `eliminate` pivoting on ``desc``'s leaders, or
    on those its scan finds when ``desc`` is None.  With ``check`` the class
    certificate must hold.  Agrees with `explicit_decompose` on members.
    """
    elim = eliminate(A, desc)
    if check and not elim.certified:
        reason = "matrix belongs to no class" if desc is None else "not in declared class"
        raise NotInClassError(reason)
    return LUPair(elim.L, elim.U, elim.desc)
