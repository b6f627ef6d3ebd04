"""Minor-ratio and forward-substitution LU extraction for class members.

Both routines take (A, desc=None) and return the factors of the class gate
`mclass.certify` (class ``desc``, or the one its scan finds): the unique
factorization A = L U with L an m-by-t column-echelon factor whose leading
entries are 1 at rows r, and U a t-by-n row-echelon factor with leading
entries at columns c.  The gate's one fraction-free Bareiss table holds
every bordered minor of the paper's closed forms (Sylvester's identity), so
both names, behind ``--method explicit`` and ``--method reconstruct``,
return the same pair.  The tests hold it to the closed forms evaluated by
cofactor expansion, and to Neville elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Mat
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

    Every such minor is a cell of `certify`'s one `_bareiss` table
    (Sylvester's identity), so these are its factors."""
    elim = certify(A, desc)
    return LUPair(elim.L, elim.U, elim.desc)


def reconstruct_lu(A: Mat, desc: Optional[ClassDesc] = None) -> LUPair:
    """Forward substitution: the factors of `certify`'s elimination, pivoting
    on ``desc``'s leaders or on those its scan finds."""
    elim = certify(A, desc)
    return LUPair(elim.L, elim.U, elim.desc)
