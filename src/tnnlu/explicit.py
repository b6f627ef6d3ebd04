"""Minor-ratio and forward-substitution LU extraction for class members.

Both names are `mclass.certify`, (A, desc=None) -> LUPair: the unique
A = L U in class ``desc`` (or the scan's), L m-by-t column echelon with
leading 1s at rows r, U t-by-n row echelon leading at c.  The paper's closed forms,

    L[h, j] = [r_<j, h | c_<=j] / [r_<=j | c_<=j]   (0 for h < r_j)
    U[i, k] = [r_<=i | c_<i, k] / [r_<i | c_<i]      (0 for k < c_i)

and the forward substitution, row of U then column of L, are both read off
the gate's one fraction-free Bareiss table, whose cells are these bordered
minors (Sylvester's identity); the tests check them by cofactor expansion.
"""

from .mclass import certify

explicit_decompose = reconstruct_lu = certify
