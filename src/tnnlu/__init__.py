"""Exact LU decomposition of totally nonnegative matrices.

Every totally nonnegative matrix, singular ones included, has a unique
factorization A = L·U once the echelon shapes of the factors are pinned to
the matrix's leader class.  This package computes that factorization by
two independent routes: one fraction-free elimination table, which holds
every closed-form minor ratio and so the forward substitution, and
zero-row-deleting Neville elimination.  It detects the class of an
arbitrary rational matrix, tests total nonnegativity, and ships the
classical determinantal identities both as library calls and as test
oracles.  All arithmetic is exact.
"""

from .core import (
    IndexSet,
    Mat,
    Scalar,
    all_minors,
    as_scalar,
    det,
    format_matrix,
    format_scalar,
    inversion_count,
    matmul,
    minor,
    parse_matrix,
    parse_scalar,
    rank,
)
from .errors import (
    MovePreconditionError,
    NotInClassError,
    NotTotallyNonnegativeError,
    ParseError,
    ReplayError,
    SizeGuardError,
)
from .explicit import explicit_decompose, reconstruct_lu
from .identities import (
    MinorTerm,
    TermIdentity,
    cauchy_binet_check,
    evaluate_identity,
    laplace_sum_cols,
    laplace_sum_rows,
    laplace_three_term,
    muir_extend,
    sylvester_check,
    vanishing_check,
    vanishing_check_dual,
)
from .mclass import ClassDesc, LUPair, detect_class
from .neville import (
    DeleteRow,
    Eliminate,
    NevilleTrace,
    format_trace,
    neville_decompose,
    neville_move,
    parse_trace,
    replay,
)
from .tnn import TnnReport, is_tnn, random_tnn

__version__ = "0.1.0"

__all__ = [
    "Scalar",
    "IndexSet",
    "Mat",
    "as_scalar",
    "parse_scalar",
    "format_scalar",
    "inversion_count",
    "minor",
    "det",
    "rank",
    "matmul",
    "all_minors",
    "parse_matrix",
    "format_matrix",
    "ClassDesc",
    "detect_class",
    "LUPair",
    "explicit_decompose",
    "reconstruct_lu",
    "DeleteRow",
    "Eliminate",
    "NevilleTrace",
    "neville_move",
    "neville_decompose",
    "replay",
    "format_trace",
    "parse_trace",
    "TnnReport",
    "is_tnn",
    "random_tnn",
    "MinorTerm",
    "TermIdentity",
    "evaluate_identity",
    "laplace_three_term",
    "muir_extend",
    "laplace_sum_rows",
    "laplace_sum_cols",
    "vanishing_check",
    "vanishing_check_dual",
    "cauchy_binet_check",
    "sylvester_check",
    "ParseError",
    "SizeGuardError",
    "NotInClassError",
    "NotTotallyNonnegativeError",
    "MovePreconditionError",
    "ReplayError",
]
