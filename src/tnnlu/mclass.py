"""Membership testing and detection for the leader-pair matrix classes.

A rank-t matrix belongs to the class named by leader sets (r, c) when its
leading minors along (r, c) are all nonzero and every minor whose row or
column set fails to dominate the corresponding leader prefix vanishes.
A matrix belongs to at most one such class, and may belong to none.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import MAX_BRUTEFORCE, IndexSet, IndexSetLike, Mat, _bareiss, first_minor, rank
from .core import _over_lcm, _reduce
from .core import iter_minor_layers  # noqa: F401  (bench/test_bench.py checks it is traced here)
from .errors import NotInClassError


class ClassDesc(NamedTuple("_ClassDesc", [("r", IndexSet), ("c", IndexSet)])):
    """Equal-cardinality row-leader and column-leader index sets."""

    __slots__ = ()

    def __new__(cls, r: IndexSetLike, c: IndexSetLike) -> "ClassDesc":
        r, c = IndexSet.coerce(r), IndexSet.coerce(c)
        if len(r) != len(c):
            raise ValueError(f"leader sets must have equal cardinality: {r!r}, {c!r}")
        return super().__new__(cls, r, c)


def _validate_desc(A: Mat, desc: ClassDesc) -> None:
    if desc.r and desc.r[-1] > A.nrows:
        raise ValueError(f"row leader {desc.r[-1]} out of range for {A.nrows}x{A.ncols}")
    if desc.c and desc.c[-1] > A.ncols:
        raise ValueError(f"column leader {desc.c[-1]} out of range for {A.nrows}x{A.ncols}")


def in_class_M(A: Mat, desc: ClassDesc, max_size: int = MAX_BRUTEFORCE) -> bool:
    """Exhaustive class membership test.

    Checks rank, the chain of leading minors, and the vanishing of every
    minor of each size s <= t whose row or column set is not componentwise
    >= the length-s leader prefix.  Cost is exponential in min(m, n),
    hence the size guard.
    """
    _validate_desc(A, desc)
    r, c = desc.r, desc.c

    def fails(rows: tuple[int, ...], cols: tuple[int, ...], value: int) -> bool:
        if all(i >= p for i, p in zip(rows, r)) and all(j >= q for j, q in zip(cols, c)):
            return value == 0 and rows == r[: len(rows)] and cols == c[: len(cols)]
        return value != 0

    return first_minor(A, fails, max_size, max_order=len(r)) is None and rank(A) == len(r)


class LUPair(NamedTuple):
    """A factorization A = L U together with the class it belongs to."""

    L: Mat
    U: Mat
    desc: ClassDesc


def _table(A: Mat, desc: Optional[ClassDesc] = None) -> tuple:
    """The lexicographic Schur-complement table of A: one `_bareiss` run on
    A's integer rows, each pivot the first nonzero cell, row-major, below
    and right of the last, or ``desc``'s leaders, a zero one raising.  It is
    (R, pivots, row_step, col_step, residue, found, failure): the step at
    which each row and column was pivoted is t if never, ``found`` is the
    class the 0-based pivots name, ``residue`` the first (i, j), row-major,
    where A - L·U is nonzero, or None, and ``failure`` the first failed
    clause of the class certificate (L in L*(r), U in U(c), L·U == A), or
    None.  By Cauchy-Binet and the uniqueness of a member's factors, which
    elimination recovers, None equals `in_class_M`.

    The pivots are the leads: L's column s is 1 at row i_s, and U's row s
    is nonzero at column j_s.  So L fails iff a row h < i_s pivoted after
    step s, or never, has R[h, j_s] != 0, and U fails iff a column k < j_s
    pivoted after step s, or never, has R[i_s, k] != 0.  Under the scan the
    L clause cannot fire, since a skipped row is zero right of the last
    pivot and later updates keep it zero; a declared ``desc`` can fail it."""
    if desc is not None:
        _validate_desc(A, desc)
    m, n = A.nrows, A.ncols
    R = [list(row) for row in A._rows]
    leaders = None if desc is None else iter([(i - 1, j - 1) for i, j in zip(desc.r, desc.c)])

    def pick(R, live_rows, live_cols, pivots):
        if leaders is not None:
            step = next(leaders, None)
            if step and not R[step[0]][step[1]]:
                i, j = step[0] + 1, step[1] + 1
                raise NotInClassError(f"not in declared class: zero pivot at ({i},{j})")
            return step
        i0, j0 = pivots[-1] if pivots else (-1, -1)
        cells = ((i, j) for i in range(i0 + 1, m) for j in range(j0 + 1, n))
        return next(((i, j) for i, j in cells if R[i][j]), None)

    pivots = _bareiss(R, pick)
    t = len(pivots)
    row_step, col_step = [t] * m, [t] * n
    for s, (i, j) in enumerate(pivots):
        row_step[i], col_step[j] = s, s
    live = ((h, k) for h in range(m) for k in range(n) if row_step[h] == col_step[k] == t)
    residue = next(((h + 1, k + 1) for h, k in live if R[h][k]), None)
    found = ClassDesc([i + 1 for i, _ in pivots], [j + 1 for _, j in pivots])
    failure = None
    if any(R[h][j] for s, (i, j) in enumerate(pivots) for h in range(i) if row_step[h] > s):
        failure = f"L does not lead with 1 at rows {list(found.r)}"
    elif any(R[i][k] for s, (i, j) in enumerate(pivots) for k in range(j) if col_step[k] > s):
        failure = f"U does not lead at columns {list(found.c)}"
    elif residue is not None:
        failure = "A - L*U is nonzero at ({},{})".format(*residue)
    return R, pivots, row_step, col_step, residue, found, failure


def _factors(A: Mat, table: tuple) -> LUPair:
    """L and U read off `_table`'s ``table`` of A, uncertified, with its class.
    On rows lifted by their denominators s_h, pivot s, (i, j), of value p_s
    leaves R[i, k] = [r_<s, i | c_<s, k] and R[h, j] = [r_<s, h | c_<s, j], so
    U's row s is R[i, k] / (s_i·p_<s) and L's column s is R[h, j]·s_i / (s_h·p_s)
    where k (or h) was live at step s, else 0.  L·U == A where `certify` passes."""
    R, pivots, row_step, col_step, _, found, _ = table
    m, n, t, dens = A.nrows, A.ncols, len(pivots), A._dens
    p = [1] + [R[i][j] for i, j in pivots]
    U = [
        _reduce([R[i][k] if col_step[k] >= s else 0 for k in range(n)], dens[i] * p[s])
        for s, (i, _) in enumerate(pivots)
    ]
    L = [
        _over_lcm([
            (R[h][j] * dens[i], dens[h] * p[s + 1]) if row_step[h] >= s else (0, 1)
            for s, (i, j) in enumerate(pivots)
        ])
        for h in range(m)
    ]
    return LUPair(Mat._of(m, t, L), Mat._of(t, n, U), found)


def certify(A: Mat, desc: Optional[ClassDesc] = None) -> LUPair:
    """`_factors`' pair, gated by its table's certificate, the one test
    every factorization route passes: a failed clause raises NotInClassError
    naming it before any factor is built."""
    table = _table(A, desc)
    failure = table[-1]
    if failure is not None:
        verdict = "matrix belongs to no class" if desc is None else "not in declared class"
        raise NotInClassError(f"{verdict}: {failure}")
    return _factors(A, table)


def greedy_leaders(A: Mat) -> Optional[ClassDesc]:
    """Uncertified leaders: the pivots of the scan's table (each the first
    (i, j) past the last with a nonzero bordered leading minor), or None if
    it stops short of the rank.  `detect_class` adds the certificate."""
    *_, residue, found, _ = _table(A)
    return found if residue is None else None


def detect_class(A: Mat) -> Optional[ClassDesc]:
    """The unique class of A, or None when A belongs to no class: the scan's
    table proposes leaders and its certificate decides in polynomial time,
    so absence is reported rather than guessed.  No factor is built."""
    *_, found, failure = _table(A)
    return found if failure is None else None
