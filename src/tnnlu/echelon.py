"""Staircase (echelon) form predicates and the leader-indexed factor classes.

An upper echelon matrix has its rows' leftmost nonzero entries in strictly
increasing columns, with zero rows only at the bottom; "strict" means no
zero rows at all.  Lower echelon is the transposed picture on columns.
The classes checked by `in_class_L` / `in_class_U` pin the leading entry
of each column (resp. row) to a prescribed index list.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .core import IndexSet, IndexSetLike, Mat


class EchelonReport(NamedTuple):
    """Echelon verdict plus pivot positions.

    For upper form, `pivots` lists the column of each nonzero row's
    leftmost nonzero entry; for lower form, the row of each nonzero
    column's uppermost nonzero entry.  Empty when `is_echelon` is false.
    """

    is_echelon: bool
    is_strict: bool
    pivots: IndexSet


_NOT_ECHELON = EchelonReport(False, False, IndexSet())


def row_leads(rows: Iterable[Sequence], ncols: int) -> list[int]:
    """Each row's leftmost nonzero column, or ``ncols + 1`` for a zero row."""
    return [next((j for j, x in enumerate(row, start=1) if x != 0), ncols + 1) for row in rows]


def is_upper_echelon(U: Mat) -> EchelonReport:
    """Check the upper staircase pattern: each lead left of the next one,
    or the next row zero."""
    leads = row_leads(U._rows, U.ncols)
    if any(a >= b and b <= U.ncols for a, b in zip(leads, leads[1:])):
        return _NOT_ECHELON
    pivots = [j for j in leads if j <= U.ncols]
    return EchelonReport(True, len(pivots) == len(leads), IndexSet(pivots))


def is_lower_echelon(L: Mat) -> EchelonReport:
    """Check the lower staircase pattern column by column."""
    return is_upper_echelon(L.transpose())


def in_class_L(L: Mat, r: IndexSetLike, starred: bool = False) -> bool:
    """True iff column j of L leads with a nonzero entry exactly at row r_j
    (zeros above it) for every j; `starred` further requires that leading
    entry to be 1.  Entries below the leader are unconstrained."""
    leaders = IndexSet.coerce(r)
    if L.ncols != len(leaders):
        raise ValueError(f"{L.nrows}x{L.ncols} matrix needs {L.ncols} leaders, got {len(leaders)}")
    if leaders and leaders[-1] > L.nrows:
        raise ValueError(f"leader row {leaders[-1]} out of range for {L.nrows} rows")
    if starred and any(L.entry(rj, j) != 1 for j, rj in enumerate(leaders, start=1)):
        return False
    return in_class_U(L.transpose(), leaders)


def in_class_U(U: Mat, c: IndexSetLike) -> bool:
    """Row-wise dual of `in_class_L`: row i of U must lead with a nonzero
    entry exactly at column c_i, zeros to its left."""
    leaders = IndexSet.coerce(c)
    if U.nrows != len(leaders):
        raise ValueError(f"{U.nrows}x{U.ncols} matrix needs {U.nrows} leaders, got {len(leaders)}")
    if leaders and leaders[-1] > U.ncols:
        raise ValueError(f"leader column {leaders[-1]} out of range for {U.ncols} columns")
    return row_leads(U._rows, U.ncols) == list(leaders)
