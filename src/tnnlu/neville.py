"""Neville elimination that deletes zero rows instead of shuffling them down.

The decomposition keeps a running factorization A = L·U (starting from
L = I, U = A) and repeats two moves until U is in strictly upper echelon
form:

* if U has a zero row, delete the bottom-most one together with the
  matching column of L (the product is unchanged);
* otherwise locate the leftmost column prefix that breaks the staircase
  and clear the lowest nonzero entry of its last column by subtracting a
  multiple of the row directly above it, applying the inverse update to L.

On totally nonnegative input every multiplier is nonnegative and both
factors stay totally nonnegative throughout.  A negative multiplier, a
state a TNN matrix can never reach (see `tnn.cauchon_check`), or a
negative entry in the final L or U raises; these checks are necessary
only, so past the size guard some non-TNN inputs still factor.  A run is
fully described by its move list, which can be serialized, parsed back,
and replayed: decomposition and replay are one run, fed moves read off U
or taken from the trace, that ends by accepting only the certified pair
of `mclass.eliminate`, whose class it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .core import MAX_BRUTEFORCE, Mat, format_scalar, parse_int, parse_scalar, within_guard
from .echelon import is_upper_echelon, row_leads
from .errors import (
    MovePreconditionError,
    NotTotallyNonnegativeError,
    ParseError,
    ReplayError,
)
from .explicit import LUPair
from .mclass import eliminate
from .tnn import is_tnn

Rows = list[list[Fraction]]


@dataclass(frozen=True)
class DeleteRow:
    """Remove zero row i of U and column i of L."""

    i: int


@dataclass(frozen=True)
class Eliminate:
    """Subtract ``multiplier`` times row s of U from row s+1.

    t is the column whose lowest nonzero entry the move clears;
    multiplier equals u[s+1, t] / u[s, t] at the time of the move.
    """

    s: int
    t: int
    multiplier: Fraction


Move = Union[DeleteRow, Eliminate]


@dataclass(frozen=True)
class NevilleTrace:
    """The moves of one elimination run, optionally with a snapshot of
    (L, U) after each move."""

    moves: tuple[Move, ...]
    stages: Optional[tuple[tuple[Mat, Mat], ...]] = None


def _move_precondition_failure(rows: Rows, s: int, t: int) -> Optional[str]:
    """The first violated elimination-move precondition, or None."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    if not (1 <= s and s + 1 <= m and 1 <= t <= n):
        return f"move position (s={s}, t={t}) out of range for {m}x{n}"
    if rows[s - 1][t - 1] == 0:
        return f"pivot u[{s},{t}] is zero"
    if rows[s][t - 1] == 0:
        return f"entry to clear u[{s + 1},{t}] is zero"
    for i in range(s, m + 1):
        for j in range(1, t):
            if rows[i - 1][j - 1] != 0:
                return f"u[{i},{j}] is nonzero left of the pivot column"
    for i in range(s + 2, m + 1):
        if rows[i - 1][t - 1] != 0:
            return f"u[{i},{t}] is nonzero below the entry being cleared"
    return None


def neville_move(U: Mat, s: int, t: int) -> Mat:
    """One elimination move on U: clear u[s+1, t] using the row above.

    Preconditions: u[s, t] and u[s+1, t] are nonzero, everything left of
    column t from row s down is zero, and nothing below row s+1 in column
    t is nonzero.  Violations raise naming the failed condition.
    """
    rows = U.to_rows()
    failure = _move_precondition_failure(rows, s, t)
    if failure is not None:
        raise MovePreconditionError(failure)
    _step([], rows, Eliminate(s, t, rows[s][t - 1] / rows[s - 1][t - 1]))
    return Mat.from_rows(rows, ncols=U.ncols)


def _find_move(rows: Rows, ncols: int) -> Optional[Move]:
    """The next move read off the rows' leading columns, or None once U is
    strictly upper echelon: delete the bottom-most zero row, else clear
    column t, the leftmost one whose column prefix breaks the staircase
    (the smallest lead at or left of some lead above it).  Any structural
    state a TNN matrix cannot reach raises NotTotallyNonnegativeError.
    """
    leads = row_leads(rows, ncols)
    zero_rows = [k for k, lead in enumerate(leads, start=1) if lead > ncols]
    if zero_rows:
        return DeleteRow(zero_rows[-1])
    if all(a < b for a, b in zip(leads, leads[1:])):
        return None
    leftmost = min(leads)
    if leads[0] != leftmost:
        raise NotTotallyNonnegativeError(
            "input not totally nonnegative: "
            f"leftmost nonzero column {leftmost} has a zero uppermost entry"
        )
    t = min(b for k, b in enumerate(leads[1:], start=1) if max(leads[:k]) >= b)
    s = next(
        (s for s in range(len(rows) - 1, 0, -1) if rows[s - 1][t - 1] != 0 and rows[s][t - 1] != 0),
        None,
    )
    if s is None:
        raise NotTotallyNonnegativeError(
            f"input not totally nonnegative: column {t} breaks the staircase "
            "but has no adjacent nonzero pair"
        )
    return Eliminate(s, t, rows[s][t - 1] / rows[s - 1][t - 1])


def _step(work_l: Rows, work_u: Rows, move: Move) -> Optional[str]:
    """Apply one validated move to the running factors in place.

    Returns the violated condition instead, leaving the factors untouched:
    a row out of range or not zero, a failed elimination precondition, or
    a multiplier that does not match the state.
    """
    if isinstance(move, DeleteRow):
        i = move.i
        if not 1 <= i <= len(work_u):
            return f"row {i} out of range"
        if any(x != 0 for x in work_u[i - 1]):
            return f"row {i} is not a zero row"
        del work_u[i - 1]
        for lrow in work_l:
            del lrow[i - 1]
        return None
    s, t = move.s, move.t
    failure = _move_precondition_failure(work_u, s, t)
    if failure is not None:
        return failure
    lam = work_u[s][t - 1] / work_u[s - 1][t - 1]
    if lam != move.multiplier:
        return (
            f"multiplier {format_scalar(move.multiplier)} does not "
            f"match state value {format_scalar(lam)}"
        )
    # the precondition leaves rows s and s+1 zero left of column t
    work_u[s][t - 1 :] = [x - lam * y for x, y in zip(work_u[s][t - 1 :], work_u[s - 1][t - 1 :])]
    for lrow in work_l:
        if lrow[s]:
            lrow[s - 1] += lam * lrow[s]
    return None


def _run(
    A: Mat,
    next_move: Callable[[Rows], Optional[Move]],
    refuse: Callable[..., Exception],
    record_stages: bool = False,
) -> tuple[LUPair, NevilleTrace]:
    """From (L, U) = (I, A), apply ``next_move(U)`` through `_step` until it
    gives None, then accept (L, U) only if no multiplier is negative, U is
    strictly echelon, the pair is the certified `eliminate(A)` pair and no
    entry is negative.  ``refuse(reason, step=None)`` builds each error.
    """
    work_u = A.to_rows()
    work_l = Mat.identity(A.nrows).to_rows()
    moves: list[Move] = []
    stages: list[tuple[Mat, Mat]] = []

    def factors() -> tuple[Mat, Mat]:
        return Mat.from_rows(work_l, ncols=len(work_u)), Mat.from_rows(work_u, ncols=A.ncols)

    for move in iter(lambda: next_move(work_u), None):
        failure = _step(work_l, work_u, move)
        if failure is not None:
            raise refuse(failure, len(moves) + 1)
        moves.append(move)
        # after the step, so that a failed precondition is the one reported
        if isinstance(move, Eliminate) and move.multiplier < 0:
            raise refuse(
                f"move {len(moves)} (s={move.s}, t={move.t}) has negative "
                f"multiplier {format_scalar(move.multiplier)}"
            )
        if record_stages:
            stages.append(factors())
    L, U = factors()
    if not is_upper_echelon(U).is_strict:
        raise refuse("trace does not finish the elimination")
    elim = eliminate(A)
    if elim.failure is not None or (elim.L, elim.U) != (L, U):
        raise refuse("elimination did not end at the class factorization")
    negative = [
        f"{name}[{i},{j}] = {format_scalar(x)}"
        for name, rows in (("L", work_l), ("U", work_u))
        for i, row in enumerate(rows, start=1)
        for j, x in enumerate(row, start=1)
        if x < 0
    ]
    if negative:
        raise refuse(negative[0])
    trace = NevilleTrace(tuple(moves), tuple(stages) if record_stages else None)
    return LUPair(L, U, elim.desc), trace


def neville_decompose(
    A: Mat,
    record_stages: bool = False,
    *,
    check_tnn: bool = True,
    max_size: int = MAX_BRUTEFORCE,
) -> tuple[LUPair, NevilleTrace]:
    """Run the elimination on a totally nonnegative matrix.

    Total nonnegativity is verified brute-force up front when the matrix
    is small enough (and ``check_tnn`` is left on); beyond the size guard
    it is only policed move by move and by the signs of the factors.  With
    ``record_stages`` the trace keeps a snapshot of (L, U) after every
    move.  The finished factors must be A's certified class factorization.
    """
    if check_tnn and within_guard(A, max_size):
        report = is_tnn(A, max_size=max_size)
        if not report.is_tnn:
            rows, cols, value = report.witness
            raise NotTotallyNonnegativeError(
                f"input not totally nonnegative: minor [{list(rows)}|{list(cols)}] = "
                f"{format_scalar(value)}"
            )
    return _run(
        A,
        lambda rows: _find_move(rows, A.ncols),
        lambda reason, step=None: NotTotallyNonnegativeError(
            f"input not totally nonnegative: {reason}"
        ),
        record_stages,
    )


def replay(A: Mat, trace: NevilleTrace) -> LUPair:
    """Reapply a recorded move list to A; must reproduce the original output.

    Each move is validated against the current state (is the row really
    zero?  does the multiplier match?), so a trace from a different matrix
    fails with the offending step index instead of fabricating factors;
    the finished factors pass the same checks as `neville_decompose`'s.
    """
    moves = iter(trace.moves)
    return _run(
        A,
        lambda rows: next(moves, None),
        lambda reason, step=None: ReplayError(reason if step is None else f"step {step}: {reason}"),
    )[0]


def format_trace(trace: NevilleTrace) -> str:
    """One move per line: "D i" or "E s t p/q", with exact rationals."""
    lines = []
    for move in trace.moves:
        if isinstance(move, DeleteRow):
            lines.append(f"D {move.i}")
        else:
            lines.append(f"E {move.s} {move.t} {format_scalar(move.multiplier)}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> NevilleTrace:
    """Inverse of `format_trace`; stages are not serialized."""
    moves: list[Move] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            if tokens[0] == "D" and len(tokens) == 2:
                moves.append(DeleteRow(parse_int(tokens[1])))
                continue
            if tokens[0] == "E" and len(tokens) == 4:
                s, t = parse_int(tokens[1]), parse_int(tokens[2])
                moves.append(Eliminate(s, t, parse_scalar(tokens[3])))
                continue
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad trace line {line!r}") from exc
        raise ParseError(f"line {lineno}: bad trace line {line!r}")
    return NevilleTrace(tuple(moves))
