"""Neville elimination that deletes zero rows instead of shuffling them down.

The decomposition keeps a running factorization A = L·U (starting from
L = I, U = A) and repeats two moves until U is in strictly upper echelon
form:

* if U has a zero row, delete the bottom-most one together with the
  matching column of L (the product is unchanged);
* otherwise locate the leftmost column prefix that breaks the staircase
  and clear the lowest nonzero entry of its last column by subtracting a
  multiple of the row directly above it, applying the inverse update to L.

The run is fraction-free in the manner of Bareiss: each row of U is held
as integer numerators over one positive denominator, seeded from A's own
integer rows.  Clearing u[s+1, t], with a and b the numerators of u[s+1, t]
and u[s, t], sets row s+1 to b·row s+1 - a·row s over b times its
denominator, divided through by the gcd.  Each row's lead (leftmost
nonzero column) is kept in a list, and a move rescans only the lead of
the row it changed.  The scan for the next move reads the leads where a
column sweep starts or ends; inside one, the next move follows from the
last.  The finish runs on the same integers and hands them over as they
are (see `_run`).  A multiplier stays the integer pair of the run through
L's rebuild (`_pair`), made a Fraction only for a trace that a caller keeps.

On totally nonnegative input every multiplier is nonnegative and both
factors stay totally nonnegative throughout.  A negative multiplier, a
state a TNN matrix can never reach (a zero with nonzeros to its right and
below, so a negative entry or 2x2 minor), or a negative entry in the final
U raises.  These checks are necessary only; a second run, on Uᵀ, makes
them exact (`_tnn_gate`, the TNN test).  A run keeps U only and is fully
described by its move list, which can be serialized, parsed back, and
replayed, and which determines L (see `_pair`): decomposition and replay
are one run, fed moves read off U or taken from the trace, whose finished
pair is `mclass.certify`'s by construction, with no table built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .core import (
    MAX_BRUTEFORCE, Mat, _combine_into, first_minor, format_scalar, parse_int,
    parse_scalar, within_guard,
)
from .errors import MovePreconditionError, NotTotallyNonnegativeError, ParseError, ReplayError
from .mclass import ClassDesc, LUPair


class DeleteRow(NamedTuple):
    """Remove zero row i of U and column i of L."""

    i: int


class Eliminate(NamedTuple):
    """Subtract ``multiplier`` times row s of U from row s+1.

    t is the column whose lowest nonzero entry the move clears;
    multiplier equals u[s+1, t] / u[s, t] at the time of the move.
    """

    s: int
    t: int
    multiplier: Fraction


Move = Union[DeleteRow, Eliminate]


class NevilleTrace(NamedTuple):
    """The moves of one elimination run, optionally with a snapshot of
    (L, U) after each move."""

    moves: tuple[Move, ...]
    stages: Optional[tuple[tuple[Mat, Mat], ...]] = None


def _not_tnn(reason: str, step: Optional[int] = None) -> NotTotallyNonnegativeError:
    return NotTotallyNonnegativeError(f"input not totally nonnegative: {reason}")


def _lead(row: list[int], after: int) -> int:
    """The first nonzero column of ``row`` right of column ``after``, or
    ``len(row) + 1`` when there is none."""
    j = after
    while j < len(row) and not row[j]:
        j += 1
    return j + 1


class _Factors:
    """The running U on integers in lowest terms: row k is ``u[k] / du[k]``
    (denominator positive) and ``leads[k]`` is its first nonzero column,
    ``ncols + 1`` for a zero row.  A move touches one row and its lead; L
    is not kept, as the moves determine it (see `_pair`)."""

    def __init__(self, A: Mat):
        self.ncols = A.ncols
        self.u, self.du = [list(row) for row in A._rows], list(A._dens)
        self.leads = [_lead(row, 0) for row in self.u]

    def mat(self) -> Mat:
        return Mat._of(len(self.u), self.ncols, list(zip(self.u, self.du)))


def _move_precondition_failure(state: _Factors, s: int, t: int) -> Optional[str]:
    """The first violated elimination-move precondition, or None; a
    nonzero left of column t is named by the first row's lead."""
    rows, leads, m = state.u, state.leads, len(state.u)
    n = state.ncols
    if not (1 <= s and s + 1 <= m and 1 <= t <= n):
        return f"move position (s={s}, t={t}) out of range for {m}x{n}"
    if rows[s - 1][t - 1] == 0:
        return f"pivot u[{s},{t}] is zero"
    if rows[s][t - 1] == 0:
        return f"entry to clear u[{s + 1},{t}] is zero"
    if min(leads[s - 1 :]) < t:
        i = next(i for i in range(s, m + 1) if leads[i - 1] < t)
        return f"u[{i},{leads[i - 1]}] is nonzero left of the pivot column"
    if t in leads[s + 1 :]:  # no lead from row s down is left of t, so a nonzero at t leads
        return f"u[{leads.index(t, s + 1) + 1},{t}] is nonzero below the entry being cleared"
    return None


def neville_move(U: Mat, s: int, t: int) -> Mat:
    """One elimination move on U: clear u[s+1, t] using the row above.

    Preconditions: u[s, t] and u[s+1, t] are nonzero, everything left of
    column t from row s down is zero, and nothing below row s+1 in column
    t is nonzero.  Violations raise naming the failed condition.
    """
    state = _Factors(U)
    if (failure := _move_precondition_failure(state, s, t)) is not None:
        raise MovePreconditionError(failure)
    _step(state, Eliminate(s, t, U.entry(s + 1, t) / U.entry(s, t)))
    return state.mat()


def _find_move(state: _Factors) -> Optional[tuple[int, int]]:
    """The scan: (s, t) of the next Eliminate, read off the leads of a U with
    no zero row, or None once U is strictly upper echelon.  t is the leftmost
    column whose prefix breaks the staircase (the smallest lead at or left of
    the running maximum of the leads above it), and rows s, s+1 the lowest
    nonzero pair there.  A state no TNN matrix reaches raises."""
    rows, leads, n = state.u, state.leads, state.ncols
    t, top = n + 1, 0
    for b in leads:
        if b > top:
            top = b
        elif b < t:
            t = b
    if t > n:
        return None
    leftmost = min(leads)
    if leads[0] != leftmost:
        raise _not_tnn(f"leftmost nonzero column {leftmost} has a zero uppermost entry")
    s = next((s for s in range(len(rows) - 1, 0, -1) if rows[s - 1][t - 1] and rows[s][t - 1]), None)
    if s is None:
        raise _not_tnn(f"column {t} breaks the staircase but has no adjacent nonzero pair")
    return s, t


def _step(state: _Factors, move: Move) -> Optional[str]:
    """Apply one validated move to U in place.

    Returns the violated condition instead, leaving U untouched: a row out
    of range or not zero, a failed elimination precondition, or a
    multiplier that does not match the state.
    """
    u, du = state.u, state.du
    if isinstance(move, DeleteRow):
        i = move.i
        if not 1 <= i <= len(u):
            return f"row {i} out of range"
        if state.leads[i - 1] <= state.ncols:
            return f"row {i} is not a zero row"
        del u[i - 1], du[i - 1], state.leads[i - 1]
        return None
    s, t = move.s, move.t
    failure = _move_precondition_failure(state, s, t)
    if failure is not None:
        return failure
    # the multiplier u[s+1, t] / u[s, t] is p/q, unreduced, q nonzero
    a, b = u[s][t - 1], u[s - 1][t - 1]
    p, q = a * du[s - 1], b * du[s]
    lam = move.multiplier
    if lam.numerator * q != lam.denominator * p:
        return f"multiplier {format_scalar(lam)} does not match state value {format_scalar(Fraction(p, q))}"
    # row s+1 becomes b·row s+1 - a·row s over b·du; the precondition
    # leaves both rows zero left of column t
    du[s] = _combine_into(u[s], b, a, u[s - 1], t - 1, b * du[s])
    state.leads[s] = _lead(u[s], t)
    return None


def _negative(k: int, s: int, t: int, multiplier: Fraction) -> str:
    return f"move {k} (s={s}, t={t}) has negative multiplier {format_scalar(multiplier)}"


def _run(
    A: Mat,
    next_move: Optional[Callable[[_Factors, list[Move]], Optional[Move]]],
    refuse: Callable[..., Exception],
) -> tuple[_Factors, list]:
    """From U = A in `_Factors`, apply ``next_move(state, moves)``, given
    the moves so far, through `_step` until it gives None; with ``next_move``
    None, apply the scan's moves by the trusted kernel; either way an
    Eliminate(s, t, p/q) is kept as the integers ``(s, t, p, q)``.  Then accept
    only if no multiplier is negative, the leads make U strictly echelon and
    no numerator of U is negative; each error is ``refuse(reason, step=None)``.

    The kernel deletes A's zero rows in one pass, bottom-up, and runs each
    column sweep as one loop that checks only its first move, `_find_move`'s,
    as `_step` would.  After ``Eliminate(s, t)`` the scan would give
    ``DeleteRow(s + 1)`` if that emptied row s+1, then ``Eliminate(s - 1,
    t)`` if row s-1 leads at t: no other row is zero; t still breaks first
    and ``leads[0]`` is least, as only row s+1's lead rose and the
    preconditions held every lead from row s down at or right of t; and rows
    s-1, s are column t's lowest nonzero pair, its preconditions met, as
    every row below s is now zero at t.

    With L rebuilt from the moves (`_pair`), the pair is then `certify(A)`'s,
    in the class of L's column leads r and U's leads c:

    * each move keeps A = L·U: an Eliminate applies an elementary E to U and
      E⁻¹ to L, a DeleteRow drops a zero row of U and L's matching column;
    * column k of L starts as the unit vector at row o_k and only gains λ
      times later columns, zero at and above o_k, so L is unit column
      echelon at r = (o_1 < ... < o_t), and needs no sign scan, as a λ < 0
      is refused right after its step;
    * U is row echelon at c, with no zero row;
    * those are `certify`'s clauses, and a class member's factors are unique
      (Pinkus, Thm 2.10 and Prop. 2.11)."""
    state = _Factors(A)
    u, du, leads, n = state.u, state.du, state.leads, state.ncols
    moves: list = []
    if next_move is None:
        moves = [DeleteRow(i) for i in range(len(u), 0, -1) if leads[i - 1] > n]
        kept = [k for k, b in enumerate(leads) if b <= n]
        u[:], du[:], leads[:] = [u[k] for k in kept], [du[k] for k in kept], [leads[k] for k in kept]
        while (found := _find_move(state)) is not None:
            s, t = found
            if (failure := _move_precondition_failure(state, s, t)) is not None:
                raise refuse(failure, len(moves) + 1)
            while s:
                a, b = u[s][t - 1], u[s - 1][t - 1]
                moves.append((s, t, a * du[s - 1], b * du[s]))
                if (a < 0) != (b < 0):
                    raise refuse(_negative(len(moves), s, t, Fraction(*moves[-1][2:])))
                du[s] = _combine_into(u[s], b, a, u[s - 1], t - 1, b * du[s])
                leads[s] = _lead(u[s], t)
                if leads[s] > n:
                    moves.append(DeleteRow(s + 1))
                    del u[s], du[s], leads[s]
                s = s - 1 if s > 1 and leads[s - 2] == t else 0
    else:
        for move in iter(lambda: next_move(state, moves), None):
            if (failure := _step(state, move)) is not None:
                raise refuse(failure, len(moves) + 1)
            lam = None if isinstance(move, DeleteRow) else move.multiplier
            moves.append(move if lam is None else (move.s, move.t, lam.numerator, lam.denominator))
            # after the step, so that a failed precondition is the one reported
            if lam is not None and lam.numerator < 0:
                raise refuse(_negative(len(moves), move.s, move.t, lam))
    if any(a >= b for a, b in zip(leads, leads[1:] + [n + 1])):
        raise refuse("trace does not finish the elimination")
    # every denominator is positive, so a numerator carries its entry's sign
    for i, (row, d) in enumerate(zip(u, du)):
        if min(row, default=0) < 0:
            j = next(j for j, x in enumerate(row) if x < 0)
            raise refuse(f"U[{i + 1},{j + 1}] = {format_scalar(Fraction(row[j], d))}")
    return state, moves


def _traced(move) -> Move:
    """A move as `_run` keeps it, as a trace keeps it: (s, t, p, q) as Eliminate(s, t, p/q)."""
    return move if type(move) is DeleteRow else Eliminate(move[0], move[1], Fraction(move[2], move[3]))


def _pair(A: Mat, state: _Factors, moves: Sequence, stages: Optional[list] = None) -> LUPair:
    """A finished run's pair, L rebuilt from its moves as `_run` keeps them,
    column k as ``l[k] / dl[k]`` in lowest terms, each built, the unit vector
    at its origin row, only once read, so a zero row of A costs O(1); given
    ``stages``, (L, U) after each move is appended to it, U stepped from A."""
    m, U = A.nrows, _Factors(A) if stages is not None else None
    l, dl, origin = [None] * m, [1] * m, list(range(m))

    def column(k: int) -> list[int]:
        if l[k] is None:
            l[k] = [0] * origin[k] + [1] + [0] * (m - 1 - origin[k])
        return l[k]

    def lower() -> Mat:
        return Mat._of(len(l), m, list(zip(map(column, range(len(l))), dl))).transpose()

    for move in moves:
        if type(move) is DeleteRow:
            del l[move.i - 1], dl[move.i - 1], origin[move.i - 1]
        else:  # column k gains p/q times column k+1, both zero above k's origin
            k, p, q, d0, d1 = move[0] - 1, move[2], move[3], dl[move[0] - 1], dl[move[0]]
            col, nxt = l[k] or column(k), l[k + 1] or column(k + 1)  # a built column is never empty
            dl[k] = _combine_into(col, q * d1, -p * d0, nxt, origin[k], q * d0 * d1)
        if U is not None:
            _step(U, _traced(move))
            stages.append((lower(), U.mat()))
    return LUPair(lower(), state.mat(), ClassDesc([o + 1 for o in origin], state.leads))


def _tnn_gate(A: Mat) -> Optional[tuple[_Factors, list]]:
    """Decide total nonnegativity exactly, at any size, by two runs: pass
    1 on A gives A = L·U, pass 2 on Uᵀ gives Uᵀ = L₂·V.  Accept, returning
    pass 1's run ``(state, moves)`` as `_run` keeps it, only if both finish,
    else None; a negative entry of A rejects before pass 1 starts.  V is
    then D, the diagonal of U's leading entries, positive by pass 1's
    finish, whatever A is: U is row echelon at its leads with no zero row,
    so Uᵀ = (Uᵀ·D⁻¹)·D is Uᵀ's class pair, and a finished run gives the
    class pair (see `_run`).

    Sound: a finished run has no negative multiplier, so each Eliminate
    puts into L (or L₂) a bidiagonal factor I + λ·e_{s+1}·e_sᵀ with λ >= 0,
    and each DeleteRow a 0/1 embedding; both are TNN, and so is D.  So
    A = L·D·L₂ᵀ is TNN by Cauchy–Binet.

    Complete: for TNN A, pass 1 finishes with U TNN (the paper's theorem),
    so Uᵀ is TNN and pass 2 finishes too.  So a reject is exact (Gasca &
    Peña, LAA 165, 1992).  Pass 2 is skipped when pass 1 leaves no row: Uᵀ
    is then n x 0, and a run on it could only delete its rows and accept."""
    if any(min(row, default=0) < 0 for row in A._rows):
        return None
    try:
        state, moves = _run(A, None, _not_tnn)
        if state.u:
            _run(state.mat().transpose(), None, _not_tnn)
    except NotTotallyNonnegativeError:
        return None
    return state, moves


def _neville(A: Mat, max_size: int, stages: Optional[list] = None) -> tuple[LUPair, list]:
    """`neville_decompose`'s pair and its moves as `_run` keeps them, no trace
    built: `_tnn_gate`'s run within the guard, pass 1 alone past it."""
    if not within_guard(A, max_size):
        run = _run(A, None, _not_tnn)
    elif (run := _tnn_gate(A)) is None:
        witness = first_minor(A, lambda rows, cols, v: v < 0, max_size)
        if witness is None:
            raise _not_tnn("the two-pass test rejects it, but no minor is negative")
        rows, cols, value = witness
        raise _not_tnn(f"minor [{list(rows)}|{list(cols)}] = {format_scalar(value)}")
    return _pair(A, *run, stages), run[1]


def neville_decompose(
    A: Mat, record_stages: bool = False, *, max_size: int = MAX_BRUTEFORCE
) -> tuple[LUPair, NevilleTrace]:
    """Run the elimination on a totally nonnegative matrix: A's certified
    class factorization (see `_run`) and its moves, with (L, U) after each
    move if ``record_stages``.  Within the size guard (min(m, n) <=
    ``max_size``), `_tnn_gate`'s pass 2 follows, so TNN is decided exactly,
    and a refusal names the first negative minor in scan order if the sweep
    finds one; past it, TNN is policed only move by move and by U's signs,
    and ``max_size=0`` asks for pass 1 alone."""
    stages = [] if record_stages else None
    pair, moves = _neville(A, max_size, stages)
    return pair, NevilleTrace(tuple(map(_traced, moves)), None if stages is None else tuple(stages))


def replay(A: Mat, trace: NevilleTrace) -> LUPair:
    """Reapply a recorded move list to A; must reproduce the original output.

    Each move is validated against the current state (is the row really
    zero?  does the multiplier match?), so a trace from a different matrix
    fails with the offending step index instead of fabricating factors;
    the finished factors pass the same checks as `neville_decompose`'s.
    """
    moves = iter(trace.moves)
    return _pair(A, *_run(
        A,
        lambda state, done: next(moves, None),
        lambda reason, step=None: ReplayError(reason if step is None else f"step {step}: {reason}"),
    ))


def format_trace(trace: NevilleTrace) -> str:
    """One move per line: "D i" or "E s t p/q", with exact rationals."""
    return "".join(
        f"D {mv.i}\n" if isinstance(mv, DeleteRow) else f"E {mv.s} {mv.t} {format_scalar(mv.multiplier)}\n"
        for mv in trace.moves
    )


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
                moves.append(Eliminate(parse_int(tokens[1]), parse_int(tokens[2]), parse_scalar(tokens[3])))
                continue
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad trace line {line!r}") from exc
        raise ParseError(f"line {lineno}: bad trace line {line!r}")
    return NevilleTrace(tuple(moves))
