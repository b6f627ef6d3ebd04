"""Property tests: the elimination kernels against the exhaustive oracles.

`detect_class` and `reconstruct_lu` run one Schur-complement elimination,
the `_bareiss` kernel, plus a polynomial certificate; here they are held to
`in_class_M` over every candidate class and to the original definition of
the greedy leaders by bordered minors, and the certificate, read off the
table, is held to its clauses checked on the emitted factors.  Neville elimination
reads its breaking column off the rows' leading columns; here it is held
to the definition (the first column prefix that is not upper echelon), to
its own replay, and to `reconstruct_lu`; inside a column sweep it reads
the next move off the last one, and its moves, pair and refusals are
held to a run that scans for every move; on signed input, whenever it
returns, its factors are the class factorization and nonnegative, and a
replay of another matrix's trace returns only what it returns.  A walk of
random legal moves, which Neville need not take, that ends strictly
echelon is `certify`'s pair, and its replay returns that pair or names a
negative multiplier, a negative entry of U or an unfinished trace.  The
kernels run on each matrix's integer lift, so the class, minor and Neville
checks also draw rational entries, whose rows lift with unequal scales,
and a single Neville move is held to the `Fraction` row operation.
`is_tnn`'s two-pass Neville gate is held to the bare minor sweep, called
alone, as `is_tnn`'s sweep would hide a false reject, and through
`is_tnn`, on its verdict and its witness, m x 0 and 0 x n included; a
second pass that finishes ends in the diagonal of U's leading entries.
Auto `decompose`, run in process, prints `--method reconstruct`'s bytes
but for its `method:` line; with `--trace` it lists moves exactly when the
input is TNN, and they replay to the printed pair.  `detect` and `decompose`
(auto, explicit, reconstruct and neville, with and without `--trace`), run
in process, print the class that `in_class_M` finds over every candidate and
a pair in it whose product is A, or exit 4 when there is none; neville
exits 0 exactly on deleting derivations' accept, its printed moves replay
to its printed pair, and otherwise it exits 5 naming a negative minor.
The minor sweep is held to one `minor` call per minor, uncapped and capped
at orders 0 to 3 and one past min(m, n), and `first_minor` to the first
failing minor.  `explicit_decompose` reads its minor ratios
off the same elimination table; on signed class members they are held to
the ratios as written, each minor by cofactor expansion.  `rank`, the
kernel pivoting on any live nonzero cell, is held to the largest nonzero
minor on inputs with planted dependent rows and columns.  `parse_matrix`,
which reads each row's integer lift as it parses, is held to a per-token
reference parser and lift, on its Mat, its lift and its error message,
and its one-pass rational rows to its own per-token path, on rows with
tabs and padding; malformed tokens keep their exact messages.  It is also
held to `parse_scalar` per token, on tokens at the edge of its `int` path
("3/+2", "3/", "1_0", "0/0", long numerators), and `format_matrix` to
`format_scalar` cell by cell, on integer and rational rows, m x 0 and 0 x n.
`IndexSet`'s set helpers are held to Python's `set` on subsets of 1..8.
Every way of making a Mat (parsing signed, unreduced p/q tokens, `Mat`,
`from_rows`, a double transpose, a product with the identity, and
`eliminate`'s factors) gives rows in lowest terms, equal with equal
hashes, whose cells read back as the `Fraction` reference.  `Mat.transpose`,
which lifts each column to the lcm of the row denominators and reduces it
by one gcd, is held to the transpose of its `Fraction` cells, m x 0 and
0 x n included.
"""

import io
import json
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_candidate_descs,
    deleting_derivations_accept,
    eliminate,
    greedy_leaders,
    in_class_L,
    in_class_M,
    in_class_U,
    is_upper_echelon,
    minor_cofactor,
    minor_ratio_pair,
    random_ascending_subset,
    random_class_L,
    random_class_U,
    seeded,
    small_integer_matrices,
    small_rational_matrices,
    submatrix,
)
from tnnlu import (
    ClassDesc,
    DeleteRow,
    Eliminate,
    IndexSet,
    LUPair,
    Mat,
    MovePreconditionError,
    NevilleTrace,
    NotInClassError,
    NotTotallyNonnegativeError,
    ParseError,
    ReplayError,
    TnnReport,
    all_minors,
    det,
    detect_class,
    explicit_decompose,
    format_matrix,
    format_scalar,
    format_trace,
    is_tnn,
    matmul,
    minor,
    neville_decompose,
    neville_move,
    parse_matrix,
    parse_scalar,
    parse_trace,
    random_tnn,
    rank,
    reconstruct_lu,
    replay,
)
from tnnlu.cli import main as cli_main
from tnnlu.core import MAX_BRUTEFORCE, _cells, _over_lcm, _ratio, first_minor
from tnnlu.mclass import certify
from tnnlu.neville import (
    _Factors, _find_move, _move_precondition_failure, _not_tnn, _pair, _run, _step, _tnn_gate, _traced,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def class_products(draw):
    """(A, desc) with A = L·U for random L in class L(r) and U in class U(c)."""
    rng = seeded(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    t = draw(st.integers(0, min(m, n)))
    r = random_ascending_subset(rng, m, t)
    c = random_ascending_subset(rng, n, t)
    return matmul(random_class_L(rng, m, r), random_class_U(rng, n, c)), ClassDesc(r, c)


def greedy_by_minors(A):
    """The greedy leaders by definition: one bordered minor per candidate."""
    r, c = [], []
    for _ in range(rank(A)):
        found = next(
            (
                (i, j)
                for i in range((r[-1] if r else 0) + 1, A.nrows + 1)
                for j in range((c[-1] if c else 0) + 1, A.ncols + 1)
                if minor(A, r + [i], c + [j]) != 0
            ),
            None,
        )
        if found is None:
            return None
        r.append(found[0])
        c.append(found[1])
    return ClassDesc(IndexSet(r), IndexSet(c))


def certifies(A, desc):
    """Whether `reconstruct_lu`'s certificate accepts A in class ``desc``;
    `explicit_decompose` must raise exactly when it does, else agree."""
    try:
        lu = reconstruct_lu(A, desc)
    except NotInClassError:
        with pytest.raises(NotInClassError):
            explicit_decompose(A, desc)
        return False
    assert explicit_decompose(A, desc) == lu
    return True


def check_certificate_against_exhaustive_search(A):
    candidates = list(all_candidate_descs(A.nrows, A.ncols))
    passing = [d for d in candidates if in_class_M(A, d)]
    assert len(passing) <= 1
    assert detect_class(A) == (passing[0] if passing else None)
    assert [d for d in candidates if certifies(A, d)] == passing


@SETTINGS
@given(small_integer_matrices())
def test_certificate_matches_exhaustive_search(A):
    check_certificate_against_exhaustive_search(A)


@SETTINGS
@given(small_rational_matrices())
def test_certificate_matches_exhaustive_search_on_rationals(A):
    check_certificate_against_exhaustive_search(A)


@st.composite
def certificate_inputs(draw):
    """(A, desc): signed A up to 6x6, zero at least half the time, or a
    product of m x t and t x n factors with t < min(m, n), so of lower rank;
    desc None or random leaders, A's certified class or not."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3)))
    if draw(st.booleans()):
        A = Mat(m, n, draw(st.lists(entry, min_size=m * n, max_size=m * n)))
    else:
        t = draw(st.integers(0, min(m, n) - 1))
        B = Mat(m, t, draw(st.lists(entry, min_size=m * t, max_size=m * t)))
        A = matmul(B, Mat(t, n, draw(st.lists(entry, min_size=t * n, max_size=t * n))))
    if draw(st.booleans()):
        return A, None
    t = draw(st.integers(0, min(m, n)))
    r = draw(st.lists(st.integers(1, m), min_size=t, max_size=t, unique=True))
    c = draw(st.lists(st.integers(1, n), min_size=t, max_size=t, unique=True))
    return A, ClassDesc(IndexSet(sorted(r)), IndexSet(sorted(c)))


def factor_clauses(A, pair):
    """The certificate as first written, on the uncertified factors: L in
    the starred class L*(r), then U in U(c), then the first cell, row-major,
    where L·U differs from A."""
    r, c = pair.desc.r, pair.desc.c
    if not in_class_L(pair.L, r, starred=True):
        return f"L does not lead with 1 at rows {list(r)}"
    if not in_class_U(pair.U, c):
        return f"U does not lead at columns {list(c)}"
    LU = matmul(pair.L, pair.U)
    cells = ((i, j) for i in range(1, A.nrows + 1) for j in range(1, A.ncols + 1))
    residue = next(((i, j) for i, j in cells if LU.entry(i, j) != A.entry(i, j)), None)
    if residue is not None:
        return "A - L*U is nonzero at ({},{})".format(*residue)
    return None


def test_table_certificate_matches_the_factor_clauses():
    seen = Counter()

    @settings(SETTINGS, max_examples=400)
    @given(certificate_inputs())
    def check(sample):
        A, desc = sample
        pair = eliminate(A)
        clause = factor_clauses(A, pair)
        try:
            # a member's pair is the scan's, with or without its own class
            assert certify(A, desc) == pair
            failure = None
        except NotInClassError as exc:
            failure = str(exc)
        # a declared class is checked against the scan's, not pivoted on: it
        # passes iff the scan's pair passes and names that class
        if clause is not None:
            assert failure == f"matrix belongs to no class: {clause}"
        elif desc is not None and desc != pair.desc:
            r, c = list(pair.desc.r), list(pair.desc.c)
            assert failure == f"not in declared class: its class is r = {r}, c = {c}"
        else:
            assert failure is None
        # the scan skips a row only where it is zero right of the last pivot
        assert not (clause or "").startswith("L")
        outcome = "none" if failure is None else clause[0] if clause else "another class"
        seen["scan" if desc is None else "declared", outcome] += 1

    check()
    scan, declared = {"U", "A", "none"}, {"U", "A", "none", "another class"}
    assert set(seen) == {("scan", o) for o in scan} | {("declared", o) for o in declared}, seen


@SETTINGS
@given(small_integer_matrices())
def test_scan_finds_the_bordered_minor_leaders(A):
    assert greedy_leaders(A) == greedy_by_minors(A)


@SETTINGS
@given(small_rational_matrices())
def test_scan_finds_the_bordered_minor_leaders_on_rationals(A):
    assert greedy_leaders(A) == greedy_by_minors(A)


@SETTINGS
@given(small_rational_matrices())
def test_minor_from_the_lift_matches_the_submatrix_determinant(A):
    for s in range(min(A.nrows, A.ncols) + 1):
        for I in combinations(range(1, A.nrows + 1), s):
            for J in combinations(range(1, A.ncols + 1), s):
                value = minor(A, I, J)
                assert value == det(submatrix(A, I, J)) == minor_cofactor(A, I, J)


def minors_by_brute_force(A, max_order):
    """Every square minor up to ``max_order``, each by `minor` alone, size
    ascending, then lexicographic in (rows, cols)."""
    top = min(A.nrows, A.ncols) if max_order is None else min(max_order, A.nrows, A.ncols)
    return {
        (I, J): minor(A, I, J)
        for s in range(top + 1)
        for I in combinations(range(1, A.nrows + 1), s)
        for J in combinations(range(1, A.ncols + 1), s)
    }


@SETTINGS
@given(
    st.one_of(
        small_integer_matrices(),
        small_rational_matrices(),
        small_rational_matrices(m=0),
        small_rational_matrices(n=0),
    ).flatmap(
        # every order up to 3, and one past the last
        lambda A: st.tuples(st.just(A), st.sampled_from((None, 0, 1, 2, 3, min(A.nrows, A.ncols) + 1)))
    ),
    st.sampled_from((lambda v: v < 0, lambda v: v == 0, lambda v: v > 0)),
)
def test_minor_sweep_matches_the_brute_force_scan(sample, fails):
    A, max_order = sample
    table = minors_by_brute_force(A, max_order)
    assert list(all_minors(A, max_order).items()) == list(table.items())
    first = next(
        ((I, J, value) for (I, J), value in table.items() if I and fails(value)), None
    )
    assert first_minor(A, lambda rows, cols, value: fails(value), max_order=max_order) == first


@st.composite
def planted_rank_matrices(draw):
    """Rational m x n, up to 5x6, zero three times as likely as any other
    entry, with some rows and then some columns each replaced by a rational
    combination of two others (or a multiple of one), so that the rank
    falls short of min(m, n) at any position."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)))
    coeff = st.sampled_from((1, -1, 2, Fraction(1, 3), Fraction(-3, 2)))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, m - 1))):
        target = draw(st.integers(0, m - 1))
        others = st.sampled_from([i for i in range(m) if i != target])
        a, b, ca, cb = draw(others), draw(others), draw(coeff), draw(coeff)
        rows[target] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
    for _ in range(draw(st.integers(0, n - 1))):
        target = draw(st.integers(0, n - 1))
        others = st.sampled_from([j for j in range(n) if j != target])
        a, b, ca, cb = draw(others), draw(others), draw(coeff), draw(coeff)
        for row in rows:
            row[target] = ca * row[a] + cb * row[b]
    return Mat.from_rows(rows)


@SETTINGS
@given(planted_rank_matrices())
def test_rank_is_the_largest_nonzero_minor(A):
    assert rank(A) == max(len(I) for (I, _), value in all_minors(A).items() if value)


@SETTINGS
@given(small_rational_matrices())
def test_reconstruct_matches_explicit_on_rationals(A):
    certifies(A, None)


@SETTINGS
@given(class_products())
def test_reconstruct_matches_explicit_on_members(sample):
    A, desc = sample
    assert detect_class(A) == desc
    lu = explicit_decompose(A, desc)
    assert reconstruct_lu(A, desc) == lu
    assert reconstruct_lu(A) == lu


@st.composite
def starred_class_products(draw):
    """(A, L, U, desc) with A = L·U, L in the starred class L*(r) and U in
    class U(c): entries of both signs, halves among them, leaders anywhere,
    rank 0 to min(m, n), up to 5x5."""
    rng = seeded(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    t = draw(st.integers(0, min(m, n)))
    r = random_ascending_subset(rng, m, t)
    c = random_ascending_subset(rng, n, t)
    L = random_class_L(rng, m, r, starred=True)
    U = random_class_U(rng, n, c)
    return matmul(L, U), L, U, ClassDesc(r, c)


@SETTINGS
@given(starred_class_products())
def test_explicit_table_matches_the_minor_ratios_on_members(sample):
    A, L, U, desc = sample
    oracle = minor_ratio_pair(A, desc)
    assert oracle == (L, U)
    for lu in (explicit_decompose(A, desc), explicit_decompose(A)):
        assert (lu.L, lu.U) == oracle
        assert lu == reconstruct_lu(A, desc)


def first_broken_prefix(U):
    """The smallest t whose first t columns of U are not upper echelon."""
    return next(
        t
        for t in range(1, U.ncols + 1)
        if not is_upper_echelon(submatrix(U, range(1, U.nrows + 1), range(1, t + 1))).is_echelon
    )


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10**6))
def test_neville_moves_replay_and_agree_with_reconstruct(m, n, seed):
    A = random_tnn(m, n, seed)
    pair, trace = neville_decompose(A, record_stages=True)
    before = [A] + [U for _, U in trace.stages[:-1]]
    for U, move in zip(before, trace.moves):
        if isinstance(move, Eliminate):
            assert move.t == first_broken_prefix(U)
    assert replay(A, parse_trace(format_trace(trace))) == pair
    assert reconstruct_lu(A) == pair


def check_neville_returns_only_the_nonnegative_class_factorization(A):
    try:
        pair, _ = neville_decompose(A, max_size=0)
    except NotTotallyNonnegativeError as error:
        # a refused factor entry is the class pair's first negative one, L before U
        reason = str(error).removeprefix("input not totally nonnegative: ")
        if reason[:2] in ("L[", "U["):
            pair = reconstruct_lu(A)
            named = (
                f"{name}[{i},{j}] = {format_scalar(x)}"
                for name, M in (("L", pair.L), ("U", pair.U))
                for i, row in enumerate(M.iter_rows(), start=1)
                for j, x in enumerate(row, start=1)
                if x < 0
            )
            assert reason == next(named)
        return
    assert matmul(pair.L, pair.U) == A
    assert reconstruct_lu(A) == pair
    assert all(x >= 0 for M in (pair.L, pair.U) for row in M.iter_rows() for x in row)


@SETTINGS
@given(small_integer_matrices())
def test_neville_returns_only_the_nonnegative_class_factorization(A):
    check_neville_returns_only_the_nonnegative_class_factorization(A)


@SETTINGS
@given(small_rational_matrices())
def test_neville_returns_only_the_nonnegative_class_factorization_on_rationals(A):
    check_neville_returns_only_the_nonnegative_class_factorization(A)


@SETTINGS
@given(small_rational_matrices())
def test_neville_move_is_the_row_operation_on_rationals(U):
    # pivots of either sign on rows lifted with unequal scales
    for s in range(1, U.nrows):
        for t in range(1, U.ncols + 1):
            try:
                moved = neville_move(U, s, t)
            except MovePreconditionError:
                continue
            lam = U.entry(s + 1, t) / U.entry(s, t)
            rows = U.to_rows()
            rows[s] = [x - lam * y for x, y in zip(rows[s], rows[s - 1])]
            assert moved == Mat.from_rows(rows)


def check_replay_returns_only_what_neville_returns(A, B):
    try:
        _, trace = neville_decompose(B, max_size=0)
    except NotTotallyNonnegativeError:
        return
    try:
        replayed = replay(A, parse_trace(format_trace(trace)))
    except ReplayError:
        return
    assert neville_decompose(A, max_size=0)[0] == replayed


@SETTINGS
@given(small_integer_matrices(count=2))
def test_replay_returns_only_what_neville_returns(pair):
    check_replay_returns_only_what_neville_returns(*pair)


@SETTINGS
@given(small_rational_matrices(count=2))
def test_replay_returns_only_what_neville_returns_on_rationals(pair):
    check_replay_returns_only_what_neville_returns(*pair)


@st.composite
def sweep_inputs(draw):
    """`random_tnn` up to 7x7, as it is or with one entry raised or lowered,
    or a signed matrix up to 6x4, tall enough for sweeps of three moves."""
    kind = draw(st.sampled_from(("tnn", "nudged", "signed")))
    if kind == "signed":
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
        entry = st.sampled_from((0, 0, 0, 1, 1, -1, 2, Fraction(1, 2)))
        return Mat(m, n, draw(st.lists(entry, min_size=m * n, max_size=m * n)))
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    A = random_tnn(m, n, draw(st.integers(0, 10**6)), factors=draw(st.integers(0, 40)))
    if kind == "tnn":
        return A
    rows = A.to_rows()
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
    rows[i][j] += draw(st.sampled_from((1, -1, Fraction(1, 3), Fraction(-1, 2))))
    return Mat.from_rows(rows)


def multiplier(state, s, t):
    """u[s+1, t] / u[s, t] of a run's state."""
    return Fraction(state.u[s][t - 1] * state.du[s - 1], state.u[s - 1][t - 1] * state.du[s])


def find_move(state):
    """The scan one move at a time, with no hint from the last: the
    bottom-most zero row's DeleteRow, else `_find_move`'s Eliminate."""
    leads, n = state.leads, state.ncols
    if max(leads, default=0) > n:
        return DeleteRow(len(leads) - leads[::-1].index(n + 1))
    found = _find_move(state)
    return found and Eliminate(*found, multiplier(state, *found))


def validated_run(A):
    """The reference run: every move found by the scan and applied through
    `_step`'s checks."""
    return _run(A, lambda state, moves: find_move(state), _not_tnn)


@settings(SETTINGS, max_examples=400)
@given(
    st.one_of(
        sweep_inputs(),
        small_integer_matrices(),
        small_rational_matrices(),
        st.builds(Mat.zeros, st.integers(1, 4), st.just(0)),
        st.builds(Mat.zeros, st.just(0), st.integers(0, 5)),
    )
)
@example(Mat.from_rows([[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 0, 1], [0, 0, 1, 1]]))
@example(Mat.zeros(3, 0))
@example(Mat.zeros(0, 4))
def test_column_sweep_takes_the_moves_of_the_full_scan(A):
    # the kernel's sweeps against a run that checks every move: the same
    # moves, pair and refusal text, and the same gate verdict
    try:
        state, moves = validated_run(A)
    except NotTotallyNonnegativeError as error:
        with pytest.raises(NotTotallyNonnegativeError) as raised:
            neville_decompose(A, max_size=0)
        assert str(raised.value) == str(error)
        assert _tnn_gate(A) is None
        return
    pair = _pair(A, state, moves)
    swept, swept_trace = neville_decompose(A, max_size=0)
    assert swept_trace.moves == tuple(map(_traced, moves))
    assert swept == pair
    try:
        validated_run(state.mat().transpose())
        accepted = all(x >= 0 for row in A.iter_rows() for x in row)
    except NotTotallyNonnegativeError:
        accepted = False
    gate = _tnn_gate(A)
    assert (gate is not None) == accepted
    assert gate is None or tuple(map(_traced, gate[1])) == swept_trace.moves


def random_legal_walk(A, rng):
    """Random legal moves from (I, A) until none is left: any zero-row
    DeleteRow, or any Eliminate whose preconditions hold, in any order."""
    state, moves = _Factors(A), []
    while True:
        rows = range(1, len(state.u) + 1)
        legal = [DeleteRow(i) for i in rows if state.leads[i - 1] > state.ncols]
        legal += [
            Eliminate(s, t, multiplier(state, s, t))
            for s in rows[:-1]
            for t in range(1, state.ncols + 1)
            if _move_precondition_failure(state, s, t) is None
        ]
        if not legal:
            return state, moves
        moves.append(rng.choice(legal))
        assert _step(state, moves[-1]) is None


@settings(SETTINGS, max_examples=400)
@given(small_rational_matrices(), st.integers(0, 10**6))
def test_any_legal_walk_that_finishes_is_the_certified_pair(A, seed):
    # Neville's finish reads the class off its own state; this holds that
    # on move orders Neville never takes, of any multiplier sign
    state, moves = random_legal_walk(A, seeded(seed))
    leads = state.leads
    finished = all(a < b for a, b in zip(leads, leads[1:] + [state.ncols + 1]))
    if finished:
        elim = certify(A)
        # L read from the walk's moves, each Eliminate as a run keeps it
        kept = [m if isinstance(m, DeleteRow) else (m.s, m.t, *m.multiplier.as_integer_ratio()) for m in moves]
        walked = _pair(A, state, kept)
        assert (walked.L, walked.U) == (elim.L, elim.U)
    negative = [k for k, mv in enumerate(moves, 1) if getattr(mv, "multiplier", 0) < 0]
    try:
        replayed = replay(A, NevilleTrace(tuple(moves)))
    except ReplayError as error:
        if negative:
            assert str(error).startswith(f"move {negative[0]} ")
            assert "negative multiplier" in str(error)
        elif not finished:
            assert str(error) == "trace does not finish the elimination"
        else:
            assert str(error).startswith("U[") and "= -" in str(error)
        return
    assert finished and not negative
    assert replayed == LUPair(elim.L, elim.U, elim.desc)


def check_tnn_gate_against_the_sweep(A):
    witness = first_minor(A, lambda rows, cols, value: value < 0, 99)
    assert (_tnn_gate(A) is not None) == (witness is None)
    assert is_tnn(A) == TnnReport(witness is None, witness)


@SETTINGS
@given(sweep_inputs())
def test_a_finished_second_pass_ends_in_the_diagonal_of_U(A):
    # so the gate needs no check that V is a positive monomial
    try:
        U = _run(A, None, _not_tnn)[0].mat()
        V = _run(U.transpose(), None, _not_tnn)[0].mat()
    except NotTotallyNonnegativeError:
        return
    heads = [next(x for x in row if x) for row in U.iter_rows()]
    assert all(x > 0 for x in heads)
    t = len(heads)
    D = [[x if i == k else 0 for i in range(t)] for k, x in enumerate(heads)]
    assert V == Mat.from_rows(D, ncols=t)


def test_tnn_gate_matches_the_minor_sweep_on_empty_shapes():
    for m, n in ((0, 0), (1, 0), (4, 0), (0, 1), (0, 5)):
        check_tnn_gate_against_the_sweep(Mat.zeros(m, n))


@SETTINGS
@given(small_integer_matrices())
def test_tnn_gate_matches_the_minor_sweep(A):
    check_tnn_gate_against_the_sweep(A)


@SETTINGS
@given(small_rational_matrices())
def test_tnn_gate_matches_the_minor_sweep_on_rationals(A):
    check_tnn_gate_against_the_sweep(A)


def run_cli(*argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process `tnnlu` call, fed ``stdin``."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@st.composite
def nudged_tnn_products(draw):
    """A `random_tnn` product up to 5x5 with one entry moved by a small amount."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = random_tnn(m, n, seed=draw(st.integers(0, 10**6)), factors=draw(st.integers(0, 40))).to_rows()
    rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] += draw(st.sampled_from((-1, Fraction(-1, 3), 1)))
    return Mat.from_rows(rows)


CHECK_TNN_INPUTS = st.one_of(
    st.builds(random_tnn, st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6), st.integers(0, 40)),
    nudged_tnn_products(),
    small_integer_matrices(),
    st.integers(1, 5).flatmap(lambda m: small_rational_matrices(m=m)),
    st.builds(Mat.zeros, st.integers(0, 5), st.just(0)),
    st.builds(Mat.zeros, st.just(0), st.integers(0, 5)),
)
WITNESS_LINE = re.compile(r"is_tnn: false\nwitness: \[\{([0-9,]+)\}\|\{([0-9,]+)\}\] = (-[0-9/]+)\n")


@SETTINGS
@given(CHECK_TNN_INPUTS, st.sampled_from((0, 1, 2, None)))
@example(Mat.from_rows([[1, 1, 1], [1, 2, 3], [1, 3, 6]]), 2)  # TNN 3x3 past a guard of 2
@example(Mat.from_rows([[1, 1, 2], [0, 1, 1], [0, 0, 1]]), 2)  # [1,2|2,3] = -1, past it
def test_check_tnn_means_what_it_says(A, guard):
    # exit 0 answers with the oracle's verdict, a false one with a negative
    # minor; exit 6 only for a reject past the guard, and no other exit code
    argv = ("check-tnn",) if guard is None else ("check-tnn", "--max-bruteforce", str(guard))
    code, out, err = run_cli(*argv, stdin=format_matrix(A))
    accept = deleting_derivations_accept(A)
    within = min(A.nrows, A.ncols) <= (MAX_BRUTEFORCE if guard is None else guard)
    if code == 6:
        assert not accept and not within and out == ""
        assert err.startswith("error: size-guard: brute-force minor enumeration refused for ")
        return
    assert (code, err) == (0, "")
    if out == "is_tnn: true\nwitness: none\n":
        assert accept
        return
    assert within and not accept
    witness = WITNESS_LINE.fullmatch(out)
    assert witness, out
    rows, cols, value = witness.groups()
    assert minor(A, map(int, rows.split(",")), map(int, cols.split(","))) == Fraction(value) < 0


NEVILLE_WITNESS = re.compile(
    r"error: not-tnn: input not totally nonnegative: minor \[\[([0-9, ]+)\]\|\[([0-9, ]+)\]\] = (-[0-9/]+)\n"
)


def class_line(desc):
    """The `class:` line that `detect` and `decompose` print for ``desc``."""
    if desc is None:
        return "class: none"
    return f"class: r = {{{','.join(map(str, desc.r))}}}, c = {{{','.join(map(str, desc.c))}}}"


@settings(SETTINGS, max_examples=300)
@given(st.one_of(CHECK_TNN_INPUTS, starred_class_products().map(lambda sample: sample[0])))
@example(Mat.from_rows([[comb(i + j, i) for j in range(5)] for i in range(5)]))  # TNN, full rank
@example(Mat.from_rows([[1, 1, 2], [0, 1, 1], [0, 0, 1]]))  # in a class, not TNN
@example(Mat.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))  # in no class
def test_detect_and_decompose_mean_what_they_say(A):
    # the oracle is `in_class_M` over every candidate class, and for `--method
    # neville` also `deleting_derivations_accept`; neville runs at the default
    # guard, which holds every input here (at most 5x5).  Guards 0 to 2 stay
    # out until ROADMAP item 2: `1 1 2; 0 1 1; 0 0 1` still exits 0 under
    # `--max-bruteforce 2`
    passing = [d for d in all_candidate_descs(A.nrows, A.ncols) if in_class_M(A, d)]
    assert len(passing) <= 1
    oracle = passing[0] if passing else None
    accept = deleting_derivations_accept(A)
    stdin = format_matrix(A)
    assert run_cli("detect", stdin=stdin) == (0, class_line(oracle) + "\n", "")
    for method in ("auto", "explicit", "reconstruct", "neville"):
        for trace in ((), ("--trace",)):
            code, out, err = run_cli("decompose", "--method", method, *trace, stdin=stdin)
            if method == "neville" and not accept:
                assert code == 5 and out == "", err
                witness = NEVILLE_WITNESS.fullmatch(err)
                assert witness, err
                rows, cols, value = witness.groups()
                assert minor(A, map(int, rows.split(", ")), map(int, cols.split(", "))) == Fraction(value) < 0
                continue
            if oracle is None:
                assert code == 4 and out == "" and err.startswith("error: class-not-found: ")
                continue
            assert (code, err) == (0, "")
            lines = out.splitlines()
            assert lines[:3] == [f"method: {method}", class_line(oracle), "L:"]
            u_at = lines.index("U:")
            end = lines.index("trace:") if trace else len(lines)
            L = parse_matrix("\n".join(lines[3:u_at]))
            U = parse_matrix("\n".join(lines[u_at + 1 : end]))
            assert matmul(L, U) == A
            assert in_class_L(L, oracle.r, starred=True) and in_class_U(U, oracle.c)
            if method == "neville" and trace:
                pair = replay(A, parse_trace("\n".join(lines[end + 1 :])))
                assert (pair.L, pair.U) == (L, U)


def check_auto_is_the_certified_pair_with_moves_only_for_trace(A):
    inline = ";".join(" ".join(format_scalar(x) for x in row) for row in A.iter_rows())
    argv = ("decompose", "--inline", inline)

    def without_method(result):
        code, out, err = result
        return code, [line for line in out.splitlines() if not line.startswith("method: ")], err

    auto = without_method(run_cli(*argv))
    assert auto == without_method(run_cli(*argv, "--method", "reconstruct"))
    tnn = is_tnn(A).is_tnn
    if auto[0] != 0:
        assert auto[0] == 4 and not tnn  # every TNN matrix lies in a class
        return
    code, out, _ = run_cli(*argv, "--trace")
    assert code == 0 and out.startswith(run_cli(*argv)[1] + "trace:\n")
    assert out.endswith("trace:\nunavailable\n") != tnn
    code, out, _ = run_cli(*argv, "--trace", "--format", "structured")
    payload = json.loads(out)
    assert (payload["trace"] is not None) == tnn
    if tnn:
        pair = replay(A, parse_trace("\n".join(payload["trace"])))
        for M, printed in ((pair.L, payload["L"]), (pair.U, payload["U"])):
            assert [[format_scalar(x) for x in row] for row in M.iter_rows()] == printed
        assert payload["class"] == {"r": list(pair.desc.r), "c": list(pair.desc.c)}


@SETTINGS
@given(small_rational_matrices())
def test_auto_is_the_certified_pair_with_moves_only_for_trace(A):
    check_auto_is_the_certified_pair_with_moves_only_for_trace(A)


@SETTINGS
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6))
def test_auto_is_the_certified_pair_with_moves_only_for_trace_on_tnn(m, n, seed):
    check_auto_is_the_certified_pair_with_moves_only_for_trace(random_tnn(m, n, seed))


def reference_scalar(token):
    """The token grammar as the per-token parser read it before one pattern
    served both: [+-]?[0-9]+ with an optional /[0-9]+, ASCII digits only."""

    def digits(text, signed):
        body = text[1:] if signed and text[:1] in ("+", "-") else text
        return body.isascii() and body.isdigit()

    num, sep, den = token.partition("/")
    if not digits(num, True) or (sep and not digits(den, False)):
        raise ParseError(f"not an exact rational: {token!r}")
    if sep and int(den) == 0:
        raise ParseError(f"denominator must be positive: {token!r}")
    return Fraction(int(num), int(den) if sep else 1)


def reference_lift(rows):
    """Each row times the running lcm of its denominators, and that lcm."""
    lifted, scales = [], []
    for row in rows:
        scale = 1
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        lifted.append(tuple(x.numerator * (scale // x.denominator) for x in row))
        scales.append(scale)
    return tuple(lifted), tuple(scales)


_DIGITS = st.lists(st.sampled_from("0001234567"), min_size=1, max_size=4).map("".join)
_SIGNED = st.builds(str.__add__, st.sampled_from(("", "+", "-")), _DIGITS)  # 007, +0, -0
_RATIO = st.builds(lambda p, q: f"{p}/{q}", _SIGNED, _DIGITS)  # q may be 0 or 00
_BAD = st.sampled_from(("1_000", "\u0661\u0662", "\u00b2", "1.5", "+-1", "1/0", "1/-2"))
_TOKENS = st.integers(0, 15).flatmap(lambda k: _SIGNED if k < 9 else _RATIO if k < 15 else _BAD)


@st.composite
def token_grids(draw):
    """1 to 4 rows of 1 to 4 tokens: signed integers, p/q and bad tokens."""
    n = draw(st.integers(1, 4))
    return draw(st.lists(st.lists(_TOKENS, min_size=n, max_size=n), min_size=1, max_size=4))


@SETTINGS
@given(token_grids())
def test_parse_matrix_matches_the_per_token_reference(grid):
    text = f"{len(grid)} {len(grid[0])}\n" + "".join(" ".join(row) + "\n" for row in grid)
    try:
        rows = [[reference_scalar(token) for token in row] for row in grid]
    except ParseError as error:
        with pytest.raises(ParseError) as raised:
            parse_matrix(text)
        assert str(raised.value) == str(error)
        return
    A = parse_matrix(text)
    assert A == Mat.from_rows(rows)
    assert (A._rows, A._dens) == reference_lift(rows)


_PQ = st.builds("{}{}/{}".format, st.sampled_from(("", "+", "-")), st.integers(0, 99), st.integers(1, 99))
_ROW_TOKENS = st.one_of(_PQ, st.sampled_from(("0/5", "7/1", "-0", "+3", "12", "-4/6", "006/04")))
# `int` takes "1_0" and the non-ASCII digits, such as the full-width "\uff11": the parser's guard refuses them
_MALFORMED = ("1/0", "1//2", "1.5", "1_0", "\u0661\u0662", "+-1", "1/+2", "0x1", "1e3", "\u0661", "\uff11")


@st.composite
def rational_rows(draw):
    """1 to 3 rows of one width: p/q and integer tokens of either sign,
    separated by spaces and tabs and padded, some with a malformed token."""
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        tokens = draw(st.lists(_ROW_TOKENS, min_size=n, max_size=n))
        if draw(st.integers(0, 3)) == 0:
            tokens[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_MALFORMED))
        # "\x1f" separates tokens for `str.split`, not lines for `splitlines`
        gaps = draw(st.lists(st.sampled_from((" ", "  ", "\t", " \t ", "\x1f")), min_size=n + 1, max_size=n + 1))
        gaps[0] = draw(st.sampled_from(("", " ", "\t")))
        rows.append((tokens, "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[n]))
    return n, rows


@SETTINGS
@given(rational_rows())
@example((2, [(["12", "-0"], "12\x1f-0 "), (["+3", "\uff11"], "+3 \uff11")]))  # rows with no "/"
@example((2, [(["1_0", "7"], "\t1_0  7")]))
@example((1, [(["0x1"], "0x1")]))
def test_row_parser_matches_the_per_token_path(sample):
    n, rows = sample
    text = f"{len(rows)} {n}\n" + "".join(line + "\n" for _, line in rows)
    try:
        expected = [_over_lcm([_ratio(token) for token in tokens]) for tokens, _ in rows]
    except ParseError as error:
        with pytest.raises(ParseError) as raised:
            parse_matrix(text)
        assert str(raised.value) == str(error)
        return
    A = parse_matrix(text)
    assert A._rows == tuple(tuple(nums) for nums, _ in expected)
    assert A._dens == tuple(den for _, den in expected)


# tokens next to the `int` path's gate, and numerators over 20 digits
_EDGE = ("3/+2", "3/-2", "3/", "/3", "3//2", "1_0", "٣", "0/0", "007/08", "+3/4")
_LONG = st.builds("{}{}".format, st.sampled_from(("", "+", "-")), st.integers(10**20, 10**40))
_EDGE_TOKENS = st.one_of(
    _SIGNED, _RATIO, st.sampled_from(_EDGE), _LONG, st.builds("{}/{}".format, _LONG, _DIGITS)
)


@SETTINGS
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_EDGE_TOKENS, min_size=n, max_size=n), min_size=1, max_size=3)
))
@example([["1/2", "3/+2"]])
@example([["7", "3/-2"], ["3/", "1"]])
@example([["007/08", "+3/4", "-0/5"]])
def test_parse_matrix_matches_parse_scalar_per_token(grid):
    text = f"{len(grid)} {len(grid[0])}\n" + "".join(" ".join(row) + "\n" for row in grid)
    try:
        expected = Mat.from_rows([[parse_scalar(token) for token in row] for row in grid])
    except ParseError as error:
        with pytest.raises(ParseError) as raised:
            parse_matrix(text)
        assert str(raised.value) == str(error)
        return
    assert parse_matrix(text) == expected


@SETTINGS
@given(st.one_of(
    small_integer_matrices(), small_rational_matrices(),
    small_rational_matrices(m=0), small_rational_matrices(n=0),
))
def test_format_matrix_writes_each_cell_as_format_scalar(A):
    cells = [[format_scalar(A.entry(i, j)) for j in range(1, A.ncols + 1)] for i in range(1, A.nrows + 1)]
    lines = [f"{A.nrows} {A.ncols}", *(map(" ".join, cells) if A.ncols else ())]
    assert format_matrix(A) == "".join(line + "\n" for line in lines)
    assert _cells(A) == cells
    assert parse_matrix(format_matrix(A)) == A


@pytest.mark.parametrize("token", _MALFORMED)
def test_malformed_tokens_keep_their_messages(token):
    kind = "denominator must be positive" if token == "1/0" else "not an exact rational"
    with pytest.raises(ParseError) as raised:
        parse_matrix(f"1 3\n1/2\t{token} 3\n")
    assert str(raised.value) == f"{kind}: {token!r}"


_SUBSETS = st.sets(st.integers(1, 8)).map(lambda s: IndexSet(sorted(s)))


@SETTINGS
@given(_SUBSETS, _SUBSETS)
def test_index_set_helpers_match_python_sets(I, J):
    a, b = set(I), set(J)
    assert I.issubset(J) == (a <= b) and I.isdisjoint(J) == a.isdisjoint(b)
    assert I.difference(J) == tuple(sorted(a - b))
    if a & b:
        with pytest.raises(ValueError, match="index sets overlap"):
            I.disjoint_union(J)
    else:
        assert I.disjoint_union(J) == tuple(sorted(a | b))


@st.composite
def signed_token_grids(draw):
    """(m, n, tokens, values): an m x n grid, either dimension possibly 0, of
    signed p/q tokens, unreduced or written as integers, "-0" and "+3"
    included, with zero cells frequent enough to make zero rows."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    tokens, values = [], []
    for _ in range(m):
        row = []
        for _ in range(n):
            p = draw(st.one_of(st.just(0), st.integers(-12, 12)))
            q = draw(st.integers(1, 12))
            sign = "-" if p < 0 else draw(st.sampled_from(("", "+", "-") if p == 0 else ("", "+")))
            integral = q == 1 and draw(st.booleans())
            row.append((f"{sign}{abs(p)}" + ("" if integral else f"/{q}"), Fraction(p, q)))
        tokens.append([token for token, _ in row])
        values.append([value for _, value in row])
    return m, n, tokens, values


def assert_canonical(M, m, n):
    """M is m x n and each row is integers over a positive denominator in
    lowest terms: gcd(den, *row) == 1."""
    rows, dens = M._rows, M._dens
    assert (M.nrows, M.ncols, len(rows), len(dens)) == (m, n, m, m)
    assert all(len(row) == n and den > 0 and gcd(den, *row) == 1 for row, den in zip(rows, dens))


@SETTINGS
@given(st.one_of(small_rational_matrices(), small_rational_matrices(m=0), small_rational_matrices(n=0)))
def test_transpose_matches_the_fraction_transpose(A):
    rows = A.to_rows()
    reference = Mat.from_rows([[row[j] for row in rows] for j in range(A.ncols)], ncols=A.nrows)
    T = A.transpose()
    assert_canonical(T, A.ncols, A.nrows)
    assert (T._rows, T._dens) == (reference._rows, reference._dens)
    assert T == reference and hash(T) == hash(reference) and T.transpose() == A


@SETTINGS
@given(signed_token_grids())
def test_every_way_of_making_a_mat_gives_one_canonical_form(grid):
    m, n, tokens, values = grid
    text = f"{m} {n}\n" + ("".join(" ".join(row) + "\n" for row in tokens) if n else "")
    A = parse_matrix(text)
    made = [
        Mat(m, n, [x for row in values for x in row]),
        Mat.from_rows(values, ncols=n),
        Mat.from_rows(tokens, ncols=n),
        A.transpose().transpose(),
        matmul(A, Mat.identity(n)),
        matmul(Mat.identity(m), A),
    ]
    assert_canonical(A, m, n)
    assert_canonical(A.transpose(), n, m)
    for M in made:
        assert_canonical(M, m, n)
        assert M == A and hash(M) == hash(A)
    assert A.to_rows() == values
    for i in range(1, m + 1):
        assert A.row(i) == tuple(values[i - 1])
        for j in range(1, n + 1):
            assert A.entry(i, j) == values[i - 1][j - 1] and type(A.entry(i, j)) is Fraction
    for j in range(1, n + 1):
        assert A.col(j) == tuple(row[j - 1] for row in values)
    pair = eliminate(A)
    t = len(pair.desc.r)
    for F, shape in ((pair.L, (m, t)), (pair.U, (t, n))):
        assert_canonical(F, *shape)
        rebuilt = Mat.from_rows(F.to_rows(), ncols=F.ncols)
        assert F == rebuilt and hash(F) == hash(rebuilt)
