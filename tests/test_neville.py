from fractions import Fraction
from math import comb

import pytest

from conftest import is_upper_echelon, seeded
from tnnlu import (
    ClassDesc,
    DeleteRow,
    Eliminate,
    IndexSet,
    Mat,
    MovePreconditionError,
    NevilleTrace,
    NotTotallyNonnegativeError,
    ParseError,
    ReplayError,
    all_minors,
    format_trace,
    is_tnn,
    matmul,
    neville_decompose,
    neville_move,
    parse_trace,
    rank,
    random_tnn,
    reconstruct_lu,
    replay,
)

CRYER = Mat.from_rows([[0, 0, 0], [1, 0, 1], [1, 0, 1]])
A4 = Mat.from_rows([[0, 1, 2, 1], [0, 2, 4, 2], [0, 1, 2, 3], [0, 3, 6, 11]])

# the six states the 4x4 run passes through, one per move
A4_STAGES = [
    (
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 3, 1]],
        [[0, 1, 2, 1], [0, 2, 4, 2], [0, 1, 2, 3], [0, 0, 0, 2]],
    ),
    (
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, "1/2", 1, 0], [0, "3/2", 3, 1]],
        [[0, 1, 2, 1], [0, 2, 4, 2], [0, 0, 0, 2], [0, 0, 0, 2]],
    ),
    (
        [[1, 0, 0, 0], [2, 1, 0, 0], [1, "1/2", 1, 0], [3, "3/2", 3, 1]],
        [[0, 1, 2, 1], [0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 2]],
    ),
    (
        [[1, 0, 0], [2, 0, 0], [1, 1, 0], [3, 3, 1]],
        [[0, 1, 2, 1], [0, 0, 0, 2], [0, 0, 0, 2]],
    ),
    (
        [[1, 0, 0], [2, 0, 0], [1, 1, 0], [3, 4, 1]],
        [[0, 1, 2, 1], [0, 0, 0, 2], [0, 0, 0, 0]],
    ),
    (
        [[1, 0], [2, 0], [1, 1], [3, 4]],
        [[0, 1, 2, 1], [0, 0, 0, 2]],
    ),
]


class TestMove:
    def test_first_move_of_a4(self):
        B = neville_move(A4, 3, 2)
        assert B.row(4) == (0, 0, 0, 2)
        assert B.row(1) == A4.row(1) and B.row(3) == A4.row(3)

    def test_second_move_of_a4(self):
        B = neville_move(neville_move(A4, 3, 2), 2, 2)
        assert B.row(3) == (0, 0, 0, 2)

    def test_zero_target_rejected(self):
        U = Mat.from_rows([[1, 2], [0, 1]])
        with pytest.raises(MovePreconditionError, match="u\\[2,1\\] is zero"):
            neville_move(U, 1, 1)

    def test_zero_pivot_rejected(self):
        U = Mat.from_rows([[0, 2], [1, 1]])
        with pytest.raises(MovePreconditionError, match="pivot"):
            neville_move(U, 1, 1)

    def test_nonzero_left_of_column_rejected(self):
        U = Mat.from_rows([[1, 2], [1, 2]])
        with pytest.raises(MovePreconditionError, match="left of the pivot column"):
            neville_move(U, 1, 2)

    def test_first_nonzero_left_of_column_is_named_in_row_major_order(self):
        # u[2,1] sits in the further-left column, but u[1,2] comes first row by row
        U = Mat.from_rows([[0, 2, 1], [4, 0, 1]])
        with pytest.raises(MovePreconditionError) as excinfo:
            neville_move(U, 1, 3)
        assert str(excinfo.value) == "u[1,2] is nonzero left of the pivot column"

    def test_nonzero_below_rejected(self):
        U = Mat.from_rows([[1], [1], [1]])
        with pytest.raises(MovePreconditionError, match="below"):
            neville_move(U, 1, 1)

    def test_out_of_range_names_the_shape_of_a_matrix_with_no_row(self):
        # a 0x3 U still has 3 columns, in a move's refusal and in replay's
        with pytest.raises(MovePreconditionError) as excinfo:
            neville_move(Mat.zeros(0, 3), 1, 1)
        assert str(excinfo.value) == "move position (s=1, t=1) out of range for 0x3"
        with pytest.raises(ReplayError) as excinfo:
            replay(Mat.zeros(0, 3), parse_trace("E 1 1 1"))
        assert str(excinfo.value) == "step 1: move position (s=1, t=1) out of range for 0x3"

    def test_elementary_matrix_identity(self):
        rng = seeded(91)
        checked = 0
        while checked < 10:
            A = random_tnn(4, 4, seed=rng.randint(0, 10**6))
            move = _first_elimination_state(A)
            if move is None:
                continue
            s, t = move
            lam = A.entry(s + 1, t) / A.entry(s, t)
            B = neville_move(A, s, t)
            down = _elementary(4, s, -lam)
            up = _elementary(4, s, lam)
            assert B == matmul(down, A)
            assert A == matmul(up, B)
            assert is_tnn(up).is_tnn
            checked += 1


def _elementary(n, s, lam):
    rows = Mat.identity(n).to_rows()
    rows[s][s - 1] = Fraction(lam)
    return Mat.from_rows(rows)


def _first_elimination_state(A):
    """(s, t) of the run's first move when no deletion precedes it, else None."""
    if any(all(x == 0 for x in row) for row in A.iter_rows()):
        return None
    if is_upper_echelon(A).is_strict:
        return None
    pair, trace = neville_decompose(A, max_size=0)
    first = trace.moves[0]
    if isinstance(first, Eliminate):
        return first.s, first.t
    return None


class TestDecompose:
    def test_cryer_run(self):
        pair, trace = neville_decompose(CRYER, record_stages=True)
        assert pair.L == Mat.from_rows([[0], [1], [1]])
        assert pair.U == Mat.from_rows([[1, 0, 1]])
        assert pair.desc == ClassDesc(IndexSet((2,)), IndexSet((1,)))
        # zero rows are deleted before any elimination, bottom-most first
        assert trace.moves == (
            DeleteRow(1),
            Eliminate(1, 1, Fraction(1)),
            DeleteRow(2),
        )
        assert len(trace.stages) == 3
        for L, U in trace.stages:
            assert matmul(L, U) == CRYER

    def test_a4_run_matches_recorded_stages(self):
        pair, trace = neville_decompose(A4, record_stages=True)
        assert [m for m in trace.moves] == [
            Eliminate(3, 2, Fraction(3)),
            Eliminate(2, 2, Fraction(1, 2)),
            Eliminate(1, 2, Fraction(2)),
            DeleteRow(2),
            Eliminate(2, 4, Fraction(1)),
            DeleteRow(3),
        ]
        assert len(trace.stages) == 6
        for (L, U), (exp_l, exp_u) in zip(trace.stages, A4_STAGES):
            assert L == Mat.from_rows(exp_l)
            assert U == Mat.from_rows(exp_u)
        assert pair.desc == ClassDesc(IndexSet((1, 3)), IndexSet((2, 4)))

    def test_identity_needs_no_moves(self):
        pair, trace = neville_decompose(Mat.identity(3))
        assert pair.L == Mat.identity(3) and pair.U == Mat.identity(3)
        assert trace.moves == ()

    def test_zero_matrix_deletes_all_rows(self):
        pair, trace = neville_decompose(Mat.zeros(3, 2))
        assert trace.moves == (DeleteRow(3), DeleteRow(2), DeleteRow(1))
        assert (pair.L.nrows, pair.L.ncols) == (3, 0)
        assert (pair.U.nrows, pair.U.ncols) == (0, 2)

    def test_trailing_zero_row_is_deleted_before_any_elimination(self):
        # the zero row sits below the staircase break; deletion still comes first
        A = Mat.from_rows([[1, 1], [1, 1], [0, 0]])
        pair, trace = neville_decompose(A)
        assert trace.moves == (
            DeleteRow(3),
            Eliminate(1, 1, Fraction(1)),
            DeleteRow(2),
        )
        assert pair.L == Mat.from_rows([[1], [1], [0]])
        assert pair.U == Mat.from_rows([[1, 1]])

    def test_zero_dimension_inputs(self):
        pair, trace = neville_decompose(Mat.zeros(0, 4))
        assert trace.moves == ()
        assert (pair.L.nrows, pair.L.ncols) == (0, 0)
        assert (pair.U.nrows, pair.U.ncols) == (0, 4)

    def test_non_tnn_rejected_by_precheck(self):
        with pytest.raises(NotTotallyNonnegativeError, match="not totally nonnegative"):
            neville_decompose(Mat.from_rows([[0, 1], [1, 0]]))

    def test_negative_max_size_is_rejected(self):
        # not skipped as "beyond the guard": the TNN check's bound is invalid
        with pytest.raises(ValueError, match="max_size must be nonnegative"):
            neville_decompose(Mat.from_rows([[0, 1], [1, 1]]), max_size=-1)

    def test_poisoned_pattern_rejected_dynamically(self):
        with pytest.raises(NotTotallyNonnegativeError, match="not totally nonnegative"):
            neville_decompose(Mat.from_rows([[0, 1], [1, 0]]), max_size=0)
        # legal first move, but the state two moves later is impossible for TNN
        poisoned = Mat.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        with pytest.raises(NotTotallyNonnegativeError, match="not totally nonnegative"):
            neville_decompose(poisoned, max_size=0)

    def test_corpus_invariants_per_stage(self):
        rng = seeded(92)
        for _ in range(15):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            A = random_tnn(m, n, seed=rng.randint(0, 10**6))
            pair, trace = neville_decompose(A, record_stages=True)
            assert pair.L.ncols == rank(A)
            for L, U in trace.stages:
                assert matmul(L, U) == A
                assert is_tnn(L).is_tnn
                assert is_tnn(U).is_tnn
            for move in trace.moves:
                if isinstance(move, Eliminate):
                    assert move.multiplier >= 0

    def test_stage_invariants_beyond_the_guard(self):
        # no second TNN pass runs here, and `is_tnn` is guarded: scan the entries
        pascal = Mat.from_rows([[comb(i + j, i) for j in range(12)] for i in range(12)])
        fractional = random_tnn(10, 11, seed=3, factors=80)
        assert any(x.denominator > 1 for row in fractional.iter_rows() for x in row)
        for A in (pascal, fractional):
            _, trace = neville_decompose(A, record_stages=True)
            assert trace.stages
            for L, U in trace.stages:
                assert matmul(L, U) == A
                assert all(x >= 0 for M in (L, U) for row in M.iter_rows() for x in row)


class TestMinorTransformationLaw:
    def test_law_on_random_first_moves(self):
        rng = seeded(93)
        checked = 0
        while checked < 8:
            A = random_tnn(5, 5, seed=rng.randint(0, 10**6))
            state = _first_elimination_state(A)
            if state is None:
                continue
            s, t = state
            lam = A.entry(s + 1, t) / A.entry(s, t)
            B = neville_move(A, s, t)
            before = all_minors(A)
            after = all_minors(B)
            for (rows, cols), value in after.items():
                if s in rows or (s + 1) not in rows:
                    assert value == before[(rows, cols)]
                else:
                    shifted = tuple(sorted(set(rows) - {s + 1} | {s}))
                    assert value == before[(rows, cols)] - lam * before[(shifted, cols)]
            checked += 1


class TestReplayAndTraceText:
    def test_replay_reproduces_output(self):
        for A in (CRYER, A4):
            pair, trace = neville_decompose(A)
            assert replay(A, trace) == pair

    def test_replay_reproduces_pascal_beyond_the_guard(self):
        # 12x12 skips the second TNN pass; all 66 eliminations are replayed
        A = Mat.from_rows([[comb(i + j, i) for j in range(12)] for i in range(12)])
        pair, trace = neville_decompose(A)
        assert len(trace.moves) == 66
        assert replay(A, parse_trace(format_trace(trace))) == pair

    def test_replay_rejects_foreign_trace(self):
        _, trace = neville_decompose(CRYER)
        with pytest.raises(ReplayError, match="step 1"):
            replay(Mat.identity(3), trace)

    def test_replay_rejects_deleting_a_nonzero_row(self):
        with pytest.raises(ReplayError) as excinfo:
            replay(A4, parse_trace("D 2"))
        assert str(excinfo.value) == "step 1: row 2 is not a zero row"

    def test_replay_checks_every_move_inside_a_sweep(self):
        # decomposition trusts a sweep's later moves; replay still checks each
        pascal = Mat.from_rows([[comb(i + j, i) for j in range(5)] for i in range(5)])
        lines = format_trace(neville_decompose(pascal)[1]).splitlines()
        assert lines[:6] == ["E 4 1 1", "E 3 1 1", "E 2 1 1", "E 1 1 1", "E 4 2 1", "E 3 2 1"]
        for doctored, message in (
            (lines[:1] + ["E 3 1 2"] + lines[2:], "step 2: multiplier 2 does not match state value 1"),
            (lines[:1] + ["D 5"] + lines[1:], "step 2: row 5 is not a zero row"),
            (lines[:5] + ["E 3 2 1/2"] + lines[6:], "step 6: multiplier 1/2 does not match state value 1"),
        ):
            with pytest.raises(ReplayError) as excinfo:
                replay(pascal, parse_trace("\n".join(doctored)))
            assert str(excinfo.value) == message

    def test_replay_rejects_a_trace_that_stops_short(self):
        _, trace = neville_decompose(A4)
        with pytest.raises(ReplayError) as excinfo:
            replay(A4, NevilleTrace(trace.moves[:-2]))
        assert str(excinfo.value) == "trace does not finish the elimination"

    def test_replay_rejects_wrong_multiplier(self):
        _, trace = neville_decompose(A4)
        doctored = parse_trace(format_trace(trace).replace("E 3 2 3", "E 3 2 4"))
        with pytest.raises(ReplayError, match="multiplier"):
            replay(A4, doctored)

    def test_replay_refuses_factors_that_decompose_refuses(self):
        # each trace applies cleanly, but decompose refuses the same run
        cases = (
            (Mat.from_rows([[1, 2], [-1, 1]]), parse_trace("E 1 1 -1"), "negative multiplier -1"),
            (Mat.from_rows([[-2, 0]]), NevilleTrace(()), "U\\[1,1\\] = -2"),
            # the last move pivots on u[2,2] = -1/2, rows lifted with scales 2 and 3
            (
                Mat.from_rows([[1, 0, 0], [1, "-1/2", "-1/2"], ["2/3", "-2/3", 0]]),
                parse_trace("E 2 1 2/3\nE 1 1 1\nE 2 2 2/3"),
                "U\\[2,2\\] = -1/2",
            ),
        )
        for A, trace, reason in cases:
            with pytest.raises(NotTotallyNonnegativeError, match=reason):
                neville_decompose(A, max_size=0)
            with pytest.raises(ReplayError, match=reason):
                replay(A, trace)

    def test_trace_serialization_round_trip(self):
        _, trace = neville_decompose(A4)
        text = format_trace(trace)
        assert text == "E 3 2 3\nE 2 2 1/2\nE 1 2 2\nD 2\nE 2 4 1\nD 3\n"
        assert parse_trace(text).moves == trace.moves

    def test_parse_trace_errors(self):
        for bad in ("X 1", "D", "E 1 2", "E 1 2 0.5", "D one", "D 1_0", "E \u0661 2 1"):
            with pytest.raises(ParseError):
                parse_trace(bad)


def test_neville_and_replay_build_no_table(monkeypatch):
    # the finish reads the class off its own factors, so it builds no table
    pascal = [[comb(i + j, i) for j in range(12)] for i in range(12)]
    inputs = (CRYER.to_rows(), A4.to_rows(), [r[:4] for r in pascal[:4]], [[0, 0]] * 3, pascal)
    expected = [reconstruct_lu(Mat.from_rows(rows)) for rows in inputs]

    def refuse(rows, pick):
        raise AssertionError("built a Bareiss table")

    monkeypatch.setattr("tnnlu.core._bareiss", refuse)
    monkeypatch.setattr("tnnlu.mclass._bareiss", refuse)
    for rows, pair in zip(inputs, expected):
        A = Mat.from_rows(rows)
        for max_size in (12, 0):  # both passes on every input, then pass 1 alone
            found, trace = neville_decompose(A, max_size=max_size)
            assert found == pair
            assert replay(A, trace) == pair


def test_each_route_runs_one_elimination_on_A(monkeypatch, capsys):
    # inside the guard the gate's pass 1 is the factorization: one run on A,
    # then one on Uᵀ; past it, pass 1 alone, with no minor swept
    from tnnlu import neville
    from tnnlu.cli import main

    built = []

    class Counted(neville._Factors):
        def __init__(self, A):
            built.append((A.nrows, A.ncols))
            super().__init__(A)

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept minors on an accepted input")

    monkeypatch.setattr(neville, "_Factors", Counted)
    monkeypatch.setattr(neville, "first_minor", no_sweep)
    A = random_tnn(6, 8, seed=5, factors=40)
    pascal = Mat.from_rows([[comb(i + j, i) for j in range(12)] for i in range(12)])
    neville_decompose(A)
    assert built == [(6, 8), (8, rank(A))]
    both, pass1 = [(6, 8), (8, rank(A))], [(12, 12)]
    for M, route, runs in [
        (A, ["--trace"], both),
        (A, ["--method", "neville"], both),
        (A, ["--method", "neville", "--trace"], both),
        (pascal, ["--trace"], pass1 * 2),  # auto's trace is the gate's at every size
        (pascal, ["--method", "neville"], pass1),
        (pascal, ["--method", "neville", "--trace"], pass1),
    ]:
        built.clear()
        inline = ";".join(" ".join(str(x) for x in row) for row in M.iter_rows())
        assert main(["decompose", *route, "--inline", inline]) == 0
        assert not capsys.readouterr().out.endswith("trace:\nunavailable\n")
        assert built == runs, route


def test_a_gate_reject_with_no_witness_still_raises_not_tnn(monkeypatch):
    # the sweep always names a minor after an exact reject; were it to find
    # none, the refusal keeps its type
    from tnnlu import neville

    monkeypatch.setattr(neville, "first_minor", lambda *args, **kwargs: None)
    with pytest.raises(NotTotallyNonnegativeError, match="no minor is negative"):
        neville_decompose(Mat.from_rows([[1, 2], [3, 4]]))


def test_the_gate_builds_no_L(monkeypatch):
    from tnnlu import neville

    def no_L(*args, **kwargs):
        raise AssertionError("L built on the gate's path")

    monkeypatch.setattr(neville, "_pair", no_L)
    pascal = Mat.from_rows([[comb(i + j, i) for j in range(8)] for i in range(8)])
    assert is_tnn(pascal).is_tnn
