import copy
import pickle
import time
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bareiss_reference,
    delete_col,
    delete_row,
    det_cofactor,
    eliminate,
    indexset_leq,
    minor_cofactor,
    random_rational_matrix,
    seeded,
    small_integer_matrices,
    small_rational_matrices,
    submatrix,
)
from tnnlu import (
    ClassDesc,
    IndexSet,
    Mat,
    NotInClassError,
    ParseError,
    all_minors,
    as_scalar,
    det,
    explicit_decompose,
    format_matrix,
    format_scalar,
    inversion_count,
    is_tnn,
    matmul,
    minor,
    neville_decompose,
    parse_matrix,
    parse_scalar,
    random_tnn,
    rank,
    reconstruct_lu,
    replay,
)
import tnnlu.core
from tnnlu.core import _any_live, _bareiss, _minor_num, _next_column, first_minor, iter_minor_layers
from tnnlu.mclass import _table, certify

CRYER = Mat.from_rows([[0, 0, 0], [1, 0, 1], [1, 0, 1]])
A4 = Mat.from_rows([[0, 1, 2, 1], [0, 2, 4, 2], [0, 1, 2, 3], [0, 3, 6, 11]])
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def index_sets(top, size):
    """Ascending tuples of ``size`` distinct indices from 1..max(top, size)."""
    drawn = st.lists(st.integers(1, max(top, size)), min_size=size, max_size=size, unique=True)
    return drawn.map(lambda indices: tuple(sorted(indices)))


@st.composite
def zero_rich_matrices(draw):
    """Up to 7 x 7, rich in zero multipliers and unit pivots for `_bareiss`:
    sparse {0, 1, 2} matrices, Pascal, and `random_tnn` products."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("sparse", "pascal", "product")))
    if kind == "sparse":
        cells = st.sampled_from((0, 0, 0, 1, 2))
        return Mat.from_rows(draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=m, max_size=m)))
    if kind == "pascal":
        return Mat.from_rows([[comb(i + j, i) for j in range(n)] for i in range(m)])
    return random_tnn(m, n, seed=draw(st.integers(0, 999)), factors=draw(st.integers(0, 30)))


SMALL_SETS = st.integers(0, 5).flatmap(lambda size: index_sets(7, size))


def outcome(call, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return call(*args)
    except (IndexError, ValueError) as exc:
        return type(exc), str(exc)


class TestIndexSet:
    def test_validation(self):
        assert tuple(IndexSet((1, 3, 7))) == (1, 3, 7)
        assert len(IndexSet()) == 0
        with pytest.raises(ValueError):
            IndexSet((3, 1))
        with pytest.raises(ValueError):
            IndexSet((1, 1))
        with pytest.raises(ValueError):
            IndexSet((0, 2))
        with pytest.raises(ValueError):
            IndexSet((1, -2))

    def test_is_a_validated_tuple(self):
        I = IndexSet((1, 3, 7))
        assert isinstance(I, tuple) and not hasattr(I, "indices")
        assert I == (1, 3, 7) and (1, 3, 7) == I and hash(I) == hash((1, 3, 7))
        assert {(1, 3, 7): "found"}[I] == "found" and {I: "found"}[(1, 3, 7)] == "found"
        assert repr(I) == "IndexSet((1, 3, 7))" and repr(IndexSet()) == "IndexSet(())"
        # tuple operations build plain tuples, so no unvalidated IndexSet comes out
        for made in (I + (2,), (2,) + I, I * 2, I[::-1], I[:2], I[1:]):
            assert type(made) is tuple
        assert (I + (2,), I[::-1]) == ((1, 3, 7, 2), (7, 3, 1))
        for copied in (copy.copy(I), copy.deepcopy(I), pickle.loads(pickle.dumps(I))):
            assert type(copied) is IndexSet and copied == I
        assert type(I.prefix(2)) is IndexSet and I.prefix(2) == (1, 3)
        bad = [
            ((3, 1), "indices must be strictly ascending, got (3, 1)"),
            ((1, 1), "indices must be strictly ascending, got (1, 1)"),
            ((0, 2), "indices must be positive integers, got 0"),
            ((1, -2), "indices must be positive integers, got -2"),
            ((True,), "indices must be positive integers, got True"),
            ((1.0,), "indices must be positive integers, got 1.0"),
        ]
        for indices, message in bad:
            with pytest.raises(ValueError) as caught:
                IndexSet(indices)
            assert str(caught.value) == message

    def test_leq_examples(self):
        assert indexset_leq([1, 3], [2, 4]) is True
        assert indexset_leq([1, 3], [1, 3]) is True
        assert indexset_leq([2, 3], [1, 4]) is False

    def test_leq_cardinality_mismatch(self):
        with pytest.raises(ValueError):
            indexset_leq([1], [1, 2])

    def test_leq_is_partial_order(self):
        universe = [IndexSet(c) for c in combinations(range(1, 5), 2)]
        for a in universe:
            assert indexset_leq(a, a)
            for b in universe:
                if indexset_leq(a, b) and indexset_leq(b, a):
                    assert a == b
                for c in universe:
                    if indexset_leq(a, b) and indexset_leq(b, c):
                        assert indexset_leq(a, c)

    def test_set_operations(self):
        a = IndexSet((1, 4))
        b = IndexSet((2, 3))
        assert a.disjoint_union(b) == IndexSet((1, 2, 3, 4))
        with pytest.raises(ValueError):
            a.disjoint_union(IndexSet((4, 5)))
        assert IndexSet((1, 4)).difference([4]) == IndexSet((1,))
        assert IndexSet((1, 2)).issubset([1, 2, 3])
        assert not IndexSet((1, 5)).issubset([1, 2, 3])

    @SETTINGS
    @given(SMALL_SETS, SMALL_SETS, st.integers(-6, 6))
    def test_derived_sets_are_valid_index_sets(self, a, b, count):
        # difference, disjoint_union and prefix build their results unchecked, from validated sets
        a, b = IndexSet(a), IndexSet(b)
        made = [a.difference(b), a.difference(list(b)), a.prefix(count)]
        if not set(a) & set(b):
            made += [a.disjoint_union(b), a.disjoint_union(tuple(b))]
        for result in made:
            assert type(result) is IndexSet and result == IndexSet(tuple(result))
        assert made[0] == tuple(i for i in a if i not in b) and made[2] == tuple(a)[:count]
        if len(made) > 3:
            assert made[3] == tuple(sorted(a + b))

    def test_derived_sets_refuse_what_they_always_refused(self):
        a = IndexSet((1, 4))
        refused = [
            (a.disjoint_union, (4, 5), "index sets overlap: IndexSet((1, 4)), IndexSet((4, 5))"),
            (a.disjoint_union, IndexSet((1,)), "index sets overlap: IndexSet((1, 4)), IndexSet((1,))"),
            (a.disjoint_union, (3, 2), "indices must be strictly ascending, got (3, 2)"),
            (a.disjoint_union, [0], "indices must be positive integers, got 0"),
            (a.difference, (2, 2), "indices must be strictly ascending, got (2, 2)"),
            (a.difference, [True], "indices must be positive integers, got True"),
            (a.difference, (-1,), "indices must be positive integers, got -1"),
        ]
        for method, argument, message in refused:
            with pytest.raises(ValueError) as caught:
                method(argument)
            assert str(caught.value) == message
        with pytest.raises(TypeError):
            a.prefix("1")


class TestSubmatrixAndMinor:
    def test_submatrix_cryer(self):
        assert submatrix(CRYER, [2, 3], [1, 3]) == Mat.from_rows([[1, 1], [1, 1]])

    def test_submatrix_degenerate(self):
        empty = submatrix(CRYER, [], [])
        assert (empty.nrows, empty.ncols) == (0, 0)
        eye = Mat.identity(3)
        assert submatrix(eye, [1, 2, 3], [1, 2, 3]) == eye

    def test_submatrix_out_of_range(self):
        with pytest.raises(IndexError):
            submatrix(CRYER, [4], [1])
        with pytest.raises(IndexError):
            submatrix(CRYER, [1], [5])

    def test_minor_examples(self):
        assert minor(CRYER, [2, 3], [1, 3]) == 0
        assert minor(CRYER, [], []) == 1
        assert minor(A4, [1, 4], [2, 4]) == 8
        # cross-check the frozen value against the naive oracle
        assert minor_cofactor(A4, [1, 4], [2, 4]) == 8

    def test_minor_cardinality_mismatch(self):
        with pytest.raises(ValueError):
            minor(A4, [1, 2], [1])

    def test_det_matches_cofactor_oracle(self):
        rng = seeded(101)
        for _ in range(60):
            n = rng.randint(0, 5)
            A = random_rational_matrix(rng, n, n)
            assert det(A) == det_cofactor(A.to_rows())

    def test_det_nonsquare(self):
        with pytest.raises(ValueError):
            det(Mat.zeros(2, 3))

    def test_minor_is_alternating(self):
        rng = seeded(77)
        for _ in range(20):
            A = random_rational_matrix(rng, 5, 5)
            sub = submatrix(A, [1, 3, 4], [2, 3, 5])
            rows = sub.to_rows()
            rows[0], rows[2] = rows[2], rows[0]
            swapped = Mat.from_rows(rows)
            assert det(swapped) == -det(sub)


class TestSharedLift:
    """Every kernel reads the one integer lift a Mat holds, its rows; none
    may write to it (`_bareiss` works in place on its argument)."""

    ROWS = [["1/2", "1/3", 1], ["1/5", 1, "2/7"], [3, "1/4", 1]]
    CALLS = (
        det,
        lambda M: minor(M, [1, 3], [2, 3]),
        lambda M: minor(M, [2], [1]),
        eliminate,
        explicit_decompose,
        all_minors,
    )

    def test_repeated_mixed_calls_match_a_fresh_matrix(self):
        expected = [call(Mat.from_rows(self.ROWS)) for call in self.CALLS]
        A = Mat.from_rows(self.ROWS)
        assert len(set(A._dens)) == 3  # unequal row scales
        for k in [0, 3, 1, 4, 2, 5, 0, 4, 3, 5, 1, 2, 3, 0, 5, 4, 2, 1]:
            assert self.CALLS[k](A) == expected[k]
        B = Mat.from_rows(self.ROWS)
        assert (A._rows, A._dens) == (B._rows, B._dens)


class TestBareissTable:
    """`_bareiss(rows, pick)` leaves in cell (h, k) the bordered minor on the
    pivots taken while row h and column k were both live, then h and k, rows
    and columns in pivot order, whichever live nonzero cells ``pick`` names."""

    @staticmethod
    def scan(rows, live_rows, live_cols, pivots):
        i0, j0 = pivots[-1] if pivots else (-1, -1)
        cells = ((i, j) for i in live_rows if i > i0 for j in live_cols if j > j0)
        return next(((i, j) for i, j in cells if rows[i][j]), None)

    @staticmethod
    def leaders(rng, m, n):
        t = rng.randint(0, min(m, n))
        r, c = sorted(rng.sample(range(m), t)), sorted(rng.sample(range(n), t))

        def pick(rows, live_rows, live_cols, pivots):
            s = len(pivots)
            return (r[s], c[s]) if s < t and rows[r[s]][c[s]] else None

        return pick

    @staticmethod
    def any_live(rng):
        def pick(rows, live_rows, live_cols, pivots):
            cells = [(i, j) for i in live_rows for j in live_cols if rows[i][j]]
            return rng.choice(cells) if cells and rng.random() < 0.9 else None

        return pick

    def test_every_cell_is_its_bordered_minor(self):
        rng = seeded(91)
        taken = [0, 0, 0]  # pivots taken by each pick
        for trial in range(150):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.choice((0, 0, 1, -1, 2, -3, 4)) for _ in range(n)] for _ in range(m)]
            A = Mat.from_rows(rows)
            pick = (self.scan, self.leaders(rng, m, n), self.any_live(rng))[trial % 3]
            seen = []

            def checked(rows, live_rows, live_cols, pivots):
                assert live_rows == [i for i in range(m) if i not in {i for i, _ in pivots}]
                assert live_cols == [j for j in range(n) if j not in {j for _, j in pivots}]
                seen.append(pick(rows, live_rows, live_cols, pivots))
                return seen[-1]

            pivots = _bareiss(rows, checked)
            assert seen[: len(pivots)] == pivots and seen[len(pivots) :] in ([], [None])
            taken[trial % 3] += len(pivots)
            row_step = {i: s for s, (i, _) in enumerate(pivots)}
            col_step = {j: s for s, (_, j) in enumerate(pivots)}
            for h in range(m):
                for k in range(n):
                    s = min(row_step.get(h, len(pivots)), col_step.get(k, len(pivots)))
                    I = [i + 1 for i, _ in pivots[:s]] + [h + 1]
                    J = [j + 1 for _, j in pivots[:s]] + [k + 1]
                    assert rows[h][k] == minor_cofactor(A, I, J)
        assert min(taken) > 30

    def test_swaps_and_runs_out(self):
        # a zero pivot takes the first live row below it: one, two and three
        # transpositions, then a first and a second pivot column that run out
        for rows, value in [
            ([[0, 1, 2], [3, 4, 5], [6, 7, 9]], -3),
            ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
            ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
            ([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], 1),
            ([[0, 1], [0, 2]], 0),
            ([[1, 2, 3], [2, 4, 5], [3, 6, 7]], 0),
        ]:
            assert det(Mat.from_rows(rows)) == det_cofactor(rows) == value
        A = Mat.from_rows([[0, 1, 2], [0, 2, 5], [3, 4, 5], [0, 3, 7]])
        assert minor(A, [1, 3], [1, 2]) == -3
        assert minor(A, [1, 2, 4], [1, 2, 3]) == 0
        assert minor(A, [2, 3, 4], [1, 2, 3]) == minor_cofactor(A, [2, 3, 4], [1, 2, 3]) == 3

    @SETTINGS
    @given(zero_rich_matrices(), st.data())
    def test_shortcuts_leave_the_reference_table(self, A, data):
        # det's pick on A's leading square, rank's on all of A
        k = min(A.nrows, A.ncols)
        square, whole = [list(row[:k]) for row in A._rows[:k]], [list(row) for row in A._rows]
        for pick, rows in ((_next_column, square), (_any_live, whole)):
            reference = [list(row) for row in rows]
            assert _bareiss(rows, pick) == bareiss_reference(reference, pick)
            assert rows == reference
        # `_table`'s: the scan, its own leaders, and drawn leaders, which may hit a zero pivot
        t = data.draw(st.integers(0, k))
        drawn = ClassDesc(data.draw(index_sets(A.nrows, t)), data.draw(index_sets(A.ncols, t)))
        for desc in (None, _table(A)[5], drawn):
            outcomes = []
            for kernel in (_bareiss, bareiss_reference):
                with mock.patch.object(tnnlu.mclass, "_bareiss", kernel):
                    try:
                        outcomes.append(_table(A, desc))
                    except NotInClassError as error:
                        outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]


class TestRankAndMatmul:
    def test_rank_examples(self):
        assert rank(CRYER) == 1
        assert rank(Mat.zeros(3, 3)) == 0
        assert rank(A4) == 2

    def test_matmul_outer_product_is_cryer(self):
        L = Mat.from_rows([[0], [1], [1]])
        U = Mat.from_rows([[1, 0, 1]])
        assert matmul(L, U) == CRYER

    def test_matmul_empty_inner_dimension(self):
        assert matmul(Mat.zeros(3, 0), Mat.zeros(0, 3)) == Mat.zeros(3, 3)

    def test_matmul_identity(self):
        B = Mat.from_rows([[1, 2, 3], [4, 5, 6]])
        assert matmul(Mat.identity(2), B) == B

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(Mat.zeros(2, 3), Mat.zeros(2, 3))

    def test_rank_of_product_bounded(self):
        rng = seeded(11)
        for _ in range(25):
            A = random_rational_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            B = random_rational_matrix(rng, A.ncols, rng.randint(1, 4))
            assert rank(matmul(A, B)) <= min(rank(A), rank(B))


class TestInversionCount:
    def test_examples(self):
        assert inversion_count([1], [2]) == 0
        assert inversion_count([3], [1, 2]) == 2
        assert inversion_count([2, 4], [1, 3]) == 3

    def test_matches_enumeration(self):
        rng = seeded(5)
        for _ in range(30):
            I = sorted(rng.sample(range(1, 8), rng.randint(0, 4)))
            J = sorted(rng.sample(range(1, 8), rng.randint(0, 4)))
            assert inversion_count(I, J) == sum(1 for i in I for j in J if i > j)


class TestDeletion:
    def test_delete_row_example(self):
        A = Mat.from_rows([[1, 0, 1], [0, 0, 0]])
        assert delete_row(A, 2) == Mat.from_rows([[1, 0, 1]])

    def test_delete_col_identity(self):
        assert delete_col(Mat.identity(3), 3) == Mat.from_rows([[1, 0], [0, 1], [0, 0]])

    def test_delete_to_zero_rows(self):
        A = Mat.from_rows([[1, 2, 3]])
        gone = delete_row(A, 1)
        assert (gone.nrows, gone.ncols) == (0, 3)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            delete_row(CRYER, 4)
        with pytest.raises(IndexError):
            delete_col(CRYER, 0)


class TestAllMinors:
    @SETTINGS
    @given(st.one_of(small_integer_matrices(), small_rational_matrices()), st.data())
    def test_matches_single_minor_calls(self, A, data):
        # `iter_minor_layers` expands along each row set's last row, a path apart
        # from `_minor_num`'s closed forms (orders 2 and 3) and `_bareiss` (4 on)
        table = all_minors(A)
        assert table[((), ())] == 1
        for _, layer in iter_minor_layers(A):
            for (rows, cols), value in layer.items():
                assert _minor_num(A, rows, cols) == value
                scaled = Fraction(value, prod(A._dens[i - 1] for i in rows))
                assert minor(A, rows, cols) == table[rows, cols] == scaled
        if A.nrows == A.ncols:
            full = tuple(range(1, A.nrows + 1))
            assert det(A) == det_cofactor(A.to_rows()) == table[full, full]
        else:
            assert outcome(det, A) == (ValueError, f"determinant of non-square {A.nrows}x{A.ncols} matrix")
        # an index past A, at each order up to 4, and unequal sizes raise as they always have
        size = data.draw(st.integers(1, 4))
        rows = data.draw(index_sets(A.nrows + 1, size))
        cols = data.draw(index_sets(A.ncols + 1, size + data.draw(st.sampled_from((0, 0, 0, 1)))))
        if len(rows) != len(cols):
            want = ValueError, f"minor needs equal-cardinality index sets: {IndexSet(rows)!r}, {IndexSet(cols)!r}"
        elif rows[-1] > A.nrows:
            want = IndexError, f"row index {rows[-1]} out of range for {A.nrows}x{A.ncols}"
        elif cols[-1] > A.ncols:
            want = IndexError, f"column index {cols[-1]} out of range for {A.nrows}x{A.ncols}"
        else:
            want = table[rows, cols]
        assert outcome(minor, A, rows, cols) == want
        if isinstance(want, tuple) and want[0] is IndexError:
            assert outcome(_minor_num, A, rows, cols) == want

    def test_max_order_truncates(self):
        table = all_minors(A4, max_order=1)
        assert max(len(rows) for rows, _ in table) == 1

    @pytest.fixture
    def swept(self, monkeypatch):
        """(size, minors computed) for each row set that the sweep yields."""
        original = tnnlu.core.iter_minor_layers
        swept = []

        def counting(*args, **kwargs):
            for size, minors in original(*args, **kwargs):
                if size:
                    swept.append((size, len(minors)))
                yield size, minors

        monkeypatch.setattr(tnnlu.core, "iter_minor_layers", counting)
        return swept

    def test_first_minor_stops_at_its_witness(self, swept):
        pascal = [[comb(i + j, i) for j in range(8)] for i in range(8)]
        pascal[0][1] = 100
        # [1,2|1,2] = 1·2 − 100·1, in the first row set of size 2
        witness = first_minor(Mat.from_rows(pascal), lambda rows, cols, value: value < 0)
        assert witness == ((1, 2), (1, 2), -98)
        # all 64 entries, then at most the row set {1, 2} of size 2, not all 784
        assert sum(count for _, count in swept) <= 64 + comb(8, 2)

    @pytest.mark.parametrize("extra", [[], [[0, 0, 1]]])
    def test_first_minor_stops_at_its_witness_of_order_3(self, swept, extra):
        # every minor of orders 1 and 2 is nonnegative, and [1,2,3|1,2,3] = -1;
        # a fourth row adds three row sets of order 3 after the witness's
        A = Mat.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]] + extra)
        witness = first_minor(A, lambda rows, cols, value: value < 0)
        assert witness == ((1, 2, 3), (1, 2, 3), -1)
        # every minor of orders 1 and 2, then only the row set {1, 2, 3}
        m = A.nrows
        assert swept == [(1, 3)] * m + [(2, 3)] * comb(m, 2) + [(3, 1)]


class TestScalarsAndText:
    def test_parse_format_scalar(self):
        assert parse_scalar("7") == 7
        assert parse_scalar("-3/6") == Fraction(-1, 2)
        assert parse_scalar("+5") == 5
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert format_scalar(Fraction(8, 4)) == "2"
        assert format_scalar(Fraction(-1, 2)) == "-1/2"
        # int() accepts the parts of the last four: an underscore, a non-ASCII
        # digit, a signed denominator, spaces around the slash
        for bad in ("1.5", "1/0", "1/-2", "x", "", "2/", "1_0", "\u0663", "3/+4", " 3 / 4"):
            with pytest.raises(ParseError):
                parse_scalar(bad)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_scalar(0.5)
        with pytest.raises(TypeError):
            Mat(1, 1, [0.5])

    def test_entry_access_is_one_based(self):
        A = Mat.from_rows([[1, 2], [3, 4]])
        assert A.entry(1, 1) == 1
        assert A.entry(2, 1) == 3
        assert A.row(2) == (Fraction(3), Fraction(4))
        assert A.col(2) == (Fraction(2), Fraction(4))
        with pytest.raises(IndexError):
            A.entry(0, 1)
        with pytest.raises(IndexError):
            A.entry(1, 3)

    def test_matrix_text_round_trip(self):
        rng = seeded(9)
        for _ in range(15):
            A = random_rational_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
            assert parse_matrix(format_matrix(A)) == A

    def test_parse_matrix_example(self):
        A = parse_matrix("2 3\n1 0 1/2\n-2 3/4 5\n")
        assert A == Mat.from_rows([[1, 0, Fraction(1, 2)], [-2, Fraction(3, 4), 5]])

    def test_parse_matrix_errors(self):
        for text in (
            "",
            "2\n1 2\n3 4",
            "a b\n",
            "2 2\n1 2\n",
            "1 2\n1 2 3\n",
            "1 1\n0.5\n",
            "-1 2\n",
            "0 0\n1\n",
            "1 \u0661\n7\n",
            "1_0 1\n" + "1\n" * 10,
        ):
            with pytest.raises(ParseError):
                parse_matrix(text)

    def test_zero_dimension_round_trip(self):
        for A in (Mat.zeros(0, 3), Mat.zeros(3, 0), Mat.zeros(0, 0)):
            assert parse_matrix(format_matrix(A)) == A

    def test_zeros_builds_integer_rows(self):
        # no Fraction per cell: a million empty rows parse in well under a second
        began = time.perf_counter()
        A = parse_matrix("1000000 0\n")
        assert time.perf_counter() - began < 1.0
        assert (A.nrows, A.ncols) == (1000000, 0)
        for m, n in ((2, 3), (3, 0), (0, 2)):
            Z = Mat.zeros(m, n)
            assert Z == Mat(m, n, [0] * (m * n)) and hash(Z) == hash(Mat(m, n, [0] * (m * n)))
        for m, n in ((-1, 2), (2, -1)):
            with pytest.raises(ValueError) as made:
                Mat(m, n, [])
            with pytest.raises(ValueError) as zeros:
                Mat.zeros(m, n)
            assert str(zeros.value) == str(made.value) == f"negative dimensions: {m}x{n}"


class TestTrustedCells:
    """The package wraps the Fractions it makes without `as_scalar`; every
    cell of every Mat it returns must still be a Fraction (a zero too), and
    the Mat must equal and hash like one built through validation."""

    TEXTS = (
        "3 3\n0 0 0\n1 0 1\n1 0 1\n",
        "3 4\n1 1/2 0 -0\n2/4 +3 007 1\n0 0 0 0\n",
        "2 3\n0 0 0\n0 0 0\n",
        "0 3\n",
        "3 0\n",
    )

    @staticmethod
    def assert_trusted(*mats):
        for M in mats:
            assert all(type(x) is Fraction for row in M.iter_rows() for x in row), M
            rebuilt = Mat.from_rows(M.to_rows(), ncols=M.ncols)
            assert (rebuilt.nrows, rebuilt.ncols) == (M.nrows, M.ncols)
            assert M == rebuilt and hash(M) == hash(rebuilt)

    def inputs(self):
        yield from (parse_matrix(text) for text in self.TEXTS)
        yield random_tnn(5, 6, seed=4, factors=20)
        yield Mat.from_rows([[2, "1/3", 0], ["-1/2", 0, 5]])  # a class member, not TNN

    def test_parse_and_the_mat_operations(self):
        for A in self.inputs():
            self.assert_trusted(A, A.transpose(), matmul(A, A.transpose()), matmul(A.transpose(), A))
            rows, cols = range(1, A.nrows + 1, 2), range(A.ncols, 0, -2)
            self.assert_trusted(submatrix(A, rows, sorted(cols)), submatrix(A, [], []))

    def test_factorization_routes(self):
        for A in self.inputs():
            pair = eliminate(A)
            self.assert_trusted(pair.L, pair.U)
            try:
                certify(A)
            except NotInClassError:
                continue
            for route in (certify, explicit_decompose, reconstruct_lu):
                pair = route(A)
                self.assert_trusted(pair.L, pair.U)
            if not is_tnn(A).is_tnn:
                continue
            pair, trace = neville_decompose(A, record_stages=True)
            self.assert_trusted(pair.L, pair.U, *(M for stage in trace.stages for M in stage))
            replayed = replay(A, trace)
            self.assert_trusted(replayed.L, replayed.U)
