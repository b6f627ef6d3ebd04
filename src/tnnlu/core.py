"""Exact rational scalars, index sets, matrices, minors, and rank.

All arithmetic in this package is exact: a `Mat` holds integer rows over
positive denominators, scalars are `fractions.Fraction` values, and there
is no floating point anywhere.  Class membership and elimination pivoting
branch on exact zero tests of minors, which floats cannot decide.

Public indices are 1-based throughout (rows, columns, and the contents of
index sets); internal storage is row-major and 0-based but never leaks.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from itertools import combinations, islice, repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import ParseError, SizeGuardError

Scalar = Fraction
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")  # ASCII digits only: no "1_000", no "١٢"
ScalarLike = Union[int, str, Fraction]

__all__ = [
    "Scalar",
    "ScalarLike",
    "IndexSet",
    "IndexSetLike",
    "Mat",
    "as_scalar",
    "parse_int",
    "parse_scalar",
    "format_scalar",
    "inversion_count",
    "minor",
    "det",
    "rank",
    "matmul",
    "all_minors",
    "iter_minor_layers",
    "MAX_BRUTEFORCE",
    "within_guard",
    "first_minor",
    "parse_matrix",
    "format_matrix",
]


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    Floats are rejected outright: they carry silent binary rounding and
    would poison exact zero tests downstream.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("exact rational expected, got bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def parse_int(token: str) -> int:
    """Parse an ASCII decimal integer token, "[+-]?[0-9]+"; anything else,
    "1_000" or non-ASCII digits included, raises ParseError."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"not an integer: {token!r}")
    return int(token)


def _ratio(token: str) -> tuple[int, int]:
    """An integer or "p/q" token (q > 0) as the pair (p, q), as written."""
    match = _RATIONAL.fullmatch(token.strip())
    if match is None:
        raise ParseError(f"not an exact rational: {token!r}")
    if match[2] is not None and not int(match[2]):
        raise ParseError(f"denominator must be positive: {token!r}")
    return int(match[1]), int(match[2] or 1)


def parse_scalar(token: str) -> Fraction:
    """Parse an integer or "p/q" token (q > 0) into an exact rational."""
    return Fraction(*_ratio(token))


def format_scalar(value: Fraction) -> str:
    """Render a rational as "p" (integer) or "p/q", the parseable form."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class IndexSet(tuple):
    """A strictly ascending tuple of 1-based indices; may be empty."""

    __slots__ = ()

    def __new__(cls, indices: Iterable[int] = ()):
        idx = tuple(indices)
        for value in idx:
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"indices must be positive integers, got {value!r}")
        if not all(map(operator.lt, idx, idx[1:])):
            raise ValueError(f"indices must be strictly ascending, got {idx}")
        return super().__new__(cls, idx)

    @classmethod
    def _of(cls, idx: tuple) -> "IndexSet":
        """An IndexSet on a package-made tuple, as is: ascending positive ints."""
        return tuple.__new__(cls, idx)

    @classmethod
    def coerce(cls, value: "IndexSetLike") -> "IndexSet":
        return value if isinstance(value, IndexSet) else cls(value)

    def __repr__(self) -> str:
        return f"IndexSet({tuple(self)!r})"

    def prefix(self, count: int) -> "IndexSet":
        """The first ``count`` indices."""
        return IndexSet._of(self[:count])

    def issubset(self, other: "IndexSetLike") -> bool:
        pool = set(IndexSet.coerce(other))
        return all(i in pool for i in self)

    def isdisjoint(self, other: "IndexSetLike") -> bool:
        pool = set(IndexSet.coerce(other))
        return not any(i in pool for i in self)

    def disjoint_union(self, other: "IndexSetLike") -> "IndexSet":
        other = IndexSet.coerce(other)
        if not self.isdisjoint(other):
            raise ValueError(f"index sets overlap: {self!r}, {other!r}")
        return IndexSet._of(tuple(sorted(self + other)))

    def difference(self, other: "IndexSetLike") -> "IndexSet":
        pool = set(IndexSet.coerce(other))
        return IndexSet._of(tuple([i for i in self if i not in pool]))


IndexSetLike = Union[IndexSet, Iterable[int]]


def inversion_count(first: IndexSetLike, second: IndexSetLike) -> int:
    """Number of pairs (i, j) with i from the first set, j from the second,
    and i > j.  This is the sign exponent used by the Laplace relations."""
    a = IndexSet.coerce(first)
    b = IndexSet.coerce(second)
    return sum(1 for i in a for j in b if i > j)


class Mat:
    """Immutable dense matrix of exact rationals, held as integers: row i is
    ``_rows[i]`` over ``_dens[i]`` > 0 in lowest terms, gcd(den, *row) == 1.
    Equality and hashing read that canonical form; a cell read is a Fraction.

    Either dimension may be zero: a rank-0 decomposition produces genuine
    m-by-0 and 0-by-n factors.  Entry access is 1-based.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_dens")

    def __init__(self, nrows: int, ncols: int, entries: Iterable[ScalarLike]):
        if nrows < 0 or ncols < 0:
            raise ValueError(f"negative dimensions: {nrows}x{ncols}")
        cells = [as_scalar(x) for x in entries]
        if len(cells) != nrows * ncols:
            raise ValueError(
                f"expected {nrows * ncols} entries for {nrows}x{ncols}, got {len(cells)}"
            )
        rows = (cells[i * ncols : (i + 1) * ncols] for i in range(nrows))
        pairs = [_over_lcm([(x.numerator, x.denominator) for x in row]) for row in rows]
        self.nrows, self.ncols = nrows, ncols
        self._rows, self._dens = tuple(tuple(row) for row, _ in pairs), tuple(d for _, d in pairs)

    @classmethod
    def _of(cls, nrows: int, ncols: int, pairs: list) -> "Mat":
        """A Mat on package-made (row, den) pairs, as is: each in lowest terms.
        Its tuples are made from lists: CPython sizes a tuple of a generator by
        guess and shrinks it, which strands freed tuples on its free lists."""
        A = object.__new__(cls)
        A.nrows, A.ncols = nrows, ncols
        A._rows, A._dens = tuple([tuple(row) for row, _ in pairs]), tuple([d for _, d in pairs])
        return A

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[ScalarLike]], ncols: Optional[int] = None) -> "Mat":
        rows = [list(row) for row in rows]
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("rows have unequal lengths")
            if ncols is not None and ncols != width:
                raise ValueError(f"declared {ncols} columns, rows have {width}")
        else:
            width = 0 if ncols is None else ncols
        return cls(len(rows), width, (x for row in rows for x in row))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Mat":
        if nrows < 0 or ncols < 0:
            raise ValueError(f"negative dimensions: {nrows}x{ncols}")
        return cls._of(nrows, ncols, [([0] * ncols, 1)] * nrows if nrows else [])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, (1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> Fraction:
        """The (i, j) entry, 1-based."""
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise IndexError(f"entry ({i},{j}) out of range for {self.nrows}x{self.ncols}")
        return Fraction(self._rows[i - 1][j - 1], self._dens[i - 1])

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not 1 <= i <= self.nrows:
            raise IndexError(f"row {i} out of range for {self.nrows}x{self.ncols}")
        return tuple(Fraction(x, self._dens[i - 1]) for x in self._rows[i - 1])

    def col(self, j: int) -> tuple[Fraction, ...]:
        if not 1 <= j <= self.ncols:
            raise IndexError(f"column {j} out of range for {self.nrows}x{self.ncols}")
        return tuple(Fraction(row[j - 1], den) for row, den in zip(self._rows, self._dens))

    def iter_rows(self) -> Iterator[tuple[Fraction, ...]]:
        for row, den in zip(self._rows, self._dens):
            yield tuple(Fraction(x, den) for x in row)

    def to_rows(self) -> list[list[Fraction]]:
        return [list(row) for row in self.iter_rows()]

    def transpose(self) -> "Mat":
        """Each column over the lcm D of the row denominators, reduced by one gcd."""
        D = math.lcm(*self._dens)
        scales = [D // d for d in self._dens]
        cols = zip(*self._rows) if self.nrows else [()] * self.ncols
        pairs = [_reduce(list(map(operator.mul, col, scales)), D) for col in cols]
        return Mat._of(self.ncols, self.nrows, pairs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mat):  # nrows is len(_rows)
            return (self.ncols, self._rows, self._dens) == (other.ncols, other._rows, other._dens)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ncols, self._rows, self._dens))

    def __repr__(self) -> str:
        body = "; ".join(map(" ".join, _cells(self)))
        return f"Mat({self.nrows}x{self.ncols}: {body})"


def _in_range(A: Mat, I: Sequence[int], J: Sequence[int]) -> None:
    """Check that ascending index sequences fit inside A."""
    if I and I[-1] > A.nrows:
        raise IndexError(f"row index {I[-1]} out of range for {A.nrows}x{A.ncols}")
    if J and J[-1] > A.ncols:
        raise IndexError(f"column index {J[-1]} out of range for {A.nrows}x{A.ncols}")


def matmul(A: Mat, B: Mat) -> Mat:
    """Exact product; an empty shared dimension yields the zero matrix."""
    if A.ncols != B.nrows:
        raise ValueError(f"cannot multiply {A.nrows}x{A.ncols} by {B.nrows}x{B.ncols}")
    BT = B.transpose()
    cols = list(zip(BT._rows, BT._dens))
    return Mat._of(A.nrows, B.ncols, [
        _over_lcm([(sum(map(operator.mul, row, col)), d * e) for col, e in cols])
        for row, d in zip(A._rows, A._dens)
    ])


def _reduce(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den divided through by the gcd, the sign folded in so that the
    denominator is positive: a row in lowest terms."""
    g = math.gcd(den, *nums)
    g = -g if den < 0 else g
    return (nums, den) if g == 1 else ([v // g for v in nums], den // g)


def _over_lcm(cells: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Cells num/den (den nonzero, of either sign) as one row in lowest terms: each
    cell reduced, then lifted to the lcm of their denominators; integer cells skip both."""
    if all(d == 1 for _, d in cells):
        return [x for x, _ in cells], 1
    cells = [(x // g, d // g) for x, d in cells for g in (math.gcd(x, d),)]
    den = math.lcm(*[d for _, d in cells])
    return [x * (den // d) for x, d in cells], den


def _combine_into(row: list[int], b: int, a: int, other: list[int], lo: int, den: int) -> int:
    """Set ``row`` to (b·row - a·other) / den in lowest terms (see `_reduce`), in place, and return
    its denominator, with no gcd if den is 1; both rows are zero left of column ``lo``.  Loops, not a
    comprehension, which before Python 3.12 runs in a frame of its own, the larger cost on a short row."""
    for k in range(lo, len(row)):
        row[k] = b * row[k] - a * other[k]
    if den == 1:
        return 1
    g = math.gcd(den, *row)
    g = -g if den < 0 else g
    if g != 1:
        for k in range(lo, len(row)):
            row[k] //= g
    return den // g


def _bareiss(rows: list[list[int]], pick: Callable) -> list[tuple[int, int]]:
    """Fraction-free elimination in place, on a fresh list of lists (never
    a Mat's own rows), returning the pivots taken, 0-based.
    ``pick(rows, live_rows, live_cols, pivots)`` names the next pivot, a
    nonzero cell whose row and column are both live (not yet pivoted), or
    None to stop; it is not asked once no row is live.  Each step updates
    live cells only, so a cell keeps its value from the step that pivoted
    its row or column: cell (h, k) holds the bordered minor on the pivots
    taken while both were live, then h and k (Sylvester's identity), and
    every division is exact.  A zero multiplier rh[j] only rescales row h by
    p / prev, skipped if p == prev, and a unit prev divides by nothing."""
    live_rows = list(range(len(rows)))
    live_cols = list(range(len(rows[0]) if rows else 0))
    pivots: list[tuple[int, int]] = []
    prev = 1
    while live_rows and (step := pick(rows, live_rows, live_cols, pivots)) is not None:
        i, j = step
        live_rows.remove(i)
        live_cols.remove(j)
        ri = rows[i]
        p = ri[j]
        for h in live_rows:
            rh = rows[h]
            rhj = rh[j]
            if rhj and prev != 1:
                for k in live_cols:
                    rh[k] = (p * rh[k] - rhj * ri[k]) // prev
            elif rhj:
                for k in live_cols:
                    rh[k] = p * rh[k] - rhj * ri[k]
            elif p != prev:
                for k in live_cols:
                    rh[k] = p * rh[k] // prev
        pivots.append(step)
        prev = p
    return pivots


def _next_column(rows, live_rows, live_cols, pivots):
    """`det`'s pick: the first live row with a nonzero in the next column."""
    k = len(pivots)
    for i in live_rows:
        if rows[i][k]:
            return i, k
    return None


def _any_live(rows, live_rows, live_cols, pivots):
    """`rank`'s pick: the first live nonzero cell, row-major."""
    return next(((i, k) for i in live_rows for k in live_cols if rows[i][k]), None)


def det(A: Mat) -> Fraction:
    """Exact determinant of a square matrix (1 for the 0x0 matrix)."""
    if A.nrows != A.ncols:
        raise ValueError(f"determinant of non-square {A.nrows}x{A.ncols} matrix")
    return minor(A, range(1, A.nrows + 1), range(1, A.ncols + 1))


def minor(A: Mat, rows: IndexSetLike, cols: IndexSetLike) -> Fraction:
    """The minor on the given rows and columns; the empty minor is 1, a 1x1
    minor its entry.  It is `_minor_num` over the chosen rows' denominators."""
    I, J = IndexSet.coerce(rows), IndexSet.coerce(cols)
    if len(I) != len(J):
        raise ValueError(f"minor needs equal-cardinality index sets: {I!r}, {J!r}")
    return Fraction(_minor_num(A, I, J), math.prod(A._dens[i - 1] for i in I))


def _minor_num(A: Mat, I: Sequence[int], J: Sequence[int]) -> int:
    """The minor on ascending 1-based rows I and columns J of equal length, times
    those rows' denominators, off A's integer rows: by cofactors to order 3, at
    order 4 as the six products of 2x2 minors on its first two rows and its last
    two (Laplace), then as the last `_bareiss` pivot signed by the order of the
    pivot rows, 0 if a column runs out.  An index past A raises `minor`'s IndexError."""
    if I and I[-1] > A.nrows or J and J[-1] > A.ncols:  # only to raise: the test is cheaper than the call
        _in_range(A, I, J)
    if len(I) < 2:
        return A._rows[I[0] - 1][J[0] - 1] if I else 1
    if len(I) == 2:
        (r, s), (a, b) = (A._rows[I[0] - 1], A._rows[I[1] - 1]), (J[0] - 1, J[1] - 1)
        return r[a] * s[b] - r[b] * s[a]
    if len(I) == 3:
        (h, i, k), (a, b, c) = I, [j - 1 for j in J]
        r, s, t = A._rows[h - 1], A._rows[i - 1], A._rows[k - 1]
        return (r[a] * (s[b] * t[c] - s[c] * t[b]) - r[b] * (s[a] * t[c] - s[c] * t[a])
                + r[c] * (s[a] * t[b] - s[b] * t[a]))
    if len(I) == 4:
        (a, b, c, d), (r, s, t, u) = [j - 1 for j in J], [A._rows[i - 1] for i in I]
        return ((r[a] * s[b] - r[b] * s[a]) * (t[c] * u[d] - t[d] * u[c])
                - (r[a] * s[c] - r[c] * s[a]) * (t[b] * u[d] - t[d] * u[b])
                + (r[a] * s[d] - r[d] * s[a]) * (t[b] * u[c] - t[c] * u[b])
                + (r[b] * s[c] - r[c] * s[b]) * (t[a] * u[d] - t[d] * u[a])
                - (r[b] * s[d] - r[d] * s[b]) * (t[a] * u[c] - t[c] * u[a])
                + (r[c] * s[d] - r[d] * s[c]) * (t[a] * u[b] - t[b] * u[a]))
    entries = [[A._rows[i - 1][j - 1] for j in J] for i in I]
    pivots = _bareiss(entries, _next_column)
    if len(pivots) < len(I):
        return 0
    i, j = pivots[-1]
    value = entries[i][j]
    if pivots != sorted(pivots) and sum(a > b for (a, _), (b, _) in combinations(pivots, 2)) % 2:
        value = -value
    return value


def rank(A: Mat) -> int:
    """Exact rank over the rationals: the pivots `_bareiss` takes on A's
    integer rows, each the first live nonzero cell."""
    return len(_bareiss([list(row) for row in A._rows], _any_live))


MinorKey = tuple[tuple[int, ...], tuple[int, ...]]

# Default size guard of every exhaustive minor sweep: min(m, n) at most this.
MAX_BRUTEFORCE = 8


def iter_minor_layers(
    A: Mat, max_order: Optional[int] = None
) -> Iterator[tuple[int, dict[MinorKey, int]]]:
    """Yield (size, {(rows, cols): minor}) for all square minors, size by size
    and, within a size, row set by row set, one dict each: every minor an int
    on A's integer rows, the minor times its rows' denominators.

    Uses cofactor expansion along each row set's last row, reusing the
    previous size's minors, so enumerating every minor costs far less than
    independent determinants, and a consumer that stops early skips the rest
    of a size.  Keys are ascending 1-based index tuples, yielded in
    lexicographic (rows, cols) order.

    Each size s >= 3 first builds its expansion table: for each column set J
    the terms (column, index of J minus that column among the size s-1 sets,
    sign).  A row set's minors are a list aligned with the column sets, each
    s list reads and products off its last row and the previous size's list.
    Size 1 reads A's rows, and size 2 the closed form u[a]·v[b] - u[b]·v[a]
    on each pair of rows u above v; only the previous size's lists are kept.
    """
    m, n = A.nrows, A.ncols
    top = min(m, n) if max_order is None else min(max_order, m, n)
    yield 0, {((), ()): 1}
    for s in range(1, top + 1):
        cols = list(combinations(range(1, n + 1), s))
        if s > 2:
            index = {J: k for k, J in enumerate(prev_cols)}
            table = [[(J[pos] - 1, index[J[:pos] + J[pos + 1 :]], 1 if (s + pos) % 2 else -1)
                      for pos in range(s)] for J in cols]
        layer = {}
        for I in combinations(range(1, m + 1), s):
            row = A._rows[I[-1] - 1]
            if s == 1:
                values: Sequence[int] = row
            elif s == 2:
                above = A._rows[I[0] - 1]
                values = [above[a] * row[b] - above[b] * row[a] for a, b in combinations(range(n), 2)]
            else:
                below, values = prev[I[:-1]], []
                for terms in table:
                    acc = 0
                    for col, k, sign in terms:
                        if entry := row[col]:
                            acc += sign * entry * below[k]
                    values.append(acc)
            if 1 < s < top:  # size 2 reads no earlier list
                layer[I] = values
            yield s, dict(zip(zip(repeat(I), cols), values))
        prev, prev_cols = layer, cols


def within_guard(A: Mat, max_size: int) -> bool:
    """Whether min(m, n) <= ``max_size``; a negative one raises ValueError."""
    if max_size < 0:
        raise ValueError(f"max_size must be nonnegative, got {max_size}")
    return min(A.nrows, A.ncols) <= max_size


def first_minor(
    A: Mat,
    fails: Callable[[tuple[int, ...], tuple[int, ...], int], bool],
    max_size: int = MAX_BRUTEFORCE,
    max_order: Optional[int] = None,
) -> Optional[tuple[IndexSet, IndexSet, Fraction]]:
    """The exhaustive minor sweep, refused past `within_guard`: the first
    nonempty minor, size ascending then lexicographic, up to ``max_order``,
    for which ``fails(rows, cols, value)`` holds on index tuples and
    `iter_minor_layers`' int, as (rows, cols, minor) with IndexSets and a
    Fraction; None if none.  It stops after the row set that holds its
    witness: no later row set is computed.  The guard bounds only this
    exponential sweep."""
    if not within_guard(A, max_size):
        raise SizeGuardError(
            f"brute-force minor enumeration refused for {A.nrows}x{A.ncols} "
            f"(min dimension > {max_size}); pass a larger max_size to override"
        )
    for _, layer in islice(iter_minor_layers(A, max_order), 1, None):
        for (rows, cols), value in layer.items():
            if fails(rows, cols, value):
                value = Fraction(value, math.prod(A._dens[i - 1] for i in rows))
                return IndexSet(rows), IndexSet(cols), value
    return None


def all_minors(A: Mat, max_order: Optional[int] = None) -> dict[MinorKey, Fraction]:
    """All square minors up to ``max_order``, keyed by (rows, cols) tuples."""
    return {
        (I, J): Fraction(value, math.prod(A._dens[i - 1] for i in I))
        for _, layer in iter_minor_layers(A, max_order)
        for (I, J), value in layer.items()
    }


def parse_matrix(text: str) -> Mat:
    """Parse the matrix text format: a "m n" header line, then m rows of n
    whitespace-separated exact rationals.  Any other token is an error."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must be 'm n', got {lines[0]!r}")
    try:
        nrows, ncols = parse_int(header[0]), parse_int(header[1])
    except ParseError:
        raise ParseError(f"header must be 'm n', got {lines[0]!r}") from None
    if nrows < 0 or ncols < 0:
        raise ParseError(f"negative dimensions in header: {lines[0]!r}")
    data = [line for line in lines[1:] if line.strip()]
    if nrows == 0 or ncols == 0:
        if data:
            raise ParseError("unexpected entries after zero-dimension header")
        return Mat.zeros(nrows, ncols)
    if len(data) != nrows:
        raise ParseError(f"expected {nrows} rows, got {len(data)}")
    pairs = []
    for line in data:
        tokens = line.split()
        if len(tokens) != ncols:
            raise ParseError(f"expected {ncols} entries per row, got {len(tokens)}: {line!r}")
        if line.isascii() and "_" not in line and "/+" not in line and "/-" not in line:
            try:  # the `int` path, an ASCII line with no "_", "/+" or "/-": `int` reads its p and q as `_ratio` does
                if "/" not in line:
                    pairs.append((list(map(int, tokens)), 1))
                    continue
                cells = [token.partition("/") for token in tokens]
                dens = [int(q) if bar else 1 for _, bar, q in cells]
                if den := math.lcm(*dens):  # else some q is 0, which `_ratio` names
                    pairs.append(_reduce([int(p) * (den // q) for (p, _, _), q in zip(cells, dens)], den))
                    continue
            except ValueError:
                pass
        pairs.append(_over_lcm([_ratio(token) for token in tokens]))  # or `_ratio` names the bad token
    return Mat._of(nrows, ncols, pairs)


def _texts(row: tuple[int, ...], den: int) -> list[str]:
    """Each cell of row / den as `format_scalar` writes it: the one cell
    writer, which every matrix rendering reads through `_cells`."""
    if den == 1:
        return list(map(str, row))
    return [str(x // g) if g == den else f"{x // g}/{den // g}" for x in row for g in (math.gcd(x, den),)]


def _cells(A: Mat) -> list[list[str]]:
    """A's rows as lists of cells, the structured form of `format_matrix`'s
    rows: one `_texts` list per row, so an m x 0 matrix has m empty rows."""
    return [_texts(row, den) for row, den in zip(A._rows, A._dens)]


def format_matrix(A: Mat) -> str:
    """Render in the text format accepted by `parse_matrix`, exact round trip:
    an "m n" header, then `_cells`' rows joined by spaces, none if n = 0."""
    rows = map(" ".join, _cells(A)) if A.ncols else ()
    return "\n".join([f"{A.nrows} {A.ncols}", *rows]) + "\n"
