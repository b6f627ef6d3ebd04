"""Determinantal identities as callable checks and as term-level objects.

The Laplace relations, the Cauchy-Binet identity, and Sylvester's identity
are exposed as direct evaluators over exact matrices; they double as
oracles in the test suite.  Two-factor homogeneous identities (sums of
products of a pair of minors) are also represented extensionally as
`TermIdentity` values so that new valid identities can be derived from old
ones by adjoining disjoint row and column index sets to every minor.

All sign bookkeeping goes through `inversion_count`; there are no ad-hoc
parity computations.

Each check reads minors off integer rows as `_minor_num`'s numerators,
a minor times its rows' denominators, and makes at most one `Fraction`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .core import (
    IndexSet, IndexSetLike, Mat, _in_range, _minor_num, inversion_count, minor,
)

IndexPair = tuple[IndexSet, IndexSet]
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


class MinorTerm(
    NamedTuple("_MinorTerm", [("coefficient", Fraction), ("first", IndexPair), ("second", IndexPair)])
):
    """coefficient * [first] * [second], each factor a (rows, cols) minor."""

    __slots__ = ()

    def __new__(cls, coefficient: Fraction, first: IndexPair, second: IndexPair) -> "MinorTerm":
        for rows, cols in (first, second):
            if len(rows) != len(cols):
                raise ValueError(f"minor needs equal-cardinality index sets: {rows!r}, {cols!r}")
        return super().__new__(cls, coefficient, first, second)


class TermIdentity(NamedTuple):
    """A sum of two-factor minor terms expected to vanish identically."""

    terms: tuple[MinorTerm, ...]


def _lift(A: Mat) -> tuple[Mat, int]:
    """(D·A, D), D the lcm of A's row denominators: an integer matrix whose
    order-k minors are D^k times A's, so each homogeneous identity holds on
    it exactly when on A."""
    D = math.lcm(*A._dens)
    rows = [(row if d == D else [x * (D // d) for x in row], 1) for row, d in zip(A._rows, A._dens)]
    return Mat._of(A.nrows, A.ncols, rows), D


def evaluate_identity(identity: TermIdentity, A: Mat) -> Fraction:
    """Exact value of the term sum on a concrete matrix: an integer sum on
    D·A's minors (`_lift`) over Q·D^top, Q the lcm of the coefficients'
    denominators and top the largest degree of a term."""
    B, D = _lift(A)
    degrees = [len(term.first[0]) + len(term.second[0]) for term in identity.terms]
    top = max(degrees, default=0)
    Q = math.lcm(*[term.coefficient.denominator for term in identity.terms])
    total = 0
    for (c, first, second), degree in zip(identity.terms, degrees):
        total += (
            c.numerator * (Q // c.denominator) * D ** (top - degree)
            * _minor_num(B, *first) * _minor_num(B, *second)
        )
    return Fraction(total, Q * D**top)


def laplace_three_term(i: int, s: int, j: int, k: int) -> TermIdentity:
    """The 3-term relation [i|j][s,s+1|jk] - [s|j][i,s+1|jk] + [s+1|j][i,s|jk].

    Requires i < s and j < k.  It vanishes identically (it is the
    overlapping-column branch of a Laplace relation) and is the usual seed
    for extension by further rows and columns.
    """
    if not i < s:
        raise ValueError(f"need i < s, got i={i}, s={s}")
    if not j < k:
        raise ValueError(f"need j < k, got j={j}, k={k}")
    of, term = IndexSet._of, MinorTerm._make  # each minor square as written, so `_make` skips the check
    jk, i_s = IndexSet((j, k)), IndexSet((i, s))  # every index validated here, so the rest are made as is
    return TermIdentity(
        (
            term((_ONE, (of((i,)), of((j,))), (of((s, s + 1)), jk))),
            term((_MINUS_ONE, (of((s,)), of((j,))), (of((i, s + 1)), jk))),
            term((_ONE, (of((s + 1,)), of((j,))), (i_s, jk))),
        )
    )


def muir_extend(identity: TermIdentity, P: IndexSetLike, Q: IndexSetLike) -> TermIdentity:
    """Adjoin rows P and columns Q to every minor of a vanishing identity.

    P must be disjoint from every row set and Q from every column set in
    the identity (|P| = |Q|); the extended identity vanishes identically
    whenever the original does.
    """
    P = IndexSet.coerce(P)
    Q = IndexSet.coerce(Q)
    if len(P) != len(Q):
        raise ValueError(f"|P| must equal |Q|: {P!r}, {Q!r}")
    p_free, q_free = set(P).isdisjoint, set(Q).isdisjoint
    extended = []
    for term in identity.terms:
        for rows, _ in (term.first, term.second):
            if not p_free(IndexSet.coerce(rows)):
                raise ValueError(f"P = {P!r} overlaps row set {rows!r}")
        for _, cols in (term.first, term.second):
            if not q_free(IndexSet.coerce(cols)):
                raise ValueError(f"Q = {Q!r} overlaps column set {cols!r}")
        extended.append(MinorTerm(term.coefficient, *[
            (IndexSet._of(tuple(sorted(rows + P))), IndexSet._of(tuple(sorted(cols + Q))))
            for rows, cols in (term.first, term.second)
        ]))
    return TermIdentity(tuple(extended))


def laplace_sum_rows(A: Mat, I: IndexSetLike, J1: IndexSetLike, J2: IndexSetLike) -> Fraction:
    """Signed sum over all splits I = I1 ⊔ I2 of [I1|J1]·[I2|J2].

    Equals the sign-adjusted minor [I | J1 ⊔ J2] when J1 and J2 are
    disjoint, and exactly 0 when they overlap.
    """
    I = IndexSet.coerce(I)
    J1 = IndexSet.coerce(J1)
    J2 = IndexSet.coerce(J2)
    if len(J1) + len(J2) != len(I):
        raise ValueError(f"|J1| + |J2| must equal |I|: {J1!r}, {J2!r}, {I!r}")
    total, of = 0, IndexSet._of
    # the complements of I's subsets in lexicographic order come in reverse lexicographic order
    for I1, I2 in zip(combinations(I, len(J1)), reversed(list(combinations(I, len(J2))))):
        I1, I2 = of(I1), of(I2)
        total += (-1) ** inversion_count(I1, I2) * _minor_num(A, I1, J1) * _minor_num(A, I2, J2)
    return Fraction(total, math.prod(A._dens[i - 1] for i in I))


def laplace_sum_cols(A: Mat, J: IndexSetLike, I1: IndexSetLike, I2: IndexSetLike) -> Fraction:
    """Column dual: signed sum over splits J = J1 ⊔ J2 of [I1|J1]·[I2|J2],
    which is `laplace_sum_rows` on the transpose."""
    return laplace_sum_rows(A.transpose(), J, I1, I2)


def vanishing_check(A: Mat, I: IndexSetLike, J: IndexSetLike, J1: IndexSetLike) -> bool:
    """Instance check of the vanishing lemma, fixing a column subset.

    If [I1|J1] = 0 for every I1 ⊆ I of matching size, then [I|J] must be 0.
    Returns whether the implication holds here (vacuously true when the
    hypothesis fails); correct arithmetic can never make this false.
    """
    I = IndexSet.coerce(I)
    J = IndexSet.coerce(J)
    J1 = IndexSet.coerce(J1)
    if len(I) != len(J):
        raise ValueError(f"|I| must equal |J|: {I!r}, {J!r}")
    if not J1.issubset(J):
        raise ValueError(f"J1 = {J1!r} must be contained in J = {J!r}")
    _in_range(A, I, J)
    hypothesis = all(_minor_num(A, sub, J1) == 0 for sub in combinations(I, len(J1)))
    return not hypothesis or _minor_num(A, I, J) == 0


def vanishing_check_dual(A: Mat, I: IndexSetLike, J: IndexSetLike, I1: IndexSetLike) -> bool:
    """Row-fixing dual of `vanishing_check`, which it runs on the transpose."""
    return vanishing_check(A.transpose(), J, I, I1)


def cauchy_binet_check(A: Mat, B: Mat, I: IndexSetLike, J: IndexSetLike) -> bool:
    """Verify [I|J] of A·B against the sum over inner index sets K of
    [I|K]_A · [K|J]_B.  Always true; exposed for harnessing."""
    if A.ncols != B.nrows:
        raise ValueError(f"cannot multiply {A.nrows}x{A.ncols} by {B.nrows}x{B.ncols}")
    I = IndexSet.coerce(I)
    J = IndexSet.coerce(J)
    if len(I) != len(J):
        raise ValueError(f"|I| must equal |J|: {I!r}, {J!r}")
    if len(I) > A.ncols:
        raise ValueError(f"minor order {len(I)} exceeds inner dimension {A.ncols}")
    if I and I[-1] > A.nrows or J and J[-1] > B.ncols:
        _in_range(Mat.zeros(A.nrows, B.ncols), I, J)  # an index past A·B names its shape
    # on A's integer rows and F·B, both sides scale by F^|I| and A's row denominators on I;
    # AB is the block of their product on rows I and columns J
    B = _lift(B)[0]
    cols = [[row[j - 1] for row in B._rows] for j in J]
    AB = Mat._of(len(I), len(J), [([sum(map(mul, A._rows[i - 1], c)) for c in cols], 1) for i in I])
    return _minor_num(AB, range(1, len(I) + 1), range(1, len(J) + 1)) == sum(
        _minor_num(A, I, K) * _minor_num(B, K, J) for K in combinations(range(1, A.ncols + 1), len(I))
    )


def sylvester_check(A: Mat, m: int) -> bool:
    """Verify Sylvester's identity for the order-m bordered-minor matrix.

    For an n x n matrix, B[i, j] = [1..m, m+i | 1..m, m+j] and det(B) must
    equal det(A) * [1..m | 1..m]^(n-m-1).  Only the multiplicative form is
    ever checked (with 0^0 = 1), so a singular leading block is fine.
    """
    if A.nrows != A.ncols:
        raise ValueError(f"square matrix required, got {A.nrows}x{A.ncols}")
    n = A.nrows
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n = {n}, got m = {m}")
    # A's integer rows scale both sides alike: each has degree n - m in rows 1..m and 1 in the others
    lead, rest = tuple(range(1, m + 1)), range(m + 1, n + 1)
    B = Mat._of(n - m, n - m, [([_minor_num(A, lead + (i,), lead + (j,)) for j in rest], 1) for i in rest])
    left = _minor_num(B, range(1, n - m + 1), range(1, n - m + 1))
    return left == _minor_num(A, range(1, n + 1), range(1, n + 1)) * _minor_num(A, lead, lead) ** (n - m - 1)


def _random_matrix(rng: random.Random, nrows: int, ncols: int) -> Mat:
    """Rows of cells p/q over 6, drawn as `randint(-4, 4)` and `choice((1, 1, 2, 3))` draw them:
    `_randbelow(n)` redraws `getrandbits(n.bit_length())` while >= n, so seeds keep their instances."""
    bits, pairs = rng.getrandbits, []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            while (p := bits(4)) > 8:
                pass
            while (q := bits(3)) > 3:
                pass
            row.append((p - 4) * (6, 6, 3, 2)[q])
        g = math.gcd(6, *row)  # `_reduce(row, 6)`, inline
        pairs.append((row if g == 1 else [v // g for v in row], 6 // g))
    return Mat._of(nrows, ncols, pairs)


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """`rng.randint(lo, hi)`'s draw, as `_random_matrix` draws its cells."""
    k = (hi - lo + 1).bit_length()
    while (r := rng.getrandbits(k)) > hi - lo:
        pass
    return lo + r


def _random_subset(rng: random.Random, pool: range | list[int], size: int) -> IndexSet:
    """``size`` indices of ``pool``, distinct positive ints, drawn as `rng.sample`
    draws them from a pool this small: each pick swapped to the end of the pool."""
    pool = list(pool)
    for last in range(len(pool) - 1, len(pool) - 1 - size, -1):
        j = _randint(rng, 0, last)
        pool[j], pool[last] = pool[last], pool[j]
    return IndexSet._of(tuple(sorted(pool[len(pool) - size :])))


# Largest instance dimension; muir_extended uses exactly this, and needs >= 4.
_SIZE = 5


def selftest(seed: int = 0, instances: int = 100) -> dict[str, dict[str, int]]:
    """Run each identity family on seeded random exact instances.

    Returns, per family, the number of instances run and of failures
    (which should always be 0).  The Laplace families exercise both the
    disjoint and the overlapping branch; the overlapping branch must
    return exactly 0 every time.
    """
    if instances < 0:
        raise ValueError(f"instances must be nonnegative, got {instances}")
    rng = random.Random(seed)
    results: dict[str, dict[str, int]] = {}

    def run(name: str, attempt) -> None:
        failures = sum(0 if attempt() else 1 for _ in range(instances))
        results[name] = {"instances": instances, "failures": failures}

    def laplace_instance(dual: bool) -> bool:
        n = _randint(rng, 2, _SIZE)
        A = _random_matrix(rng, n, n)
        si = _randint(rng, 1, n)
        I = _random_subset(rng, range(1, n + 1), si)
        s1 = _randint(rng, 0, si)
        J1 = _random_subset(rng, range(1, n + 1), s1)
        if rng.random() < 0.5 and s1 and si - s1:
            J2 = _random_subset(rng, range(1, n + 1), si - s1)  # overlap allowed
        else:
            rest = [j for j in range(1, n + 1) if j not in J1]
            J2 = _random_subset(rng, rest, si - s1)
        value = (laplace_sum_cols if dual else laplace_sum_rows)(A, I, J1, J2)  # dual: I holds columns
        if not J1.isdisjoint(J2):
            return value == 0
        union = J1.disjoint_union(J2)
        return value == (-1) ** inversion_count(J1, J2) * (minor(A, union, I) if dual else minor(A, I, union))

    def cauchy_binet_instance() -> bool:
        m = _randint(rng, 1, _SIZE)
        t = _randint(rng, 1, _SIZE)
        n = _randint(rng, 1, _SIZE)
        A = _random_matrix(rng, m, t)
        B = _random_matrix(rng, t, n)
        k = _randint(rng, 0, min(m, t, n))
        I = _random_subset(rng, range(1, m + 1), k)
        J = _random_subset(rng, range(1, n + 1), k)
        return cauchy_binet_check(A, B, I, J)

    def sylvester_instance() -> bool:
        n = _randint(rng, 2, _SIZE)
        A = _random_matrix(rng, n, n)
        return sylvester_check(A, _randint(rng, 1, n - 1))

    def muir_instance() -> bool:
        n = _SIZE
        A = _random_matrix(rng, n, n)
        i, s = 1, _randint(rng, 2, n - 2)
        j, k = 1, _randint(rng, 2, n)
        base = laplace_three_term(i, s, j, k)
        free_rows = [x for x in range(1, n + 1) if x not in (i, s, s + 1)]
        free_cols = [x for x in range(1, n + 1) if x not in (j, k)]
        ext = _randint(rng, 0, min(len(free_rows), len(free_cols)))
        P = _random_subset(rng, free_rows, ext)
        Q = _random_subset(rng, free_cols, ext)
        return evaluate_identity(muir_extend(base, P, Q), A) == 0

    run("laplace_rows", lambda: laplace_instance(dual=False))
    run("laplace_cols", lambda: laplace_instance(dual=True))
    run("cauchy_binet", cauchy_binet_instance)
    run("sylvester", sylvester_instance)
    run("muir_extended", muir_instance)
    return results
