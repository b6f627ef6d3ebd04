"""Total nonnegativity testing and corpus generation.

A matrix is totally nonnegative (TNN) when every square minor of every
size is >= 0.  `is_tnn` decides TNN in polynomial time by two runs of
Neville elimination, on A and then on its factor Uᵀ (`neville._tnn_gate`,
whose docstring has the argument), exact for m x n matrices of any rank.
The exhaustive minor sweep runs only when that gate rejects, to name the
first negative minor in scan order, and stops there.  The size guard bounds
that sweep alone: a reject beyond it is refused, an accept never is.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import MAX_BRUTEFORCE, IndexSet, Mat, first_minor, matmul, within_guard
from .neville import _tnn_gate

Witness = tuple[IndexSet, IndexSet, Fraction]


class TnnReport(NamedTuple):
    """Outcome of a TNN test.

    A reject's `witness` is the first offending (rows, cols, value) triple
    in the fixed scan order (size ascending, then lexicographic), so reports
    are reproducible, or None if the sweep finds none; an accept has none.
    """

    is_tnn: bool
    witness: Optional[Witness] = None


def is_tnn(A: Mat, max_size: int = MAX_BRUTEFORCE) -> TnnReport:
    """Decide total nonnegativity by Neville's two-pass gate, at every size;
    only a reject runs the sweep of all square minors for the first negative
    one, the witness, which `first_minor` refuses beyond the size guard."""
    within_guard(A, max_size)  # a negative max_size raises, even on an accept
    if _tnn_gate(A) is not None:
        return TnnReport(True)
    witness = first_minor(A, lambda rows, cols, v: v < 0, max_size)
    return TnnReport(False, witness)


def _small_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 3), rng.randint(1, 2))


def random_tnn(m: int, n: int, seed: int, factors: int = 12) -> Mat:
    """Deterministic seeded TNN test matrix, biased toward singular output.

    Starts from the rectangular identity and applies ``factors`` random
    factors, each one either a nonnegative bidiagonal elementary matrix
    (on the left or the right) or a nonnegative diagonal that may contain
    zeros.  Every factor is TNN, so the product is TNN; zero diagonal
    entries and the rectangular shape keep the rank low on purpose.  With
    ``factors`` = 0 the result is exactly the rectangular identity.

    Left and right factors commute, so the product is P·I·Q: a left factor
    acts on the rows of P and a right one on the rows of Qᵀ, where column
    j += lam·column j+1 is row j += lam·row j+1, by one shared step.
    """
    rng = random.Random(f"{seed}:{m}:{n}:{factors}")
    P, QT = ([[Fraction(int(i == j)) for j in range(k)] for i in range(k)] for k in (m, n))
    for _ in range(factors):
        if rng.random() < 0.3 or (m < 2 and n < 2):
            # diagonal factor, zeros allowed
            side = P if rng.random() < 0.5 and m >= 1 else QT
            if side:
                i = rng.randint(1, len(side))
                d = Fraction(0) if rng.random() < 0.35 else _small_positive(rng)
                side[i - 1] = [d * x for x in side[i - 1]]
        else:
            lam = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            side = P if (rng.random() < 0.5 and m >= 2) or n < 2 else QT
            i = rng.randint(1, len(side) - 1)
            # on P, row i+1 += lam * row i first; on Qᵀ, row i += lam * row i+1
            a, b = (i, i - 1) if (rng.random() < 0.5) == (side is P) else (i - 1, i)
            side[a] = [x + lam * y for x, y in zip(side[a], side[b])]
    k = min(m, n)
    Q = Mat.from_rows([row[:k] for row in QT], ncols=k).transpose()
    return matmul(Mat.from_rows([row[:k] for row in P], ncols=k), Q)
