"""The benchmark's workloads: seeded lists of CLI ops with their expected outcomes.

An op is one `tnnlu` command line plus the matrix text it reads on stdin.
Its expectation comes from how the input was built (see `inputs.py`):
the exit codes it may end with and, for exit 0, the leaders, the TNN
verdict and the size of a known negative minor that `verify.check` holds
the output to.  Above the CLI's default size guard (min dimension > 8) an
op that runs an exhaustive minor sweep may refuse with exit 6; it may also
answer, as long as the answer is right.

Why these workloads:

* guarded_cli: TNN inputs inside the guard.  The exponential minor sweeps
  (`in_class_M` under detect, `is_tnn` under auto and check-tnn) dominate.
* large_factor: TNN inputs beyond the guard, 12x12 to 32x40, factored
  without any sweep: Neville's staircase rescans, `det` and `matmul` work.
* nontnn_reject: reject paths.  Signed class members, TNN matrices with
  one entry raised, and planted non-members; the sweeps exit early here.
* nontnn_mix: nontnn_reject plus one probe for each of two known defects,
  which the checker counts as failed ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from inputs import (
    bidiagonal_product,
    pascal,
    planted_nonmember,
    raise_entry,
    signed_member,
    to_text,
)
from verify import Leaders, Rows, leading_minors_nonzero, rank_profile

GUARD = 8  # the CLI's default --max-bruteforce

KINDS = ("decompose", "neville", "reconstruct", "explicit", "detect", "check_tnn", "selftest")


@dataclass(frozen=True)
class Op:
    """One CLI call and what its construction predicts."""

    kind: str
    argv: tuple[str, ...]
    text: str = ""
    matrix: Optional[Rows] = None
    codes: frozenset[int] = frozenset({0})
    leaders: Optional[Leaders] = None  # None: the input is in no class
    tnn: Optional[bool] = None
    witness_max: int = 0  # size of a negative minor the input carries


def _op(kind: str, argv: list[str], A: Rows, codes=(0,), **expect) -> Op:
    return Op(kind, tuple(argv), to_text(A, len(A[0])), A, frozenset(codes), **expect)


def _swept(A: Rows, codes: tuple[int, ...]) -> tuple[int, ...]:
    """Allow the size-guard refusal for an op whose sweep the guard covers."""
    return codes + (6,) if min(len(A), len(A[0])) > GUARD else codes


def _tnn_ops(A: Rows, trace: bool) -> list[Op]:
    leaders = rank_profile(A, len(A[0]))
    auto = ["decompose"] + (["--trace"] if trace else [])
    return [
        _op("decompose", auto, A, leaders=leaders, tnn=True),
        _op("detect", ["detect"], A, leaders=leaders),
        _op("check_tnn", ["check-tnn"], A, tnn=True),
    ]


def _factor_ops(A: Rows) -> list[Op]:
    leaders = rank_profile(A, len(A[0]))
    return [
        _op("neville", ["decompose", "--method", "neville"], A, leaders=leaders, tnn=True),
        _op("reconstruct", ["decompose", "--method", "reconstruct", "--unchecked"], A, leaders=leaders),
        _op("explicit", ["decompose", "--method", "explicit", "--unchecked"], A, leaders=leaders),
    ]


def _reject_ops(A: Rows, leaders: Optional[Leaders], witness_max: int) -> list[Op]:
    """detect, check-tnn, auto and neville on an input that is not TNN."""
    ops = [
        _op("detect", ["detect"], A, _swept(A, (0,)), leaders=leaders),
        _op("check_tnn", ["check-tnn"], A, _swept(A, (0,)), tnn=False, witness_max=witness_max),
        _op("decompose", ["decompose"], A, _swept(A, (0,) if leaders else (4,)), leaders=leaders),
    ]
    # Beyond the guard, neville checks TNN only move by move, which misses
    # some inputs (the second known defect); only nontnn_mix probes that.
    if min(len(A), len(A[0])) <= GUARD:
        ops.append(_op("neville", ["decompose", "--method", "neville"], A, (5,)))
    return ops


def guarded_cli(rng: random.Random, tiny: bool) -> list[Op]:
    if tiny:
        pascals, products, instances = [(3, 3), (3, 4)], [(3, 4, 2)], 2
    else:
        pascals = [(6, 6), (7, 7), (8, 8), (6, 10), (7, 9)]
        products = [(6, 8, 4), (6, 10, 5), (7, 8, 5), (7, 9, 6), (8, 8, 6)]
        instances = 5
    inputs = [pascal(m, n) for m, n in pascals]
    inputs += [bidiagonal_product(rng, m, n, t) for m, n, t in products]
    ops = []
    for k, A in enumerate(inputs):
        ops += _tnn_ops(A, trace=k % 2 == 1)
        seed = str(rng.randrange(10**6))
        ops.append(Op("selftest", ("identities-selftest", "--seed", seed, "--instances", str(instances))))
    return ops


def large_factor(rng: random.Random, tiny: bool) -> list[Op]:
    if tiny:
        sizes, products = [4], [(4, 5, 3)]
    else:
        sizes = [12, 16, 20, 24, 32]
        products = [(12, 16, 9), (16, 20, 12), (20, 24, 15), (24, 30, 18), (32, 40, 24)]
    inputs = [pascal(n, n) for n in sizes]
    inputs += [bidiagonal_product(rng, m, n, t) for m, n, t in products]
    return [op for A in inputs for op in _factor_ops(A)]


def nontnn_reject(rng: random.Random, tiny: bool) -> list[Op]:
    if tiny:
        members, raised, products, planted = [(3, 4, 2)], [4], [], [(3, 3)]
    else:
        members = [(6, 7, 4), (7, 7, 5), (8, 8, 6), (6, 9, 5)]
        raised, products = [6, 8, 12, 16], [7, 10, 14]
        planted = [(6, 6), (8, 8), (7, 9), (12, 12), (16, 16)]
    ops = []
    for m, n, t in members:
        A, leaders = signed_member(rng, m, n, t)
        ops += _reject_ops(A, leaders, witness_max=1)
        ops.append(_op("decompose", ["decompose", "--unchecked"], A, leaders=leaders))
    squares = [pascal(n, n) for n in raised]
    squares += [bidiagonal_product(rng, n, n, n) for n in products]
    for A in squares:
        A, _ = raise_entry(rng, A)
        n = len(A)
        full = (tuple(range(1, n + 1)),) * 2
        ops += _reject_ops(A, full if leading_minors_nonzero(A) else None, witness_max=2)
    for m, n in planted:
        ops += _reject_ops(planted_nonmember(rng, m, n), None, witness_max=2)
    return ops


def known_defect_probes() -> list[Op]:
    """Two inputs the program gets wrong at exit 0 (ROADMAP items 2 and 3).

    `0 1 1; 1 1 0` is in no class, yet `--unchecked` prints factors whose
    product is not A.  The 9x9 Pascal matrix with a[1,2] = 100 has the
    negative minor [1,2|1,2] = -98, yet Neville elimination beyond the
    guard accepts it.
    """
    corner = [[Fraction(x) for x in row] for row in ((0, 1, 1), (1, 1, 0))]
    bent = pascal(9, 9)
    bent[0][1] = Fraction(100)
    return [
        _op("decompose", ["decompose", "--unchecked"], corner, (4,)),
        _op("neville", ["decompose", "--method", "neville"], bent, (5,), leaders=((1, 2, 3, 4, 5, 6, 7, 8, 9),) * 2),
    ]


def nontnn_mix(rng: random.Random, tiny: bool) -> list[Op]:
    """nontnn_reject plus the two known-defect probes, counted as failed ops."""
    return nontnn_reject(rng, tiny) + known_defect_probes()


WORKLOADS = {
    "guarded_cli": guarded_cli,
    "large_factor": large_factor,
    "nontnn_reject": nontnn_reject,
    "nontnn_mix": nontnn_mix,
}


def build(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's ops for this seed, in the fixed order a run issues them."""
    family = "nontnn" if name.startswith("nontnn") else name
    rng = random.Random(f"{family}:{seed}")
    ops = WORKLOADS[name](rng, tiny)
    random.Random(f"order:{name}:{seed}").shuffle(ops)
    return ops
