"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every expected value here is frozen: the two golden examples are
checked entry by entry, and the property criteria run on a deterministic
seeded corpus of 210 totally nonnegative matrices with singular bias.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import in_class_M, is_upper_echelon
from tnnlu import (
    ClassDesc,
    DeleteRow,
    Eliminate,
    IndexSet,
    Mat,
    NotTotallyNonnegativeError,
    all_minors,
    detect_class,
    explicit_decompose,
    format_matrix,
    inversion_count,
    is_tnn,
    laplace_sum_rows,
    matmul,
    minor,
    neville_decompose,
    neville_move,
    parse_matrix,
    random_tnn,
    reconstruct_lu,
)
from tnnlu.cli import main as cli_main
from tnnlu.identities import selftest

CRYER = Mat.from_rows([[0, 0, 0], [1, 0, 1], [1, 0, 1]])
A4 = Mat.from_rows([[0, 1, 2, 1], [0, 2, 4, 2], [0, 1, 2, 3], [0, 3, 6, 11]])

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

CRYER_GOLDEN_JSON = """\
{
  "command": "decompose",
  "method": "auto",
  "class": {
    "r": [
      2
    ],
    "c": [
      1
    ]
  },
  "L": [
    [
      "0"
    ],
    [
      "1"
    ],
    [
      "1"
    ]
  ],
  "U": [
    [
      "1",
      "0",
      "1"
    ]
  ],
  "trace": [
    "D 1",
    "E 1 1 1",
    "D 2"
  ]
}
"""

A4_GOLDEN_JSON = """\
{
  "command": "decompose",
  "method": "auto",
  "class": {
    "r": [
      1,
      3
    ],
    "c": [
      2,
      4
    ]
  },
  "L": [
    [
      "1",
      "0"
    ],
    [
      "2",
      "0"
    ],
    [
      "1",
      "1"
    ],
    [
      "3",
      "4"
    ]
  ],
  "U": [
    [
      "0",
      "1",
      "2",
      "1"
    ],
    [
      "0",
      "0",
      "0",
      "2"
    ]
  ],
  "trace": [
    "E 3 2 3",
    "E 2 2 1/2",
    "E 1 2 2",
    "D 2",
    "E 2 4 1",
    "D 3"
  ]
}
"""


@contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    in_budget = elapsed < budget
    verdict = "PASS" if in_budget else "FAIL"
    print(f"criterion {number:2d}: {verdict} - {label} ({elapsed:.2f}s, budget {budget}s)")
    assert in_budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"


@pytest.fixture(scope="module")
def corpus():
    matrices = []
    for m in range(1, 7):
        for n in range(1, 8):
            for k in range(5):
                matrices.append(random_tnn(m, n, seed=1000 * m + 100 * n + k))
    assert len(matrices) >= 200
    return matrices


@pytest.fixture(scope="module")
def corpus_runs(corpus):
    """One elimination run per corpus matrix, reused across criteria."""
    runs = []
    for A in corpus:
        pair, trace = neville_decompose(A, record_stages=True)
        runs.append((A, pair, trace))
    return runs


def test_criterion_01_cryer_golden(capsys):
    with capsys.disabled(), criterion(1, "Cryer 3x3 golden, all three methods", budget=1.0):
        expected_l = Mat.from_rows([[0], [1], [1]])
        expected_u = Mat.from_rows([[1, 0, 1]])
        desc = ClassDesc(IndexSet((2,)), IndexSet((1,)))
        assert detect_class(CRYER) == desc
        for pair in (
            explicit_decompose(CRYER, desc),
            reconstruct_lu(CRYER, desc),
            neville_decompose(CRYER)[0],
        ):
            assert pair.L == expected_l
            assert pair.U == expected_u
            assert pair.desc == desc


def test_criterion_02_four_by_four_golden(capsys):
    with capsys.disabled(), criterion(2, "4x4 golden run with six recorded stages", budget=1.0):
        desc = ClassDesc(IndexSet((1, 3)), IndexSet((2, 4)))
        assert detect_class(A4) == desc
        expected_l = Mat.from_rows([[1, 0], [2, 0], [1, 1], [3, 4]])
        expected_u = Mat.from_rows([[0, 1, 2, 1], [0, 0, 0, 2]])
        for pair in (explicit_decompose(A4, desc), reconstruct_lu(A4, desc)):
            assert pair.L == expected_l and pair.U == expected_u
        pair, trace = neville_decompose(A4, record_stages=True)
        assert pair.L == expected_l and pair.U == expected_u and pair.desc == desc
        assert len(trace.stages) == 6
        for (L, U), (exp_l, exp_u) in zip(trace.stages, A4_STAGES):
            assert L == Mat.from_rows(exp_l)
            assert U == Mat.from_rows(exp_u)
        multipliers = [m.multiplier for m in trace.moves if isinstance(m, Eliminate)]
        assert multipliers == [3, Fraction(1, 2), 2, 1]
        deletions = [m.i for m in trace.moves if isinstance(m, DeleteRow)]
        assert deletions == [2, 3]


def test_criterion_03_triple_path_agreement(capsys, corpus, corpus_runs):
    with capsys.disabled(), criterion(
        3, f"triple-path agreement on {len(corpus)} corpus matrices", budget=60.0
    ):
        for A, pair, _ in corpus_runs:
            lu_explicit = explicit_decompose(A, pair.desc)
            lu_rebuilt = reconstruct_lu(A, pair.desc)
            assert lu_explicit.L == pair.L == lu_rebuilt.L
            assert lu_explicit.U == pair.U == lu_rebuilt.U
            assert matmul(pair.L, pair.U) == A


def test_criterion_04_factors_are_tnn(capsys, corpus_runs):
    with capsys.disabled(), criterion(4, "both factors brute-force TNN on the corpus", budget=120.0):
        for A, pair, _ in corpus_runs:
            assert min(A.nrows, A.ncols) <= 6
            assert is_tnn(pair.L).is_tnn
            assert is_tnn(pair.U).is_tnn


def test_criterion_05_class_verification_and_uniqueness(capsys, corpus_runs):
    with capsys.disabled(), criterion(
        5, "detected class verified; unique on the 4x4 sub-corpus", budget=120.0
    ):
        small = 0
        for A, pair, _ in corpus_runs:
            desc = detect_class(A)
            assert desc == pair.desc
            assert in_class_M(A, desc)
            if A.nrows <= 4 and A.ncols <= 4:
                small += 1
                passing = []
                for t in range(0, min(A.nrows, A.ncols) + 1):
                    for r in combinations(range(1, A.nrows + 1), t):
                        for c in combinations(range(1, A.ncols + 1), t):
                            cand = ClassDesc(IndexSet(r), IndexSet(c))
                            if in_class_M(A, cand):
                                passing.append(cand)
                assert passing == [desc]
        assert small >= 50


def test_criterion_06_move_minor_law(capsys):
    with capsys.disabled(), criterion(
        6, "minor transformation law on 50 first moves of TNN 5x5s", budget=60.0
    ):
        checked = 0
        seed = 0
        while checked < 50:
            seed += 1
            A = random_tnn(5, 5, seed=seed)
            if any(all(x == 0 for x in row) for row in A.iter_rows()):
                continue
            if is_upper_echelon(A).is_strict:
                continue
            _, trace = neville_decompose(A, max_size=0)
            first = trace.moves[0]
            if not isinstance(first, Eliminate):
                continue
            s, t = first.s, first.t
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


def test_criterion_07_tnn_preserved_per_move(capsys, corpus_runs):
    with capsys.disabled(), criterion(
        7, "working U is TNN after every move (corpus, min dim <= 5)", budget=120.0
    ):
        stages_checked = 0
        for A, _, trace in corpus_runs:
            if min(A.nrows, A.ncols) > 5:
                continue
            for _, U in trace.stages:
                assert is_tnn(U).is_tnn
                stages_checked += 1
        assert stages_checked >= 200


def test_criterion_08_identity_suite(capsys):
    with capsys.disabled(), criterion(
        8, "identity families x100 seeded instances, overlap branch exactly 0", budget=30.0
    ):
        results = selftest(seed=20260808, instances=100)
        assert set(results) == {
            "laplace_rows",
            "laplace_cols",
            "cauchy_binet",
            "sylvester",
            "muir_extended",
        }
        for family, entry in results.items():
            assert entry["instances"] == 100, family
            assert entry["failures"] == 0, family
        # overlapping-index Laplace branch returns exactly 0, checked directly
        import random

        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(2, 5)
            A = Mat(n, n, [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n * n)])
            si = rng.randint(2, n)
            I = IndexSet(sorted(rng.sample(range(1, n + 1), si)))
            s1 = rng.randint(1, si - 1)
            J1 = sorted(rng.sample(range(1, n + 1), s1))
            shared = rng.choice(J1)
            others = [j for j in range(1, n + 1) if j != shared]
            J2 = sorted([shared] + rng.sample(others, si - s1 - 1))
            assert set(J1) & set(J2)
            assert laplace_sum_rows(A, I, J1, J2) == 0


def test_criterion_09_negative_controls(capsys):
    with capsys.disabled(), criterion(9, "negative controls are rejected", budget=10.0):
        bad = Mat.from_rows([[0, 1], [1, 1]])
        assert detect_class(bad) is None
        report = is_tnn(bad)
        assert not report.is_tnn
        assert report.witness == (IndexSet((1, 2)), IndexSet((1, 2)), Fraction(-1))
        poisoned = Mat.from_rows([[0, 1], [1, 0]])
        with pytest.raises(NotTotallyNonnegativeError, match="input not totally nonnegative"):
            neville_decompose(poisoned)
        with pytest.raises(NotTotallyNonnegativeError, match="input not totally nonnegative"):
            neville_decompose(poisoned, max_size=0)
        deeper = Mat.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        with pytest.raises(NotTotallyNonnegativeError, match="input not totally nonnegative"):
            neville_decompose(deeper, max_size=0)


def test_criterion_10_cli_round_trip_and_goldens(capsys, corpus):
    with capsys.disabled(), criterion(
        10, "text round trip on the corpus; byte-equal CLI goldens", budget=60.0
    ):
        for A in corpus:
            assert parse_matrix(format_matrix(A)) == A
    # golden byte equality needs captured stdout, so run outside disabled()
    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, out

    cryer_inline = "0 0 0; 1 0 1; 1 0 1"
    a4_inline = "0 1 2 1; 0 2 4 2; 0 1 2 3; 0 3 6 11"
    for inline, golden in ((cryer_inline, CRYER_GOLDEN_JSON), (a4_inline, A4_GOLDEN_JSON)):
        argv = ["decompose", "--inline", inline, "--trace", "--format", "structured"]
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert code1 == code2 == 0
        assert out1 == out2 == golden
        assert json.loads(out1)  # well-formed structured output
