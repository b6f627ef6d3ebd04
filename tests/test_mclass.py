import pytest

import tnnlu.mclass
from conftest import (
    all_candidate_descs,
    greedy_leaders,
    in_class_M,
    random_ascending_subset,
    random_class_L,
    random_class_U,
    seeded,
)
from tnnlu import (
    ClassDesc,
    IndexSet,
    Mat,
    NotInClassError,
    SizeGuardError,
    detect_class,
    matmul,
    rank,
)
from tnnlu.mclass import certify

CRYER = Mat.from_rows([[0, 0, 0], [1, 0, 1], [1, 0, 1]])
A4 = Mat.from_rows([[0, 1, 2, 1], [0, 2, 4, 2], [0, 1, 2, 3], [0, 3, 6, 11]])
NO_CLASS = Mat.from_rows([[0, 1], [1, 1]])


def test_in_class_M_examples():
    assert in_class_M(CRYER, ClassDesc(IndexSet((2,)), IndexSet((1,))))
    assert in_class_M(A4, ClassDesc(IndexSet((1, 3)), IndexSet((2, 4))))
    assert not any(in_class_M(NO_CLASS, desc) for desc in all_candidate_descs(2, 2))


def test_class_desc_validation():
    with pytest.raises(ValueError):
        ClassDesc(IndexSet((1, 2)), IndexSet((1,)))
    with pytest.raises(ValueError):
        in_class_M(CRYER, ClassDesc(IndexSet((4,)), IndexSet((1,))))
    with pytest.raises(ValueError):
        in_class_M(CRYER, ClassDesc(IndexSet((1,)), IndexSet((4,))))


def test_detect_examples():
    assert detect_class(CRYER) == ClassDesc(IndexSet((2,)), IndexSet((1,)))
    eye = Mat.identity(3)
    assert detect_class(eye) == ClassDesc(IndexSet((1, 2, 3)), IndexSet((1, 2, 3)))
    assert detect_class(NO_CLASS) is None


def test_detect_zero_matrix_gives_empty_class():
    desc = detect_class(Mat.zeros(2, 5))
    assert desc == ClassDesc(IndexSet(), IndexSet())


def test_greedy_candidate_can_fail_verification():
    A = Mat.from_rows([[0, 1, 1], [1, 1, 0]])
    cand = greedy_leaders(A)
    assert cand == ClassDesc(IndexSet((1, 2)), IndexSet((2, 3)))
    assert not in_class_M(A, cand)
    assert detect_class(A) is None


def test_size_guard():
    big = Mat.identity(9)
    full = ClassDesc(IndexSet(range(1, 10)), IndexSet(range(1, 10)))
    with pytest.raises(SizeGuardError):
        in_class_M(big, full)
    # detection is polynomial (elimination plus certificate): no guard to override
    assert detect_class(big) == full


def test_negative_max_size_is_rejected():
    A = Mat.identity(2)
    with pytest.raises(ValueError, match="max_size must be nonnegative"):
        in_class_M(A, ClassDesc(IndexSet((1, 2)), IndexSet((1, 2))), max_size=-1)


def test_product_of_class_factors_is_class_member():
    rng = seeded(55)
    for _ in range(30):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        t = rng.randint(0, min(m, n))
        r = random_ascending_subset(rng, m, t)
        c = random_ascending_subset(rng, n, t)
        L = random_class_L(rng, m, r)
        U = random_class_U(rng, n, c)
        A = matmul(L, U)
        assert in_class_M(A, ClassDesc(r, c))


def test_at_most_one_class_on_sampled_corpus():
    rng = seeded(56)
    hits = 0
    for _ in range(60):
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        A = Mat(m, n, [rng.choice((0, 1, 2)) for _ in range(m * n)])
        passing = [d for d in all_candidate_descs(m, n) if in_class_M(A, d)]
        assert len(passing) <= 1
        hits += len(passing)
        if passing:
            assert detect_class(A) == passing[0]
        else:
            assert detect_class(A) is None
    assert hits > 0  # the corpus is not vacuous


def test_membership_requires_matching_rank():
    # right leaders, wrong cardinality
    assert not in_class_M(CRYER, ClassDesc(IndexSet((2, 3)), IndexSet((1, 3))))
    assert not in_class_M(A4, ClassDesc(IndexSet((1,)), IndexSet((2,))))
    assert rank(A4) == 2


@pytest.mark.parametrize(
    "rows, desc, message",
    [
        (
            [[0, 1, 1], [1, 1, 0]],
            None,
            "matrix belongs to no class: U does not lead at columns [2, 3]",
        ),
        ([[1, 0], [1, 1]], ([2], [1]), "not in declared class: L does not lead with 1 at rows [2]"),
        ([[1, 1], [0, 1]], ([1], [2]), "not in declared class: U does not lead at columns [2]"),
        ([[1, 2], [3, 4]], ([1], [1]), "not in declared class: A - L*U is nonzero at (2,2)"),
        ([[1, 0], [0, 0]], ([2], [2]), "not in declared class: zero pivot at (2,2)"),
    ],
)
def test_certify_refuses_before_building_factors(monkeypatch, rows, desc, message):
    def refuse(*args, **kwargs):
        raise AssertionError("certify built factors for a non-member")

    monkeypatch.setattr(tnnlu.mclass, "_factors", refuse)
    with pytest.raises(NotInClassError) as raised:
        certify(Mat.from_rows(rows), None if desc is None else ClassDesc(*desc))
    assert str(raised.value) == message
