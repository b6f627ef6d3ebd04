from fractions import Fraction
from itertools import combinations

import pytest

from conftest import minor_cofactor, random_rational_matrix, seeded
from tnnlu import (
    IndexSet,
    Mat,
    cauchy_binet_check,
    evaluate_identity,
    det,
    inversion_count,
    laplace_sum_cols,
    laplace_sum_rows,
    laplace_three_term,
    matmul,
    minor,
    muir_extend,
    sylvester_check,
    vanishing_check,
    vanishing_check_dual,
)
from tnnlu.identities import MinorTerm, TermIdentity, selftest

CRYER = Mat.from_rows([[0, 0, 0], [1, 0, 1], [1, 0, 1]])
A4 = Mat.from_rows([[0, 1, 2, 1], [0, 2, 4, 2], [0, 1, 2, 3], [0, 3, 6, 11]])


def sign(count):
    return -1 if count % 2 else 1


class TestLaplace:
    def test_two_by_two_cofactor(self):
        rng = seeded(1)
        A = random_rational_matrix(rng, 2, 2)
        assert laplace_sum_rows(A, [1, 2], [1], [2]) == det(A)

    def test_overlapping_columns_vanish(self):
        rng = seeded(2)
        for _ in range(10):
            A = random_rational_matrix(rng, 3, 3)
            assert laplace_sum_rows(A, [1, 2], [1], [1]) == 0

    def test_three_by_three_against_oracle(self):
        rng = seeded(3)
        A = random_rational_matrix(rng, 3, 3)
        value = laplace_sum_rows(A, [1, 2, 3], [2], [1, 3])
        expected = sign(inversion_count([2], [1, 3])) * minor_cofactor(A, (1, 2, 3), (1, 2, 3))
        assert value == expected

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError):
            laplace_sum_rows(A4, [1, 2], [1], [2, 3])

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_all_index_choices_exhaustively(self, n):
        # every split of every row set on one matrix, both branches
        rng = seeded(n)
        A = random_rational_matrix(rng, n, n)
        for si in range(1, n + 1):
            for I in combinations(range(1, n + 1), si):
                for s1 in range(0, si + 1):
                    for J1 in combinations(range(1, n + 1), s1):
                        for J2 in combinations(range(1, n + 1), si - s1):
                            value = laplace_sum_rows(A, I, J1, J2)
                            if set(J1) & set(J2):
                                assert value == 0
                            else:
                                union = tuple(sorted(J1 + J2))
                                expected = sign(inversion_count(J1, J2)) * minor(A, I, union)
                                assert value == expected

    def test_column_dual(self):
        rng = seeded(5)
        A = random_rational_matrix(rng, 4, 4)
        for sj in range(1, 4):
            for J in combinations(range(1, 5), sj):
                for s1 in range(0, sj + 1):
                    for I1 in combinations(range(1, 5), s1):
                        for I2 in combinations(range(1, 5), sj - s1):
                            value = laplace_sum_cols(A, J, I1, I2)
                            if set(I1) & set(I2):
                                assert value == 0
                            else:
                                union = tuple(sorted(I1 + I2))
                                expected = sign(inversion_count(I1, I2)) * minor(A, union, J)
                                assert value == expected


class TestVanishing:
    def test_cryer_instance(self):
        assert vanishing_check(CRYER, [2, 3], [1, 3], [3])

    def test_zero_column_forces_zero_minor(self):
        assert vanishing_check(CRYER, [2, 3], [2, 3], [2])
        assert minor(CRYER, [2, 3], [2, 3]) == 0

    def test_random_instances(self):
        rng = seeded(6)
        for _ in range(30):
            A = random_rational_matrix(rng, 4, 4)
            si = rng.randint(1, 4)
            I = sorted(rng.sample(range(1, 5), si))
            J = sorted(rng.sample(range(1, 5), si))
            J1 = sorted(rng.sample(J, rng.randint(0, si)))
            assert vanishing_check(A, I, J, J1)
            I1 = sorted(rng.sample(I, rng.randint(0, si)))
            assert vanishing_check_dual(A, I, J, I1)

    def test_containment_error(self):
        with pytest.raises(ValueError):
            vanishing_check(A4, [1, 2], [1, 2], [3])

    def test_index_past_A_raises_whatever_the_hypothesis(self):
        # the hypothesis fails on both ([1|1] = 1), yet I and J are checked first
        A = Mat.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        with pytest.raises(IndexError, match="row index 9 out of range for 3x3"):
            vanishing_check(A, [1, 9], [1, 2], [1])
        with pytest.raises(IndexError, match="column index 7 out of range for 3x3"):
            vanishing_check(A, [1, 2], [1, 7], [1])


class TestCauchyBinet:
    def test_cryer_factors(self):
        L = Mat.from_rows([[0], [1], [1]])
        U = Mat.from_rows([[1, 0, 1]])
        assert cauchy_binet_check(L, U, [2], [1])
        assert minor(matmul(L, U), [2], [1]) == 1

    def test_identity_left_factor(self):
        rng = seeded(7)
        B = random_rational_matrix(rng, 3, 4)
        assert cauchy_binet_check(Mat.identity(3), B, [1, 3], [2, 4])

    def test_a4_factor_pair(self):
        L = Mat.from_rows([[1, 0], [2, 0], [1, 1], [3, 4]])
        U = Mat.from_rows([[0, 1, 2, 1], [0, 0, 0, 2]])
        assert cauchy_binet_check(L, U, [1, 3], [2, 4])
        assert minor(matmul(L, U), [1, 3], [2, 4]) == 2

    def test_degenerate_empty_sets(self):
        rng = seeded(8)
        A = random_rational_matrix(rng, 2, 3)
        B = random_rational_matrix(rng, 3, 2)
        assert cauchy_binet_check(A, B, [], [])

    def test_order_exceeding_inner_dimension(self):
        rng = seeded(9)
        A = random_rational_matrix(rng, 3, 1)
        B = random_rational_matrix(rng, 1, 3)
        with pytest.raises(ValueError):
            cauchy_binet_check(A, B, [1, 2], [1, 2])


class TestSylvester:
    def test_two_by_two_exponent_zero(self):
        rng = seeded(10)
        for _ in range(5):
            A = random_rational_matrix(rng, 2, 2)
            assert sylvester_check(A, 1)

    def test_random_sizes(self):
        rng = seeded(11)
        for _ in range(20):
            n = rng.randint(2, 5)
            A = random_rational_matrix(rng, n, n)
            assert sylvester_check(A, rng.randint(1, n - 1))

    def test_a4_with_order_two(self):
        assert sylvester_check(A4, 2)

    def test_singular_leading_block(self):
        A = Mat.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert sylvester_check(A, 1)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            sylvester_check(A4, 4)
        with pytest.raises(ValueError):
            sylvester_check(Mat.zeros(2, 3), 1)


class TestMuir:
    def test_base_relation_vanishes(self):
        rng = seeded(12)
        base = laplace_three_term(1, 2, 1, 2)
        for _ in range(10):
            A = random_rational_matrix(rng, 3, 3)
            assert evaluate_identity(base, A) == 0

    def test_three_term_relation_refuses_bad_indices(self):
        # each index is validated once; the error names the first bad one
        for args, message in [
            ((0, 2, 1, 2), "indices must be positive integers, got 0"),
            ((1, 2, 0, 2), "indices must be positive integers, got 0"),
            ((True, 2, 1, 2), "indices must be positive integers, got True"),
            ((1, 2, True, 2), "indices must be positive integers, got True"),
            ((False, True, 1, 2), "indices must be positive integers, got False"),
            ((1, 2.5, 1, 2), "indices must be positive integers, got 2.5"),
            ((1, 2, 1, 2.5), "indices must be positive integers, got 2.5"),
            ((2, 2, 1, 2), "need i < s, got i=2, s=2"),
            ((1, 2, 2, 1), "need j < k, got j=2, k=1"),
        ]:
            with pytest.raises(ValueError) as caught:
                laplace_three_term(*args)
            assert str(caught.value) == message
        for term in laplace_three_term(2, 4, 3, 5).terms:
            for index_set in (*term.first, *term.second):
                assert type(index_set) is IndexSet and index_set == IndexSet(tuple(index_set))

    def test_empty_extension_is_identity(self):
        base = laplace_three_term(1, 2, 1, 2)
        assert muir_extend(base, [], []) == base

    def test_extension_shape(self):
        base = laplace_three_term(1, 2, 1, 2)
        ext = muir_extend(base, [4], [3])
        first = ext.terms[0]
        assert first.first == (IndexSet((1, 4)), IndexSet((1, 3)))
        assert first.second == (IndexSet((2, 3, 4)), IndexSet((1, 2, 3)))
        second = ext.terms[1]
        assert second.coefficient == -1
        assert second.first == (IndexSet((2, 4)), IndexSet((1, 3)))
        assert second.second == (IndexSet((1, 3, 4)), IndexSet((1, 2, 3)))
        # P = [2] and Q = [3] fall inside the base's sets, which still come out ascending
        ext = muir_extend(laplace_three_term(1, 3, 2, 4), [2], [3])
        assert ext.terms[0].first == (IndexSet((1, 2)), IndexSet((2, 3)))
        assert ext.terms[0].second == (IndexSet((2, 3, 4)), IndexSet((2, 3, 4)))
        for term in ext.terms:
            for index_set in (*term.first, *term.second):
                assert type(index_set) is IndexSet and index_set == IndexSet(tuple(index_set))

    def test_extended_relation_vanishes_on_random_matrices(self):
        rng = seeded(13)
        base = laplace_three_term(1, 3, 2, 4)
        ext = muir_extend(base, [5], [1])
        for _ in range(20):
            A = random_rational_matrix(rng, 5, 5)
            assert evaluate_identity(ext, A) == 0

    def test_disjointness_violation(self):
        base = laplace_three_term(1, 2, 1, 2)
        unchecked = TermIdentity((MinorTerm(Fraction(1), ((2, 1), (1, 2)), ((), ())),))
        for identity, P, Q, message in [
            (base, [1], [3], "P = IndexSet((1,)) overlaps row set IndexSet((1,))"),
            (base, [4], [2], "Q = IndexSet((2,)) overlaps column set IndexSet((1, 2))"),
            (base, [4, 5], [3], "|P| must equal |Q|: IndexSet((4, 5)), IndexSet((3,))"),
            (base, [5, 4], [3, 4], "indices must be strictly ascending, got (5, 4)"),
            (base, [4], [0], "indices must be positive integers, got 0"),
            (unchecked, [3], [3], "indices must be strictly ascending, got (2, 1)"),
        ]:
            with pytest.raises(ValueError) as caught:
                muir_extend(identity, P, Q)
            assert str(caught.value) == message


def test_selftest_is_clean():
    results = selftest(seed=20260808, instances=40)
    assert set(results) == {
        "laplace_rows",
        "laplace_cols",
        "cauchy_binet",
        "sylvester",
        "muir_extended",
    }
    for entry in results.values():
        assert entry == {"instances": 40, "failures": 0}
