import random

import pytest
import sympy

from cubelin import ScalarMatrix, parse_gaussian
from cubelin.linalg import rank, rank_factorization, rref, rref_with_pivots
from helpers import matrix_to_sympy, paper_example, random_scalar_matrix


def g(text):
    return parse_gaussian(text)


def mat(rows):
    return ScalarMatrix([[g(v) for v in row] for row in rows])


class TestRank:
    def test_paper_example_has_rank_two(self, paper):
        assert rank(paper) == 2

    def test_rank_one_hermitian_like(self):
        assert rank(mat([["1", "i"], ["-i", "1"]])) == 1

    def test_identity_and_zero(self):
        assert rank(ScalarMatrix.identity(4)) == 4
        assert rank(ScalarMatrix.zeros(3, 3)) == 0

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(11)
        for _ in range(40):
            M = random_scalar_matrix(rng, rng.randint(1, 4), den=2)
            assert rank(M) == rank(M.transpose())

    def test_product_rank_bound(self):
        rng = random.Random(12)
        for _ in range(30):
            M = random_scalar_matrix(rng, 3)
            N = random_scalar_matrix(rng, 3)
            assert rank(M * N) <= min(rank(M), rank(N))

    def test_against_sympy(self):
        rng = random.Random(13)
        for _ in range(30):
            M = random_scalar_matrix(rng, rng.randint(1, 4), den=3)
            assert rank(M) == matrix_to_sympy(M).rank()


class TestRref:
    def test_paper_example_rows(self, paper):
        R = rref(paper)
        assert R.entries[0] == tuple(g(v) for v in ("1", "i", "0", "1"))
        assert R.entries[1] == tuple(g(v) for v in ("0", "0", "1", "0"))
        assert all(v.is_zero() for v in R.entries[2])
        assert all(v.is_zero() for v in R.entries[3])

    def test_pivots_are_leading_columns(self, paper):
        _, pivots = rref_with_pivots(paper)
        assert pivots == (0, 2)

    def test_identity_fixed(self):
        I3 = ScalarMatrix.identity(3)
        assert rref(I3) == I3

    def test_idempotent(self):
        rng = random.Random(14)
        for _ in range(25):
            M = random_scalar_matrix(rng, rng.randint(1, 4), den=2)
            R = rref(M)
            assert rref(R) == R

    def test_against_sympy(self):
        rng = random.Random(15)
        for _ in range(25):
            M = random_scalar_matrix(rng, rng.randint(1, 4), den=2)
            ours, pivots = rref_with_pivots(M)
            theirs, their_pivots = matrix_to_sympy(M).rref()
            assert pivots == tuple(their_pivots)
            assert matrix_to_sympy(ours) == sympy.simplify(theirs)


class TestRankFactorization:
    def test_paper_example_factors(self, paper):
        B, C = rank_factorization(paper)
        assert B == mat([["1", "1"], ["-i", "-i"], ["-1", "1"], ["-1", "1"]])
        assert C == mat([["1", "i", "0", "1"], ["0", "0", "1", "0"]])

    def test_product_recovers_matrix(self):
        rng = random.Random(16)
        for _ in range(40):
            M = random_scalar_matrix(rng, rng.randint(1, 4), den=2)
            B, C = rank_factorization(M)
            r = rank(M)
            assert B.cols == r and C.rows == r
            assert B * C == M
            assert rank(B) == r and rank(C) == r

    def test_identity_factors_trivially(self):
        I3 = ScalarMatrix.identity(3)
        B, C = rank_factorization(I3)
        assert B == I3 and C == I3

    def test_zero_matrix_keeps_shape(self):
        Z = ScalarMatrix.zeros(3, 3)
        B, C = rank_factorization(Z)
        assert (B.rows, B.cols) == (3, 0)
        assert (C.rows, C.cols) == (0, 3)
        assert B * C == Z


class TestMatrixOps:
    def test_diagonal_tuple(self):
        assert mat([["1", "2"], ["3", "4i"]]).diagonal() == (g("1"), g("4i"))

    def test_transpose_involution(self):
        rng = random.Random(17)
        M = random_scalar_matrix(rng, 3, den=2)
        assert M.transpose().transpose() == M

    def test_arithmetic(self):
        M = mat([["1", "i"], ["0", "2"]])
        N = mat([["1", "0"], ["1", "-1"]])
        assert M + N == mat([["2", "i"], ["1", "1"]])
        assert M - M == ScalarMatrix.zeros(2, 2)
        assert -M == M.scale(g("-1"))
        assert M * ScalarMatrix.identity(2) == M

    def test_product_values(self):
        M = mat([["1", "i"], ["0", "2"]])
        N = mat([["1", "0"], ["1", "-1"]])
        assert M * N == mat([["1+i", "-i"], ["2", "-2"]])

    def test_shape_errors(self):
        M = mat([["1", "2"]])
        with pytest.raises(ValueError):
            M + mat([["1"]])
        with pytest.raises(ValueError):
            M * M
        with pytest.raises(ValueError):
            ScalarMatrix([[g("1")], [g("1"), g("2")]])

    def test_empty_shapes_compose(self):
        B = ScalarMatrix.zeros(3, 0)
        C = ScalarMatrix.zeros(0, 3)
        P = B * C
        assert (P.rows, P.cols) == (3, 3)
        assert P.is_zero()

    def test_hash_and_eq(self):
        M = mat([["1", "i"], ["0", "2"]])
        N = mat([["1", "i"], ["0", "2"]])
        assert M == N and hash(M) == hash(N)
        assert len({M, N}) == 1
