import random

import pytest
import sympy

from cubelin import ScalarMatrix, parse_gaussian
from cubelin.linalg import rank, rank_factorization
from helpers import (
    matrix_to_sympy,
    paper_example,
    random_gaussian,
    random_scalar_matrix,
    rref_with_pivots,
    transpose,
)


def g(text):
    return parse_gaussian(text)


def mat(rows):
    return ScalarMatrix([[g(v) for v in row] for row in rows])


def random_matrix(rng, rows, cols, den):
    return ScalarMatrix(
        [[random_gaussian(rng, 2, den) for _ in range(cols)] for _ in range(rows)], cols
    )


class TestRank:
    def test_paper_example_has_rank_two(self, paper):
        assert rank(paper) == 2

    def test_rank_one_hermitian_like(self):
        assert rank(mat([["1", "i"], ["-i", "1"]])) == 1

    def test_identity_and_zero(self):
        assert rank(ScalarMatrix.identity(4)) == 4
        assert rank(ScalarMatrix([[0] * 3] * 3, 3)) == 0

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(11)
        for _ in range(40):
            M = random_scalar_matrix(rng, rng.randint(1, 4), den=2)
            assert rank(M) == rank(transpose(M))

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
        # rank scales to Gaussian integers and eliminates on every shape:
        # rows != cols, integral or not, full rank or a product of lower
        # rank, with zero columns where the pivot search must skip ahead
        for k in range(90):
            rows, cols = rng.sample(range(1, 6), 2)
            den = (1, 2, 4)[k % 3]
            if k % 2:
                inner = rng.randint(0, min(rows, cols) - 1)
                M = random_matrix(rng, rows, inner, den) * random_matrix(rng, inner, cols, 1)
            else:
                M = random_matrix(rng, rows, cols, den)
            zero = set(rng.sample(range(cols), rng.randint(0, cols - 1)))
            M = ScalarMatrix(
                [[0 if j in zero else c for j, c in enumerate(row)] for row in M.entries], cols
            )
            assert (M.rows, M.cols) == (rows, cols)
            assert rank(M) == matrix_to_sympy(M).rank()


class TestRref:
    def test_paper_example_rows(self, paper):
        R = rref_with_pivots(paper)[0]
        assert R.entries[0] == tuple(g(v) for v in ("1", "i", "0", "1"))
        assert R.entries[1] == tuple(g(v) for v in ("0", "0", "1", "0"))
        assert not any(R.entries[2])
        assert not any(R.entries[3])

    def test_pivots_are_leading_columns(self, paper):
        _, pivots = rref_with_pivots(paper)
        assert pivots == (0, 2)

    def test_identity_fixed(self):
        I3 = ScalarMatrix.identity(3)
        assert rref_with_pivots(I3)[0] == I3

    def test_idempotent(self):
        rng = random.Random(14)
        for _ in range(25):
            M = random_scalar_matrix(rng, rng.randint(1, 4), den=2)
            R = rref_with_pivots(M)[0]
            assert rref_with_pivots(R)[0] == R

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

    def test_against_rref_oracle(self):
        # shapes from 0 x 0 to 5 x 5, integral or with mixed denominators,
        # full rank or a product of lower rank, with zero rows and columns
        rng = random.Random(18)
        for k in range(300):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            den = (1, 2, 6)[k % 3]
            if k % 2 and rows and cols:
                inner = rng.randint(0, min(rows, cols) - 1)
                M = random_matrix(rng, rows, inner, den) * random_matrix(rng, inner, cols, 3)
            else:
                M = random_matrix(rng, rows, cols, den)
            zero_rows = set(rng.sample(range(rows), rng.randint(0, rows) // 2))
            zero_cols = set(rng.sample(range(cols), rng.randint(0, cols) // 2))
            M = ScalarMatrix(
                [[0 if i in zero_rows or j in zero_cols else c for j, c in enumerate(row)]
                 for i, row in enumerate(M.entries)],
                cols,
            )
            R, pivots = rref_with_pivots(M)
            r = len(pivots)
            B, C = rank_factorization(M)
            assert rank(M) == r
            assert B == ScalarMatrix([[row[j] for j in pivots] for row in M.entries], r)
            assert C == ScalarMatrix(R.entries[:r], cols)
            # C's parts keep the scalars' normal form: int exactly when integral
            for part in (p for row in C.entries for c in row for p in (c.re, c.im)):
                assert (type(part) is int) == (part.denominator == 1)

    def test_zero_matrix_keeps_shape(self):
        Z = ScalarMatrix([[0] * 3] * 3, 3)
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
        assert transpose(transpose(M)) == M
        assert transpose(mat([["1", "2", "i"]])) == mat([["1"], ["2"], ["i"]])

    def test_arithmetic(self):
        M = mat([["1", "i"], ["0", "2"]])
        assert M * ScalarMatrix.identity(2) == M

    def test_product_values(self):
        M = mat([["1", "i"], ["0", "2"]])
        N = mat([["1", "0"], ["1", "-1"]])
        assert M * N == mat([["1+i", "-i"], ["2", "-2"]])

    def test_product_against_sympy(self):
        # random shapes, integral or not, against the textbook product
        rng = random.Random(19)
        for _ in range(60):
            rows, inner, cols = (rng.randint(1, 4) for _ in range(3))
            den = rng.choice([1, 3])
            M, N = random_matrix(rng, rows, inner, den), random_matrix(rng, inner, cols, den)
            product = matrix_to_sympy(M) * matrix_to_sympy(N)
            assert (matrix_to_sympy(M * N) - product).expand().is_zero_matrix

    def test_shape_errors(self):
        M = mat([["1", "2"]])
        with pytest.raises(ValueError):
            M * M
        with pytest.raises(ValueError):
            ScalarMatrix([[g("1")], [g("1"), g("2")]])

    def test_empty_shapes_compose(self):
        B = ScalarMatrix([[]] * 3, 0)
        C = ScalarMatrix([], 3)
        P = B * C
        assert (P.rows, P.cols) == (3, 3)
        assert P.is_zero()

    def test_hash_and_eq(self):
        M = mat([["1", "i"], ["0", "2"]])
        N = mat([["1", "i"], ["0", "2"]])
        assert M == N and hash(M) == hash(N)
        assert len({M, N}) == 1
