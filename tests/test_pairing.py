import logging
import random

import pytest

from cubelin import (
    GZPair,
    PolyMap,
    Polynomial,
    ScalarMatrix,
    corollary_pipeline,
    gz_reduce,
    lift_inverse,
    parse_gaussian,
)
from cubelin import pairing
from cubelin.druzkowski import expand_map, mixed_cubic_map
from cubelin.invert import NOT_INVERTIBLE, InverseResult, _decide
from cubelin.linalg import rank
from cubelin.poly import compose, linear_combination
from helpers import random_scalar_matrix, shear_matrix


def g(text):
    return parse_gaussian(text)


def mat(rows):
    return ScalarMatrix([[g(v) for v in row] for row in rows])


RANK_ONE = [["1", "i"], ["-i", "1"]]


class TestGzReduce:
    def test_paper_example(self, paper):
        pair = gz_reduce(paper)
        assert pair.r == 2
        assert pair.B == mat([["1", "1"], ["-i", "-i"], ["-1", "1"], ["-1", "1"]])
        assert pair.C == mat([["1", "i", "0", "1"], ["0", "0", "1", "0"]])
        y1, y2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        d = y2 - y1
        cubed = d * d * d
        assert pair.G == PolyMap([y1 + cubed, y2 + cubed])

    def test_shear_reduces_to_identity_line(self):
        pair = gz_reduce(shear_matrix())
        assert pair.r == 1
        assert pair.B == mat([["1"], ["0"]])
        assert pair.C == mat([["0", "1"]])
        assert pair.G.is_identity()

    def test_rank_one_complex(self):
        pair = gz_reduce(mat(RANK_ONE))
        assert pair.r == 1
        assert pair.G.is_identity()  # the cubes cancel through C

    def test_full_rank_identity(self):
        I2 = ScalarMatrix.identity(2)
        pair = gz_reduce(I2)
        assert pair.B == I2 and pair.C == I2
        assert pair.G == expand_map(I2)

    def test_zero_matrix(self):
        pair = gz_reduce(ScalarMatrix.zeros(3, 3))
        assert pair.r == 0
        assert pair.G.dimension == 0

    def test_factorization_and_intertwining(self, paper):
        rng = random.Random(71)
        samples = [random_scalar_matrix(rng, rng.randint(1, 4), den=2) for _ in range(30)]
        samples.append(paper)
        for A in samples:
            pair = gz_reduce(A)
            n = A.rows
            assert pair.B * pair.C == A
            assert pair.r == rank(A)
            F = expand_map(A)
            projection = pair.projection()
            # C o F computed straight from the linear rows, no shortcuts
            left = PolyMap(
                [
                    linear_combination(pair.C.entries[i], F.components, n)
                    for i in range(pair.r)
                ],
                nvars=n,
            )
            right = compose(pair.G, projection)
            assert left == right

    def test_dimension_economy(self):
        rng = random.Random(72)
        for _ in range(20):
            A = random_scalar_matrix(rng, rng.randint(1, 4))
            pair = gz_reduce(A)
            assert pair.r <= pair.n
            assert pair.G.dimension == pair.r

    def test_to_dict_shape(self, paper):
        payload = gz_reduce(paper).to_dict()
        assert list(payload) == ["r", "B", "C", "G"]
        assert payload["r"] == 2
        assert payload["B"] == [["1", "1"], ["-i", "-i"], ["-1", "1"], ["-1", "1"]]
        assert payload["C"] == [["1", "i", "0", "1"], ["0", "0", "1", "0"]]
        assert payload["G"] == [
            "-x1^3+3x1^2x2-3x1x2^2+x2^3+x1",
            "-x1^3+3x1^2x2-3x1x2^2+x2^3+x2",
        ]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            gz_reduce(ScalarMatrix.zeros(2, 3))


class TestLiftInverse:
    def test_paper_example(self, paper, paper_decision):
        pair = gz_reduce(paper)
        z1, z2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        d = z2 - z1
        cubed = d * d * d
        g_inverse = PolyMap([z1 - cubed, z2 - cubed])
        lifted = lift_inverse(pair, g_inverse)
        # independent of the direct decision procedure, same inverse
        assert lifted == paper_decision.inverse
        assert lifted.max_degree() == 9

    def test_shear(self):
        pair = gz_reduce(shear_matrix())
        lifted = lift_inverse(pair, PolyMap.identity(1))
        assert [p.to_text() for p in lifted.components] == ["-x2^3+x1", "x2"]

    def test_degree_growth_bound(self, paper, paper_decision):
        pair = gz_reduce(paper)
        z1, z2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        d = z2 - z1
        cubed = d * d * d
        g_inverse = PolyMap([z1 - cubed, z2 - cubed])
        lifted = lift_inverse(pair, g_inverse)
        assert lifted.max_degree() <= 3 * g_inverse.max_degree()

    def test_zero_matrix_lifts_empty_inverse(self):
        pair = gz_reduce(ScalarMatrix.zeros(3, 3))
        lifted = lift_inverse(pair, PolyMap([], nvars=0))
        assert lifted.is_identity()

    def test_rejects_wrong_dimension(self, paper):
        pair = gz_reduce(paper)
        with pytest.raises(ValueError, match="dimension 2"):
            lift_inverse(pair, PolyMap.identity(3))

    def test_rejects_non_inverse(self, paper):
        pair = gz_reduce(paper)
        with pytest.raises(ValueError, match="not a verified inverse"):
            lift_inverse(pair, PolyMap.identity(2))

    def test_rejects_a_lift_that_does_not_invert_f(self, paper):
        # B scaled by 2, with G and its verified inverse made for that B:
        # the reduced map checks out, but 2 B C != A, so only the check of
        # F o F^{-1} can catch the lift
        pair = gz_reduce(paper)
        B = pair.B.scale(g("2"))
        scaled = GZPair(matrix=paper, B=B, C=pair.C, G=mixed_cubic_map(B, pair.C))
        g_inverse = _decide(B, pair.C, 3).inverse
        assert compose(scaled.G, g_inverse) == PolyMap.identity(2)
        with pytest.raises(RuntimeError, match="does not invert F"):
            lift_inverse(scaled, g_inverse)


class TestCorollaryPipeline:
    def test_paper_example(self, paper, paper_decision):
        report = corollary_pipeline(paper)
        assert report.verified
        assert not report.is_anomaly
        assert report.n == 4
        assert report.diag_nonzero and report.keller
        assert report.rank == 2 and report.rank_le_4
        assert report.pair is not None
        assert report.g_inverse_degree == 3
        assert report.f_inverse_degree == 9
        assert report.f_inverse == paper_decision.inverse

    def test_rank_one_complex(self):
        report = corollary_pipeline(mat(RANK_ONE))
        assert report.verified
        assert report.rank == 1
        assert report.g_inverse_degree == 1
        assert report.f_inverse_degree == 3

    def test_zero_diagonal_gate(self):
        report = corollary_pipeline(ScalarMatrix.zeros(3, 3))
        assert not report.diag_nonzero
        assert not report.verified
        assert not report.is_anomaly
        assert report.rank is None and report.pair is None

    def test_shear_gate(self):
        report = corollary_pipeline(shear_matrix())
        assert not report.diag_nonzero
        assert not report.verified
        assert not report.is_anomaly

    def test_keller_gate(self):
        report = corollary_pipeline(ScalarMatrix.identity(2))
        assert report.diag_nonzero
        assert not report.keller
        assert not report.hypotheses_hold
        assert not report.verified
        assert not report.is_anomaly

    def test_reduced_map_not_invertible_is_an_anomaly(self, paper, monkeypatch, caplog):
        # no input reaches this stage; a planted failure of G's decision does
        def planted(A):
            return gz_reduce(A), InverseResult(NOT_INVERTIBLE, 3), None

        monkeypatch.setattr(pairing, "_invert_by_reduction", planted)
        with caplog.at_level(logging.WARNING, logger="cubelin.pairing"):
            report = corollary_pipeline(paper)
        assert report.hypotheses_hold
        assert report.is_anomaly
        assert not report.verified
        assert report.rank == 2 and report.pair is not None
        assert report.g_inverse_degree is None and report.f_inverse is None
        assert "anomaly: reduced map not invertible" in caplog.text

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="dimension"):
            corollary_pipeline(ScalarMatrix.zeros(10, 10))

    def test_to_dict_field_order(self, paper):
        payload = corollary_pipeline(paper).to_dict()
        assert list(payload) == [
            "n",
            "diag_nonzero",
            "keller",
            "rank",
            "rank_le_4",
            "pair",
            "g_inverse_degree",
            "f_inverse",
            "verified",
            "anomaly",
        ]
        assert payload["anomaly"] is False
        assert payload["pair"]["r"] == 2
        assert len(payload["f_inverse"]) == 4

    def test_gated_report_serializes(self):
        payload = corollary_pipeline(ScalarMatrix.zeros(2, 2)).to_dict()
        assert payload["diag_nonzero"] is False
        assert payload["rank"] is None
        assert payload["pair"] is None
        assert payload["f_inverse"] is None
