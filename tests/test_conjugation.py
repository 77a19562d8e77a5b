"""The route over Z[i]: a non-integral A is decided on L^2 A.

``GZPair`` runs the Keller test, the decision, the lift and the
intertwining check on the pair of L^2 A, for L the lcm of the denominators
of A's parts, which makes it a Gaussian-integer matrix, and rescales each
inverse back; B, C and G it builds from A's own factors.
``helpers.DirectPair`` runs the same route on A itself over Q(i), and is
the oracle: every view must give the same bytes on both.
"""

import itertools
import math
import random

import pytest

from cubelin import (
    GZPair,
    ScalarMatrix,
    corollary_pipeline,
    decide_automorphism,
    gz_reduce,
    invert,
    is_keller,
    parse_gaussian,
)
from cubelin.linalg import rank_factorization
from helpers import UNIT_ALPHABET, DirectPair, orbit_member


def g(text):
    return parse_gaussian(text)


def scaled(A, c):
    return ScalarMatrix([[c * x for x in row] for row in A.entries], A.cols)


def entries(A):
    return [c for row in A.entries for c in row]


def lcm_of_denominators(A):
    return math.lcm(*(part.denominator for c in entries(A) for part in (c.re, c.im)))


SCALES = [g(s) for s in ("1/2", "-1/2i", "1/3", "2/5+1/5i")]
RATIONAL_ALPHABET = [g(s) for s in ("0", "1/2", "-1/3+i", "2i")]


def two_by_two_scaled():
    """All 625 matrices over {0, +-1, +-i}, each times every scale."""
    for picks in itertools.product(UNIT_ALPHABET, repeat=4):
        A = ScalarMatrix([picks[:2], picks[2:]])
        for c in SCALES:
            yield scaled(A, c)


def paper_orbit_members(paper):
    rng = random.Random("conjugation")
    members = []
    for c in ("2", "1+i", "3"):
        for _ in range(2):
            s = [g(c) * rng.choice(UNIT_ALPHABET[1:]) for _ in range(paper.rows)]
            members.append(orbit_member(paper, rng.sample(range(paper.rows), paper.rows), s))
    return members


def rational_three_by_three():
    """A seeded n=3 sample over {0, 1/2, -1/3+i, 2i}, plus strictly upper
    triangular matrices over it, which are Keller and invertible."""
    rng = random.Random(27)
    sample = [
        ScalarMatrix([[rng.choice(RATIONAL_ALPHABET) for _ in range(3)] for _ in range(3)])
        for _ in range(40)
    ]
    zero = RATIONAL_ALPHABET[0]
    for _ in range(8):
        a, b, c = (rng.choice(RATIONAL_ALPHABET[1:]) for _ in range(3))
        sample.append(ScalarMatrix([[zero, a, b], [zero, zero, c], [zero, zero, zero]]))
    return sample


def views(pair) -> tuple:
    return (
        decide_automorphism(pair).to_json(),
        decide_automorphism(pair, 1).to_json(),
        decide_automorphism(pair, 3).to_json(),
        corollary_pipeline(pair).to_json(),
        gz_reduce(pair).to_dict(),
        is_keller(pair),
    )


def assert_routes_agree(matrices) -> int:
    """Every view equal on the conjugated and the direct route; returns the
    number of invertible maps, so no corpus can pass vacuously."""
    invertible = 0
    for A in matrices:
        route = GZPair(A)
        assert views(route) == views(DirectPair(A)), A
        invertible += route.f_inverse is not None
    return invertible


class TestAgainstTheDirectRoute:
    def test_two_by_two_enumeration_scaled(self):
        matrices = list(two_by_two_scaled())
        assert len(matrices) == 2500
        assert assert_routes_agree(matrices) == 100

    def test_paper_example_orbit(self, paper):
        members = paper_orbit_members(paper)
        assert {str(GZPair(M).scale) for M in members} == {"4", "2", "9"}
        assert assert_routes_agree(members) == len(members)

    @pytest.mark.parametrize("c", ["1/8", "1/9", "1/25", "2/5+1/5i", "1/6"])
    def test_paper_example_scaled(self, paper, c):
        # a smaller lambda in Z[i] would clear these too (1/8: L = 8, where
        # (1+i)^3, of norm 8, would do), so L itself is tested here
        A = scaled(paper, g(c))
        assert views(GZPair(A)) == views(DirectPair(A))
        assert GZPair(A).f_inverse is not None

    def test_corollary_rescales_no_g_inverse(self, paper, monkeypatch):
        # a rescale keeps every monomial, so the corollary reads the degree
        # of G^{-1} on the conjugate, and G is built from A's own factors:
        # one rescale, for F^{-1}
        calls = []
        rescale = invert._rescale
        monkeypatch.setattr(invert, "_rescale", lambda H, s: calls.append(s) or rescale(H, s))
        A = paper_orbit_members(paper)[0]
        report = corollary_pipeline(A)
        assert calls == [4]
        assert report.verified
        assert report.g_inverse_degree == report.pair.g_inverse.max_degree()

    @pytest.mark.parametrize(
        "view, rescales",
        [(is_keller, 0), (decide_automorphism, 1), (corollary_pipeline, 1)],
        ids=["is_keller", "decide_automorphism", "corollary_pipeline"],
    )
    def test_rescales_per_view(self, paper, monkeypatch, view, rescales):
        # only an inverse is rescaled: the Keller test reads the conjugate's
        # G, and no view rescales a G that it does not print
        calls = []
        rescale = invert._rescale
        monkeypatch.setattr(invert, "_rescale", lambda H, s: calls.append(s) or rescale(H, s))
        view(paper_orbit_members(paper)[0])
        assert calls == [4] * rescales

    def test_rational_three_by_three_sample(self):
        assert assert_routes_agree(rational_three_by_three()) >= 8

    def test_views_from_the_matrix(self, paper):
        # a view given the matrix builds the same pair as one given the pair
        for A in paper_orbit_members(paper)[:2] + rational_three_by_three()[-2:]:
            direct = DirectPair(A)
            assert decide_automorphism(A).to_json() == decide_automorphism(direct).to_json()
            assert corollary_pipeline(A).to_json() == corollary_pipeline(direct).to_json()
            assert gz_reduce(A).to_dict() == gz_reduce(direct).to_dict()
            assert is_keller(A) == is_keller(direct)

    def test_large_prime_denominators(self, paper):
        # L is the denominator itself, with no factoring
        for p in (2**61 - 1, 10**12 + 39, 1031**2):
            A = scaled(paper, g(f"1/{p}"))
            assert GZPair(A).scale == p
            assert views(GZPair(A)) == views(DirectPair(A))


class TestConjugatingScale:
    """``GZPair(A).scale`` is the int L, the lcm of the denominators of A's
    parts: L A is over Z[i], so L^2 A is too."""

    def corpus(self, paper):
        sample = list(two_by_two_scaled())[::7]
        return sample + paper_orbit_members(paper) + rational_three_by_three()

    def test_one_exactly_for_gaussian_integers(self, paper):
        units = itertools.product(UNIT_ALPHABET, repeat=4)
        matrices = self.corpus(paper) + [ScalarMatrix([p[:2], p[2:]]) for p in units]
        for A in matrices:
            integral = all(c.is_gaussian_integer() for c in entries(A))
            scale = GZPair(A).scale
            assert type(scale) is int
            assert (scale == 1) == integral, A
            assert scale == lcm_of_denominators(A), A

    def test_square_clears_every_denominator(self, paper):
        for A in self.corpus(paper):
            square = GZPair(A).scale ** 2
            assert all((square * c).is_gaussian_integer() for c in entries(A)), A

    @pytest.mark.parametrize(
        "values, lcm",
        [
            (["1/2"], 2),
            (["1/4"], 4),
            (["1/8"], 8),
            (["-1/2i", "1/2"], 2),
            (["1/3"], 3),
            (["1/9"], 9),
            (["1/5"], 5),
            (["2/5+1/5i"], 5),
            (["1/25"], 25),
            (["3/13+2/13i", "1/2"], 26),
            (["1/2", "1/3", "2i"], 6),
        ],
    )
    def test_lcm_of_denominators(self, values, lcm):
        values = [g(v) for v in values]
        A = ScalarMatrix([[values[i] if i == j else g("0") for j in range(len(values))]
                          for i in range(len(values))])
        assert GZPair(A).scale == lcm

    def test_conjugate_factors(self, paper):
        # L^2 A keeps A's pivots and reduced echelon form
        for A in self.corpus(paper):
            square = GZPair(A).scale ** 2
            B, C = rank_factorization(A)
            assert rank_factorization(scaled(A, square)) == (scaled(B, square), C), A

    def test_pair_holds_its_conjugate(self, paper):
        for A in self.corpus(paper):
            pair = GZPair(A)
            scale = pair.scale
            conjugate = pair.conjugate
            if scale == 1:
                assert conjugate is pair
                continue
            assert conjugate.matrix == scaled(A, scale * scale)
            assert all(c.is_gaussian_integer() for c in entries(conjugate.matrix))
            assert conjugate.conjugate is conjugate
            assert (pair.B, pair.C) == rank_factorization(A)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_empty_and_zero_matrices(self, n):
        Z = ScalarMatrix([[0] * n for _ in range(n)], n)
        pair = GZPair(Z)
        assert pair.scale == 1
        assert pair.conjugate is pair
        assert views(pair) == views(DirectPair(Z))
