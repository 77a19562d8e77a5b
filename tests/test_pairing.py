import itertools
import logging
import random
from collections import Counter

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
from cubelin import decide_automorphism, druzkowski, invert, is_keller, linalg, poly
from cubelin.druzkowski import expand_map
from cubelin.invert import _decide
from cubelin.linalg import rank
from cubelin.poly import compose, linear_combination
from helpers import (
    PAPER_EXAMPLE_ROWS,
    UNIT_ALPHABET,
    intertwines,
    orbit_member,
    random_scalar_matrix,
    reduced_map,
    reference_lift,
    shear_matrix,
    three_by_three_keller_corpus,
)


def g(text):
    return parse_gaussian(text)


def mat(rows):
    return ScalarMatrix([[g(v) for v in row] for row in rows])


RANK_ONE = [["1", "i"], ["-i", "1"]]


def decided_pair(A: ScalarMatrix):
    """A's reduced pair and G's inverse at its full bound (None if G has none)."""
    pair = gz_reduce(A)
    return pair, _decide(pair.B, pair.C)


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
        assert pair.G == PolyMap.identity(1)

    def test_rank_one_complex(self):
        pair = gz_reduce(mat(RANK_ONE))
        assert pair.r == 1
        assert pair.G == PolyMap.identity(1)  # the cubes cancel through C

    def test_full_rank_identity(self):
        I2 = ScalarMatrix.identity(2)
        pair = gz_reduce(I2)
        assert pair.B == I2 and pair.C == I2
        assert pair.G == expand_map(I2)

    def test_zero_matrix(self):
        pair = gz_reduce(ScalarMatrix([[0] * 3] * 3, 3))
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

    @pytest.mark.parametrize(
        "reduce", [gz_reduce, decide_automorphism], ids=["gz_reduce", "decide_automorphism"]
    )
    def test_corrupted_map_does_not_intertwine(self, paper, monkeypatch, reduce):
        # paper has rank 2, so GZPair does not expand F: the corrupted F
        # reaches only the intertwining check, which both calls run
        def corrupted(A):
            F = expand_map(A)
            return PolyMap([F.components[0] + F.components[1], *F.components[1:]])

        monkeypatch.setattr(invert, "expand_map", corrupted)
        with pytest.raises(RuntimeError, match="does not intertwine"):
            reduce(paper)

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
            gz_reduce(ScalarMatrix([[0] * 3] * 2, 3))


class TestPairConstructor:
    def test_pair_is_derived_from_its_matrix(self, paper):
        # the matrix is the only argument: B, C and G come from it
        pair = GZPair(paper)
        for name in ("B", "C", "G"):
            with pytest.raises(TypeError):
                GZPair(paper, **{name: getattr(pair, name)})
        matrices = [
            ScalarMatrix([entries[:2], entries[2:]])
            for entries in itertools.product(UNIT_ALPHABET, repeat=4)
        ]
        matrices += three_by_three_keller_corpus()
        full_rank = 0
        for A in matrices:
            pair = GZPair(A)
            assert pair.matrix == A
            assert pair.B * pair.C == A
            assert pair.G == reduced_map(pair.B, pair.C)
            if pair.r == A.rows:
                # the full-rank fork builds G by expand_map
                full_rank += 1
                assert pair.G == expand_map(A)
        assert full_rank > 0


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
        pair = gz_reduce(ScalarMatrix([[0] * 3] * 3, 3))
        lifted = lift_inverse(pair, PolyMap([], nvars=0))
        assert lifted == PolyMap.identity(3)

    def test_rejects_wrong_dimension(self, paper):
        pair = gz_reduce(paper)
        with pytest.raises(ValueError, match="dimension 2"):
            lift_inverse(pair, PolyMap.identity(3))

    def test_rejects_non_inverse(self, paper):
        pair = gz_reduce(paper)
        with pytest.raises(ValueError, match="not a verified inverse"):
            lift_inverse(pair, PolyMap.identity(2))

    def test_agrees_with_reference_on_every_invertible_two_by_two(self):
        invertible = 0
        for entries in itertools.product(UNIT_ALPHABET, repeat=4):
            pair, g_inverse = decided_pair(ScalarMatrix([entries[:2], entries[2:]]))
            if g_inverse is None:
                continue
            invertible += 1
            assert lift_inverse(pair, g_inverse) == reference_lift(pair, g_inverse)
        assert invertible == 25  # every Keller map over this alphabet

    def test_agrees_with_reference_on_three_by_three_keller(self):
        for A in three_by_three_keller_corpus():
            pair, g_inverse = decided_pair(A)
            assert lift_inverse(pair, g_inverse) == reference_lift(pair, g_inverse)

    @pytest.mark.parametrize("scale", ["1", "2", "1+i"])
    def test_agrees_with_reference_on_the_paper_example_orbit(self, paper, scale):
        rng = random.Random(f"orbit:{scale}")
        units = UNIT_ALPHABET[1:]
        for _ in range(2):
            s = [g(scale) * rng.choice(units) for _ in range(paper.rows)]
            A = orbit_member(paper, rng.sample(range(paper.rows), paper.rows), s)
            pair, g_inverse = decided_pair(A)
            assert pair.r == 2
            lifted = lift_inverse(pair, g_inverse)
            assert lifted == reference_lift(pair, g_inverse)
            assert lifted.max_degree() == 9

    def test_agrees_with_reference_at_the_widest_packing(self):
        # rank 3, so G^{-1} has degree 9 and G^{-1} o G and the substitution
        # of the degree-27 negated cubes are packed for degree 27
        A = mat([["0", "1", "1", "1"], ["0", "0", "1", "1"], ["0", "0", "0", "1"],
                 ["0", "0", "0", "0"]])
        pair, g_inverse = decided_pair(A)
        assert pair.r == 3 and g_inverse.max_degree() == 9
        lifted = lift_inverse(pair, g_inverse)
        assert lifted == reference_lift(pair, g_inverse)
        assert lifted.max_degree() == 27
        assert sum(len(p.terms) for p in lifted.components) == 137

    def test_agrees_with_reference_on_the_zero_matrix(self):
        pair, g_inverse = decided_pair(ScalarMatrix([[0] * 3] * 3, 3))
        assert pair.r == 0
        assert lift_inverse(pair, g_inverse) == reference_lift(pair, g_inverse)

    def test_agrees_with_reference_on_proportional_and_zero_rows(self):
        # strictly upper triangular, so Keller: row 1 is (2+i) times row 2
        # and row 3 is zero
        A = mat([["0", "0", "2+i"], ["0", "0", "1"], ["0", "0", "0"]])
        pair, g_inverse = decided_pair(A)
        lifted = lift_inverse(pair, g_inverse)
        assert lifted == reference_lift(pair, g_inverse)
        x1, x2, x3 = (Polynomial.variable(3, i) for i in range(3))
        assert lifted == PolyMap([x1 - Polynomial.constant(3, g("2+i") ** 3) * x3.cube(),
                                  x2 - x3.cube(), x3])

    def test_calls_compose_twice(self, paper, monkeypatch):
        # G^{-1} o G, then the one substitution Y = C Z; G o G^{-1} is
        # proved by the check of C F^{-1}, not composed again
        pair, g_inverse = decided_pair(paper)
        real_compose = invert.compose
        calls = []

        def counted(outer, inner, *args):
            calls.append((outer.dimension, inner.nvars))
            return real_compose(outer, inner, *args)

        monkeypatch.setattr(invert, "compose", counted)
        assert lift_inverse(pair, g_inverse) == reference_lift(pair, g_inverse)
        assert calls == [(pair.r, pair.r), (pair.r + pair.n, pair.n)]

    @staticmethod
    def plant_constant(monkeypatch, pair, position):
        # add 1 to one component of the lift's substitution Y = C Z, which
        # carries G^{-1}'s r components and then the n negated cubes
        real_compose = invert.compose

        def corrupted(outer, inner, *args):
            result = real_compose(outer, inner, *args)
            if outer.dimension != pair.r + pair.n:
                return result
            components = list(result.components)
            components[position] = components[position] + Polynomial.one(inner.nvars)
            return PolyMap(components, nvars=result.nvars)

        monkeypatch.setattr(invert, "compose", corrupted)

    def test_rejects_a_corrupted_cube(self, paper, monkeypatch):
        # a constant added to the first negated cube (index r) shifts
        # F^{-1}_1 by e_1, which C does not kill, so C F^{-1} != G^{-1}(C Z)
        pair, g_inverse = decided_pair(paper)
        self.plant_constant(monkeypatch, pair, pair.r)
        with pytest.raises(RuntimeError, match="does not invert F"):
            lift_inverse(pair, g_inverse)

    @pytest.mark.parametrize("position", [0, 1])
    def test_rejects_a_corrupted_g_inverse_side(self, paper, monkeypatch, position):
        # a constant added to a component of G^{-1}(C Z) leaves F^{-1} as
        # it was but breaks the identity it is checked against
        pair, g_inverse = decided_pair(paper)
        assert position < pair.r
        self.plant_constant(monkeypatch, pair, position)
        with pytest.raises(RuntimeError, match="does not invert F"):
            lift_inverse(pair, g_inverse)


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
        report = corollary_pipeline(ScalarMatrix([[0] * 3] * 3, 3))
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
        monkeypatch.setattr(invert, "_decide", lambda B, C: None)
        with caplog.at_level(logging.WARNING, logger="cubelin.invert"):
            report = corollary_pipeline(paper)
        assert report.hypotheses_hold
        assert report.is_anomaly
        assert not report.verified
        assert report.rank == 2 and report.pair is not None
        assert report.g_inverse_degree is None and report.f_inverse is None
        assert "anomaly: reduced map not invertible" in caplog.text

    def test_rank_above_four_is_an_anomaly(self, monkeypatch, caplog):
        # no input reaches this stage either; I5 has rank 5 and a zero-free
        # diagonal, and a planted Keller answer takes it past that gate
        I5 = ScalarMatrix.identity(5)
        monkeypatch.setattr(invert.GZPair, "keller", True)
        with caplog.at_level(logging.WARNING, logger="cubelin.invert"):
            report = corollary_pipeline(I5)
        assert report.hypotheses_hold
        assert report.rank == 5
        assert report.rank_le_4 is False
        assert report.pair is None
        assert report.is_anomaly
        assert "anomaly: rank above four" in caplog.text

    def test_expands_no_map(self, paper, monkeypatch):
        # the lift's checks prove C o F == G o C, so F is never expanded
        calls = []
        for module in (druzkowski, invert):
            original = module.expand_map
            monkeypatch.setattr(
                module, "expand_map", lambda A, _f=original: calls.append(A) or _f(A)
            )
        assert corollary_pipeline(paper).verified
        assert calls == []

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="dimension"):
            corollary_pipeline(ScalarMatrix([[0] * 10] * 10, 10))

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
        payload = corollary_pipeline(ScalarMatrix([[0] * 2] * 2, 2)).to_dict()
        assert payload["diag_nonzero"] is False
        assert payload["rank"] is None
        assert payload["pair"] is None
        assert payload["f_inverse"] is None


class TestViewsOnAPair:
    """Each view answers the same for a GZPair as for its matrix, with the
    pair passed through all of them as the harness passes it."""

    def test_two_by_two(self):
        for picks in itertools.product(UNIT_ALPHABET, repeat=4):
            A = ScalarMatrix([picks[:2], picks[2:]])
            pair = GZPair(A)
            assert is_keller(pair) is is_keller(A)
            assert gz_reduce(pair).to_dict() == gz_reduce(A).to_dict()
            assert decide_automorphism(pair).to_json() == decide_automorphism(A).to_json()
            assert corollary_pipeline(pair).to_json() == corollary_pipeline(A).to_json()


class TestSingleReduction:
    """One pipeline call factors A once; the Keller bit and the rank come
    from that pair, not from is_keller or linalg.rank."""

    @pytest.mark.parametrize(
        "rows, keller",
        [
            (PAPER_EXAMPLE_ROWS, True),
            ([["1", "1", "0"], ["0", "1", "i"], ["1", "0", "1"]], False),
        ],
        ids=["paper-example", "full-rank-non-keller"],
    )
    def test_factors_once(self, rows, keller, monkeypatch):
        A = mat(rows)
        assert rank(A) == (2 if keller else 3)
        calls = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(invert, "rank_factorization")
        # where they live, so a call the pipeline makes to either is counted
        for module in (invert, linalg):
            for name in ("is_keller", "rank"):
                if hasattr(module, name):
                    count(module, name)
        report = corollary_pipeline(A)
        assert calls == {"rank_factorization": 1}
        assert report.keller is keller and report.verified is keller


class TestGatesBeforeChecks:
    """A map that a gate stops pays for no composition: the decision on G
    and the lift run only after the diagonal, Keller and rank gates pass."""

    def test_rank_deficient_non_keller_maps_compose_nothing(self, monkeypatch):
        calls = Counter()
        for module, name in (
            (druzkowski, "expand_map"),
            (invert, "expand_map"),
            (poly, "compose"),
            (invert, "compose"),
        ):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        rng = random.Random(74)
        units = [g(s) for s in ("0", "1", "-1", "i", "-i")]
        maps = 0
        while maps < 20:
            A = ScalarMatrix([[rng.choice(units) for _ in range(3)] for _ in range(3)])
            if rank(A) == 3 or is_keller(A):
                continue
            calls.clear()
            report = corollary_pipeline(A)
            assert not report.keller
            assert calls == {}, A
            maps += 1


def assembled_report(A) -> dict:
    """The pipeline's report built from the public routines, one by one."""
    diag_nonzero = all(A.diagonal())
    keller = is_keller(A)
    report = dict.fromkeys(
        ["n", "diag_nonzero", "keller", "rank", "rank_le_4", "pair",
         "g_inverse_degree", "f_inverse", "verified", "anomaly"]
    )
    report.update(n=A.rows, diag_nonzero=diag_nonzero, keller=keller,
                  verified=False, anomaly=False)
    if not (diag_nonzero and keller):
        return report
    pair = gz_reduce(A)
    decision = decide_automorphism(A)
    assert decision.invertible
    f_inverse = decision.inverse
    # G^{-1}(C Z) = C F^{-1}(Z) and C is onto, so deg G^{-1} = deg C F^{-1}
    g_of_CZ = PolyMap(
        [linear_combination(row, f_inverse.components, A.rows) for row in pair.C.entries],
        nvars=A.rows,
    )
    r = rank(A)
    report.update(
        rank=r,
        rank_le_4=r <= 4,
        pair=pair.to_dict(),
        g_inverse_degree=g_of_CZ.max_degree(),
        f_inverse=[p.to_text() for p in f_inverse.components],
        verified=True,
    )
    return report


def pipeline_checked(A) -> bool:
    """Whether the pipeline verifies A, after checking its report against
    :func:`assembled_report` and, when verified, C o F == G o C: the
    pipeline leaves that identity to its lift, and this is the oracle."""
    report = corollary_pipeline(A)
    assert report.to_dict() == assembled_report(A)
    if report.verified:
        assert intertwines(A, report.pair), A
    return report.verified


class TestPipelineAgainstPublicRoutines:
    def test_all_two_by_two(self):
        verified = sum(
            pipeline_checked(ScalarMatrix([picks[:2], picks[2:]]))
            for picks in itertools.product(UNIT_ALPHABET, repeat=4)
        )
        assert verified == 16  # the Keller maps with a zero-free diagonal

    def test_three_by_three_sample(self):
        rng = random.Random(73)
        units = [g(s) for s in ("0", "1", "-1", "i", "-i")]
        ranks = set()
        for _ in range(40):
            A = ScalarMatrix([[rng.choice(units) for _ in range(3)] for _ in range(3)])
            pipeline_checked(A)
            ranks.add(rank(A))
        assert 3 in ranks and ranks & {1, 2}

    def test_paper_example_and_perturbations(self, paper):
        units = [g(s) for s in ("0", "1", "-1", "i", "-i")]
        assert pipeline_checked(paper)
        for i, j in itertools.product(range(4), repeat=2):
            for value in units:
                if value == paper.entries[i][j]:
                    continue
                rows = [list(row) for row in paper.entries]
                rows[i][j] = value
                pipeline_checked(ScalarMatrix(rows))

    @pytest.mark.parametrize("scale", ["1", "2", "1+i"])
    def test_paper_example_orbit(self, paper, scale):
        rng = random.Random(f"intertwining:{scale}")
        for _ in range(3):
            s = [g(scale) * rng.choice(UNIT_ALPHABET[1:]) for _ in range(paper.rows)]
            assert pipeline_checked(
                orbit_member(paper, rng.sample(range(paper.rows), paper.rows), s)
            )
