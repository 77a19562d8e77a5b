import json
import random

import pytest

from cubelin import MatrixParseError, ScalarMatrix, builtin_example, parse_matrix
from cubelin.matrixio import builtin_example_names, format_matrix, matrix_entries_text
from helpers import PAPER_EXAMPLE_ROWS, paper_example, random_scalar_matrix


class TestParseMatrix:
    def test_paper_example_text(self):
        M = parse_matrix(json.dumps(PAPER_EXAMPLE_ROWS))
        assert M == paper_example()

    def test_fractions_and_signs(self):
        M = parse_matrix('[["1/2", "-i"], ["0", "-3/4+2i"]]')
        assert M.rows == 2 and M.cols == 2
        assert format_matrix(M) == '[["1/2", "-i"], ["0", "-3/4+2i"]]'

    def test_empty_matrix(self):
        M = parse_matrix("[]")
        assert (M.rows, M.cols) == (0, 0)

    def test_ragged_rows(self):
        with pytest.raises(MatrixParseError, match="row 2 has 1 entries, expected 2"):
            parse_matrix('[["1", "2"], ["3"]]')

    def test_bad_literal_location(self):
        with pytest.raises(MatrixParseError, match="row 2, column 1"):
            parse_matrix('[["1", "2"], ["quux", "3"]]')

    def test_non_string_entry(self):
        with pytest.raises(MatrixParseError, match="string literal"):
            parse_matrix("[[1]]")

    def test_non_array_row(self):
        with pytest.raises(MatrixParseError, match="row 1 is not an array"):
            parse_matrix('["1"]')

    def test_not_json(self):
        with pytest.raises(MatrixParseError, match="not valid JSON"):
            parse_matrix("not json")

    def test_top_level_object(self):
        with pytest.raises(MatrixParseError, match="array of rows"):
            parse_matrix("{}")


class TestFormatMatrix:
    def test_shear_golden(self):
        assert format_matrix(builtin_example("shear-2")) == '[["0", "1"], ["0", "0"]]'

    def test_round_trip(self):
        rng = random.Random(33)
        for _ in range(100):
            M = random_scalar_matrix(rng, rng.randint(1, 4), den=3)
            assert parse_matrix(format_matrix(M)) == M

    def test_entries_text(self):
        assert matrix_entries_text(builtin_example("shear-2")) == [["0", "1"], ["0", "0"]]


class TestBuiltins:
    def test_names_sorted(self):
        assert builtin_example_names() == ["paper-example", "shear-2", "zero-3"]

    def test_paper_example(self):
        assert builtin_example("paper-example") == paper_example()

    def test_zero_three(self):
        assert builtin_example("zero-3") == ScalarMatrix([[0] * 3] * 3, 3)

    def test_unknown_name_lists_options(self):
        with pytest.raises(ValueError, match="paper-example, shear-2, zero-3"):
            builtin_example("nope")
