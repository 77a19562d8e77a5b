import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cubelin import RankBoundCertificate, cli, parse_matrix
from cubelin.cli import main
from cubelin.harness import CHECK_NAMES
from cubelin.invert import NOT_INVERTIBLE, InverseResult
from helpers import NON_KELLER_4X4_ROWS, PAPER_EXAMPLE_ROWS, count_keller_bits


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_paper_example_json(self, capsys):
        code, out, _ = run(capsys, "verify", "paper-example", "--json")
        assert code == 0
        assert json.loads(out) == {
            "trace_condition_holds": True,
            "delta": 0,
            "rank": 2,
            "bound_times_two": 4,
            "theorem_satisfied": True,
        }

    def test_paper_example_human(self, capsys):
        code, out, _ = run(capsys, "verify", "paper-example")
        assert code == 0
        assert "trace_condition_holds: true" in out
        assert "rank: 2" in out
        assert "theorem_satisfied: true" in out

    def test_inline_matrix(self, capsys):
        code, out, _ = run(capsys, "verify", '[["0", "1"], ["1", "0"]]', "--json")
        assert code == 0
        assert json.loads(out)["delta"] == 2

    def test_matrix_from_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(PAPER_EXAMPLE_ROWS))
        code, out, _ = run(capsys, "verify", str(path), "--json")
        assert code == 0
        assert json.loads(out)["rank"] == 2

    def test_violation_exits_two(self, capsys, monkeypatch):
        # no alphabet matrix violates the bound, so fake one to pin the wiring
        import cubelin.cli as cli_module

        def fake(matrix):
            return RankBoundCertificate(n=2, trace_condition_holds=True, delta=0, rank=2)

        monkeypatch.setattr(cli_module, "rank_bound_certificate", fake)
        code, out, _ = run(capsys, "verify", "shear-2", "--json")
        assert code == 2
        assert json.loads(out)["theorem_satisfied"] is False


class TestInvert:
    def test_shear(self, capsys):
        code, out, _ = run(capsys, "invert", "shear-2")
        assert code == 0
        assert "status: Invertible" in out
        assert "inverse[1] = -x2^3+x1" in out
        assert "inverse[2] = x2" in out

    def test_zero_matrix_gives_identity(self, capsys):
        code, out, _ = run(capsys, "invert", "zero-3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Invertible"
        assert payload["inverse"] == ["x1", "x2", "x3"]

    def test_non_keller_is_clean(self, capsys):
        code, out, _ = run(capsys, "invert", '[["1"]]', "--json")
        assert code == 0
        assert json.loads(out)["status"] == "NotInvertible"

    def test_full_rank_non_keller_answers_quickly(self, capsys):
        started = time.perf_counter()
        code, out, _ = run(capsys, "invert", json.dumps(NON_KELLER_4X4_ROWS), "--json")
        assert time.perf_counter() - started < 1.0
        assert code == 0
        assert json.loads(out)["status"] == "NotInvertible"

    @pytest.mark.parametrize("flag", [(), ("--json",)])
    def test_exit_code_reuses_the_decisions_keller_test(self, capsys, monkeypatch, flag):
        # NotInvertible exits 2 only for a Keller map, and the decision has
        # already tested that; no second test runs for the exit code
        calls = count_keller_bits(monkeypatch)
        code, out, _ = run(capsys, "invert", json.dumps(NON_KELLER_4X4_ROWS), *flag)
        assert code == 0
        assert "NotInvertible" in out
        assert len(calls) == 1

    def test_degree_bound_flag(self, capsys):
        code, out, _ = run(
            capsys, "invert", "shear-2", "--degree-bound", "5", "--json"
        )
        assert code == 0
        assert json.loads(out)["degree_bound_used"] == 5

    def test_too_small_bound_is_not_an_anomaly(self, capsys):
        # a too-small bound proves nothing about a Keller map, so it exits 0
        code, out, _ = run(
            capsys, "invert", "shear-2", "--degree-bound", "1", "--json"
        )
        assert code == 0
        assert json.loads(out)["status"] == "NoInverseWithinBound"

    def test_keller_inversion_failure_exits_two(self, capsys, monkeypatch):
        # no Keller map is known to be NotInvertible; stand one in for shear-2
        refused = InverseResult(status=NOT_INVERTIBLE, degree_bound_used=3, keller=True)
        monkeypatch.setattr(cli, "decide_automorphism", lambda *a, **k: refused)
        code, out, _ = run(capsys, "invert", "shear-2", "--json")
        assert code == 2
        assert json.loads(out)["status"] == "NotInvertible"


QUARTER_PAPER_EXAMPLE = json.dumps([
    ["1/4", "1/4i", "1/4", "1/4"], ["-1/4i", "1/4", "-1/4i", "-1/4i"],
    ["-1/4", "-1/4i", "1/4", "-1/4"], ["-1/4", "-1/4i", "1/4", "-1/4"],
])
TRIANGULAR_4X4 = json.dumps([["0", "1", "1", "1"], ["0", "0", "1", "1"], ["0", "0", "0", "1"],
                             ["0", "0", "0", "0"]])
RANK_ONE_NON_KELLER = json.dumps([["1/2", "-1/3+i"], ["1/2", "-1/3+i"]])
RANK_ONE_KELLER = json.dumps([["1/2", "-1/16"], ["1", "-1/8"]])


# CI's sampled Keller searches with every check, at n = 3 and n = 4
KELLER_SEARCH = {"n": 3, "alphabet": ["0", "1", "-1", "i", "-i"], "mode": "sample",
                 "count": 200, "seed": 6, "filters": ["keller_only"],
                 "checks": ["rank_bound", "invert", "corollary"]}
KELLER4_SEARCH = {**KELLER_SEARCH, "n": 4, "count": 100}


class TestPinnedOutput:
    """sha256 of the ``--json`` output, recorded before compositions kept
    their power products packed: F^{-1}'s text must not change with the
    route that computes it.  The triangular map's inverse has degree 27,
    the widest packing the lift reaches.  The non-integral cases, recorded
    while G was still the conjugate's G rescaled, pin the G that a pair
    builds from its own B and C: the rank-1 maps' C = (1, -2/3+2i) and
    C = (1, -1/8) have denominators."""

    @pytest.mark.parametrize("argv, digest", [
        (("invert", "paper-example"),
         "9e2be5ae0aff77d8743bb9abb7324435855fcc4735834c398cfcf5742f0445b6"),
        (("corollary", "paper-example"),
         "8c0622503d7009258e22f349f2bc2dbcad43bcb0a25ca205977d2a2b622b8663"),
        (("invert", QUARTER_PAPER_EXAMPLE),
         "ef2a712c333ed52e6372888421ed572bc0fd23830648e60f2217aad987f1c04c"),
        (("invert", TRIANGULAR_4X4),
         "e43e30cfe0dac3eb8e6812d93fefa015355255d7edc3ca810629800fe79ee7c6"),
        (("reduce", QUARTER_PAPER_EXAMPLE),
         "f97be65c21e3b54d8f56c2d911c06e0241e96b3b872bd4ccd59189f5a61c3d51"),
        (("corollary", QUARTER_PAPER_EXAMPLE),
         "23a13a5e892cdbb38b5d8752060b9ff9bb5fb8ba9a2977aa7003d909203c67bc"),
        (("reduce", RANK_ONE_NON_KELLER),
         "943d7b26665392376162ad75eeadf6aad025fd01a69cb75b183d25d8f569970f"),
        (("corollary", RANK_ONE_KELLER),
         "3efaab2aac5087419d56b0b05d0c4ad7d781492ac4fd1de53f4a0c1f552ead2f"),
        (("invert", RANK_ONE_KELLER),
         "c1efde241371e82fdd053af6bbcfec51e6be23d52b01b7810e66c511fceca40a"),
    ], ids=["invert-paper", "corollary-paper", "invert-quarter", "invert-triangular",
            "reduce-quarter", "corollary-quarter", "reduce-rank-one", "corollary-rank-one",
            "invert-rank-one"])
    def test_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("config, digest", [
        (KELLER_SEARCH, "e3769eeddaff62a8afe619000fa09afcaff65eefe5262145e227131ed7ef83d3"),
        (KELLER4_SEARCH, "824f963af8b4f764d539958a1c14f4e3f59dcf0a4d51224b2b59198d1a13ffd5"),
    ], ids=["keller", "keller4"])
    def test_keller_search_digest(self, capsys, tmp_path, config, digest):
        # the Keller route end to end: the records' Keller bits, inverses and
        # corollaries, recorded before polynomials kept their terms packed;
        # the summary's run time, the one field that varies, is cut
        path = tmp_path / "search.json"
        path.write_text(json.dumps(config))
        code, out, _ = run(capsys, "search", str(path), "--json", "--records")
        assert code == 0
        body = re.sub(r', "duration_seconds": [^,}]*}$', "}", out, flags=re.M)
        assert hashlib.sha256(body.encode()).hexdigest() == digest


class TestReduce:
    def test_paper_example_json(self, capsys):
        code, out, _ = run(capsys, "reduce", "paper-example", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["r"] == 2
        assert payload["B"] == [["1", "1"], ["-i", "-i"], ["-1", "1"], ["-1", "1"]]
        assert payload["C"] == [["1", "i", "0", "1"], ["0", "0", "1", "0"]]

    def test_paper_example_human(self, capsys):
        code, out, _ = run(capsys, "reduce", "paper-example")
        assert code == 0
        assert "r: 2" in out
        assert "G[1] = -x1^3+3x1^2x2-3x1x2^2+x2^3+x1" in out


class TestCorollary:
    def test_paper_example(self, capsys):
        code, out, _ = run(capsys, "corollary", "paper-example", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["anomaly"] is False
        assert payload["g_inverse_degree"] == 3
        assert len(payload["f_inverse"]) == 4

    def test_gated_zero_matrix(self, capsys):
        code, out, _ = run(capsys, "corollary", "zero-3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["diag_nonzero"] is False
        assert payload["verified"] is False
        assert payload["anomaly"] is False

    def test_human_output_lists_components(self, capsys):
        code, out, _ = run(capsys, "corollary", "paper-example")
        assert code == 0
        assert "verified: true" in out
        assert "G[1] =" in out
        assert "inverse[1] =" in out
        assert "f_inverse:" not in out


class TestSearch:
    def write_config(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_summary_json(self, capsys, tmp_path):
        path = self.write_config(
            tmp_path,
            {
                "n": 2,
                "alphabet": ["0", "1"],
                "mode": "enumerate",
                "checks": ["rank_bound"],
            },
        )
        code, out, _ = run(capsys, "search", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["totals"]["visited"] == 16
        assert payload["totals"]["rank_bound"] == {"checked": 16, "anomalies": 0}
        assert payload["anomalies"] == []

    def test_human_summary(self, capsys, tmp_path):
        path = self.write_config(
            tmp_path,
            {
                "n": 2,
                "alphabet": ["0", "1"],
                "mode": "enumerate",
                "filters": ["keller_only"],
                "checks": ["corollary", "invert", "rank_bound"],
            },
        )
        code, out, _ = run(capsys, "search", path)
        assert code == 0
        assert "visited: 16" in out
        assert "passed_filters: 3" in out
        # one line per check, in the order of the report's totals
        assert [line for line in out.splitlines() if line.split(":")[0] in CHECK_NAMES] == [
            "rank_bound: checked=3, anomalies=0",
            "invert: checked=3, keller=3, invertible=3, failures=0",
            "corollary: checked=3, applicable=0, verified=0, anomalies=0",
        ]
        assert "anomalies: 0" in out

    def test_records_stream(self, capsys, tmp_path):
        path = self.write_config(
            tmp_path,
            {
                "n": 2,
                "alphabet": ["0", "1"],
                "mode": "enumerate",
                "checks": ["rank_bound"],
            },
        )
        code, out, _ = run(capsys, "search", path, "--records", "--json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 17
        for index, line in enumerate(lines[:-1]):
            record = json.loads(line)
            assert record["index"] == index
            assert record["anomaly"] is False
        summary = json.loads(lines[-1])
        assert summary["totals"]["visited"] == 16

    def test_worker_counts_agree(self, capsys, tmp_path):
        path = self.write_config(
            tmp_path,
            {
                "n": 3,
                "alphabet": ["0", "1", "-1", "i", "-i"],
                "mode": "sample",
                "count": 200,
                "seed": 9,
                "checks": ["rank_bound"],
            },
        )

        def stripped(raw):
            lines = raw.strip().splitlines()
            summary = json.loads(lines[-1])
            summary.pop("duration_seconds")
            return lines[:-1], summary

        code_a, out_a, _ = run(capsys, "search", path, "--records", "--json")
        code_b, out_b, _ = run(
            capsys, "search", path, "--records", "--json", "--workers", "4"
        )
        assert code_a == code_b == 0
        assert stripped(out_a) == stripped(out_b)

    def test_ceiling_refusal(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CUBELIN_CEILING", "10")
        path = self.write_config(
            tmp_path, {"n": 2, "alphabet": ["0", "1"], "mode": "enumerate"}
        )
        code, _, err = run(capsys, "search", path)
        assert code == 1
        assert "ceiling" in err

    def test_huge_enumeration_refused_quickly(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("CUBELIN_CEILING", raising=False)
        path = self.write_config(
            tmp_path, {"n": 100, "alphabet": ["0", "1", "i"], "mode": "enumerate"}
        )
        started = time.perf_counter()
        code, _, err = run(capsys, "search", path)
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert "ceiling" in err

    def test_bad_config_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "search", str(path))
        assert code == 1
        assert "error:" in err

    def test_malformed_config_is_an_error_line(self, tmp_path):
        # run as a process, so an uncaught exception would show its traceback
        base = {"n": 2, "alphabet": ["0"], "mode": "enumerate"}
        package_root = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(package_root)}
        for data in (
            5,
            {**base, "filters": 5},
            {**base, "filters": "keller_only"},
            {**base, "checks": None},
            {**base, "checks": [["x"]]},
        ):
            path = self.write_config(tmp_path, data)
            done = subprocess.run(
                [sys.executable, "-m", "cubelin.cli", "search", path],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == 1, done.stderr
            assert done.stderr.startswith("error:"), done.stderr
            assert "Traceback" not in done.stderr

    def test_reader_closing_the_pipe_early_exits_one_quietly(self, tmp_path):
        # about 500 KB of records, far more than a pipe buffers, so the
        # writer is still printing when the reader goes away
        path = self.write_config(tmp_path, {
            "n": 3, "alphabet": ["0", "1", "-1", "i", "-i"], "mode": "sample",
            "count": 2000, "seed": 5, "checks": ["rank_bound"],
        })
        package_root = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(package_root)}
        with subprocess.Popen(
            [sys.executable, "-m", "cubelin.cli", "search", path, "--json", "--records"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as process:
            assert len(process.stdout.read(100)) == 100
            process.stdout.close()
            err = process.stderr.read().decode()
            assert process.wait(timeout=60) == 1, err
        assert err == ""

    def test_unknown_config_key(self, capsys, tmp_path):
        path = self.write_config(
            tmp_path,
            {"n": 2, "alphabet": ["0"], "mode": "enumerate", "bogus": 1},
        )
        code, _, err = run(capsys, "search", str(path))
        assert code == 1
        assert "unknown search config keys" in err

    def test_boolean_config_value(self, capsys, tmp_path):
        path = self.write_config(
            tmp_path, {"n": True, "alphabet": ["0", "1"], "mode": "enumerate"}
        )
        code, out, err = run(capsys, "search", path, "--json")
        assert code == 1
        assert out == ""
        assert "n must be an integer, not a boolean" in err

    def test_internal_check_failure_names_the_candidate(
        self, capsys, tmp_path, monkeypatch
    ):
        import cubelin.harness as harness_module

        path = self.write_config(
            tmp_path,
            {"n": 2, "alphabet": ["0", "1"], "mode": "enumerate", "checks": ["invert"]},
        )
        # candidate 6, which meets the trace condition, so is_keller runs on it
        target = parse_matrix('[["0", "1"], ["1", "0"]]')
        real = harness_module.is_keller

        def planted(pair):
            if pair.matrix == target:
                raise RuntimeError("internal check failed: planted")
            return real(pair)

        monkeypatch.setattr(harness_module, "is_keller", planted)
        code, out, err = run(capsys, "search", path, "--json")
        assert code == 2
        assert out == ""
        assert err == "error: candidate 6: internal check failed: planted\n"

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "search", str(tmp_path / "nope.json"))
        assert code == 1
        assert "cannot read config file" in err


class TestExample:
    def test_shear(self, capsys):
        code, out, _ = run(capsys, "example", "shear-2")
        assert code == 0
        assert out.strip() == '[["0", "1"], ["0", "0"]]'

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "example", "mystery")
        assert code == 1
        assert "paper-example, shear-2, zero-3" in err


class TestUsage:
    def test_no_arguments(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_bad_matrix_literal(self, capsys):
        code, _, err = run(capsys, "verify", '[["wat"]]')
        assert code == 1
        assert "row 1, column 1" in err

    def test_non_ascii_digit_literal(self, capsys):
        code, out, err = run(capsys, "verify", '[["\u0663"]]')
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "row 1, column 1" in err

    def test_deeply_nested_json_is_an_error_line(self, tmp_path):
        # json.loads raises RecursionError here; run as a process, so an
        # uncaught exception would show its traceback
        deep = "[" * 100_000
        matrix_file = tmp_path / "deep.json"
        matrix_file.write_text(deep)
        config_file = tmp_path / "deep-config.json"
        config_file.write_text(deep)
        package_root = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(package_root)}
        for argv in (
            ["verify", deep], ["verify", str(matrix_file)], ["search", str(config_file)],
        ):
            done = subprocess.run(
                [sys.executable, "-m", "cubelin.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == 1, done.stderr
            assert done.stderr.startswith("error:"), done.stderr
            assert "Traceback" not in done.stderr

    def test_missing_matrix_file(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-file.json")
        assert code == 1
        assert "cannot read matrix file" in err

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "cubelin" in out
