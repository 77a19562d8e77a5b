import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cubelin import RankBoundCertificate, cli, parse_matrix
from cubelin.cli import main
from cubelin.invert import NOT_INVERTIBLE, InverseResult
from helpers import NON_KELLER_4X4_ROWS, PAPER_EXAMPLE_ROWS


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
        refused = InverseResult(status=NOT_INVERTIBLE, degree_bound_used=3)
        monkeypatch.setattr(cli, "decide_automorphism", lambda *a, **k: refused)
        code, out, _ = run(capsys, "invert", "shear-2", "--json")
        assert code == 2
        assert json.loads(out)["status"] == "NotInvertible"


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
                "checks": ["invert"],
            },
        )
        code, out, _ = run(capsys, "search", path)
        assert code == 0
        assert "visited: 16" in out
        assert "passed_filters: 3" in out
        assert "invert: checked=3, keller=3, invertible=3, failures=0" in out
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

        def planted(M):
            if M == target:
                raise RuntimeError("internal check failed: planted")
            return real(M)

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
