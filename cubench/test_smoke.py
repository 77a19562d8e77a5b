"""Smoke tests of the benchmark itself, at the smallest size that runs.

    python3 -m pytest cubench

Each workload runs one unit; the tests check that the emitted metric
names are exactly the ones BENCHMARK.json declares, and that the
correctness gate fires on a wrong expected body and on a wrong inverse.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.fixture(scope="module")
def lib():
    return workloads.import_library()


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_match_declaration(name):
    _, result = run.run(name, seed=0, seconds=0.01, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_match_declaration():
    _, result = run.run("search-rank", seed=0, seconds=0.01, trace=True, trace_units=1)
    assert result["correct"] and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared("per_layer")
    for name, metric in result["metrics"].items():
        if metric["unit"] == "s":
            assert metric["value"] > 0, name


def test_gate_rejects_a_wrong_search_body(lib):
    workload = workloads.WORKLOADS["search-rank"]
    corpus = workload.build(lib, seed=0)
    assert workload.run_unit(lib, corpus, 0).failed == 0
    config, body = corpus[0]
    wrong = [(config, body.replace('"anomalies": 0', '"anomalies": 1'))]
    assert wrong[0][1] != body
    assert workload.run_unit(lib, wrong, 0).failed == 1


def test_gate_rejects_a_perturbed_inverse(lib, monkeypatch):
    workload = workloads.WORKLOADS["maps-int"]
    corpus = workload.build(lib, seed=0)
    M, points, _ = corpus[0]
    result = lib.invert.decide_automorphism(M)
    assert workloads.check_inverse(lib, M, result.inverse, points) == []

    first = result.inverse.components[0]
    exps = next(e for e in first.terms if sum(e) == 3)
    terms = dict(first.terms)
    terms[exps] = terms[exps] + lib.scalars.GaussianRational(1)
    bad = lib.poly.PolyMap(
        [lib.poly.Polynomial(first.nvars, terms), *result.inverse.components[1:]]
    )
    assert workloads.check_inverse(lib, M, bad, points)

    perturbed = dataclasses.replace(result, inverse=bad)
    monkeypatch.setattr(lib.invert, "decide_automorphism", lambda A: perturbed)
    unit = workload.run_unit(lib, corpus, 0)
    assert {op for op, _ in unit.failures} == {"invert", "corollary"}
