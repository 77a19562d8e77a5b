"""The names other code reaches in the package: its export list and the
functions the benchmark in ``cubench/`` wraps and reads.

The benchmark's own tests are not collected with this suite, so a rename
or deletion that breaks its tracer would otherwise go unnoticed here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import cubelin

TRACING = Path(__file__).resolve().parent.parent / "cubench" / "tracing.py"


def benchmark_spans():
    spec = importlib.util.spec_from_file_location("cubench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANS


def test_export_list_resolves():
    assert len(set(cubelin.__all__)) == len(cubelin.__all__)
    for name in cubelin.__all__:
        assert getattr(cubelin, name) is not None, name


@pytest.mark.parametrize("module,attribute,span", benchmark_spans())
def test_benchmark_span_resolves(module, attribute, span):
    owner = importlib.import_module(f"cubelin.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


def test_backend_is_exported():
    assert cubelin.BACKEND == "pure"
