"""The names other code reaches in the package: its export list and the
functions and scalar methods the benchmark in ``cubench/`` wraps and reads.

The benchmark's own tests are not collected with this suite, so a rename
or deletion that breaks its tracer would otherwise go unnoticed here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import cubelin
from cubelin import invert, pairing
from cubelin.scalars import GaussianRational

TRACING = Path(__file__).resolve().parent.parent / "cubench" / "tracing.py"


def benchmark_tracing():
    spec = importlib.util.spec_from_file_location("cubench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_export_list_resolves():
    assert len(set(cubelin.__all__)) == len(cubelin.__all__)
    for name in cubelin.__all__:
        assert getattr(cubelin, name) is not None, name


@pytest.mark.parametrize("module,attribute,span", benchmark_tracing().SPANS)
def test_benchmark_span_resolves(module, attribute, span):
    owner = importlib.import_module(f"cubelin.{module}")
    *classes, name = attribute.split(".")
    for part in classes:
        owner = getattr(owner, part)
    # the tracer patches a "Class.method" span in the class's own __dict__,
    # so an inherited method would not be wrapped
    target = owner.__dict__.get(name) if classes else getattr(owner, name, None)
    assert callable(target), span


@pytest.mark.parametrize("method,kind", benchmark_tracing().SCALAR_OPS)
def test_benchmark_scalar_op_resolves(method, kind):
    # the tracer wraps GaussianRational.__dict__[method], so the method must
    # be defined on the class itself, not inherited or dispatched elsewhere
    assert callable(GaussianRational.__dict__.get(method)), (method, kind)


def test_pairing_holds_only_the_benchmark_spans():
    # cubelin.pairing only lets cubench find three invert functions under
    # their old module name, so it may neither grow back nor lose a span
    names = {name for name in vars(pairing) if not name.startswith("__")}
    spans = {attribute for module, attribute, _ in benchmark_tracing().SPANS if module == "pairing"}
    assert names == spans
    for name in names:
        assert getattr(pairing, name) is getattr(invert, name), name


def test_backend_is_exported():
    assert cubelin.BACKEND == "pure"
