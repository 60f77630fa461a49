"""Every name the benchmark's span tracer wraps must exist in the package.

``bench/tracer.py`` wraps module-level functions, one cached property and
one method by name; a rename in ``symtensor`` would make every traced
benchmark run fail.  The tracer's table is read from its file, unchanged.
"""

import importlib
from functools import cached_property
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced_functions():
    # executed from source, so no bytecode is written next to the benchmark
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return [(mod, fn) for mod, fn, _ in namespace["FUNCTIONS"]]


@pytest.mark.parametrize("module,function", _traced_functions())
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"symtensor.{module}"), function))


def test_traced_projector_is_cached_property():
    from symtensor.spaces import TensorSpace
    assert isinstance(TensorSpace.__dict__["projector"], cached_property)


def test_traced_report_method_exists():
    from symtensor.projector import StructureReport
    assert callable(StructureReport.to_text)
