"""Every name the benchmark's span tracer wraps must exist in the package,
and what the benchmark reads of the groups must stay where it reads it.

``bench/tracer.py`` wraps module-level functions, one cached property and
one method by name; a rename in ``symtensor`` would make every traced
benchmark run fail.  The tracer's table is read from its file, unchanged.
``bench/test_bench.py`` pins one shared ``haar_rule`` binding, and
``bench/common.projection_problems`` reads ``.matrix`` and ``.label`` of a
group's sample elements and ``.matrix`` of a finite group's elements.
The tracer's counters read ``len`` of a Haar rule, ``.exact`` of a snapped
value and ``a.matrix.shape[0]`` of the operator whose SVD ``image_basis``
runs.
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


def test_haar_rule_binding_shared():
    from symtensor import groups, projector, verification
    assert projector.haar_rule is groups.haar_rule is verification.haar_rule


def test_counted_results_expose_what_the_tracer_reads():
    from symtensor.core import rational_snap
    from symtensor.groups import haar_rule, resolve_group
    assert rational_snap(0.5).exact is True
    assert len(haar_rule(resolve_group("so2-e3", 3), 4)) > 0


def test_image_basis_argument_has_the_svd_size(monkeypatch):
    import numpy as np
    from symtensor import core
    from symtensor.groups import resolve_group
    from symtensor.projector import averaged_projector
    from symtensor.spaces import SPACES

    shapes = []
    svd = np.linalg.svd

    def recording_svd(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(core.np.linalg, "svd", recording_svd)
    space = SPACES["v2bar"]
    a = averaged_projector(space, resolve_group("cubic", 3))
    core.image_basis(a)
    d = space.basis.shape[1]
    # the argument as the tracer's SVD counter reads it, and the one SVD it counts
    assert a.matrix.shape[0] == d
    assert shapes == [(d, d)]


def _catalog_groups():
    from symtensor.groups import GROUPS_2D, GROUPS_3D
    return [(name, 2) for name in GROUPS_2D] + [(name, 3) for name in GROUPS_3D]


@pytest.mark.parametrize("name,ambient", _catalog_groups())
def test_group_elements_expose_what_the_bench_reads(name, ambient):
    from symtensor.groups import resolve_group
    group = resolve_group(name, ambient)
    samples = group.sample_elements()
    assert samples
    for element in samples:
        assert element.matrix.shape == (ambient, ambient)
        assert isinstance(element.label, str)
    if group.is_finite:
        for element in group.elements:
            assert element.matrix.shape == (ambient, ambient)
