"""Span tracer that times calls into the public functions of symtensor.

The tracer works from outside the package: ``install`` replaces every
binding of each traced function in the loaded ``symtensor`` modules with a
wrapper that records a span (name, start, end, parent).  Functions that
other modules import by name, such as ``haar_rule`` in ``projector`` and
``verification`` or ``fix_dimension`` in ``cli``, are bound in several
module namespaces, so wrapping only the defining module would miss those
calls.  Spans stay in memory; ``summarize`` turns them into per-layer self
times once the traced work has ended.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _count_nodes(counts, args, kwargs, rule):
    counts["groups.haar_rule.nodes"] += len(rule)


def _count_svd_bytes(counts, args, kwargs, basis):
    # input, U, Vt (d x d each) and the singular values, in float64
    d = (args[0] if args else kwargs["a"]).matrix.shape[0]
    counts["core.image_basis.svd_bytes_computed"] += 8 * (3 * d * d + d)


def _count_exact(counts, args, kwargs, snapped):
    counts["core.rational_snap.exact"] += bool(snapped.exact)


# (module, function, counter) for every traced module-level function
FUNCTIONS = (
    ("groups", "resolve_group", None),
    ("groups", "closure_check", None),
    ("groups", "haar_rule", _count_nodes),
    ("characters", "fix_dimension", None),
    ("characters", "character_closed_form", None),
    ("characters", "character_direct", None),
    ("projector", "averaged_projector", None),
    ("projector", "structure_report", None),
    ("projector", "project", None),
    ("core", "image_basis", _count_svd_bytes),
    ("core", "kron_power", None),
    ("core", "rational_snap", _count_exact),
    ("voigt", "induced_matrix", None),
    ("cli", "main", None),
)


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._open.pop()
        self.spans[idx][2] = perf_counter()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every loaded binding of the traced functions; return an undo callable."""
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "symtensor" or name.startswith("symtensor.")]
        undo = []
        for module, function, count in FUNCTIONS:
            home = sys.modules.get(f"symtensor.{module}")
            if home is None:
                continue
            original = getattr(home, function)
            wrapper = self.wrap(f"{module}.{function}", original, count)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        projector = sys.modules.get("symtensor.projector")
        if projector is not None:
            cls = projector.StructureReport
            undo.append((cls, "to_text", cls.to_text))
            cls.to_text = self.wrap("projector.StructureReport.to_text", cls.to_text)
        spaces = sys.modules.get("symtensor.spaces")
        if spaces is not None:
            # cached_property: the wrapped func runs only when the cache misses
            prop = spaces.TensorSpace.__dict__["projector"]
            undo.append((prop, "func", prop.func))
            prop.func = self.wrap("spaces.TensorSpace.projector", prop.func)

        def restore():
            for obj, attr, original in reversed(undo):
                setattr(obj, attr, original)

        return restore

    def summary(self) -> dict:
        """Per-layer figures of everything recorded so far (see ``summarize``)."""
        out = summarize(self.spans)
        out["counts"] = dict(self.counts)
        return out


def summarize(spans) -> dict:
    """Self time and call count per span name, and the time top-level spans cover.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so direct children never overlap and
    the self times of all spans add up to the summed top-level durations.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict[str, list] = {}
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        entry = layers.setdefault(name, [0.0, 0])
        entry[0] += (end - start) - child_time[i]
        entry[1] += 1
        if parent < 0:
            covered += end - start
    return {"layers": layers, "covered_s": covered}
