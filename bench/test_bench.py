"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

They take about a minute: the small runs below start real worker and CLI
processes, and ``verify-paper`` always runs the whole table.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from common import BENCH_DIR, ROOT, SRC, load_reference
from tracer import Tracer, summarize

sys.path.insert(0, str(SRC))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["a", 20.0, 21.0, -1],
    ]
    out = summarize(spans)
    assert out["layers"] == {"a": [6.0, 2], "b": [4.0, 2], "c": [1.0, 1]}
    assert out["covered_s"] == 11.0
    assert sum(s for s, _ in out["layers"].values()) == out["covered_s"]


def test_install_wraps_every_binding_and_restores():
    from symtensor import groups, projector, verification
    from symtensor.spaces import SPACES

    original = groups.haar_rule
    tracer = Tracer()
    restore = tracer.install()
    try:
        assert projector.haar_rule is groups.haar_rule is verification.haar_rule
        assert groups.haar_rule is not original
        projector.structure_report(SPACES["ela3"], groups.resolve_group("so2-e3", 3))
    finally:
        restore()
    assert groups.haar_rule is original and projector.haar_rule is original
    layers = summarize(tracer.spans)["layers"]
    # one rule for the averaged action, one for the trace formula
    assert layers["groups.haar_rule"][1] == 2
    assert layers["projector.structure_report"][1] == 1
    parents = {tracer.spans[p][0] for name, _, _, p in tracer.spans
               if name == "groups.haar_rule"}
    assert parents == {"projector.averaged_projector", "characters.fix_dimension"}


def test_tail_is_the_eleventh_largest():
    value, percentile, n = run.tail([float(i) for i in range(100)])
    assert (value, percentile, n) == (89.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == run.per_layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


SMALL_PAIRS = [["ela3", "so3"], ["major3", "cubic"], ["sym2", "d4"], ["high2", "o2"],
               ["v1bar", "z3"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_seeded_run_reports_every_metric(tmp_path, workload):
    reference = dict(load_reference(), pairs=SMALL_PAIRS)
    runner = run.Runner(tmp_path)
    checker = run.Checker(reference)
    reps = []
    for traced in (False, True):
        if workload == "cli-cold":
            reps.append(run.cli_rep(runner, checker, 7, traced))
        else:
            reps.append(run.library_rep(runner, checker, workload, 7, traced))
    assert all(r.attempted > 0 and r.failed == 0 for r in reps)
    whole = workload == "verify-paper"
    e2e, info = run.e2e_metrics([reps[0]], setup_s=0.2, whole=whole)
    assert set(e2e) == set(run.E2E_UNITS)
    assert all(value > 0 for value in e2e.values())
    if whole:
        # the table is one query: its latency is the sum of its rows
        assert info["latency_samples"] == 1
        assert e2e["query_p50_ms"] == e2e["query_tail_ms"] == 1000.0 * e2e["wall_s"]
    layers = run.trace_metrics(reps)
    assert set(layers) == set(run.per_layer_units())
    assert layers["trace.covered_s"] <= layers["trace.wall_s"] + 1e-9


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
