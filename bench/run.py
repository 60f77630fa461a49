"""symtensor benchmark: one command that runs a workload, checks every output
and prints every metric by name and unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each a closed loop with one client, one workload process at a time):

* ``catalog-sweep``: one library process per repetition runs ``dim`` and
  ``project`` on every (space, group) pair of the reference catalog and
  ``structure`` + ``to_text`` on every renderable pair, in seeded order.
* ``cli-cold``: rounds of seeded ``dim``/``structure``/``project``/``moduli``
  commands, each a fresh ``python -m symtensor.cli`` process.
* ``verify-paper``: one library process per repetition runs the whole
  ``verification.build_rows()`` table.  The table is one query, the unit
  of work a user waits for; its rows are what is checked and counted in
  ``attempted``/``failed``, and each row category counts toward
  ``dim_s``, ``structure_s`` or ``project_s`` (see ``worker.ROW_KINDS``).
  The rows carry the program's own seeded inputs, so ``--seed`` does not
  change this workload.

``--seconds`` fixes the amount of work, not a deadline: a run makes
``round(seconds / REP_SECONDS)`` repetitions (at least one).
``REP_SECONDS`` is set so that a 30-second run makes 4 sweeps, 4 CLI passes
or 4 verification tables (about 7, 9 and 8.5 s each at the seed commit on
a 2-core machine).  Both sides of a comparison therefore run the same
queries.  Every
repetition of a run issues the same queries in the same order (a sweep,
the table, or ``CLI_ROUNDS`` rounds of commands).

A timed step's latency is the fastest of its repetitions: other processes
on a shared machine only ever add time, and on a 2-core machine the per-run
medians of whole repetitions moved 10-15 % between runs.  ``wall_s`` and
the per-kind times are sums of these latencies.  In ``catalog-sweep`` and
``cli-cold`` every query is a step and ``query_p50_ms`` is the median of
their latencies.  In ``verify-paper`` the steps are the table's rows and
the one query's latency is their sum, so ``query_p50_ms`` and
``query_tail_ms`` equal ``wall_s`` and ``queries_per_s`` is its inverse: a
median over rows of about a millisecond measured the host's load more than
the program (it moved 15-30 % between sets of runs).  ``setup_s`` is the
median of ``SETUP_SAMPLES`` fresh interpreters and ``peak_rss_mb`` the
median over repetitions.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced repetitions and reports
per-layer self times (medians over the traced repetitions) and the tracing
overhead (traced minus untraced wall time).  The last stdout line is the
result JSON; the line before it records the run context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from common import (ROOT, SRC, child_env, have_program, load_reference, moduli_problems,
                    pair_key, projection_problems, random_member, same_structure,
                    sweep_queries, cli_round)

WORKER = Path(__file__).resolve().parent / "worker.py"

REP_SECONDS = 7.5
CLI_ROUNDS = 4

# module imported before the first query can be issued, per workload
SETUP_MODULE = {"catalog-sweep": "symtensor", "cli-cold": "symtensor.cli",
                "verify-paper": "symtensor.verification"}
SETUP_SAMPLES = 9

LIBRARY_TIMEOUT_S = 150
CLI_TIMEOUT_S = 60

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
    "query_tail_ms": "ms", "dim_s": "s", "structure_s": "s", "project_s": "s",
    "peak_rss_mb": "MB",
}

# traced span names and the per-layer metrics taken from each
SPAN_METRICS = {
    "groups.resolve_group": ("self_s",),
    "groups.closure_check": ("self_s",),
    "groups.haar_rule": ("self_s", "calls"),
    "spaces.TensorSpace.projector": ("self_s", "builds"),
    "characters.fix_dimension": ("self_s",),
    "characters.character_closed_form": ("self_s", "calls"),
    "characters.character_direct": ("self_s", "calls"),
    "projector.averaged_projector": ("self_s", "calls"),
    "projector.structure_report": ("self_s",),
    "projector.project": ("self_s",),
    "projector.StructureReport.to_text": ("self_s",),
    "core.image_basis": ("self_s", "calls"),
    "core.kron_power": ("self_s", "calls"),
    "core.rational_snap": ("calls",),
    "voigt.induced_matrix": ("self_s",),
    "cli.main": ("self_s",),
    **{f"verification.{c}": ("self_s",) for c in (
        "dims", "characters", "haar", "structure", "projector", "oracle", "voigt",
        "moduli", "spot")},
}


def per_layer_units() -> dict:
    units = {f"{name}.{kind}": "s" if kind == "self_s" else "count"
             for name, kinds in SPAN_METRICS.items() for kind in kinds}
    units.update({
        "groups.haar_rule.nodes": "count",
        "core.image_basis.svd_bytes_computed": "bytes",
        "core.rational_snap.exact_ratio": "ratio",
        "cli.import_s": "s",
        "cli.interpreter_s": "s",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.covered_s": "s",
    })
    return units


@dataclass
class Rep:
    """One repetition: a sweep, a verification table or ``CLI_ROUNDS`` rounds of commands."""

    latencies: list                     # [kind, seconds] per query, in issue order
    rss_mb: float
    attempted: int
    failed: int
    traced: bool = False
    layers: dict = field(default_factory=dict)   # per-layer metrics of a traced rep


class Runner:
    """Runs children inside the checkout and reaps each one with its rusage."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = child_env()

    def run(self, argv: list, stdin: bytes = b"", timeout: float = CLI_TIMEOUT_S):
        """Run ``argv`` to completion: (seconds, exit code, stdout, stderr, maxrss in kB)."""
        with tempfile.TemporaryFile(dir=self.tmp) as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    stderr=err, cwd=ROOT, env=self.env)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                try:
                    proc.stdin.write(stdin)
                    proc.stdin.close()
                except BrokenPipeError:
                    pass
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = perf_counter() - t0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            errors = err.read().decode(errors="replace")
            return seconds, proc.returncode, out, errors, usage.ru_maxrss

    def setup_seconds(self, module: str) -> float:
        """Median time from spawning an interpreter until ``module`` is imported."""
        samples = []
        for _ in range(SETUP_SAMPLES):
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", f"import {module}; print('ready', flush=True)"],
                stdout=subprocess.PIPE, cwd=ROOT, env=self.env)
            try:
                line = proc.stdout.readline()
                samples.append(perf_counter() - t0)
                proc.stdout.close()
                code = proc.wait(timeout=CLI_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            if line.strip() != b"ready" or code != 0:
                raise RuntimeError(f"importing {module} failed with exit code {code}")
        return statistics.median(samples)


def warn(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Output checks

class Checker:
    """Output checks against the reference and the independent conditions in common."""

    def __init__(self, reference: dict):
        from symtensor.groups import resolve_group
        from symtensor.spaces import SPACES

        self.reference = reference
        self.spaces = SPACES
        self._resolve = resolve_group
        self._groups = {}

    def group(self, space: str, group: str):
        key = pair_key(space, group)
        if key not in self._groups:
            self._groups[key] = self._resolve(group, self.spaces[space].n)
        return self._groups[key]

    def dim(self, space: str, group: str) -> int:
        return self.reference["dims"][pair_key(space, group)]

    def problems(self, kind: str, space: str, group: str, seed: int, key: int, got: dict) -> list:
        """Why ``got`` is wrong for the query (empty if it is right)."""
        if "error" in got:
            return [got["error"]]
        if kind == "dim":
            want = self.dim(space, group)
            return [] if got["dim"] == want else [f"dim {got['dim']}, expected {want}"]
        if kind == "structure":
            want = self.reference["structures"][pair_key(space, group)]
            problems = ([] if same_structure(got["json"], want)
                        else ["structure differs from the reference"])
            head = f"space {space}  group {want['group']}  dim {want['dim']}"
            if "text" in got and not got["text"].startswith(head):
                problems.append("text rendering has the wrong header")
            return problems
        if kind == "project":
            sp = self.spaces[space]
            member = random_member(sp, seed, key)
            return projection_problems(sp, self.group(space, group), member, got["coeffs"],
                                       self.dim(space, group))
        return moduli_problems(got["values"], got["moduli"])


# ---------------------------------------------------------------------------
# Library workloads: catalog-sweep and verify-paper

def library_rep(runner: Runner, checker: Checker, workload: str, seed: int,
                traced: bool) -> Rep:
    reference = checker.reference
    plan = {"workload": workload, "seed": seed, "trace": traced}
    if workload == "catalog-sweep":
        structure_spaces = {p.split()[0] for p in reference["structures"]}
        plan["queries"] = sweep_queries(seed, reference["pairs"], structure_spaces)
        expected = len(plan["queries"])
    else:
        expected = len(reference["rows"])
    _, code, out, err, _ = runner.run([sys.executable, str(WORKER), "library"],
                                      json.dumps(plan).encode(), LIBRARY_TIMEOUT_S)
    try:
        lines = [json.loads(line) for line in out.splitlines()] if code == 0 else []
    except json.JSONDecodeError:
        lines = []
    if not lines:
        warn(f"{workload} worker failed with exit code {code}:\n{err}")
        return Rep([], 0.0, expected, expected, traced)
    *outputs, result = lines

    failed = 0
    if workload == "catalog-sweep":
        for (kind, space, group, key), got in zip(plan["queries"], outputs):
            problems = checker.problems(kind, space, group, seed, key, got)
            if problems:
                failed += 1
                warn(f"{kind} {space} {group}: {'; '.join(problems[:3])}")
        failed += max(0, expected - len(outputs))
    else:
        ok = {row["name"]: row["ok"] for row in outputs}
        for row in outputs:
            if not row["ok"]:
                failed += 1
                warn(f"row failed: {row['name']} {row.get('error', '')}")
        missing = [name for name in reference["rows"] if name not in ok]
        failed += len(missing)
        if missing:
            warn(f"{len(missing)} reference rows missing, e.g. {missing[0]!r}")
    attempted = max(expected, len(outputs))
    rep = Rep(result["latencies"], result["maxrss_kb"] / 1024.0, attempted, failed, traced)
    if traced:
        rep.layers = layer_metrics([result["trace"]])
    return rep


# ---------------------------------------------------------------------------
# cli-cold

def cli_rep(runner: Runner, checker: Checker, seed: int, traced: bool) -> Rep:
    reference = checker.reference
    structure_pairs = [p.split() for p in reference["structures"]]
    commands = [cmd for index in range(CLI_ROUNDS)
                for cmd in cli_round(seed, index, reference["pairs"], structure_pairs)]
    latencies, summaries, failed, peak_kb, interpreter = [], [], 0, 0, 0.0
    for kind, space, group, key, values in commands:
        if kind == "moduli":
            args = ["moduli", "--values", json.dumps(values)]
        elif kind == "project":
            path = runner.tmp / f"tensor-{key}.json"
            if not path.exists():
                sp = checker.spaces[space]
                member = random_member(sp, seed, key)
                path.write_text(json.dumps({"space": space, "n": sp.n, "k": sp.k,
                                            "coeffs": member.reshape(-1).tolist()}))
            args = ["project", "--space", space, "--group", group, "--input", str(path)]
        else:
            args = [kind, "--space", space, "--group", group, "--format", "json"]
        summary_path = runner.tmp / f"trace-{key}.json"
        if traced:
            argv = [sys.executable, str(WORKER), "cli", str(summary_path), *args]
        else:
            argv = [sys.executable, "-m", "symtensor.cli", *args]
        seconds, code, out, err, maxrss_kb = runner.run(argv)
        latencies.append([kind, seconds])
        peak_kb = max(peak_kb, maxrss_kb)
        if code != 0:
            problems = [f"exit code {code}: {err.strip()[-300:]}"]
        else:
            try:
                payload = json.loads(out)
            except json.JSONDecodeError:
                payload = None
            if not isinstance(payload, dict):
                problems = ["stdout is not one JSON object"]
            elif kind == "moduli":
                problems = checker.problems(kind, space, group, seed, key,
                                            {"values": values, "moduli": payload})
            else:
                got = {"json": payload} if kind == "structure" else payload
                problems = checker.problems(kind, space, group, seed, key, got)
        if problems:
            failed += 1
            warn(f"cli {' '.join(args[:5])}: {'; '.join(problems[:3])}")
        if traced and summary_path.exists():
            summary = json.loads(summary_path.read_text())
            interpreter += seconds - summary["covered_s"]
            summaries.append(summary)
    rep = Rep(latencies, peak_kb / 1024.0, len(latencies), failed, traced)
    if traced:
        rep.layers = layer_metrics(summaries)
        rep.layers["cli.interpreter_s"] = interpreter
    return rep


# ---------------------------------------------------------------------------
# Metrics

def layer_metrics(summaries: list) -> dict:
    """Per-layer metrics of one traced repetition from its processes' span summaries."""
    self_s, calls, counts, covered = {}, {}, {}, 0.0
    for summary in summaries:
        covered += summary["covered_s"]
        for name, (seconds, n) in summary["layers"].items():
            self_s[name] = self_s.get(name, 0.0) + seconds
            calls[name] = calls.get(name, 0) + n
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
    out = {}
    for name, kinds in SPAN_METRICS.items():
        for kind in kinds:
            value = self_s.get(name, 0.0) if kind == "self_s" else calls.get(name, 0)
            out[f"{name}.{kind}"] = value
    for name in ("groups.haar_rule.nodes", "core.image_basis.svd_bytes_computed"):
        out[name] = counts.get(name, 0)
    snaps = calls.get("core.rational_snap", 0)
    out["core.rational_snap.exact_ratio"] = (counts.get("core.rational_snap.exact", 0) / snaps
                                             if snaps else 0.0)
    out["cli.import_s"] = self_s.get("cli.import", 0.0)
    out["cli.interpreter_s"] = 0.0
    out["trace.covered_s"] = covered
    return out


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten or fewer samples
    the maximum is used.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def best_latencies(reps: list) -> list:
    """[kind, seconds] per query: its fastest run over repetitions of the same queries."""
    return [[kind, min(r.latencies[i][1] for r in reps)]
            for i, (kind, _) in enumerate(reps[0].latencies)]


def e2e_metrics(reps: list, setup_s: float, whole: bool = False) -> tuple:
    """End-to-end metrics; with ``whole`` the repetition's steps make up one query."""
    best = best_latencies(reps)
    wall = sum(s for _, s in best)
    seconds = [wall] if whole else [s for _, s in best]
    tail_s, percentile, samples = tail(seconds)

    def kind_sum(kind):
        return sum(s for k, s in best if k == kind)

    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "queries_per_s": len(seconds) / wall,
        "query_p50_ms": 1000.0 * statistics.median(seconds),
        "query_tail_ms": 1000.0 * tail_s,
        "dim_s": kind_sum("dim"),
        "structure_s": kind_sum("structure"),
        "project_s": kind_sum("project"),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }
    info = {"tail_percentile": round(percentile, 3), "latency_samples": samples}
    return metrics, info


def trace_metrics(reps: list) -> dict:
    """Medians over traced repetitions; walls are per-repetition sums, like ``trace.covered_s``."""
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    out = {name: statistics.median(r.layers[name] for r in traced) for name in traced[0].layers}
    out["trace.wall_s"] = statistics.median(sum(s for _, s in r.latencies) for r in traced)
    out["trace.untraced_wall_s"] = statistics.median(sum(s for _, s in r.latencies) for r in plain)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


# ---------------------------------------------------------------------------
# Run context

def openblas_threads():
    """Thread count of the BLAS numpy is linked against, if it can be queried."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def git_commit():
    """HEAD of the checkout, read from ``.git`` inside it (None outside a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def context(args, reps: list) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(reps),
        "traced_repetitions": sum(r.traced for r in reps),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "openblas_threads": openblas_threads(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------

WORKLOADS = tuple(SETUP_MODULE)


def run(args) -> dict:
    reference = load_reference()
    reps_wanted = max(1, round(args.seconds / REP_SECONDS))
    if args.trace:
        reps_wanted = max(2, reps_wanted)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        runner = Runner(tmp)
        checker = Checker(reference)
        setup_s = runner.setup_seconds(SETUP_MODULE[args.workload])
        reps = []
        for i in range(reps_wanted):
            traced = bool(args.trace) and i % 2 == 1
            if args.workload == "cli-cold":
                reps.append(cli_rep(runner, checker, args.seed, traced))
            else:
                reps.append(library_rep(runner, checker, args.workload, args.seed, traced))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    plain = [r for r in reps if not r.traced]
    whole = args.workload == "verify-paper"
    e2e, info = (e2e_metrics(plain, setup_s, whole) if all(r.latencies for r in plain)
                 else ({}, {}))
    print(json.dumps({"context": context(args, reps), **info,
                      "e2e": {k: round(v, 6) for k, v in e2e.items()}}))
    if args.trace:
        units = per_layer_units()
        values = trace_metrics(reps) if all(r.layers for r in reps if r.traced) else {}
    else:
        units, values = E2E_UNITS, e2e
    correct = failed == 0 and set(values) >= set(units)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not have_program():
        warn(f"error: no symtensor sources under {SRC}; run from a full checkout")
        return 2
    # a terminated run still kills and reaps its children (see Runner.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
