"""Child processes of the benchmark; each repetition gets a fresh interpreter.

``python3 bench/worker.py library < plan.json``
    Runs one ``catalog-sweep`` or ``verify-paper`` repetition in-process,
    as a closed loop with one client.  Each query's output goes to stdout
    as one JSON line as soon as the query has been timed, so outputs do not
    accumulate in the measured process; the last line holds the latencies,
    ``ru_maxrss`` and, when traced, the span summary.

``python3 bench/worker.py cli SUMMARY.json ARGV...``
    Traced stand-in for ``python -m symtensor.cli ARGV...``: times the
    import of ``symtensor.cli``, installs the tracer, runs ``cli.main`` and
    writes the span summary to SUMMARY.json.

The plan holds ``workload``, ``seed``, ``trace`` and, for ``catalog-sweep``,
the shuffled query list.  Input tensors are rebuilt here from the seed
before anything is timed.  Nothing is imported at module level beyond the
tracer, which needs no numpy, so the CLI child times the whole import of
``symtensor.cli``.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

from tracer import Tracer


def emit(output: dict) -> None:
    sys.stdout.write(json.dumps(output) + "\n")


def sweep(plan: dict, tracer: Tracer | None) -> list:
    from common import random_member
    from symtensor import characters, core, groups, projector, spaces

    queries = plan["queries"]
    members = {key: core.FlatTensor(spaces.SPACES[s].n, spaces.SPACES[s].k,
                                    random_member(spaces.SPACES[s], plan["seed"], key).reshape(-1))
               for kind, s, _, key in queries if kind == "project"}
    if tracer is not None:
        tracer.install()
    latencies = []
    for kind, s, g, key in queries:
        space = spaces.SPACES[s]
        # drop the previous result first, so no query's peak memory depends on the order
        error = text = result = None
        t0 = perf_counter()
        try:
            group = groups.resolve_group(g, space.n)
            if kind == "dim":
                result = characters.fix_dimension(space, group)
            elif kind == "project":
                result = projector.project(space, group, members[key])
            else:
                result = projector.structure_report(space, group)
                text = result.to_text()
        except Exception as exc:  # a raising query counts as failed
            error = f"{type(exc).__name__}: {exc}"
        latencies.append([kind, perf_counter() - t0])
        if error is not None:
            emit({"error": error})
        elif kind == "dim":
            emit({"dim": result})
        elif kind == "project":
            emit({"coeffs": result.coeffs.tolist()})
        else:
            emit({"json": result.to_json(), "text": text})
    return latencies


# Every verification category is reported under the query kind whose code
# path it checks: the trace formula (dim), slot rendering (structure) or the
# averaged projector and the null-space oracle (project).  Summing whole
# categories keeps each total at 1 s or more, steadier than the 0.1 s of the
# "dims" rows alone.
ROW_KINDS = {"dims": "dim", "characters": "dim", "haar": "dim",
             "structure": "structure", "voigt": "structure", "moduli": "structure",
             "spot": "structure", "projector": "project", "oracle": "project"}


def verify(plan: dict, tracer: Tracer | None) -> list:
    from symtensor import verification

    if tracer is not None:
        tracer.install()
    latencies = []
    # the first row's latency includes building the table, as in run_rows
    t0 = perf_counter()
    for row in verification.build_rows():
        span = tracer.begin(f"verification.{row.category}") if tracer is not None else None
        try:
            result = row.run()
            output = {"name": row.name, "ok": result.ok}
        except Exception as exc:  # a crashed row is a failed row, as in run_rows
            output = {"name": row.name, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if span is not None:
            tracer.end(span)
        t1 = perf_counter()
        latencies.append([ROW_KINDS[row.category], t1 - t0])
        t0 = t1
        emit(output)
    return latencies


def library(plan: dict) -> None:
    tracer = Tracer() if plan["trace"] else None
    run = sweep if plan["workload"] == "catalog-sweep" else verify
    out = {"latencies": run(plan, tracer),
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["trace"] = tracer.summary()
    emit(out)


def cli(summary_path: str, argv: list) -> int:
    tracer = Tracer()
    span = tracer.begin("cli.import")
    import symtensor.cli
    tracer.end(span)
    tracer.install()
    try:
        code = sys.modules["symtensor.cli"].main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "library":
        library(json.load(sys.stdin))
    else:
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
