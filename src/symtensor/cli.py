"""Command-line front end.

Commands: ``dim``, ``structure``, ``project``, ``moduli``, ``maps``,
``verify-paper``.  Exit codes are stable: 0 success, 1 a ``verify-paper``
row failed, 2 unknown name or configuration (also an unwritable output:
an output file that cannot be written, or a stdout closed by its reader),
3 quadrature non-convergence (a Haar average off an integer), 4 internal
consistency failure (or a projector ``image_basis`` refuses), 5 bad input
(tensor file or moduli values), 6 a ``structure`` display printed with
coefficients that matched no rational or surd form ("(unsnapped)").  Every
numerical threshold is a fixed constant; none is read from the environment.

Only the standard library and ``catalog`` load with this module; each
command imports the modules it runs, so ``moduli`` runs without numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import (GROUPS_2D, GROUPS_3D, ROW_CATEGORIES, SPACE_NAMES,
                      extract_isotropic_moduli)

EXIT_OK = 0
EXIT_NAME = 2
EXIT_QUADRATURE = 3
EXIT_INTERNAL = 4
EXIT_INPUT = 5
EXIT_UNSNAPPED = 6


def _parse_axis(text):
    """The three floats of ``--axis``; ``groups.axis_aligner`` vets the direction."""
    if text is None:
        return None
    parts = [float(p) for p in text.replace(",", " ").split()]
    if len(parts) != 3:
        raise ValueError("axis needs three components")
    return parts


def _fail(code: int, exc: Exception) -> int:
    """Print ``exc`` as one ``error:`` line and return ``code``."""
    # str() of a KeyError is the repr of its message, quotes included
    message = exc.args[0] if isinstance(exc, KeyError) else exc
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve(args):
    from .groups import resolve_group
    from .spaces import lookup

    sp = lookup(args.space)
    return sp, resolve_group(args.group, sp.n, axis=_parse_axis(args.axis))


def _read_tensor(path: str, sp):
    import numpy as np
    from .core import FlatTensor

    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "coeffs" not in payload:
        raise ValueError("tensor file needs a JSON object with a 'coeffs' array")
    declared = payload.get("space")
    if declared is not None and not isinstance(declared, str):
        raise ValueError(f"'space' must be a space name, got {declared!r}")
    if declared and declared.lower() != sp.name:
        raise ValueError(f"file declares space {declared!r}, command uses {sp.name!r}")
    n, k = payload.get("n", sp.n), payload.get("k", sp.k)
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (n, k)):
        raise ValueError(f"'n' and 'k' must be integers, got {n!r} and {k!r}")
    if (n, k) != (sp.n, sp.k):
        raise ValueError(f"file is order {k} over R^{n}, space {sp.name} needs "
                         f"order {sp.k} over R^{sp.n}")
    coeffs = payload["coeffs"]
    if not isinstance(coeffs, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in coeffs):
        raise ValueError("'coeffs' must be a flat JSON array of numbers")
    return FlatTensor(n, k, np.asarray(coeffs, dtype=float))


def _write_tensor(path, sp, tensor, extra=None) -> None:
    payload = {"space": sp.name, "n": tensor.n, "k": tensor.k,
               "coeffs": tensor.coeffs.tolist()}
    if extra:
        payload.update(extra)
    text = json.dumps(payload)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_dim(args, sp, group) -> int:
    from .characters import QuadratureNotConvergedError, fix_dimension

    try:
        dim = fix_dimension(sp, group)
    except QuadratureNotConvergedError as exc:
        return _fail(EXIT_QUADRATURE, exc)
    except ValueError as exc:  # an ambient mismatch or an order past the so3 degree cap
        return _fail(EXIT_NAME, exc)
    if args.format == "json":
        print(json.dumps({"space": sp.name, "group": group.catalog_id, "dim": dim}))
    else:
        print(dim)
    return EXIT_OK


def cmd_structure(args, sp, group) -> int:
    from .characters import QuadratureNotConvergedError
    from .core import NotAProjectorError
    from .projector import InternalConsistencyError, NoVoigtMapError, structure_report

    try:
        report = structure_report(sp, group)
    except NoVoigtMapError as exc:
        return _fail(EXIT_NAME, exc)
    except QuadratureNotConvergedError as exc:
        return _fail(EXIT_QUADRATURE, exc)
    except (InternalConsistencyError, NotAProjectorError) as exc:
        return _fail(EXIT_INTERNAL, exc)
    if args.format == "json":
        print(json.dumps(report.to_json()))
    elif args.format == "latex":
        print(report.to_latex())
    else:
        print(report.to_text())
    if report.unsnapped:
        print(f"error: {report.unsnapped} displayed coefficients matched no rational "
              "or surd form and are printed unsnapped", file=sys.stderr)
        return EXIT_UNSNAPPED
    return EXIT_OK


def cmd_project(args, sp, group) -> int:
    import numpy as np
    from .core import act
    from .projector import project

    try:
        tensor = _read_tensor(args.input, sp)  # JSONDecodeError is a ValueError
    except (OSError, OverflowError, TypeError, ValueError) as exc:
        return _fail(EXIT_INPUT, exc)
    try:
        projected = project(sp, group, tensor)
    except ValueError as exc:  # a MembershipError, or an average past the double range
        return _fail(EXIT_INPUT, exc)
    moved = act(np.array([e.matrix for e in group.sample_elements()]), sp.k, projected.coeffs)
    residual = float(np.max(np.abs(moved - projected.coeffs)))
    try:
        _write_tensor(args.output, sp, projected, extra={"invariance_residual": residual})
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_NAME
    print(f"invariance residual over group generators: {residual:.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_moduli(args) -> int:
    if args.values is not None:
        try:
            values = json.loads(args.values)
        except json.JSONDecodeError as exc:
            print(f"error: bad --values JSON: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        try:
            with open(args.input) as fh:
                values = json.load(fh)
        except (OSError, ValueError) as exc:  # JSONDecodeError, UnicodeDecodeError
            return _fail(EXIT_INPUT, exc)
    if not isinstance(values, dict):
        print(f"error: moduli values must be a JSON object of symbols and numbers, "
              f"got {type(values).__name__}", file=sys.stderr)
        return EXIT_INPUT
    try:
        lam, mu, mu_c = extract_isotropic_moduli(values)
    except (KeyError, TypeError, ValueError) as exc:  # TypeError: a value that is no number
        return _fail(EXIT_INPUT, exc)
    print(json.dumps({"lambda": lam, "mu": mu, "mu_c": mu_c}))
    return EXIT_OK


def cmd_maps(args) -> int:
    from . import voigt

    if args.dump:
        print(json.dumps(voigt.dump_tables(), indent=2))
    else:
        for m in voigt.ALL_MAPS:
            print(f"{m.name}: order {m.order} over R^{m.n} -> R^{m.length}")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    from .verification import run_rows

    categories = None
    if args.rows is not None:
        categories = [c.strip() for c in args.rows.split(",") if c.strip()]
        unknown = [c for c in categories if c not in ROW_CATEGORIES]
        if unknown or not categories:
            problem = (f"unknown row categories {unknown}" if unknown
                       else f"--rows {args.rows!r} names no category")
            print(f"error: {problem}; known: {', '.join(ROW_CATEGORIES)}", file=sys.stderr)
            return EXIT_NAME
    failures = 0
    total = 0
    for row, result in run_rows(categories):
        total += 1
        status = "PASS" if result.ok else "FAIL"
        line = f"[{status}] {row.name}"
        if not result.ok:
            line += f"  expected: {result.expected}  actual: {result.actual}"
            failures += 1
        print(line)
    print(f"{total - failures}/{total} rows passed")
    return EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symtensor",
        description="invariant-subspace dimensions and symmetrized tensor structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(p):
        p.add_argument("--space", required=True,
                       help=f"space name: {', '.join(SPACE_NAMES)}")
        p.add_argument("--group", required=True,
                       help=f"group name; 2D spaces: {', '.join(GROUPS_2D)}; "
                            f"3D spaces: {', '.join(GROUPS_3D)}")
        p.add_argument("--axis", help="rotation axis of the 3D axial groups (z*, d*, so2-e3, "
                                      "o2-e3), e.g. '0,0,1'")

    p = sub.add_parser("dim", help="fixed-subspace dimension via the trace formula")
    add_pair(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("structure", help="symbolic structure of the invariant tensors")
    add_pair(p)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("project", help="group-average a tensor from a JSON file")
    add_pair(p)
    p.add_argument("--input", required=True, help="JSON tensor file")
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("moduli", help="isotropic moduli of the 45-constant theory")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--values", help="inline JSON, e.g. '{\"C12\":1,\"C44\":3,\"C45\":1}'")
    source.add_argument("--input", help="JSON file with the label values")
    p.set_defaults(func=cmd_moduli)

    p = sub.add_parser("maps", help="slot-order tables of the vectorization maps")
    p.add_argument("--dump", action="store_true", help="emit the full tables as JSON")
    p.set_defaults(func=cmd_maps)

    p = sub.add_parser("verify-paper", help="run the published-value verification table")
    p.add_argument("--rows", help=f"comma-separated categories: {', '.join(ROW_CATEGORIES)}")
    p.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "space" not in args:
        return args.func(args)
    try:  # every command with --space runs on the (space, group) pair
        pair = _resolve(args)
    except (KeyError, ValueError) as exc:
        return _fail(EXIT_NAME, exc)
    return args.func(args, *pair)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # buffered output meets a closed reader here
    except BrokenPipeError:
        # stdout now points at devnull, so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write output: stdout was closed by its reader", file=sys.stderr)
        code = EXIT_NAME
    sys.exit(code)


if __name__ == "__main__":
    entry()
