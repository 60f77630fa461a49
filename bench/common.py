"""Seeded inputs, reference outputs and output checks of the benchmark.

Inputs are built with plain numpy from the space descriptors, so making
them never calls the code under test.  Outputs are checked after the timed
region, against ``reference.json`` (recorded at the seed commit by
``make_reference.py``) and against invariance and membership conditions
computed here, independently of the library.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

CHECK_TOL = 1e-9


def have_program() -> bool:
    return (SRC / "symtensor" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment of every child: the package is imported from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def pair_key(space: str, group: str) -> str:
    return f"{space} {group}"


@lru_cache(maxsize=1)
def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Seeded inputs

def permutation_closure(generators, k: int) -> list:
    """All index permutations generated by ``generators`` (identity included)."""
    seen = {tuple(range(k))}
    frontier = list(seen)
    while frontier:
        found = []
        for p in frontier:
            for g in generators:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    found.append(q)
        frontier = found
    return sorted(seen)


def random_member(space, seed: int, key: int) -> np.ndarray:
    """A seeded random tensor of the space, shape ``(n,) * k``.

    A Gaussian array averaged over the index permutations of the space lies
    in the space; stream ``key`` keeps members of different queries apart.
    """
    rng = np.random.default_rng([seed, 1, key])
    arr = rng.normal(size=(space.n,) * space.k)
    perms = permutation_closure(space.generators, space.k)
    return sum(arr.transpose(p) for p in perms) / len(perms)


def sweep_queries(seed: int, pairs, structure_spaces) -> list:
    """``catalog-sweep`` plan: dim and project for every pair, structure where renderable.

    Each query is ``[kind, space, group, key]``; ``key`` seeds the project input.
    """
    queries = []
    for key, (space, group) in enumerate(pairs):
        queries.append(["dim", space, group, key])
        queries.append(["project", space, group, key])
        if space in structure_spaces:
            queries.append(["structure", space, group, key])
    order = np.random.default_rng([seed, 0]).permutation(len(queries))
    return [queries[i] for i in order]


def cli_round(seed: int, index: int, pairs, structure_pairs) -> list:
    """One ``cli-cold`` round: 2 dim, 3 structure, 2 project and 1 moduli command.

    Every round carries ``structure v2bar so3``, the slowest and largest
    single query of the catalog, and draws its other structure commands from
    the spaces of order at most 5, so rounds of different seeds cost about
    the same and reach the same peak memory.  Each command is
    ``[kind, space, group, key, values]``.
    """
    rng = np.random.default_rng([seed, 2, index])
    light = [p for p in structure_pairs if p[0] != "v2bar"]

    def pick(pool):
        return list(pool[int(rng.integers(len(pool)))])

    cmds = [["dim", *pick(pairs)], ["dim", *pick(pairs)],
            ["structure", "v2bar", "so3"], ["structure", *pick(light)],
            ["structure", *pick(light)],
            ["project", *pick(pairs)], ["project", *pick(pairs)],
            ["moduli", "major3", "so3"]]
    for i, cmd in enumerate(cmds):
        values = None
        if cmd[0] == "moduli":
            c12, c44, c45 = (round(float(v), 6) for v in rng.uniform(0.5, 3.0, size=3))
            values = {"C12": c12, "C44": c44, "C45": c45}
        cmd += [1000 * index + i, values]
    order = rng.permutation(len(cmds))
    return [cmds[i] for i in order]


# ---------------------------------------------------------------------------
# Output checks (called outside the timed region)

def same_structure(got, want) -> bool:
    """Structure JSON equality: exact except float ``value`` fields (``CHECK_TOL``)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return False
        for key, value in want.items():
            if key == "value":
                if not abs(float(got[key]) - float(value)) <= CHECK_TOL:
                    return False
            elif not same_structure(got[key], value):
                return False
        return True
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_structure(g, w) for g, w in zip(got, want)))
    return got == want


def act(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Apply the orthogonal matrix ``q`` to every index of the array ``t``."""
    for axis in range(t.ndim):
        t = np.moveaxis(np.tensordot(q, t, axes=(1, axis)), 0, axis)
    return t


def projection_problems(space, group, member: np.ndarray, coeffs, dim: int) -> list:
    """Reasons why ``coeffs`` is not the group average of ``member`` (empty if none).

    The result must lie in the space, be invariant under the group's sample
    elements, be an orthogonal projection of the input, be nonzero when the
    invariant subspace is, and for finite groups equal the explicit mean of
    the input over all elements.
    """
    out = np.asarray(coeffs, dtype=float)
    if out.shape != (member.size,) or not np.all(np.isfinite(out)):
        return [f"result has shape {out.shape}, expected ({member.size},)"]
    out = out.reshape(member.shape)
    tol = CHECK_TOL * max(1.0, float(np.max(np.abs(member))))
    problems = []
    for perm in space.generators:
        gap = float(np.max(np.abs(out.transpose(perm) - out)))
        if gap > tol:
            problems.append(f"outside the space: index symmetry {perm} off by {gap:.2e}")
    for element in group.sample_elements():
        gap = float(np.max(np.abs(act(element.matrix, out) - out)))
        if gap > tol:
            problems.append(f"not invariant under {element.label}: {gap:.2e}")
    overlap = float(np.sum((member - out) * out))
    if abs(overlap) > tol * max(1.0, float(np.sum(out * out))):
        problems.append(f"not an orthogonal projection: <t - Pt, Pt> = {overlap:.2e}")
    if dim > 0 and float(np.max(np.abs(out))) <= tol:
        problems.append(f"zero result on a {dim}-dimensional invariant subspace")
    if group.is_finite:
        mean = sum(act(e.matrix, member) for e in group.elements) / len(group.elements)
        gap = float(np.max(np.abs(mean - out)))
        if gap > tol:
            problems.append(f"differs from the mean over the group elements by {gap:.2e}")
    return problems


def moduli_problems(values: dict, got: dict) -> list:
    """The isotropic moduli of ``values`` are (C12, (C44 + C45)/2, (C44 - C45)/2)."""
    want = {"lambda": values["C12"], "mu": (values["C44"] + values["C45"]) / 2.0,
            "mu_c": (values["C44"] - values["C45"]) / 2.0}
    return [f"{key} = {got.get(key)!r}, expected {value!r}" for key, value in want.items()
            if not abs(float(got.get(key, float("nan"))) - value) <= CHECK_TOL]
