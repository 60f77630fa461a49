"""Verification table: every published value the library must reproduce.

Each row is an independently runnable check returning (expected, actual,
ok).  The CLI ``verify-paper`` command and the acceptance test suite both
iterate this table; rows are grouped by category so subsets can be run
(``dims``, ``characters``, ``haar``, ``structure``, ``projector``,
``oracle``, ``voigt``, ``moduli``, ``spot``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import groups, voigt
from .catalog import ROW_CATEGORIES, extract_isotropic_moduli
from .characters import character_closed_form, character_direct, fix_dimension
from .core import FlatTensor, act
from .groups import haar_rule, integrate, resolve_group
from .projector import (_averaged_action, isotropic_nine_matrix, moduli_from_matrix,
                        project, structure_report)
from .spaces import SPACES, TensorSpace, exact_dimension, symmetrize
from .voigt import (EXTENDED18, EXTENDED18_ORDER, MANDEL6, NINE_SLOT, VOIGT6, anti,
                    axl, induced_matrix)

SEED = 20240815
# the catalog groups of each ambient dimension
_AMBIENT_GROUPS = ((2, groups.GROUPS_2D), (3, groups.GROUPS_3D))


@dataclass(frozen=True)
class RowResult:
    ok: bool
    expected: str
    actual: str


@dataclass(frozen=True)
class VerifyRow:
    name: str
    category: str
    run: Callable[[], RowResult]


def _row(ok: bool, expected, actual) -> RowResult:
    return RowResult(bool(ok), str(expected), str(actual))


def _setting(space_name: str, group_name: str):
    """The catalog space and group a row names, and the (g, n, n) stack of
    the group's sample elements."""
    sp = SPACES[space_name]
    g = resolve_group(group_name, sp.n)
    return sp, g, np.array([e.matrix for e in g.sample_elements()])


def _random_rotations(rng, count: int, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(count, n, n)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0.0
    q[flip, :, :2] = q[flip, :, 1::-1]
    return q


def _random_member(space_name: str, seed_offset: int = 0) -> FlatTensor:
    sp = SPACES[space_name]
    rng = np.random.default_rng(SEED + seed_offset)
    return symmetrize(sp, rng.normal(size=sp.n**sp.k))


def _projected(space_name: str, group_name: str, seed_offset: int = 0) -> FlatTensor:
    sp, g, _ = _setting(space_name, group_name)
    return project(sp, g, _random_member(space_name, seed_offset))


# ---------------------------------------------------------------------------
# Criterion 1: dimension table

DIMENSION_TABLE = (
    ("ela3", "d2", 9), ("ela3", "so2-e3", 5), ("ela3", "cubic", 3), ("ela3", "so3", 2),
    ("major3", "trivial", 45), ("major3", "d2", 15), ("major3", "so2-e3", 11),
    ("major3", "o2-e3", 8), ("major3", "cubic", 4), ("major3", "so3", 3),
    ("v1", "cubic", 3), ("v1bar", "cubic", 3), ("v2", "cubic", 11), ("v2bar", "cubic", 11),
    ("v2bar", "so2-e3", 31), ("v2bar", "o2-e3", 21),
    ("sym2", "o2", 1), ("sym2", "d4", 1), ("sym2", "d2", 2), ("sym2", "z2", 3),
    ("ela2", "d4", 3),
    ("high2", "d4", 10), ("high2", "d2", 20), ("high2", "z2", 36),
)


def _dim_row(space_name: str, group_name: str, expected: int) -> VerifyRow:
    def run():
        sp, g, _ = _setting(space_name, group_name)
        got = fix_dimension(sp, g)
        return _row(got == expected, expected, got)

    return VerifyRow(f"dim {space_name} x {group_name}", "dims", run)


# ---------------------------------------------------------------------------
# Criterion 2: character identities

# Published characters of the catalog spaces as polynomials in t = tr(Q):
# ascending coefficients keyed by det Q (3D spaces have only proper rotations).
PUBLISHED_CHARACTERS: dict[str, dict[int, tuple]] = {
    "sym2": {1: (-1, 0, 1), -1: (1, 0, 1)},
    "sym3": {1: (0, -1, 1)},
    "ela2": {1: (2, 0, -3, 0, 1), -1: (2, 0, 3, 0, 1)},
    "ela3": {1: (0, 1, 2, -3, 1)},
    "major3": {1: (0, 0, 2, -2, 1)},
    "v1": {1: (0, 0, 0, 1, -2, 1)},
    "v1bar": {1: (0, 0, 0, 1, -2, 1)},
    "v2": {1: (0, 0, -2, -2, 6, -4, 1)},
    "v2bar": {1: (0, 0, -2, -2, 6, -4, 1)},
    "high2": {1: (-4, 0, 6, 0, -3, 0, 1), -1: (4, 0, 6, 0, 3, 0, 1)},
}


def _character_row(space_name: str) -> VerifyRow:
    # the cycle-index character, the direct contraction and the published
    # polynomial are three independent routes to the same class function
    def run():
        sp = SPACES[space_name]
        published = PUBLISHED_CHARACTERS[space_name]
        rng = np.random.default_rng(SEED)
        qs = _random_rotations(rng, 200, sp.n)
        if sp.n == 2:
            qs[1::2] = qs[1::2] @ np.diag([1.0, -1.0])
        coeffs = np.array([published[1 if det > 0.0 else -1] for det in np.linalg.det(qs)])
        poly = np.polynomial.polynomial.polyval(np.trace(qs, axis1=1, axis2=2), coeffs.T,
                                                tensor=False)
        direct = character_direct(sp, qs)
        worst = float(np.max(np.abs([direct - character_closed_form(sp, qs), direct - poly])))
        chi_id = float(character_direct(sp, np.eye(sp.n)))
        ok = worst < 1e-9 and abs(chi_id - sp.dim) < 1e-9
        return _row(ok, f"|direct-closed|, |direct-published| < 1e-9, chi(I) = {sp.dim}",
                    f"worst gap = {worst:.2e}, chi(I) = {chi_id:.6f}")

    return VerifyRow(f"characters {space_name}: closed form + chi(I)", "characters", run)


def _class_function_row() -> VerifyRow:
    def run():
        rng = np.random.default_rng(SEED + 1)
        worst = 0.0
        for name in ("ela3", "major3", "v2bar"):
            sp = SPACES[name]
            draws = _random_rotations(rng, 40, 3)
            q, r = draws[0::2], draws[1::2]  # drawn q, r, q, r, ...
            gap = character_direct(sp, q) - character_direct(sp, r @ q @ r.transpose(0, 2, 1))
            worst = max(worst, float(np.max(np.abs(gap))))
        return _row(worst < 1e-9, "class-function residual < 1e-9", f"{worst:.2e}")

    return VerifyRow("characters: chi(R Q R^-1) = chi(Q)", "characters", run)


def _monotonicity_row() -> VerifyRow:
    def run():
        checks = []
        for name in ("sym2", "ela2", "high2"):
            sp = SPACES[name]
            dims = [fix_dimension(sp, resolve_group(g, 2)) for g in ("trivial", "z2", "d2", "d4")]
            checks.append(dims[0] >= dims[1] >= dims[2] >= dims[3])
        for name in ("major3", "v2bar"):
            sp = SPACES[name]
            checks.append(fix_dimension(sp, resolve_group("so2-e3", 3))
                          >= fix_dimension(sp, resolve_group("o2-e3", 3)))
        return _row(all(checks), "monotone under subgroup inclusion", checks)

    return VerifyRow("characters: dimension monotone on group chains", "characters", run)


# ---------------------------------------------------------------------------
# Criterion 6: Haar quadrature

# the catalog's continuous groups, each with its ambient, in catalog order
CONTINUOUS = tuple((name, ambient) for ambient, names in _AMBIENT_GROUPS
                   for name in names if groups.group_kind(name) == "continuous")


def _haar_normalization_row() -> VerifyRow:
    def run():
        worst = 0.0
        for name, ambient in CONTINUOUS:
            rule = haar_rule(resolve_group(name, ambient), 8)
            worst = max(worst, abs(math.fsum(rule.weights) - 1.0))
        return _row(worst < 1e-12, "sum of weights = 1 (< 1e-12)", f"{worst:.2e}")

    return VerifyRow("haar: rules are normalized", "haar", run)


def _haar_example_row() -> VerifyRow:
    def run():
        val = integrate(resolve_group("so2", 2),
                        lambda q: 3.0 * q[:, 0, 0] ** 2 - q[:, 1, 0] ** 2, 8)
        return _row(abs(val - 1.0) < 1e-12, 1, val)

    return VerifyRow("haar: circle average of 3cos^2 - sin^2 equals 1", "haar", run)


def _poly_integrand(rng, n: int):
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))

    def f(q: np.ndarray) -> np.ndarray:
        t = np.einsum("mii->m", q)
        return (np.sum(a * q, axis=(1, 2)) ** 3 + np.sum(b * q, axis=(1, 2)) ** 2 * t
                + np.einsum("mij,mji->m", q, q) * t)

    return f


def _haar_invariance_row(name: str, ambient: int) -> VerifyRow:
    def run():
        g = resolve_group(name, ambient)
        rng = np.random.default_rng(SEED + 2)
        f = _poly_integrand(rng, ambient)
        h = g.sample_elements()[0].matrix
        base = integrate(g, f, 8)
        left = integrate(g, lambda q: f(h @ q), 8)
        right = integrate(g, lambda q: f(q @ h), 8)
        worst = max(abs(base - left), abs(base - right))
        return _row(worst < 1e-9, "translation residual < 1e-9", f"{worst:.2e}")

    return VerifyRow(f"haar: left/right invariance on {name}", "haar", run)


def _haar_doubling_row() -> VerifyRow:
    def run():
        worst = 0.0
        for name, ambient in CONTINUOUS:
            g = resolve_group(name, ambient)
            sp = SPACES["ela2" if ambient == 2 else "major3"]
            f = lambda q: character_closed_form(sp, q)
            coarse = integrate(g, f, sp.k)
            fine = integrate(g, f, 2 * sp.k + 1)  # doubled node counts
            worst = max(worst, abs(coarse - fine))
        return _row(worst < 1e-10, "node-doubling shift < 1e-10", f"{worst:.2e}")

    return VerifyRow("haar: node-doubling stability", "haar", run)


def _haar_moment_row() -> VerifyRow:
    # the Haar mean of (tr Q)^d is the dimension fixed in the plain order-d
    # space, whose character is (tr Q)^d: exact from its weight polynomial
    def run():
        worst = 0.0
        for name, ambient in CONTINUOUS:
            g = resolve_group(name, ambient)
            for d in range(1, (12 if name == "so3" else 16) + 1):  # so3 rules stop at 12
                exact = exact_dimension(TensorSpace(f"t{d}", ambient, d, ()), name)
                value = integrate(g, lambda q: np.einsum("mii->m", q) ** d, d)
                worst = max(worst, abs(value - exact) / max(1.0, abs(exact)))
        return _row(worst < 1e-9, "rule of degree d integrates (tr Q)^d (rel < 1e-9)",
                    f"{worst:.2e}")

    return VerifyRow("haar: moments of tr Q at the boundary degree", "haar", run)


def _haar_finite_mean_row() -> VerifyRow:
    def run():
        g = resolve_group("cubic", 3)
        f = lambda q: np.einsum("mii->m", q) ** 2 + q[:, 0, 1]
        lhs = integrate(g, f, 4)
        # the mean evaluated one element at a time
        rhs = math.fsum(f(q[None])[0] for q in g.matrices) / g.order()
        return _row(lhs == rhs, "arithmetic mean (bit-exact)", f"diff = {lhs - rhs!r}")

    return VerifyRow("haar: finite rule is the arithmetic mean", "haar", run)


# ---------------------------------------------------------------------------
# Criterion 3: structure patterns

def _parse_pattern(text: str):
    return [line.split() for line in text.strip().splitlines()]


ELA3_ORTHO = _parse_pattern("""
A B C 0 0 0
B D E 0 0 0
C E F 0 0 0
0 0 0 G 0 0
0 0 0 0 H 0
0 0 0 0 0 I
""")

ELA3_TRANSISO = _parse_pattern("""
A B C 0 0 0
B A C 0 0 0
C C D 0 0 0
0 0 0 E 0 0
0 0 0 0 E 0
0 0 0 0 0 F
""")

ELA3_CUBIC = _parse_pattern("""
A B B 0 0 0
B A B 0 0 0
B B A 0 0 0
0 0 0 C 0 0
0 0 0 0 C 0
0 0 0 0 0 C
""")

MAJOR3_ORTHO = _parse_pattern("""
A B C 0 0 0 0 0 0
B D E 0 0 0 0 0 0
C E F 0 0 0 0 0 0
0 0 0 G H 0 0 0 0
0 0 0 H I 0 0 0 0
0 0 0 0 0 J K 0 0
0 0 0 0 0 K L 0 0
0 0 0 0 0 0 0 M N
0 0 0 0 0 0 0 N O
""")

MAJOR3_TRANS_HEMI = _parse_pattern("""
A B C 0 0 0 0 P -P
B A C 0 0 0 0 P -P
C C D 0 0 0 0 Q -Q
0 0 0 E F 0 -G 0 0
0 0 0 F H G 0 0 0
0 0 0 0 G E F 0 0
0 0 0 -G 0 F H 0 0
P P Q 0 0 0 0 R S
-P -P -Q 0 0 0 0 S R
""")

MAJOR3_TRANS_ISO = _parse_pattern("""
A B C 0 0 0 0 0 0
B A C 0 0 0 0 0 0
C C D 0 0 0 0 0 0
0 0 0 E F 0 0 0 0
0 0 0 F H 0 0 0 0
0 0 0 0 0 E F 0 0
0 0 0 0 0 F H 0 0
0 0 0 0 0 0 0 R S
0 0 0 0 0 0 0 S R
""")

MAJOR3_CUBIC = _parse_pattern("""
A B B 0 0 0 0 0 0
B A B 0 0 0 0 0 0
B B A 0 0 0 0 0 0
0 0 0 C D 0 0 0 0
0 0 0 D C 0 0 0 0
0 0 0 0 0 C D 0 0
0 0 0 0 0 D C 0 0
0 0 0 0 0 0 0 C D
0 0 0 0 0 0 0 D C
""")

ELA2_D4 = _parse_pattern("""
A B 0
B A 0
0 0 C
""")

SYM2_O2 = _parse_pattern("""
A 0
0 A
""")

SYM2_D2 = _parse_pattern("""
A 0
0 B
""")

# 18x6 coupling display under the cubic group: two sign-alternating
# columns per axis block plus the circulant zeta block on the pair slots.
V1BAR_CUBIC = _parse_pattern("""
0 0 0 0 0 0
0 0 0 y 0 0
0 0 0 z 0 0
0 0 0 -y 0 0
0 0 0 -z 0 0
0 0 0 0 0 0
0 0 0 0 -y 0
0 0 0 0 -z 0
0 0 0 0 y 0
0 0 0 0 z 0
0 0 0 0 0 0
0 0 0 0 0 y
0 0 0 0 0 z
0 0 0 0 0 -y
0 0 0 0 0 -z
x -x 0 0 0 0
-x 0 x 0 0 0
0 x -x 0 0 0
""")


# the 5x5 axis block (three times) and the 3x3 pair block of the v2bar x cubic display
V2BAR_G1 = _parse_pattern("""
a b c b c
b d e f g
c e h g i
b f g d e
c g i e h
""")

V2BAR_G2 = _parse_pattern("j k k\nk j k\nk k j")


def _symmetric_block_pattern(size: int, prefix: str):
    cells = [[""] * size for _ in range(size)]
    for r in range(size):
        for c in range(r, size):
            cells[r][c] = cells[c][r] = f"{prefix}{r}{c}"
    return cells


def _block_diagonal(blocks):
    """The square blocks in order down the diagonal, zeros elsewhere; a block
    given twice repeats its symbols, so the two copies must be equal."""
    size, start, cells = sum(map(len, blocks)), 0, []
    for block in blocks:
        cells += [["0"] * start + row + ["0"] * (size - start - len(row)) for row in block]
        start += len(block)
    return cells


def _structure_setting(space_name: str, group_name: str, expected_dim: int):
    """A structure row's report, the induced matrix of its projected member,
    the zero tolerance 1e-9 x its largest entry, and the problems so far."""
    sp, g, _ = _setting(space_name, group_name)
    rep = structure_report(sp, g)
    m = induced_matrix(*voigt.STRUCTURE_MAPS[space_name], _projected(space_name, group_name))
    tol = 1e-9 * (float(np.max(np.abs(m))) or 1.0)
    return rep, m, tol, [f"dim {rep.dim} != {expected_dim}"] if rep.dim != expected_dim else []


def _check_pattern(space_name: str, group_name: str, pattern, expected_dim: int,
                   constraints=()) -> RowResult:
    rep, m, tol, problems = _structure_setting(space_name, group_name, expected_dim)
    refs: dict[str, float] = {}
    for r, row in enumerate(pattern):
        for c, token in enumerate(row):
            val = m[r, c]
            if token == "0":
                if abs(val) > tol:
                    problems.append(f"slot ({r + 1},{c + 1}) = {val:.2e}, expected 0")
                if rep.entry(r, c).kind != "zero":
                    problems.append(f"report slot ({r + 1},{c + 1}) not classified zero")
                continue
            sign = -1.0 if token.startswith("-") else 1.0
            symbol = token.lstrip("-")
            if abs(val) <= tol:
                problems.append(f"slot ({r + 1},{c + 1}) vanished but expected {token}")
            if symbol in refs:
                if abs(sign * refs[symbol] - val) > tol:
                    problems.append(
                        f"slot ({r + 1},{c + 1}) = {val:.6f} breaks class {token} "
                        f"(reference {refs[symbol]:.6f})"
                    )
            else:
                refs[symbol] = sign * val
    for want in constraints:
        if want not in rep.constraints:
            problems.append(f"missing constraint {want!r} (got {list(rep.constraints)})")
    return _row(not problems, "pattern + constraints match", "; ".join(problems[:4]) or "match")


def _pattern_row(name: str, space_name: str, group_name: str, pattern,
                 expected_dim: int, constraints=()) -> VerifyRow:
    return VerifyRow(f"structure {name}", "structure",
                     lambda: _check_pattern(space_name, group_name, pattern,
                                            expected_dim, constraints))


def _v2bar_transversal_row(group_name: str, expected_dim: int) -> VerifyRow:
    # Block-level zero pattern of the 18x18 displays: 5+5+5+3 split; the
    # proper-rotation group couples blocks (1,2) and (3,4), the full
    # axis-transversal group is block diagonal.
    def run():
        _, m, tol, problems = _structure_setting("v2bar", group_name, expected_dim)
        bounds = ((0, 5), (5, 10), (10, 15), (15, 18))
        nonzero = {(0, 0), (1, 1), (2, 2), (3, 3)}
        if group_name == "so2-e3":
            nonzero |= {(0, 1), (1, 0), (2, 3), (3, 2)}
        for i, (r0, r1) in enumerate(bounds):
            for j, (c0, c1) in enumerate(bounds):
                mag = float(np.max(np.abs(m[r0:r1, c0:c1])))
                if (i, j) in nonzero and mag < tol:
                    problems.append(f"block ({i + 1},{j + 1}) unexpectedly zero")
                if (i, j) not in nonzero and mag > tol:
                    problems.append(f"block ({i + 1},{j + 1}) = {mag:.2e}, expected 0")
        eq = float(np.max(np.abs(m[0:5, 0:5] - m[5:10, 5:10])))
        if eq > tol:
            problems.append(f"repeated diagonal block differs by {eq:.2e}")
        return _row(not problems, f"dim {expected_dim} + block pattern",
                    "; ".join(problems[:4]) or "match")

    return VerifyRow(f"structure v2bar x {group_name} (blocks)", "structure", run)


# ---------------------------------------------------------------------------
# Criteria 4 and 5: projector properties and the linear-system oracle

# every catalog space with every catalog group of its ambient, 2D spaces first
ALL_PAIRS = tuple((s, g) for ambient, names in _AMBIENT_GROUPS
                  for s, sp in SPACES.items() if sp.n == ambient for g in names)
FINITE_PAIRS = tuple((s, g) for s, g in ALL_PAIRS if groups.group_kind(g) == "finite")


def _restricted_action(space, gens: np.ndarray) -> np.ndarray:
    """``R = B^T Q^(x)k B`` (g x dim x dim): each of g elements acting in orbit coordinates."""
    return space.basis.T @ act(gens, space.k, space.basis)


def _projector_checks(space, m: np.ndarray, gens: np.ndarray) -> dict:
    """The checks of a projector row on the dense n^k x n^k projector
    ``a = (M B) B^T``, computed through its factor ``X = M B`` (n^k x dim).

    ``m`` is the group-averaged action (n^k x n^k) and ``gens`` a stack of
    group elements (g x n x n).  Returns the largest entries ``idem`` of
    |a^2 - a|, ``sym`` of |a - a^T| and ``equiv`` of |Q^(x)k a - a| and
    |a Q^(x)k - a|, the trace ``trace``, the ``rank`` (eigenvalues of
    (a + a^T)/2 above 1/2) and its certificate: the ``margin``
    min |lambda - 1/2| over the eigenvalues of P_s and the ``off_span``
    ||X_perp||_F.
    """
    # Column j of B^T has one entry, s_o = 1/sqrt|o| at the orbit o of j; P = B^T X, tr a = tr P.
    # a[i, j] = X[i, o_j] s_{o_j} and rounding is monotone, so max |a - a^T| = max (hi - lo^T) bit
    #   for bit, hi[o, q] and lo[o, q] the largest and least X[i, q] s_q over the rows i in orbit o.
    # max |Y B^T| = max_{i,o} |Y[i, o]| s_o (``peak``), for a^2 - a = (X P - X) B^T,
    #   Q^(x)k a - a = (Q^(x)k X - X) B^T and a Q^(x)k - a = X (R - I) B^T: (Q^T)^(x)k
    #   commutes with the space's index permutations, so (Q^T)^(x)k B = B R^T.
    # (a + a^T)/2 = B P_s B^T + E, P_s = (P + P^T)/2, E = (X_perp B^T + B X_perp^T)/2,
    #   X_perp = X - B P: X_perp is orthogonal to B, so ||E||_2 <= ||X_perp||_F / 2.
    # Weyl: (a + a^T)/2 has as many eigenvalues above 1/2 as P_s when every
    #   eigenvalue of P_s, and 0, lies farther than ||X_perp||_F / 2 from 1/2.
    b, orbits, k = space.basis, space.orbits, space.k
    s = np.max(b, axis=0)
    peak = lambda y: float(np.max(np.abs(y) * s))
    x = m @ b
    p = b.T @ x
    order = np.argsort(orbits, kind="stable")
    rows, starts = x[order], np.searchsorted(orbits[order], np.arange(s.size))
    hi = np.maximum.reduceat(rows, starts) * s
    lo = np.minimum.reduceat(rows, starts) * s
    eigs = np.linalg.eigvalsh((p + p.T) / 2.0)
    return {
        "idem": peak(x @ p - x),
        "sym": float(np.max(hi - lo.T)),
        "equiv": max(peak(act(gens, k, x) - x), peak(x @ _restricted_action(space, gens) - x)),
        "trace": float(np.trace(p)),
        "rank": int(np.sum(eigs > 0.5)),
        "margin": float(np.min(np.abs(eigs - 0.5))),
        "off_span": float(np.linalg.norm(x - b @ p)),
    }


def _projector_props_row(space_name: str, group_name: str) -> VerifyRow:
    def run():
        sp, g, gens = _setting(space_name, group_name)
        # the dense projector (M B) B^T, checked apart from the dim x dim
        # form that structure_report ranks
        c = _projector_checks(sp, _averaged_action(sp, g), gens)
        dim = fix_dimension(sp, g)
        trace_gap = abs(c["trace"] - dim)
        certified = min(c["margin"], 0.5) > c["off_span"] / 2.0
        ok = (c["idem"] < 1e-9 and c["sym"] < 1e-9 and c["equiv"] < 1e-9
              and certified and c["rank"] == dim and trace_gap < 1e-6)
        rank = f"rank {c['rank']}" + ("" if certified else " uncertified")
        return _row(ok, f"idem/sym/equiv < 1e-9, rank = {dim}, trace gap < 1e-6",
                    f"idem {c['idem']:.1e}, sym {c['sym']:.1e}, {rank}, "
                    f"equiv {c['equiv']:.1e}, trace gap {trace_gap:.1e}, "
                    f"rank margin {c['margin']:.1e}, off-span {c['off_span']:.1e}")

    return VerifyRow(f"projector {space_name} x {group_name}", "projector", run)


def _oracle_row(space_name: str, group_name: str) -> VerifyRow:
    # Joint null space of {Q_g^(x)k - I} restricted to the space, assembled
    # from generators only: independent of the averaging path.
    def run():
        sp, g, gens = _setting(space_name, group_name)
        stack = (_restricted_action(sp, gens) - np.eye(sp.dim)).reshape(-1, sp.dim)
        sv = np.linalg.svd(stack, compute_uv=False)
        rank = int(np.sum(sv > 1e-8 * max(1.0, sv[0] if sv.size else 1.0)))
        null_dim = sp.dim - rank
        dim = fix_dimension(sp, g)
        return _row(null_dim == dim, f"null-space dim {dim}",
                    f"{null_dim}, smallest kept sv {sv[:rank].min(initial=np.inf):.1e}, "
                    f"largest dropped sv {sv[rank:].max(initial=0.0):.1e}")

    return VerifyRow(f"oracle {space_name} x {group_name}", "oracle", run)


# ---------------------------------------------------------------------------
# Criterion 8: slot maps

# Slot -> symmetric index pair of the classical 6x6 convention; entry
# (alpha, beta) of the rendered matrix sources the tensor component with
# the column pair first (pairs are interchangeable by the major symmetry).
VOIGT6_SOURCE_PAIRS = ((0, 0), (1, 1), (2, 2), (2, 1), (2, 0), (1, 0))


def _voigt_roundtrip_row() -> VerifyRow:
    def run():
        rng = np.random.default_rng(SEED + 3)
        worst = 0.0
        for vmap in voigt.ALL_MAPS:
            vec = rng.normal(size=vmap.length)
            worst = max(worst, float(np.max(np.abs(vmap.forward(vmap.inverse(vec)) - vec))))
            arr = vmap.inverse(rng.normal(size=vmap.length)).reshaped()
            back = vmap.inverse(vmap.forward(arr)).reshaped()
            worst = max(worst, float(np.max(np.abs(back - arr))))
        return _row(worst < 1e-14, "roundtrip < 1e-14", f"{worst:.2e}")

    return VerifyRow("voigt: all slot maps roundtrip", "voigt", run)


def _mandel_isometry_row() -> VerifyRow:
    def run():
        rng = np.random.default_rng(SEED + 4)
        x = rng.normal(size=(3, 3))
        x = (x + x.T) / 2.0
        mand = float(np.linalg.norm(MANDEL6.forward(x)))
        frob = float(np.linalg.norm(x))
        gap = abs(mand - frob)
        plain = float(np.linalg.norm(VOIGT6.forward(x)))
        not_isometry = abs(plain - frob) > 1e-6
        return _row(gap < 1e-12 and not_isometry,
                    "mandel isometric, plain voigt not",
                    f"mandel gap {gap:.2e}, plain gap {abs(plain - frob):.2e}")

    return VerifyRow("voigt: mandel isometry", "voigt", run)


def _slot_sourcing_row() -> VerifyRow:
    def run():
        t = _random_member("ela3")
        arr = t.reshaped()
        m = induced_matrix(VOIGT6, VOIGT6, t)
        worst = 0.0
        for a, pa in enumerate(VOIGT6_SOURCE_PAIRS):
            for b, pb in enumerate(VOIGT6_SOURCE_PAIRS):
                worst = max(worst, abs(m[a, b] - arr[pb + pa]))
        eye_sym = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
        eye_sym = (eye_sym + np.einsum("il,jk->ijkl", np.eye(3), np.eye(3))) / 2.0
        rendered = induced_matrix(VOIGT6, VOIGT6, FlatTensor.from_array(eye_sym))
        diag_gap = float(np.max(np.abs(rendered - np.diag([1, 1, 1, 0.5, 0.5, 0.5]))))
        return _row(worst < 1e-12 and diag_gap < 1e-12,
                    "slot sources match the component table",
                    f"sweep {worst:.2e}, identity render gap {diag_gap:.2e}")

    return VerifyRow("voigt: 6x6 slot sourcing sweep", "voigt", run)


def _extended_order_row() -> VerifyRow:
    # 18-slot assignment, 1-based (pair, pair, last): the published table.
    published = ((1, 1, 1), (2, 2, 1), (1, 2, 2), (3, 3, 1), (1, 3, 3),
                 (2, 2, 2), (1, 1, 2), (1, 2, 1), (3, 3, 2), (2, 3, 3),
                 (3, 3, 3), (1, 1, 3), (1, 3, 1), (2, 2, 3), (2, 3, 2),
                 (1, 2, 3), (1, 3, 2), (2, 3, 1))

    def run():
        ours = tuple(tuple(i + 1 for i in idx) for idx in EXTENDED18_ORDER)
        if ours != published:
            return _row(False, published, ours)
        # basis behaviour: sigma_111 -> slot 1, sigma_123 -> slot 16
        s111 = np.zeros((3, 3, 3)); s111[0, 0, 0] = 1.0
        v = EXTENDED18.forward(s111)
        ok1 = abs(v[0] - 1.0) < 1e-14 and float(np.max(np.abs(np.delete(v, 0)))) < 1e-14
        s123 = np.zeros((3, 3, 3))
        s123[0, 1, 2] = s123[1, 0, 2] = 1.0 / math.sqrt(2.0)
        v = EXTENDED18.forward(s123)
        ok2 = abs(v[15] - 1.0) < 1e-14 and float(np.max(np.abs(np.delete(v, 15)))) < 1e-14
        return _row(ok1 and ok2, "orthonormal basis maps to unit slots", (ok1, ok2))

    return VerifyRow("voigt: 18-slot ordering matches the published table", "voigt", run)


def _axl_row() -> VerifyRow:
    def run():
        rng = np.random.default_rng(SEED + 5)
        vec = rng.normal(size=3)
        skew = anti(vec)
        ok1 = float(np.max(np.abs(axl(skew) - vec))) < 1e-14
        e3 = anti(np.array([0.0, 0.0, 1.0]))
        ok2 = float(np.max(np.abs(e3 - np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]])))) == 0.0
        v = rng.normal(size=3)
        ok3 = float(np.max(np.abs(skew @ v - np.cross(vec, v)))) < 1e-14
        return _row(ok1 and ok2 and ok3, "axl/anti identities", (ok1, ok2, ok3))

    return VerifyRow("voigt: axl and anti", "voigt", run)


def _transiso_relation_row() -> VerifyRow:
    def run():
        m = induced_matrix(VOIGT6, VOIGT6, _projected("ela3", "so2-e3"))
        gap = abs(m[0, 0] - m[0, 1] - 2.0 * m[5, 5])
        return _row(gap < 1e-9, "C11 - C12 - 2 C66 = 0", f"{gap:.2e}")

    return VerifyRow("voigt: transversely isotropic 6x6 relation", "voigt", run)


# ---------------------------------------------------------------------------
# Criterion 7: isotropic moduli

def _moduli_rows() -> list:
    def run_example():
        lam, mu, mu_c = extract_isotropic_moduli({"C12": 1.0, "C44": 3.0, "C45": 1.0})
        ok = (lam, mu, mu_c) == (1.0, 2.0, 1.0)
        return _row(ok, "(1, 2, 1)", (lam, mu, mu_c))

    def run_roundtrip():
        rng = np.random.default_rng(SEED + 6)
        worst = 0.0
        for _ in range(5):
            lam, mu, mu_c = rng.normal(size=3)
            m = isotropic_nine_matrix(lam, mu, mu_c)
            back = moduli_from_matrix(m)
            worst = max(worst, max(abs(back[0] - lam), abs(back[1] - mu), abs(back[2] - mu_c)))
            again = isotropic_nine_matrix(*back)
            worst = max(worst, float(np.max(np.abs(again - m))))
        return _row(worst < 1e-12, "roundtrip residual < 1e-12", f"{worst:.2e}")

    def run_symmetric_only():
        m = isotropic_nine_matrix(0.7, 1.3, 0.0)
        _, _, mu_c = moduli_from_matrix(m)
        ok = mu_c == 0.0 and m[3, 3] == m[3, 4]
        lam, mu, mu_c2 = extract_isotropic_moduli({"C12": 0.5, "C44": 2.0, "C45": 2.0})
        return _row(ok and mu_c2 == 0.0, "mu_c = 0 iff C44 = C45", (mu_c, mu_c2))

    def run_invariant_matrix():
        # the projector's isotropic output is exactly the two-parameter family
        m = induced_matrix(NINE_SLOT, NINE_SLOT, _projected("major3", "so3"))
        lam, mu, mu_c = moduli_from_matrix(m)
        gap = float(np.max(np.abs(m - isotropic_nine_matrix(lam, mu, mu_c))))
        return _row(gap < 1e-9, "9x9 matches the modulus form < 1e-9", f"{gap:.2e}")

    return [
        VerifyRow("moduli: worked example (1, 3, 1)", "moduli", run_example),
        VerifyRow("moduli: matrix roundtrip", "moduli", run_roundtrip),
        VerifyRow("moduli: mu_c = 0 iff C44 = C45", "moduli", run_symmetric_only),
        VerifyRow("moduli: projected tensor fits the modulus form", "moduli", run_invariant_matrix),
    ]


# ---------------------------------------------------------------------------
# Criterion 9: published component averages (cubic case)

def _spot_rows() -> list:
    def c(t, idx):  # the component at a 1-based index
        return t[tuple(i - 1 for i in idx)]

    def run_v2bar():
        g = _random_member("v2bar", 7).reshaped()
        proj = _projected("v2bar", "cubic", 7).reshaped()
        gamma11 = (c(g, (1, 2, 3, 1, 2, 3)) + c(g, (1, 3, 2, 1, 3, 2))
                   + c(g, (2, 3, 1, 2, 3, 1))) / 3.0
        gamma12 = (c(g, (1, 2, 3, 1, 3, 2)) + c(g, (1, 2, 3, 2, 3, 1))
                   + c(g, (1, 3, 2, 2, 3, 1))) / 3.0
        eta22 = (c(g, (1, 1, 2, 1, 1, 2)) + c(g, (1, 1, 3, 1, 1, 3))
                 + c(g, (2, 2, 1, 2, 2, 1)) + c(g, (2, 2, 3, 2, 2, 3))
                 + c(g, (3, 3, 1, 3, 3, 1)) + c(g, (3, 3, 2, 3, 3, 2))) / 6.0
        eta24 = (c(g, (1, 1, 2, 3, 3, 2)) + c(g, (1, 1, 3, 2, 2, 3))
                 + c(g, (2, 2, 1, 3, 3, 1))) / 3.0
        worst = max(abs(c(proj, (1, 2, 3, 1, 2, 3)) - gamma11),
                    abs(c(proj, (1, 2, 3, 1, 3, 2)) - gamma12),
                    abs(c(proj, (1, 1, 2, 1, 1, 2)) - eta22),
                    abs(c(proj, (1, 1, 2, 3, 3, 2)) - eta24))
        return _row(worst < 1e-9, "gamma/eta averages < 1e-9", f"{worst:.2e}")

    def run_v1bar():
        h = _random_member("v1bar", 8).reshaped()
        proj = _projected("v1bar", "cubic", 8).reshaped()
        zeta1 = (-c(h, (1, 1, 2, 1, 3)) + c(h, (1, 1, 3, 1, 2)) + c(h, (2, 2, 1, 2, 3))
                 - c(h, (2, 2, 3, 1, 2)) - c(h, (3, 3, 1, 2, 3)) + c(h, (3, 3, 2, 1, 3))) / 6.0
        zeta2 = (c(h, (1, 2, 3, 1, 1)) - c(h, (1, 2, 3, 2, 2)) - c(h, (1, 3, 2, 1, 1))
                 + c(h, (1, 3, 2, 3, 3)) + c(h, (2, 3, 1, 2, 2)) - c(h, (2, 3, 1, 3, 3))) / 6.0
        zeta3 = (c(h, (1, 2, 1, 1, 3)) - c(h, (1, 2, 2, 2, 3)) - c(h, (1, 3, 1, 1, 2))
                 + c(h, (1, 3, 3, 2, 3)) + c(h, (2, 3, 2, 1, 2)) - c(h, (2, 3, 3, 1, 3))) / 6.0
        worst = max(abs(c(proj, (1, 1, 3, 1, 2)) - zeta1),
                    abs(c(proj, (1, 2, 3, 1, 1)) - zeta2),
                    abs(c(proj, (1, 2, 1, 1, 3)) - zeta3))
        return _row(worst < 1e-9, "zeta averages < 1e-9", f"{worst:.2e}")

    return [
        VerifyRow("spot: cubic gamma/eta component averages", "spot", run_v2bar),
        VerifyRow("spot: cubic zeta component averages", "spot", run_v1bar),
    ]


# ---------------------------------------------------------------------------
# Table assembly

def build_rows() -> list:
    rows: list[VerifyRow] = []
    rows += [_dim_row(s, g, d) for s, g, d in DIMENSION_TABLE]
    rows += [_character_row(name) for name in SPACES]
    rows += [_class_function_row(), _monotonicity_row()]
    rows += [
        _haar_normalization_row(),
        _haar_example_row(),
        *(_haar_invariance_row(name, ambient) for name, ambient in CONTINUOUS),
        _haar_doubling_row(),
        _haar_moment_row(),
        _haar_finite_mean_row(),
    ]
    high2_block = _symmetric_block_pattern(4, "s")
    rows += [
        _pattern_row("ela3 orthotropic", "ela3", "d2", ELA3_ORTHO, 9),
        _pattern_row("ela3 transversely isotropic", "ela3", "so2-e3", ELA3_TRANSISO, 5,
                     ("C11 = C12 + 2 C66",)),
        _pattern_row("ela3 cubic", "ela3", "cubic", ELA3_CUBIC, 3),
        _pattern_row("ela3 isotropic", "ela3", "so3", ELA3_CUBIC, 2,
                     ("C11 = C12 + 2 C44",)),
        _pattern_row("major3 orthotropic", "major3", "d2", MAJOR3_ORTHO, 15),
        _pattern_row("major3 transversal hemitropic", "major3", "so2-e3",
                     MAJOR3_TRANS_HEMI, 11, ("C11 = C12 + C88 + C89",)),
        _pattern_row("major3 transversal isotropic", "major3", "o2-e3",
                     MAJOR3_TRANS_ISO, 8, ("C11 = C12 + C88 + C89",)),
        _pattern_row("major3 cubic", "major3", "cubic", MAJOR3_CUBIC, 4),
        _pattern_row("major3 isotropic", "major3", "so3", MAJOR3_CUBIC, 3,
                     ("C11 = C12 + C44 + C45",)),
        _pattern_row("v2bar cubic blocks", "v2bar", "cubic",
                     _block_diagonal([V2BAR_G1] * 3 + [V2BAR_G2]), 11),
        _pattern_row("v1bar cubic", "v1bar", "cubic", V1BAR_CUBIC, 3),
        _v2bar_transversal_row("so2-e3", 31),
        _v2bar_transversal_row("o2-e3", 21),
        _pattern_row("ela2 d4", "ela2", "d4", ELA2_D4, 3),
        _pattern_row("high2 d4", "high2", "d4", _block_diagonal([high2_block, high2_block]), 10),
        _pattern_row("high2 d2", "high2", "d2",
                     _block_diagonal([high2_block, _symmetric_block_pattern(4, "t")]), 20),
        _pattern_row("high2 z2", "high2", "z2", _symmetric_block_pattern(8, "u"), 36),
        _pattern_row("sym2 o2", "sym2", "o2", SYM2_O2, 1),
        _pattern_row("sym2 d4", "sym2", "d4", SYM2_O2, 1),
        _pattern_row("sym2 d2", "sym2", "d2", SYM2_D2, 2),
    ]
    rows += [_projector_props_row(s, g) for s, g in ALL_PAIRS]
    rows += [_oracle_row(s, g) for s, g in FINITE_PAIRS]
    rows += [
        _voigt_roundtrip_row(),
        _mandel_isometry_row(),
        _slot_sourcing_row(),
        _extended_order_row(),
        _axl_row(),
        _transiso_relation_row(),
    ]
    rows += _moduli_rows()
    rows += _spot_rows()
    return rows


def run_rows(categories=None):
    """Run (a subset of) the table; yields (row, result) pairs."""
    wanted = set(categories) if categories else None
    for row in build_rows():
        if wanted is not None and row.category not in wanted:
            continue
        try:
            result = row.run()
        except Exception as exc:  # a crashed check is a failed check
            result = RowResult(False, "no exception", f"{type(exc).__name__}: {exc}")
        yield row, result
