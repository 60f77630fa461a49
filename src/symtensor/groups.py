"""Finite subgroups of O(2) and O(3), and the catalog's continuous groups in
SO(3) and O(2), with normalized Haar integration.

``resolve_group(name, ambient, axis)`` builds every catalog group from the
name a user types (``z4``, ``cubic``, ``so2-e3``, ...).  A group's
``catalog_id`` is that name, with the ambient appended for the cyclic and
dihedral groups (``z4_3d``).

A finite group holds its elements as one read-only (m, n, n) matrix stack
with one label per element.  Construction checks the whole stack at once:
orthogonality in one stacked call, rotations and reflections alike, then
the identity and all m^2 products as one product table.  A Haar integral is
a weighted sum over a quadrature rule, an (m, n, n) stack of orthogonal
matrices with m weights, and integrands are evaluated on the whole stack at
once.  Continuous groups get the smallest rules of their kind that are
exact for polynomials in the matrix entries up to a requested degree d:

* the circle groups (SO(2), O(2) and their SO(3) embeddings about an
  axis) use the element list of the cyclic or dihedral group of order
  d + 1 about the same axis, with uniform weights: the trapezoid rule,
  whose N nodes integrate e^{i m theta} exactly for |m| < N, and a
  degree-d polynomial in the entries has frequencies |m| <= d,
* SO(3) uses a product rule over Euler angles: d + 1 uniform nodes in
  each of the two circle angles and d // 2 + 1 Gauss-Legendre nodes in
  u = cos(theta), which absorbs the sin(theta) Jacobian of the invariant
  volume element.  The circle angles leave only D^l_00 = P_l(cos theta)
  with l <= d, and that many Gauss-Legendre nodes are exact up to degree
  2 (d // 2) + 1 >= d in u.

The SO(3) rule is a product of three one-parameter rules, turns about e3,
tilts about e2 and turns again, and the mean of Q^{(x)k} over it is the
product of their three means.  ``so3_factors`` alone builds those nodes
and holds the degree-12 cap; ``haar_rule`` multiplies them into the flat
(d + 1)^2 (d // 2 + 1)-node rule, while production averaging applies the
2 (d + 1) + d // 2 + 1 factor nodes.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .catalog import GROUPS_2D, GROUPS_3D, catalog_key
from .core import _check_orthogonal, _frozen

CLOSURE_TOL = 1e-10
# Gram entries per pass of the closure check: one pass for every catalog
# group (m^2 <= 576), bounded memory for a large user-built one
_TABLE_BLOCK = 1 << 18

# every group of rotations about one axis, by catalog name: its order (0 for
# a circle group) and whether it has an improper coset
_AXIAL = {"z2": (2, False), "z3": (3, False), "z4": (4, False), "z6": (6, False),
          "d2": (2, True), "d3": (3, True), "d4": (4, True), "d6": (6, True),
          "so2": (0, False), "o2": (0, True), "so2-e3": (0, False), "o2-e3": (0, True)}
# the ambient of each continuous group
_CONTINUOUS = {"so2": 2, "o2": 2, "so2-e3": 3, "o2-e3": 3, "so3": 3}

# Coset representatives for the improper halves, fixed so output is
# deterministic: a reflection in 2D, a rotation by pi about e1 in 3D.
REFLECTION_2D = np.array([[-1.0, 0.0], [0.0, 1.0]])
FLIP_E1_3D = np.diag([1.0, -1.0, -1.0])


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An orthogonal matrix with a human-readable label."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = _frozen(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 3):
            raise ValueError(f"group element must be a 2x2 or 3x3 matrix, got {m.shape}")
        _check_orthogonal(m, f"group element {self.label!r}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Normalized Haar integral: an (m, n, n) stack of orthogonal matrices, m weights."""

    matrices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        mats, weights = _frozen(self.matrices), _frozen(self.weights)
        if mats.shape[1:] not in ((2, 2), (3, 3)) or weights.shape != mats.shape[:1]:
            raise ValueError(f"rule shapes {mats.shape}, {weights.shape} are not (m, n, n), (m,)")
        if np.any(weights <= 0.0):
            raise ValueError("all quadrature weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
        _check_orthogonal(mats, "quadrature node")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.weights)


def _uniform_rule(mats: np.ndarray) -> QuadratureRule:
    """Uniform weights over a stack a ``SymmetryGroup`` has already checked:
    the rule holds that read-only stack itself, with no copy and no second
    check."""
    rule = object.__new__(QuadratureRule)
    object.__setattr__(rule, "matrices", mats)
    object.__setattr__(rule, "weights", _frozen(np.full(len(mats), 1.0 / len(mats))))
    return rule


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """A finite subgroup of O(2) or O(3), or a continuous catalog group in
    SO(3) or O(2).

    A finite group holds its elements as ``matrices``, a read-only
    (m, n, n) stack, with one entry of ``labels`` per element; a continuous
    one has none, and its ``catalog_id`` (``so2``, ``o2``, ``so2-e3``,
    ``o2-e3`` or ``so3``) selects its Haar rule.  ``generators`` is a small
    generating (finite case, each within CLOSURE_TOL of an element) or
    sampling (continuous case) set of ``GroupElement`` used by invariance
    checks and the linear-system oracle.
    3D groups built about a non-default axis carry the conjugating rotation
    in ``frame``, which must be an orthogonal 3x3 matrix.
    """

    ambient: int
    catalog_id: str
    matrices: Optional[np.ndarray] = None
    labels: tuple = ()
    generators: tuple = ()
    frame: Optional[np.ndarray] = None

    def __post_init__(self):
        name, n = self.catalog_id, self.ambient
        if self.frame is not None:
            object.__setattr__(self, "frame", _frozen(self.frame))
            if n != 3 or self.frame.shape != (3, 3):
                raise ValueError(f"group {name!r} on R^{n}: a frame belongs to a 3D group "
                                 f"and must be 3x3, got shape {self.frame.shape}")
            _check_orthogonal(self.frame, f"the frame of group {name!r}")
        if self.matrices is None:
            if _CONTINUOUS.get(name) != n:
                raise ValueError(f"group {name!r} has no elements and is not a "
                                 f"continuous group on R^{n}")
            return
        mats, labels = _frozen(self.matrices), tuple(self.labels)
        if n not in (2, 3):
            raise ValueError(f"group {name!r}: finite groups act on R^2 or R^3, not R^{n}")
        if mats.shape[1:] != (n, n):
            raise ValueError(f"group {name!r} acts on R^{n}, but its elements "
                             f"({', '.join(map(str, labels))}) form a stack of shape "
                             f"{mats.shape}, not (m, {n}, {n})")
        if len(labels) != len(mats):
            raise ValueError(f"group {name!r} has {len(mats)} elements and {len(labels)} labels")
        _check_orthogonal(mats, f"an element of group {name!r}")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "labels", labels)
        try:
            closure_check(mats, labels)
        except ValueError as exc:
            raise ValueError(f"group {name!r} fails closure: {exc}") from None
        flat = mats.reshape(len(mats), n * n)
        for i, gen in enumerate(self.generators):
            # the nearest element, in max-abs, must lie within CLOSURE_TOL
            if not (gen.matrix.shape == (n, n)
                    and np.abs(flat - gen.matrix.reshape(-1)).max(axis=1).min() < CLOSURE_TOL):
                raise ValueError(f"group {name!r}: generator {i} ({gen.label}) is not "
                                 f"one of its elements")

    @property
    def is_finite(self) -> bool:
        return self.matrices is not None

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("continuous groups have no finite order")
        return len(self.matrices)

    @functools.cached_property
    def elements(self) -> tuple:
        """The finite group's elements as labelled ``GroupElement``s, built on
        first use; () for a continuous group."""
        if not self.is_finite:
            return ()
        return tuple(GroupElement(q, label) for q, label in zip(self.matrices, self.labels))

    def sample_elements(self) -> tuple:
        """Elements used for invariance spot checks: the generators, else the elements."""
        return self.generators or self.elements


def rotation_2d(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_z(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_y(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def axis_aligner(axis) -> np.ndarray:
    """Rotation carrying e3 to the direction of ``axis`` (deterministic).

    ``axis`` is any nonzero 3-vector with finite components; anything else
    raises ``ValueError``.  It is divided by the power of two that puts its
    largest |component| in [1/2, 1), an exact step that keeps 1e200 and
    1e-200 components from overflowing or underflowing the norm, and then
    normalized; so any direction and its positive multiples give one frame.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,) or not np.all(np.isfinite(axis)) or not np.any(axis):
        raise ValueError(f"axis must be nonzero with finite components, got {axis.tolist()}")
    axis = np.ldexp(axis, -math.frexp(float(np.max(np.abs(axis))))[1])
    axis = axis / np.linalg.norm(axis)
    e3 = np.array([0.0, 0.0, 1.0])
    c = float(axis @ e3)
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    v = np.cross(e3, axis)
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def _axial(ambient: int, theta: float, improper: bool, frame) -> np.ndarray:
    """Rotation by ``theta`` about the group's axis, times the coset
    representative if ``improper``."""
    if ambient == 2:
        q, coset = rotation_2d(theta), REFLECTION_2D
    else:
        q, coset = rotation_z(theta), FLIP_E1_3D
    if improper:
        q = q @ coset
    if frame is not None:
        q = frame @ q @ frame.T
    return q


def _axial_matrices(ambient: int, count: int, improper: bool, frame) -> np.ndarray:
    """The rotations by 2 pi j / count, j = 0..count-1, followed (if
    ``improper``) by the same rotations times the coset representative: the
    cyclic or dihedral group of order ``count`` about the frame's axis."""
    return np.stack([_axial(ambient, 2 * np.pi * j / count, coset, frame)
                     for coset in (False, True)[:1 + improper] for j in range(count)])


def closure_check(matrices: np.ndarray, labels) -> None:
    """Check that an (m, n, n) stack of orthogonal matrices, one label per
    element, is a group; raise ``ValueError`` naming the first failure.

    An empty stack fails first, then a stack without the identity.  Then
    every product matrices[i] @ matrices[j] is matched to its nearest
    element, the largest entry of the Gram matrix ``prod @ matrices.T``
    (for orthogonal matrices |P - M|_F^2 = 2n - 2 <P, M>), and must lie
    within CLOSURE_TOL of it in max-abs; the first miss in row-major (i, j)
    order is reported by both elements.  Last, with every product in the
    set, a row of that product table which is no permutation maps two
    elements to one: they repeat, and both are named.  A candidate element
    list is vetted by building the ``SymmetryGroup``, which checks
    orthogonality and then calls this.
    """
    m = len(matrices)
    if not m:
        raise ValueError("empty element list")
    n = matrices.shape[1]
    if not np.any(np.max(np.abs(matrices - np.eye(n)), axis=(1, 2)) < CLOSURE_TOL):
        raise ValueError("identity element missing")
    flat = matrices.reshape(m, n * n)
    table = np.empty((m, m), dtype=np.intp)
    rows = max(1, _TABLE_BLOCK // (m * m))
    for start in range(0, m, rows):
        prods = matrices[start:start + rows, None] @ matrices  # prods[i, j] = mats[i] @ mats[j]
        nearest = np.argmax(prods.reshape(-1, n * n) @ flat.T, axis=1).reshape(-1, m)
        gap = np.max(np.abs(prods - matrices[nearest]), axis=(2, 3))
        missing = np.flatnonzero(~(gap < CLOSURE_TOL))  # NaN misses too
        if missing.size:
            i, j = divmod(int(missing[0]), m)
            i += start
            raise ValueError(f"product of elements {i} ({labels[i]}) and {j} ({labels[j]}) "
                             f"not in set")
        table[start:start + rows] = nearest
    shuffled = np.flatnonzero(np.any(np.sort(table, axis=1) != np.arange(m), axis=1))
    if shuffled.size:
        row = table[shuffled[0]].tolist()
        later = next(j for j in range(m) if row[j] in row[:j])
        first = row.index(row[later])
        raise ValueError(f"elements {first} ({labels[first]}) and {later} ({labels[later]}) "
                         f"are the same element")


def _check_degree(degree) -> None:
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) or degree < 1:
        raise ValueError(f"degree must be an integer >= 1, got {degree!r}")


def haar_rule(g: SymmetryGroup, max_poly_degree: int) -> QuadratureRule:
    """Quadrature rule realizing the normalized Haar measure on ``g``.

    Finite groups get their own element stack, not copied, with uniform
    weights 1/|G|.  A circle group gets the elements of the cyclic
    (SO(2)-type) or dihedral (O(2)-type) group of order degree + 1 about
    its axis, with uniform weights.  SO(3) uses the product rule over
    (phi, theta, psi) in [0,2pi] x [0,pi] x [0,2pi] with the invariant density
    sin(theta)/(8 pi^2): degree + 1 uniform nodes in phi and in psi and
    degree // 2 + 1 Gauss-Legendre nodes in u = cos(theta), node Rz(phi)
    Ry(arccos u) Rz(psi) in (phi, u, psi) order, the product of the nodes
    of ``so3_factors`` with weight u_j / (2 (degree + 1)^2).  Each is exact
    (up to roundoff) for polynomials in the matrix entries of total degree
    <= max_poly_degree, with the fewest nodes of its kind (see the module
    docstring).  The caller states the degree, an integer >= 1 and at most
    12 on so3: orders k <= 12 at the degree k the library integrates at.
    The flat SO(3) rule serves ``integrate``, ``fix_dimension`` and the
    verification checks; ``averaged_projector`` and ``project`` apply its
    three factors instead.
    """
    _check_degree(max_poly_degree)
    if g.is_finite:
        return _uniform_rule(g.matrices)
    name = g.catalog_id
    if name != "so3":
        mats = _axial_matrices(g.ambient, max_poly_degree + 1, _AXIAL[name][1], g.frame)
        return QuadratureRule(mats, np.full(len(mats), 1.0 / len(mats)))

    turn, tilt, _ = so3_factors(max_poly_degree)
    mats = (turn.matrices[:, None] @ tilt.matrices)[:, :, None] @ turn.matrices
    weights = np.broadcast_to(tilt.weights[:, None] / len(turn) ** 2, mats.shape[:3])
    return QuadratureRule(mats.reshape(-1, 3, 3), weights.reshape(-1))


def so3_factors(max_poly_degree: int) -> tuple:
    """The SO(3) rule of ``haar_rule`` as its three normalized one-parameter
    factors, in (phi, u, psi) order: the degree + 1 turns Rz(2 pi j /
    (degree + 1)) with uniform weights, the degree // 2 + 1 tilts
    Ry(arccos u) at the Gauss-Legendre nodes u with half the Gauss-Legendre
    weights, and the turns again (the same rule object).

    This is the one builder of SO(3) nodes: ``haar_rule`` multiplies them
    into its flat rule, node (i, j, l) the product of node i, j and l of
    the factors, so the flat rule's mean of Q^{(x)k} is the product of the
    factors' three means, 2 (d + 1) + d // 2 + 1 nodes in place of
    (d + 1)^2 (d // 2 + 1).  The degree is an integer >= 1 and at most 12;
    any other raises ``ValueError``.
    """
    _check_degree(max_poly_degree)
    if max_poly_degree > 12:
        raise ValueError(f"max_poly_degree must be <= 12 on so3, got {max_poly_degree}")
    count = max_poly_degree + 1
    turns = np.stack([rotation_z(2 * np.pi * j / count) for j in range(count)])
    u_nodes, u_weights = np.polynomial.legendre.leggauss(max_poly_degree // 2 + 1)
    tilts = np.stack([rotation_y(float(np.arccos(u))) for u in u_nodes])
    turn = QuadratureRule(turns, np.full(count, 1.0 / count))
    return turn, QuadratureRule(tilts, u_weights / 2), turn


def integrate(g: SymmetryGroup, f: Callable[[np.ndarray], np.ndarray], degree: int) -> float:
    """Haar integral over ``g`` of ``f``, a map from an (m, n, n) stack to its m
    values; exact for polynomials in the matrix entries of degree <= ``degree``,
    an integer >= 1 with no default (a lower one is silently inexact).

    Finite groups take the arithmetic mean over the element list; the
    quadrature path accumulates with exact summation in node order, so
    repeated runs are bit-identical.
    """
    _check_degree(degree)
    if g.is_finite:
        return math.fsum(f(g.matrices)) / g.order()
    rule = haar_rule(g, degree)
    return math.fsum(rule.weights * f(rule.matrices))


# ---------------------------------------------------------------------------
# The catalog

CATALOG_NAMES = tuple(dict.fromkeys(GROUPS_2D + GROUPS_3D))


def group_kind(name: str) -> str:
    """``"finite"`` or ``"continuous"``, the kind of a catalog group, without building it."""
    return "continuous" if catalog_key(name, CATALOG_NAMES, "group") in _CONTINUOUS else "finite"


def _cube_rotations() -> tuple:
    """The rotations of the cube, the signed permutation matrices with det +1,
    as a (24, 3, 3) stack, and their labels."""
    perms = list(itertools.permutations(range(3)))
    signs = list(itertools.product((1, -1), repeat=3))
    flips = np.array([np.diag(s) for s in signs], dtype=float)
    mats = (flips[None] @ np.eye(3)[np.array(perms)][:, None]).reshape(-1, 3, 3)
    proper = np.linalg.det(mats) > 0.0
    labels = tuple(f"signed_perm{perm}{sign}" for (perm, sign), keep
                   in zip(itertools.product(perms, signs), proper) if keep)
    return mats[proper], labels


def resolve_group(name: str, ambient: int, axis=None) -> SymmetryGroup:
    """Build the catalog group ``name`` acting on R^ambient.

    ``z<n>`` and ``d<n>`` are the cyclic and dihedral groups of order n of
    the plane for 2D spaces (``d<n>`` adjoins the reflection diag(-1, 1))
    and their SO(3) embeddings about ``axis`` (default e3) for 3D spaces
    (``d<n>`` adjoins the half-turn about an in-plane axis).  ``so2`` and
    ``o2`` act on the plane; ``so2-e3`` and ``o2-e3`` turn about ``axis``.
    ``cubic`` is the 24-element rotation group of the cube, ``so3`` the full
    rotation group and ``trivial`` is {I}.  An ambient other than 2 or 3,
    or a group that does not act on it, raises ``KeyError``; an ``axis``
    for any group but a 3D axial one raises ``ValueError``, and so does
    one that ``axis_aligner`` refuses.
    """
    key = catalog_key(name, CATALOG_NAMES, "group")
    fitting = {2: GROUPS_2D, 3: GROUPS_3D}.get(ambient, ())
    if key not in fitting:
        raise KeyError(f"group {key!r} does not act on {ambient}D spaces; "
                       f"groups for them: {', '.join(fitting) or 'none'}")
    frame = None
    if axis is not None:
        if ambient != 3 or key not in _AXIAL:
            raise ValueError(f"an axis applies only to the axial groups in 3D "
                             f"(z*, d*, so2-e3, o2-e3), not to {key}")
        frame = axis_aligner(axis)
        if np.max(np.abs(frame - np.eye(3))) < 1e-15:
            frame = None  # the default axis e3
    if key == "trivial":
        eye = np.eye(ambient)
        return SymmetryGroup(ambient, key, eye[None], ("id",),
                             generators=(GroupElement(eye, "id"),))
    if key == "cubic":
        gens = (GroupElement(rotation_z(np.pi / 2).round(12), "rot(e3,pi/2)"),
                GroupElement(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                             "rot(111,2pi/3)"))
        return SymmetryGroup(3, key, *_cube_rotations(), generators=gens)
    if key == "so3":
        gens = (GroupElement(rotation_z(0.9), "rot(e3,0.9)"),
                GroupElement(rotation_y(1.3), "rot(e2,1.3)"),
                GroupElement(rotation_z(np.pi / 2).round(12) @ rotation_y(0.4), "mixed"))
        return SymmetryGroup(3, key, generators=gens)
    order, improper = _AXIAL[key]
    if not order:
        # a generic rotation, then a second one or the coset representative
        gens = tuple(GroupElement(_axial(ambient, theta, coset, frame)) for theta, coset
                     in ((0.9, False), (0.0, True) if improper else (2.31, False)))
        return SymmetryGroup(ambient, key, generators=gens, frame=frame)
    mats = _axial_matrices(ambient, order, improper, frame)
    labels = tuple(f"{key}[{i}]" for i in range(len(mats)))
    gens = tuple(GroupElement(mats[i], labels[i]) for i in (1, order)[:1 + improper])
    return SymmetryGroup(ambient, f"{key}_{ambient}d", mats, labels, generators=gens,
                         frame=frame)
