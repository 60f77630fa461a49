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
    generating (finite case) or sampling (continuous case) set of
    ``GroupElement`` used by invariance checks and the linear-system oracle.
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
        report = closure_check(self)
        if not report.passed:
            raise ValueError(f"group {name!r} fails closure: {report.message}")

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


@dataclass(frozen=True)
class ClosureReport:
    passed: bool
    message: str = ""
    witness: Optional[tuple] = None


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
    """Rotation carrying e3 to the requested unit axis (deterministic)."""
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,) or not np.all(np.isfinite(axis)):
        raise ValueError("axis must be a finite 3-vector")
    if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
        raise ValueError(f"axis must be a unit vector, |axis| = {np.linalg.norm(axis)!r}")
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


def _table_failure(mats: np.ndarray, labels) -> Optional[tuple]:
    """The first way a nonempty (m, n, n) stack of orthogonal matrices fails
    to be a group, as (message, index pair of the witnesses or None), or
    None if it is one.

    The identity is checked first.  Then every product mats[i] @ mats[j]
    is matched to its nearest element, the largest entry of the Gram matrix
    ``prod @ mats.T`` (for orthogonal matrices |P - M|_F^2 = 2n - 2 <P, M>),
    and must lie within CLOSURE_TOL of it in max-abs; the first miss in
    row-major (i, j) order is reported.  Last, with every product in the
    set, a row of that product table which is no permutation maps two
    elements to one: they repeat.
    """
    m, n = mats.shape[:2]
    if not np.any(np.max(np.abs(mats - np.eye(n)), axis=(1, 2)) < CLOSURE_TOL):
        return "identity element missing", None
    flat = mats.reshape(m, n * n)
    table = np.empty((m, m), dtype=np.intp)
    rows = max(1, _TABLE_BLOCK // (m * m))
    for start in range(0, m, rows):
        prods = mats[start:start + rows, None] @ mats  # prods[i, j] = mats[i] @ mats[j]
        nearest = np.argmax(prods.reshape(-1, n * n) @ flat.T, axis=1).reshape(-1, m)
        gap = np.max(np.abs(prods - mats[nearest]), axis=(2, 3))
        missing = np.flatnonzero(~(gap < CLOSURE_TOL))  # NaN misses too
        if missing.size:
            i, j = divmod(int(missing[0]), m)
            i += start
            return f"product of elements {i} ({labels[i]}) and {j} ({labels[j]}) not in set", (i, j)
        table[start:start + rows] = nearest
    shuffled = np.flatnonzero(np.any(np.sort(table, axis=1) != np.arange(m), axis=1))
    if shuffled.size:
        row = table[shuffled[0]].tolist()
        later = next(j for j in range(m) if row[j] in row[:j])
        first = row.index(row[later])
        return (f"elements {first} ({labels[first]}) and {later} ({labels[later]}) "
                f"are the same element"), (first, later)
    return None


def closure_check(g) -> ClosureReport:
    """Verify a finite element list is a group: the identity is present, every
    product is in the set (within CLOSURE_TOL, max-abs) and no element repeats.

    Accepts a finite ``SymmetryGroup`` or a plain sequence of
    ``GroupElement`` (useful for vetting a candidate list before it can
    be turned into a group at all); a sequence mixing 2x2 and 3x3 elements
    fails, naming the first element whose size differs from the first's.
    A missing product names its first (i, j) in row-major order, and the
    report's witness holds both elements.
    """
    if isinstance(g, SymmetryGroup):
        elements, mats, labels = None, g.matrices, g.labels
    else:
        elements = tuple(g)
        labels = [e.label for e in elements]
        odd = next((j for j, e in enumerate(elements)
                    if e.matrix.shape != elements[0].matrix.shape), None)
        if odd is not None:
            a, b = elements[0], elements[odd]
            return ClosureReport(False, f"elements 0 ({a.label}) and {odd} ({b.label}) are "
                                        f"{len(a.matrix)}x{len(a.matrix)} and "
                                        f"{len(b.matrix)}x{len(b.matrix)} matrices",
                                 witness=(a, b))
        mats = np.stack([e.matrix for e in elements]) if elements else None
    if mats is None or not len(mats):
        return ClosureReport(False, "empty element list")
    failure = _table_failure(mats, labels)
    if failure is None:
        return ClosureReport(True, "closed under multiplication; identity present")
    message, pair = failure
    if pair is None:
        return ClosureReport(False, message)
    elements = g.elements if elements is None else elements
    return ClosureReport(False, message, witness=(elements[pair[0]], elements[pair[1]]))


def _check_degree(degree) -> None:
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) or degree < 1:
        raise ValueError(f"degree must be an integer >= 1, got {degree!r}")


def haar_rule(g: SymmetryGroup, max_poly_degree: int = 8) -> QuadratureRule:
    """Quadrature rule realizing the normalized Haar measure on ``g``.

    Finite groups get their own element stack, not copied, with uniform
    weights 1/|G|.  A circle group gets the elements of the cyclic
    (SO(2)-type) or dihedral (O(2)-type) group of order degree + 1 about
    its axis, with uniform weights.  SO(3) uses the product rule over
    (phi, theta, psi) in [0,2pi] x [0,pi] x [0,2pi] with the invariant density
    sin(theta)/(8 pi^2): degree + 1 uniform nodes in phi and in psi and
    degree // 2 + 1 Gauss-Legendre nodes in u = cos(theta), node Rz(phi)
    Ry(arccos u) Rz(psi) in (phi, u, psi) order.  Each is exact (up to
    roundoff) for polynomials in the matrix entries of total degree <=
    max_poly_degree, with the fewest nodes of its kind (see the module
    docstring).  The degree must be an integer >= 1, and at most 12 on
    so3: orders k <= 12 at the degree k the library integrates at.
    """
    _check_degree(max_poly_degree)
    if g.is_finite:
        return _uniform_rule(g.matrices)
    name = g.catalog_id
    if name == "so3" and max_poly_degree > 12:
        raise ValueError(f"max_poly_degree must be <= 12 on so3, got {max_poly_degree}")
    count = max_poly_degree + 1
    if name != "so3":
        mats = _axial_matrices(g.ambient, count, _AXIAL[name][1], g.frame)
        return QuadratureRule(mats, np.full(len(mats), 1.0 / len(mats)))

    turns = np.stack([rotation_z(2 * np.pi * j / count) for j in range(count)])
    u_nodes, u_weights = np.polynomial.legendre.leggauss(max_poly_degree // 2 + 1)
    tilts = np.stack([rotation_y(float(np.arccos(u))) for u in u_nodes])
    mats = (turns[:, None] @ tilts)[:, :, None] @ turns
    weights = np.broadcast_to(u_weights[:, None] / (2 * count * count), mats.shape[:3])
    return QuadratureRule(mats.reshape(-1, 3, 3), weights.reshape(-1))


def integrate(g: SymmetryGroup, f: Callable[[np.ndarray], np.ndarray],
              degree: int = 8) -> float:
    """Haar integral over ``g`` of ``f``, a map from an (m, n, n) stack to its m
    values; exact for polynomials in the matrix entries of degree <= ``degree``,
    an integer >= 1.

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
    for any group but a 3D axial one raises ``ValueError``.
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
