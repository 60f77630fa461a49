"""Closed subgroups of SO(3) and O(2) with normalized Haar integration.

``resolve_group(name, ambient, axis)`` builds every catalog group from the
name a user types (``z4``, ``cubic``, ``so2-e3``, ...).  A group's
``catalog_id`` is that name, with the ambient appended for the cyclic and
dihedral groups (``z4_3d``).

Finite groups are explicit element lists (checked for closure at
construction).  A Haar integral is a weighted sum over a quadrature rule,
an (m, n, n) stack of orthogonal matrices with m weights, and integrands
are evaluated on the whole stack at once.  Continuous groups get the
smallest rules of their kind that are exact for polynomials in the matrix
entries up to a requested degree d:

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

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

ORTHO_TOL = 1e-12
CLOSURE_TOL = 1e-10

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


def _check_orthogonal(mats: np.ndarray, what: str) -> None:
    """Check that each matrix of a stack is orthogonal and, in 3D, proper."""
    n = mats.shape[-1]
    residual = np.max(np.abs(np.swapaxes(mats, -1, -2) @ mats - np.eye(n)), initial=0.0)
    if not residual <= ORTHO_TOL:  # NaN fails too
        raise ValueError(f"{what} is not orthogonal")
    det = np.linalg.det(mats)
    if np.any(np.abs(np.abs(det) - 1.0) > ORTHO_TOL):
        raise ValueError(f"{what} determinant must be +-1")
    if n == 3 and np.any(det < 0.0):
        raise ValueError("improper 3x3 elements are not admitted (use SO(3) rotations)")


def _frozen(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


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


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """A closed subgroup of SO(3) or O(2).

    A finite group lists its ``elements``; a continuous one has none, and
    its ``catalog_id`` (``so2``, ``o2``, ``so2-e3``, ``o2-e3`` or ``so3``)
    selects its Haar rule.  ``generators`` is a small generating (finite
    case) or sampling (continuous case) set used by invariance checks and
    the linear-system oracle.  3D groups built about a non-default axis
    carry the conjugating rotation in ``frame``.
    """

    ambient: int
    catalog_id: str
    elements: tuple = ()
    generators: tuple = ()
    frame: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.elements:
            report = closure_check(self)
            if not report.passed:
                raise ValueError(f"group {self.catalog_id!r} fails closure: {report.message}")
        elif _CONTINUOUS.get(self.catalog_id) != self.ambient:
            raise ValueError(f"group {self.catalog_id!r} has no elements and is not a "
                             f"continuous group on R^{self.ambient}")

    @property
    def is_finite(self) -> bool:
        return bool(self.elements)

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("continuous groups have no finite order")
        return len(self.elements)

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


def closure_check(g) -> ClosureReport:
    """Verify a finite element list is closed under products and has the identity.

    Accepts a finite ``SymmetryGroup`` or a plain sequence of
    ``GroupElement`` (useful for vetting a candidate list before it can
    be turned into a group at all).
    """
    elements = g.elements if isinstance(g, SymmetryGroup) else tuple(g)
    if not elements:
        return ClosureReport(False, "empty element list")
    mats = np.stack([e.matrix for e in elements])
    if not np.any(np.max(np.abs(mats - np.eye(mats.shape[1])), axis=(1, 2)) < CLOSURE_TOL):
        return ClosureReport(False, "identity element missing")
    for i, a in enumerate(elements):
        # found[j, m]: the product a @ elements[j] matches elements[m]
        found = np.max(np.abs((a.matrix @ mats)[:, None] - mats[None]), axis=(2, 3)) < CLOSURE_TOL
        missing = np.flatnonzero(~found.any(axis=1))
        if missing.size:
            j = int(missing[0])
            b = elements[j]
            return ClosureReport(
                False,
                f"product of elements {i} ({a.label}) and {j} ({b.label}) not in set",
                witness=(a, b),
            )
    return ClosureReport(True, "closed under multiplication; identity present")


def _check_degree(degree) -> None:
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) or degree < 1:
        raise ValueError(f"degree must be an integer >= 1, got {degree!r}")


def haar_rule(g: SymmetryGroup, max_poly_degree: int = 8) -> QuadratureRule:
    """Quadrature rule realizing the normalized Haar measure on ``g``.

    Finite groups get their element list with uniform weights 1/|G|.  A
    circle group gets the elements of the cyclic (SO(2)-type) or dihedral
    (O(2)-type) group of order degree + 1 about its axis, with uniform
    weights.  SO(3) uses the product rule over (phi, theta, psi) in
    [0,2pi] x [0,pi] x [0,2pi] with the invariant density
    sin(theta)/(8 pi^2): degree + 1 uniform nodes in phi and in psi and
    degree // 2 + 1 Gauss-Legendre nodes in u = cos(theta), node Rz(phi)
    Ry(arccos u) Rz(psi) in (phi, u, psi) order.  Each is exact (up to
    roundoff) for polynomials in the matrix entries of total degree <=
    max_poly_degree, with the fewest nodes of its kind (see the module
    docstring).  The degree must be an integer >= 1, and at most 12 on
    so3: orders k <= 10 at the degree k + 2 the library integrates at.
    """
    _check_degree(max_poly_degree)
    if g.is_finite:
        mats = np.stack([e.matrix for e in g.elements])
        return QuadratureRule(mats, np.full(len(mats), 1.0 / len(mats)))
    name = g.catalog_id
    if name == "so3" and max_poly_degree > 12:
        raise ValueError(f"max_poly_degree must be <= 12 on so3, got {max_poly_degree}")
    count = max_poly_degree + 1
    if name != "so3":
        mats = _axial_matrices(g.ambient, count, _AXIAL[name][1], g.frame)
        return QuadratureRule(mats, np.full(len(mats), 1.0 / len(mats)))

    turns = np.stack([rotation_z(2 * np.pi * j / count) for j in range(count)])
    u_nodes, u_weights = leggauss(max_poly_degree // 2 + 1)
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
        return math.fsum(f(np.stack([e.matrix for e in g.elements]))) / len(g.elements)
    rule = haar_rule(g, degree)
    return math.fsum(rule.weights * f(rule.matrices))


# ---------------------------------------------------------------------------
# The catalog

# catalog names per ambient dimension, in display order
GROUPS_2D = ("trivial", "z2", "z3", "z4", "z6", "d2", "d3", "d4", "d6", "so2", "o2")
GROUPS_3D = ("trivial", "z2", "z3", "z4", "z6", "d2", "d3", "d4", "d6",
             "cubic", "so2-e3", "o2-e3", "so3")
CATALOG_NAMES = tuple(dict.fromkeys(GROUPS_2D + GROUPS_3D))


def _catalog_key(name: str) -> str:
    key = name.strip().lower()
    if key not in CATALOG_NAMES:
        raise KeyError(f"unknown group name {name!r}; known: {', '.join(CATALOG_NAMES)}")
    return key


def group_kind(name: str) -> str:
    """``"finite"`` or ``"continuous"``, the kind of a catalog group, without building it."""
    return "continuous" if _catalog_key(name) in _CONTINUOUS else "finite"


def _cube_rotations() -> tuple:
    """The rotations of the cube: the signed permutation matrices with det +1."""
    els = []
    for perm in itertools.permutations(range(3)):
        base = np.eye(3)[list(perm)]
        for signs in itertools.product((1, -1), repeat=3):
            q = np.diag(signs).astype(float) @ base
            if np.linalg.det(q) > 0.0:
                els.append(GroupElement(q, f"signed_perm{perm}{signs}"))
    return tuple(els)


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
    key = _catalog_key(name)
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
        eye = GroupElement(np.eye(ambient), "id")
        return SymmetryGroup(ambient, key, elements=(eye,), generators=(eye,))
    if key == "cubic":
        gens = (GroupElement(rotation_z(np.pi / 2).round(12), "rot(e3,pi/2)"),
                GroupElement(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                             "rot(111,2pi/3)"))
        return SymmetryGroup(3, key, elements=_cube_rotations(), generators=gens)
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
    els = tuple(GroupElement(q, f"{key}[{i}]")
                for i, q in enumerate(_axial_matrices(ambient, order, improper, frame)))
    gens = (els[1],) + ((els[order],) if improper else ())
    return SymmetryGroup(ambient, f"{key}_{ambient}d", elements=els, generators=gens,
                         frame=frame)
