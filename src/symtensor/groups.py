"""Closed subgroups of SO(3) and O(2) with normalized Haar integration.

Finite groups are explicit element lists (checked for closure at
construction).  A Haar integral is a weighted sum over a quadrature rule,
an (m, n, n) stack of orthogonal matrices with m weights, and integrands
are evaluated on the whole stack at once.  Continuous groups get rules
exact for polynomials in the matrix entries up to a requested degree:

* the circle groups (SO(2), O(2) and their SO(3) embeddings about an
  axis) use the element list of the cyclic or dihedral group of order
  2*degree + 2 about the same axis, with uniform weights: the trapezoid
  rule, exact for trigonometric polynomials below the node count,
* SO(3) uses a product rule over Euler-type angles with uniform grids in
  the two circle angles and Gauss-Legendre nodes in u = cos(theta), which
  absorbs the sin(theta) Jacobian of the invariant volume element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

ORTHO_TOL = 1e-12
CLOSURE_TOL = 1e-10

FINITE_CATALOG_IDS = ("Zn_2D", "Dn_2D", "Zn_3D", "Dn_3D", "cubic_O", "trivial")
CONTINUOUS_IDS = ("SO2_2D", "O2_2D", "SO2_e3", "O2_e3", "SO3")
# catalog name of each continuous group
_CONTINUOUS_NAMES = {"SO2_2D": "so2", "O2_2D": "o2", "SO2_e3": "so2-e3",
                     "O2_e3": "o2-e3", "SO3": "so3"}
# (ambient, has an improper coset) of every group of rotations about one axis
_AXIAL = {"Zn_2D": (2, False), "Dn_2D": (2, True), "Zn_3D": (3, False), "Dn_3D": (3, True),
          "SO2_2D": (2, False), "O2_2D": (2, True), "SO2_e3": (3, False), "O2_e3": (3, True)}

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

    @property
    def ambient(self) -> int:
        return self.matrix.shape[0]


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

    ``kind`` is ``"finite"`` (explicit ``elements``) or ``"continuous"``
    (``continuous_id`` from ``CONTINUOUS_IDS``).  ``generators`` is a small
    generating (finite case) or sampling (continuous case) set used by
    invariance checks and the linear-system oracle.  3D groups built about
    a non-default axis carry the conjugating rotation in ``frame``.
    """

    ambient: int
    catalog_id: str
    kind: str
    elements: tuple = ()
    continuous_id: str = ""
    generators: tuple = ()
    frame: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("finite", "continuous"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == "finite":
            if not self.elements:
                raise ValueError("finite group needs at least the identity")
            report = closure_check(self)
            if not report.passed:
                raise ValueError(f"group {self.catalog_id!r} fails closure: {report.message}")
        else:
            if self.continuous_id not in CONTINUOUS_IDS:
                raise ValueError(f"unknown continuous group id {self.continuous_id!r}")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("continuous groups have no finite order")
        return len(self.elements)

    def sample_elements(self) -> tuple:
        """Elements used for invariance spot checks (generators if finite)."""
        if self.is_finite:
            return self.generators if self.generators else self.elements
        return self.generators


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


def _frame(group_id: str, axis) -> Optional[np.ndarray]:
    """Conjugating rotation of a 3D axial group about ``axis``; None about e3."""
    if axis is None:
        return None
    if group_id not in _AXIAL or _AXIAL[group_id][0] != 3:
        raise ValueError(f"an axis applies only to the axial groups in 3D "
                         f"(z*, d*, so2-e3, o2-e3), not to {group_id}")
    frame = axis_aligner(axis)
    return None if np.max(np.abs(frame - np.eye(3))) < 1e-15 else frame


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


def make_finite_group(catalog_id: str, order_param: int = 1, axis=None,
                      ambient: Optional[int] = None) -> SymmetryGroup:
    """Build a finite catalog group.

    ``Zn_2D``/``Dn_2D`` are the cyclic/dihedral groups of the plane (the
    dihedral group of order n has cardinality 2n, obtained by adjoining the
    reflection diag(-1, 1)).  ``Zn_3D``/``Dn_3D`` are their SO(3) embeddings
    about ``axis`` (default e3); the dihedral extension adjoins the rotation
    by pi about an in-plane axis.  ``cubic_O`` is the 24-element rotation
    group of the cube.  ``trivial`` is {I} in R^ambient (default 3); other ids
    refuse an ambient they do not act on.  Only the 3D embeddings take an ``axis``.
    """
    if catalog_id not in FINITE_CATALOG_IDS:
        raise ValueError(f"unknown finite group id {catalog_id!r}")
    if order_param < 1:
        raise ValueError("order_param must be >= 1")
    own = (ambient or 3) if catalog_id == "trivial" else _AXIAL.get(catalog_id, (3,))[0]
    if ambient not in (None, own):
        raise ValueError(f"group id {catalog_id!r} acts on R^{own}, not on R^{ambient}")
    frame = _frame(catalog_id, axis)
    n = order_param
    if catalog_id == "trivial":
        eye = np.eye(own)
        return SymmetryGroup(own, "trivial", "finite",
                             elements=(GroupElement(eye, "id"),),
                             generators=(GroupElement(eye, "id"),))

    if catalog_id in _AXIAL:
        improper = _AXIAL[catalog_id][1]
        els = tuple(GroupElement(q, f"{catalog_id}[{i}]")
                    for i, q in enumerate(_axial_matrices(own, n, improper, frame)))
        gens = (els[1 % n],) + ((els[n],) if improper else ())
        return SymmetryGroup(own, f"{catalog_id[0].lower()}{n}_{own}d", "finite",
                             elements=els, generators=gens, frame=frame)

    # cubic_O: rotations of the cube = signed permutation matrices, det +1
    els = []
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    for perm in perms:
        base = np.zeros((3, 3))
        for row, col in enumerate(perm):
            base[row, col] = 1.0
        for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                      (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)):
            q = np.diag(signs).astype(float) @ base
            if np.linalg.det(q) > 0.0:
                els.append(GroupElement(q, f"signed_perm{perm}{signs}"))
    gens = (GroupElement(rotation_z(np.pi / 2).round(12), "rot(e3,pi/2)"),
            GroupElement(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                         "rot(111,2pi/3)"))
    return SymmetryGroup(3, "cubic", "finite", elements=tuple(els), generators=gens)


def make_continuous_group(continuous_id: str, axis=None) -> SymmetryGroup:
    """Build a continuous catalog group; so2-e3 and o2-e3 may turn about a
    non-default ``axis``."""
    if continuous_id not in CONTINUOUS_IDS:
        raise ValueError(f"unknown continuous group id {continuous_id!r}")
    frame = _frame(continuous_id, axis)
    if continuous_id == "SO3":
        ambient = 3
        gens = (GroupElement(rotation_z(0.9), "rot(e3,0.9)"),
                GroupElement(rotation_y(1.3), "rot(e2,1.3)"),
                GroupElement(rotation_z(np.pi / 2).round(12) @ rotation_y(0.4), "mixed"))
    else:
        # a generic rotation, then a second one or the coset representative
        ambient, improper = _AXIAL[continuous_id]
        gens = tuple(GroupElement(_axial(ambient, theta, coset, frame)) for theta, coset
                     in ((0.9, False), (0.0, True) if improper else (2.31, False)))
    return SymmetryGroup(ambient, _CONTINUOUS_NAMES[continuous_id], "continuous",
                         continuous_id=continuous_id,
                         generators=gens, frame=frame)


def closure_check(g) -> ClosureReport:
    """Verify a finite element list is closed under products and has the identity.

    Accepts a finite ``SymmetryGroup`` or a plain sequence of
    ``GroupElement`` (useful for vetting a candidate list before it can
    be turned into a group at all).
    """
    if isinstance(g, SymmetryGroup):
        if g.kind != "finite":
            raise ValueError("closure_check applies to finite groups only")
        elements = g.elements
    else:
        elements = tuple(g)
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


def haar_rule(g: SymmetryGroup, max_poly_degree: int = 8) -> QuadratureRule:
    """Quadrature rule realizing the normalized Haar measure on ``g``.

    Finite groups get their element list with uniform weights 1/|G|.  A
    circle group gets the elements of the cyclic (SO(2)-type) or dihedral
    (O(2)-type) group of order 2*degree + 2 about its axis, with uniform
    weights.  SO(3) uses the product rule over (phi, theta, psi) in
    [0,2pi] x [0,pi] x [0,2pi] with the invariant density
    sin(theta)/(8 pi^2): uniform grids in phi and psi and Gauss-Legendre
    nodes in u = cos(theta), node Rz(phi) Ry(arccos u) Rz(psi) in (phi, u,
    psi) order; its (2*degree + 2)^2 (degree + 1) nodes cap its degree at
    12.  Exact (up to roundoff) for polynomials in the matrix entries of
    total degree <= max_poly_degree.
    """
    if g.is_finite:
        mats = np.stack([e.matrix for e in g.elements])
        return QuadratureRule(mats, np.full(len(mats), 1.0 / len(mats)))
    cid = g.continuous_id
    if max_poly_degree < 1 or (cid == "SO3" and max_poly_degree > 12):
        raise ValueError(f"max_poly_degree must be >= 1 (and <= 12 on so3), got {max_poly_degree}")
    count = 2 * max_poly_degree + 2
    if cid != "SO3":
        mats = _axial_matrices(g.ambient, count, _AXIAL[cid][1], g.frame)
        return QuadratureRule(mats, np.full(len(mats), 1.0 / len(mats)))

    turns = np.stack([rotation_z(2 * np.pi * j / count) for j in range(count)])
    u_nodes, u_weights = leggauss(max_poly_degree + 1)
    tilts = np.stack([rotation_y(float(np.arccos(u))) for u in u_nodes])
    mats = (turns[:, None] @ tilts)[:, :, None] @ turns
    weights = np.broadcast_to(u_weights[:, None] / (2 * count * count), mats.shape[:3])
    return QuadratureRule(mats.reshape(-1, 3, 3), weights.reshape(-1))


def integrate(g: SymmetryGroup, f: Callable[[np.ndarray], np.ndarray],
              degree: int = 8) -> float:
    """Haar integral over ``g`` of ``f``, a map from an (m, n, n) stack to its m
    values; exact for polynomials in the matrix entries of degree <= ``degree``.

    Finite groups take the arithmetic mean over the element list; the
    quadrature path accumulates with exact summation in node order, so
    repeated runs are bit-identical.
    """
    if g.is_finite:
        return math.fsum(f(np.stack([e.matrix for e in g.elements]))) / len(g.elements)
    rule = haar_rule(g, degree)
    return math.fsum(rule.weights * f(rule.matrices))


# ---------------------------------------------------------------------------
# CLI-facing catalog resolution

_FINITE_NAMES = {"z2": ("Zn", 2), "z3": ("Zn", 3), "z4": ("Zn", 4), "z6": ("Zn", 6),
                 "d2": ("Dn", 2), "d3": ("Dn", 3), "d4": ("Dn", 4), "d6": ("Dn", 6)}

# catalog names per ambient dimension, in display order
GROUPS_2D = ("trivial", *_FINITE_NAMES, "so2", "o2")
GROUPS_3D = ("trivial", *_FINITE_NAMES, "cubic", "so2-e3", "o2-e3", "so3")
CATALOG_NAMES = tuple(dict.fromkeys(GROUPS_2D + GROUPS_3D))


def _catalog_key(name: str) -> str:
    key = name.strip().lower()
    if key not in CATALOG_NAMES:
        raise KeyError(f"unknown group name {name!r}; known: {', '.join(CATALOG_NAMES)}")
    return key


def group_kind(name: str) -> str:
    """``"finite"`` or ``"continuous"``, the kind of a catalog group, without building it."""
    return "continuous" if _catalog_key(name) in _CONTINUOUS_NAMES.values() else "finite"


def resolve_group(name: str, ambient: int, axis=None) -> SymmetryGroup:
    """Resolve a CLI catalog name against the requested ambient dimension.

    The cyclic/dihedral names build 2D groups for 2D spaces and the
    corresponding SO(3) embeddings (about ``axis``, default e3) for 3D
    spaces.  An ``axis`` for any other group raises ``ValueError``.
    """
    key = _catalog_key(name)
    fitting = GROUPS_2D if ambient == 2 else GROUPS_3D
    if key not in fitting:
        raise KeyError(f"group {key!r} does not act on {ambient}D spaces; "
                       f"groups for them: {', '.join(fitting)}")
    if key == "trivial":
        return make_finite_group("trivial", axis=axis, ambient=ambient)
    if key == "cubic":
        return make_finite_group("cubic_O", axis=axis)
    if key in _FINITE_NAMES:
        kind, order = _FINITE_NAMES[key]
        suffix = "_2D" if ambient == 2 else "_3D"
        return make_finite_group(kind + suffix, order_param=order, axis=axis, ambient=ambient)
    continuous_id = next(c for c, n in _CONTINUOUS_NAMES.items() if n == key)
    return make_continuous_group(continuous_id, axis=axis)
