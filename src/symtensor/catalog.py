"""Catalog names, their checks and the isotropic moduli, without numpy.

What the command line reads before it runs any numerical code: the space
and group names its help text lists and ``catalog_key``, their one lookup;
``group_id``, every check of a group name, its ambient and its axis, which
``groups.resolve_group`` runs before it builds anything; the order check of
a tensor space; the verification row categories; and
``extract_isotropic_moduli``, the whole of the ``moduli`` command.  The
numerical modules import these from here, so each is written once.
"""

from __future__ import annotations

import math
import numbers

# catalog space names, in display order (``spaces.SPACES`` defines each one)
SPACE_NAMES = ("sym2", "sym3", "ela2", "ela3", "major3", "v1", "v1bar", "v2", "v2bar",
               "high2")

# catalog group names per ambient dimension, in display order
GROUPS_2D = ("trivial", "z2", "z3", "z4", "z6", "d2", "d3", "d4", "d6", "so2", "o2")
GROUPS_3D = ("trivial", "z2", "z3", "z4", "z6", "d2", "d3", "d4", "d6",
             "cubic", "so2-e3", "o2-e3", "so3")

GROUP_NAMES = tuple(dict.fromkeys(GROUPS_2D + GROUPS_3D))
# every group of rotations about one axis, by catalog name: its order (0 for
# a circle group) and whether it has an improper coset
AXIAL_GROUPS = {"z2": (2, False), "z3": (3, False), "z4": (4, False), "z6": (6, False),
                "d2": (2, True), "d3": (3, True), "d4": (4, True), "d6": (6, True),
                "so2": (0, False), "o2": (0, True), "so2-e3": (0, False), "o2-e3": (0, True)}
# the ambient of each continuous group
CONTINUOUS_AMBIENT = {"so2": 2, "o2": 2, "so2-e3": 3, "o2-e3": 3, "so3": 3}

# categories of the verification table, in table order
ROW_CATEGORIES = ("dims", "characters", "haar", "structure", "projector",
                  "oracle", "voigt", "moduli", "spot")


def catalog_key(name: str, known: tuple, kind: str) -> str:
    """The catalog name a user typed, stripped and lower-cased; a ``KeyError``
    names the ``kind`` (space or group) and lists ``known`` if it is not one."""
    key = name.strip().lower()
    if key not in known:
        raise KeyError(f"unknown {kind} name {name!r}; known: {', '.join(known)}")
    return key


def check_order(n, k) -> None:
    """Refuse an ambient dimension or order that is not a positive integer."""
    for v in (n, k):
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
            raise ValueError(f"n and k must be positive integers, got n={n!r}, k={k!r}")


def check_axis(axis) -> None:
    """Refuse a rotation axis that is not three finite numbers, not all zero."""
    try:
        values = [float(v) for v in axis]
    except (TypeError, ValueError):  # a bare number, a nested or a non-numeric sequence
        values = []
    if len(values) != 3 or not all(map(math.isfinite, values)) or not any(values):
        raise ValueError(f"axis must be nonzero with finite components, got {values or axis!r}")


def group_id(name: str, ambient: int, axis=None) -> tuple:
    """(catalog key, catalog id) of the group ``name`` on R^ambient, after
    every check that needs no group built.

    The id is the key, with the ambient appended for the cyclic and dihedral
    groups (``z4_3d``).  An unknown name, or a group that does not act on
    R^ambient, raises ``KeyError``; an ``axis`` for any group but a 3D axial
    one raises ``ValueError``, and so does one that ``check_axis`` refuses.
    """
    key = catalog_key(name, GROUP_NAMES, "group")
    fitting = {2: GROUPS_2D, 3: GROUPS_3D}.get(ambient, ())
    if key not in fitting:
        raise KeyError(f"group {key!r} does not act on {ambient}D spaces; "
                       f"groups for them: {', '.join(fitting) or 'none'}")
    if axis is not None:
        if ambient != 3 or key not in AXIAL_GROUPS:
            raise ValueError(f"an axis applies only to the axial groups in 3D "
                             f"(z*, d*, so2-e3, o2-e3), not to {key}")
        check_axis(axis)
    finite_axial = AXIAL_GROUPS.get(key, (0,))[0]
    return key, f"{key}_{ambient}d" if finite_axial else key


def extract_isotropic_moduli(values: dict) -> tuple:
    """(lambda, mu, mu_c) from values of the isotropic 45-constant display.

    The labels are those of the major3 x so3 display (``structure --space
    major3 --group so3``), which shows C11, C12, C44 and C45 tied by
    C11 = C12 + C44 + C45.  ``values`` maps labels to finite real numbers
    (not booleans) and must determine C12, C44 and one of C45 / C11 (the
    constraint supplies the missing one).  Given both, they must satisfy
    it within 1e-9 relative to max(1, |C12| + |C44| + |C45|).  Any other
    symbol raises ``KeyError``.
    """
    unknown = [repr(label) for label in values if label not in ("C11", "C12", "C44", "C45")]
    if unknown:
        raise KeyError(f"unknown symbol {', '.join(unknown)} in value assignment; "
                       "known: C11, C12, C44, C45")

    def value(label: str) -> float:
        if label not in values:
            raise KeyError(f"missing required symbol {label!r} in value assignment")
        v = values[label]
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise ValueError(f"{label} must be a finite number, got {v!r} ({type(v).__name__})")
        return float(v)

    lam, c44 = value("C12"), value("C44")
    if "C45" in values:
        c45 = value("C45")
        if "C11" in values:
            c11, expected = value("C11"), lam + c44 + c45
            bound = max(1e-9, sum(1e-9 * abs(v) for v in (lam, c44, c45)))  # cannot overflow
            if not math.isfinite(expected) or abs(c11 - expected) > bound:
                raise ValueError(f"C11 = {c11!r} contradicts the constraint "
                                 f"C11 = C12 + C44 + C45 = {expected!r}")
    elif "C11" in values:
        c45 = value("C11") - lam - c44
    else:
        raise KeyError("assignment must provide C45 or C11")
    mu = (c44 + c45) / 2.0
    mu_c = (c44 - c45) / 2.0
    if not all(map(math.isfinite, (c45, mu, mu_c))):
        raise ValueError("the moduli overflow the double range")
    return lam, mu, mu_c
