"""Catalog names and the isotropic moduli, without numpy.

What the command line reads before it runs any numerical code: the space
and group names its help text lists and ``catalog_key``, their one lookup,
the verification row categories, and ``extract_isotropic_moduli``, the
whole of the ``moduli`` command.  The numerical modules import these from
here, so each is written once.
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
