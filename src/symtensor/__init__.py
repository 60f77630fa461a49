"""symtensor: invariant subspaces of constitutive tensor spaces.

Computes, for a tensor space defined by index symmetries and a finite
subgroup of O(2) or O(3) or a catalog continuous group in SO(3) or O(2),
the dimension of the invariant subspace via the trace formula and the
explicit symmetrized structure via group averaging, rendered in slot
(Voigt-style) matrix form with independent-component labeling.

Importing the package loads none of its modules: each name below is
looked up in its home module on first access (PEP 562), so a caller pays
for numpy and the numerical modules only when it uses them.
"""

import importlib

__version__ = "0.1.0"

# home module of each exported name
_EXPORTS = {
    **dict.fromkeys(("FlatOperator", "FlatTensor", "SnappedValue", "act", "image_basis",
                     "kron_power", "rational_snap"), "core"),
    **dict.fromkeys(("GroupElement", "QuadratureRule", "SymmetryGroup", "closure_check",
                     "haar_rule", "integrate", "resolve_group"), "groups"),
    **dict.fromkeys(("SPACES", "TensorSpace", "membership_residual", "symmetrize"),
                    "spaces"),
    **dict.fromkeys(("character_closed_form", "character_direct", "fix_dimension"),
                    "characters"),
    **dict.fromkeys(("StructureEntry", "StructureReport", "averaged_projector",
                     "isotropic_nine_matrix", "moduli_from_matrix", "project",
                     "structure_report"), "projector"),
    "extract_isotropic_moduli": "catalog",
    **dict.fromkeys(("anti", "axl", "induced_matrix"), "voigt"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
