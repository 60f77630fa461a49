"""symtensor: invariant subspaces of constitutive tensor spaces.

Computes, for a tensor space defined by index symmetries and a closed
subgroup of SO(3) or O(2), the dimension of the invariant subspace via
the trace formula and the explicit symmetrized structure via group
averaging, rendered in slot (Voigt-style) matrix form with
independent-component labeling.
"""

from .core import (FlatOperator, FlatTensor, SnappedValue, act, image_basis,
                   kron_power, rational_snap)
from .groups import (GroupElement, QuadratureRule, SymmetryGroup, closure_check,
                     haar_rule, integrate, resolve_group)
from .spaces import SPACES, TensorSpace, membership_residual, symmetrize
from .characters import character_closed_form, character_direct, fix_dimension
from .projector import (StructureEntry, StructureReport, averaged_projector,
                        extract_isotropic_moduli, isotropic_nine_matrix,
                        moduli_from_matrix, project, structure_report)
from .voigt import anti, axl, induced_matrix

__version__ = "0.1.0"
