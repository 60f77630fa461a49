"""Characters of the tensor-space actions and the trace formula.

For a group element Q acting on an order-k space with symmetrization
identity Pi, the character is chi(Q) = tr(kron_power(Q, k) . Pi).  Since Pi
averages the index permutations of the space's group P, the character also
follows from P's cycle index alone:

    chi(Q) = (1/|P|) sum_{sigma in P} prod_{cycles c of sigma} tr(Q^|c|),

with every power trace read off tr(Q) by the Chebyshev recurrence, for a
whole stack of matrices at once.  The dimension of the fixed-point subspace
under a group is the Haar average of the character over the group's rule.
"""

from __future__ import annotations

import math

import numpy as np

from .core import kron_power
from .groups import GroupElement, SymmetryGroup, integrate
from .spaces import TensorSpace


class QuadratureNotConvergedError(RuntimeError):
    def __init__(self, value: float, residual: float):
        self.value = value
        self.residual = residual
        super().__init__(
            f"quadrature not converged: Haar average {value!r} is {residual:.3e} "
            "away from the nearest integer"
        )


def _check_ambient(space: TensorSpace, ambient: int) -> None:
    if ambient != space.n:
        raise ValueError(f"group over R^{ambient} cannot act on space {space.name} "
                         f"over R^{space.n}")


def power_traces(mats: np.ndarray, top: int) -> np.ndarray:
    """tr Q, tr Q^2, ..., tr Q^top of every matrix Q of an (..., n, n)
    stack, from tr Q alone, as an array of shape (top, ...).

    A proper rotation by theta has tr Q^m = (n - 2) + 2 T_m(cos theta),
    with cos theta = (tr Q - n + 2) / 2 and T_m the Chebyshev polynomials.
    A 2D reflection squares to I, so tr Q^m = 1 + (-1)^m.
    """
    n = mats.shape[-1]
    c = (np.trace(mats, axis1=-2, axis2=-1) - n + 2) / 2.0
    out = np.empty((top,) + c.shape)
    prev, cur = 1.0, c
    for m in range(top):
        out[m] = n - 2 + 2.0 * cur
        prev, cur = cur, 2.0 * c * cur - prev
    if n == 2:
        reflection = mats[..., 0, 0] * mats[..., 1, 1] < mats[..., 0, 1] * mats[..., 1, 0]
        out[:, reflection] = (1.0 + (-1.0) ** np.arange(1, top + 1))[:, None]
    return out


def character_direct(space: TensorSpace, q: GroupElement) -> float:
    """chi(Q) by direct contraction: trace of kron_power(Q, k) . Pi."""
    _check_ambient(space, q.ambient)
    action = kron_power(q.matrix, space.k).matrix
    pi = space.projector.matrix
    # tr(A @ Pi) without forming the product
    return float(np.sum(action * pi.T))


def cycle_index_character(space: TensorSpace, mats: np.ndarray) -> np.ndarray:
    """chi(Q) at every matrix Q of an (..., n, n) stack, from the cycle
    index of the space's permutation group."""
    _check_ambient(space, mats.shape[-1])
    traces = power_traces(mats, space.k)
    total = sum(count * math.prod(traces[length - 1] for length in cycles)
                for cycles, count in space.cycle_index)
    return total / len(space.permutation_group)


def character_closed_form(space: TensorSpace, q: GroupElement) -> float:
    """chi(Q) from the cycle index of the space's permutation group."""
    return float(cycle_index_character(space, q.matrix))


def fix_dimension(space: TensorSpace, group: SymmetryGroup, degree: int | None = None) -> int:
    """Dimension of the fixed-point subspace via the trace formula.

    The character is a degree-k polynomial in the entries of Q, so the
    default quadrature degree k + 2 leaves margin.  A Haar average further
    than 1e-6 from an integer raises ``QuadratureNotConvergedError``.
    """
    _check_ambient(space, group.ambient)
    if degree is None:
        degree = space.k + 2
    value = integrate(group, lambda mats: cycle_index_character(space, mats), degree)
    nearest = round(value)
    residual = abs(value - nearest)
    if residual >= 1e-6:
        raise QuadratureNotConvergedError(value, residual)
    return int(nearest)
