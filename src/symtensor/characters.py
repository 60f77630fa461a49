"""Characters of the tensor-space actions and the trace formula.

For a group element Q acting on an order-k space with symmetrization
identity Pi, the character is chi(Q) = tr(kron_power(Q, k) . Pi).  Since Pi
averages the index permutations of the space's group P, the character also
follows from P's cycle index alone:

    chi(Q) = (1/|P|) sum_{sigma in P} prod_{cycles c of sigma} tr(Q^|c|),

with every power trace read off tr(Q) by the Chebyshev recurrence.  The
dimension of the fixed-point subspace under a group is the normalized Haar
average of the character.
"""

from __future__ import annotations

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


def power_traces(q: GroupElement, top: int) -> list[float]:
    """[tr Q, tr Q^2, ..., tr Q^top] from tr Q alone.

    A proper rotation by theta has tr Q^m = (n - 2) + 2 T_m(cos theta),
    with cos theta = (tr Q - n + 2) / 2 and T_m the Chebyshev polynomials.
    A 2D reflection squares to I, so tr Q^m = 1 + (-1)^m.
    """
    n = q.ambient
    if n == 2 and q.det_sign < 0:
        return [1.0 + (-1.0) ** m for m in range(1, top + 1)]
    c = (float(q.matrix.trace()) - n + 2) / 2.0
    prev, cur = 1.0, c
    out = []
    for _ in range(top):
        out.append(n - 2 + 2.0 * cur)
        prev, cur = cur, 2.0 * c * cur - prev
    return out


def character_direct(space: TensorSpace, q: GroupElement) -> float:
    """chi(Q) by direct contraction: trace of kron_power(Q, k) . Pi."""
    _check_ambient(space, q.ambient)
    action = kron_power(q.matrix, space.k).matrix
    pi = space.projector.matrix
    # tr(A @ Pi) without forming the product
    return float(np.sum(action * pi.T))


def character_closed_form(space: TensorSpace, q: GroupElement) -> float:
    """chi(Q) from the cycle index of the space's permutation group."""
    _check_ambient(space, q.ambient)
    traces = power_traces(q, space.k)
    total = 0.0
    for cycles, count in space.cycle_index:
        term = float(count)
        for length in cycles:
            term *= traces[length - 1]
        total += term
    return total / len(space.permutation_group)


def fix_dimension(space: TensorSpace, group: SymmetryGroup, degree: int | None = None) -> int:
    """Dimension of the fixed-point subspace via the trace formula.

    The character is a degree-k polynomial in the entries of Q, so the
    default quadrature degree k + 2 leaves margin.  A Haar average further
    than 1e-6 from an integer raises ``QuadratureNotConvergedError``.
    """
    _check_ambient(space, group.ambient)
    if degree is None:
        degree = space.k + 2
    value = integrate(group, lambda q: character_closed_form(space, q), degree)
    nearest = round(value)
    residual = abs(value - nearest)
    if residual >= 1e-6:
        raise QuadratureNotConvergedError(value, residual)
    return int(nearest)
