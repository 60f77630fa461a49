"""Characters of the tensor-space actions and the trace formula.

For an orthogonal Q acting on an order-k space with orbit basis B, the
character is chi(Q) = tr(B^T Q^{(x)k} B), read off the orbit table entry by
entry.  Since B B^T averages the index permutations of the space's group P,
it also follows from P's cycle index alone:

    chi(Q) = (1/|P|) sum_{sigma in P} prod_{cycles c of sigma} tr(Q^|c|),

with every power trace read off tr(Q) by the Chebyshev recurrence.  Both
routes map an (..., n, n) stack to its (...) characters.  The dimension of
the fixed-point subspace is the Haar average of the character.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import SymmetryGroup, integrate
from .spaces import TensorSpace


class QuadratureNotConvergedError(RuntimeError):
    """The Haar rule cannot be trusted to give the dimension."""


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


def character_direct(space: TensorSpace, mats: np.ndarray) -> np.ndarray:
    """chi(Q) at every matrix Q of an (..., n, n) stack, not from the cycle
    index: sum over orbits O of (1/|O|) sum_{a, b in O} prod_s Q[a_s, b_s].
    Memory grows as the stack size times sum_O |O|^2."""
    n = mats.shape[-1]
    _check_ambient(space, n)
    sizes = np.bincount(space.orbits)
    members = np.split(np.argsort(space.orbits, kind="stable"), np.cumsum(sizes)[:-1])
    a = np.concatenate([np.repeat(m, m.size) for m in members])
    b = np.concatenate([np.tile(m, m.size) for m in members])
    weights = 1.0 / sizes[space.orbits[a]]
    shape = (n,) * space.k
    flat = mats.reshape(mats.shape[:-2] + (n * n,))
    terms = np.ones(mats.shape[:-2] + a.shape)
    for row, col in zip(np.unravel_index(a, shape), np.unravel_index(b, shape)):
        terms *= flat[..., row * n + col]
    return terms @ weights


def character_closed_form(space: TensorSpace, mats: np.ndarray) -> np.ndarray:
    """chi(Q) at every matrix Q of an (..., n, n) stack, from the cycle
    index of the space's permutation group."""
    _check_ambient(space, mats.shape[-1])
    traces = power_traces(mats, space.k)
    total = sum(count * math.prod(traces[length - 1] for length in cycles)
                for cycles, count in space.cycle_index)
    return total / len(space.permutation_group)


def fix_dimension(space: TensorSpace, group: SymmetryGroup, degree: int | None = None) -> int:
    """Dimension of the fixed-point subspace via the trace formula.

    The character is a degree-k polynomial in the entries of Q, so the
    default quadrature degree k + 2 leaves margin.  A ``degree`` for a
    finite group raises ``ValueError``.  One below k, or a Haar average
    further than 1e-6 from an integer, raises ``QuadratureNotConvergedError``
    (a circle rule is a finite group: its average is always an integer).
    """
    _check_ambient(space, group.ambient)
    if degree is None:
        degree = space.k + 2
    elif group.is_finite:
        raise ValueError("a quadrature degree applies only to continuous groups; "
                         "a finite group averages over its elements")
    elif degree < space.k:
        raise QuadratureNotConvergedError(
            f"quadrature degree {degree} is below the order {space.k} of space "
            f"{space.name}, whose character it cannot integrate exactly")
    value = integrate(group, lambda mats: character_closed_form(space, mats), degree)
    nearest = round(value)
    residual = abs(value - nearest)
    if residual >= 1e-6:
        raise QuadratureNotConvergedError(
            f"quadrature not converged: Haar average {value!r} is {residual:.3e} "
            "away from the nearest integer")
    return int(nearest)
