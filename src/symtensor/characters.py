"""Characters of the tensor-space actions of O(2) and O(3), and the trace
formula.

For an orthogonal Q, rotation or reflection, acting on an order-k space
with orbit basis B, the character is chi(Q) = tr(B^T Q^{(x)k} B), read off
the orbit table entry by entry.  Since B B^T averages the index
permutations of the space's group P, it also follows from P's cycle index
alone:

    chi(Q) = (1/|P|) sum_{sigma in P} prod_{cycles c of sigma} tr(Q^|c|),

with every power trace read off tr(Q) and det(Q) by the Cayley-Hamilton
recurrence.  Both routes map an (..., n, n) stack of orthogonal matrices to
its (...) characters.  The dimension of the fixed-point subspace is the
Haar average of the character.
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
    stack of orthogonal matrices, as an array of shape (top, ...).

    By Cayley-Hamilton, Q^n = e1 Q^(n-1) - e2 Q^(n-2) + e3 Q^(n-3).  An
    orthogonal Q with t = tr Q and d = det Q has e1 = t, and e2 = d, e3 = 0
    for n = 2, or e2 = tr adj Q = d tr Q^T = d t, e3 = d for n = 3.  So
    t_m = tr Q^m = t t_(m-1) - e2 t_(m-2) + e3 t_(m-3), from t_1 = t,
    t_0 = n and t_-1 = tr Q^T = t, for rotations and reflections alike.
    """
    n = mats.shape[-1]
    t = np.trace(mats, axis1=-2, axis2=-1)
    d = np.linalg.det(mats)
    e2, e3 = (d, 0.0) if n == 2 else (d * t, d)
    seq = [t, n, t]  # t_-1, t_0, t_1
    for _ in range(top - 1):
        seq.append(t * seq[-1] - e2 * seq[-2] + e3 * seq[-3])
    return np.array(seq[2:])


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


def fix_dimension(space: TensorSpace, group: SymmetryGroup) -> int:
    """Dimension of the fixed-point subspace via the trace formula.

    The character is a degree-k polynomial in the entries of Q, and the
    flat Haar rule of degree k (``haar_rule``) integrates it exactly.  The
    SO(3) rule stops at degree 12, so so3 takes orders k <= 12; a higher
    order raises ``ValueError`` (ROADMAP item 4, exact dimensions from the
    weight polynomial, lifts this).  A Haar average further than 1e-6 from
    an integer raises ``QuadratureNotConvergedError``.
    """
    _check_ambient(space, group.ambient)
    value = integrate(group, lambda mats: character_closed_form(space, mats), space.k)
    nearest = round(value)
    residual = abs(value - nearest)
    if residual >= 1e-6:
        raise QuadratureNotConvergedError(
            f"quadrature not converged: Haar average {value!r} is {residual:.3e} "
            "away from the nearest integer")
    return int(nearest)
