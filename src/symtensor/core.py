"""Flattened tensor algebra on small spaces.

Order-k tensors over R^n are stored as length-n^k coefficient vectors in
row-major order (multi-index (i_1, ..., i_k) maps to sum_m i_m * n^(k-m)
with 0-based indices).  :func:`act` applies Q^{(x)k} to them slot-wise; only
the reference :func:`kron_power` forms that n^k x n^k matrix.  Everything is
double precision; rational values are recovered only at display time.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .catalog import check_order

_SURD_TEXT = {1: "", 2: "√2", 3: "√3"}

# a matrix is orthogonal when no entry of Q^T Q - I exceeds ORTHO_TOL
ORTHO_TOL = 1e-12


# a projector's idempotency residual max |A^2 - A|, and an orthogonal one's
# symmetry residual max |A - A^T|, must stay below PROJECTOR_TOL
PROJECTOR_TOL = 1e-6


class NotAProjectorError(ValueError):
    """Raised when an operator expected to be a projector is not idempotent,
    or one expected to be an orthogonal projector is not symmetric."""

    def __init__(self, residual: float, symmetric: bool = False):
        self.residual = float(residual)
        what = "symmetric: ||A - A^T||_inf" if symmetric else "idempotent: ||A^2 - A||_inf"
        super().__init__(f"operator is not {what} = {residual:.3e}")


# rational_snap accepts a candidate p/q * sqrt(s) within EQUALITY_TOL of the float: s = 1, 2, 3
# by row of its grid, denominators q up to SNAP_DENOMINATOR_BOUND by column
EQUALITY_TOL = 1e-9
SNAP_DENOMINATOR_BOUND = 64
_SNAP_ROOTS = np.sqrt([[1.0], [2.0], [3.0]])
_SNAP_DENOMINATORS = np.arange(1.0, SNAP_DENOMINATOR_BOUND + 1)
_SNAP_CANDIDATES = len(_SNAP_ROOTS) * SNAP_DENOMINATOR_BOUND


@dataclass(frozen=True, eq=False)
class FlatTensor:
    """Order-``k`` tensor over R^``n`` as a flat coefficient vector.

    Parameters
    ----------
    n : int
        Ambient dimension, at least 1.
    k : int
        Tensor order, at least 1.
    coeffs : ``(n**k,)`` ndarray
        Row-major flattened coefficients.
    """

    n: int
    k: int
    coeffs: np.ndarray

    def __post_init__(self):
        check_order(self.n, self.k)
        arr = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if arr.shape != (self.n**self.k,):
            raise ValueError(
                f"coeff vector has length {arr.size}, expected {self.n}^{self.k} = {self.n**self.k}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def from_array(cls, arr) -> "FlatTensor":
        """Build from a dense ``k``-dimensional array with equal axis lengths."""
        arr = np.asarray(arr, dtype=float)
        if arr.ndim < 1 or arr.shape != arr.shape[:1] * arr.ndim:
            raise ValueError(f"array shape {arr.shape} is not cubical")
        return cls(n=arr.shape[0], k=arr.ndim, coeffs=arr.reshape(-1))

    def reshaped(self) -> np.ndarray:
        """Dense view with shape ``(n,) * k``."""
        return self.coeffs.reshape((self.n,) * self.k)

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0


def _frozen(x) -> np.ndarray:
    """Read-only float copy of an array."""
    out = np.array(x, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class FlatOperator:
    """Linear map on the tensors of one space, in orbit coordinates.

    ``matrix`` is a square, read-only d x d matrix in the orbit basis B
    (``space.basis``) of the space it came from: the operator on flat
    tensors is ``B @ matrix @ B.T``.  Which space that is, the matrix
    alone does not say: its orbit basis depends on the space's generators.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix has shape {m.shape}, expected a square matrix")
        object.__setattr__(self, "matrix", m)


def _check_orthogonal(mats: np.ndarray, what: str) -> None:
    """Check that a matrix, or each matrix of a stack, is orthogonal, of
    det +1 or -1 alike; the refusal reports the largest residual."""
    n = mats.shape[-1]
    residual = np.max(np.abs(np.swapaxes(mats, -1, -2) @ mats - np.eye(n)), initial=0.0)
    if not residual <= ORTHO_TOL:  # NaN fails too
        raise ValueError(f"{what} is not orthogonal: max |QᵀQ − I| = {residual:.3e}")


def kron_power(q: np.ndarray, k: int) -> np.ndarray:
    """k-fold Kronecker power of an orthogonal matrix, a reference for the checks.

    Returns a new n^k x n^k array, the action
    ``X_{i_1...i_k} -> Q_{i_1 a_1} ... Q_{i_k a_k} X_{a_1...a_k}`` on
    flattened tensors; for k = 1 it is a copy of ``q``.

    Raises
    ------
    ValueError
        If ``Q^T Q`` deviates from the identity by more than ``ORTHO_TOL``,
        or the order is below 1.
    """
    q = np.array(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    _check_orthogonal(q, "matrix")
    if k < 1:
        raise ValueError(f"tensor order must be at least 1, got {k}")
    out = q
    for _ in range(k - 1):
        out = np.kron(out, q)
    return out


def kron_stack(mats: np.ndarray, j: int) -> np.ndarray:
    """(m, n^j, n^j) Kronecker powers of an (m, n, n) stack (ones for j = 0)."""
    m, n = mats.shape[0], mats.shape[-1]
    out = np.ones((m, 1, 1))
    for _ in range(j):
        size = out.shape[1] * n
        out = np.einsum("mij,mab->miajb", out, mats).reshape(m, size, size)
    return out


def kron_halves(mats: np.ndarray, k: int) -> tuple:
    """The Kronecker powers A = Q^{(x)(k//2)} and B = Q^{(x)(k - k//2)} of
    each Q of an (m, n, n) stack, with Q^{(x)k} = A (x) B: the multi-index
    split in halves.  A is all ones for k = 1, and is B itself for even k."""
    a = kron_stack(mats, k // 2)
    return a, (a if k % 2 == 0 else kron_stack(mats, k - k // 2))


def act(mats: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    """Q^{(x)k} x, shaped (m, n^k, ...), for each Q of an (m, n, n) stack and
    x of shape (n^k, ...).  With the multi-index split in halves, this is
    A X B^T for the :func:`kron_halves` A and B: no n^k x n^k matrix is
    formed."""
    a, b = kron_halves(mats, k)
    m, p, q, r = len(mats), a.shape[1], b.shape[1], math.prod(x.shape[1:])
    # apply B to the last slots, then A to the first
    right = np.matmul(b[:, None], x.reshape(1, p, q, r))
    return np.matmul(a, right.reshape(m, p, q * r)).reshape((m,) + x.shape)


def check_projector(m: np.ndarray, orthogonal: bool = False) -> None:
    """Refuse (NotAProjectorError) a square matrix that is not idempotent
    within ``PROJECTOR_TOL``, or, if ``orthogonal``, not symmetric within it."""
    res = float(np.max(np.abs(m @ m - m), initial=0.0))
    if not res < PROJECTOR_TOL:  # NaN fails too
        raise NotAProjectorError(res)
    if orthogonal:
        res = float(np.max(np.abs(m - m.T), initial=0.0))
        if not res < PROJECTOR_TOL:
            raise NotAProjectorError(res, symmetric=True)


def image_basis(a: FlatOperator) -> np.ndarray:
    """Orthonormal basis of the column space of a projector, as the rows of
    an (r, d) array in the operator's orbit coordinates.

    The d x d matrix must be idempotent within ``PROJECTOR_TOL`` (else
    NotAProjectorError).  The rank r is counted as the singular values
    above 1/2: those of an idempotent operator are 0 or at least 1, even
    for an oblique projector whose largest one is huge.  Nothing is lifted
    here: column j of ``space.basis @ basis.T`` is the j-th basis tensor on
    flat coefficients.  No library path calls it: ``structure_report``
    reads its slots off the rows of the orthogonal projector itself; it
    serves the checks that count a projector's rank by its SVD.
    """
    check_projector(a.matrix)
    u, s, _ = np.linalg.svd(a.matrix, full_matrices=False)
    return u[:, :int(np.sum(s > 0.5))].T


@dataclass(frozen=True)
class SnappedValue:
    """Display form of a float: ``numerator/denominator * surd``.

    ``exact`` is False when no rational (or sqrt(2)/sqrt(3) multiple)
    matched, in which case the raw float is kept verbatim.
    """

    value: float
    text: str
    exact: bool
    numerator: int = 0
    denominator: int = 1
    surd: int = 1

    def __float__(self) -> float:
        return self.value


def _format_snap(num: int, den: int, surd: int) -> str:
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    if surd == 1:
        body = f"{num}" if den == 1 else f"{num}/{den}"
    else:
        root = _SURD_TEXT[surd]
        head = root if num == 1 else f"{num}{root}"
        body = head if den == 1 else f"{head}/{den}"
    return sign + body


def rational_snap(x: float) -> SnappedValue:
    """Snap a float to p/q, p/q*sqrt(2) or p/q*sqrt(3) for display: the one
    value of :func:`snap_array`.

    The candidates are p/q * sqrt(s) for s = 1, 2, 3 and q up to
    ``SNAP_DENOMINATOR_BOUND``, with p = rint(x q / sqrt(s)); the first in
    (s, q) order within ``EQUALITY_TOL`` of ``x`` is taken.  Distinct such
    fractions differ by at least 1/4032, so at most one per surd is that
    close.  Values with no match, non-finite values and values of magnitude
    1e6 or more are returned verbatim and flagged unsnapped.
    """
    return snap_array([float(x)])[0]


def snap_array(x) -> list:
    """:func:`rational_snap` of every value of an array, flattened, as one
    ``SnappedValue`` per value: one vectorized pass over the (surd,
    denominator) candidate grid for all of them."""
    x = np.asarray(x, dtype=float).reshape(-1)
    rows = np.flatnonzero(np.abs(x) < 1e6)  # not inf or NaN either
    near = x[rows, None, None]
    p = np.rint(near * _SNAP_DENOMINATORS / _SNAP_ROOTS)
    hits = np.abs(p / _SNAP_DENOMINATORS * _SNAP_ROOTS - near) <= EQUALITY_TOL
    hits, p = hits.reshape(len(rows), _SNAP_CANDIDATES), p.reshape(len(rows), _SNAP_CANDIDATES)
    first = hits.argmax(axis=1)  # the first hit in (surd, denominator) order, if any
    exact, cell, num = np.zeros(len(x), bool), np.zeros(len(x), int), np.zeros(len(x))
    exact[rows] = hits[np.arange(len(rows)), first]
    cell[rows], num[rows] = first, p[np.arange(len(rows)), first]
    out = []
    for value, hit, at, p_at in zip(x.tolist(), exact.tolist(), cell.tolist(), num.tolist()):
        if not hit:
            out.append(SnappedValue(value=value, text=f"{value!r} (unsnapped)", exact=False))
            continue
        row, col = divmod(at, SNAP_DENOMINATOR_BOUND)
        numerator, den, surd = int(p_at), col + 1, row + 1
        out.append(SnappedValue(value=numerator / den * math.sqrt(surd),
                                text=_format_snap(numerator, den, surd), exact=True,
                                numerator=numerator, denominator=den, surd=surd))
    return out
