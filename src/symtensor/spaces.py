"""Constitutive-tensor spaces described by index-permutation symmetries.

A space is a set of order-k tensors over R^n whose coefficients are
invariant under a list of index-position permutations, i.e. constant on the
orbits of multi-indices under the group those generators generate.  The
normalized orbit indicators are an orthonormal basis B of the space, and its
orthogonal projector (symmetrization identity) is B B^T, the average of the
permutation operators over the group.  The dimension is the orbit count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .catalog import SPACE_NAMES as CATALOG_NAMES, catalog_key
from .core import FlatTensor, _check_order


def _check_permutation(perm: tuple, k: int) -> tuple:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"{perm} is not a permutation of 0..{k - 1}")
    return perm


def _compose(p: tuple, q: tuple) -> tuple:
    # (p then q) acting by axis relabeling: transpose(transpose(X, p), q)
    return tuple(p[q[i]] for i in range(len(p)))


def generate_permutation_group(generators, k: int) -> tuple:
    """Closure of the generators inside the symmetric group on k symbols."""
    identity = tuple(range(k))
    seen = {identity}
    frontier = [identity]
    gens = [_check_permutation(g, k) for g in generators]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return tuple(sorted(seen))


def _cycle_type(perm: tuple) -> tuple:
    """Cycle lengths of a permutation, in descending order."""
    lengths, seen = [], set()
    for m in perm:
        length = 0
        while m not in seen:
            seen.add(m)
            m, length = perm[m], length + 1
        lengths.append(length)
    return tuple(sorted(filter(None, lengths), reverse=True))


@dataclass(frozen=True, eq=False)
class TensorSpace:
    """Descriptor of an index-symmetric tensor space.

    Attributes
    ----------
    name : str
        Catalog name.
    n : int
        Ambient dimension, at least 1.
    k : int
        Tensor order, at least 1.
    generators : tuple of tuple of int
        Index-position permutations (0-based) under which coefficients
        are invariant.
    """

    name: str
    n: int
    k: int
    generators: tuple

    def __post_init__(self):
        _check_order(self.n, self.k)
        object.__setattr__(
            self, "generators",
            tuple(_check_permutation(g, self.k) for g in self.generators),
        )

    @cached_property
    def permutation_group(self) -> tuple:
        return generate_permutation_group(self.generators, self.k)

    @cached_property
    def orbits(self) -> np.ndarray:
        """Orbit number of each flat multi-index; orbits ordered by their least index.

        Each index is labelled by itself, then takes the least label among
        its images under each generator and its inverse until no label
        changes: the least index of its orbit, found without a table of
        every group element's images.
        """
        flat = np.arange(self.n**self.k).reshape((self.n,) * self.k)
        moves = [flat.transpose(p).reshape(-1)
                 for g in self.generators for p in (g, np.argsort(g))]
        least, settled = flat.reshape(-1), False
        while not settled:
            before = least
            for move in moves:
                least = np.minimum(least, least[move])
            settled = np.array_equal(least, before)
        orbits = np.unique(least, return_inverse=True)[1]
        orbits.flags.writeable = False
        return orbits

    @cached_property
    def basis(self) -> np.ndarray:
        """n^k x dim matrix whose columns are the normalized orbit indicators.

        Read by ``averaged_projector`` (its d x d matrix is formed through
        B), by ``structure_report`` (the 1/sqrt|O| entry of each displayed
        component) and by the checks; ``symmetrize`` reads the orbits
        directly.
        """
        sizes = np.bincount(self.orbits)
        b = np.zeros((self.orbits.size, sizes.size))  # the one n^k x dim allocation
        b[np.arange(self.orbits.size), self.orbits] = 1.0 / np.sqrt(sizes[self.orbits])
        b.flags.writeable = False
        return b

    @cached_property
    def projector(self) -> np.ndarray:
        """The dense symmetrizer ``B B^T``, read-only; no library path builds it."""
        p = self.basis @ self.basis.T
        p.flags.writeable = False
        return p

    @cached_property
    def cycle_index(self) -> tuple:
        """((cycle lengths, count), ...) over the cycle types of the group."""
        return tuple(sorted(Counter(map(_cycle_type, self.permutation_group)).items()))

    @cached_property
    def dim(self) -> int:
        # Burnside: a permutation with c cycles fixes n^c basis tensors
        fixed = sum(count * self.n ** len(cycles) for cycles, count in self.cycle_index)
        return fixed // len(self.permutation_group)


def membership_residual(space: TensorSpace, t: FlatTensor) -> float:
    """``||Pi t - t||_inf``; zero iff ``t`` lies in the space."""
    return float(np.max(np.abs(symmetrize(space, t).coeffs - t.coeffs)))


def symmetrize(space: TensorSpace, arr) -> FlatTensor:
    """Project an arbitrary coefficient array into the space: ``B (B^T t)``,
    read as the mean of ``t`` over each orbit, with O(n^k) memory.

    Each entry is divided by its orbit's size before the orbit sums, so the
    mean of entries bounded by M stays bounded by M and cannot overflow.
    """
    t = arr if isinstance(arr, FlatTensor) else FlatTensor(space.n, space.k, np.asarray(arr).reshape(-1))
    if (t.n, t.k) != (space.n, space.k):
        raise ValueError(
            f"tensor of order {t.k} over R^{t.n} does not match space "
            f"{space.name} (order {space.k} over R^{space.n})"
        )
    orbits = space.orbits
    sizes = np.bincount(orbits)
    return FlatTensor(space.n, space.k, np.bincount(orbits, t.coeffs / sizes[orbits])[orbits])


# ---------------------------------------------------------------------------
# Catalog, one entry per name of ``catalog.SPACE_NAMES``, in its order
#
# Position permutations are 0-based.  Pair swaps below exchange the two
# argument blocks of an operator-valued tensor (major symmetry).

_PAIR_SWAP_4 = (2, 3, 0, 1)
_BLOCK_SWAP_6 = (3, 4, 5, 0, 1, 2)

SPACES: dict[str, TensorSpace] = {
    # symmetric matrices
    "sym2": TensorSpace("sym2", 2, 2, ((1, 0),)),
    "sym3": TensorSpace("sym3", 3, 2, ((1, 0),)),
    # classical elasticity: both minor symmetries and the major one
    "ela2": TensorSpace("ela2", 2, 4, ((1, 0, 2, 3), (0, 1, 3, 2), _PAIR_SWAP_4)),
    "ela3": TensorSpace("ela3", 3, 4, ((1, 0, 2, 3), (0, 1, 3, 2), _PAIR_SWAP_4)),
    # non-symmetric constitutive law: major symmetry only
    "major3": TensorSpace("major3", 3, 4, (_PAIR_SWAP_4,)),
    # order-5 coupling tensors: one symmetric pair per argument block
    "v1": TensorSpace("v1", 3, 5, ((0, 2, 1, 3, 4), (0, 1, 2, 4, 3))),
    "v1bar": TensorSpace("v1bar", 3, 5, ((1, 0, 2, 3, 4), (0, 1, 2, 4, 3))),
    # order-6 curvature tensors: symmetric pair in each block plus block swap
    "v2": TensorSpace("v2", 3, 6, ((0, 2, 1, 3, 4, 5), (0, 1, 2, 3, 5, 4), _BLOCK_SWAP_6)),
    "v2bar": TensorSpace("v2bar", 3, 6, ((1, 0, 2, 3, 4, 5), (0, 1, 2, 4, 3, 5), _BLOCK_SWAP_6)),
    # planar third-order theory: block swap only
    "high2": TensorSpace("high2", 2, 6, (_BLOCK_SWAP_6,)),
}


def lookup(name: str) -> TensorSpace:
    return SPACES[catalog_key(name, CATALOG_NAMES, "space")]
