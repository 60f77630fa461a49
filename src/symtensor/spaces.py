"""Constitutive-tensor spaces described by index-permutation symmetries.

A space is a set of order-k tensors over R^n whose coefficients are
invariant under a list of index-position permutations, i.e. constant on the
orbits of multi-indices under the group those generators generate.  The
normalized orbit indicators are an orthonormal basis B of the space, and its
orthogonal projector (symmetrization identity) is B B^T, the average of the
permutation operators over the group.  The dimension is the orbit count.

The cycle index of the group fixes the character on every rotation as an
integer Laurent polynomial, and with it the dimension of the subspace fixed
by each catalog group exactly (``exact_dimension``).  That path and the
descriptor itself run without numpy; only the members that need the orbit
table or the basis (``orbits``, ``basis``, ``projector``, ``symmetrize``,
``membership_residual``) load it, on first use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
import math

from .catalog import AXIAL_GROUPS, SPACE_NAMES as CATALOG_NAMES, catalog_key, check_order, group_id


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
        check_order(self.n, self.k)
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
        import numpy as np

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
        import numpy as np

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


def _exact_quotient(total: int, count: int, what: str) -> int:
    """``total / count`` as an integer; a remainder raises, it is never rounded."""
    quotient, remainder = divmod(total, count)
    if remainder:
        common = math.gcd(total, count)
        raise ValueError(f"{what} is {total // common}/{count // common}, not an integer")
    return quotient


def weight_polynomial(space: TensorSpace) -> tuple:
    """The character on a rotation by theta as an integer Laurent polynomial
    in z = e^{i theta}: the coefficients (c_-k, ..., c_k), c_j at index k + j.

    Such a rotation has tr Q^L = z^L + z^-L, plus 1 in 3D (the axis), so the
    cycle index turns chi(Q) into (1/|P|) sum_sigma prod_cycles of those
    Laurent polynomials.  c_j is the multiplicity of the weight j, an
    integer; exact arithmetic throughout.
    """
    n, k = space.n, space.k
    if n not in (2, 3):
        raise ValueError(f"rotations act on R^2 or R^3, not on R^{n} (space {space.name})")
    axis, size = n - 2, 2 * k + 1
    total = [0] * size
    for cycles, count in space.cycle_index:
        term = [0] * k + [count] + [0] * k
        for length in cycles:  # times z^L + z^-L + axis
            pad = [0] * length
            wide = pad + term + pad
            term = [wide[i] + wide[i + 2 * length] + axis * wide[i + length]
                    for i in range(size)]
        total = [a + b for a, b in zip(total, term)]
    order = len(space.permutation_group)
    return tuple(_exact_quotient(c, order, f"weight {j} of {space.name}")
                 for j, c in enumerate(total, start=-k))


def _reflection_character(space: TensorSpace) -> int:
    """chi on a reflection of the plane, where tr Q^L = 1 + (-1)^L: a
    permutation whose cycles all have even length counts 2^cycles, any
    other 0."""
    total = sum(count * 2 ** len(cycles) for cycles, count in space.cycle_index
                if all(length % 2 == 0 for length in cycles))
    return _exact_quotient(total, len(space.permutation_group),
                           f"the character of {space.name} on a reflection")


def exact_dimension(space: TensorSpace, group_name: str) -> int:
    """Dimension of the subspace fixed by the catalog group ``group_name``,
    exactly, from the weight polynomial sum_j c_j z^j.

    With S_m = sum over m | j of c_j, the mean of chi over the m-th roots of
    unity: trivial S_1, z<m> S_m, so2 and so2-e3 c_0, and so3 c_0 - c_1
    (Weyl).  The dihedral groups, o2 and o2-e3 take the mean of their
    rotations and of their improper coset, on which chi is constant: a
    half-turn (z = -1, chi = 2 S_2 - S_1) in 3D, a reflection in 2D.  cubic
    is the class sum (chi(1) + 8 chi(2 pi/3) + 9 chi(pi) + 6 chi(pi/2)) / 24.
    A non-integer mean raises ``ValueError``; it is never rounded.  The
    group must act on the space's ambient (``catalog.group_id``); the axis
    of a 3D group does not change the dimension.
    """
    key, _ = group_id(group_name, space.n)
    coeffs, k = weight_polynomial(space), space.k

    def s(m: int) -> int:
        return sum(c for j, c in enumerate(coeffs, start=-k) if j % m == 0)

    half_turn = 2 * s(2) - s(1)  # chi at z = -1
    if key == "cubic":
        # the 8 third-turns have chi = (3 S_3 - S_1) / 2, the 6 quarter-turns 2 S_4 - S_2
        total, count = s(1) + 4 * (3 * s(3) - s(1)) + 9 * half_turn + 6 * (2 * s(4) - s(2)), 24
    elif key == "so3":
        total, count = coeffs[k] - coeffs[k + 1], 1
    else:
        order, improper = AXIAL_GROUPS.get(key, (1, False))  # trivial: S_1
        total, count = s(order) if order else coeffs[k], 1
        if improper:
            coset = half_turn if space.n == 3 else _reflection_character(space)
            total, count = total + coset, 2
    return _exact_quotient(total, count, f"the {key} mean of the character of {space.name}")


def membership_residual(space: TensorSpace, t: FlatTensor) -> float:
    """``||Pi t - t||_inf``; zero iff ``t`` lies in the space."""
    import numpy as np

    return float(np.max(np.abs(symmetrize(space, t).coeffs - t.coeffs)))


def symmetrize(space: TensorSpace, arr) -> FlatTensor:
    """Project an arbitrary coefficient array into the space: ``B (B^T t)``,
    read as the mean of ``t`` over each orbit, with O(n^k) memory.

    Each entry is divided by its orbit's size before the orbit sums, so the
    mean of entries bounded by M stays bounded by M and cannot overflow.
    """
    import numpy as np
    from .core import FlatTensor

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
