"""Vectorization isomorphisms and induced matrix representations.

Every map is described by an ordered slot table.  Slot ``alpha`` lists the
tensor multi-indices it reads, with a forward scale per index (slot value
= sum of scale * component) and an inverse scale (component = scale * slot
value).  This makes roundtrips exact by construction and lets the tables
be dumped as JSON for downstream consumers.

Maps provided:

* ``VOIGT6``   -- Sym(3) -> R^6, off-diagonals doubled forward, halved back;
* ``MANDEL6``  -- isometric sqrt(2) variant of the above;
* ``VOIGT3_2D`` / ``MANDEL3_2D`` -- planar analogues, ordering (11, 22, 12);
* ``NINE_SLOT`` -- any 3x3 matrix -> R^9, ordering (11, 22, 33, 23, 32, 13,
  31, 12, 21), unit scales;
* ``EXTENDED18`` -- Sym(3) (x) R^3 -> R^18 in the orthonormal pair basis
  (slot order frozen below);
* ``OCTET8``   -- (x)^3 R^2 -> R^8 (frozen order chosen so the planar
  dihedral structure reports come out block diagonal);
* ``MATRIX2`` / ``MATRIX3`` -- identity slot maps R^n -> R^n used to render
  order-2 spaces as plain matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import FlatTensor

_SQ2 = math.sqrt(2.0)
SLOT_TOL = 1e-9  # one slot's components agree within this x the largest |component|


@dataclass(frozen=True)
class Slot:
    pattern: tuple          # tensor multi-indices (0-based) read by this slot
    forward: tuple          # per-index forward scales
    inverse: tuple          # per-index inverse scales

    def __post_init__(self):
        if not (len(self.pattern) == len(self.forward) == len(self.inverse)):
            raise ValueError("slot pattern and scale lists must have equal length")


@dataclass(frozen=True)
class VoigtMap:
    """Ordered slot table describing one vectorization isomorphism."""

    name: str
    n: int
    order: int
    slots: tuple

    def __post_init__(self):
        count = {}
        for slot in self.slots:
            for idx in slot.pattern:
                if len(idx) != self.order:
                    raise ValueError(f"multi-index {idx} has wrong length for order {self.order}")
                count[idx] = count.get(idx, 0) + 1
        if any(c > 1 for c in count.values()):
            raise ValueError(f"map {self.name}: some tensor component feeds two slots")

    @property
    def length(self) -> int:
        return len(self.slots)

    @cached_property
    def matrix(self) -> np.ndarray:
        """length x n^order matrix of each slot's inverse scales at the flat
        indices of the components it reads; ``inverse(v)`` is ``matrix.T @ v``."""
        m = np.zeros((self.length, self.n**self.order))
        for a, slot in enumerate(self.slots):
            flat = np.ravel_multi_index(tuple(zip(*slot.pattern)), (self.n,) * self.order)
            m[a, flat] = slot.inverse
        m.flags.writeable = False
        return m

    def forward(self, tensor) -> np.ndarray:
        """Vectorize a tensor (FlatTensor or dense array)."""
        arr = tensor.reshaped() if isinstance(tensor, FlatTensor) else np.asarray(tensor, dtype=float)
        if arr.shape != (self.n,) * self.order:
            raise ValueError(f"map {self.name} expects shape {(self.n,) * self.order}, got {arr.shape}")
        self._check_compatible(arr)
        out = np.zeros(self.length)
        for a, slot in enumerate(self.slots):
            out[a] = sum(s * arr[idx] for idx, s in zip(slot.pattern, slot.forward))
        return out

    def inverse(self, vec) -> FlatTensor:
        """Rebuild the tensor from its slot vector."""
        vec = np.asarray(vec, dtype=float).reshape(-1)
        if vec.shape != (self.length,):
            raise ValueError(f"map {self.name} expects a vector of length {self.length}")
        return FlatTensor(self.n, self.order, self.matrix.T @ vec)

    def _check_compatible(self, arr: np.ndarray) -> None:
        scale = float(np.max(np.abs(arr))) or 1.0
        for slot in self.slots:
            if len(slot.pattern) < 2:
                continue
            ref_idx, ref_inv = slot.pattern[0], slot.inverse[0]
            for idx, inv in zip(slot.pattern[1:], slot.inverse[1:]):
                if abs(arr[idx] / inv - arr[ref_idx] / ref_inv) > SLOT_TOL * scale:
                    raise ValueError(
                        f"map {self.name}: components {ref_idx} and {idx} violate "
                        "the symmetry this map assumes"
                    )

    def table(self) -> dict:
        """JSON-ready slot table (1-based indices for display)."""
        return {
            "name": self.name,
            "ambient": self.n,
            "order": self.order,
            "slots": [
                {
                    "slot": a + 1,
                    "components": [[i + 1 for i in idx] for idx in slot.pattern],
                    "forward": list(slot.forward),
                    "inverse": list(slot.inverse),
                }
                for a, slot in enumerate(self.slots)
            ],
        }


def _sym_slot(i: int, j: int, fwd: float, inv: float) -> Slot:
    if i == j:
        return Slot(((i, i),), (1.0,), (1.0,))
    return Slot(((i, j), (j, i)), (fwd, fwd), (inv, inv))


def _pair_slot(i: int, j: int, k: int) -> Slot:
    # orthonormal basis of Sym(3) (x) R^3: unit on diagonal pairs,
    # 1/sqrt(2) on each order of an off-diagonal pair
    if i == j:
        return Slot(((i, i, k),), (1.0,), (1.0,))
    return Slot(((i, j, k), (j, i, k)), (1.0 / _SQ2, 1.0 / _SQ2), (1.0 / _SQ2, 1.0 / _SQ2))


_VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))

VOIGT6 = VoigtMap("voigt6", 3, 2,
                  tuple(_sym_slot(i, j, 1.0, 0.5) for i, j in _VOIGT_PAIRS))
MANDEL6 = VoigtMap("mandel6", 3, 2,
                   tuple(_sym_slot(i, j, 1.0 / _SQ2, 1.0 / _SQ2) for i, j in _VOIGT_PAIRS))
VOIGT3_2D = VoigtMap("voigt3-2d", 2, 2,
                     tuple(_sym_slot(i, j, 1.0, 0.5) for i, j in ((0, 0), (1, 1), (0, 1))))
MANDEL3_2D = VoigtMap("mandel3-2d", 2, 2,
                      tuple(_sym_slot(i, j, 1.0 / _SQ2, 1.0 / _SQ2)
                            for i, j in ((0, 0), (1, 1), (0, 1))))

NINE_SLOT = VoigtMap("nine-slot", 3, 2, tuple(
    Slot(((i, j),), (1.0,), (1.0,))
    for i, j in ((0, 0), (1, 1), (2, 2), (1, 2), (2, 1), (0, 2), (2, 0), (0, 1), (1, 0))
))

# 18-slot assignment for Sym(3) (x) R^3, written as (pair | last index),
# 1-based: (11|1), (22|1), (12|2), (33|1), (13|3), (22|2), (11|2), (12|1),
# (33|2), (23|3), (33|3), (11|3), (13|1), (22|3), (23|2), (12|3), (13|2), (23|1).
EXTENDED18_ORDER = (
    (0, 0, 0), (1, 1, 0), (0, 1, 1), (2, 2, 0), (0, 2, 2),
    (1, 1, 1), (0, 0, 1), (0, 1, 0), (2, 2, 1), (1, 2, 2),
    (2, 2, 2), (0, 0, 2), (0, 2, 0), (1, 1, 2), (1, 2, 1),
    (0, 1, 2), (0, 2, 1), (1, 2, 0),
)

EXTENDED18 = VoigtMap("extended18", 3, 3,
                      tuple(_pair_slot(i, j, k) for i, j, k in EXTENDED18_ORDER))

# Frozen ordering of the eight (x)^3 R^2 basis triples: the first four have
# an even number of 2-indices, the last four are their 1<->2 swaps.  With
# this split the planar dihedral reports come out block diagonal.
OCTET8_ORDER = (
    (0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1),
    (1, 1, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0),
)

OCTET8 = VoigtMap("octet8", 2, 3,
                  tuple(Slot((idx,), (1.0,), (1.0,)) for idx in OCTET8_ORDER))

MATRIX2 = VoigtMap("matrix2", 2, 1, tuple(Slot(((i,),), (1.0,), (1.0,)) for i in range(2)))
MATRIX3 = VoigtMap("matrix3", 3, 1, tuple(Slot(((i,),), (1.0,), (1.0,)) for i in range(3)))

ALL_MAPS = (VOIGT6, MANDEL6, VOIGT3_2D, MANDEL3_2D, NINE_SLOT, EXTENDED18, OCTET8,
            MATRIX2, MATRIX3)

# Rendering maps (rows, cols) for the structure reports of catalog spaces.
# v1bar renders as the 18x6 matrix of a map R^6 -> R^18; the v1/v2 variants
# keep their symmetric pair away from the leading index block, so the
# pair-first slot basis does not apply to them and they stay unrendered.
STRUCTURE_MAPS: dict[str, tuple] = {
    "sym2": (MATRIX2, MATRIX2),
    "sym3": (MATRIX3, MATRIX3),
    "ela2": (VOIGT3_2D, VOIGT3_2D),
    "ela3": (VOIGT6, VOIGT6),
    "major3": (NINE_SLOT, NINE_SLOT),
    "v1bar": (EXTENDED18, VOIGT6),
    "v2bar": (EXTENDED18, EXTENDED18),
    "high2": (OCTET8, OCTET8),
}


def induced_matrix(map_row: VoigtMap, map_col: VoigtMap, t: FlatTensor) -> np.ndarray:
    """Matrix of an operator-valued tensor under a pair of slot maps.

    ``t`` has order ``map_row.order + map_col.order`` with the leading
    indices belonging to the output (row) side, and the returned matrix M
    satisfies <M a, b> = <T applied to map_col^-1 a, map_row^-1 b> for all
    slot vectors a, b.
    """
    if map_row.n != map_col.n or t.n != map_row.n:
        raise ValueError("ambient dimension mismatch between maps and tensor")
    if t.k != map_row.order + map_col.order:
        raise ValueError(
            f"tensor order {t.k} does not fit maps of orders "
            f"{map_row.order} + {map_col.order}"
        )
    arr = t.coeffs.reshape(map_row.matrix.shape[1], map_col.matrix.shape[1])
    return map_row.matrix @ arr @ map_col.matrix.T


def axl(a: np.ndarray) -> np.ndarray:
    """Axial vector of a skew 3x3 matrix: (axl A)_k = -1/2 eps_kij A_ij."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise ValueError("axl expects a 3x3 matrix")
    if np.max(np.abs(a + a.T)) > 1e-9 * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError("axl expects a skew-symmetric matrix")
    return np.array([a[2, 1], a[0, 2], a[1, 0]])


def anti(v) -> np.ndarray:
    """Skew matrix of a 3-vector: (anti a)_ij = -eps_ijk a_k; inverse of axl."""
    v = np.asarray(v, dtype=float).reshape(3)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def dump_tables() -> dict:
    """All slot tables keyed by map name (the ``maps --dump`` payload)."""
    return {m.name: m.table() for m in ALL_MAPS}
