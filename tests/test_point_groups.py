"""Crystal classes with improper elements, built here by closure from their
Hermann-Mauguin generators, against published counts of independent
components: Nye (1957) for the piezoelectric moduli d_ijk, the Laue-class
counts for elasticity, and none for an odd-order tensor under a group that
holds the inversion -I.

Each dimension is checked along three paths: the trace formula
(``fix_dimension``), the rank of the averaged projector, and the mean of the
orbit-table character over the elements.
"""

import numpy as np
import pytest

from symtensor.characters import character_direct, fix_dimension
from symtensor.core import image_basis
from symtensor.groups import SymmetryGroup, rotation_z
from symtensor.projector import averaged_projector
from symtensor.spaces import SPACES, TensorSpace

PIEZO = TensorSpace("piezo", 3, 3, ((0, 2, 1),))

INVERSION = -np.eye(3)
MIRROR_Z = np.diag([1.0, 1.0, -1.0])   # m: the mirror normal to e3
MIRROR_X = np.diag([-1.0, 1.0, 1.0])   # a vertical mirror, normal to e1
TURN_X = np.diag([1.0, -1.0, -1.0])    # 2 about e1
TURN_111 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # 3 about [111]


def turn_z(order):
    return rotation_z(2 * np.pi / order)


# Hermann-Mauguin symbol -> generators, the principal axis along e3
CLASSES = {
    "1": (),
    "-1": (INVERSION,),
    "m": (MIRROR_Z,),
    "2/m": (turn_z(2), INVERSION),
    "mmm": (turn_z(2), TURN_X, INVERSION),
    "-4": (turn_z(4) @ MIRROR_Z,),
    "4/m": (turn_z(4), INVERSION),
    "-42m": (turn_z(4) @ MIRROR_Z, TURN_X),
    "4mm": (turn_z(4), MIRROR_X),
    "3m": (turn_z(3), MIRROR_X),
    "-6": (turn_z(3), MIRROR_Z),
    "-6m2": (turn_z(3), MIRROR_Z, MIRROR_X),
    "6mm": (turn_z(6), MIRROR_X),
    "-43m": (turn_z(4) @ MIRROR_Z, TURN_111),
    "m-3m": (turn_z(4), TURN_111, INVERSION),
}
ORDERS = {"1": 1, "-1": 2, "m": 2, "2/m": 4, "mmm": 8, "-4": 4, "4/m": 8, "-42m": 8,
          "4mm": 8, "3m": 6, "-6": 6, "-6m2": 12, "6mm": 12, "-43m": 24, "m-3m": 48}
CENTROSYMMETRIC = ("-1", "2/m", "mmm", "4/m", "m-3m")

PIEZO_DIMS = {"1": 18, "m": 10, "-4": 4, "-42m": 2, "4mm": 3, "3m": 4, "-6": 2,
              "-6m2": 1, "6mm": 3, "-43m": 1, **dict.fromkeys(CENTROSYMMETRIC, 0)}
ELA3_DIMS = {"-1": 21, "2/m": 13, "mmm": 9, "4/m": 7, "-42m": 6, "-6": 5, "m-3m": 3}


def point_group(symbol):
    """The finite group generated by the class's generators, breadth first
    from the identity, as a ``SymmetryGroup``."""
    def key(q):
        return tuple(np.round(q, 9).ravel() + 0.0)  # + 0.0 folds -0.0 into 0.0

    elements = {key(np.eye(3)): np.eye(3)}
    frontier = [np.eye(3)]
    while frontier:
        fresh = []
        for q in frontier:
            for s in CLASSES[symbol]:
                p = q @ s
                if key(p) not in elements:
                    elements[key(p)] = p
                    fresh.append(p)
        frontier = fresh
    mats = np.stack(list(elements.values()))
    return SymmetryGroup(3, symbol, mats, tuple(f"{symbol}[{i}]" for i in range(len(mats))))


def three_paths(space, group):
    """(trace formula, averaged-projector rank, mean of the direct character)."""
    mean = float(np.mean(character_direct(space, group.matrices)))
    rank = len(image_basis(averaged_projector(space, group)))
    return fix_dimension(space, group), rank, mean


@pytest.mark.parametrize("symbol", list(CLASSES))
def test_closure_order(symbol):
    g = point_group(symbol)
    assert g.order() == ORDERS[symbol]
    improper = np.linalg.det(g.matrices) < 0.0
    assert improper.any() == (symbol != "1")


@pytest.mark.parametrize("symbol,expected", list(PIEZO_DIMS.items()))
def test_piezo_counts(symbol, expected):
    dim, rank, mean = three_paths(PIEZO, point_group(symbol))
    assert dim == rank == expected
    assert mean == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("symbol,expected", list(ELA3_DIMS.items()))
def test_ela3_laue_counts(symbol, expected):
    dim, rank, mean = three_paths(SPACES["ela3"], point_group(symbol))
    assert dim == rank == expected
    assert mean == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("symbol", CENTROSYMMETRIC)
def test_v1_vanishes_with_inversion(symbol):
    dim, rank, mean = three_paths(SPACES["v1"], point_group(symbol))
    assert dim == rank == 0
    assert mean == pytest.approx(0.0, abs=1e-9)
