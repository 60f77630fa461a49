"""Identities and helpers the verification rows rely on, and the table itself.

The right equivariance gap of a projector row and the oracle row both read
the restricted action ``R = B^T Q^(x)k B`` of ``_restricted_action``; the
gap is exact only because ``(Q^T)^(x)k`` maps the space into itself.  The
row names are pinned in order, so a dropped, added or reordered row shows.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from conftest import haar_rotation
from symtensor.catalog import GROUPS_2D, GROUPS_3D, ROW_CATEGORIES
from symtensor.core import act
from symtensor.spaces import SPACES
from symtensor.verification import (ALL_PAIRS, CONTINUOUS, FINITE_PAIRS, _block_diagonal,
                                    _check_pattern, _oracle_row, _random_rotations,
                                    _restricted_action, _symmetric_block_pattern, build_rows)
from test_verification import TILTED_PAIRS, _setting

IDENTITY_CASES = [(s, g, False) for s, g in ALL_PAIRS] + [(s, g, True) for s, g in TILTED_PAIRS]


@pytest.mark.parametrize("space_name,group_name,tilted", IDENTITY_CASES,
                         ids=[f"{s}-{g}" + ("-tilted" if t else "") for s, g, t in IDENTITY_CASES])
def test_restricted_action_is_orthogonal_and_closes_the_space(space_name, group_name, tilted):
    sp, _, gens = _setting(space_name, group_name, tilted)
    r = _restricted_action(sp, gens)
    eye = np.eye(r.shape[1])
    assert float(np.max(np.abs(r @ r.transpose(0, 2, 1) - eye))) <= 1e-12
    # V = (Q^T)^(x)k B - B lies in span B
    v = act(gens.transpose(0, 2, 1), sp.k, sp.basis) - sp.basis
    assert float(np.max(np.abs(v - sp.basis @ (sp.basis.T @ v)))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_rotation_stack_equals_per_draw_rotations(n):
    got = _random_rotations(np.random.default_rng(11), 200, n)
    rng = np.random.default_rng(11)
    want = np.stack([haar_rotation(rng, n) for _ in range(200)])
    assert got.tobytes() == want.tobytes()
    assert np.allclose(np.linalg.det(got), 1.0)


@pytest.mark.parametrize("space_name,group_name", [("ela3", "cubic"), ("sym2", "trivial"),
                                                  ("v2bar", "d6")])
def test_oracle_row_reports_its_rank_margin(space_name, group_name):
    assert (space_name, group_name) in FINITE_PAIRS
    result = _oracle_row(space_name, group_name).run()
    assert result.ok
    null_dim, kept, dropped = result.actual.split(", ")
    assert int(null_dim) == int(result.expected.split()[-1])
    kept, dropped = float(kept.split()[-1]), float(dropped.split()[-1])
    assert kept >= 0.9 and dropped <= 1e-12


# sha256 of the row names, in table order, joined by newlines
ROW_NAMES_SHA256 = "0d7acf53c6905e681f6b22222923fb2b2852eb85adebe1693c78473599be691f"
ROW_COUNTS = {"dims": 24, "characters": 12, "haar": 10, "structure": 20, "projector": 124,
              "oracle": 97, "voigt": 6, "moduli": 4, "spot": 2}


def test_table_rows_are_pinned():
    rows = build_rows()
    categories = [row.category for row in rows]
    assert len(rows) == 299
    assert list(Counter(categories).items()) == list(ROW_COUNTS.items())
    assert tuple(dict.fromkeys(categories)) == ROW_CATEGORIES  # one run per category
    names = "\n".join(row.name for row in rows)
    assert hashlib.sha256(names.encode()).hexdigest() == ROW_NAMES_SHA256


def test_pairs_and_continuous_groups_come_from_the_catalog():
    assert len(ALL_PAIRS) == 124 and len(FINITE_PAIRS) == 97
    assert set(ALL_PAIRS) == {(s, g) for s, sp in SPACES.items()
                              for g in (GROUPS_2D if sp.n == 2 else GROUPS_3D)}
    assert CONTINUOUS == (("so2", 2), ("o2", 2), ("so2-e3", 3), ("o2-e3", 3), ("so3", 3))


def test_a_repeated_block_ties_its_copies():
    # the high2 x d2 display has two unequal 4x4 blocks: the pattern that
    # repeats one block matches its zeros and fails only on the ties
    block = _symmetric_block_pattern(4, "s")
    result = _check_pattern("high2", "d2", _block_diagonal([block, block]), 20)
    assert not result.ok and "breaks class" in result.actual and "expected 0" not in result.actual
