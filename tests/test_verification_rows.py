"""Identities and helpers the verification rows rely on.

The right equivariance gap of a projector row and the oracle row both read
the restricted action ``R = B^T Q^(x)k B`` of ``_restricted_action``; the
gap is exact only because ``(Q^T)^(x)k`` maps the space into itself.
"""

import numpy as np
import pytest

from conftest import haar_rotation
from symtensor.core import act
from symtensor.verification import (ALL_PAIRS, FINITE_PAIRS, _oracle_row, _random_rotations,
                                    _restricted_action)
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
