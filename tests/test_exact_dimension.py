"""Exact dimensions from the weight polynomial, and the numpy-free group check.

``spaces.exact_dimension`` reads each catalog group's dimension off the
integer Laurent polynomial of the character on a rotation; the Haar route
(``characters.fix_dimension``) is its independent check here.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from symtensor.catalog import GROUPS_2D, GROUPS_3D, group_id
from symtensor.characters import fix_dimension
from symtensor.cli import main
from symtensor.groups import resolve_group
from symtensor.spaces import SPACES, TensorSpace, exact_dimension, weight_polynomial

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIMS = json.loads((ROOT / "bench" / "reference.json").read_text())["dims"]
AMBIENT_GROUPS = {2: GROUPS_2D, 3: GROUPS_3D}
# a lone weight 1 in place of ela3's weight polynomial, which no character has
ODD_WEIGHT = (0, 0, 0, 0, 0, 1, 0, 0, 0)


def _user_spaces(count: int, seed: int) -> list:
    """``count`` seeded spaces over R^2 and R^3 of order k <= 6, each with up
    to three random slot permutations."""
    rng = random.Random(seed)
    spaces = []
    for i in range(count):
        n, k = rng.choice((2, 3)), rng.randint(1, 6)
        gens = tuple(tuple(rng.sample(range(k), k)) for _ in range(rng.randint(0, 3)))
        spaces.append(TensorSpace(f"user{i}", n, k, gens))
    return spaces


@pytest.mark.parametrize("key", sorted(REFERENCE_DIMS))
def test_reference_dimensions(key):
    space, group = key.split()
    assert exact_dimension(SPACES[space], group) == REFERENCE_DIMS[key]


def test_user_built_spaces_match_the_haar_route():
    groups = {(n, name): resolve_group(name, n) for n, names in AMBIENT_GROUPS.items()
              for name in names}
    checked = 0
    for sp in _user_spaces(120, seed=20240815):
        for name in AMBIENT_GROUPS[sp.n]:
            assert exact_dimension(sp, name) == fix_dimension(sp, groups[sp.n, name]), (
                sp.n, sp.k, sp.generators, name)
            checked += 1
    assert checked > 1300


@pytest.mark.parametrize("k,expected", [(8, 91), (11, 1585), (12, 4213), (16, 227475)])
def test_so3_riordan_numbers(k, expected):
    # OEIS A005043; k = 16 is past the degree-12 cap of the SO(3) Haar rule
    assert exact_dimension(TensorSpace(f"t{k}", 3, k, ()), "so3") == expected


@pytest.mark.parametrize("name", list(SPACES))
def test_weight_polynomial_is_a_real_character(name):
    sp = SPACES[name]
    coeffs = weight_polynomial(sp)
    assert len(coeffs) == 2 * sp.k + 1 and coeffs == coeffs[::-1]
    assert all(isinstance(c, int) and c >= 0 for c in coeffs)
    assert sum(coeffs) == sp.dim  # chi(I)


def test_harmonic_multiplicities_of_ela3():
    # m_l = c_l - c_(l+1): two isotropic, two deviatoric and one order-4 harmonic part
    c = weight_polynomial(SPACES["ela3"])[4:] + (0,)  # c_0, ..., c_4, c_5 = 0
    assert [c[l] - c[l + 1] for l in range(5)] == [2, 0, 2, 0, 1]


def test_non_integer_mean_raises(monkeypatch):
    # d2 averages its rotations (S_2 = 0) and half-turns (2 S_2 - S_1 = -1)
    # to -1/2: refused, not rounded
    monkeypatch.setattr("symtensor.spaces.weight_polynomial", lambda sp: ODD_WEIGHT)
    with pytest.raises(ValueError, match="not an integer"):
        exact_dimension(SPACES["ela3"], "d2")


def test_cli_maps_a_non_integer_mean_to_exit_4(monkeypatch, capsys):
    monkeypatch.setattr("symtensor.spaces.weight_polynomial", lambda sp: ODD_WEIGHT)
    code = main(["dim", "--space", "ela3", "--group", "d2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "error: the d2 mean of the character of ela3 is -1/2, not an integer\n"


@pytest.mark.parametrize("n,group", [(n, g) for n, names in AMBIENT_GROUPS.items()
                                     for g in names])
def test_group_id_is_the_built_catalog_id(n, group):
    assert group_id(group.upper(), n) == (group, resolve_group(group, n).catalog_id)


@pytest.mark.parametrize("name,ambient,axis,error", [
    ("hex", 3, None, KeyError), ("cubic", 2, None, KeyError), ("trivial", 4, None, KeyError),
    ("so3", 3, (1.0, 0.0, 0.0), ValueError), ("z4", 2, (1.0, 0.0, 0.0), ValueError),
    ("z4", 3, (0.0, 0.0, 0.0), ValueError), ("z4", 3, (float("nan"), 0.0, 1.0), ValueError),
    ("o2-e3", 3, (1.0, 0.0), ValueError), ("d6", 3, ((0.0, 0.0, 1.0),), ValueError),
])
def test_group_id_refuses_what_resolve_group_refuses(name, ambient, axis, error):
    with pytest.raises(error) as checked:
        group_id(name, ambient, axis)
    with pytest.raises(error) as built:
        resolve_group(name, ambient, axis)
    assert checked.value.args == built.value.args


def test_exact_dimension_refuses_a_group_of_another_ambient():
    with pytest.raises(KeyError, match="does not act on 2D spaces"):
        exact_dimension(SPACES["ela2"], "cubic")


def test_spaces_and_exact_dimension_load_no_numpy():
    code = ("import sys; from symtensor.spaces import SPACES, exact_dimension; "
            "print(exact_dimension(SPACES['v2bar'], 'so3'), 'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert (done.returncode, done.stdout) == (0, "5 False\n"), done.stderr


def test_dim_needs_no_frame(capsys):
    # the dimension does not depend on the axis, so dim builds no frame
    code = main(["dim", "--space", "ela3", "--group", "z4", "--axis", "3e-7,0,-1"])
    assert (code, capsys.readouterr().out) == (0, "7\n")
