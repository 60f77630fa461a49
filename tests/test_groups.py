import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symtensor.characters import fix_dimension
from symtensor.core import act, kron_power
from symtensor.groups import (CLOSURE_TOL, FLIP_E1_3D, GROUPS_2D, GROUPS_3D, REFLECTION_2D,
                              GroupElement, QuadratureRule, SymmetryGroup, axis_aligner,
                              closure_check, group_kind, haar_rule, integrate,
                              resolve_group, rotation_2d, rotation_y, rotation_z, so3_factors)
from symtensor.projector import project
from symtensor.spaces import SPACES, TensorSpace, symmetrize

from conftest import haar_rotation

# Test ids of the continuous groups, kept from the library's former internal
# names so the suite's test names stay stable; the parameters are catalog names.
TEST_ID = {"so2": "SO2_2D", "o2": "O2_2D", "so2-e3": "SO2_e3", "o2-e3": "O2_e3", "so3": "SO3"}


def continuous(name, axis=None):
    """The continuous catalog group ``name`` on the one ambient it acts on."""
    return resolve_group(name, 2 if name in ("so2", "o2") else 3, axis=axis)


def trace(q):
    return np.trace(q, axis1=-2, axis2=-1)


def so3_node_loop(degree):
    """The SO(3) product rule built one node at a time, in (phi, u, psi) order:
    degree + 1 angles each in phi and psi, degree // 2 + 1 Gauss-Legendre nodes in u."""
    count = degree + 1
    angles = [2 * np.pi * j / count for j in range(count)]
    u_nodes, u_weights = np.polynomial.legendre.leggauss(degree // 2 + 1)
    nodes = []
    for phi in angles:
        rz_phi = rotation_z(phi)
        for u, wu in zip(u_nodes, u_weights):
            mid = rz_phi @ rotation_y(float(np.arccos(u)))
            for psi in angles:
                nodes.append((mid @ rotation_z(psi), float(wu) / (2 * count * count)))
    return nodes


def axial_node_loop(ambient, count, improper, frame):
    """The cyclic or dihedral group of order ``count`` built one element at a time."""
    out = []
    for coset in (False, True)[:1 + improper]:
        for j in range(count):
            theta = 2 * np.pi * j / count
            q = rotation_2d(theta) if ambient == 2 else rotation_z(theta)
            if coset:
                q = q @ (REFLECTION_2D if ambient == 2 else FLIP_E1_3D)
            if frame is not None:
                q = frame @ q @ frame.T
            out.append(q)
    return out


def brute_force_cube_rotations():
    """Independent enumeration: signed permutation matrices with det +1."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = np.zeros((3, 3))
            for row, col in enumerate(perm):
                m[row, col] = signs[row]
            if np.linalg.det(m) > 0:
                out.append(m)
    return out


def closure_loop(elements):
    """The quadratic closure check, one row of the product table at a time,
    as (passed, message): the reference for ``closure_check``.
    Once every product is found, a row whose first matches are no
    permutation reports its first repeated column and the earlier one."""
    elements = tuple(elements)
    if not elements:
        return False, "empty element list"
    mats = np.stack([e.matrix for e in elements])
    if not np.any(np.max(np.abs(mats - np.eye(mats.shape[1])), axis=(1, 2)) < CLOSURE_TOL):
        return False, "identity element missing"
    rows = []
    for i, a in enumerate(elements):
        # found[j, m]: the product a @ elements[j] matches elements[m]
        found = np.max(np.abs((a.matrix @ mats)[:, None] - mats[None]), axis=(2, 3)) < CLOSURE_TOL
        missing = np.flatnonzero(~found.any(axis=1))
        if missing.size:
            b = elements[int(missing[0])]
            return (False, f"product of elements {i} ({a.label}) and {int(missing[0])} "
                           f"({b.label}) not in set")
        rows.append(found.argmax(axis=1).tolist())
    for row in rows:
        for j, target in enumerate(row):
            if target in row[:j]:
                a, b = elements[row.index(target)], elements[j]
                return (False, f"elements {row.index(target)} ({a.label}) and {j} ({b.label}) "
                               f"are the same element")
    return True, None


def closure_outcome(elements):
    """``closure_check`` on the stack of a ``GroupElement`` list, as (passed,
    message): the message of the ``ValueError`` it raises, or None."""
    elements = tuple(elements)
    mats = np.stack([e.matrix for e in elements]) if elements else np.empty((0, 2, 2))
    try:
        closure_check(mats, [e.label for e in elements])
    except ValueError as exc:
        return False, str(exc)
    return True, None


def finite_catalog():
    """Every finite catalog group, the 3D axial ones also about two tilted axes."""
    tilted = (None, np.ones(3) / math.sqrt(3.0), np.array([0.0, 0.6, 0.8]))
    out = []
    for ambient, names in ((2, GROUPS_2D), (3, GROUPS_3D)):
        for name in names:
            if group_kind(name) == "finite":
                for axis in tilted if ambient == 3 and name[0] in "zd" else (None,):
                    out.append(resolve_group(name, ambient, axis=axis))
    return out


def moved_involution(e, size):
    """A reflection (2D) or half-turn (3D) ``e`` moved to e R, with R a small
    rotation that e conjugates to its inverse (any rotation in 2D, one about
    an axis perpendicular to the half-turn's in 3D), scaled so that e R - e
    has max-abs ``size``.  Then (e R)^2 = I, and on the catalog groups no
    product with e R is off from the list by more than 1.25 ``size``, so
    moves of 5e-11 and 2e-10 land on either side of CLOSURE_TOL."""
    q, frame = e.matrix, None
    if len(q) == 3:
        axis = np.linalg.svd(q + np.eye(3))[0][:, 0]  # fixed by the half-turn
        normal = np.cross(axis, np.eye(3)[np.argmin(np.abs(axis))])
        frame = axis_aligner(normal / np.linalg.norm(normal))

    def turn(t):
        return rotation_2d(t) if frame is None else frame @ rotation_z(t) @ frame.T

    unit = np.max(np.abs(q @ turn(size) - q)) / size
    return GroupElement(q @ turn(size / unit), e.label + "'")


class TestFiniteCatalog:
    def test_z2_is_plus_minus_identity(self):
        g = resolve_group("z2", 2)
        mats = sorted((np.round(e.matrix).astype(int).tolist() for e in g.elements))
        assert mats == [[[-1, 0], [0, -1]], [[1, 0], [0, 1]]]

    def test_cubic_group_against_enumeration(self):
        g = resolve_group("cubic", 3)
        assert g.order() == 24
        reference = brute_force_cube_rotations()
        assert len(reference) == 24
        for e in g.elements:
            assert set(np.unique(np.abs(e.matrix))) <= {0.0, 1.0}
            assert any(np.array_equal(e.matrix, m) for m in reference)

    def test_d4_2d_has_eight_elements(self):
        assert resolve_group("d4", 2).order() == 8

    def test_dn_counts(self):
        for n in (2, 3, 6):
            assert resolve_group(f"d{n}", 2).order() == 2 * n
            assert resolve_group(f"z{n}", 3).order() == n

    def test_axis_conjugation(self):
        axis = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        g = resolve_group("z3", 3, axis=axis)
        for e in g.elements:
            assert np.allclose(e.matrix @ axis, axis, atol=1e-12)

    @pytest.mark.parametrize("name", ["z3", "so2-e3"])
    def test_non_unit_axis_normalized(self, name):
        # 5e-10 off unit length: normalized first, so every element is orthogonal
        g = resolve_group(name, 3, axis=[0.6, 0.0, 0.8 + 5e-10])
        assert g.frame is not None
        for e in g.sample_elements():
            assert np.allclose(e.matrix @ [0.6, 0.0, 0.8], [0.6, 0.0, 0.8], atol=1e-9)
        e3 = resolve_group(name, 3, axis=[0.0, 0.0, 2.0])
        assert e3.frame is None
        assert ([e.matrix.tobytes() for e in e3.sample_elements()]
                == [e.matrix.tobytes() for e in resolve_group(name, 3).sample_elements()])

    @pytest.mark.parametrize("axis", [(1.0, 2.0, 3.0), (0.3, 0.1, 1.0), (0.001, 0.0, 1.0),
                                      (2.0, -1.0, 2.0)])
    def test_axis_scale_is_exact(self, axis):
        # a power-of-two multiple gives the bit-identical frame, however large or small
        frame = axis_aligner(axis)
        for scale in (2.0**-1000, 2.0**-60, 2.0**60, 2.0**1000):
            assert axis_aligner(np.array(axis) * scale).tobytes() == frame.tobytes()

    @pytest.mark.parametrize("name,ambient", [("z2", 3), ("d2", 2), ("trivial", 2),
                                              ("trivial", 3)],
                             ids=["Zn_3D-3", "Dn_2D-2", "trivial-2", "trivial-3"])
    def test_matching_ambient_accepted(self, name, ambient):
        g = resolve_group(name, ambient)
        assert g.ambient == ambient
        assert all(e.matrix.shape == (ambient, ambient) for e in g.elements)

    def test_nan_axis_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            axis_aligner([np.nan, 0.0, 1.0])

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (1.0, 0.0),
                                      ((0.0, 0.0, 1.0),), (0.0, 0.0, 1.0, 0.0)])
    def test_zero_or_misshapen_axis_rejected(self, axis):
        with pytest.raises(ValueError, match="nonzero with finite components"):
            axis_aligner(axis)


class TestClosureCheck:
    def test_plus_minus_identity_passes(self):
        g = resolve_group("z2", 2)
        assert closure_check(g.matrices, g.labels) is None

    def test_cubic_full_product_table(self):
        g = resolve_group("cubic", 3)
        assert closure_check(g.matrices, g.labels) is None

    def test_gap_reported_with_witness(self):
        # rot(2pi/3)^2 = rot(4pi/3) is missing from the set; the message names both factors
        elements = [GroupElement(np.eye(2), "id"),
                    GroupElement(rotation_2d(2 * np.pi / 3), "rot")]
        assert closure_outcome(elements) == (False, "product of elements 1 (rot) and 1 (rot) "
                                                    "not in set")

    def test_missing_identity(self):
        passed, message = closure_outcome([GroupElement(-np.eye(2), "-id")])
        assert not passed and "identity" in message

    @pytest.mark.parametrize("turn,powers,witness", [
        # r @ r^2 = r^3 is the first gap by rows; by columns it would be r^2 @ r
        (np.pi / 2, (0, 1, 2), (1, 2)),
        # row 1 misses both r @ r and r @ r^3; the first of them is reported
        (np.pi / 3, (0, 1, 3), (1, 1)),
    ])
    def test_first_witness_in_row_major_order(self, turn, powers, witness):
        elements = [GroupElement(rotation_2d(p * turn), f"r^{p}") for p in powers]
        i, j = witness
        assert closure_outcome(elements) == (False, f"product of elements {i} (r^{powers[i]}) "
                                                    f"and {j} (r^{powers[j]}) not in set")


class TestClosureTable:
    """``closure_check`` gives the reference loop's (passed, message) on every
    catalog group and on mutated element lists."""

    @pytest.mark.parametrize("g", finite_catalog(), ids=lambda g: g.catalog_id)
    def test_catalog_group_matches_loop(self, g):
        elements = list(g.elements)
        assert closure_outcome(elements) == closure_loop(elements) == (True, None)
        assert closure_check(g.matrices, g.labels) is None

    @pytest.mark.parametrize("g", finite_catalog(), ids=lambda g: g.catalog_id)
    def test_mutated_lists_match_loop(self, g):
        elements = list(g.elements)
        # the reflections (2D) and half-turns (3D)
        flips = [k for k, e in enumerate(elements) if np.linalg.det(e.matrix) < 0.0
                 or g.ambient == 3 and np.trace(e.matrix) == pytest.approx(-1.0)]
        cases = {}
        for k in flips:
            # {I, e R} is itself a group, so only order 2 keeps a 2e-10 move
            for size, passes in ((5e-11, True), (2e-10, g.order() == 2)):
                moved = moved_involution(elements[k], size)
                assert np.max(np.abs(moved.matrix - elements[k].matrix)) == pytest.approx(size)
                cases[f"move {k} by {size}"] = (elements[:k] + [moved] + elements[k + 1:], passes)
        for k in range(g.order()):
            cases[f"drop {k}"] = (elements[:k] + elements[k + 1:], None)
            cases[f"repeat {k}"] = (elements + [elements[k]], False)
        for name, (mutated, passes) in cases.items():
            want = closure_loop(mutated)
            assert closure_outcome(mutated) == want, name
            assert passes is None or want[0] == passes, name
        if g.order() > 1:
            assert closure_outcome(elements[1:]) == (False, "identity element missing")

    def test_repeat_names_both_elements(self):
        z2 = resolve_group("z2", 3)
        assert closure_outcome(list(z2.elements) + [z2.elements[1]]) == (
            False, "elements 1 (z2[1]) and 2 (z2[1]) are the same element")

    @pytest.mark.parametrize("block", [1, 3000])  # 1 and 5 rows per pass
    def test_row_blocks_give_the_same_report(self, monkeypatch, block):
        # a large group is checked a few rows of the product table per pass
        import symtensor.groups
        monkeypatch.setattr(symtensor.groups, "_TABLE_BLOCK", block)
        elements = list(resolve_group("cubic", 3).elements)
        mutated = [elements, elements[:5] + elements[6:], elements + [elements[20]],
                   elements[:7] + [moved_involution(elements[7], 2e-10)] + elements[8:]]
        for case in mutated:
            assert closure_outcome(case) == closure_loop(case)
        assert [closure_outcome(case)[0] for case in mutated] == [True, False, False, False]

    def test_empty(self):
        assert closure_outcome([]) == (False, "empty element list")


class TestHaarRule:
    @pytest.mark.parametrize("name", list(TEST_ID), ids=TEST_ID.get)
    def test_normalized(self, name):
        rule = haar_rule(continuous(name), 8)
        assert abs(math.fsum(rule.weights) - 1.0) < 1e-12
        assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("name,ambient", [("cubic", 3), ("so2", 2), ("so3", 3)])
    def test_degree_is_required(self, name, ambient):
        g = resolve_group(name, ambient)
        with pytest.raises(TypeError):
            haar_rule(g)
        with pytest.raises(TypeError):
            integrate(g, lambda q: trace(q))

    def test_finite_uniform(self):
        g = resolve_group("cubic", 3)
        rule = haar_rule(g, 8)
        assert len(rule) == 24
        assert np.all(rule.weights == 1.0 / 24.0)

    def test_finite_rule_reuses_the_checked_stack(self, monkeypatch):
        # the group validated its stack once; its rule neither copies nor re-checks it
        import symtensor.groups
        g = resolve_group("cubic", 3)
        calls = []
        original = symtensor.groups._check_orthogonal

        def counting(*args):
            calls.append(args[1])
            original(*args)

        monkeypatch.setattr(symtensor.groups, "_check_orthogonal", counting)
        rule = haar_rule(g, 8)
        assert calls == []
        assert rule.matrices is g.matrices and not rule.weights.flags.writeable
        assert len(rule) == 24 and np.all(rule.weights == 1.0 / 24.0)
        QuadratureRule(g.matrices, rule.weights)  # a rule built by hand keeps every check
        assert calls == ["quadrature node"]

    def test_unsupported_degree(self):
        with pytest.raises(ValueError, match="degree"):
            haar_rule(resolve_group("so3", 3), 13)

    @pytest.mark.parametrize("name,axis", [("so2", None), ("o2", None),
                                           ("so2-e3", (1.0, 2.0, 2.0)),
                                           ("o2-e3", (0.0, -0.6, 0.8))], ids=TEST_ID.get)
    @pytest.mark.parametrize("degree", [1, 4, 13])
    def test_circle_rule_is_cyclic_or_dihedral_group(self, name, axis, degree):
        axis = None if axis is None else np.array(axis) / np.linalg.norm(axis)
        rule = haar_rule(continuous(name, axis=axis), degree)
        count = degree + 1
        improper = name.startswith("o2")
        assert len(rule) == count * (2 if improper else 1)
        assert np.all(rule.weights == 1.0 / len(rule))
        mats = rule.matrices
        # proper half: the rotations by 2 pi j / count about the axis, in order
        for j, q in enumerate(mats[:count]):
            theta = 2 * np.pi * j / count
            if axis is None:
                expected = rotation_2d(theta)
            else:  # Rodrigues' formula about the unit axis
                ax = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                               [-axis[1], axis[0], 0.0]])
                expected = (np.cos(theta) * np.eye(3) + np.sin(theta) * ax
                            + (1.0 - np.cos(theta)) * np.outer(axis, axis))
            assert np.allclose(q, expected, atol=1e-12)
        # improper half: the same rotations times one reflection (2D) or one
        # half-turn about an axis perpendicular to the rotation axis (3D)
        if improper:
            coset = mats[count]
            assert np.allclose(coset @ coset, np.eye(len(coset)), atol=1e-12)
            if axis is None:
                assert np.linalg.det(coset) == pytest.approx(-1.0)
            else:
                assert np.allclose(coset @ axis, -axis, atol=1e-12)
            for q, r in zip(mats[count:], mats[:count]):
                assert np.allclose(q, r @ coset, atol=1e-12)
        # and exactly the cyclic or dihedral group of that order, element by element
        frame = None if axis is None else axis_aligner(axis)
        loop = axial_node_loop(2 if axis is None else 3, count, improper, frame)
        assert mats.tobytes() == np.stack(loop).tobytes()

    @pytest.mark.parametrize("name", ["so2", "so3"], ids=TEST_ID.get)
    def test_degree_below_one(self, name):
        with pytest.raises(ValueError, match="degree"):
            haar_rule(continuous(name), 0)

    @pytest.mark.parametrize("degree", [True, False, 2.5, 4.0, 0, -3, "4", None])
    @pytest.mark.parametrize("name,ambient", [("so2", 2), ("so3", 3), ("cubic", 3)])
    def test_degree_must_be_an_integer_at_least_one(self, name, ambient, degree):
        g = resolve_group(name, ambient)
        with pytest.raises(ValueError, match="degree must be an integer >= 1"):
            haar_rule(g, degree)
        with pytest.raises(ValueError, match="degree must be an integer >= 1"):
            integrate(g, lambda q: trace(q), degree)

    @pytest.mark.parametrize("name", list(TEST_ID), ids=TEST_ID.get)
    def test_numpy_integer_degree_accepted(self, name):
        g = continuous(name)
        rule = haar_rule(g, np.int64(5))
        assert rule.matrices.tobytes() == haar_rule(g, 5).matrices.tobytes()
        assert integrate(g, lambda q: trace(q) ** 2, np.int64(5)) == integrate(
            g, lambda q: trace(q) ** 2, 5)

    def test_o2_rule_covers_both_cosets(self):
        rule = haar_rule(resolve_group("o2", 2), 6)
        dets = {round(float(d)) for d in np.linalg.det(rule.matrices)}
        assert dets == {-1, 1}

    def test_weights_must_be_positive(self):
        e = np.eye(2)
        with pytest.raises(ValueError):
            QuadratureRule(np.stack([e, e]), np.array([2.0, -1.0]))

    @pytest.mark.parametrize("mats,weights,match", [
        ([np.eye(2), [[1.0, 0.1], [0.0, 1.0]]], [0.5, 0.5], "not orthogonal"),
        ([np.eye(3), np.diag([1.0, 1.0, -1.0 - 1e-9])], [0.5, 0.5], "not orthogonal"),
        ([np.eye(3), np.eye(3)], [1.0, 0.0], "positive"),
        ([np.eye(2)], [0.5], "sum"),
        ([np.eye(2)], [1.0, 0.0], "shapes"),
    ])
    def test_rule_refuses_bad_nodes_and_weights(self, mats, weights, match):
        with pytest.raises(ValueError, match=match):
            QuadratureRule(np.array(mats, dtype=float), np.array(weights))

    def test_rule_admits_improper_nodes(self):
        # a mirror is a node like any rotation: {I, m} averages e3 away
        rule = QuadratureRule(np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0])]),
                              np.array([0.5, 0.5]))
        assert len(rule) == 2
        assert (rule.weights @ rule.matrices.reshape(2, 9)).tolist() == [
            1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]

    def test_rule_arrays_are_read_only(self):
        rule = haar_rule(resolve_group("so2", 2), 2)
        assert not rule.matrices.flags.writeable and not rule.weights.flags.writeable

    @pytest.mark.parametrize("name,axis,degrees", [
        ("so2", None, (1, 4, 13)), ("o2", None, (1, 4, 13)),
        ("so2-e3", None, (1, 4, 13)), ("o2-e3", None, (1, 4, 13)),
        ("so2-e3", (1.0, 2.0, 2.0), (1, 4, 13)), ("o2-e3", (0.0, -0.6, 0.8), (1, 4, 13)),
        ("so3", None, (1, 4, 8, 12)),
    ], ids=TEST_ID.get)
    def test_rule_bitwise_equal_to_node_loop(self, name, axis, degrees):
        axis = None if axis is None else np.array(axis) / np.linalg.norm(axis)
        g = continuous(name, axis=axis)
        for degree in degrees:
            rule = haar_rule(g, degree)
            if name == "so3":
                nodes = so3_node_loop(degree)
                assert len(rule) == (degree + 1) ** 2 * (degree // 2 + 1)
            else:
                ambient, improper = g.ambient, name.startswith("o2")
                nodes = [(q, 1.0) for q in axial_node_loop(ambient, degree + 1, improper,
                                                           g.frame)]
                nodes = [(q, 1.0 / len(nodes)) for q, _ in nodes]
            assert rule.matrices.tobytes() == np.stack([q for q, _ in nodes]).tobytes()
            assert rule.weights.tobytes() == np.array([w for _, w in nodes]).tobytes()

    @pytest.mark.parametrize("name,ambient", [
        (n, a) for a, names in ((2, GROUPS_2D), (3, GROUPS_3D)) for n in names
        if group_kind(n) == "finite"])
    def test_finite_rule_bitwise_equal_to_elements(self, name, ambient):
        g = resolve_group(name, ambient)
        rule = haar_rule(g, 8)
        assert rule.matrices.tobytes() == np.stack([e.matrix for e in g.elements]).tobytes()
        assert np.all(rule.weights == 1.0 / g.order())
        if name[0] in "zd":
            count = int(name[1:])
            improper = name[0] == "d"
            loop = axial_node_loop(ambient, count, improper, g.frame)
            assert rule.matrices.tobytes() == np.stack(loop).tobytes()

    @pytest.mark.parametrize("name", ["so3", "o2-e3", "o2"], ids=TEST_ID.get)
    def test_rule_builds_no_group_element(self, monkeypatch, name):
        g = continuous(name)
        built = []
        original = GroupElement.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(GroupElement, "__post_init__", counting)
        rule = haar_rule(g, 8)
        assert len(rule) > 0 and built == []


class TestSO3Factors:
    @pytest.mark.parametrize("degree", range(1, 13))
    def test_products_are_the_flat_rule(self, degree):
        # node (i, j, l) of the flat rule is turn i, tilt j, turn l, multiplied in order
        turn, tilt, last = so3_factors(degree)
        rule = haar_rule(resolve_group("so3", 3), degree)
        assert last is turn
        assert (len(turn), len(tilt)) == (degree + 1, degree // 2 + 1)
        mats = (turn.matrices[:, None] @ tilt.matrices)[:, :, None] @ turn.matrices
        assert mats.reshape(-1, 3, 3).tobytes() == rule.matrices.tobytes()
        weights = (turn.weights[:, None, None] * tilt.weights[:, None]
                   * turn.weights).reshape(-1)
        assert np.max(np.abs(weights - rule.weights) / rule.weights) <= 4e-16

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_flat_rule_is_the_node_formula(self, degree):
        # node (i, j, l) is turn i, tilt j, turn l with weight u_j / (2 (d + 1)^2),
        # byte for byte, from the turn angles and the Gauss-Legendre nodes alone
        count = degree + 1
        turns = [rotation_z(2 * np.pi * i / count) for i in range(count)]
        u_nodes, u_weights = np.polynomial.legendre.leggauss(degree // 2 + 1)
        tilts = [rotation_y(float(np.arccos(u))) for u in u_nodes]
        mats = np.array([(ti @ tj) @ tl for ti in turns for tj in tilts for tl in turns])
        weights = np.array([u / (2 * count * count) for _ in turns for u in u_weights
                            for _ in turns])
        rule = haar_rule(resolve_group("so3", 3), degree)
        assert rule.matrices.tobytes() == mats.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_each_factor_is_normalized(self, degree):
        for factor in so3_factors(degree)[:2]:
            assert abs(math.fsum(factor.weights) - 1.0) <= 2.0**-52
            assert np.all(factor.weights > 0)

    @pytest.mark.parametrize("degree", [13, 0, True, 2.5])
    def test_refuses_what_haar_rule_refuses(self, degree):
        with pytest.raises(ValueError) as flat:
            haar_rule(resolve_group("so3", 3), degree)
        with pytest.raises(ValueError) as factored:
            so3_factors(degree)
        assert str(factored.value) == str(flat.value)

    def test_sym8_project_equals_the_flat_rule(self):
        # the three factors applied in turn against the 405-node rule in one pass
        swaps = tuple(tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, 8)) for i in range(7))
        sp, g = TensorSpace("sym8", 3, 8, swaps), resolve_group("so3", 3)
        t = symmetrize(sp, 3.0 * np.random.default_rng(41).normal(size=3**8))
        rule = haar_rule(g, 8)
        assert len(rule) == 405
        expected = rule.weights @ act(rule.matrices, 8, t.coeffs)
        gap = np.max(np.abs(project(sp, g, t).coeffs - expected))
        assert gap <= 1e-12 * max(1.0, t.norm_inf())


# Riordan numbers (OEIS A005043), n = 0..12: the Haar moments of tr Q on SO(3)
RIORDAN = (1, 0, 1, 1, 3, 6, 15, 36, 91, 232, 603, 1585, 4213)


def central_trinomial(d):
    """The constant term of (1/z + 1 + z)^d: the mean of (1 + 2 cos theta)^d."""
    return sum(math.comb(d, 2 * j) * math.comb(2 * j, j) for j in range(d // 2 + 1))


def trace_moment(name, d):
    """Closed form of the Haar mean of (tr Q)^d on a continuous catalog group."""
    if name == "so3":
        return RIORDAN[d]
    if name in ("so2", "o2"):
        rotations = math.comb(d, d // 2) if d % 2 == 0 else 0
    else:
        rotations = central_trinomial(d)
    if name in ("so2", "so2-e3"):
        return rotations
    # the coset half: reflections (trace 0) in 2D, half-turns (trace -1) in 3D
    return (rotations + (0 if name == "o2" else (-1) ** d)) / 2


class TestBoundaryExactness:
    """A rule of degree d integrates (tr Q)^d, a polynomial of exactly that
    degree, to its closed form: the node counts d + 1 and (d + 1)^2 (d // 2 + 1)
    are enough at the boundary degree."""

    def test_closed_forms(self):
        assert [central_trinomial(d) for d in range(8)] == [1, 1, 3, 7, 19, 51, 141, 393]
        # Weyl: the SO(3) moment is c_0 - c_1 of the weight polynomial (1/z + 1 + z)^d
        for d in range(1, 13):
            c1 = sum(math.comb(d, j) * math.comb(d - j, j + 1) for j in range(d))
            assert RIORDAN[d] == central_trinomial(d) - c1

    @pytest.mark.parametrize("name,axis,degrees", [
        ("so3", None, range(1, 13)),
        ("so2", None, range(1, 17)), ("o2", None, range(1, 17)),
        ("so2-e3", None, range(1, 17)), ("so2-e3", (1.0, 2.0, 2.0), range(1, 17)),
        ("o2-e3", None, range(1, 17)), ("o2-e3", (0.0, -0.6, 0.8), range(1, 17)),
    ], ids=TEST_ID.get)
    def test_trace_moment_at_rule_degree(self, name, axis, degrees):
        axis = None if axis is None else np.array(axis) / np.linalg.norm(axis)
        g = continuous(name, axis=axis)
        for d in degrees:
            exact = trace_moment(name, d)
            value = integrate(g, lambda q: trace(q) ** d, d)
            assert abs(value - exact) <= 1e-9 * max(1.0, abs(exact)), (d, value, exact)

    @pytest.mark.parametrize("name", ["so2", "so2-e3", "so3"], ids=TEST_ID.get)
    def test_one_degree_lower_is_not_exact(self, name):
        # the rule of degree d - 1 misses a degree-d moment: on the circle
        # groups (tr Q)^d, on SO(3) the mean 1/(d + 1) of Q_33^d = cos(theta)^d
        g = continuous(name)
        for d in (4, 6):
            if name == "so3":
                f, exact = (lambda q: q[:, 2, 2] ** d), 1.0 / (d + 1)
            else:
                f, exact = (lambda q: trace(q) ** d), trace_moment(name, d)
            assert abs(integrate(g, f, d) - exact) < 1e-12 * max(1.0, exact)
            assert abs(integrate(g, f, d - 1) - exact) > 1e-3


class TestIntegrate:
    def test_constant_is_normalization(self):
        for name in ("so2", "o2", "so3"):
            assert integrate(continuous(name), lambda e: 1.0, 6) == pytest.approx(1.0, abs=1e-12)

    def test_so3_tenth_trace_moment_at_its_degree(self):
        # (tr Q)^10 has degree 10: stated, the rule gives the Riordan number
        # 603; the rule of degree 8 returns 604.37 with no warning
        so3 = resolve_group("so3", 3)
        assert integrate(so3, lambda q: trace(q) ** 10, 10) == pytest.approx(603, abs=1e-9)
        assert abs(integrate(so3, lambda q: trace(q) ** 10, 8) - 603) > 1.0

    def test_circle_example(self):
        so2 = resolve_group("so2", 2)
        val = integrate(so2, lambda q: 3 * q[:, 0, 0] ** 2 - q[:, 1, 0] ** 2, 8)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_so3_squared_trace(self):
        so3 = resolve_group("so3", 3)
        assert integrate(so3, lambda q: trace(q) ** 2, 6) == pytest.approx(1.0, abs=1e-10)

    def test_so3_squared_trace_monte_carlo(self, rng):
        # slow independent oracle for the same Haar average
        total = 0.0
        samples = 50_000
        for _ in range(samples):
            total += np.trace(haar_rotation(rng, 3)) ** 2
        assert total / samples == pytest.approx(1.0, abs=0.03)

    def test_left_right_invariance(self, rng):
        a = rng.normal(size=(3, 3))

        def f(q):
            return np.sum(a * q, axis=(1, 2)) ** 3 + trace(q) ** 2

        for name in ("so2-e3", "o2-e3", "so3"):
            g = continuous(name)
            h = g.sample_elements()[-1].matrix
            base = integrate(g, f, 8)
            left = integrate(g, lambda q: f(h @ q), 8)
            right = integrate(g, lambda q: f(q @ h), 8)
            assert abs(base - left) < 1e-9 and abs(base - right) < 1e-9

    def test_node_doubling_plateau(self):
        g = resolve_group("so3", 3)

        def f(q):
            t = trace(q)
            return t**4 - 2 * t**3 + 2 * t**2

        assert abs(integrate(g, f, 4) - integrate(g, f, 9)) < 1e-10

    def test_finite_mean_bit_exact(self):
        g = resolve_group("d4", 3)

        def f(q):
            return trace(q) ** 2 + q[:, 0, 1]

        # the mean evaluated one element at a time
        one_by_one = math.fsum(f(e.matrix[None])[0] for e in g.elements) / g.order()
        assert integrate(g, f, 2) == one_by_one


class TestResolveGroup:
    def test_catalog_names(self):
        assert resolve_group("cubic", 3).order() == 24
        assert resolve_group("d2", 3).order() == 4
        assert resolve_group("d2", 2).order() == 4
        assert resolve_group("Z4", 2).order() == 4  # case-insensitive
        assert resolve_group("so3", 3).catalog_id == "so3"
        assert not resolve_group("so3", 3).is_finite

    def test_ambient_mismatches(self):
        with pytest.raises(KeyError):
            resolve_group("so2", 3)
        with pytest.raises(KeyError):
            resolve_group("cubic", 2)
        with pytest.raises(KeyError):
            resolve_group("so3", 2)
        # no catalog group acts outside the plane and space
        for name, ambient in (("so3", 4), ("cubic", 1), ("z2", 1), ("trivial", 4)):
            with pytest.raises(KeyError, match=f"{name}' does not act on {ambient}D spaces"):
                resolve_group(name, ambient)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown group"):
            resolve_group("e8", 3)

    @pytest.mark.parametrize("name,ambient", [("d4", 2), ("z2", 2), ("so2", 2), ("o2", 2),
                                              ("trivial", 2), ("trivial", 3),
                                              ("cubic", 3), ("so3", 3)])
    def test_axis_refused_without_an_axial_3d_group(self, name, ambient):
        with pytest.raises(ValueError, match=f"axis applies only.*, not to {name}$"):
            resolve_group(name, ambient, axis=np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("name", ["z3", "d2", "so2-e3", "o2-e3"])
    def test_axis_taken_by_axial_3d_groups(self, name):
        axis = np.array([0.0, 0.6, 0.8])
        g = resolve_group(name, 3, axis=axis)
        assert g.frame is not None
        assert np.allclose(g.sample_elements()[0].matrix @ axis, axis, atol=1e-12)

    def test_o2_e3_coset_matches_flip(self):
        g = resolve_group("o2-e3", 3)
        # the improper family at theta = 0 is diag(1, -1, -1)
        flip = g.sample_elements()[-1].matrix
        assert np.array_equal(flip, np.diag([1.0, -1.0, -1.0]))

    def test_proper_3d_elements_only(self):
        for name in ("z6", "d6", "cubic"):
            g = resolve_group(name, 3)
            for e in g.elements:
                assert np.linalg.det(e.matrix) > 0.0


class TestMatrixStack:
    """A finite group is one validated, read-only (m, n, n) stack with labels."""

    @pytest.mark.parametrize("g", finite_catalog(), ids=lambda g: g.catalog_id)
    def test_stack_and_labels_are_the_elements(self, g):
        assert g.matrices.shape == (g.order(), g.ambient, g.ambient)
        assert not g.matrices.flags.writeable
        assert g.matrices.tobytes() == np.stack([e.matrix for e in g.elements]).tobytes()
        assert g.labels == tuple(e.label for e in g.elements)

    def test_construction_builds_no_group_element_per_element(self, monkeypatch):
        built = []
        original = GroupElement.__post_init__

        def counting(self):
            built.append(self.label)
            original(self)

        monkeypatch.setattr(GroupElement, "__post_init__", counting)
        g = resolve_group("cubic", 3)
        assert built == ["rot(e3,pi/2)", "rot(111,2pi/3)"]  # the generators only
        assert len(haar_rule(g, 8)) == 24 and integrate(g, lambda q: trace(q) ** 2, 2) == 1.0
        assert len(built) == 2
        assert g.elements is g.elements and len(built) == 26

    def test_repeated_element_refused(self):
        z2 = resolve_group("z2", 3)
        with pytest.raises(ValueError, match=r"elements 1 \(z2\[1\]\) and 2 \(z2\[1\]\) are "
                                             r"the same element"):
            SymmetryGroup(3, "z2dup", np.concatenate([z2.matrices, z2.matrices[1:]]),
                          z2.labels + z2.labels[1:], generators=z2.generators)

    def test_generator_outside_the_group_refused(self):
        # invariance checks sample the generators, so each must be an element
        z2 = resolve_group("z2", 3)
        for stray in (GroupElement(rotation_z(0.3), "r"), GroupElement(np.eye(2), "r")):
            with pytest.raises(ValueError, match=r"group 'x': generator 0 \(r\) is not one "
                                                 r"of its elements"):
                SymmetryGroup(3, "x", z2.matrices, z2.labels, generators=(stray,))
        # within CLOSURE_TOL of an element, in max-abs, a generator is that element
        near = GroupElement(rotation_z(np.pi + CLOSURE_TOL / 2), "near")
        g = SymmetryGroup(3, "x", z2.matrices, z2.labels, generators=(near,))
        assert g.sample_elements() == (near,)

    def test_wrong_size_refused(self):
        with pytest.raises(ValueError, match=r"acts on R\^3, but its elements \(id\) form a "
                                             r"stack of shape \(1, 2, 2\)"):
            SymmetryGroup(3, "x", np.eye(2)[None], ("id",))

    @pytest.mark.parametrize("mats,labels,match", [
        (np.eye(4)[None], ("id",), "R\\^2 or R\\^3, not R\\^4"),
        (np.eye(3)[None], (), "1 elements and 0 labels"),
        (np.stack([np.eye(3), np.diag([1.0, -1.0, -1.0]) + 1e-9]), ("id", "x"), "not orthogonal"),
        (np.stack([np.eye(3), -np.eye(3), np.diag([1.0, 1.0, -1.0])]), ("id", "-id", "m"),
         r"product of elements 1 \(-id\) and 2 \(m\) not in set"),
        (np.empty((0, 3, 3)), (), "empty element list"),
    ])
    def test_bad_stacks_refused(self, mats, labels, match):
        ambient = 4 if mats.shape[-1] == 4 else 3
        with pytest.raises(ValueError, match=match):
            SymmetryGroup(ambient, "x", mats, labels)

    def test_inversion_pair_admitted(self):
        # {I, -I} kills every odd-order tensor and keeps every even-order one
        g = SymmetryGroup(3, "ci", np.stack([np.eye(3), -np.eye(3)]), ("id", "-id"))
        assert g.order() == 2 and closure_check(g.matrices, g.labels) is None
        assert fix_dimension(SPACES["v1"], g) == 0
        assert fix_dimension(SPACES["ela3"], g) == 21

    def test_cold_import_skips_numpy_polynomial(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        code = "import sys, symtensor.cli; print('numpy.polynomial' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestOrthogonalityRefusals:
    """Every orthogonality check is ``core._check_orthogonal``, and every
    refusal reports its residual max |QᵀQ − I|."""

    BAD = np.diag([1.0, -1.0, -1.0 - 1e-9])  # (1 + 1e-9)^2 - 1 off the identity

    @pytest.mark.parametrize("build,what", [
        (lambda q: GroupElement(q, "m"), "group element 'm'"),
        (lambda q: QuadratureRule(np.stack([np.eye(3), q]), [0.5, 0.5]), "quadrature node"),
        (lambda q: SymmetryGroup(3, "x", np.stack([np.eye(3), q]), ("id", "m")),
         "an element of group 'x'"),
        (lambda q: SymmetryGroup(3, "so2-e3", frame=q), "the frame of group 'so2-e3'"),
        (lambda q: kron_power(q, 2), "matrix"),
    ], ids=["element", "node", "stack", "frame", "kron_power"])
    def test_refusal_reports_the_residual(self, build, what):
        with pytest.raises(ValueError) as err:
            build(self.BAD)
        assert str(err.value) == f"{what} is not orthogonal: max |QᵀQ − I| = 2.000e-09"

    def test_scaled_frame_refused_at_construction(self):
        with pytest.raises(ValueError, match=r"^the frame of group 'so2-e3' is not orthogonal: "
                                             r"max \|QᵀQ − I\| = 3\.000e\+00$"):
            SymmetryGroup(3, "so2-e3", frame=2 * np.eye(3))

    @pytest.mark.parametrize("ambient,name,mats,labels,frame", [
        (2, "so2", None, (), np.eye(3)),
        (3, "so2-e3", None, (), np.eye(2)),
        (2, "z2_2d", np.stack([np.eye(2), -np.eye(2)]), ("id", "-id"), np.eye(2)),
    ])
    def test_frame_outside_3d_refused_at_construction(self, ambient, name, mats, labels,
                                                      frame):
        with pytest.raises(ValueError, match=r"a frame belongs to a 3D group and must be 3x3"):
            SymmetryGroup(ambient, name, mats, labels, frame=frame)

    @pytest.mark.parametrize("name", [n for n in GROUPS_3D if n[0] in "zd" or "-e3" in n])
    def test_every_axial_3d_group_takes_an_axis(self, name):
        axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        g = resolve_group(name, 3, axis=axis)
        assert np.array_equal(g.frame, axis_aligner(axis)) and not g.frame.flags.writeable
        for e in g.sample_elements():  # each turns about the axis or flips it
            image = e.matrix @ axis
            assert min(np.linalg.norm(image - axis), np.linalg.norm(image + axis)) < 1e-12


class TestGroupElementValidation:
    def test_improper_3d_admitted(self):
        e = GroupElement(np.diag([-1.0, 1.0, 1.0]), "m")
        assert e.matrix.tolist() == np.diag([-1.0, 1.0, 1.0]).tolist()
        assert not e.matrix.flags.writeable

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_rejected(self, n):
        for bad in (np.full((n, n), np.nan), np.diag([np.inf] + [1.0] * (n - 1))):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not orthogonal"):
                GroupElement(bad)

    @pytest.mark.parametrize("ambient,name", [(3, "z4"), (3, "cubic"), (2, "so3"),
                                              (3, "so2"), (2, "so2-e3")])
    def test_group_without_elements_must_be_continuous(self, ambient, name):
        with pytest.raises(ValueError, match=f"not a continuous group on R\\^{ambient}"):
            SymmetryGroup(ambient, name)

    def test_planar_reflection_admitted(self):
        e = GroupElement(np.diag([-1.0, 1.0]))
        assert np.linalg.det(e.matrix) == pytest.approx(-1.0)
