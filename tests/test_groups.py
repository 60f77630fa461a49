import itertools
import math

import numpy as np
import pytest

from symtensor.groups import (FLIP_E1_3D, GROUPS_2D, GROUPS_3D, REFLECTION_2D,
                              GroupElement, QuadratureRule, axis_aligner,
                              closure_check, group_kind, haar_rule, integrate,
                              make_continuous_group, make_finite_group,
                              resolve_group, rotation_2d, rotation_y, rotation_z)

from conftest import haar_rotation


def trace(q):
    return np.trace(q, axis1=-2, axis2=-1)


def so3_node_loop(degree):
    """The SO(3) product rule built one node at a time, in (phi, u, psi) order."""
    count = 2 * degree + 2
    angles = [2 * np.pi * j / count for j in range(count)]
    u_nodes, u_weights = np.polynomial.legendre.leggauss(degree + 1)
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


class TestFiniteCatalog:
    def test_z2_is_plus_minus_identity(self):
        g = make_finite_group("Zn_2D", 2)
        mats = sorted((np.round(e.matrix).astype(int).tolist() for e in g.elements))
        assert mats == [[[-1, 0], [0, -1]], [[1, 0], [0, 1]]]

    def test_cubic_group_against_enumeration(self):
        g = make_finite_group("cubic_O")
        assert g.order() == 24
        reference = brute_force_cube_rotations()
        assert len(reference) == 24
        for e in g.elements:
            assert set(np.unique(np.abs(e.matrix))) <= {0.0, 1.0}
            assert any(np.array_equal(e.matrix, m) for m in reference)

    def test_d4_2d_has_eight_elements(self):
        assert make_finite_group("Dn_2D", 4).order() == 8

    def test_dn_counts(self):
        for n in (2, 3, 6):
            assert make_finite_group("Dn_2D", n).order() == 2 * n
            assert make_finite_group("Zn_3D", n).order() == n

    def test_axis_conjugation(self):
        axis = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        g = make_finite_group("Zn_3D", 3, axis=axis)
        for e in g.elements:
            assert np.allclose(e.matrix @ axis, axis, atol=1e-12)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            make_finite_group("Zn_3D", 2, axis=np.array([0.0, 0.0, 2.0]))

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            make_finite_group("Icosahedral", 1)

    @pytest.mark.parametrize("cid,ambient", [("Zn_3D", 2), ("Dn_3D", 2), ("Zn_2D", 3),
                                             ("Dn_2D", 3), ("cubic_O", 2)])
    def test_ambient_must_match(self, cid, ambient):
        with pytest.raises(ValueError, match=f"not on R\\^{ambient}"):
            make_finite_group(cid, 2, ambient=ambient)

    @pytest.mark.parametrize("cid,ambient", [("Zn_3D", 3), ("Dn_2D", 2), ("trivial", 2),
                                             ("trivial", 3)])
    def test_matching_ambient_accepted(self, cid, ambient):
        assert make_finite_group(cid, 2, ambient=ambient).ambient == ambient

    def test_nan_axis_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            axis_aligner([np.nan, 0.0, 1.0])


class TestClosureCheck:
    def test_plus_minus_identity_passes(self):
        g = make_finite_group("Zn_2D", 2)
        assert closure_check(g).passed

    def test_cubic_full_product_table(self):
        assert closure_check(make_finite_group("cubic_O")).passed

    def test_gap_reported_with_witness(self):
        # rot(2pi/3)^2 = rot(4pi/3) is missing from the set
        elements = [GroupElement(np.eye(2), "id"),
                    GroupElement(rotation_2d(2 * np.pi / 3), "rot")]
        report = closure_check(elements)
        assert not report.passed
        assert report.witness is not None

    def test_missing_identity(self):
        report = closure_check([GroupElement(-np.eye(2), "-id")])
        assert not report.passed and "identity" in report.message

    @pytest.mark.parametrize("turn,powers,witness", [
        # r @ r^2 = r^3 is the first gap by rows; by columns it would be r^2 @ r
        (np.pi / 2, (0, 1, 2), (1, 2)),
        # row 1 misses both r @ r and r @ r^3; the first of them is reported
        (np.pi / 3, (0, 1, 3), (1, 1)),
    ])
    def test_first_witness_in_row_major_order(self, turn, powers, witness):
        elements = [GroupElement(rotation_2d(p * turn), f"r^{p}") for p in powers]
        report = closure_check(elements)
        i, j = witness
        assert not report.passed
        assert report.message == (f"product of elements {i} (r^{powers[i]}) and "
                                  f"{j} (r^{powers[j]}) not in set")
        assert report.witness == (elements[i], elements[j])


class TestHaarRule:
    @pytest.mark.parametrize("cid", ["SO2_2D", "O2_2D", "SO2_e3", "O2_e3", "SO3"])
    def test_normalized(self, cid):
        rule = haar_rule(make_continuous_group(cid), 8)
        assert abs(math.fsum(rule.weights) - 1.0) < 1e-12
        assert np.all(rule.weights > 0)

    def test_finite_uniform(self):
        g = make_finite_group("cubic_O")
        rule = haar_rule(g)
        assert len(rule) == 24
        assert np.all(rule.weights == 1.0 / 24.0)

    def test_unsupported_degree(self):
        with pytest.raises(ValueError, match="degree"):
            haar_rule(make_continuous_group("SO3"), 13)

    @pytest.mark.parametrize("cid,axis", [("SO2_2D", None), ("O2_2D", None),
                                          ("SO2_e3", (1.0, 2.0, 2.0)),
                                          ("O2_e3", (0.0, -0.6, 0.8))])
    @pytest.mark.parametrize("degree", [1, 4, 13])
    def test_circle_rule_is_cyclic_or_dihedral_group(self, cid, axis, degree):
        axis = None if axis is None else np.array(axis) / np.linalg.norm(axis)
        rule = haar_rule(make_continuous_group(cid, axis=axis), degree)
        count = 2 * degree + 2
        improper = cid.startswith("O2")
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
        # and exactly the element list of the catalog group of that order
        finite_id = {"SO2_2D": "Zn_2D", "O2_2D": "Dn_2D", "SO2_e3": "Zn_3D", "O2_e3": "Dn_3D"}
        finite = make_finite_group(finite_id[cid], count, axis=axis)
        assert len(finite.elements) == len(mats)
        for e, q in zip(finite.elements, mats):
            assert np.array_equal(e.matrix, q)

    @pytest.mark.parametrize("cid", ["SO2_2D", "SO3"])
    def test_degree_below_one(self, cid):
        with pytest.raises(ValueError, match="degree"):
            haar_rule(make_continuous_group(cid), 0)

    def test_o2_rule_covers_both_cosets(self):
        rule = haar_rule(make_continuous_group("O2_2D"), 6)
        dets = {round(float(d)) for d in np.linalg.det(rule.matrices)}
        assert dets == {-1, 1}

    def test_weights_must_be_positive(self):
        e = np.eye(2)
        with pytest.raises(ValueError):
            QuadratureRule(np.stack([e, e]), np.array([2.0, -1.0]))

    @pytest.mark.parametrize("mats,weights,match", [
        ([np.eye(2), [[1.0, 0.1], [0.0, 1.0]]], [0.5, 0.5], "not orthogonal"),
        ([np.eye(3), np.diag([1.0, 1.0, -1.0])], [0.5, 0.5], "improper"),
        ([np.eye(3), np.eye(3)], [1.0, 0.0], "positive"),
        ([np.eye(2)], [0.5], "sum"),
        ([np.eye(2)], [1.0, 0.0], "shapes"),
    ])
    def test_rule_refuses_bad_nodes_and_weights(self, mats, weights, match):
        with pytest.raises(ValueError, match=match):
            QuadratureRule(np.array(mats, dtype=float), np.array(weights))

    def test_rule_arrays_are_read_only(self):
        rule = haar_rule(make_continuous_group("SO2_2D"), 2)
        assert not rule.matrices.flags.writeable and not rule.weights.flags.writeable

    @pytest.mark.parametrize("cid,axis,degrees", [
        ("SO2_2D", None, (1, 4, 13)), ("O2_2D", None, (1, 4, 13)),
        ("SO2_e3", None, (1, 4, 13)), ("O2_e3", None, (1, 4, 13)),
        ("SO2_e3", (1.0, 2.0, 2.0), (1, 4, 13)), ("O2_e3", (0.0, -0.6, 0.8), (1, 4, 13)),
        ("SO3", None, (1, 4, 8, 12)),
    ])
    def test_rule_bitwise_equal_to_node_loop(self, cid, axis, degrees):
        axis = None if axis is None else np.array(axis) / np.linalg.norm(axis)
        g = make_continuous_group(cid, axis=axis)
        for degree in degrees:
            rule = haar_rule(g, degree)
            if cid == "SO3":
                nodes = so3_node_loop(degree)
            else:
                ambient, improper = (2 if cid.endswith("2D") else 3), cid.startswith("O2")
                nodes = [(q, 1.0) for q in axial_node_loop(ambient, 2 * degree + 2, improper,
                                                           g.frame)]
                nodes = [(q, 1.0 / len(nodes)) for q, _ in nodes]
            assert rule.matrices.tobytes() == np.stack([q for q, _ in nodes]).tobytes()
            assert rule.weights.tobytes() == np.array([w for _, w in nodes]).tobytes()

    @pytest.mark.parametrize("name,ambient", [
        (n, a) for a, names in ((2, GROUPS_2D), (3, GROUPS_3D)) for n in names
        if group_kind(n) == "finite"])
    def test_finite_rule_bitwise_equal_to_elements(self, name, ambient):
        g = resolve_group(name, ambient)
        rule = haar_rule(g)
        assert rule.matrices.tobytes() == np.stack([e.matrix for e in g.elements]).tobytes()
        assert np.all(rule.weights == 1.0 / g.order())
        if name[0] in "zd":
            count = int(name[1:])
            improper = name[0] == "d"
            loop = axial_node_loop(ambient, count, improper, g.frame)
            assert rule.matrices.tobytes() == np.stack(loop).tobytes()

    @pytest.mark.parametrize("cid", ["SO3", "O2_e3", "O2_2D"])
    def test_rule_builds_no_group_element(self, monkeypatch, cid):
        g = make_continuous_group(cid)
        built = []
        original = GroupElement.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(GroupElement, "__post_init__", counting)
        rule = haar_rule(g, 8)
        assert len(rule) > 0 and built == []


class TestIntegrate:
    def test_constant_is_normalization(self):
        for cid in ("SO2_2D", "O2_2D", "SO3"):
            assert integrate(make_continuous_group(cid), lambda e: 1.0, 6) == pytest.approx(1.0, abs=1e-12)

    def test_circle_example(self):
        so2 = make_continuous_group("SO2_2D")
        val = integrate(so2, lambda q: 3 * q[:, 0, 0] ** 2 - q[:, 1, 0] ** 2, 8)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_so3_squared_trace(self):
        so3 = make_continuous_group("SO3")
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

        for cid in ("SO2_e3", "O2_e3", "SO3"):
            g = make_continuous_group(cid)
            h = g.sample_elements()[-1].matrix
            base = integrate(g, f, 8)
            left = integrate(g, lambda q: f(h @ q), 8)
            right = integrate(g, lambda q: f(q @ h), 8)
            assert abs(base - left) < 1e-9 and abs(base - right) < 1e-9

    def test_node_doubling_plateau(self):
        g = make_continuous_group("SO3")

        def f(q):
            t = trace(q)
            return t**4 - 2 * t**3 + 2 * t**2

        assert abs(integrate(g, f, 4) - integrate(g, f, 9)) < 1e-10

    def test_finite_mean_bit_exact(self):
        g = make_finite_group("Dn_3D", 4)

        def f(q):
            return trace(q) ** 2 + q[:, 0, 1]

        # the mean evaluated one element at a time
        assert integrate(g, f) == math.fsum(f(e.matrix[None])[0] for e in g.elements) / g.order()


class TestResolveGroup:
    def test_catalog_names(self):
        assert resolve_group("cubic", 3).order() == 24
        assert resolve_group("d2", 3).order() == 4
        assert resolve_group("d2", 2).order() == 4
        assert resolve_group("Z4", 2).order() == 4  # case-insensitive
        assert resolve_group("so3", 3).continuous_id == "SO3"

    def test_ambient_mismatches(self):
        with pytest.raises(KeyError):
            resolve_group("so2", 3)
        with pytest.raises(KeyError):
            resolve_group("cubic", 2)
        with pytest.raises(KeyError):
            resolve_group("so3", 2)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown group"):
            resolve_group("e8", 3)

    @pytest.mark.parametrize("name,ambient", [("d4", 2), ("z2", 2), ("so2", 2), ("o2", 2),
                                              ("trivial", 2), ("trivial", 3),
                                              ("cubic", 3), ("so3", 3)])
    def test_axis_refused_without_an_axial_3d_group(self, name, ambient):
        with pytest.raises(ValueError, match="axis applies only"):
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


class TestGroupElementValidation:
    def test_improper_3d_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            GroupElement(np.diag([-1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_rejected(self, n):
        for bad in (np.full((n, n), np.nan), np.diag([np.inf] + [1.0] * (n - 1))):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not orthogonal"):
                GroupElement(bad)

    def test_planar_reflection_admitted(self):
        e = GroupElement(np.diag([-1.0, 1.0]))
        assert np.linalg.det(e.matrix) == pytest.approx(-1.0)
