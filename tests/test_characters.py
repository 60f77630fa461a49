import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtensor.characters import (QuadratureNotConvergedError,
                                  character_closed_form, character_direct,
                                  fix_dimension, power_traces)
from symtensor.core import image_basis, kron_power
from symtensor.groups import integrate, resolve_group, rotation_z
from symtensor.projector import averaged_projector
from symtensor.spaces import SPACES, TensorSpace

from conftest import haar_rotation


class TestPowerTraces:
    def test_matches_matrix_powers(self, rng):
        mats = [np.eye(2), np.eye(3), rotation_z(np.pi), np.diag([-1.0, 1.0])]
        mats += [-np.eye(3), np.diag([1.0, 1.0, -1.0])]
        for _ in range(10):
            mats += [haar_rotation(rng, 3), haar_rotation(rng, 2)]
            mats.append(haar_rotation(rng, 2) @ np.diag([1.0, -1.0]))
            mats.append(haar_rotation(rng, 3) @ np.diag([1.0, 1.0, -1.0]))
        for n in (2, 3):
            stack = np.stack([q for q in mats if len(q) == n])
            traces = power_traces(stack, 8)
            assert traces.shape == (8, len(stack))
            for q, got in zip(stack, traces.T):
                direct = [float(np.trace(np.linalg.matrix_power(q, m))) for m in range(1, 9)]
                assert got.tolist() == pytest.approx(direct, abs=1e-10)


class TestCharacters:
    def test_identity_values(self):
        for name, sp in SPACES.items():
            eye = np.eye(sp.n)
            assert character_direct(sp, eye) == pytest.approx(sp.dim, abs=1e-9)
            assert character_closed_form(sp, eye) == pytest.approx(sp.dim, abs=1e-12)

    def test_major3_identity_is_45(self):
        eye = np.eye(3)
        assert character_direct(SPACES["major3"], eye) == pytest.approx(45.0)

    def test_ela3_half_turn(self):
        # closed form at t = -1 gives 5; cross-checked by the 81x81 contraction
        e = rotation_z(np.pi)
        assert character_closed_form(SPACES["ela3"], e) == pytest.approx(5.0, abs=1e-12)
        assert character_direct(SPACES["ela3"], e) == pytest.approx(5.0, abs=1e-10)

    def test_high2_reflection_branch(self):
        refl = np.diag([-1.0, 1.0])
        assert character_closed_form(SPACES["high2"], refl) == pytest.approx(4.0)
        assert character_direct(SPACES["high2"], refl) == pytest.approx(4.0, abs=1e-12)

    def test_direct_matches_closed_on_random_elements(self, rng):
        for name, sp in SPACES.items():
            for i in range(40):
                q = haar_rotation(rng, sp.n)
                if sp.n == 2 and i % 2:
                    q = q @ np.diag([1.0, -1.0])
                assert abs(character_direct(sp, q) - character_closed_form(sp, q)) < 1e-9

    def test_fallback_without_closed_form(self, rng):
        # a space outside the catalog takes its character from its own group
        custom = TensorSpace("pairline", 2, 2, ())
        e = haar_rotation(rng, 2)
        assert character_closed_form(custom, e) == pytest.approx(character_direct(custom, e))

    def test_class_function(self, rng):
        sp = SPACES["ela3"]
        for _ in range(10):
            q, r = haar_rotation(rng, 3), haar_rotation(rng, 3)
            a = character_direct(sp, q)
            b = character_direct(sp, r @ q @ r.T)
            assert abs(a - b) < 1e-9


class TestImproperCharacters:
    """The cycle-index character equals the orbit-table one at reflections
    and rotoreflections, det Q = -1, as well as at rotations."""

    @pytest.mark.parametrize("name,expected", [("ela3", 21.0), ("v1", -108.0)])
    def test_inversion(self, name, expected):
        sp = SPACES[name]
        assert character_closed_form(sp, -np.eye(3)) == pytest.approx(expected, abs=1e-9)
        assert character_direct(sp, -np.eye(3)) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("q", [-np.eye(3), np.diag([1.0, 1.0, -1.0]),
                                   rotation_z(np.pi / 2) @ np.diag([1.0, 1.0, -1.0])],
                             ids=["-1", "m", "-4"])
    def test_point_operations(self, q):
        for sp in SPACES.values():
            if sp.n == 3:
                assert character_closed_form(sp, q) == pytest.approx(
                    character_direct(sp, q), abs=1e-9)

    @pytest.mark.parametrize("name", list(SPACES))
    def test_random_orthogonal_stacks(self, rng, name):
        sp = SPACES[name]
        mirror = np.diag([1.0] * (sp.n - 1) + [-1.0])
        qs = np.stack([haar_rotation(rng, sp.n) for _ in range(20)])
        qs[1::2] = qs[1::2] @ mirror
        assert set(np.round(np.linalg.det(qs))) == {-1.0, 1.0}
        assert character_closed_form(sp, qs) == pytest.approx(character_direct(sp, qs),
                                                               abs=1e-9)


class TestDirectContraction:
    @pytest.mark.parametrize("name", list(SPACES))
    def test_matches_dense_trace(self, rng, name):
        # chi(Q) = tr(kron_power(Q, k) Pi) with the dense symmetrizer Pi
        sp = SPACES[name]
        pi = sp.projector
        qs = np.stack([haar_rotation(rng, sp.n) for _ in range(4)])
        if sp.n == 2:
            qs[1::2] = qs[1::2] @ np.diag([1.0, -1.0])
        chis = character_direct(sp, qs)
        assert chis.shape == (4,)
        for q, chi in zip(qs, chis):
            dense = float(np.trace(kron_power(q, sp.k) @ pi))
            assert chi == pytest.approx(dense, abs=1e-9)

    def test_stack_without_act(self, monkeypatch):
        # the orbit table alone: no Q^{(x)k} applied to the basis
        import sys
        from symtensor import core

        def refuse(*args, **kwargs):
            raise AssertionError("core.act called")

        original = core.act  # read once: the loop rebinds core.act itself
        for name, module in list(sys.modules.items()):
            if name == "symtensor" or name.startswith("symtensor."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
        rng = np.random.default_rng(5)
        qs = np.stack([haar_rotation(rng, 3) for _ in range(200)])
        chis = character_direct(SPACES["v2bar"], qs)
        assert chis.shape == (200,)
        assert chis == pytest.approx(character_closed_form(SPACES["v2bar"], qs), abs=1e-9)


class TestFixDimension:
    def test_orthotropic_nine(self):
        assert fix_dimension(SPACES["ela3"], resolve_group("d2", 3)) == 9

    def test_transversal_pair(self):
        assert fix_dimension(SPACES["major3"], resolve_group("so2-e3", 3)) == 11
        assert fix_dimension(SPACES["major3"], resolve_group("o2-e3", 3)) == 8

    def test_cubic_gradient_spaces(self):
        cubic = resolve_group("cubic", 3)
        assert fix_dimension(SPACES["v1"], cubic) == 3
        assert fix_dimension(SPACES["v2"], cubic) == 11

    def test_planar_values(self):
        assert fix_dimension(SPACES["high2"], resolve_group("d4", 2)) == 10
        assert fix_dimension(SPACES["high2"], resolve_group("d2", 2)) == 20
        assert fix_dimension(SPACES["high2"], resolve_group("z2", 2)) == 36
        assert fix_dimension(SPACES["sym2"], resolve_group("o2", 2)) == 1

    def test_trivial_group_gives_space_dim(self):
        for name in ("sym2", "ela3", "v2bar"):
            sp = SPACES[name]
            assert fix_dimension(sp, resolve_group("trivial", sp.n)) == sp.dim

    def test_subgroup_monotonicity_chain(self):
        sp = SPACES["ela2"]
        dims = [fix_dimension(sp, resolve_group(g, 2))
                for g in ("trivial", "z2", "d2", "d4")]
        assert dims == sorted(dims, reverse=True)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            fix_dimension(SPACES["ela2"], resolve_group("cubic", 3))

    def test_non_convergence_detected(self, monkeypatch):
        # a Haar average off an integer is refused, not rounded
        monkeypatch.setattr("symtensor.characters.integrate", lambda *args: 4.5)
        with pytest.raises(QuadratureNotConvergedError, match="not converged"):
            fix_dimension(SPACES["ela3"], resolve_group("so3", 3))

    @pytest.mark.parametrize("name", list(SPACES))
    def test_degrees_from_order_match_default(self, name):
        # the Haar integral of the character is the same integer at every
        # degree from the order k up, so fix_dimension needs no degree choice
        sp = SPACES[name]
        for group in ("so2", "o2") if sp.n == 2 else ("so2-e3", "o2-e3", "so3"):
            g = resolve_group(group, sp.n)
            expected = fix_dimension(sp, g)
            for degree in range(sp.k, sp.k + 3):
                value = integrate(g, lambda mats: character_closed_form(sp, mats), degree)
                assert value == pytest.approx(expected, abs=1e-6)


# catalog groups for the differential tests: a finite and a continuous
# group per ambient dimension, with reflections among the 2D ones
DIFFERENTIAL_GROUPS = {2: ("d3", "o2", "z4"), 3: ("cubic", "so2-e3", "so3")}


@st.composite
def random_spaces(draw):
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 7 if n == 2 else 5))  # n^k <= 243
    gens = draw(st.lists(st.permutations(range(k)), max_size=3))
    return TensorSpace("random", n, k, tuple(tuple(g) for g in gens))


class TestRandomSpaces:
    """The trace formula, group averaging and the dense symmetrizer agree
    on spaces built from random index permutations."""

    @settings(max_examples=30, deadline=None)
    @given(random_spaces(), st.integers(0, 2), st.integers(0, 2**32 - 1))
    def test_three_paths_agree(self, sp, pick, seed):
        group = resolve_group(DIFFERENTIAL_GROUPS[sp.n][pick], sp.n)
        rng = np.random.default_rng(seed)
        mats = [haar_rotation(rng, sp.n), *(e.matrix for e in group.sample_elements())]
        mats.append(haar_rotation(rng, sp.n) @ np.diag([1.0] * (sp.n - 1) + [-1.0]))
        stack = np.stack(mats)
        closed, direct = character_closed_form(sp, stack), character_direct(sp, stack)
        assert closed.shape == direct.shape == (len(stack),)
        assert closed == pytest.approx(direct, abs=1e-9)
        for q, c, d in zip(stack, closed, direct):
            assert character_closed_form(sp, q) == pytest.approx(c, abs=1e-12)
            assert character_direct(sp, q) == pytest.approx(d, abs=1e-12)
        rank = len(image_basis(averaged_projector(sp, group)))
        assert fix_dimension(sp, group) == rank
        trace = float(np.trace(sp.projector))
        assert abs(trace - sp.dim) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(random_spaces())
    def test_orbit_basis(self, sp):
        b = sp.basis
        assert np.max(np.abs(b.T @ b - np.eye(b.shape[1])), initial=0.0) < 1e-14
        assert b.shape[1] == sp.dim
        # columns in the order of each orbit's smallest flat index
        assert np.all(np.diff(np.argmax(b != 0, axis=0)) > 0)
        # the symmetrizer as the average of X -> transpose(X, perm) over the group
        size = sp.n**sp.k
        units = np.eye(size).reshape((size,) + (sp.n,) * sp.k)
        average = sum(np.transpose(units, (0, *(1 + p for p in perm))).reshape(size, size)
                      for perm in sp.permutation_group) / len(sp.permutation_group)
        assert np.max(np.abs(b @ b.T - average)) < 1e-12

    def test_major_symmetry_only_under_so3(self):
        # named like the elasticity space but with the major symmetry only
        fake = TensorSpace("ela3", 3, 4, ((2, 3, 0, 1),))
        assert fix_dimension(fake, resolve_group("so3", 3)) == 3

    @pytest.mark.parametrize("group,expected", [("so3", 0), ("so2-e3", 4),
                                                ("cubic", 0), ("trivial", 18)])
    def test_order_three_piezo(self, group, expected):
        piezo = TensorSpace("piezo", 3, 3, ((0, 2, 1),))
        g = resolve_group(group, 3)
        assert fix_dimension(piezo, g) == expected
        assert len(image_basis(averaged_projector(piezo, g))) == expected

    @pytest.mark.parametrize("group,expected", [("trivial", 3), ("so2-e3", 1),
                                                ("o2-e3", 0), ("so3", 0)])
    def test_order_one_vectors(self, group, expected):
        vectors = TensorSpace("vec", 3, 1, ())
        g = resolve_group(group, 3)
        assert vectors.dim == 3
        assert fix_dimension(vectors, g) == expected
        assert len(image_basis(averaged_projector(vectors, g))) == expected

    @pytest.mark.parametrize("n,k,group,expected", [
        (2, 12, "so2", 924),       # C(12, 6) weight-zero words in e^{+-i theta}
        (2, 12, "o2", 462),        # half of them: the reflection pairs each word with its mirror
        (2, 11, "so2", 0),         # an odd number of +-1 weights never sums to zero
        (3, 11, "so2-e3", 25653),  # central trinomial coefficient: weights in {-1, 0, 1}
    ])
    def test_circle_groups_beyond_degree_twelve(self, n, k, group, expected):
        # the circle rules take any degree; only SO(3) caps it
        space = TensorSpace(f"t{k}", n, k, ())
        assert fix_dimension(space, resolve_group(group, n)) == expected

    @pytest.mark.parametrize("k,expected", [(11, 1585), (12, 4213)])
    def test_so3_orders_up_to_the_cap(self, k, expected):
        # Riordan numbers (OEIS A005043), at the SO(3) rule's top degree k <= 12
        space = TensorSpace(f"t{k}", 3, k, ())
        assert fix_dimension(space, resolve_group("so3", 3)) == expected

    def test_so3_order_beyond_twelve_refused(self):
        # the degree k = 13 is past the SO(3) rule's cap of 12
        with pytest.raises(ValueError, match="12 on so3"):
            fix_dimension(TensorSpace("t13", 3, 13, ()), resolve_group("so3", 3))
