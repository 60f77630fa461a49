import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtensor.core import FlatTensor, kron_power
from symtensor.spaces import (SPACES, TensorSpace, lookup, membership_residual,
                              symmetrize)

from conftest import haar_rotation

HAND_COUNTS = {"sym2": 3, "sym3": 6, "ela2": 6, "ela3": 21, "major3": 45,
               "v1": 108, "v1bar": 108, "v2": 171, "v2bar": 171, "high2": 36}


class TestSymIdentity:
    def test_sym3_component_formula(self):
        # Pi_{iajb} = (delta_ia delta_jb + delta_ib delta_ja) / 2
        pi = SPACES["sym3"].projector
        expected = np.zeros((9, 9))
        for i, j, a, b in itertools.product(range(3), repeat=4):
            expected[3 * i + j, 3 * a + b] = ((i == a) * (j == b) + (i == b) * (j == a)) / 2.0
        assert np.allclose(pi, expected, atol=1e-15)
        assert np.trace(pi) == pytest.approx(6.0)

    def test_ela3_eight_term_formula(self):
        # oracle: the eight explicit delta products of the elasticity symmetrizer
        d = np.eye(3)
        terms = [
            np.einsum("ia,jb,kc,ld->ijklabcd", d, d, d, d),
            np.einsum("ia,jb,lc,kd->ijklabcd", d, d, d, d),
            np.einsum("ja,ib,lc,kd->ijklabcd", d, d, d, d),
            np.einsum("ja,ib,kc,ld->ijklabcd", d, d, d, d),
            np.einsum("ka,lb,ic,jd->ijklabcd", d, d, d, d),
            np.einsum("ka,lb,jc,id->ijklabcd", d, d, d, d),
            np.einsum("la,kb,jc,id->ijklabcd", d, d, d, d),
            np.einsum("la,kb,ic,jd->ijklabcd", d, d, d, d),
        ]
        expected = sum(terms).reshape(81, 81) / 8.0
        assert np.allclose(SPACES["ela3"].projector, expected, atol=1e-15)

    def test_major3_two_term_formula(self):
        d = np.eye(3)
        expected = (np.einsum("ia,jb,kc,ld->ijklabcd", d, d, d, d)
                    + np.einsum("ka,lb,ic,jd->ijklabcd", d, d, d, d)).reshape(81, 81) / 2.0
        assert np.allclose(SPACES["major3"].projector, expected, atol=1e-15)
        assert SPACES["major3"].dim == 45

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_projector_properties(self, name):
        pi = SPACES[name].projector
        assert np.max(np.abs(pi @ pi - pi)) < 1e-12
        assert np.max(np.abs(pi - pi.T)) < 1e-12

    @pytest.mark.parametrize("name,expected", sorted(HAND_COUNTS.items()))
    def test_dimensions(self, name, expected):
        assert SPACES[name].dim == expected

    @pytest.mark.parametrize("name", ["ela3", "v1bar", "v2bar", "high2"])
    def test_commutes_with_rotation_action(self, name, rng):
        sp = SPACES[name]
        pi = sp.projector
        q = haar_rotation(rng, sp.n)
        kq = kron_power(q, sp.k)
        assert np.max(np.abs(kq @ pi - pi @ kq)) < 1e-10


class TestMembershipResidual:
    def test_symmetrized_input_is_member(self, rng):
        for name in ("ela3", "v2bar"):
            sp = SPACES[name]
            t = symmetrize(sp, rng.normal(size=sp.n**sp.k))
            assert membership_residual(sp, t) < 1e-12

    def test_zero_tensor(self):
        sp = SPACES["ela3"]
        assert membership_residual(sp, FlatTensor(3, 4, np.zeros(81))) == 0.0

    def test_single_slot_residual_by_hand(self):
        # oracle: enumerate the eight index permutations of the elasticity
        # symmetrizer on the basis tensor e1 x e2 x e1 x e1
        perms = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                 (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]
        arr = np.zeros((3, 3, 3, 3))
        arr[0, 1, 0, 0] = 1.0
        projected = sum(arr.transpose(p) for p in perms) / len(perms)
        expected = float(np.max(np.abs(projected - arr)))
        sp = SPACES["ela3"]
        got = membership_residual(sp, FlatTensor.from_array(arr))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.75, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            membership_residual(SPACES["ela3"], FlatTensor(2, 4, np.zeros(16)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["sym2", "ela2", "major3"]))
    def test_projection_idempotent(self, seed, name):
        sp = SPACES[name]
        rng = np.random.default_rng(seed)
        once = symmetrize(sp, rng.normal(size=sp.n**sp.k))
        twice = symmetrize(sp, once)
        assert np.max(np.abs(once.coeffs - twice.coeffs)) < 1e-12


def _orbits_from_image_table(sp: TensorSpace) -> np.ndarray:
    """Orbit numbers by definition: the least image of each index over the
    whole permutation group, from the |P| x n^k table of images."""
    shape = (sp.n,) * sp.k
    idx = np.indices(shape).reshape(sp.k, -1)
    images = [np.ravel_multi_index(idx[list(p)], shape) for p in sp.permutation_group]
    return np.unique(np.min(images, axis=0), return_inverse=True)[1]


@st.composite
def permutation_spaces(draw):
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 8 if n == 2 else 6))
    gens = draw(st.lists(st.permutations(range(k)), max_size=3))
    return TensorSpace("random", n, k, tuple(tuple(g) for g in gens))


class TestOrbits:
    @pytest.mark.parametrize("name", list(SPACES))
    def test_catalog_matches_the_image_table(self, name):
        assert np.array_equal(SPACES[name].orbits, _orbits_from_image_table(SPACES[name]))

    @settings(max_examples=60, deadline=None)
    @given(permutation_spaces())
    def test_propagation_matches_the_image_table(self, sp):
        assert np.array_equal(sp.orbits, _orbits_from_image_table(sp))
        assert sp.orbits.max(initial=-1) + 1 == sp.dim


def _orbit_mean_matches_the_basis(sp: TensorSpace, seed: int) -> None:
    t = np.random.default_rng(seed).normal(size=sp.n**sp.k)
    dense = sp.basis @ (sp.basis.T @ t)
    assert np.max(np.abs(symmetrize(sp, t).coeffs - dense)) <= 1e-15 * np.max(np.abs(t))


class TestOrbitMean:
    """``symmetrize`` takes orbit means; it equals ``B (B^T t)``."""

    @pytest.mark.parametrize("name", list(SPACES))
    def test_catalog_matches_the_basis(self, name):
        _orbit_mean_matches_the_basis(SPACES[name], 11)

    @settings(max_examples=60, deadline=None)
    @given(permutation_spaces(), st.integers(0, 2**32 - 1))
    def test_random_space_matches_the_basis(self, sp, seed):
        _orbit_mean_matches_the_basis(sp, seed)


class TestDenseReferences:
    """The orbit basis B is built in one n^k x d allocation, and the dense
    symmetrizer ``projector`` is the read-only array ``B B^T``."""

    @pytest.mark.parametrize("name", list(SPACES))
    def test_basis_bytes_equal_the_indicator_rows(self, name):
        sp = SPACES[name]
        sizes = np.bincount(sp.orbits)
        rows = np.eye(sizes.size)[sp.orbits] / np.sqrt(sizes[sp.orbits])[:, None]
        assert sp.basis.tobytes() == rows.tobytes() and not sp.basis.flags.writeable

    def test_basis_peak_is_one_allocation(self):
        sp = TensorSpace("t7", 3, 7, ())
        tracemalloc.start()
        try:
            basis = sp.basis
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert basis.shape == (3**7, 3**7)
        assert peak < 1.2 * basis.nbytes

    @pytest.mark.parametrize("name", ["sym2", "ela3", "v1bar"])
    def test_projector_is_a_read_only_array(self, name):
        sp = SPACES[name]
        p = sp.projector
        assert isinstance(p, np.ndarray) and not p.flags.writeable and sp.projector is p
        assert p.tobytes() == (sp.basis @ sp.basis.T).tobytes()


class TestCatalog:
    def test_lookup_case_insensitive(self):
        assert lookup("ELA3") is SPACES["ela3"]

    def test_lookup_unknown(self):
        with pytest.raises(KeyError, match="unknown space"):
            lookup("piezo")

    def test_invalid_generator_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            TensorSpace("bad", 2, 2, ((0, 0),))

    @pytest.mark.parametrize("n,k", [(3, -1), (3, 0), (0, 2), (-2, 2), (3, 2.0),
                                     (2.5, 2), (True, 2), (3, "2")])
    def test_order_and_dimension_must_be_positive_integers(self, n, k):
        with pytest.raises(ValueError, match="positive integers"):
            TensorSpace("x", n, k, ())

    def test_custom_space(self):
        # full symmetric order-2 plus nothing else; same as sym2
        sp = TensorSpace("mirror", 2, 2, ((1, 0),))
        assert sp.dim == 3
