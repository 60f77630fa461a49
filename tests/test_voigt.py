import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtensor.core import FlatTensor
from symtensor.spaces import SPACES, symmetrize
from symtensor.voigt import (ALL_MAPS, EXTENDED18, EXTENDED18_ORDER, MANDEL6,
                             NINE_SLOT, OCTET8, SLOT_TOL, STRUCTURE_MAPS, VOIGT6,
                             anti, axl, dump_tables, induced_matrix)


def random_sym3(rng):
    x = rng.normal(size=(3, 3))
    return (x + x.T) / 2.0


class TestVoigt6:
    def test_identity(self):
        assert np.array_equal(VOIGT6.forward(np.eye(3)), [1, 1, 1, 0, 0, 0])

    def test_offdiagonal_doubled(self):
        x = np.zeros((3, 3))
        x[1, 2] = x[2, 1] = 5.0
        assert np.array_equal(VOIGT6.forward(x), [0, 0, 0, 10, 0, 0])

    def test_roundtrip(self, rng):
        x = random_sym3(rng)
        back = VOIGT6.inverse(VOIGT6.forward(x)).reshaped()
        assert np.max(np.abs(back - x)) < 1e-14

    def test_rejects_asymmetric(self, rng):
        with pytest.raises(ValueError, match="symmetry"):
            VOIGT6.forward(rng.normal(size=(3, 3)))

    def test_slot_tolerance_is_relative_to_the_largest_entry(self):
        # x12 and x21 read one slot with inverse scale 1/2: x12 / (1/2) and
        # x21 / (1/2) may differ by SLOT_TOL x max|x| = 4 SLOT_TOL
        x = 4.0 * np.eye(3)
        x[0, 1], x[1, 0] = 1.0, 1.0 + 1.5 * SLOT_TOL
        assert VOIGT6.forward(x)[5] == pytest.approx(2.0, abs=1e-8)
        x[1, 0] = 1.0 + 2.5 * SLOT_TOL
        with pytest.raises(ValueError, match="symmetry"):
            VOIGT6.forward(x)


class TestMandel:
    def test_identity_norm(self):
        v = MANDEL6.forward(np.eye(3))
        assert np.array_equal(v, [1, 1, 1, 0, 0, 0])
        assert np.linalg.norm(v) == pytest.approx(math.sqrt(3.0))

    def test_isometry_single_offdiagonal(self):
        x = np.zeros((3, 3))
        x[1, 2] = x[2, 1] = 1.0
        assert np.linalg.norm(MANDEL6.forward(x)) == pytest.approx(np.linalg.norm(x), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_isometry_random(self, seed):
        x = random_sym3(np.random.default_rng(seed))
        assert abs(np.linalg.norm(MANDEL6.forward(x)) - np.linalg.norm(x)) < 1e-12

    def test_plain_voigt_not_isometric(self):
        x = np.zeros((3, 3))
        x[0, 1] = x[1, 0] = 1.0
        assert abs(np.linalg.norm(VOIGT6.forward(x)) - np.linalg.norm(x)) > 0.5


class TestNineSlot:
    def test_identity(self):
        assert np.array_equal(NINE_SLOT.forward(np.eye(3)), [1, 1, 1, 0, 0, 0, 0, 0, 0])

    def test_skew_orders(self):
        x = np.zeros((3, 3))
        x[1, 2], x[2, 1] = 1.0, -1.0
        v = NINE_SLOT.forward(x)
        assert v[3] == 1.0 and v[4] == -1.0

    def test_roundtrip(self, rng):
        x = rng.normal(size=(3, 3))
        assert np.max(np.abs(NINE_SLOT.inverse(NINE_SLOT.forward(x)).reshaped() - x)) == 0.0


class TestExtended18:
    def test_order_table_is_frozen(self):
        published = ((1, 1, 1), (2, 2, 1), (1, 2, 2), (3, 3, 1), (1, 3, 3),
                     (2, 2, 2), (1, 1, 2), (1, 2, 1), (3, 3, 2), (2, 3, 3),
                     (3, 3, 3), (1, 1, 3), (1, 3, 1), (2, 2, 3), (2, 3, 2),
                     (1, 2, 3), (1, 3, 2), (2, 3, 1))
        assert tuple(tuple(i + 1 for i in idx) for idx in EXTENDED18_ORDER) == published

    def test_basis_slots(self):
        s111 = np.zeros((3, 3, 3))
        s111[0, 0, 0] = 1.0
        v = EXTENDED18.forward(s111)
        assert v[0] == pytest.approx(1.0) and np.max(np.abs(np.delete(v, 0))) < 1e-15

        s123 = np.zeros((3, 3, 3))
        s123[0, 1, 2] = s123[1, 0, 2] = 1.0 / math.sqrt(2.0)
        v = EXTENDED18.forward(s123)
        assert v[15] == pytest.approx(1.0) and np.max(np.abs(np.delete(v, 15))) < 1e-14

    def test_isometry_and_roundtrip(self, rng):
        t = rng.normal(size=(3, 3, 3))
        t = (t + t.transpose(1, 0, 2)) / 2.0
        v = EXTENDED18.forward(t)
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(t), abs=1e-12)
        assert np.max(np.abs(EXTENDED18.inverse(v).reshaped() - t)) < 1e-14

    def test_rejects_asymmetric_pair(self, rng):
        with pytest.raises(ValueError, match="symmetry"):
            EXTENDED18.forward(rng.normal(size=(3, 3, 3)))


class TestAllRoundtrips:
    @pytest.mark.parametrize("vmap", ALL_MAPS, ids=lambda m: m.name)
    def test_forward_inverse_exact(self, vmap, rng):
        vec = rng.normal(size=vmap.length)
        assert np.max(np.abs(vmap.forward(vmap.inverse(vec)) - vec)) < 1e-14
        arr = vmap.inverse(rng.normal(size=vmap.length)).reshaped()
        assert np.max(np.abs(vmap.inverse(vmap.forward(arr)).reshaped() - arr)) < 1e-14


class TestInducedMatrix:
    def test_sym3_identity_renders_half_diagonal(self):
        d = np.eye(3)
        ident = (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d)) / 2.0
        m = induced_matrix(VOIGT6, VOIGT6, FlatTensor.from_array(ident))
        assert np.allclose(m, np.diag([1, 1, 1, 0.5, 0.5, 0.5]), atol=1e-14)

    def test_slot_23_sources_3322(self, rng):
        t = symmetrize(SPACES["ela3"], rng.normal(size=81))
        m = induced_matrix(VOIGT6, VOIGT6, t)
        assert m[1, 2] == pytest.approx(t.reshaped()[2, 2, 1, 1], abs=1e-12)

    def test_full_component_table(self, rng):
        pairs = ((0, 0), (1, 1), (2, 2), (2, 1), (2, 0), (1, 0))
        t = symmetrize(SPACES["ela3"], rng.normal(size=81))
        arr = t.reshaped()
        m = induced_matrix(VOIGT6, VOIGT6, t)
        for a, pa in enumerate(pairs):
            for b, pb in enumerate(pairs):
                assert m[a, b] == pytest.approx(arr[pb + pa], abs=1e-12)

    def test_symmetric_tensor_symmetric_matrix(self, rng):
        t = symmetrize(SPACES["ela3"], rng.normal(size=81))
        m = induced_matrix(VOIGT6, VOIGT6, t)
        assert np.max(np.abs(m - m.T)) < 1e-12

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order"):
            induced_matrix(VOIGT6, VOIGT6, FlatTensor(3, 2, np.zeros(9)))


def loop_induced_matrix(map_row, map_col, t):
    """Reference: entry (a, b) sums inverse scale products over both slots' components."""
    arr = t.reshaped()
    out = np.zeros((map_row.length, map_col.length))
    for a, row_slot in enumerate(map_row.slots):
        for b, col_slot in enumerate(map_col.slots):
            for ridx, rs in zip(row_slot.pattern, row_slot.inverse):
                for cidx, cs in zip(col_slot.pattern, col_slot.inverse):
                    out[a, b] += rs * cs * arr[ridx + cidx]
    return out


def loop_inverse(vmap, vec):
    """Reference: each component is its slot's value times the inverse scale."""
    arr = np.zeros((vmap.n,) * vmap.order)
    for a, slot in enumerate(vmap.slots):
        for idx, s in zip(slot.pattern, slot.inverse):
            arr[idx] = s * vec[a]
    return arr


class TestSlotMatrices:
    @pytest.mark.parametrize("name", sorted(STRUCTURE_MAPS))
    def test_induced_matrix_matches_loop(self, name, rng):
        map_row, map_col = STRUCTURE_MAPS[name]
        t = FlatTensor(map_row.n, map_row.order + map_col.order,
                       rng.normal(size=map_row.n ** (map_row.order + map_col.order)))
        # same products, summed in another order: a few ulps of the O(1) entries
        assert np.max(np.abs(induced_matrix(map_row, map_col, t)
                             - loop_induced_matrix(map_row, map_col, t))) < 1e-14

    @pytest.mark.parametrize("vmap", ALL_MAPS, ids=lambda m: m.name)
    def test_inverse_matches_loop(self, vmap, rng):
        vec = rng.normal(size=vmap.length)
        assert np.array_equal(vmap.inverse(vec).reshaped(), loop_inverse(vmap, vec))


class TestAxl:
    def test_anti_e3(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(anti([0.0, 0.0, 1.0]), expected)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_mutual_inverse_and_cross_product(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=3)
        v = rng.normal(size=3)
        skew = anti(a)
        assert np.max(np.abs(axl(skew) - a)) < 1e-14
        assert np.max(np.abs(skew @ v - np.cross(a, v))) < 1e-13

    def test_axl_rejects_non_skew(self):
        with pytest.raises(ValueError, match="skew"):
            axl(np.eye(3))


class TestDump:
    def test_tables_cover_all_maps(self):
        tables = dump_tables()
        assert set(tables) == {m.name for m in ALL_MAPS}
        ext = tables["extended18"]
        assert len(ext["slots"]) == 18
        assert ext["slots"][15]["components"] == [[1, 2, 3], [2, 1, 3]]

    def test_octet8_split_by_parity(self):
        # first four triples carry an even number of 2-indices
        for slot in OCTET8.slots[:4]:
            assert sum(slot.pattern[0]) % 2 == 0
        for slot in OCTET8.slots[4:]:
            assert sum(slot.pattern[0]) % 2 == 1


class TestPlanarMandel:
    def test_2d_analogue_ordering(self):
        from symtensor.voigt import MANDEL3_2D
        x = np.array([[1.0, 3.0], [3.0, 2.0]])
        v = MANDEL3_2D.forward(x)
        assert np.allclose(v, [1.0, 2.0, 3.0 * math.sqrt(2.0)], atol=1e-15)
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(x), abs=1e-12)
