import functools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtensor import projector
from symtensor.core import (EQUALITY_TOL, SNAP_DENOMINATOR_BOUND, FlatOperator,
                            FlatTensor, NotAProjectorError,
                            SnappedValue, _format_snap, act, image_basis,
                            kron_power, rational_snap, snap_array)
from symtensor.groups import resolve_group
from symtensor.spaces import SPACES

from conftest import haar_rotation


def rot3(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestFlatTensor:
    def test_length_must_match(self):
        with pytest.raises(ValueError, match="length"):
            FlatTensor(3, 2, np.zeros(8))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            FlatTensor(2, 2, [1.0, np.nan, 0.0, 0.0])

    def test_immutable(self):
        t = FlatTensor(2, 2, [1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            t.coeffs[0] = 5.0

    def test_from_array_roundtrip(self, rng):
        arr = rng.normal(size=(3, 3, 3, 3))
        t = FlatTensor.from_array(arr)
        assert t.k == 4 and np.array_equal(t.reshaped(), arr)

    @pytest.mark.parametrize("arr", [5.0, np.array(5.0), np.zeros((2, 3))],
                             ids=["float", "0-d", "2x3"])
    def test_from_array_refuses_non_cubical(self, arr):
        # a 0-d array has no axis to take n from; it is refused like any other
        with pytest.raises(ValueError, match=r"^array shape \(.*\) is not cubical$"):
            FlatTensor.from_array(arr)

    @pytest.mark.parametrize("make,bad", [
        (lambda: FlatTensor(2, 0, [3.0]), "n=2, k=0"),
        (lambda: FlatTensor.from_array(np.zeros(0)), "n=0, k=1"),
        (lambda: FlatTensor(True, 2, [0.0]), "n=True, k=2"),
    ], ids=["order-0", "over-R0", "bool-n"])
    def test_order_and_dimension_are_positive_integers(self, make, bad):
        # the one check TensorSpace makes too, with the same message
        with pytest.raises(ValueError, match=f"^n and k must be positive integers, got {bad}$"):
            make()


class TestKronPower:
    def test_identity_case(self):
        op = kron_power(np.eye(3), 4)
        assert op.shape == (81, 81)
        assert np.array_equal(op, np.eye(81))
        assert np.trace(op) == 81.0

    def test_diagonal_signs_by_hand(self):
        # oracle: hand expansion of Q_ia Q_jb for diagonal Q
        q = np.diag([-1.0, -1.0, 1.0])
        op = kron_power(q, 2)
        expected = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                expected[3 * i + j, 3 * i + j] = q[i, i] * q[j, j]
        assert np.array_equal(op, expected)
        assert op[3 * 0 + 1, 3 * 0 + 1] == 1.0    # (1,2) slot: (-1)(-1)
        assert op[3 * 0 + 2, 3 * 0 + 2] == -1.0   # (1,3) slot: (-1)(+1)

    def test_preserves_elasticity_symmetries(self, rng):
        ela3 = SPACES["ela3"]
        t = ela3.projector @ rng.normal(size=81)
        q = haar_rotation(rng, 3)
        arr = (kron_power(q, 4) @ t).reshape(3, 3, 3, 3)
        assert np.allclose(arr, arr.transpose(1, 0, 2, 3), atol=1e-12)
        assert np.allclose(arr, arr.transpose(0, 1, 3, 2), atol=1e-12)
        assert np.allclose(arr, arr.transpose(2, 3, 0, 1), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_array_of_chained_kron(self, k, rng):
        q = haar_rotation(rng, 3)
        out = kron_power(q, k)
        assert isinstance(out, np.ndarray) and out.shape == (3**k, 3**k)
        assert out.tobytes() == functools.reduce(np.kron, [q] * k).tobytes()

    def test_order_one_is_a_copy(self, rng):
        q = haar_rotation(rng, 3)
        out = kron_power(q, 1)
        assert np.array_equal(out, q) and not np.shares_memory(out, q)

    def test_rejects_non_orthogonal(self):
        # Q^T Q - I is 1.001^2 - 1 on its diagonal
        with pytest.raises(ValueError, match=r"^matrix is not orthogonal: "
                                             r"max \|QᵀQ − I\| = 2\.001e-03$"):
            kron_power(np.eye(3) * 1.001, 2)

    def test_rejects_unsupported_order(self):
        with pytest.raises(ValueError, match="order"):
            kron_power(np.eye(3), 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 4, 5]))
    def test_homomorphism_and_orthogonality(self, seed, k):
        rng = np.random.default_rng(seed)
        q1, q2 = haar_rotation(rng, 3), haar_rotation(rng, 3)
        lhs = kron_power(q1 @ q2, k)
        rhs = kron_power(q1, k) @ kron_power(q2, k)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        kq = kron_power(q1, k)
        assert np.max(np.abs(kq.T @ kq - np.eye(kq.shape[0]))) < 1e-10


class TestOperatorTrace:
    def test_identity_81(self):
        assert np.trace(kron_power(np.eye(3), 4)) == 81.0

    def test_symmetrizer_traces(self):
        assert np.trace(SPACES["ela3"].projector) == pytest.approx(21.0, abs=1e-9)
        assert np.trace(SPACES["v2"].projector) == pytest.approx(171.0, abs=1e-9)


class TestAct:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 7),
           st.sampled_from([(), (3,), (2, 3)]), st.booleans())
    def test_matches_kron_power(self, seed, n, k, tail, reflect):
        # x is a vector, a matrix or a stack of matrices
        rng = np.random.default_rng(seed)
        mats = np.stack([haar_rotation(rng, n) for _ in range(3)])
        if reflect and n == 2:
            mats = mats @ np.diag([1.0, -1.0])
        x = rng.normal(size=(n**k,) + tail)
        got = act(mats, k, x)
        assert got.shape == (3,) + x.shape
        for q, moved in zip(mats, got):
            expected = np.tensordot(kron_power(q, k), x, axes=1)
            assert np.max(np.abs(moved - expected)) < 1e-12


class TestOrbitOperator:
    @pytest.mark.parametrize("matrix", [np.eye(4)[:3], np.ones(3), np.ones((2, 2, 2))],
                             ids=["3x4", "vector", "stack"])
    def test_matrix_must_be_square(self, matrix):
        with pytest.raises(ValueError, match=r"^operator matrix has shape \(.*\), "
                                             r"expected a square matrix$"):
            FlatOperator(matrix)


class TestImageBasis:
    def test_identity_full_rank(self):
        op = FlatOperator(np.eye(4))
        basis = image_basis(op)
        assert len(basis) == 4

    def test_rejects_non_projector(self):
        op = FlatOperator(np.eye(4) * 2.0)
        with pytest.raises(NotAProjectorError):
            image_basis(op)

    def test_orthonormal_output(self):
        pi = SPACES["ela2"].projector
        basis = image_basis(FlatOperator(pi))
        assert len(basis) == 6
        mat = basis.T  # coordinates on the plain space, whose basis B is I
        assert np.allclose(mat.T @ mat, np.eye(6), atol=1e-12)

    def test_oblique_projector_keeps_full_rank(self):
        # exactly idempotent, singular values 1e10, 1 and 0: the rank is 2
        p = np.array([[1.0, 1e10, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        op = FlatOperator(p)
        basis = image_basis(op).T
        assert basis.shape == (3, 2)
        assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        assert np.allclose(p @ basis, basis, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rank_stable_under_orthogonal_conjugation(self, seed):
        rng = np.random.default_rng(seed)
        pi = SPACES["sym2"].projector
        r = haar_rotation(rng, 4)
        conjugated = FlatOperator(r @ pi @ r.T)
        dense = FlatOperator(pi)
        assert len(image_basis(conjugated)) == len(image_basis(dense))


def _reference_snap(x: float) -> SnappedValue:
    """The best-approximation rule: one ``Fraction.limit_denominator`` per surd."""
    x = float(x)
    if abs(x) < 1e6:
        for surd in (1, 2, 3):
            frac = Fraction(x / math.sqrt(surd)).limit_denominator(SNAP_DENOMINATOR_BOUND)
            approx = float(frac) * math.sqrt(surd)
            if abs(approx - x) <= EQUALITY_TOL:
                return SnappedValue(approx, _format_snap(frac.numerator, frac.denominator, surd),
                                    True, frac.numerator, frac.denominator, surd)
    return SnappedValue(x, f"{x!r} (unsnapped)", False)


def _catalog_snap_inputs(monkeypatch) -> list:
    """Every float the 98 catalog structure reports snap, in call order."""
    displays = json.loads((Path(__file__).parent / "reference_displays.json").read_text("utf-8"))
    seen = []

    def record(x):
        seen.extend(np.asarray(x, dtype=float).tolist())
        return snap_array(x)

    monkeypatch.setattr(projector, "snap_array", record)
    for key in displays:
        space, group = key.split()
        projector.structure_report(SPACES[space], resolve_group(group, SPACES[space].n))
    return seen


class TestRationalSnap:
    @pytest.mark.parametrize("value,text", [
        (0.4999999999, "1/2"),
        (0.7071067812, "√2/2"),
        (0.3333333333, "1/3"),
        (-0.25, "-1/4"),
        (0.0, "0"),
        (2.0, "2"),
        (math.sqrt(3) / 2, "√3/2"),
    ])
    def test_snaps(self, value, text):
        snapped = rational_snap(value)
        assert snapped.exact and snapped.text == text

    def test_unsnapped_flagged(self):
        snapped = rational_snap(0.123456789)
        assert not snapped.exact and "unsnapped" in snapped.text

    def test_out_of_range(self):
        # huge and non-finite values are shown raw, not refused
        for value in (1e7, 2e6 + 0.3, -2e6 - 0.3, math.inf, -math.inf, math.nan):
            snapped = rational_snap(value)
            assert not snapped.exact and snapped.text == f"{value!r} (unsnapped)"
            assert snapped.value == value or math.isnan(value)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-500, 500), st.integers(1, 64))
    def test_recovers_fractions(self, p, q):
        snapped = rational_snap(p / q)
        assert snapped.exact
        assert abs(snapped.value - p / q) <= EQUALITY_TOL

    def test_bit_identical_to_limit_denominator(self, monkeypatch):
        # the candidate grid against the best-approximation rule, field for field
        # and ``value`` bit for bit, on every catalog input and a fixed sample
        fields = lambda v: (v.value.hex(), v.text, v.exact, v.numerator, v.denominator, v.surd)
        catalog = _catalog_snap_inputs(monkeypatch)
        assert len(catalog) == 2485
        p = np.arange(-64, 65)[:, None, None]
        q = np.arange(1, SNAP_DENOMINATOR_BOUND + 1)[None, :, None]
        lattice = np.unique(p / q * np.sqrt([1.0, 2.0, 3.0]))
        normals = np.clip(np.random.default_rng(2024).normal(0.0, 30.0, 2000), -100.0, 100.0)
        edges = [0.0, -0.0, EQUALITY_TOL, -2 * EQUALITY_TOL, 1e6, -1e6, 999999.9999999,
                 math.inf, -math.inf, math.nan]
        values = [*catalog, *lattice, *normals, *edges]
        for x in values:
            assert fields(rational_snap(x)) == fields(_reference_snap(x)), x
        assert [fields(v) for v in snap_array(values)] == [fields(_reference_snap(x))
                                                           for x in values]

    def test_array_snap_is_the_one_value_snap_elementwise(self):
        # non-finite values among finite ones raise no RuntimeWarning (an error here)
        fields = lambda v: (v.value.hex(), v.text, v.exact, v.numerator, v.denominator, v.surd)
        values = np.array([0.5, math.inf, 0.123456789, math.nan, -math.sqrt(2) / 3, -1e7])
        assert [fields(v) for v in snap_array(values)] == [fields(rational_snap(x))
                                                           for x in values]
        assert snap_array([]) == []
