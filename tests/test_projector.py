import tracemalloc

import numpy as np
import pytest

from symtensor import projector
from symtensor.core import FlatOperator, FlatTensor, image_basis, kron_power
from symtensor.characters import fix_dimension
from symtensor.groups import GROUPS_2D, GROUPS_3D, SymmetryGroup, resolve_group
from symtensor.projector import (DEPENDENT_RESIDUAL_TOL, FREE_SLOT_RATIO, SLOT_ZERO_TOL,
                                 MembershipError,
                                 NoVoigtMapError, _averaged_action, _display, _free_slots,
                                 averaged_projector, extract_isotropic_moduli,
                                 isotropic_nine_matrix, moduli_from_matrix,
                                 project, structure_report)
from symtensor.spaces import SPACES, TensorSpace, symmetrize
from symtensor.verification import ALL_PAIRS
from symtensor.voigt import MANDEL6, NINE_SLOT, STRUCTURE_MAPS, induced_matrix

TILTED_CASES = [(space, group, axis) for space in ("ela3", "major3", "v1bar", "v2bar")
                for group in ("so2-e3", "o2-e3", "d3", "z4", "z6")
                for axis in ((1, 1, 1), (1, 2, 3), (0.001, 0, 1))]
DISPLAY_CASES = ([(s, g, None) for s, g in ALL_PAIRS if s in STRUCTURE_MAPS]
                 + TILTED_CASES)
PROJECT_CASES = [(s, g, None) for s, g in ALL_PAIRS] + TILTED_CASES
CATALOG_GROUPS = [(s, g) for s in sorted(SPACES)
                  for g in (("cubic", "so3") if SPACES[s].n == 3 else ("d4", "so2"))]
COMPILE_CASES = ([(s, "trivial", None) for s in sorted(STRUCTURE_MAPS)]
                 + [case for case in TILTED_CASES if case[0] in ("v1bar", "v2bar")])


def _case_ids(cases) -> list:
    return [f"{s}-{g}" + (f"-axis{''.join(map(str, a))}" if a else "") for s, g, a in cases]


def _quadratic_free_slots(vecs, candidates, scale) -> list:
    """The free-slot loop that projects each candidate, and every slot not
    yet visited, onto all the chosen directions afresh at every step."""
    directions = np.zeros((0, vecs.shape[1]))
    free = []
    for at, i in enumerate(candidates):
        resid = vecs[i] - (directions @ vecs[i]) @ directions
        size = np.linalg.norm(resid)
        if size <= DEPENDENT_RESIDUAL_TOL * scale:
            continue
        rest = vecs[candidates[at:]]
        left = np.linalg.norm(rest - (rest @ directions.T) @ directions, axis=1)
        if size < FREE_SLOT_RATIO * np.max(left):
            continue
        resid -= (directions @ resid) @ directions
        directions = np.vstack([directions, resid / np.linalg.norm(resid)])
        free.append(i)
    return free


def _dense(sp: TensorSpace, a: FlatOperator) -> np.ndarray:
    """The n^k x n^k matrix ``B @ matrix @ B.T`` of an operator in the orbit coordinates of ``sp``."""
    return sp.basis @ a.matrix @ sp.basis.T


def _lifted(sp: TensorSpace, rows: np.ndarray) -> np.ndarray:
    """The (r, n^k) basis tensors of ``image_basis`` rows in the orbit coordinates of ``sp``."""
    return (sp.basis @ rows.T).T


class TestAveragedProjector:
    def test_trivial_group_returns_symmetrizer(self):
        for name in ("sym2", "ela3"):
            sp = SPACES[name]
            a = averaged_projector(sp, resolve_group("trivial", sp.n))
            assert np.allclose(_dense(sp, a), sp.projector, atol=1e-12)

    def test_sym2_so2_averages_to_spherical_part(self, rng):
        # oracle from the worked circle-average formulas: diagonal slots go
        # to the mean of the diagonal, the off-diagonal slot vanishes
        sp = SPACES["sym2"]
        a = averaged_projector(sp, resolve_group("so2", 2))
        x = rng.normal(size=(2, 2))
        x = (x + x.T) / 2.0
        out = (_dense(sp, a) @ x.reshape(-1)).reshape(2, 2)
        mean = (x[0, 0] + x[1, 1]) / 2.0
        assert np.allclose(out, mean * np.eye(2), atol=1e-12)

    def test_sym2_diagonal_sign_group_by_hand(self, rng):
        # oracle: averaging over the four sign matrices diag(+-1, +-1)
        # kills the off-diagonal slot and keeps the diagonal
        signs = [np.diag(s) for s in ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))]
        x = rng.normal(size=(2, 2))
        x = (x + x.T) / 2.0
        expected = sum(q @ x @ q.T for q in signs) / 4.0
        sp = SPACES["sym2"]
        group = resolve_group("d2", 2)  # contains exactly those four matrices
        got = (_dense(sp, averaged_projector(sp, group)) @ x.reshape(-1)).reshape(2, 2)
        assert np.allclose(got, expected, atol=1e-12)
        assert abs(got[0, 1]) < 1e-15

    @pytest.mark.parametrize("space_name,group_name", [
        ("ela3", "cubic"), ("ela3", "so3"), ("major3", "o2-e3"),
        ("v2bar", "cubic"), ("high2", "d4"), ("ela2", "d4"),
    ])
    def test_idempotent_symmetric_rank(self, space_name, group_name):
        sp = SPACES[space_name]
        g = resolve_group(group_name, sp.n)
        a = averaged_projector(sp, g).matrix
        assert np.max(np.abs(a @ a - a)) < 1e-9
        assert np.max(np.abs(a - a.T)) < 1e-9
        rank = int(np.sum(np.linalg.eigvalsh((a + a.T) / 2.0) > 0.5))
        assert rank == fix_dimension(sp, g)

    def test_equivariance(self, rng):
        sp = SPACES["ela3"]
        g = resolve_group("cubic", 3)
        a = _dense(sp, averaged_projector(sp, g))
        for e in g.generators:
            kq = kron_power(e.matrix, 4)
            assert np.max(np.abs(kq @ a - a)) < 1e-9
            assert np.max(np.abs(a @ kq - a)) < 1e-9

    @pytest.mark.parametrize("space_name,group_name,axis", PROJECT_CASES,
                             ids=_case_ids(PROJECT_CASES))
    def test_equals_the_dense_average(self, space_name, group_name, axis):
        # d rows of M at the orbit representatives give B^T M B
        sp = SPACES[space_name]
        axis = None if axis is None else np.array(axis, float) / np.linalg.norm(axis)
        g = resolve_group(group_name, sp.n, axis=axis)
        expected = sp.basis.T @ _averaged_action(sp, g) @ sp.basis
        assert np.max(np.abs(averaged_projector(sp, g).matrix - expected)) <= 1e-14

    @pytest.mark.parametrize("space_name,group_name", [("ela2", g) for g in GROUPS_2D]
                             + [("ela3", g) for g in GROUPS_3D])
    def test_one_orbit_mean_per_distinct_rule(self, monkeypatch, space_name, group_name):
        # so3's first and last Euler factor are one rule, whose mean is formed once
        rules = []
        original = projector._orbit_mean

        def counting(space, rule, *args):
            rules.append(rule)
            return original(space, rule, *args)

        monkeypatch.setattr(projector, "_orbit_mean", counting)
        sp = SPACES[space_name]
        g = resolve_group(group_name, sp.n)
        rank = len(image_basis(averaged_projector(sp, g)))
        assert len(rules) == (2 if group_name == "so3" else 1)
        assert rank == fix_dimension(sp, g)

    @pytest.mark.parametrize("group_name,rank", [("cubic", 4), ("so2-e3", 5), ("so3", 1)])
    def test_order_eight_without_the_dense_average(self, group_name, rank):
        # Sym^8(R^3): M would be 6561 x 6561 (328 MiB); the rows at the 45
        # orbit representatives are all that is built
        swaps = tuple(tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, 8)) for i in range(7))
        sp = TensorSpace("sym8", 3, 8, swaps)
        g = resolve_group(group_name, 3)
        tracemalloc.start()
        try:
            found = len(image_basis(averaged_projector(sp, g)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == rank
        assert peak < 100 * 2**20

    def test_order_eight_projects_without_the_dense_basis(self):
        # the plain order-8 space has 6561 orbits: B would be 6561 x 6561 (328 MiB)
        sp, g = TensorSpace("t8", 3, 8, ()), resolve_group("cubic", 3)
        t = FlatTensor(3, 8, np.ones(3**8))
        tracemalloc.start()
        try:
            out = project(sp, g, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # (1,1,1)^{(x)8} averages over the cube's vertices (+-1,+-1,+-1): an entry is
        # 1 where each axis occurs an even number of times among its indices, else 0
        counts = (np.indices((3,) * 8).reshape(8, -1)[:, :, None] == np.arange(3)).sum(axis=0)
        assert np.allclose(out.coeffs, np.all(counts % 2 == 0, axis=1), rtol=0.0, atol=1e-12)
        assert "basis" not in vars(sp)
        assert peak < 32 * 2**20

    def test_order_eight_so3_projector_in_small_memory(self):
        # so3 averages over its three Euler factors (9, 5 and 9 nodes), not
        # over the flat 405-node rule whose half-order Kronecker stacks alone
        # take 20 MiB
        swaps = tuple(tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, 8)) for i in range(7))
        sp, g = TensorSpace("sym8", 3, 8, swaps), resolve_group("so3", 3)
        tracemalloc.start()
        try:
            a = averaged_projector(sp, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(image_basis(a)) == 1
        assert peak < 8 * 2**20

    def test_order_eight_so3_projects_in_small_memory(self):
        sp, g = TensorSpace("t8", 3, 8, ()), resolve_group("so3", 3)
        tracemalloc.start()
        try:
            out = project(sp, g, FlatTensor(3, 8, np.ones(3**8)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # (Q x)^{(x)8} for x = (1,1,1) averages to |x|^8 times the sphere's
        # eighth moment: an entry whose indices hold each axis c_a times is
        # 3^4 prod_a (c_a - 1)!! / 9!! when every c_a is even, else 0
        counts = (np.indices((3,) * 8).reshape(8, -1)[:, :, None] == np.arange(3)).sum(axis=0)
        double_factorial = np.array([1, 1, 1, 3, 3, 15, 15, 105, 105])  # (c - 1)!!
        expected = np.where(np.all(counts % 2 == 0, axis=1),
                            81.0 * np.prod(double_factorial[counts], axis=1) / 945.0, 0.0)
        assert np.allclose(out.coeffs, expected, rtol=0.0, atol=1e-12)
        assert peak < 8 * 2**20


class TestProject:
    def test_invariant_input_unchanged(self, rng):
        sp = SPACES["ela3"]
        g = resolve_group("cubic", 3)
        t = symmetrize(sp, rng.normal(size=81))
        inv = FlatTensor(sp.n, sp.k, _dense(sp, averaged_projector(sp, g)) @ t.coeffs)
        again = project(sp, g, inv)
        assert np.max(np.abs(again.coeffs - inv.coeffs)) < 1e-12

    def test_worked_circle_example(self):
        t = FlatTensor.from_array(np.array([[1.0, 2.0], [2.0, 5.0]]))
        out = project(SPACES["sym2"], resolve_group("so2", 2), t)
        assert np.allclose(out.reshaped(), 3.0 * np.eye(2), atol=1e-12)

    def test_output_invariant_under_generators(self, rng):
        sp = SPACES["ela3"]
        g = resolve_group("cubic", 3)
        out = project(sp, g, symmetrize(sp, rng.normal(size=81)))
        for e in g.generators:
            moved = kron_power(e.matrix, 4) @ out.coeffs
            assert np.max(np.abs(moved - out.coeffs)) < 1e-10

    @pytest.mark.parametrize("space_name,group_name,axis", PROJECT_CASES,
                             ids=_case_ids(PROJECT_CASES))
    def test_equals_the_averaged_action(self, space_name, group_name, axis):
        # the rule applied to B B^T t is the n^k x n^k average M applied to it
        sp = SPACES[space_name]
        axis = None if axis is None else np.array(axis, float) / np.linalg.norm(axis)
        g = resolve_group(group_name, sp.n, axis=axis)
        t = symmetrize(sp, 3.0 * np.random.default_rng(31).normal(size=sp.n**sp.k))
        expected = _averaged_action(sp, g) @ symmetrize(sp, t).coeffs
        gap = np.max(np.abs(project(sp, g, t).coeffs - expected))
        assert gap <= 1e-12 * max(1.0, t.norm_inf())

    @pytest.mark.parametrize("space_name,group_name", [
        ("ela3", "so3"), ("v2bar", "so2-e3"), ("high2", "o2"), ("major3", "cubic")])
    def test_builds_no_averaged_action(self, monkeypatch, space_name, group_name):
        sp = SPACES[space_name]
        g = resolve_group(group_name, sp.n)
        t = symmetrize(sp, np.random.default_rng(37).normal(size=sp.n**sp.k))
        expected = _averaged_action(sp, g) @ t.coeffs

        def refuse(*args):
            raise AssertionError("project built the n^k x n^k averaged action")

        monkeypatch.setattr("symtensor.projector._averaged_action", refuse)
        out = project(sp, g, t)
        assert np.max(np.abs(out.coeffs - expected)) <= 1e-12 * max(1.0, t.norm_inf())

    def test_rejects_outside_space(self):
        arr = np.zeros((3, 3, 3, 3))
        arr[0, 1, 0, 0] = 1.0
        with pytest.raises(MembershipError):
            project(SPACES["ela3"], resolve_group("cubic", 3), FlatTensor.from_array(arr))

    def test_positive_definiteness_preserved(self, rng):
        # spherical + small symmetric perturbation stays positive definite
        # after averaging; checked through the isometric slot matrix
        sp = SPACES["ela3"]
        g = resolve_group("so2-e3", 3)
        ident = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
        ident = (ident + np.einsum("il,jk->ijkl", np.eye(3), np.eye(3))) / 2.0
        t = symmetrize(sp, ident.reshape(-1) + 0.05 * rng.normal(size=81))
        out = project(sp, g, t)
        eigs = np.linalg.eigvalsh(induced_matrix(MANDEL6, MANDEL6, out))
        assert eigs.min() > 0.0


class TestStructureReport:
    @pytest.mark.parametrize("space_name,group_name", [
        ("ela3", "so3"), ("v2bar", "so2-e3"), ("high2", "o2"), ("v1bar", "cubic")])
    def test_builds_no_averaged_action(self, monkeypatch, space_name, group_name):
        sp = SPACES[space_name]
        g = resolve_group(group_name, sp.n)

        def refuse(*args):
            raise AssertionError("structure_report built the n^k x n^k averaged action")

        monkeypatch.setattr("symtensor.projector._averaged_action", refuse)
        assert structure_report(sp, g).dim == fix_dimension(sp, g)

    def test_catalog_reports_run_no_svd(self, monkeypatch):
        # the slots are read off the projector's rows: no SVD on the structure path
        def refuse(*args, **kwargs):
            raise AssertionError("structure_report ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        pairs = [(s, g) for s, g in ALL_PAIRS if s in STRUCTURE_MAPS]
        assert len(pairs) == 98
        for space_name, group_name in pairs:
            sp = SPACES[space_name]
            assert structure_report(sp, resolve_group(group_name, sp.n)).dim >= 0

    def test_trace_formula_disagreement_refused(self, monkeypatch):
        fix = projector.fix_dimension
        monkeypatch.setattr(projector, "fix_dimension", lambda space, group: fix(space, group) + 1)
        with pytest.raises(projector.InternalConsistencyError,
                           match=r"^projector trace 3 disagrees with trace formula 4 "
                                 r"for \(ela3, cubic\)$"):
            structure_report(SPACES["ela3"], resolve_group("cubic", 3))

    def test_dimension_zero_reads_all_zero_slots(self):
        # Oh holds -I, which kills every odd-order tensor; its averaged
        # projector is zero up to rounding noise (7e-18 here), and no slot is free
        cubic = resolve_group("cubic", 3).matrices
        oh = SymmetryGroup(3, "oh", np.concatenate([cubic, -cubic]),
                           tuple(map(str, range(2 * len(cubic)))))
        assert np.max(np.abs(averaged_projector(SPACES["v1bar"], oh).matrix)) < 1e-15
        rep = structure_report(SPACES["v1bar"], oh)
        assert rep.dim == 0 and rep.free_labels == () and rep.constraints == ()
        assert {e.kind for row in rep.entries for e in row} == {"zero"}

    def test_orthotropic_matches_block_pattern(self):
        rep = structure_report(SPACES["ela3"], resolve_group("d2", 3))
        assert rep.dim == 9
        zeros = {(r, c) for r in range(6) for c in range(6)
                 if rep.entry(r, c).kind == "zero"}
        expected_zeros = {(r, c) for r in range(6) for c in range(6)
                          if (r < 3 <= c) or (c < 3 <= r) or (r >= 3 and c >= 3 and r != c)}
        assert zeros == expected_zeros
        assert len(rep.free_labels) == 9

    def test_isotropic_major3_constraint(self):
        rep = structure_report(SPACES["major3"], resolve_group("so3", 3))
        assert rep.dim == 3
        assert "C11 = C12 + C44 + C45" in rep.constraints

    def test_v2bar_cubic_block_diagonal(self):
        rep = structure_report(SPACES["v2bar"], resolve_group("cubic", 3))
        assert rep.dim == 11
        assert len(rep.free_labels) == 11
        for r in range(18):
            for c in range(18):
                same_block = (r // 5 == c // 5) if max(r, c) < 15 else (r >= 15 and c >= 15)
                if not same_block:
                    assert rep.entry(r, c).kind == "zero"

    def test_dim_zero_is_all_zero_report(self, monkeypatch):
        # an odd-order planar space dies under -I; the report degenerates
        # to all zeros instead of erroring
        from symtensor.spaces import TensorSpace
        from symtensor.voigt import OCTET8, STRUCTURE_MAPS, Slot, VoigtMap
        import itertools
        odd = TensorSpace("odd2", 2, 5, ())
        quad4 = VoigtMap("quad4", 2, 2, tuple(
            Slot((idx,), (1.0,), (1.0,))
            for idx in itertools.product(range(2), repeat=2)
        ))
        monkeypatch.setitem(STRUCTURE_MAPS, "odd2", (OCTET8, quad4))
        rep = structure_report(odd, resolve_group("z2", 2))
        assert rep.dim == 0
        assert all(e.kind == "zero" for row in rep.entries for e in row)
        assert rep.free_labels == ()

    @pytest.mark.parametrize("n,generators,reason", [
        (3, ((2, 3, 0, 1),), "orbit"),               # major symmetry only
        (3, ((1, 0, 2, 3), (0, 1, 3, 2)), "orbit"),  # minors only: mirror differs
        (2, SPACES["ela3"].generators, "ambient"),   # planar tensors
    ])
    def test_slot_map_must_fit_space_symmetry(self, n, generators, reason):
        # the 6x6 display registered for "ela3" needs all three symmetries in 3D
        from symtensor.spaces import TensorSpace
        impostor = TensorSpace("ela3", n, 4, generators)
        with pytest.raises(NoVoigtMapError, match=reason):
            structure_report(impostor, resolve_group("trivial", n))

    @pytest.mark.parametrize("space_name,group_name,axis", COMPILE_CASES,
                             ids=_case_ids(COMPILE_CASES))
    def test_compiled_display_equals_the_slot_maps(self, space_name, group_name, axis):
        # each compiled slot, one component times its factor, is the slot-map
        # product map_row.matrix @ T @ map_col.matrix.T on every invariant tensor
        sp = SPACES[space_name]
        axis = None if axis is None else np.array(axis, float) / np.linalg.norm(axis)
        g = resolve_group(group_name, sp.n, axis=axis)
        map_row, map_col = STRUCTURE_MAPS[space_name]
        (rows, cols), slots, _, index, factor = _display(sp)
        assert (rows, cols) == (map_row.length, map_col.length)
        basis = _lifted(sp, image_basis(averaged_projector(sp, g)))
        want = map_row.matrix @ basis.reshape(len(basis), map_row.matrix.shape[1], -1) \
            @ map_col.matrix.T
        got = basis[:, index] * factor
        covered = np.zeros((rows, cols), int)
        for at, (r, c) in enumerate(slots):
            for a, b in {(r, c), (c, r)} if rows == cols else {(r, c)}:
                covered[a, b] += 1
                assert np.max(np.abs(got[:, at] - want[:, a, b])) \
                    <= 1e-15 * np.max(np.abs(want)), (a, b)
        assert (covered == 1).all()

    def test_unregistered_space_rejected(self):
        with pytest.raises(NoVoigtMapError):
            structure_report(SPACES["v1"], resolve_group("cubic", 3))

    def test_json_schema(self):
        rep = structure_report(SPACES["ela2"], resolve_group("d4", 2))
        payload = rep.to_json()
        assert set(payload) == {"space", "group", "dim", "shape", "entries", "constraints"}
        assert payload["dim"] == 3
        kinds = {e["kind"] for row in payload["entries"] for e in row}
        assert kinds <= {"zero", "free", "dependent"}

    @pytest.mark.parametrize("space_name,group_name", [
        ("v2bar", "so3"), ("v2bar", "cubic"), ("high2", "o2"), ("ela3", "so2-e3")])
    def test_basis_spans_averaged_projector(self, space_name, group_name):
        sp = SPACES[space_name]
        g = resolve_group(group_name, sp.n)
        rep = structure_report(sp, g)
        a = averaged_projector(sp, g)
        lifted = _lifted(sp, image_basis(a))  # the basis the report reads
        span = sum(np.outer(t, t) for t in lifted)
        dense = _dense(sp, a)
        assert np.max(np.abs(span - dense)) <= 1e-12
        # the orbit-coordinate basis spans what the dense form's own SVD finds
        # (the dense form as an operator on the plain space, whose basis is I)
        from_dense = image_basis(FlatOperator(dense))
        assert len(lifted) == len(from_dense) == rep.dim
        for stacked in (lifted, from_dense):
            assert np.max(np.abs(stacked.T @ stacked - dense)) <= 1e-12

    @pytest.mark.parametrize("space_name,tied,count,gone", [
        ("ela3", "C44", 3, ("C55", "C66")),     # the shear diagonal
        ("major3", "C45", 6, ("C67", "C89")),   # the three off-diagonal pairs
    ])
    def test_repeated_dependent_shows_first_symbol(self, space_name, tied, count, gone):
        rep = structure_report(SPACES[space_name], resolve_group("so3", 3))
        text, tex = rep.to_text(), rep.to_latex()
        for label in gone:
            assert label not in text and label not in tex
        # every tied slot plus the one constraint line
        assert text.count(tied) == count + 1
        # the JSON keeps each slot's own label and combination
        labels = {e["label"] for row in rep.to_json()["entries"] for e in row
                  if e["kind"] == "dependent"}
        assert set(gone) <= labels

    def test_tilted_axis_ties_shear_block(self):
        axis = np.ones(3) / np.sqrt(3.0)
        rep = structure_report(SPACES["ela3"], resolve_group("so2-e3", 3, axis=axis))
        shear = [row.split()[3:] for row in rep.to_text().splitlines()[4:7]]
        assert shear == [["C44", "C45", "C45"], ["C45", "C44", "C45"], ["C45", "C45", "C44"]]
        assert rep.constraints == ("C11 = C12 - C14 + C15 + 2 C44 - 2 C45",)

    @pytest.mark.parametrize("space_name,group_name,axis", TILTED_CASES,
                             ids=_case_ids(TILTED_CASES))
    def test_free_slots_ignore_the_basis_rotation(self, space_name, group_name, axis):
        # the free slots depend on the invariant subspace alone: the report,
        # which reads its slots off the projector's rows, picks the ones that
        # _free_slots picks on slot functionals in a randomly rotated
        # orthonormal basis of the subspace
        sp = SPACES[space_name]
        g = resolve_group(group_name, sp.n, axis=np.array(axis, float) / np.linalg.norm(axis))
        want = structure_report(sp, g).free_labels
        _, _, labels, index, factor = _display(sp)
        orbit = sp.orbits[index]
        basis = image_basis(averaged_projector(sp, g))
        rng = np.random.default_rng(43)
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal(size=(len(basis), len(basis))))
            vecs = (q.T @ basis).T[orbit] * (sp.basis[index, orbit] * factor)[:, None]
            sizes = np.linalg.norm(vecs, axis=1)
            scale = float(np.max(sizes, initial=0.0)) or 1.0
            candidates = np.flatnonzero(sizes > SLOT_ZERO_TOL * scale)
            vecs[sizes <= SLOT_ZERO_TOL * scale] = 0.0
            assert tuple(labels[i] for i in _free_slots(vecs, candidates, scale)) == want

    @pytest.mark.parametrize("space_name,group_name,axis", DISPLAY_CASES,
                             ids=_case_ids(DISPLAY_CASES))
    def test_free_slots_match_the_quadratic_loop(self, monkeypatch, space_name,
                                                 group_name, axis):
        sp = SPACES[space_name]
        axis = None if axis is None else np.array(axis, float) / np.linalg.norm(axis)
        g = resolve_group(group_name, sp.n, axis=axis)
        calls = []

        def both(vecs, candidates, scale):
            calls.append((_free_slots(vecs, candidates, scale),
                          _quadratic_free_slots(vecs, candidates, scale)))
            return calls[-1][0]

        monkeypatch.setattr("symtensor.projector._free_slots", both)
        structure_report(sp, g)
        assert len(calls) == 1
        assert calls[0][0] == calls[0][1]

    def test_unsnapped_coefficients_counted(self):
        axis = np.array([0.3, 0.1, 1.0]) / np.linalg.norm([0.3, 0.1, 1.0])
        rep = structure_report(SPACES["ela3"], resolve_group("so2-e3", 3, axis=axis))
        n = rep.voigt_shape[0]
        in_slots = sum(not coef.exact for r in range(n) for c in range(r, n)
                       for coef, _ in rep.entry(r, c).combo)
        in_constraints = sum(line.count("(unsnapped)") for line in rep.constraints)
        assert in_slots > 0 and in_constraints > 0
        assert rep.unsnapped == in_slots + in_constraints
        assert "unsnapped" not in rep.to_json()

    def test_latex_has_sym_shorthand(self):
        rep = structure_report(SPACES["ela3"], resolve_group("cubic", 3))
        tex = rep.to_latex()
        assert tex.startswith("\\begin{pmatrix}")
        assert "\\text{sym}" in tex

    def test_latex_of_rectangular_display_keeps_every_entry(self):
        rep = structure_report(SPACES["v1bar"], resolve_group("cubic", 3))
        tex_rows = rep.to_latex().splitlines()[1:19]
        text_rows = rep.to_text().splitlines()[1:19]
        assert "\\text{sym}" not in rep.to_latex()
        assert [r.rstrip(" \\").split(" & ") for r in tex_rows] == [r.split() for r in text_rows]


class TestDisplayDescribesInvariants:
    """Each display, read as a recipe, reproduces a projected member of the space."""

    @pytest.mark.parametrize("space_name,group_name,axis", DISPLAY_CASES,
                             ids=_case_ids(DISPLAY_CASES))
    def test_entries_follow_the_display(self, space_name, group_name, axis):
        sp = SPACES[space_name]
        axis = None if axis is None else np.array(axis, float) / np.linalg.norm(axis)
        g = resolve_group(group_name, sp.n, axis=axis)
        rep = structure_report(sp, g)
        member = symmetrize(sp, np.random.default_rng(29).normal(size=sp.n**sp.k))
        shown = induced_matrix(*STRUCTURE_MAPS[space_name], project(sp, g, member))
        tol = 1e-8 * float(np.max(np.abs(shown)))
        cells = [(r, c, e) for r, row in enumerate(rep.entries) for c, e in enumerate(row)]
        free = {e.label: shown[r, c] for r, c, e in cells if e.kind == "free"}
        assert sorted(free) == sorted(rep.free_labels)
        for r, c, e in cells:
            if e.kind == "zero":
                assert abs(shown[r, c]) <= tol, (r, c)
            elif e.kind == "dependent":
                want = sum(coef.value * free[label] for coef, label in e.combo)
                assert abs(shown[r, c] - want) <= tol, (r, c, e.combo)


class TestIsotropicModuli:
    def test_worked_example(self):
        assert extract_isotropic_moduli({"C12": 1, "C44": 3, "C45": 1}) == (1, 2, 1)

    def test_symmetric_coupling_only(self):
        _, _, mu_c = extract_isotropic_moduli({"C12": 0.3, "C44": 1.7, "C45": 1.7})
        assert mu_c == 0.0

    def test_roundtrip_random(self, rng):
        for _ in range(5):
            lam, mu, mu_c = rng.normal(size=3)
            m = isotropic_nine_matrix(lam, mu, mu_c)
            got = moduli_from_matrix(m)
            assert np.allclose(got, (lam, mu, mu_c), atol=1e-12)
            values = {"C12": m[0, 1], "C44": m[3, 3], "C45": m[3, 4]}
            assert np.allclose(extract_isotropic_moduli(values), (lam, mu, mu_c), atol=1e-12)

    @pytest.mark.parametrize("values,unknown", [
        ({"C12": 1, "C44": 3, "C54": 1, "C11": 5}, "'C54'"),
        ({"C12": 1, "C44": 3, "C45": 1, "lambda": 9}, "'lambda'"),
    ])
    def test_unknown_symbol_rejected(self, values, unknown):
        with pytest.raises(KeyError, match=f"unknown symbol {unknown}.*C11, C12, C44, C45"):
            extract_isotropic_moduli(values)

    def test_c11_supplies_missing_value(self):
        lam, mu, mu_c = extract_isotropic_moduli({"C12": 1.0, "C44": 3.0, "C11": 5.0})
        assert (lam, mu, mu_c) == (1.0, 2.0, 1.0)
        # a C11 that agrees with C12 + C44 + C45 is accepted next to C45
        values = {"C12": 1.0, "C44": 3.0, "C45": 1.0, "C11": 5.0 + 1e-12}
        assert extract_isotropic_moduli(values) == (1.0, 2.0, 1.0)

    @pytest.mark.parametrize("at", [(0, 1), (3, 3), (3, 4)])
    def test_non_finite_matrix_rejected(self, at):
        m = isotropic_nine_matrix(1.0, 2.0, 1.0)
        m[at] = np.nan
        with pytest.raises(ValueError, match="must be a finite number, got nan"):
            moduli_from_matrix(m)

    def test_projected_tensor_matches_modulus_form(self, rng):
        sp = SPACES["major3"]
        g = resolve_group("so3", 3)
        t = symmetrize(sp, rng.normal(size=81))
        inv = FlatTensor(sp.n, sp.k, _dense(sp, averaged_projector(sp, g)) @ t.coeffs)
        m = induced_matrix(NINE_SLOT, NINE_SLOT, inv)
        lam, mu, mu_c = moduli_from_matrix(m)
        assert np.max(np.abs(m - isotropic_nine_matrix(lam, mu, mu_c))) < 1e-9


class TestImageBasisOfAverage:
    def test_sym2_so2_basis_is_spherical(self):
        sp = SPACES["sym2"]
        basis = image_basis(averaged_projector(sp, resolve_group("so2", 2)))
        assert len(basis) == 1
        mat = _lifted(sp, basis)[0].reshape(2, 2)
        assert abs(mat[0, 0] - mat[1, 1]) < 1e-12 and abs(mat[0, 1]) < 1e-12

    def test_ela3_cubic_three_vectors(self):
        a = averaged_projector(SPACES["ela3"], resolve_group("cubic", 3))
        assert len(image_basis(a)) == 3

    @pytest.mark.parametrize("space_name,group_name", CATALOG_GROUPS,
                             ids=_case_ids([(s, g, None) for s, g in CATALOG_GROUPS]))
    def test_rows_in_orbit_coordinates(self, space_name, group_name):
        # r orthonormal rows of length d, which lift through B to an
        # orthonormal basis of the invariant subspace: the one the dense
        # n^k x n^k form's own SVD finds
        sp = SPACES[space_name]
        g = resolve_group(group_name, sp.n)
        a = averaged_projector(sp, g)
        rows = image_basis(a)
        dim, d = fix_dimension(sp, g), sp.basis.shape[1]
        assert isinstance(rows, np.ndarray) and rows.shape == (dim, d)
        assert np.max(np.abs(rows @ rows.T - np.eye(dim)), initial=0.0) <= 1e-12
        lifted = sp.basis @ rows.T
        dense = _dense(sp, a)
        from_dense = image_basis(FlatOperator(dense)).T  # on the plain space
        assert np.max(np.abs(lifted @ lifted.T - from_dense @ from_dense.T)) <= 1e-12
        assert np.max(np.abs(lifted @ lifted.T - dense)) <= 1e-12

    def test_order_six_basis_lifts_nothing(self):
        # the plain order-6 space has 729 orbits: the operator is 729 x 729
        # (4 MiB) and is neither copied with B nor lifted through it
        sp, g = TensorSpace("t6", 3, 6, ()), resolve_group("so3", 3)
        tracemalloc.start()
        try:
            rows = image_basis(averaged_projector(sp, g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert rows.shape == (fix_dimension(sp, g), 729)
