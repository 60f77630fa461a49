"""Group-averaging projection and symbolic structure reports.

``averaged_projector`` realizes the Haar/uniform average of the tensor
action composed with the symmetrization identity; its image is the
invariant subspace.  ``structure_report`` renders the general invariant
tensor in the slot map registered for the space, classifying every slot
as zero, an independent (free) component, or a rational combination of
free components, and emitting the named linear constraints the display
convention implies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOL, FlatOperator, FlatTensor, TolerancePolicy,
                   image_basis, rational_snap)
from .characters import _check_ambient, fix_dimension
from .groups import SymmetryGroup, haar_rule
from .spaces import TensorSpace, membership_residual, symmetrize
from .voigt import STRUCTURE_MAPS

DEPENDENT_RESIDUAL_TOL = 1e-7


class MembershipError(ValueError):
    """Input tensor does not lie in the claimed space."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"tensor outside the space: symmetry residual {residual:.3e}")


class InternalConsistencyError(RuntimeError):
    """Rank of the averaged projector disagrees with the trace formula."""


class NoVoigtMapError(KeyError):
    """No slot map is registered for rendering this space."""


def _averaged_action(space: TensorSpace, group: SymmetryGroup) -> np.ndarray:
    """Weighted sum of k-fold Kronecker powers over the group's Haar rule
    of degree k + 2, which integrates the degree-k action exactly.

    Built stage-wise: per-node Kronecker factors of half the order (the
    lower half is empty for k = 1) are combined through one matrix
    product, which keeps the order-6 cases (729 x 729 over thousands of
    quadrature nodes) fast.
    """
    _check_ambient(space, group.ambient)
    k = space.k
    rule = haar_rule(group, k + 2)
    m = len(rule)
    # stacks[j]: the per-node Kronecker powers of order j, up to k - k // 2
    stacks = [np.ones((m, 1, 1))]
    for _ in range(k - k // 2):
        size = stacks[-1].shape[1] * space.n
        stacks.append(np.einsum("mij,mab->miajb", stacks[-1], rule.matrices).reshape(m, size, size))
    a, b = stacks[k // 2], stacks[-1]
    p, q = a.shape[1], b.shape[1]
    # sum_m w_m kron(a_m, b_m) via one (p^2, m) @ (m, q^2) product
    flat = (rule.weights[:, None] * a.reshape(m, p * p)).T @ b.reshape(m, q * q)
    out = flat.reshape(p, p, q, q).transpose(0, 2, 1, 3).reshape(p * q, p * q)
    return out


def averaged_projector(space: TensorSpace, group: SymmetryGroup) -> FlatOperator:
    """Orthogonal projector onto the invariant subspace of the space.

    The group average M of the tensor action commutes with the
    symmetrization identity B B^T, so ``(M B) B^T`` is an idempotent
    operator whose trace equals the fixed-subspace dimension.
    """
    m = _averaged_action(space, group)
    return FlatOperator(space.n, space.k, (m @ space.basis) @ space.basis.T)


def project(space: TensorSpace, group: SymmetryGroup, t: FlatTensor) -> FlatTensor:
    """Group average ``M (B (B^T t))`` of a tensor already lying in the space."""
    res = membership_residual(space, t)
    scale = max(1.0, t.norm_inf())
    if res >= 1e-9 * scale:
        raise MembershipError(res)
    action = _averaged_action(space, group)
    return FlatTensor(space.n, space.k, action @ symmetrize(space, t).coeffs)


@dataclass(frozen=True)
class StructureEntry:
    """Classification of one display slot.

    ``kind`` is ``"zero"``, ``"free"`` or ``"dependent"``.  Free entries
    carry their ``label``; dependent entries carry a combo of
    (snapped coefficient, free label) pairs.
    """

    kind: str
    label: str = ""
    combo: tuple = ()

    def render(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "free":
            return self.label
        if len(self.combo) == 1:
            coef, label = self.combo[0]
            if coef.exact and abs(coef.numerator) == coef.denominator and coef.surd == 1:
                return label if coef.numerator > 0 else f"-{label}"
            return f"({coef.text}){label}"
        return self.label  # StructureReport._cells ties repeated combinations

    def to_json(self) -> dict:
        if self.kind == "dependent":
            return {
                "kind": "dependent",
                "label": self.label,
                "combo": [{"coef": c.text, "value": c.value, "label": lbl}
                          for c, lbl in self.combo],
            }
        if self.kind == "free":
            return {"kind": "free", "label": self.label}
        return {"kind": "zero"}


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Symbolic structure of the invariant tensors of one (space, group) pair."""

    space: str
    group: str
    dim: int
    voigt_shape: tuple
    entries: tuple                  # matrix of StructureEntry
    basis: tuple                    # orthonormal FlatTensor basis of the subspace
    constraints: tuple              # textual relations among displayed symbols
    free_labels: tuple

    def entry(self, row: int, col: int) -> StructureEntry:
        return self.entries[row][col]

    def to_json(self) -> dict:
        return {
            "space": self.space,
            "group": self.group,
            "dim": self.dim,
            "shape": list(self.voigt_shape),
            "entries": [[e.to_json() for e in row] for row in self.entries],
            "constraints": list(self.constraints),
        }

    def _cells(self) -> list:
        """Rendered entries; a repeated combination shows its first slot's symbol."""
        first: dict = {}
        return [[first.setdefault(_combo_key(e.combo), e.label)
                 if e.kind == "dependent" and len(e.combo) > 1 else e.render()
                 for e in row] for row in self.entries]

    def to_text(self) -> str:
        cells = self._cells()
        width = max(len(s) for row in cells for s in row)
        lines = ["  ".join(s.rjust(width) for s in row) for row in cells]
        out = [f"space {self.space}  group {self.group}  dim {self.dim}", *lines]
        for c in self.constraints:
            out.append(f"with {c}")
        return "\n".join(out)

    def to_latex(self) -> str:
        rows, cols = self.voigt_shape
        cells = self._cells()
        if rows == cols > 1:  # a symmetric display shows its upper triangle only
            for r in range(1, rows):
                cells[r][:r] = [""] * r
            cells[-1][0] = r"\text{sym}"
        body = " \\\\\n".join(" & ".join(row) for row in cells)
        body = body.replace("\u221a2", r"\sqrt{2}").replace("\u221a3", r"\sqrt{3}")
        mat = "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"
        if self.constraints:
            mat += "\n% with " + "; ".join(self.constraints)
        return mat


def _slot_label(row: int, col: int, wide: bool) -> str:
    if wide:
        return f"C{row + 1}_{col + 1}"
    return f"C{row + 1}{col + 1}"


def _structure_maps(space: TensorSpace) -> tuple:
    """The slot maps registered under the space's name, checked against the space.

    Each displayed entry must read its tensor components from one orbit of
    the space's permutation group; a square display also mirrors its upper
    triangle, so entries (r, c) and (c, r) must share that orbit.
    """
    if space.name not in STRUCTURE_MAPS:
        raise NoVoigtMapError(
            f"no slot map registered for space {space.name!r}; "
            f"renderable spaces: {', '.join(sorted(STRUCTURE_MAPS))}"
        )
    rows, cols = STRUCTURE_MAPS[space.name]
    misfit = f"slot maps {rows.name} x {cols.name} do not fit space {space.name!r}"
    if (rows.n, cols.n, rows.order + cols.order) != (space.n, space.n, space.k):
        raise NoVoigtMapError(f"{misfit}: wrong ambient dimension or order")
    orbits = space.orbits.reshape((space.n,) * space.k)
    for r in range(rows.length):
        for c in range(cols.length):
            cells = {(r, c), (c, r)} if rows.length == cols.length else {(r, c)}
            comps = {orbits[ri + ci] for a, b in cells
                     for ri in rows.slots[a].pattern for ci in cols.slots[b].pattern}
            if len(comps) > 1:
                raise NoVoigtMapError(f"{misfit}: entry ({r + 1},{c + 1}) reads "
                                      "components from more than one orbit")
    return rows, cols


def structure_report(space: TensorSpace, group: SymmetryGroup,
                     tol: TolerancePolicy = DEFAULT_TOL) -> StructureReport:
    """Classify every display slot of the general invariant tensor.

    Free labels are chosen greedily in row-major order over the upper
    triangle: the first slot introducing a new independent direction of
    the invariant subspace becomes free; later slots are zero or rational
    combinations of earlier free slots.  One constraint line is emitted
    per distinct multi-term combination, solved for the earliest free
    symbol it involves (the display convention of naming the dependent
    slot with its own symbol).
    """
    map_row, map_col = _structure_maps(space)
    a = averaged_projector(space, group)
    basis = image_basis(a, tol, space.basis)
    dim = fix_dimension(space, group)
    if len(basis) != dim:
        raise InternalConsistencyError(
            f"projector rank {len(basis)} disagrees with trace formula {dim} "
            f"for ({space.name}, {group.catalog_id})"
        )

    rows, cols = map_row.length, map_col.length
    # feature[r, c] = functional of the slot on the invariant subspace (0 if dim 0)
    coeffs = np.array([t.coeffs for t in basis] or [np.zeros(space.n**space.k)])
    stacked = coeffs.reshape(len(coeffs), map_row.matrix.shape[1], map_col.matrix.shape[1])
    feature = (map_row.matrix @ stacked @ map_col.matrix.T).transpose(1, 2, 0)
    scale = float(np.max(np.abs(feature))) or 1.0
    wide = max(rows, cols) > 9

    entries: list[list] = [[None] * cols for _ in range(rows)]
    free_vectors: list[np.ndarray] = []
    free_labels: list[str] = []
    dependents: list[tuple] = []

    symmetric_display = rows == cols
    for r in range(rows):
        for c in range(r if symmetric_display else 0, cols):
            vec = feature[r, c]
            label = _slot_label(r, c, wide)
            if np.max(np.abs(vec)) <= tol.zero_tol * scale:
                entries[r][c] = StructureEntry("zero")
                continue
            if free_vectors:
                fmat = np.column_stack(free_vectors)
                coefs, *_ = np.linalg.lstsq(fmat, vec, rcond=None)
                residual = float(np.max(np.abs(fmat @ coefs - vec)))
            else:
                coefs, residual = np.zeros(0), float(np.max(np.abs(vec)))
            if residual > DEPENDENT_RESIDUAL_TOL * scale:
                entries[r][c] = StructureEntry("free", label=label)
                free_vectors.append(vec)
                free_labels.append(label)
                continue
            combo = []
            kept = np.zeros_like(coefs)
            for m, coef in enumerate(coefs):
                if abs(coef) <= 10 * tol.zero_tol:
                    continue
                kept[m] = coef
                combo.append((rational_snap(float(coef)), free_labels[m]))
            resid_after = float(np.max(np.abs(np.column_stack(free_vectors) @ kept - vec)))
            if resid_after > DEPENDENT_RESIDUAL_TOL * scale:
                raise InternalConsistencyError(
                    f"dependent slot ({r + 1},{c + 1}) of ({space.name}, "
                    f"{group.catalog_id}) has extraction residual {resid_after:.3e}"
                )
            if not combo:
                entries[r][c] = StructureEntry("zero")
                continue
            entries[r][c] = StructureEntry("dependent", label=label, combo=tuple(combo))
            if len(combo) >= 2:
                dependents.append((label, combo))

    if symmetric_display:
        for r in range(rows):
            for c in range(r):
                entries[r][c] = entries[c][r]

    if len(free_labels) != dim:
        raise InternalConsistencyError(
            f"greedy labeling found {len(free_labels)} free slots but the "
            f"subspace dimension is {dim}"
        )

    constraints = _emit_constraints(dependents, free_labels)
    return StructureReport(
        space=space.name,
        group=group.catalog_id,
        dim=dim,
        voigt_shape=(rows, cols),
        entries=tuple(tuple(row) for row in entries),
        basis=tuple(basis),
        constraints=tuple(constraints),
        free_labels=tuple(free_labels),
    )


def _label_sort_key(label: str):
    digits = label[1:].replace("_", " ").split()
    if len(digits) == 1:
        return (int(digits[0][0]), int(digits[0][1:]) if len(digits[0]) > 1 else 0)
    return tuple(int(d) for d in digits)


def _combo_key(combo) -> tuple:
    """Identity of a combination of free symbols, up to display rounding."""
    return tuple((round(float(c), 9), lbl) for c, lbl in combo)


def _emit_constraints(dependents, free_labels) -> list[str]:
    """Solve each multi-term dependency for its earliest free symbol.

    A slot s with value sum_i alpha_i F_i is rewritten as
    F_0 = (1/alpha_0) s - sum_{i>0} (alpha_i/alpha_0) F_i and printed with
    the right-hand terms in display order.  Duplicate combinations (the
    same relation showing up at several slots) are emitted once.
    """
    order = {lbl: pos for pos, lbl in enumerate(free_labels)}
    seen = set()
    out = []
    for slot_label, combo in dependents:
        signature = _combo_key(combo)
        if signature in seen:
            continue
        seen.add(signature)
        lead_coef, lead_label = min(combo, key=lambda item: order[item[1]])
        rhs = [(rational_snap(1.0 / float(lead_coef)), slot_label)]
        for coef, lbl in combo:
            if lbl == lead_label:
                continue
            rhs.append((rational_snap(-float(coef) / float(lead_coef)), lbl))
        rhs.sort(key=lambda item: _label_sort_key(item[1]))
        parts = []
        for coef, lbl in rhs:
            term = lbl if (coef.exact and abs(coef.numerator) == coef.denominator
                           and coef.surd == 1) else f"{coef.text.lstrip('-')} {lbl}"
            if not parts:
                parts.append(term if float(coef) > 0 else f"-{term}")
            else:
                parts.append(("+ " if float(coef) > 0 else "- ") + term)
        out.append(f"{lead_label} = " + " ".join(parts))
    return out


# ---------------------------------------------------------------------------
# Isotropic moduli of the 45-constant theory

def isotropic_nine_matrix(lam: float, mu: float, mu_c: float) -> np.ndarray:
    """9x9 slot matrix of the isotropic non-symmetric constitutive law.

    Diagonal 3x3 block: 2*mu + lam on the diagonal, lam off it; three
    2x2 blocks [[mu + mu_c, mu - mu_c], [mu - mu_c, mu + mu_c]] coupling
    the transposed off-diagonal slot pairs.
    """
    m = np.zeros((9, 9))
    m[:3, :3] = lam
    m[np.arange(3), np.arange(3)] = 2 * mu + lam
    for start in (3, 5, 7):
        m[start:start + 2, start:start + 2] = np.array(
            [[mu + mu_c, mu - mu_c], [mu - mu_c, mu + mu_c]]
        )
    return m


def extract_isotropic_moduli(report: StructureReport, values: dict) -> tuple:
    """(lambda, mu, mu_c) from a free-label assignment of the isotropic report.

    ``values`` maps displayed symbols to numbers and must determine C12,
    C44 and one of C45 / C11 (the constraint C11 = C12 + C44 + C45 supplies
    the missing one).
    """
    if report.space != "major3" or report.dim != 3:
        raise ValueError(
            f"expected the isotropic 45-constant report, got space {report.space!r} "
            f"with dim {report.dim}"
        )
    try:
        lam = float(values["C12"])
        c44 = float(values["C44"])
    except KeyError as exc:
        raise KeyError(f"missing required symbol {exc} in value assignment") from exc
    if "C45" in values:
        c45 = float(values["C45"])
    elif "C11" in values:
        c45 = float(values["C11"]) - lam - c44
    else:
        raise KeyError("assignment must provide C45 or C11")
    mu = (c44 + c45) / 2.0
    mu_c = (c44 - c45) / 2.0
    return lam, mu, mu_c


def moduli_from_matrix(m: np.ndarray) -> tuple:
    """(lambda, mu, mu_c) read off a 9x9 isotropic slot matrix."""
    m = np.asarray(m, dtype=float)
    if m.shape != (9, 9):
        raise ValueError("expected a 9x9 slot matrix")
    lam = float(m[0, 1])
    mu = float((m[3, 3] + m[3, 4]) / 2.0)
    mu_c = float((m[3, 3] - m[3, 4]) / 2.0)
    return lam, mu, mu_c
