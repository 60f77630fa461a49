"""Group-averaging projection and symbolic structure reports.

``averaged_projector`` realizes the Haar/uniform average of the tensor
action composed with the symmetrization identity, as a dim x dim matrix in
the space's orbit basis; its image, lifted through that basis, is the
invariant subspace.  ``structure_report`` renders the general invariant
tensor in the slot map registered for the space, classifying every slot
as zero, an independent (free) component, or a rational combination of
free components, and emitting the named linear constraints the display
convention implies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import FlatOperator, FlatTensor, image_basis, kron_stack, rational_snap
from .characters import _check_ambient, fix_dimension
from .groups import SymmetryGroup, haar_rule
from .spaces import TensorSpace, membership_residual, symmetrize
from .voigt import STRUCTURE_MAPS

# structure_report: the slot zero test and the free-slot residual test,
# both relative to the largest slot value (the zero test also drops solve
# coefficients, absolutely), and the free-slot margin: a free slot's
# residual is at least this share of the largest one still unvisited
SLOT_ZERO_TOL = 1e-9
DEPENDENT_RESIDUAL_TOL = 1e-7
FREE_SLOT_RATIO = 1e-3


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
    lower half is empty for k = 1, and is the upper half for even k) are
    combined through one matrix product, which keeps the order-6 cases
    (729 x 729 over thousands of quadrature nodes) fast.
    """
    _check_ambient(space, group.ambient)
    k = space.k
    rule = haar_rule(group, k + 2)
    m = len(rule)
    a = kron_stack(rule.matrices, k // 2)
    b = a if k % 2 == 0 else kron_stack(rule.matrices, k - k // 2)
    p, q = a.shape[1], b.shape[1]
    # sum_m w_m kron(a_m, b_m) via one (p^2, m) @ (m, q^2) product
    flat = (rule.weights[:, None] * a.reshape(m, p * p)).T @ b.reshape(m, q * q)
    out = flat.reshape(p, p, q, q).transpose(0, 2, 1, 3).reshape(p * q, p * q)
    return out


def averaged_projector(space: TensorSpace, group: SymmetryGroup) -> FlatOperator:
    """Orthogonal projector onto the invariant subspace, in orbit coordinates.

    The group average M of the tensor action commutes with the
    symmetrization identity B B^T, so ``P = B^T (M B)`` (dim x dim) is an
    idempotent matrix whose trace equals the fixed-subspace dimension.  It
    is returned with its span B: as an operator on order-k tensors it is
    ``B P B^T = (M B) B^T``.
    """
    m = _averaged_action(space, group)
    b = space.basis
    return FlatOperator(space.n, space.k, b.T @ (m @ b), span=b)


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
    unsnapped: int = 0              # displayed coefficients left unsnapped; not in to_json

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


def structure_report(space: TensorSpace, group: SymmetryGroup) -> StructureReport:
    """Classify every display slot of the general invariant tensor.

    Each slot is a linear functional on the invariant subspace.  Free
    labels are chosen greedily in row-major order over the upper triangle,
    in one Gram-Schmidt pass: a slot is free when its functional leaves
    the span of the earlier free ones by more than
    ``DEPENDENT_RESIDUAL_TOL`` (max-abs residual, relative to the largest
    slot value) and by at least ``FREE_SLOT_RATIO`` times the largest such
    residual among the slots not yet visited, so that a slot clearing the
    cut by a hair, ahead of a far more independent one, cannot make the
    solve ill-conditioned.  One linear solve against the free slots then
    writes every slot as a combination of them; coefficients at or below
    ``SLOT_ZERO_TOL`` are dropped and the rest snapped for display, and a
    slot left with no term is zero.  One constraint line is emitted per
    distinct multi-term combination, solved for the earliest free symbol
    it involves (the display convention of naming the dependent slot with
    its own symbol).  ``unsnapped`` counts the displayed coefficients, in
    slot combinations and constraint terms, that matched no rational or
    surd form.

    The invariant subspace is the image of the averaged projector.  Its
    idempotency check, rank (singular values above 1/2, see
    :func:`image_basis`) and SVD run on the dim x dim orbit-coordinate
    matrix, and the rank must equal the trace-formula dimension.  A slot is zero when its functional
    is at most ``SLOT_ZERO_TOL`` relative to the largest slot value.
    """
    map_row, map_col = _structure_maps(space)
    basis = image_basis(averaged_projector(space, group))
    dim = fix_dimension(space, group)
    if len(basis) != dim:
        raise InternalConsistencyError(
            f"projector rank {len(basis)} disagrees with trace formula {dim} "
            f"for ({space.name}, {group.catalog_id})"
        )

    rows, cols = map_row.length, map_col.length
    # feature[r, c] = functional of the slot on the invariant subspace (empty if dim 0)
    stacked = np.array([t.coeffs for t in basis]).reshape(
        dim, map_row.matrix.shape[1], map_col.matrix.shape[1])
    feature = (map_row.matrix @ stacked @ map_col.matrix.T).transpose(1, 2, 0)
    scale = float(np.max(np.abs(feature), initial=0.0)) or 1.0
    wide = max(rows, cols) > 9

    symmetric_display = rows == cols
    slots = [(r, c) for r in range(rows) for c in range(r if symmetric_display else 0, cols)]
    vecs = feature[tuple(np.array(slots).T)]
    nonzero = np.max(np.abs(vecs), axis=1, initial=0.0) > SLOT_ZERO_TOL * scale
    vecs[~nonzero] = 0.0  # so a zero slot solves to no terms

    # free slots: the first to leave the span of the earlier ones (max-abs
    # residual), by a margin against the slots still to come
    directions = np.zeros((0, dim))
    free: list[int] = []
    candidates = np.flatnonzero(nonzero)
    for at, i in enumerate(candidates):
        resid = vecs[i] - (directions @ vecs[i]) @ directions
        size = np.max(np.abs(resid))
        if size <= DEPENDENT_RESIDUAL_TOL * scale:
            continue
        rest = vecs[candidates[at:]]
        if size < FREE_SLOT_RATIO * np.max(np.abs(rest - (rest @ directions.T) @ directions)):
            continue
        resid -= (directions @ resid) @ directions
        directions = np.vstack([directions, resid / np.linalg.norm(resid)])
        free.append(i)
    if len(free) != dim:
        raise InternalConsistencyError(
            f"greedy labeling found {len(free)} free slots but the "
            f"subspace dimension is {dim}"
        )

    combos = np.linalg.solve(vecs[free].T, vecs.T).T  # slot = combos[slot] @ free slots
    combos[np.abs(combos) <= SLOT_ZERO_TOL] = 0.0
    residual = np.max(np.abs(combos @ vecs[free] - vecs), axis=1, initial=0.0)
    bad = np.flatnonzero(residual > DEPENDENT_RESIDUAL_TOL * scale)
    if bad.size:
        r, c = slots[bad[0]]
        raise InternalConsistencyError(
            f"dependent slot ({r + 1},{c + 1}) of ({space.name}, "
            f"{group.catalog_id}) has extraction residual {residual[bad[0]]:.3e}"
        )

    free_labels = [_slot_label(*slots[i], wide) for i in free]
    entries: list[list] = [[None] * cols for _ in range(rows)]
    dependents: list[tuple] = []
    unsnapped = 0
    for i, (r, c) in enumerate(slots):
        label = _slot_label(r, c, wide)
        if i in free:
            entry = StructureEntry("free", label=label)
        elif combos[i].any():
            combo = tuple((rational_snap(float(combos[i, m])), free_labels[m])
                          for m in np.flatnonzero(combos[i]))
            entry = StructureEntry("dependent", label=label, combo=combo)
            unsnapped += sum(not coef.exact for coef, _ in combo)
            if len(combo) >= 2:
                dependents.append((label, combo))
        else:
            entry = StructureEntry("zero")
        entries[r][c] = entry
        if symmetric_display:
            entries[c][r] = entry

    constraints, unsnapped_terms = _emit_constraints(dependents, free_labels)
    return StructureReport(
        space=space.name,
        group=group.catalog_id,
        dim=dim,
        voigt_shape=(rows, cols),
        entries=tuple(tuple(row) for row in entries),
        basis=tuple(basis),
        constraints=tuple(constraints),
        free_labels=tuple(free_labels),
        unsnapped=unsnapped + unsnapped_terms,
    )


def _label_sort_key(label: str):
    digits = label[1:].replace("_", " ").split()
    if len(digits) == 1:
        return (int(digits[0][0]), int(digits[0][1:]) if len(digits[0]) > 1 else 0)
    return tuple(int(d) for d in digits)


def _combo_key(combo) -> tuple:
    """Identity of a combination of free symbols, up to display rounding."""
    return tuple((round(float(c), 9), lbl) for c, lbl in combo)


def _emit_constraints(dependents, free_labels) -> tuple:
    """Solve each multi-term dependency for its earliest free symbol.

    A slot s with value sum_i alpha_i F_i is rewritten as
    F_0 = (1/alpha_0) s - sum_{i>0} (alpha_i/alpha_0) F_i and printed with
    the right-hand terms in display order.  Duplicate combinations (the
    same relation showing up at several slots) are emitted once.  Returns
    the lines and the number of their coefficients left unsnapped.
    """
    order = {lbl: pos for pos, lbl in enumerate(free_labels)}
    seen = set()
    out = []
    unsnapped = 0
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
        unsnapped += sum(not coef.exact for coef, _ in rhs)
        parts = []
        for coef, lbl in rhs:
            term = lbl if (coef.exact and abs(coef.numerator) == coef.denominator
                           and coef.surd == 1) else f"{coef.text.lstrip('-')} {lbl}"
            if not parts:
                parts.append(term if float(coef) > 0 else f"-{term}")
            else:
                parts.append(("+ " if float(coef) > 0 else "- ") + term)
        out.append(f"{lead_label} = " + " ".join(parts))
    return out, unsnapped


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


def extract_isotropic_moduli(values: dict) -> tuple:
    """(lambda, mu, mu_c) from values of the isotropic 45-constant display.

    The labels are those of the major3 x so3 display (``structure --space
    major3 --group so3``), which shows C11, C12, C44 and C45 tied by
    C11 = C12 + C44 + C45.  ``values`` maps labels to finite real numbers
    (not booleans) and must determine C12, C44 and one of C45 / C11 (the
    constraint supplies the missing one).  Given both, they must satisfy
    it within 1e-9 relative to max(1, |C12| + |C44| + |C45|).
    """
    def value(label: str) -> float:
        if label not in values:
            raise KeyError(f"missing required symbol {label!r} in value assignment")
        v = values[label]
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise ValueError(f"{label} must be a finite number, got {v!r} ({type(v).__name__})")
        return float(v)

    lam, c44 = value("C12"), value("C44")
    if "C45" in values:
        c45 = value("C45")
        if "C11" in values:
            c11, expected = value("C11"), lam + c44 + c45
            bound = max(1e-9, sum(1e-9 * abs(v) for v in (lam, c44, c45)))  # cannot overflow
            if not math.isfinite(expected) or abs(c11 - expected) > bound:
                raise ValueError(f"C11 = {c11!r} contradicts the constraint "
                                 f"C11 = C12 + C44 + C45 = {expected!r}")
    elif "C11" in values:
        c45 = value("C11") - lam - c44
    else:
        raise KeyError("assignment must provide C45 or C11")
    mu = (c44 + c45) / 2.0
    mu_c = (c44 - c45) / 2.0
    if not all(map(math.isfinite, (c45, mu, mu_c))):
        raise ValueError("the moduli overflow the double range")
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
