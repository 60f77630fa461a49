"""Group-averaging projection and symbolic structure reports.

``averaged_projector`` realizes the Haar/uniform average of the tensor
action composed with the symmetrization identity, as a dim x dim matrix in
the space's orbit basis; its image, kept in those orbit coordinates, is
the invariant subspace.  Every Haar rule here has the degree k of the order-k
integrand, which it integrates exactly; the SO(3) rule stops at degree 12,
so so3 takes orders k <= 12.  Under so3 both average over the rule's three
Euler factors in turn (``groups.so3_factors``), 18 nodes at k = 6 in place
of the flat rule's 196.  The n^k x n^k average M itself
(``_averaged_action``, over the flat rule) is built only for verification:
the projector reads the d rows of M at the orbit representatives with one
batched product per distinct rule, and ``project`` applies the rules to
one vector.
``structure_report`` renders the general invariant tensor in the slot map
registered for the space, classifying every slot as zero, an independent
(free) component, or a rational combination of free components, and
emitting the named linear constraints the display convention implies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import extract_isotropic_moduli  # re-exported; it needs no numpy
from .core import FlatOperator, FlatTensor, act, image_basis, kron_halves, rational_snap
from .characters import _check_ambient, fix_dimension
from .groups import QuadratureRule, SymmetryGroup, haar_rule, so3_factors
from .spaces import TensorSpace, symmetrize
from .voigt import STRUCTURE_MAPS

# structure_report: the slot zero test and the free-slot residual test,
# both relative to the 2-norm of the largest slot (the zero test also drops
# solve coefficients, absolutely), and the free-slot margin: a free slot's
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
    """Weighted sum of k-fold Kronecker powers over the group's flat Haar
    rule of degree k, which integrates the degree-k action exactly.

    Built stage-wise: per-node Kronecker factors of half the order
    (:func:`core.kron_halves`) are combined through one matrix product,
    which keeps the order-6 cases (729 x 729 over up to 196 so3 nodes)
    fast.  This n^k x n^k matrix M is built only for verification: for the
    dense checks of the verification table, and for tests.  It keeps the
    flat rule, so it checks the factored so3 average of
    ``averaged_projector`` and ``project`` by an independent route; those
    two never form it.
    """
    _check_ambient(space, group.ambient)
    k = space.k
    rule = haar_rule(group, k)
    m = len(rule)
    a, b = kron_halves(rule.matrices, k)
    p, q = a.shape[1], b.shape[1]
    # sum_m w_m kron(a_m, b_m) via one (p^2, m) @ (m, q^2) product
    flat = (rule.weights[:, None] * a.reshape(m, p * p)).T @ b.reshape(m, q * q)
    out = flat.reshape(p, p, q, q).transpose(0, 2, 1, 3).reshape(p * q, p * q)
    return out


def _haar_stages(group: SymmetryGroup, k: int) -> tuple:
    """Haar rules of degree k whose means, multiplied in order, are the
    group's mean of Q^{(x)k}: the three Euler factors of so3
    (``groups.so3_factors``), and the one ``haar_rule`` of any other group."""
    if not group.is_finite and group.catalog_id == "so3":
        return so3_factors(k)
    return (haar_rule(group, k),)


def _orbit_mean(space: TensorSpace, rule: QuadratureRule, reps: np.ndarray,
                sizes: np.ndarray) -> np.ndarray:
    """``B^T M B`` (d x d) for the mean M of Q^{(x)k} over one rule, read
    from the d rows of M at the orbit representatives ``reps`` (orbit
    sizes ``sizes``); see :func:`averaged_projector`.

    With the multi-index split in halves as in :func:`core.act`, row
    h q + l of M is sum_m w_m A_m[h, :] (x) B_m[l, :], so the d rows are
    one batched product, per representative a (p, m) @ (m, q) product.
    """
    a, b = kron_halves(rule.matrices, space.k)
    heads, tails = np.divmod(reps, b.shape[1])
    rows = np.matmul((rule.weights[:, None, None] * a).transpose(1, 2, 0)[heads],
                     b.transpose(1, 0, 2)[tails]).reshape(len(reps), -1)
    out = rows @ space.basis
    out *= np.sqrt(sizes)[:, None]
    return out


def averaged_projector(space: TensorSpace, group: SymmetryGroup) -> FlatOperator:
    """Orthogonal projector onto the invariant subspace, in orbit coordinates.

    The group average M of the tensor action commutes with the
    symmetrization identity B B^T, so ``P = B^T (M B)`` (dim x dim) is an
    idempotent matrix whose trace equals the fixed-subspace dimension.  It
    is returned in orbit coordinates alone: as an operator on order-k
    tensors it is ``B P B^T = (M B) B^T``, which no library path forms.

    M commutes with the space's index permutations too, so each column of
    M B is constant on every orbit O, and P = diag(sqrt|O|) M[reps, :] B
    reads only the d rows of M at the orbit representatives (each orbit's
    least flat index), as one batched product over the Haar rule of
    degree k (:func:`_orbit_mean`).  Besides the rule's half-order
    Kronecker stacks and their m d p and m d q entries at the
    representatives, no temporary exceeds d x n^k: the n^k x n^k matrix of
    ``_averaged_action`` is never formed.

    Under so3 the mean is M = M_1 M_2 M_3 over the rule's three Euler
    factors, each of which commutes with the index permutations as M
    does, so P = P_1 P_2 P_3 with each P_i read as above from its factor's
    nodes: 2 (k + 1) + k // 2 + 1 of them, not (k + 1)^2 (k // 2 + 1).
    The first and last factor are one rule, whose mean is formed once.
    Any other group has the one stage of its ``haar_rule``.
    """
    _check_ambient(space, group.ambient)
    _, reps, sizes = np.unique(space.orbits, return_index=True, return_counts=True)
    stages = _haar_stages(group, space.k)
    first = out = _orbit_mean(space, stages[0], reps, sizes)
    for rule in stages[1:]:  # at most three d x d arrays are alive at once
        out = out @ (first if rule is stages[0] else _orbit_mean(space, rule, reps, sizes))
    return FlatOperator(out)


def project(space: TensorSpace, group: SymmetryGroup, t: FlatTensor) -> FlatTensor:
    """Group average ``M (B (B^T t))`` of a tensor already lying in the space.

    The Haar rule of degree k is applied to the one vector ``B B^T t``:
    ``sum_m w_m Q_m^{(x)k} (B B^T t)``, through ``core.act``, so the n^k x
    n^k average M of ``_averaged_action`` is never formed, and
    ``symmetrize`` takes orbit means, so neither is B.  Under so3, M is
    the product of the means over the rule's three Euler factors, and they
    are applied in turn, the last factor first.  A tensor whose average
    leaves the double range raises ``ValueError``.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            inside = symmetrize(space, t).coeffs
            res = float(np.max(np.abs(inside - t.coeffs)))  # membership_residual(space, t)
            if res >= 1e-9 * max(1.0, t.norm_inf()):
                raise MembershipError(res)
            _check_ambient(space, group.ambient)
            out = inside
            for rule in reversed(_haar_stages(group, space.k)):
                out = rule.weights @ act(rule.matrices, space.k, out)
            return FlatTensor(space.n, space.k, out)
    except FloatingPointError:
        raise ValueError("the group average overflows the double range") from None


@dataclass(frozen=True)
class StructureEntry:
    """Classification of one display slot.

    ``kind`` is ``"zero"``, ``"free"`` or ``"dependent"``.  Free entries
    carry their ``label``; dependent entries carry a combo of
    (snapped coefficient, free label) pairs, and a multi-term one the
    ``symbol`` it shows: the label of the first slot with that combo.
    """

    kind: str
    label: str = ""
    combo: tuple = ()
    symbol: str = ""

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
        return self.symbol

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

    def to_text(self) -> str:
        cells = [[e.render() for e in row] for row in self.entries]
        width = max(len(s) for row in cells for s in row)
        lines = ["  ".join(s.rjust(width) for s in row) for row in cells]
        out = [f"space {self.space}  group {self.group}  dim {self.dim}", *lines]
        for c in self.constraints:
            out.append(f"with {c}")
        return "\n".join(out)

    def to_latex(self) -> str:
        rows, cols = self.voigt_shape
        cells = [[e.render() for e in row] for row in self.entries]
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


def _display(space: TensorSpace) -> tuple:
    """Compile the slot maps registered under the space's name into its display.

    Each displayed entry must read its tensor components from one orbit of
    the space's permutation group; a square display also mirrors its upper
    triangle, so entries (r, c) and (c, r) must share that orbit.  An entry
    is then its factor, the sum of its row slot's inverse scales times its
    column slot's, times any one component it reads: a slot's components
    and inverse scales are the nonzeros of its row of ``VoigtMap.matrix``.
    Returns the shape and, per displayed slot (row-major, the upper
    triangle of a square display), its (row, col), label, flat component
    index and factor.
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
    orbits = space.orbits.reshape(rows.matrix.shape[1], -1)  # row-map by column-map index
    square, wide = rows.length == cols.length, max(rows.length, cols.length) > 9
    row_reads, col_reads = ([np.flatnonzero(s).tolist() for s in m.matrix] for m in (rows, cols))
    row_sum, col_sum = (m.matrix.sum(axis=1) for m in (rows, cols))
    slots, labels, index, factor = [], [], [], []
    for r in range(rows.length):
        for c in range(r if square else 0, cols.length):
            cells = {(r, c), (c, r)} if square else {(r, c)}
            comps = {orbits[ri, ci] for a, b in cells
                     for ri in row_reads[a] for ci in col_reads[b]}
            if len(comps) > 1:
                raise NoVoigtMapError(f"{misfit}: entry ({r + 1},{c + 1}) reads "
                                      "components from more than one orbit")
            slots.append((r, c))
            labels.append(f"C{r + 1}_{c + 1}" if wide else f"C{r + 1}{c + 1}")
            index.append((row_reads[r][0], col_reads[c][0]))
            factor.append(row_sum[r] * col_sum[c])
    index = np.ravel_multi_index(np.array(index).T, orbits.shape)
    return (rows.length, cols.length), slots, labels, index, np.array(factor)


def structure_report(space: TensorSpace, group: SymmetryGroup) -> StructureReport:
    """Classify every display slot of the general invariant tensor.

    Each slot is a linear functional on the invariant subspace.  Every
    size below is the 2-norm of a functional in the orthonormal basis, so
    the display depends on the invariant subspace alone, not on which
    basis of it the SVD returns.  Free labels are chosen greedily in
    row-major order over the upper triangle, in one Gram-Schmidt pass: a
    slot is free when its functional leaves the span of the earlier free
    ones by more than ``DEPENDENT_RESIDUAL_TOL`` (relative to the largest
    slot) and by at least ``FREE_SLOT_RATIO`` times the largest such
    residual among the slots not yet visited, so that a slot clearing the
    cut by a hair, ahead of a far more independent one, cannot make the
    solve ill-conditioned.  One linear solve against the free slots then
    writes every slot as a combination of them; coefficients at or below
    ``SLOT_ZERO_TOL`` are dropped and the rest snapped for display, and a
    slot left with no term is zero.  The display's tie convention is
    decided here, at the first slot of each distinct multi-term
    combination: every slot with that combination shows the first slot's
    symbol, and the combination gets one constraint line, solved for the
    earliest free symbol it involves.  ``unsnapped`` counts the displayed
    coefficients, in slot combinations and constraint terms, that matched
    no rational or surd form.

    The invariant subspace is the image of the averaged projector.  Its
    idempotency check, rank (singular values above 1/2, see
    :func:`image_basis`) and SVD run on the dim x dim orbit-coordinate
    matrix, and the rank must equal the trace-formula dimension.  The
    basis stays in those coordinates: each slot reads its component's
    orbit.  A slot is zero when its functional is at most
    ``SLOT_ZERO_TOL`` relative to the largest slot.
    """
    (rows, cols), slots, labels, index, factor = _display(space)
    basis = image_basis(averaged_projector(space, group))
    dim = fix_dimension(space, group)
    if len(basis) != dim:
        raise InternalConsistencyError(
            f"projector rank {len(basis)} disagrees with trace formula {dim} "
            f"for ({space.name}, {group.catalog_id})"
        )

    # each slot's functional on the invariant subspace (no columns if dim 0):
    # its component lies in one orbit o, where B has the one entry B[index, o]
    orbit = space.orbits[index]
    vecs = basis.T[orbit] * space.basis[index, orbit][:, None] * factor[:, None]
    scale = float(np.max(np.linalg.norm(vecs, axis=1), initial=0.0)) or 1.0
    nonzero = np.linalg.norm(vecs, axis=1) > SLOT_ZERO_TOL * scale
    vecs[~nonzero] = 0.0  # so a zero slot solves to no terms

    free = _free_slots(vecs, np.flatnonzero(nonzero), scale)
    if len(free) != dim:
        raise InternalConsistencyError(
            f"greedy labeling found {len(free)} free slots but the "
            f"subspace dimension is {dim}"
        )

    combos = np.linalg.solve(vecs[free].T, vecs.T).T  # slot = combos[slot] @ free slots
    combos[np.abs(combos) <= SLOT_ZERO_TOL] = 0.0
    residual = np.linalg.norm(combos @ vecs[free] - vecs, axis=1)
    bad = np.flatnonzero(residual > DEPENDENT_RESIDUAL_TOL * scale)
    if bad.size:
        r, c = slots[bad[0]]
        raise InternalConsistencyError(
            f"dependent slot ({r + 1},{c + 1}) of ({space.name}, "
            f"{group.catalog_id}) has extraction residual {residual[bad[0]]:.3e}"
        )

    free_labels = [labels[i] for i in free]
    entries: list[list] = [[None] * cols for _ in range(rows)]
    ties: dict = {}  # each multi-term combination -> (slot, label, combo) of its first slot
    unsnapped = 0
    for i, ((r, c), label) in enumerate(zip(slots, labels)):
        if i in free:
            entry = StructureEntry("free", label=label)
        elif combos[i].any():
            combo = tuple((rational_snap(float(combos[i, m])), free_labels[m])
                          for m in np.flatnonzero(combos[i]))
            symbol = (ties.setdefault(_combo_key(combo), (i, label, combo))[1]
                      if len(combo) > 1 else "")
            entry = StructureEntry("dependent", label=label, combo=combo, symbol=symbol)
            unsnapped += sum(not coef.exact for coef, _ in combo)
        else:
            entry = StructureEntry("zero")
        entries[r][c] = entry
        if rows == cols:
            entries[c][r] = entry

    constraints, unsnapped_terms = _emit_constraints(ties.values(), dict(zip(free_labels, free)))
    return StructureReport(
        space=space.name,
        group=group.catalog_id,
        dim=dim,
        voigt_shape=(rows, cols),
        entries=tuple(tuple(row) for row in entries),
        constraints=tuple(constraints),
        free_labels=tuple(free_labels),
        unsnapped=unsnapped + unsnapped_terms,
    )


def _free_slots(vecs: np.ndarray, candidates: np.ndarray, scale: float) -> list[int]:
    """The free slots among ``candidates``, in order: each is the first to
    leave the span of the earlier ones, by a margin against the slots still
    to come (see :func:`structure_report`).

    The candidates' residuals against the chosen directions are kept: a new
    free slot's residual, orthogonalized once more, is the new direction,
    and only the projection onto it is taken off the later residuals.
    """
    resid = vecs[candidates]
    left = np.linalg.norm(resid, axis=1)
    directions = np.zeros((0, vecs.shape[1]))
    free: list[int] = []
    for at, i in enumerate(candidates):
        size = left[at]
        if size <= DEPENDENT_RESIDUAL_TOL * scale or size < FREE_SLOT_RATIO * np.max(left[at:]):
            continue
        step = resid[at] - (directions @ resid[at]) @ directions
        step /= np.linalg.norm(step)
        directions = np.vstack([directions, step])
        free.append(i)
        later = resid[at + 1:]
        later -= np.outer(later @ step, step)
        left[at + 1:] = np.linalg.norm(later, axis=1)
    return free


def _combo_key(combo) -> tuple:
    """Identity of a combination of free symbols, up to display rounding."""
    return tuple((round(float(c), 9), lbl) for c, lbl in combo)


def _emit_constraints(ties, free_slot) -> tuple:
    """Solve each multi-term combination for its earliest free symbol.

    ``ties`` holds the (slot, label, combo) of the first slot of each
    distinct combination, whose terms are in free-slot order;
    ``free_slot`` maps each free label to its slot.  A slot s with value
    sum_i alpha_i F_i is rewritten as
    F_0 = (1/alpha_0) s - sum_{i>0} (alpha_i/alpha_0) F_i and printed with
    the right-hand terms in slot order.  Returns the lines and the number
    of their coefficients left unsnapped.
    """
    out = []
    unsnapped = 0
    for slot, slot_label, combo in ties:
        (lead_coef, lead_label), rest = combo[0], combo[1:]
        rhs = sorted([(slot, rational_snap(1.0 / float(lead_coef)), slot_label)]
                     + [(free_slot[lbl], rational_snap(-float(coef) / float(lead_coef)), lbl)
                        for coef, lbl in rest], key=lambda term: term[0])
        unsnapped += sum(not coef.exact for _, coef, _ in rhs)
        parts = []
        for _, coef, lbl in rhs:
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


def moduli_from_matrix(m: np.ndarray) -> tuple:
    """``extract_isotropic_moduli`` of a 9x9 isotropic slot matrix, whose
    entries (1,2), (4,4) and (4,5) are the display's C12, C44 and C45."""
    m = np.asarray(m, dtype=float)
    if m.shape != (9, 9):
        raise ValueError("expected a 9x9 slot matrix")
    return extract_isotropic_moduli({"C12": float(m[0, 1]), "C44": float(m[3, 3]),
                                     "C45": float(m[3, 4])})
