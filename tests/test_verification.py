"""The projector rows of the verification table against the dense reference.

A projector row checks the dense n^k x n^k projector ``a = (M B) B^T``
through its factor ``X = M B``.  ``_dense_checks`` keeps the direct
computation on ``a`` itself (its square, its transpose, the eigenvalues of
its symmetric part and the group action on both sides) as the reference
the factored numbers and verdicts are held to.
"""

import numpy as np
import pytest

from symtensor import verification
from symtensor.characters import fix_dimension
from symtensor.core import act
from symtensor.groups import resolve_group
from symtensor.projector import _averaged_action
from symtensor.spaces import SPACES
from symtensor.verification import ALL_PAIRS, _projector_checks, _projector_props_row

TILTED_AXIS = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
TILTED_PAIRS = [(s, g) for s in ("sym3", "ela3", "major3", "v1", "v1bar", "v2", "v2bar")
                for g in ("d3", "so2-e3")]
CHECK_CASES = [(s, g, False) for s, g in ALL_PAIRS] + [(s, g, True) for s, g in TILTED_PAIRS]
MUTATION_PAIRS = [("sym2", "so2"), ("ela2", "d4"), ("ela3", "so3"), ("major3", "cubic"),
                  ("v2bar", "so2-e3")]
MUTATIONS = ([(kind, eps) for kind in ("noise", "symmetric", "rank1")
              for eps in (1e-12, 1e-8, 1e-3, 0.3)] + [("identity", None), ("half", None)])


def _dense_checks(space, m, gens) -> dict:
    """The projector row's numbers, computed on the dense ``a = (M B) B^T``."""
    a = (m @ space.basis) @ space.basis.T
    return {
        "idem": float(np.max(np.abs(a @ a - a))),
        "sym": float(np.max(np.abs(a - a.T))),
        # Q^(x)k a - a, and a Q^(x)k - a as its transpose
        "equiv": max(float(np.max(np.abs(act(gens, space.k, a) - a))),
                     float(np.max(np.abs(act(gens.transpose(0, 2, 1), space.k, a.T) - a.T)))),
        "trace": float(np.trace(a)),
        "rank": int(np.sum(np.linalg.eigvalsh((a + a.T) / 2.0) > 0.5)),
    }


def _dense_verdict(c: dict, dim: int) -> bool:
    return (c["idem"] < 1e-9 and c["rank"] == dim and c["equiv"] < 1e-9
            and c["sym"] < 1e-9 and abs(c["trace"] - dim) < 1e-6)


def _setting(space_name, group_name, tilted=False):
    sp = SPACES[space_name]
    g = resolve_group(group_name, sp.n, axis=TILTED_AXIS if tilted else None)
    gens = np.array([e.matrix for e in g.sample_elements()])
    return sp, g, gens


def _mutated(m, kind, eps, rng):
    n = m.shape[0]
    if kind == "identity":
        return np.eye(n)
    if kind == "half":
        return m / 2.0
    r = rng.normal(size=(n, n))
    if kind == "symmetric":
        r = (r + r.T) / 2.0
    elif kind == "rank1":
        r = np.outer(rng.normal(size=n), rng.normal(size=n))
    return m + eps * r


def _row_with_action(monkeypatch, space_name, group_name, m):
    monkeypatch.setattr(verification, "_averaged_action", lambda space, group: m)
    return _projector_props_row(space_name, group_name).run()


@pytest.mark.parametrize("space_name,group_name,tilted", CHECK_CASES,
                         ids=[f"{s}-{g}" + ("-tilted" if t else "") for s, g, t in CHECK_CASES])
def test_factored_checks_match_the_dense_projector(space_name, group_name, tilted):
    sp, g, gens = _setting(space_name, group_name, tilted)
    m = _averaged_action(sp, g)
    got, want = _projector_checks(sp, m, gens), _dense_checks(sp, m, gens)
    assert got["rank"] == want["rank"] == fix_dimension(sp, g)
    for name in ("idem", "sym", "equiv"):
        assert abs(got[name] - want[name]) <= 1e-15, name
    assert abs(got["trace"] - want["trace"]) <= 1e-12


@pytest.mark.parametrize("space_name,group_name", MUTATION_PAIRS)
def test_mutated_action_gets_the_dense_verdict(monkeypatch, space_name, group_name):
    sp, g, gens = _setting(space_name, group_name)
    m = _averaged_action(sp, g)
    dim = fix_dimension(sp, g)
    rng = np.random.default_rng(47)
    for kind, eps in MUTATIONS:
        bad = _mutated(m, kind, eps, rng)
        want = _dense_verdict(_dense_checks(sp, bad, gens), dim)
        got = _row_with_action(monkeypatch, space_name, group_name, bad)
        assert got.ok == want, (kind, eps, got.actual)


def test_off_span_part_leaves_the_rank_uncertified(monkeypatch):
    # M + c u (B w)^T, with u an invariant tensor orthogonal to the space and
    # w a unit vector of the invariant subspace: P = B^T X, the trace, a^2 - a
    # and both equivariance gaps stay those of M, and (a + a^T)/2 keeps dim
    # eigenvalues above 1/2, but ||X_perp||_F = c ||u|| = 4 is too far off the
    # span for the P_s count to be certified.  The sym check fails too: a
    # passing one bounds ||X_perp||_F by n^k * 1e-9.
    sp, g, gens = _setting("ela3", "so3")
    m = _averaged_action(sp, g)
    b, dim = sp.basis, fix_dimension(sp, g)
    rng = np.random.default_rng(53)
    u = m @ rng.normal(size=m.shape[0])
    u -= b @ (b.T @ u)
    w = (b.T @ m @ b) @ rng.normal(size=b.shape[1])
    w /= np.linalg.norm(w)
    bad = m + 4.0 / np.linalg.norm(u) * np.outer(u, b @ w)

    got = _projector_checks(sp, bad, gens)
    assert got["rank"] == dim and got["margin"] == pytest.approx(0.5)
    assert got["off_span"] == pytest.approx(4.0)
    assert got["idem"] < 1e-9 and got["equiv"] < 1e-9 and abs(got["trace"] - dim) < 1e-6
    dense = _dense_checks(sp, bad, gens)
    assert dense["rank"] == dim and dense["idem"] < 1e-9 and dense["equiv"] < 1e-9
    assert dense["sym"] > 0.1 and not _dense_verdict(dense, dim)

    row = _row_with_action(monkeypatch, "ela3", "so3", bad)
    assert not row.ok
    assert f"rank {dim} uncertified" in row.actual


def test_row_text_names_every_check():
    result = _projector_props_row("ela3", "cubic").run()
    assert result.ok
    assert result.expected == "idem/sym/equiv < 1e-9, rank = 3, trace gap < 1e-6"
    for part in ("idem ", "sym ", "rank 3,", "equiv ", "trace gap ", "rank margin 5.0e-01",
                 "off-span "):
        assert part in result.actual
