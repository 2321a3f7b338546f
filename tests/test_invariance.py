"""Metamorphic relations: what theory leaves unchanged when the state basis
is permuted or the pencil is transposed.

A permutation of the state basis, ``Pi^T (.) Pi``, is an orthogonal change
that moves entries without arithmetic, so E stays bitwise symmetric and
every route, verdict and witness count must repeat exactly.  Transposing a
pencil swaps its left and right minimal indices and keeps its infinite
elementary divisors and its finite spectrum (Gantmacher, *The Theory of
Matrices*, 1959, ch. XII).
"""

import numpy as np
import pytest

from phdesc import pencil
from phdesc.certify import certify_closed_loop
from phdesc.errors import ConditionsNotMet
from phdesc.generators import random_ph
from phdesc.model import PHSystem
from phdesc.pencil import (
    index_reduction_rank_condition,
    pencil_report,
    stabilizability_rank_condition,
    strict_passifiability_condition,
)
from phdesc.synthesis import synthesize_stabilizing
from conftest import logged_routes

FAMILIES = {
    "plain": {},
    "s-definite": {"s_definite": True},
    "axis-mode": {"force_axis_modes": True},
    "singular": {"force_singular": True},
}
# (n, m, seed, rank_w) per family: 120 systems, 480 over the four families.
PERMUTATION_GRID = [(n, m, seed, rank_w) for n in range(3, 13) for m in (1, 2)
                    for seed in range(3) for rank_w in (None, 1)]
# (n, m, seed, rank_w) per family: 270 square pencils and the 180
# rectangular [s E - A, -B] of the systems with inputs, 1,800 pencils over
# the four families.
DUALITY_GRID = [(n, m, seed, rank_w) for n in range(3, 13) for m in (0, 1, 2)
                for seed in range(3) for rank_w in (None, 0, 1)]


def _permuted(sys, p):
    """``Pi^T sys Pi``: the system in the state basis reordered by p."""
    return PHSystem(E=sys.E[p][:, p], J=sys.J[p][:, p], R=sys.R[p][:, p], G=sys.G[p],
                    P=sys.P[p], S=sys.S, N=sys.N)


def _chain(sys, monkeypatch, route_log):
    """The route of every fresh report, the open-loop report first, then the
    report's structure, the three conditions with the witness count, and
    the stabilizing synthesis's refusal or its certification's overall."""
    monkeypatch.setattr(pencil, "_REPORT", None)
    route_log.clear()
    r = pencil_report(sys.E, sys.A)
    stabilizable, witnesses = stabilizability_rank_condition(sys)
    verdicts = [r.regular, r.index, r.rank_E, r.stability_class, r.infinite_block_sizes,
                r.right_minimal_indices, r.left_minimal_indices, stabilizable, len(witnesses),
                index_reduction_rank_condition(sys), strict_passifiability_condition(sys)]
    try:
        F, _ = synthesize_stabilizing(sys)
    except ConditionsNotMet as exc:
        verdicts.append((str(exc), len(exc.witnesses)))
    else:
        verdicts.append(certify_closed_loop(sys, F, "stabilize").overall)
    return logged_routes(route_log), verdicts


@pytest.mark.parametrize("family", FAMILIES)
def test_state_permutation_keeps_routes_and_verdicts(monkeypatch, route_log, family):
    changed = []
    for n, m, seed, rank_w in PERMUTATION_GRID:
        sys = random_ph(n, m, seed, rank_w=rank_w, **FAMILIES[family])
        permuted = _permuted(sys, np.random.default_rng(100 * n + seed).permutation(n))
        assert np.array_equal(permuted.E, permuted.E.T)
        before = _chain(sys, monkeypatch, route_log)
        after = _chain(permuted, monkeypatch, route_log)
        assert before[0], (n, m, seed, rank_w)
        if after != before:
            changed.append((n, m, seed, rank_w, before, after))
    assert changed == []


def _structure(rep):
    """Shape, infinite block sizes, right and left minimal indices, and the
    count of finite eigenvalues; the block sizes as multisets."""
    return (rep.rows, rep.cols, sorted(rep.infinite_block_sizes),
            sorted(rep.right_minimal_indices), sorted(rep.left_minimal_indices), rep.n_regular)


@pytest.mark.parametrize("family", FAMILIES)
def test_transposition_swaps_minimal_indices(family):
    changed, singular = [], 0
    for n, m, seed, rank_w in DUALITY_GRID:
        sys = random_ph(n, m, seed, rank_w=rank_w, **FAMILIES[family])
        pencils = [(sys.E, sys.A)]
        if m:
            pencils.append((np.hstack([sys.E, np.zeros((n, m))]), np.hstack([sys.A, sys.B])))
        for E, A in pencils:
            rows, cols, infinite, right, left, finite = _structure(pencil_report(E, A))
            dual = _structure(pencil_report(E.T, A.T))
            singular += bool(right or left)
            if dual != (cols, rows, infinite, left, right, finite):
                changed.append((n, m, seed, rank_w, E.shape))
    assert changed == []
    assert singular >= 180
