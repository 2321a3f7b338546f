"""Seeded generation of port-Hamiltonian descriptor systems.

Systems are assembled from structure-exact parts: E as an eigenvalue
factorization with a prescribed number of positive eigenvalues, J and N as
exact skew splits of random matrices, and the dissipation block matrix W as
a Gram product of prescribed rank.  Structural pathologies are embedded
block-wise and then hidden behind a random orthogonal change of state basis:

force_axis_modes
    adds an undamped two-dimensional oscillator that no feedback can reach
    through the input, so the stabilizability rank condition fails;
force_singular
    adds a direction in the common nullspace of E, J, R, making the
    open-loop pencil singular;
s_definite
    adds a definite block to S so the feedthrough has full definite part.

Identical (seed, knobs) always produce bit-identical systems.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleKnobs
from .model import PHSystem


def _random_orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    return q * np.sign(np.diag(r))


def _skew(M: np.ndarray) -> np.ndarray:
    return (M - M.T) / 2.0


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


def random_ph(
    n: int,
    m: int,
    seed: int,
    *,
    rank_e: int | None = None,
    rank_w: int | None = None,
    force_axis_modes: bool = False,
    force_singular: bool = False,
    s_definite: bool = False,
) -> PHSystem:
    """Random valid system of state dimension n and input dimension m.

    rank_e is the rank of the full E (the oscillator block contributes 2 of
    it); rank_w the rank of the full dissipation matrix W, which lives on
    the pathology-free core of size ``n - 2*axis - singular``.  Both default
    to seeded draws near full rank.  Raises InfeasibleKnobs when the targets
    cannot be met for the requested pathologies.
    """
    if n < 0 or m < 0:
        raise InfeasibleKnobs("dimensions must be nonnegative")
    rng = np.random.default_rng(seed)
    extra = (2 if force_axis_modes else 0) + (1 if force_singular else 0)
    nc = n - extra
    if nc < 0:
        raise InfeasibleKnobs(f"n={n} too small for the requested pathologies")

    if rank_e is None:
        re_core = int(rng.integers(max(0, nc - 3), nc + 1)) if nc else 0
    else:
        if not 0 <= rank_e <= n:
            raise InfeasibleKnobs(f"rank_e={rank_e} outside [0, {n}]")
        re_core = rank_e - (2 if force_axis_modes else 0)
        if not 0 <= re_core <= nc:
            raise InfeasibleKnobs(f"rank_e={rank_e} infeasible for the core of size {nc}")

    if rank_w is None:
        lo = max(0, (nc + m) - 3)
        rank_w = int(rng.integers(lo, nc + m + 1)) if nc + m else 0
    if not 0 <= rank_w <= nc + m:
        raise InfeasibleKnobs(f"rank_w={rank_w} outside [0, {nc + m}] "
                              "(the dissipation lives on the pathology-free core)")

    Q = _random_orthogonal(rng, nc)
    eigs = rng.uniform(0.5, 2.0, size=re_core)
    E = (Q[:, :re_core] * eigs) @ Q[:, :re_core].T
    E = _sym(E)
    J = _skew(rng.normal(size=(nc, nc)))
    L = rng.normal(size=(nc + m, rank_w)) / max(1.0, np.sqrt(nc + m))
    W = _sym(L @ L.T)
    if s_definite:
        Ms = rng.normal(size=(m, m)) / max(1.0, np.sqrt(m))
        W[nc:, nc:] += _sym(Ms @ Ms.T) + rng.uniform(0.3, 1.0) * np.eye(m)
    R = W[:nc, :nc]
    P = W[:nc, nc:]
    S = _sym(W[nc:, nc:])
    N = _skew(rng.normal(size=(m, m)))
    G = rng.normal(size=(nc, m))

    if force_axis_modes:
        omega = float(rng.uniform(0.5, 3.0))
        E = _blockdiag(E, np.eye(2))
        J = _blockdiag(J, np.array([[0.0, omega], [-omega, 0.0]]))
        R = _blockdiag(R, np.zeros((2, 2)))
        G = np.vstack([G, np.zeros((2, m))])
        P = np.vstack([P, np.zeros((2, m))])
    if force_singular:
        E = _blockdiag(E, np.zeros((1, 1)))
        J = _blockdiag(J, np.zeros((1, 1)))
        R = _blockdiag(R, np.zeros((1, 1)))
        G = np.vstack([G, rng.normal(size=(1, m))])
        P = np.vstack([P, np.zeros((1, m))])

    if extra:
        Qrot = _random_orthogonal(rng, n)
        E = _sym(Qrot @ E @ Qrot.T)
        J = _skew(Qrot @ J @ Qrot.T)
        R = _sym(Qrot @ R @ Qrot.T)
        G = Qrot @ G
        P = Qrot @ P

    return PHSystem(E=E, J=J, R=R, G=G, P=P, S=S, N=N)


def _blockdiag(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    out = np.zeros((A.shape[0] + B.shape[0], A.shape[1] + B.shape[1]))
    out[: A.shape[0], : A.shape[1]] = A
    out[A.shape[0] :, A.shape[1] :] = B
    return out
