"""Implicit-Euler time integration of closed loops and consistent initialization.

The integrator exists to witness the power balance and the dissipation
inequality dynamically, not for high accuracy: implicit Euler is
unconditionally stable on the dissipative pencils produced here and handles
the index-one algebraic part without any special treatment, because every
step solves the algebraic constraints exactly for the currently held input.
One numpy solve with the step matrix forms a propagator up front, so each
step is then a single matrix-vector product.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import NotIndexOne, ShapeMismatch, SolveFailure
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    e_svd,
    numerical_rank,
    pseudo_inverse,
    singular_value_rank,
)
from .model import PHSystem, Trajectory, apply_feedback, quadratic_forms
from .pencil import pencil_report

logger = logging.getLogger(__name__)

# Rows formatted per write: enough to amortize the per-block calls, few
# enough that the text of one block stays small next to the trajectory.
_CSV_BLOCK_ROWS = 64


def _require_index_one(sys_closed: PHSystem, tol: ToleranceConfig):
    rep = pencil_report(sys_closed.E, sys_closed.A, tol)
    if not rep.regular:
        raise NotIndexOne("closed-loop pencil is singular")
    if (rep.index or 0) > 1:
        raise NotIndexOne(f"closed-loop pencil has index {rep.index}")


def consistent_projection(
    sys_closed: PHSystem,
    x0,
    tol: ToleranceConfig = DEFAULT_TOL,
    u0=None,
) -> np.ndarray:
    """Closest state satisfying the algebraic constraints of an index-one loop.

    The constraints are the rows of the system on the cokernel of E:
    with ``U_c`` an orthonormal basis of that cokernel they read
    ``U_c^T ((J-R) x + (G-P) u0) = 0``.  The returned state is the Euclidean
    projection of x0 onto that affine set; consistent states are returned
    unchanged.
    """
    _require_index_one(sys_closed, tol)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys_closed.n:
        raise ShapeMismatch(f"x0 has length {x0.shape[0]}, expected {sys_closed.n}")
    u, s, _ = e_svd(sys_closed.E)
    Uc = u[:, singular_value_rank(s, sys_closed.E.shape, tol):]
    if Uc.shape[1] == 0:
        return x0.copy()
    C = Uc.T @ sys_closed.A
    rhs = np.zeros(Uc.shape[1])
    if u0 is not None and sys_closed.m:
        u0 = np.asarray(u0, dtype=float).reshape(-1)
        if u0.shape[0] != sys_closed.m:
            raise ShapeMismatch(f"u0 has length {u0.shape[0]}, expected {sys_closed.m}")
        rhs = -(Uc.T @ (sys_closed.B @ u0))
    residual = C @ x0 - rhs
    return x0 - pseudo_inverse(C, tol) @ residual


def simulate_closed_loop(
    sys: PHSystem,
    F,
    x0,
    u=None,
    T: float = 1.0,
    dt: float = 1e-3,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Trajectory:
    """Integrate the closed loop of ``sys`` under feedback F with implicit Euler.

    ``u`` is the exogenous input applied after the feedback, held constant on
    each step: None (zero input), a single m-vector, or an array of K row
    samples with K = round(T / dt).  Inconsistent initial states are
    projected onto the constraint set before stepping.

    Each step solves ``(E - dt*(J~-R~)) x_next = E x + dt*(G~-P~) u_k`` as
    ``x_next = Phi x + Gam u_k``, with ``[Phi, Gam]`` from one solve against
    ``[E, dt*(G~-P~)]``; the step matrix must have full numerical rank.  The
    output is ``y = (G~+P~)^T x + (S+N) u``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < dt:
        raise ValueError("T must be at least dt")
    closed = apply_feedback(sys, F)
    _require_index_one(closed, tol)
    n, m = closed.n, closed.m
    K = max(1, int(round(T / dt)))

    u_steps = np.zeros((K, m)) if u is None else np.asarray(u, dtype=float)
    if u_steps.shape == (m,):
        u_steps = np.tile(u_steps, (K, 1))
    elif u_steps.shape != (K, m):
        raise ShapeMismatch(f"input samples must have shape ({m},) or ({K}, {m})")

    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != n:
        raise ShapeMismatch(f"x0 has length {x.shape[0]}, expected {n}")
    x_proj = consistent_projection(closed, x, tol, u_steps[0])
    shift = float(np.linalg.norm(x_proj - x))
    if shift > 1e-9 * max(1.0, float(np.linalg.norm(x))):
        logger.info("initial state projected onto the constraint set (moved %.3e)", shift)

    step_matrix = closed.E - dt * closed.A
    if numerical_rank(step_matrix, tol) < n:
        raise SolveFailure("step matrix numerically singular", t=0.0)
    prop = np.linalg.solve(step_matrix, np.hstack([closed.E, dt * closed.B]))
    Phi, Gam = prop[:, :n], prop[:, n:]
    X = np.empty((K + 1, n))
    X[0] = x_proj
    # The input terms go straight into the samples they feed, so the
    # trajectory is the only K x n array.
    np.matmul(u_steps, Gam.T, out=X[1:])
    step = np.empty(n)
    # A state that blows up keeps stepping until the loop ends, where the
    # first non-finite sample is reported; its inf/nan arithmetic is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        prev = X[0]
        for nxt in X[1:]:
            nxt += np.dot(Phi, prev, out=step)
            prev = nxt
    finite = np.isfinite(X[1:]).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise SolveFailure("non-finite state", t=(k + 1) * dt)

    t = np.arange(K + 1) * dt
    U = np.vstack([u_steps, u_steps[-1:]])
    Y = X @ (closed.G + closed.P) + U @ closed.D.T
    return Trajectory(t=t, x=X, u=U, y=Y)


def write_trajectory_csv(path, traj: Trajectory, sys: PHSystem) -> None:
    """Write the trajectory with header t,x1..xn,u1..um,y1..ym,H.

    Numbers are serialized with full round-trip precision.
    """
    n = traj.x.shape[1]
    m = traj.u.shape[1]
    header = (["t"]
              + [f"x{i + 1}" for i in range(n)]
              + [f"u{i + 1}" for i in range(m)]
              + [f"y{i + 1}" for i in range(m)]
              + ["H"])
    H = 0.5 * quadratic_forms(sys.E, traj.x)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, H.shape[0], _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            block = np.column_stack([traj.t[rows], traj.x[rows], traj.u[rows],
                                     traj.y[rows], H[rows]])
            # repr of a Python float is its shortest round-trip text.
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in block.tolist()))
