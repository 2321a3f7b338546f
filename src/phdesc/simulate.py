"""Implicit-Euler time integration of closed loops and consistent initialization.

The integrator exists to witness the power balance and the dissipation
inequality dynamically, not for high accuracy: implicit Euler is
unconditionally stable on the dissipative pencils produced here and handles
the index-one algebraic part without any special treatment, because every
step solves the algebraic constraints exactly for the currently held input.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import NotIndexOne, ShapeMismatch, SolveFailure
from .linalg import DEFAULT_TOL, ToleranceConfig, e_svd, pseudo_inverse, singular_value_rank
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
    return _project_consistent(sys_closed, x0, tol, u0)


def _project_consistent(sys_closed: PHSystem, x0, tol: ToleranceConfig, u0) -> np.ndarray:
    """:func:`consistent_projection` for a loop already known to be index one."""
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

    Each step solves ``(E - dt*(J~-R~)) x_next = E x + dt*(G~-P~) u_k``; the
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

    if u is None:
        u_steps = np.zeros((K, m))
    else:
        u_arr = np.asarray(u, dtype=float)
        if u_arr.ndim == 1 and u_arr.shape == (m,):
            u_steps = np.tile(u_arr, (K, 1))
        elif u_arr.ndim == 2 and u_arr.shape == (K, m):
            u_steps = u_arr
        else:
            raise ShapeMismatch(f"input samples must have shape ({m},) or ({K}, {m})")

    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != n:
        raise ShapeMismatch(f"x0 has length {x.shape[0]}, expected {n}")
    u_first = u_steps[0] if m else None
    x_proj = _project_consistent(closed, x, tol, u_first)
    shift = float(np.linalg.norm(x_proj - x))
    if shift > 1e-9 * max(1.0, float(np.linalg.norm(x))):
        logger.info("initial state projected onto the constraint set (moved %.3e)", shift)
    x = x_proj

    import scipy.linalg as sla

    step_matrix = closed.E - dt * closed.A
    try:
        lu, piv = sla.lu_factor(step_matrix)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SolveFailure("step matrix factorization failed", t=0.0) from exc
    diag = np.abs(np.diag(lu))
    if diag.size and diag.min() <= 1e-14 * max(1.0, diag.max()):
        raise SolveFailure("step matrix numerically singular", t=0.0)

    # LAPACK getrs straight on the factors: the same solve lu_solve makes,
    # without its per-call argument checks.
    getrs, = sla.get_lapack_funcs(("getrs",), (lu,))
    E, Bin = closed.E, closed.B
    X = np.empty((K + 1, n))
    X[0] = x
    # A state that blows up keeps stepping until the loop ends, where the
    # first non-finite sample is reported; its inf/nan arithmetic is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            rhs = E @ X[k]
            if m:
                rhs += dt * (Bin @ u_steps[k])
            X[k + 1], info = getrs(lu, piv, rhs, overwrite_b=True)
            if info:
                raise SolveFailure(f"step solve failed (LAPACK info {info})", t=(k + 1) * dt)
    finite = np.isfinite(X[1:]).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise SolveFailure("non-finite state", t=(k + 1) * dt)

    t = np.arange(K + 1) * dt
    U = np.zeros((K + 1, m))
    if m:
        U[:K] = u_steps
        U[K] = u_steps[-1]
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
