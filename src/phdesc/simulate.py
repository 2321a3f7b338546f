"""Implicit-Euler time integration of closed loops and consistent initialization.

The integrator exists to witness the power balance and the dissipation
inequality dynamically, not for high accuracy: implicit Euler is
unconditionally stable on the dissipative pencils produced here and handles
the index-one algebraic part without any special treatment, because every
step solves the algebraic constraints exactly for the currently held input.
One numpy solve with the step matrix forms a propagator up front, so each
step is then a single matrix-vector product.  Consistent initialization
reads the cokernel of E from the loop's pencil report, so simulation takes
no SVD of E and no rank decision on it of its own.

The trajectory CSV spells every value as its shortest round-trip ``repr``,
which costs about 0.3 us per value on one core.  A long trajectory is
therefore split into contiguous parts, one per available CPU: the caller
formats the first part straight into the output, and a forked child formats
each other part into an anonymous temporary file that the caller then copies
after it, in order, so the bytes are those of a serial write and the output
may be a pipe.  Small files, one CPU or a platform without ``os.fork`` make
one part, which is the serial loop and forks nothing.  A child formats text
only and never calls BLAS, so the ``DeprecationWarning`` that ``os.fork``
may emit on Python >= 3.12 when BLAS threads exist does not concern it.
"""

from __future__ import annotations

import io
import logging
import os
import shutil
import stat
import tempfile

import numpy as np

from .errors import NotIndexOne, ShapeMismatch, SolveFailure
from .linalg import DEFAULT_TOL, ToleranceConfig, numerical_rank, pseudo_inverse
from .model import PHSystem, Trajectory, apply_feedback, quadratic_forms
from .pencil import PencilReport, pencil_report

logger = logging.getLogger(__name__)

# Rows formatted per write: enough to amortize the per-block calls, few
# enough that the text of one block stays small next to the trajectory.
_CSV_BLOCK_ROWS = 64
# Fewest values in one part of a parallel CSV write.  Forking a formatter,
# reaping it and copying its part back cost 2.2 ms (median of 200 writes of
# a 100-row n = 60, m = 6 trajectory in two 50-row parts against the serial
# write; 2-CPU x86-64 host, Python 3.11), and 50,000 values take about 15 ms
# to format, so a part's overhead stays below a fifth of the time it saves.
_CSV_PART_VALUES = 50_000


def _require_index_one(sys_closed: PHSystem, tol: ToleranceConfig) -> PencilReport:
    rep = pencil_report(sys_closed.E, sys_closed.A, tol)
    if not rep.regular:
        raise NotIndexOne("closed-loop pencil is singular")
    if (rep.index or 0) > 1:
        raise NotIndexOne(f"closed-loop pencil has index {rep.index}")
    return rep


def consistent_projection(
    sys_closed: PHSystem,
    x0,
    tol: ToleranceConfig = DEFAULT_TOL,
    u0=None,
) -> np.ndarray:
    """Closest state satisfying the algebraic constraints of an index-one loop.

    The constraints are the rows of the system on the cokernel of E:
    with ``U_c`` the cokernel basis of the loop's :class:`PencilReport`
    they read ``U_c^T ((J-R) x + (G-P) u0) = 0``.  The returned state is
    the Euclidean projection of x0 onto that affine set; consistent states
    are returned unchanged.
    """
    Uc = _require_index_one(sys_closed, tol).cokernel_E
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys_closed.n:
        raise ShapeMismatch(f"x0 has length {x0.shape[0]}, expected {sys_closed.n}")
    C = Uc.T @ sys_closed.A
    rhs = np.zeros(Uc.shape[1])
    if u0 is not None and sys_closed.m:
        u0 = np.asarray(u0, dtype=float).reshape(-1)
        if u0.shape[0] != sys_closed.m:
            raise ShapeMismatch(f"u0 has length {u0.shape[0]}, expected {sys_closed.m}")
        rhs = -(Uc.T @ (sys_closed.B @ u0))
    residual = C @ x0 - rhs
    return x0 - pseudo_inverse(C, tol, "consistent projection") @ residual


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
    output is ``y = (G~+P~)^T x + (S+N) u``.  Raises ValueError, before any
    other work, unless T and dt are finite, dt > 0, T >= dt and the K + 1
    float64 samples of t, x, u and y fit in the bytes that ``np.intp`` can
    index; the same ValueError replaces a MemoryError from the integration,
    whose arrays, but for one n-vector, all hold K or K + 1 rows.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (np.isfinite(T) and T >= dt):
        raise ValueError(f"T must be finite and at least dt, got {T}")
    steps = float(T) / float(dt)  # inf on overflow, with no numpy warning
    K = max(1, round(steps)) if steps < np.inf else steps
    too_many = f"T = {T} and dt = {dt} give {K} steps, more than a trajectory can hold"
    if (K + 1) * (sys.n + 2 * sys.m + 1) * 8 > np.iinfo(np.intp).max:  # an inf K too
        raise ValueError(too_many)
    closed = apply_feedback(sys, F)
    _require_index_one(closed, tol)
    n, m = closed.n, closed.m

    u = np.zeros(m) if u is None else np.asarray(u, dtype=float)
    if u.shape not in ((m,), (K, m)):
        raise ShapeMismatch(f"input samples must have shape ({m},) or ({K}, {m})")

    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != n:
        raise ShapeMismatch(f"x0 has length {x.shape[0]}, expected {n}")
    x_proj = consistent_projection(closed, x, tol, u if u.ndim == 1 else u[0])
    shift = float(np.linalg.norm(x_proj - x))
    if shift > 1e-9 * max(1.0, float(np.linalg.norm(x))):
        logger.info("initial state projected onto the constraint set (moved %.3e)", shift)

    step_matrix = closed.E - dt * closed.A
    if numerical_rank(step_matrix, tol, "step matrix E - dt A") < n:
        raise SolveFailure("step matrix numerically singular", t=0.0)
    prop = np.linalg.solve(step_matrix, np.hstack([closed.E, dt * closed.B]))
    try:
        return _euler_steps(closed, x_proj, u, prop, K, dt)
    except MemoryError as exc:
        raise ValueError(too_many) from exc


def _euler_steps(closed: PHSystem, x_proj, u, prop, K: int, dt: float) -> Trajectory:
    """The K steps from x_proj under the input u, one m-vector or K rows,
    with the propagator ``prop = [Phi, Gam]``; every K-row array of
    :func:`simulate_closed_loop` is made here."""
    n = closed.n
    u_steps = np.tile(u, (K, 1)) if u.ndim == 1 else u
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

    Numbers are serialized with full round-trip precision.  A file of at
    least twice ``_CSV_PART_VALUES`` values is formatted on every available
    CPU, with the bytes of a serial write (see the module docstring).
    """
    n = traj.x.shape[1]
    m = traj.u.shape[1]
    header = (["t"]
              + [f"x{i + 1}" for i in range(n)]
              + [f"u{i + 1}" for i in range(m)]
              + [f"y{i + 1}" for i in range(m)]
              + ["H"])
    H = 0.5 * quadratic_forms(sys.E, traj.x)
    rows = H.shape[0]
    cpus = _available_cpus() if hasattr(os, "fork") else 1
    parts = max(1, min(cpus, rows * len(header) // _CSV_PART_VALUES))
    # No O_TRUNC: truncating an existing file on open makes the close wait
    # for the old file's writeback on some file systems (ext4's
    # auto_da_alloc), so a regular file is cut at the last byte written
    # instead, also when the write fails.  A pipe is never truncated.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        try:
            fh.write(",".join(header) + "\n")
            _write_parts(fh, traj, H, [rows * k // parts for k in range(parts + 1)])
        finally:
            fh.flush()
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_rows(fh, traj: Trajectory, H: np.ndarray, start: int, stop: int) -> None:
    """Write CSV rows ``start:stop``, ``_CSV_BLOCK_ROWS`` at a time."""
    for lo in range(start, stop, _CSV_BLOCK_ROWS):
        rows = slice(lo, min(lo + _CSV_BLOCK_ROWS, stop))
        block = np.column_stack([traj.t[rows], traj.x[rows], traj.u[rows],
                                 traj.y[rows], H[rows]])
        # repr of a Python float is its shortest round-trip text.
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in block.tolist()))


def _write_parts(fh, traj: Trajectory, H: np.ndarray, bounds: list[int]) -> None:
    """Write the rows between consecutive ``bounds``: the first part here,
    each other part in a forked child, copied after it in order.  One part
    is the serial write and forks nothing.

    Every child is reaped before this returns or raises; on any failure the
    children still running are killed first.
    """
    files, pids = [], []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            files.append(tempfile.TemporaryFile())
            pids.append(_fork_formatter(files[-1], traj, H, start, stop))
        _write_rows(fh, traj, H, bounds[0], bounds[1])
        fh.flush()
        for k, part in enumerate(files):
            _, status = os.waitpid(pids[k], 0)
            pids[k] = None
            code = os.waitstatus_to_exitcode(status)
            if code:
                raise ChildProcessError(
                    f"formatting part {k + 1} of the trajectory CSV failed (exit status {code})")
            part.seek(0)
            # A chunked copy: a part is never read into memory whole.
            shutil.copyfileobj(part, fh.buffer)
    finally:
        running = [pid for pid in pids if pid is not None]
        if running:
            # Imported here: `signal` costs every CLI process its enum set-up.
            import signal
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in files:
            part.close()


def _fork_formatter(part, traj: Trajectory, H: np.ndarray, start: int, stop: int) -> int:
    """Fork a child that writes CSV rows ``start:stop`` to the binary file
    ``part`` and exits; return its pid.

    Every way out of the child, an exception or a signal handler's
    ``SystemExit`` included, ends in ``os._exit``: the child never returns
    into the caller's stack and flushes no buffer it inherited.
    """
    parent = os.getpid()
    status = 1
    try:
        pid = os.fork()
        if pid == 0:
            out = io.TextIOWrapper(part, encoding="utf-8")
            _write_rows(out, traj, H, start, stop)
            out.flush()
            status = 0
    finally:
        if os.getpid() != parent:
            os._exit(status)
    return pid
