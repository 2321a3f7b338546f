"""Port-Hamiltonian descriptor system model and closed-loop formation.

A system carries coefficients ``(E, J, R, G, P, S, N)`` for

    E x' = (J - R) x + (G - P) u
    y    = (G + P)^T x + (S + N) u

with the structure constraints: E symmetric PSD, J and N skew-symmetric,
S symmetric, and the dissipation matrix ``W = [[R, P], [P^T, S]]`` PSD.
Structure is checked by :func:`validate`, never by the constructor, because
closed loops under arbitrary feedback must be representable too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooShort, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    classify_definiteness,
    spectral_norm,
)


@dataclass(frozen=True)
class PHSystem:
    """Coefficient tuple of a port-Hamiltonian descriptor system."""

    E: np.ndarray
    J: np.ndarray
    R: np.ndarray
    G: np.ndarray
    P: np.ndarray
    S: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        for name in ("E", "J", "R", "G", "P", "S", "N"):
            object.__setattr__(self, name, as_matrix(getattr(self, name)))
        n = self.E.shape[0]
        m = self.S.shape[0]
        expected = {"E": (n, n), "J": (n, n), "R": (n, n),
                    "G": (n, m), "P": (n, m), "S": (m, m), "N": (m, m)}
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ShapeMismatch(
                    f"{name} has shape {getattr(self, name).shape}, expected {shape}"
                )

    @property
    def n(self) -> int:
        return self.E.shape[0]

    @property
    def m(self) -> int:
        return self.S.shape[0]

    @property
    def D(self) -> np.ndarray:
        """Feedthrough matrix ``S + N``."""
        return self.S + self.N

    @property
    def B(self) -> np.ndarray:
        """Input matrix of the state equation, ``G - P``."""
        return self.G - self.P

    @property
    def A(self) -> np.ndarray:
        """State matrix ``J - R`` of the pencil ``s E - (J - R)``."""
        return self.J - self.R


@dataclass(frozen=True)
class CheckResult:
    """Single structural check with its numerical margin.

    ``margin`` is a violation norm (pass when <= tolerance) or a minimum
    eigenvalue (pass when >= -tolerance), depending on ``kind``.
    """

    name: str
    passed: bool
    margin: float
    tolerance: float
    kind: str  # "violation_norm" | "min_eigenvalue"

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "margin": float(self.margin),
            "tolerance": float(self.tolerance),
            "kind": self.kind,
        }


@dataclass(frozen=True)
class ValidationReport:
    e_symmetric: CheckResult
    e_psd: CheckResult
    j_skew: CheckResult
    n_skew: CheckResult
    s_symmetric: CheckResult
    w_psd: CheckResult

    @property
    def checks(self) -> tuple[CheckResult, ...]:
        return (self.e_symmetric, self.e_psd, self.j_skew,
                self.n_skew, self.s_symmetric, self.w_psd)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "kind": "validation",
            "passed": self.passed,
            "checks": {c.name: c.to_dict() for c in self.checks},
        }


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution on a strictly increasing time grid."""

    t: np.ndarray   # (K+1,)
    x: np.ndarray   # (K+1, n)
    u: np.ndarray   # (K+1, m)
    y: np.ndarray   # (K+1, m)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        for name in ("x", "u", "y"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2 or arr.shape[0] != t.shape[0]:
                raise ShapeMismatch(f"{name} must have one row per grid point")
            object.__setattr__(self, name, arr)
        if t.ndim != 1:
            raise ShapeMismatch("t must be one-dimensional")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("time grid must be strictly increasing")
        for name in ("t", "x", "u", "y"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite samples")


def dissipation_matrix(sys: PHSystem) -> np.ndarray:
    """The (n+m) x (n+m) block matrix [[R, P], [P^T, S]]."""
    return np.block([[sys.R, sys.P], [sys.P.T, sys.S]])


def validate(sys: PHSystem, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Check the structure constraints and report a margin per constraint."""

    def violation(name, M):
        v = spectral_norm(M)
        band = tol.psd_tol * max(1.0, v)
        return CheckResult(name, v <= band, v, band, "violation_norm")

    def psd(name, M):
        d = classify_definiteness(M, tol)
        return CheckResult(name, d.is_semidefinite, d.min_eigenvalue, d.band, "min_eigenvalue")

    W = dissipation_matrix(sys)
    return ValidationReport(
        e_symmetric=violation("e_symmetric", sys.E - sys.E.T),
        e_psd=psd("e_psd", sys.E),
        j_skew=violation("j_skew", sys.J + sys.J.T),
        n_skew=violation("n_skew", sys.N + sys.N.T),
        s_symmetric=violation("s_symmetric", sys.S - sys.S.T),
        w_psd=psd("w_psd", W),
    )


def hamiltonian(sys: PHSystem, x) -> float:
    """Stored energy ``H(x) = x^T E x / 2``."""
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape[0] != sys.n:
        raise ShapeMismatch(f"state has length {v.shape[0]}, expected {sys.n}")
    return 0.5 * float(v @ sys.E @ v)


# Rows per block of quadratic_forms: the block products stay a few hundred
# kilobytes however long the trajectory is.
_FORM_BLOCK_ROWS = 512


def quadratic_forms(M, *columns) -> np.ndarray:
    """``z_k^T M z_k`` for every row z_k of the column blocks stacked side by side.

    ``columns`` are arrays with one row per sample, such as a trajectory's
    ``x`` and ``u``; ``quadratic_forms(sys.E, traj.x)`` is twice the energy
    of every sample.  Rows are processed in blocks, so no product as long as
    the trajectory is formed.
    """
    K = columns[0].shape[0]
    out = np.empty(K)
    for start in range(0, K, _FORM_BLOCK_ROWS):
        rows = slice(start, start + _FORM_BLOCK_ROWS)
        Z = np.hstack([c[rows] for c in columns])
        out[rows] = np.einsum("ki,ki->k", Z @ M, Z)
    return out


def apply_feedback(sys: PHSystem, F) -> PHSystem:
    """Closed loop under proportional state feedback ``u = F x + v``.

    The update keeps E, S, N unchanged and moves the feedback action into

        J~ = J + ((G-P)F - F^T(G-P)^T)/2
        R~ = R - ((G-P)F + F^T(G-P)^T)/2
        G~ = G + F^T(S+N)^T/2,   P~ = P + F^T(S+N)^T/2

    so that ``J~ - R~ = (J - R) + (G - P)F`` exactly.  The result is not
    revalidated: the closed loop is port-Hamiltonian only for admissible F,
    which is the certifier's business.
    """
    Fm = as_matrix(F)
    if Fm.shape != (sys.m, sys.n):
        raise ShapeMismatch(f"feedback has shape {Fm.shape}, expected {(sys.m, sys.n)}")
    K = sys.B @ Fm
    # K - K.T / K + K.T are exactly skew / symmetric in floating point,
    # so the tilde matrices inherit J's and R's exact structure.
    J_cl = sys.J + 0.5 * (K - K.T)
    R_cl = sys.R - 0.5 * (K + K.T)
    shift = 0.5 * Fm.T @ sys.D.T
    return PHSystem(E=sys.E, J=J_cl, R=R_cl,
                    G=sys.G + shift, P=sys.P + shift, S=sys.S, N=sys.N)


def _check_trajectory(sys: PHSystem, traj: Trajectory):
    if traj.x.shape[1] != sys.n or traj.u.shape[1] != sys.m or traj.y.shape[1] != sys.m:
        raise ShapeMismatch("trajectory sample widths do not match the system")
    if traj.t.shape[0] < 3:
        raise GridTooShort("at least three grid points required")


def power_balance_residual(sys: PHSystem, traj: Trajectory) -> float:
    """Worst interior-point defect of dH/dt = -(x,u)^T W (x,u) + y^T u.

    dH/dt is a central finite difference of the sampled energy, so the
    residual of an exact solution shrinks with the square of the step.
    """
    _check_trajectory(sys, traj)
    H = 0.5 * quadratic_forms(sys.E, traj.x)
    quad = quadratic_forms(dissipation_matrix(sys), traj.x, traj.u)
    supply = np.einsum("ki,ki->k", traj.y, traj.u)
    dHdt = (H[2:] - H[:-2]) / (traj.t[2:] - traj.t[:-2])
    res = np.abs(dHdt + quad[1:-1] - supply[1:-1])
    return float(res.max()) if res.size else 0.0


def dissipation_inequality_check(
    sys: PHSystem,
    traj: Trajectory,
    tol: ToleranceConfig = DEFAULT_TOL,
    slack: float | None = None,
) -> bool:
    """True when H(x(t2)) - H(x(t1)) <= int y^T u dt + slack for all t1 < t2.

    The supply integral uses the trapezoid rule.  When ``slack`` is None it
    is set from the grid spacing and the peak power, which absorbs the
    first-order discretization error of sampled trajectories.
    """
    _check_trajectory(sys, traj)
    H = 0.5 * quadratic_forms(sys.E, traj.x)
    supply = np.einsum("ki,ki->k", traj.y, traj.u)
    dt = np.diff(traj.t)
    cumulative = np.concatenate([[0.0], np.cumsum(0.5 * dt * (supply[1:] + supply[:-1]))])
    if slack is None:
        quad = quadratic_forms(dissipation_matrix(sys), traj.x, traj.u)
        peak = float(np.max(np.abs(quad) + np.abs(supply))) if quad.size else 0.0
        span = float(traj.t[-1] - traj.t[0])
        slack = 10.0 * float(dt.max()) * max(1.0, peak) * max(1.0, span)
        slack += tol.psd_tol * max(1.0, float(np.max(np.abs(H))))
    # H(t2) - H(t1) <= C(t2) - C(t1) + slack for all pairs is equivalent to
    # the running minimum of H - C never being exceeded by more than slack.
    gap = H - cumulative
    running_min = np.minimum.accumulate(gap)
    return bool(np.all(gap - running_min <= slack))
