"""Output checks computed from the paper's definitions, apart from phdesc.

Nothing here imports phdesc: every closed loop, kernel, spectrum, rank and
energy balance is formed again with numpy and scipy from the plant
matrices, so a fault shared by the program's layers cannot hide itself.

A plant is any object with attributes E, J, R, G, P, S, N (the pH data of
``E x' = (J-R) x + (G-P) u``, ``y = (G+P)^T x + (S+N) u``).  Every check
raises :class:`CheckFailed` with a reason, or returns what it computed.

Rank and sign decisions use a relative threshold and refuse to judge inside
a band of a factor 100 around it: a verdict that roundoff could flip is
accepted either way, and only a verdict on the wrong side of a clear gap
fails.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)
RANK_RTOL = 1e-9      # relative cutoff for kernels and rank decisions
BAND = 100.0          # undecided band around a threshold, as a factor
PSD_RTOL = 1e-8       # W >= -PSD_RTOL * max(1, ||W||) counts as PSD
PD_RTOL = 1e-10       # W >= +PD_RTOL * max(1, ||W||) counts as PD
AXIS_RTOL = 1e-6      # |Re w| <= AXIS_RTOL * max(1, |w|) counts as on the axis


class CheckFailed(AssertionError):
    """An output contradicts the paper's definitions."""


@dataclass(frozen=True)
class Plant:
    E: np.ndarray
    J: np.ndarray
    R: np.ndarray
    G: np.ndarray
    P: np.ndarray
    S: np.ndarray
    N: np.ndarray

    @classmethod
    def from_feedthrough(cls, E, J, R, G, P, D) -> "Plant":
        """Plant with S and N split from D as (D + D^T)/2 and (D - D^T)/2."""
        D = np.asarray(D, dtype=float)
        return cls(*(np.asarray(M, dtype=float) for M in (E, J, R, G, P)),
                   S=(D + D.T) / 2.0, N=(D - D.T) / 2.0)


def _sym(M):
    return (M + M.T) / 2.0


def _decide(value: float, threshold: float) -> bool | None:
    """True above the band, False below it, None inside it."""
    if value > BAND * threshold:
        return True
    if value < threshold / BAND:
        return False
    return None


def kernel_and_range(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal kernel and range bases of a symmetric PSD matrix.

    Raises when a singular value sits inside the undecided band, because
    then the split itself is a guess.
    """
    n = M.shape[0]
    if n == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    u, s, _ = np.linalg.svd(M)
    thr = RANK_RTOL * max(1.0, float(s[0]))
    if any(_decide(float(v), thr) is None for v in s):
        raise CheckFailed(f"rank of a {n}x{n} matrix is not decided: singular values {s}")
    r = int(np.sum(s > thr))
    return u[:, r:], u[:, :r]


def closed_loop(plant, F) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """State matrix, input matrix, output matrix and dissipation matrix of
    the loop closed by ``u = F x + v``.

    From ``E x' = (J-R) x + (G-P)(F x + v)`` and
    ``y = (G+P)^T x + (S+N)(F x + v)``: the state matrix is
    ``A = J - R + (G-P) F``, the input matrix stays ``G - P``, the output
    matrix is ``C = (G+P)^T + (S+N) F``.  The closed-loop ``R~`` is the
    negative symmetric part of A, and ``P~ = (C^T - (G-P))/2``, so that
    ``W~ = [[R~, P~], [P~^T, S]]``.
    """
    F = np.asarray(F, dtype=float)
    B = plant.G - plant.P
    D = plant.S + plant.N
    A = plant.J - plant.R + B @ F
    C = (plant.G + plant.P).T + D @ F
    R_cl = -_sym(A)
    P_cl = (C.T - B) / 2.0
    W = np.block([[R_cl, P_cl], [P_cl.T, plant.S]])
    return A, B, C, W


def check_dissipation(W: np.ndarray, strict: bool) -> float:
    """W~ is PSD (``strict=False``) or PD (``strict=True``) by eigvalsh.

    Returns the smallest eigenvalue.
    """
    lam = np.linalg.eigvalsh(_sym(W))
    scale = max(1.0, float(np.max(np.abs(lam))))
    lo = float(lam[0])
    if strict and not lo > PD_RTOL * scale:
        raise CheckFailed(f"dissipation matrix not positive definite: min eigenvalue {lo:.3e}")
    if not strict and not lo >= -PSD_RTOL * scale:
        raise CheckFailed(f"dissipation matrix not PSD: min eigenvalue {lo:.3e}")
    return lo


def index_one_spectrum(E: np.ndarray, A: np.ndarray) -> np.ndarray | None:
    """Finite spectrum of ``s E - A`` when it is regular of index at most one.

    With E symmetric PSD and Z spanning ker E, the pencil is regular of
    index at most one exactly when ``Z^T A Z`` is nonsingular; the finite
    eigenvalues are then those of the Schur complement
    ``E11^{-1} (A11 - A12 A22^{-1} A21)`` in the basis [range E, ker E].
    Returns None when ``Z^T A Z`` is clearly singular; raises when that is
    not decided.
    """
    Z, V = kernel_and_range(E)
    A22 = Z.T @ A @ Z
    if A22.size:
        s = np.linalg.svd(A22, compute_uv=False)
        verdict = _decide(float(s[-1]), RANK_RTOL * max(1.0, float(np.linalg.norm(A, 2))))
        if verdict is None:
            raise CheckFailed(f"nonsingularity of Z^T A Z is not decided: sigma_min {s[-1]:.3e}")
        if not verdict:
            return None
        schur = V.T @ A @ V - V.T @ A @ Z @ np.linalg.solve(A22, Z.T @ A @ V)
    else:
        schur = V.T @ A @ V
    E11 = V.T @ E @ V
    if E11.size == 0:
        return np.zeros(0, dtype=complex)
    return np.linalg.eigvals(np.linalg.solve(E11, schur))


def check_stable(spectrum: np.ndarray) -> float:
    """Every finite eigenvalue lies in the open left half-plane.

    Returns the spectral abscissa (-inf for an empty spectrum).
    """
    if spectrum.size == 0:
        return -np.inf
    abscissa = float(np.max(spectrum.real))
    floor = 1e3 * spectrum.size * EPS * max(1.0, float(np.max(np.abs(spectrum))))
    if not abscissa < -floor:
        raise CheckFailed(f"finite spectrum not in the open left half-plane: abscissa {abscissa:.3e}")
    return abscissa


def certify(plant, F, goal: str) -> np.ndarray:
    """Everything a certified feedback promises, checked from the formulas.

    ``goal="stabilize"``: W~ PSD, regular of index at most one, finite
    spectrum in the open left half-plane.  ``goal="passify"``: W~ PD and
    regular of index at most one.  Returns the finite spectrum.
    """
    A, _, _, W = closed_loop(plant, F)
    check_dissipation(W, strict=(goal == "passify"))
    spectrum = index_one_spectrum(plant.E, A)
    if spectrum is None:
        raise CheckFailed("closed loop is not regular of index at most one")
    if goal == "stabilize":
        check_stable(spectrum)
    return spectrum


def input_blocks(plant) -> tuple[np.ndarray, np.ndarray]:
    """The paper's reachable input directions ``B1 = B D^+ Q_S`` and
    ``B3 = B Z_D``, with Q_S spanning range S and Z_D spanning ker D."""
    B = plant.G - plant.P
    D = plant.S + plant.N
    m = D.shape[0]
    if m == 0:
        return np.zeros((B.shape[0], 0)), np.zeros((B.shape[0], 0))
    _, Q_S = kernel_and_range(plant.S)
    u, s, vh = np.linalg.svd(D)
    thr = RANK_RTOL * max(1.0, float(s[0]))
    if any(_decide(float(v), thr) is None for v in s):
        raise CheckFailed(f"rank of the feedthrough is not decided: singular values {s}")
    r = int(np.sum(s > thr))
    D_pinv = (vh[:r].T / s[:r]) @ u[:, :r].T
    return B @ D_pinv @ Q_S, B @ vh[r:].T


def check_axis_witness(plant, w: complex) -> float:
    """w lies on the imaginary axis and ``[w E - A, B1, B3]`` loses rank there.

    Returns the relative n-th singular value.
    """
    w = complex(w)
    if abs(w.real) > AXIS_RTOL * max(1.0, abs(w)):
        raise CheckFailed(f"witness {w} is not on the imaginary axis")
    B1, B3 = input_blocks(plant)
    M = np.hstack([w * plant.E - (plant.J - plant.R), B1, B3])
    s = np.linalg.svd(M, compute_uv=False)
    n = plant.E.shape[0]
    ratio = float(s[n - 1] / max(1.0, float(s[0])))
    if not ratio < 1e-8:
        raise CheckFailed(f"[wE - A, B1, B3] keeps full rank at witness {w}: "
                          f"sigma_n/sigma_1 = {ratio:.3e}")
    return ratio


def index_condition(plant) -> bool | None:
    """``rank [E, A Z_E, B1, B3] == n``; None when roundoff could decide it."""
    n = plant.E.shape[0]
    Z, _ = kernel_and_range(plant.E)
    B1, B3 = input_blocks(plant)
    M = np.hstack([plant.E, (plant.J - plant.R) @ Z, B1, B3])
    s = np.linalg.svd(M, compute_uv=False)
    if s.size < n:
        return False
    return _decide(float(s[n - 1]), RANK_RTOL * max(1.0, float(s[0])))


def passifiability_condition(plant) -> bool | None:
    """S positive definite and ``R + (B D^{-1} (G+P)^T + (G+P) D^{-T} B^T)/2``
    positive definite; None when an eigenvalue sits in the undecided band."""
    m = plant.S.shape[0]
    if m == 0:
        return False
    lam_s = np.linalg.eigvalsh(_sym(plant.S))
    s_pd = _decide(float(lam_s[0]), PD_RTOL * max(1.0, float(np.max(np.abs(lam_s)))))
    if s_pd is not True:
        return s_pd
    B = plant.G - plant.P
    T = 0.5 * B @ np.linalg.solve(plant.S + plant.N, (plant.G + plant.P).T)
    lam = np.linalg.eigvalsh(_sym(plant.R + T + T.T))
    return _decide(float(lam[0]), PD_RTOL * max(1.0, float(np.max(np.abs(lam)))))


def check_refusal(plant, witnesses) -> None:
    """A refused stabilization is justified: a witness shows the axis rank
    loss, or the index-reduction rank condition fails."""
    for w in witnesses:
        check_axis_witness(plant, w)
    if not witnesses and index_condition(plant) is True:
        raise CheckFailed("stabilization refused without a witness although "
                          "rank [E, A Z_E, B1, B3] = n")


def check_euler(plant, F, X: np.ndarray, U: np.ndarray, dt: float) -> float:
    """Every step satisfies ``(E - dt A) x_{k+1} = E x_k + dt B u_k`` to roundoff.

    Row k of U is the input held on step k.  Returns the worst relative
    step residual.
    """
    A, B, _, _ = closed_loop(plant, F)
    E = plant.E
    M = E - dt * A
    res = X[1:] @ M.T - X[:-1] @ E.T - dt * (U[:-1] @ B.T)
    nx = np.linalg.norm(X, axis=1)
    nu = np.linalg.norm(U[:-1], axis=1) if U.shape[1] else np.zeros(len(X) - 1)
    scale = (np.linalg.norm(M, 2) * nx[1:] + np.linalg.norm(E, 2) * nx[:-1]
             + dt * (np.linalg.norm(B, 2) if B.size else 0.0) * nu)
    worst = float(np.max(np.linalg.norm(res, axis=1) / np.maximum(scale, np.finfo(float).tiny)))
    if not worst <= 64 * E.shape[0] * EPS:
        raise CheckFailed(f"implicit-Euler recurrence violated: relative residual {worst:.3e}")
    return worst


def check_energy(plant, F, X: np.ndarray, U: np.ndarray, dt: float) -> float:
    """The discrete energy inequality ``H(x_{k+1}) - H(x_k) <= dt y_{k+1}^T u_k``
    with ``y_{k+1} = C x_{k+1} + D u_k``, at every step.

    For implicit Euler the gap is ``dt z^T W~ z + (dx)^T E (dx)/2 >= 0``.
    Returns the worst excess over zero, relative to the roundoff scale.
    """
    _, _, C, _ = closed_loop(plant, F)
    E = plant.E
    D = plant.S + plant.N
    H = 0.5 * np.einsum("ki,ij,kj->k", X, E, X)
    Uk = U[:-1]
    Y = X[1:] @ C.T + Uk @ D.T
    supply = np.einsum("ki,ki->k", Y, Uk)
    excess = H[1:] - H[:-1] - dt * supply
    nx2 = np.einsum("ki,ki->k", X, X)
    e_norm = float(np.linalg.norm(E, 2))
    slack = 64 * E.shape[0] * EPS * (e_norm * (nx2[1:] + nx2[:-1])
                                     + dt * np.abs(supply) + 1e-300)
    worst = float(np.max(excess / slack))
    if not worst <= 1.0:
        k = int(np.argmax(excess / slack))
        raise CheckFailed(f"discrete energy inequality violated at step {k}: "
                          f"excess {excess[k]:.3e} above roundoff {slack[k]:.3e}")
    return worst


def check_outputs(plant, F, X: np.ndarray, U: np.ndarray, Y: np.ndarray) -> None:
    """Sampled outputs equal ``C x_k + D u_k``."""
    _, _, C, _ = closed_loop(plant, F)
    D = plant.S + plant.N
    expect = X @ C.T + U @ D.T
    scale = 1.0 + np.abs(expect).max(initial=0.0)
    err = float(np.abs(Y - expect).max(initial=0.0))
    if not err <= 1e-10 * scale:
        raise CheckFailed(f"outputs differ from (G~+P~)^T x + (S+N) u by {err:.3e}")


def read_trajectory_csv(path, n: int, m: int) -> tuple[np.ndarray, ...]:
    """Parse a trajectory CSV back into (t, X, U, Y, H), checking its header."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
        expect = (["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(m)]
                  + [f"y{i + 1}" for i in range(m)] + ["H"])
        if header != expect:
            raise CheckFailed(f"trajectory header {header[:4]}... does not match n={n}, m={m}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 2 + n + 2 * m:
        raise CheckFailed(f"trajectory rows have {data.shape[1]} fields, expected {2 + n + 2 * m}")
    t = data[:, 0]
    X = data[:, 1:1 + n]
    U = data[:, 1 + n:1 + n + m]
    Y = data[:, 1 + n + m:1 + n + 2 * m]
    H = data[:, -1]
    return t, X, U, Y, H


def check_trajectory_file(plant, F, path, dt: float, steps: int) -> np.ndarray:
    """The CSV parses back; its time grid, H column, outputs, recurrence and
    energy inequality all hold.  Returns the parsed states."""
    n, m = plant.E.shape[0], plant.S.shape[0]
    t, X, U, Y, H = read_trajectory_csv(path, n, m)
    if t.shape[0] != steps + 1:
        raise CheckFailed(f"trajectory has {t.shape[0]} samples, expected {steps + 1}")
    if not np.allclose(t, np.arange(steps + 1) * dt, rtol=0.0, atol=1e-9 * max(1.0, steps * dt)):
        raise CheckFailed("trajectory time grid is not k * dt")
    H_own = 0.5 * np.einsum("ki,ij,kj->k", X, plant.E, X)
    if not np.allclose(H, H_own, rtol=1e-12, atol=1e-14):
        raise CheckFailed(f"H column differs from x^T E x / 2 by {np.abs(H - H_own).max():.3e}")
    check_outputs(plant, F, X, U, Y)
    check_euler(plant, F, X, U, dt)
    check_energy(plant, F, X, U, dt)
    return X
