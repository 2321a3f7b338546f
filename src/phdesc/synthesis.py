"""Construction of structure-preserving state feedbacks.

Two constructions are provided.  ``synthesize_stabilizing`` builds a feedback
that makes the closed loop port-Hamiltonian, regular, of index at most one,
and asymptotically stable; it exists exactly when the two rank conditions of
:mod:`phdesc.pencil` hold.  ``synthesize_passifying`` builds the closed-form
feedback that makes the closed loop strictly passive; it exists exactly when
``strict_passifiability_condition`` holds.

The stabilizing construction proceeds through two block compressions:

1. an orthogonal transformation of the feedthrough ``S + N`` that isolates
   the definite part of S (size m1), the remaining invertible skew part
   (size m2), and the kernel (size m3);
2. a nonsingular congruence Z of the state space, with orthogonal right
   factors V3 and V1, that staircases the transformed input blocks B3 and
   B1*S11^(1/2) against R into block sizes mu1..mu4.

The feedback is assembled block-wise: the m1-part injects dissipation
through the definite feedthrough, the m2-part is zero, and the m3-part acts
through the feedthrough kernel with a free diagonal gain ``-2*beta*I`` on
the mu1 block, where beta absorbs any indefiniteness plus the requested
margin.  The blocks that audit the construction numerically are recorded in
a :class:`SynthesisTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditionsNotMet, NotPSD, NotSkew, NumericalBreakdown, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    classify_definiteness,
    nullspace_basis,
    numerical_rank,
    range_basis,
    singular_value_rank,
    spectral_norm,
)
from .model import PHSystem
from .pencil import (
    imaginary_axis_full_rank,
    index_one_rank_condition,
    input_range_blocks,
    strict_passifiability_condition,
)


@dataclass(frozen=True)
class DCompression:
    """Orthogonal block form of the feedthrough ``S + N``.

    ``U = [U1, U2, U3]`` with U1 spanning the range of S, U3 the kernel of
    S+N, U2 the rest.  In these coordinates S+N becomes
    ``[[D11, D12, 0], [-D12^T, D22, 0], [0, 0, 0]]`` with the leading
    (m1+m2) group nonsingular, D22 skew, and ``S11 = U1^T S U1 > 0``.
    """

    U: np.ndarray
    m1: int
    m2: int
    m3: int
    D11: np.ndarray
    D12: np.ndarray
    D22: np.ndarray
    S11: np.ndarray

    @property
    def block_form(self) -> np.ndarray:
        """The compressed feedthrough assembled from the stored blocks."""
        m = self.m1 + self.m2 + self.m3
        T = np.zeros((m, m))
        T[: self.m1, : self.m1] = self.D11
        T[: self.m1, self.m1 : self.m1 + self.m2] = self.D12
        T[self.m1 : self.m1 + self.m2, : self.m1] = -self.D12.T
        T[self.m1 : self.m1 + self.m2, self.m1 : self.m1 + self.m2] = self.D22
        return T

    @property
    def dhat(self) -> np.ndarray:
        """Nonsingular right factor: the leading group bordered by identity."""
        T = self.block_form
        T[self.m1 + self.m2 :, self.m1 + self.m2 :] = np.eye(self.m3)
        return T


@dataclass
class SynthesisTrace:
    """The blocks of the stabilizing construction that its identities
    (transformed P, block form of the closed-loop dissipation) are checked on."""

    compression: DCompression
    B1: np.ndarray
    B3: np.ndarray
    P2: np.ndarray
    P3: np.ndarray
    F1: np.ndarray
    Z: np.ndarray
    mu: tuple[int, int, int, int]
    R11: np.ndarray
    R22: np.ndarray
    B12: np.ndarray
    P12: np.ndarray
    P13: np.ndarray
    P14: np.ndarray
    Phat11: np.ndarray
    Phat14: np.ndarray
    F31: np.ndarray


def compress_feedthrough(S, N, tol: ToleranceConfig = DEFAULT_TOL) -> DCompression:
    """Orthogonal compression of the feedthrough pair (S, N).

    Requires S symmetric PSD and N skew-symmetric.  The kernel of S+N is the
    intersection of the kernels of S and N, so the three column groups are
    mutually orthogonal by construction.
    """
    S = as_matrix(S)
    N = as_matrix(N)
    m = S.shape[0]
    if S.shape != (m, m) or N.shape != (m, m):
        raise ShapeMismatch("S and N must be square of equal size")
    scale_s = max(1.0, spectral_norm(S))
    if spectral_norm(S - S.T) > tol.psd_tol * scale_s:
        raise NotPSD("S must be symmetric")
    if not classify_definiteness(S, tol).is_semidefinite:
        raise NotPSD("S must be positive semidefinite")
    if spectral_norm(N + N.T) > tol.psd_tol * max(1.0, spectral_norm(N)):
        raise NotSkew("N must be skew-symmetric")

    D = S + N
    U3 = nullspace_basis(D, tol)
    U1 = range_basis(S, tol)
    U2 = nullspace_basis(np.hstack([U1, U3]).T, tol)
    U = np.hstack([U1, U2, U3])
    m1, m2, m3 = U1.shape[1], U2.shape[1], U3.shape[1]
    if m1 + m2 + m3 != m:
        raise NumericalBreakdown("feedthrough column groups do not span the input space")

    T = U.T @ D @ U
    S11 = U1.T @ S @ U1
    S11 = (S11 + S11.T) / 2.0
    D22 = T[m1 : m1 + m2, m1 : m1 + m2]
    return DCompression(
        U=U, m1=m1, m2=m2, m3=m3,
        D11=T[:m1, :m1],
        D12=T[:m1, m1 : m1 + m2],
        D22=(D22 - D22.T) / 2.0,
        S11=S11,
    )


def _pd_sqrt_invsqrt(S11: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if S11.shape[0] == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    w, V = np.linalg.eigh((S11 + S11.T) / 2.0)
    if w[0] <= 0:
        raise NumericalBreakdown("definite feedthrough block lost positive definiteness")
    return (V * np.sqrt(w)) @ V.T, (V / np.sqrt(w)) @ V.T


def _state_compression(B3, B1_shalf, R, tol):
    """Nonsingular Z and orthogonal V3, V1 staircasing (B3, B1*S11^(1/2), R).

    Target shapes, with row groups mu1..mu4:

        Z B3 V3          = [[I, 0], [0, 0], [0, 0], [0, 0]]
        Z B1 S^(1/2) V1  = [[0, B12], [I, 0], [0, 0], [0, 0]]
        Z R Z^T          = [[R11, R12, 0, 0], [R12^T, R22, 0, 0],
                            [0, 0, I, 0], [0, 0, 0, 0]]

    Stage one normalizes an echelon form of B3; stage two compresses the
    rows of B1*S^(1/2) below it, clearing the leading columns of its top
    rows; stage three zeroes the coupling of R into the remaining rows and
    congruence-scales the positive part there to the identity.  Later stages
    only add remaining rows into earlier ones, which leaves the established
    patterns intact.
    """
    n = R.shape[0]
    m3 = B3.shape[1]
    m1 = B1_shalf.shape[1]
    if m3 > 0:
        u, s, vh = np.linalg.svd(B3)
        mu1 = singular_value_rank(s, B3.shape, tol)
        V3 = vh.T
        Za = u.T.copy()
        Za[:mu1, :] /= s[:mu1, None]
    else:
        mu1 = 0
        V3 = np.zeros((0, 0))
        Za = np.eye(n)

    T = Za @ B1_shalf
    T_top, T_rest = T[:mu1, :], T[mu1:, :]
    if m1 > 0 and T_rest.shape[0] > 0:
        uc, sc, vch = np.linalg.svd(T_rest)
        mu2 = singular_value_rank(sc, T_rest.shape, tol)
        V1 = vch.T
        Y = uc.T.copy()
        Y[:mu2, :] /= sc[:mu2, None]
        Xc = np.zeros((mu1, T_rest.shape[0]))
        Xc[:, :mu2] = -(T_top @ V1)[:, :mu2] / sc[:mu2]
        X = Xc @ uc.T
    else:
        mu2 = 0
        V1 = np.eye(m1)
        Y = np.eye(T_rest.shape[0])
        X = np.zeros((mu1, T_rest.shape[0]))
    Zb = np.block([[np.eye(mu1), X], [np.zeros((T_rest.shape[0], mu1)), Y]])
    B12 = (T_top @ V1)[:, mu2:]

    Zab = Zb @ Za
    rho = mu1 + mu2
    Rp = Zab @ R @ Zab.T
    Rp = (Rp + Rp.T) / 2.0
    R_kr = Rp[:rho, rho:]
    R_rr = Rp[rho:, rho:]
    r = R_rr.shape[0]
    if r > 0:
        w, Q = np.linalg.eigh(R_rr)
        order = np.argsort(-w)
        w, Q = w[order], Q[:, order]
        # w[0] <= 0 puts the cutoff at or above w[0] (rank_rtol * r < 1): mu3 = 0.
        mu3 = singular_value_rank(w, R_rr.shape, tol)
        Yc = Q.T.copy()
        Yc[:mu3, :] /= np.sqrt(w[:mu3, None])
        Rrr_pinv = (Q[:, :mu3] / w[:mu3]) @ Q[:, :mu3].T
        Xc2 = -R_kr @ Rrr_pinv
    else:
        mu3 = 0
        Yc = np.zeros((0, 0))
        Xc2 = np.zeros((rho, 0))
    Zc = np.block([[np.eye(rho), Xc2], [np.zeros((r, rho)), Yc]])
    Z = Zc @ Zab
    mu4 = n - rho - mu3
    return Z, V3, V1, (mu1, mu2, mu3, mu4), B12


def build_stabilizing_feedback(
    sys: PHSystem,
    tol: ToleranceConfig = DEFAULT_TOL,
    margin: float = 1.0,
) -> tuple[np.ndarray, SynthesisTrace]:
    """Run the stabilizing construction without checking the existence
    conditions; see :func:`synthesize_stabilizing` for the guarded entry."""
    n, m = sys.n, sys.m
    dc = compress_feedthrough(sys.S, sys.N, tol)
    m1, m2, m3 = dc.m1, dc.m2, dc.m3
    U = dc.U

    dhat = dc.dhat
    try:
        B_blocks = np.linalg.solve(dhat.T, (sys.B @ U).T).T if m else np.zeros((n, 0))
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown("feedthrough block group is numerically singular") from exc
    B1 = B_blocks[:, :m1]
    B3 = B_blocks[:, m1 + m2 :]
    PU = sys.P @ U
    P1, P2, P3 = PU[:, :m1], PU[:, m1 : m1 + m2], PU[:, m1 + m2 :]

    F1 = -2.0 * (B1 @ dc.S11 + P1).T

    S11_half, S11_invhalf = _pd_sqrt_invsqrt(dc.S11)
    Z, V3, V1, mu, B12 = _state_compression(B3, B1 @ S11_half, sys.R, tol)
    mu1, mu2, mu3, mu4 = mu
    rho = mu1 + mu2

    Rz = Z @ sys.R @ Z.T
    Rz = (Rz + Rz.T) / 2.0
    R11 = Rz[:mu1, :mu1]
    R12 = Rz[:mu1, mu1:rho]
    R22 = Rz[mu1:rho, mu1:rho]

    Mp = V1.T @ S11_invhalf @ P1.T @ Z.T
    cuts = np.cumsum([mu1, mu2, mu3])
    P11, P12, P13, P14 = np.hsplit(Mp[:mu2, :], cuts)
    Phat11, Phat12, Phat13, Phat14 = np.hsplit(Mp[mu2:, :], cuts)

    F32 = 2.0 * (R12 + B12 @ Phat12 + P11.T)
    F33 = 2.0 * B12 @ Phat13
    F34 = np.zeros((mu1, mu4))
    K = R11 + B12 @ Phat11 + Phat11.T @ B12.T + B12 @ B12.T
    K = (K + K.T) / 2.0
    lam_min = float(np.linalg.eigvalsh(K)[0]) if mu1 else 0.0
    beta = margin + max(0.0, -lam_min)
    F31 = -2.0 * beta * np.eye(mu1)

    F3_rows = np.vstack([
        np.hstack([F31, F32, F33, F34]),
        np.zeros((m3 - mu1, n)),
    ])
    F3 = V3 @ np.linalg.solve(Z, F3_rows.T).T

    stacked = np.vstack([F1, np.zeros((m2, n)), F3])
    F = U @ np.linalg.solve(dhat, stacked) if m else np.zeros((0, n))

    trace = SynthesisTrace(
        compression=dc, B1=B1, B3=B3, P2=P2, P3=P3, F1=F1, Z=Z, mu=mu,
        R11=R11, R22=R22, B12=B12, P12=P12, P13=P13, P14=P14,
        Phat11=Phat11, Phat14=Phat14, F31=F31,
    )
    return F, trace


def synthesize_stabilizing(
    sys: PHSystem,
    tol: ToleranceConfig = DEFAULT_TOL,
    margin: float = 1.0,
) -> tuple[np.ndarray, SynthesisTrace]:
    """Feedback making the closed loop port-Hamiltonian, regular, of index
    at most one, and asymptotically stable.

    Refuses with :class:`ConditionsNotMet` (carrying the offending axis
    points) when the feedback-existence conditions fail, since no feedback
    can then achieve all four properties.
    """
    # stabilizability_rank_condition and index_reduction_rank_condition on one [B1, B3].
    B_in = np.hstack(input_range_blocks(sys, tol))
    ok_axis, witnesses = imaginary_axis_full_rank(sys.E, sys.A, B_in, tol)
    ok_index = index_one_rank_condition(sys.E, sys.A, B_in, tol)
    if not (ok_axis and ok_index):
        failed = []
        if not ok_axis:
            failed.append("stabilizability rank condition fails on the imaginary axis")
        if not ok_index:
            failed.append("index-reduction rank condition fails")
        raise ConditionsNotMet("; ".join(failed), witnesses=witnesses)
    return build_stabilizing_feedback(sys, tol, margin)


def passifying_feedback_formula(sys: PHSystem) -> np.ndarray:
    """Closed-form candidate ``F = -(S+N)^{-1}(G+P)^T - (S+N)^{-T}(G-P)^T``.

    Requires S+N invertible; does not check the existence condition.
    """
    D = sys.D
    if sys.m == 0:
        return np.zeros((0, sys.n))
    try:
        first = np.linalg.solve(D, (sys.G + sys.P).T)
        second = np.linalg.solve(D.T, sys.B.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown("feedthrough S+N is numerically singular") from exc
    return -(first + second)


def synthesize_passifying(sys: PHSystem, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Feedback making the closed loop strictly passive (dissipation matrix
    positive definite), which also forces regularity, index at most one, and
    asymptotic stability.

    Refuses with :class:`ConditionsNotMet` when S is not positive definite
    or the passifiability condition matrix is not positive definite.
    """
    if sys.m == 0 or not classify_definiteness(sys.S, tol).is_definite:
        raise ConditionsNotMet("S not positive definite")
    if not strict_passifiability_condition(sys, tol):
        raise ConditionsNotMet("passifiability condition matrix not positive definite")
    return passifying_feedback_formula(sys)


def feedback_admissible(R, B, F, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Dissipation-preservation certificate for a feedback acting through B:
    ``R~ = R - (B F + F^T B^T)/2`` stays PSD and keeps rank equal to
    ``rank [R, B]``."""
    R = as_matrix(R)
    B = as_matrix(B)
    F = as_matrix(F)
    n = R.shape[0]
    if R.shape != (n, n) or B.shape[0] != n or F.shape != (B.shape[1], n):
        raise ShapeMismatch("inconsistent shapes for admissibility check")
    K = B @ F
    R_cl = R - 0.5 * (K + K.T)
    if not classify_definiteness(R_cl, tol).is_semidefinite:
        return False
    return numerical_rank(R_cl, tol) == numerical_rank(np.hstack([R, B]), tol)
