"""Construction of structure-preserving state feedbacks.

Two constructions are provided.  ``synthesize_stabilizing`` builds a feedback
that makes the closed loop port-Hamiltonian, regular, of index at most one,
and asymptotically stable; it exists exactly when the two rank conditions of
:mod:`phdesc.pencil` hold.  ``synthesize_passifying`` builds the closed-form
feedback that makes the closed loop strictly passive; it exists exactly when
``strict_passifiability_condition`` holds.  Both read the conditions from
:func:`phdesc.pencil.feedback_analysis` instead of deciding them again.

The stabilizing construction proceeds through two block compressions:

1. the orthogonal compression of the feedthrough ``S + N`` that isolates
   the definite part of S (size m1), the remaining invertible skew part
   (size m2), and the kernel (size m3), from
   :func:`phdesc.pencil.compress_feedthrough`, the same split whose input
   blocks B1 and B3 the existence conditions were decided on; its S11 is
   the diagonal of S's kept singular values, so ``S11^(1/2)`` scales the
   columns of B1.  An S inside the PSD band can keep a negative eigenvalue
   above the rank cutoff, and S11 is then not ``U1^T S U1``; a Cholesky
   factorization of ``U1^T S U1`` finds it, and it is refused;
2. a nonsingular congruence Z of the state space, with orthogonal right
   factors V3 and V1, that staircases the transformed input blocks B3 and
   B1*S11^(1/2) against R into block sizes mu1..mu4.

The feedback is assembled block-wise: the m1-part injects dissipation
through the definite feedthrough, the m2-part is zero, and the m3-part acts
through the feedthrough kernel with a free diagonal gain ``-2*beta*I`` on
the mu1 block, where beta absorbs any indefiniteness plus the requested
margin.  Only the m3-part reads the state compression Z, so the compression
runs in the call when the kernel is nontrivial (m3 > 0), and otherwise on
the first call of the :class:`SynthesisTrace`'s ``blocks()``, which returns
the blocks that audit the construction numerically.  A block-size decision
without margin ("synthesis: mu1".."mu3") is refused with
``ToleranceBreakdown`` wherever the compression runs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .errors import ConditionsNotMet, NumericalBreakdown
from .linalg import DEFAULT_TOL, ToleranceConfig, decide_rank, rank_threshold
from .model import PHSystem
from .pencil import DCompression, feedback_analysis


@dataclass(frozen=True)
class SynthesisTrace:
    """The blocks of the stabilizing construction that its identities
    (transformed P, block form of the closed-loop dissipation) are checked on.

    The feedthrough split, the input blocks and F1 are fields.  ``blocks()``
    returns the blocks of the state compression by name (``Z``, ``mu``,
    ``R11``, ``R22``, ``B12``, ``P12``, ``P13``, ``P14``, ``Phat11``,
    ``Phat14``, ``F31`` and ``F3``), built on its first call unless the
    feedback already needed them (m3 > 0), and the same objects on every
    later call; a block-size refusal then rises at that call.  Two
    overlapping first calls may both build them, with the same bits."""

    compression: DCompression
    B1: np.ndarray
    B3: np.ndarray
    F1: np.ndarray
    blocks: Callable[[], dict] = field(repr=False)


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
    if B3.shape[1] > 0:
        u, s, vh = np.linalg.svd(B3)
        mu1 = decide_rank(s, rank_threshold(s, B3.shape, tol), "synthesis: mu1")
        V3 = vh.T
        Za = u.T.copy()
        Za[:mu1, :] /= s[:mu1, None]
    else:
        mu1 = 0
        V3 = np.zeros((0, 0))
        Za = np.eye(n)

    T = Za @ B1_shalf
    T_top, T_rest = T[:mu1, :], T[mu1:, :]
    uc, sc, vch = np.linalg.svd(T_rest)
    mu2 = decide_rank(sc, rank_threshold(sc, T_rest.shape, tol), "synthesis: mu2")
    V1 = vch.T
    Y = uc.T.copy()
    Y[:mu2, :] /= sc[:mu2, None]
    Xc = np.zeros((mu1, T_rest.shape[0]))
    Xc[:, :mu2] = -(T_top @ V1)[:, :mu2] / sc[:mu2]
    X = Xc @ uc.T
    Zb = np.block([[np.eye(mu1), X], [np.zeros((T_rest.shape[0], mu1)), Y]])
    B12 = (T_top @ V1)[:, mu2:]

    Zab = Zb @ Za
    rho = mu1 + mu2
    Rp = Zab @ R @ Zab.T
    Rp = (Rp + Rp.T) / 2.0
    R_kr = Rp[:rho, rho:]
    R_rr = Rp[rho:, rho:]
    r = R_rr.shape[0]
    w, Q = np.linalg.eigh(R_rr)
    order = np.argsort(-w)
    w, Q = w[order], Q[:, order]
    # w[0] <= 0 puts the cutoff at or above w[0] (rank_rtol * r < 1): mu3 = 0.
    mu3 = decide_rank(w, rank_threshold(w, R_rr.shape, tol), "synthesis: mu3")
    Yc = Q.T.copy()
    Yc[:mu3, :] /= np.sqrt(w[:mu3, None])
    Rrr_pinv = (Q[:, :mu3] / w[:mu3]) @ Q[:, :mu3].T
    Xc2 = -R_kr @ Rrr_pinv
    Zc = np.block([[np.eye(rho), Xc2], [np.zeros((r, rho)), Yc]])
    Z = Zc @ Zab
    mu4 = n - rho - mu3
    return Z, V3, V1, (mu1, mu2, mu3, mu4), B12


def _compression_blocks(sys: PHSystem, tol: ToleranceConfig, margin: float, B1, B3, P1,
                        s_half) -> dict:
    """The state compression and the m3-part F3 of the feedback, by the
    names that :class:`SynthesisTrace` lists; ``s_half`` is the diagonal
    of ``S11^(1/2)``."""
    n, m3 = sys.n, B3.shape[1]
    Z, V3, V1, mu, B12 = _state_compression(B3, B1 * s_half, sys.R, tol)
    mu1, mu2, mu3, mu4 = mu
    rho = mu1 + mu2

    Rz = Z @ sys.R @ Z.T
    Rz = (Rz + Rz.T) / 2.0
    R11 = Rz[:mu1, :mu1]
    R12 = Rz[:mu1, mu1:rho]
    R22 = Rz[mu1:rho, mu1:rho]

    Mp = V1.T @ (P1 / s_half).T @ Z.T
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
    return dict(Z=Z, mu=mu, R11=R11, R22=R22, B12=B12, P12=P12, P13=P13, P14=P14,
                Phat11=Phat11, Phat14=Phat14, F31=F31, F3=F3)


def _check_margin(margin: float):
    if not (np.isfinite(margin) and margin > 0):
        raise ValueError(f"margin must be finite and positive, got {margin}")


def build_stabilizing_feedback(
    sys: PHSystem,
    tol: ToleranceConfig = DEFAULT_TOL,
    margin: float = 1.0,
) -> tuple[np.ndarray, SynthesisTrace]:
    """Run the stabilizing construction on the feedthrough split and input
    blocks of :func:`phdesc.pencil.feedback_analysis`, without checking the
    existence conditions; see :func:`synthesize_stabilizing` for the guarded
    entry.

    The state compression runs here only when the feedthrough kernel is
    nontrivial (m3 > 0); otherwise F is ``U dhat^{-1} [F1; 0]`` and the
    compression waits for the first call of the trace's ``blocks()``, where
    a block-size refusal then rises.  Raises ValueError unless ``margin`` is
    finite and positive."""
    _check_margin(margin)
    analysis = feedback_analysis(sys, tol)
    sys, dc = analysis.sys, analysis.compression
    B1, B3 = analysis.input_blocks
    U1 = dc.U[:, : dc.m1]
    # An S inside the PSD band can keep a negative eigenvalue above the rank
    # cutoff; U1^T S U1 is then indefinite and not the diagonal S11.
    try:
        np.linalg.cholesky(U1.T @ sys.S @ U1)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown("definite feedthrough block lost positive definiteness") from exc
    P1 = (sys.P @ dc.U)[:, : dc.m1]
    F1 = -2.0 * (B1 @ dc.S11 + P1).T
    blocks = cache(partial(_compression_blocks, sys, tol, margin, B1, B3, P1,
                           np.sqrt(np.diagonal(dc.S11))))
    F3 = blocks()["F3"] if dc.m3 else np.zeros((0, sys.n))
    stacked = np.vstack([F1, np.zeros((dc.m2, sys.n)), F3])
    F = dc.U @ np.linalg.solve(dc.dhat, stacked)
    return F, SynthesisTrace(compression=dc, B1=B1, B3=B3, F1=F1, blocks=blocks)


def synthesize_stabilizing(
    sys: PHSystem,
    tol: ToleranceConfig = DEFAULT_TOL,
    margin: float = 1.0,
) -> tuple[np.ndarray, SynthesisTrace]:
    """Feedback making the closed loop port-Hamiltonian, regular, of index
    at most one, and asymptotically stable.

    Refuses with :class:`ConditionsNotMet` (carrying the offending axis
    points) when the feedback-existence conditions fail, since no feedback
    can then achieve all four properties, and raises ValueError unless
    ``margin`` is finite and positive.  A block-size refusal of the state
    compression rises here when S + N is singular (m3 > 0), else on the
    first call of the trace's ``blocks()``, such as ``trace.blocks()["mu"]``;
    see :func:`build_stabilizing_feedback`.
    """
    _check_margin(margin)
    analysis = feedback_analysis(sys, tol)
    ok_axis, witnesses = analysis.stabilizability
    ok_index = analysis.index_reducibility
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
    refusal = feedback_analysis(sys, tol).passifiability_refusal
    if refusal:
        raise ConditionsNotMet(refusal)
    return passifying_feedback_formula(sys)

