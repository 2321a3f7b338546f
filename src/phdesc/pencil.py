"""Structural analysis of matrix pencils ``s E - A``.

The workhorse is a staircase reduction with orthogonal transformations that
deflates a (possibly rectangular, possibly singular) pencil into its
Kronecker constituents: right/left minimal indices, infinite elementary
divisors, and a square regular part with invertible E whose generalized
eigenvalues are the finite spectrum.  Pencil reports and the generic
"full row rank on the whole imaginary axis" decisions go through this
reduction: the rank of ``[s E - A, B]`` drops below its normal value exactly
at the finite eigenvalues of the regular part of the augmented pencil.
Each E-block is decomposed once.  The first E-compression takes its SVD
from :func:`phdesc.linalg.e_svd`, which remembers it across calls (feedback
keeps E, so a closed loop reuses the plant's).  The left pass starts from
the transpose of the right pass's last SVD instead of taking its own.

The feedback-existence condition on port-Hamiltonian data takes a shorter
route.  A rank drop of ``[s E - (J - R), B]`` at ``s = i w`` needs a left
null vector y with ``R y = 0``, ``B^T y = 0`` and ``(i w E - J) y = 0``, so
only the kernel Z of ``[R; B^T]`` can carry one (widened to the directions
that R damps by less than axis_tol, where weakly damped modes live).  That
space is usually empty; otherwise the candidate points are the eigenvalues
of the small pencil ``(Z^T E Z, Z^T J Z)``, and each is decided by a
Popov-Belevitch-Hautus (PBH) rank test on ``[i w E - A, B]``.  Near-axis
modes and ill-conditioned ``Z^T E Z`` go back to the staircase.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    HypothesisViolated,
    NotSquare,
    NumericalBreakdown,
    ShapeMismatch,
    ToleranceBreakdown,
)
from .fileio import complex_pairs
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    classify_definiteness,
    e_svd,
    nullspace_basis,
    numerical_rank,
    pseudo_inverse,
    range_basis,
    rank_threshold,
    singular_value_rank,
    spectral_norm,
)
from .model import PHSystem

# The SVD-scaled standard eigenproblem drifts from QZ about in step with
# cond(E_reg) (near axis_tol at 1e8); above this sigma_max / sigma_min of
# E_reg, QZ decides instead.
_QZ_COND = 1e4

# Relative distance within which two computed eigenvalues count as one.
_CLUSTER_RTOL = 1e-8


class StabilityClass(enum.Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically_stable"
    STABLE_NOT_ASYMPTOTIC = "stable_not_asymptotic"
    UNSTABLE = "unstable"
    SINGULAR = "singular"


@dataclass(frozen=True)
class KroneckerSummary:
    """Block data of a staircase-reduced pencil ``s E - A`` of shape p x q."""

    rows: int
    cols: int
    normal_rank: int
    finite_eigenvalues: np.ndarray          # complex, eigenvalues of the regular part
    infinite_block_sizes: tuple[int, ...]   # one entry per infinite elementary divisor
    right_minimal_indices: tuple[int, ...]  # epsilon value per right singular block
    left_minimal_indices: tuple[int, ...]   # eta value per left singular block
    regular_A: np.ndarray = field(repr=False)
    regular_E: np.ndarray = field(repr=False)

    @property
    def n_regular(self) -> int:
        return self.regular_E.shape[0]

    @property
    def is_regular(self) -> bool:
        return (self.rows == self.cols
                and not self.right_minimal_indices
                and not self.left_minimal_indices)

    @property
    def index(self) -> int | None:
        """Largest infinite block size for regular pencils, else None."""
        if not self.is_regular:
            return None
        return max(self.infinite_block_sizes, default=0)

    def dimension_accounting(self) -> tuple[int, int]:
        """Rows and columns implied by the block data; must equal (rows, cols)."""
        inf_total = sum(self.infinite_block_sizes)
        r = self.n_regular + inf_total
        rows = r + sum(self.right_minimal_indices) + sum(e + 1 for e in self.left_minimal_indices)
        cols = r + sum(e + 1 for e in self.right_minimal_indices) + sum(self.left_minimal_indices)
        return rows, cols


@dataclass(frozen=True)
class PencilReport:
    regular: bool
    index: int | None                      # None when the pencil is singular
    finite_eigenvalues: np.ndarray
    rank_E: int
    stability_class: StabilityClass
    spectral_abscissa: float | None        # max Re(lambda), None when no finite spectrum
    axis_distance: float | None            # min |Re(lambda)|, None when no finite spectrum
    summary: KroneckerSummary = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "kind": "pencil",
            "regular": bool(self.regular),
            "index": self.index,
            "rank_E": int(self.rank_E),
            "stability_class": self.stability_class.value,
            "finite_eigenvalues": complex_pairs(self.finite_eigenvalues),
            "spectral_abscissa": self.spectral_abscissa,
            "axis_distance": self.axis_distance,
            "infinite_block_sizes": list(self.summary.infinite_block_sizes),
            "right_minimal_indices": list(self.summary.right_minimal_indices),
            "left_minimal_indices": list(self.summary.left_minimal_indices),
        }


def _decide_rank(s: np.ndarray, thr: float, stage: str) -> int:
    r = int(np.sum(s > thr))
    kept_min = float(s[r - 1]) if r > 0 else np.inf
    dropped_max = float(s[r]) if r < s.size else 0.0
    if kept_min < 10.0 * thr and dropped_max > thr / 10.0:
        raise ToleranceBreakdown(stage, thr, kept_min, dropped_max)
    return r


def _deflate_right_and_infinite(A, E, thr_a, thr_e, stage, svd_e=None):
    """Alternating kernel-column / row compressions of ``s E - A``.

    Per step j records nu_j (kernel width of E) and s_j (row rank of A on
    that kernel), then deflates to the trailing subpencil.  Terminates with
    E of full column rank.  Thresholds are anchored at the original pencil
    norms so that later stages keep a consistent notion of "zero".
    ``svd_e``, when given, is the full SVD of E and serves as step 1's;
    it may be read-only.

    Also returns the full SVD ``(U, s, Vh)`` of the final E taken at the
    step that found it of full column rank, or None when no columns remain.
    """
    nu, ss = [], []
    Ac, Ec = A, E
    step = 1
    svd_final = None
    while Ec.shape[1] > 0:
        q = Ec.shape[1]
        u_e, s_e, vh_e = np.linalg.svd(Ec) if svd_e is None else svd_e
        svd_e = None
        r_e = _decide_rank(s_e, thr_e, f"{stage}: E-compression, step {step}")
        k = q - r_e
        if k == 0:
            svd_final = (u_e, s_e, vh_e)
            break
        V = np.hstack([vh_e[r_e:, :].T, vh_e[:r_e, :].T])
        An, En = Ac @ V, Ec @ V
        u_a, s_a, _ = np.linalg.svd(An[:, :k])
        r_a = _decide_rank(s_a, thr_a, f"{stage}: A-compression, step {step}")
        Ac = (u_a.T @ An)[r_a:, k:]
        Ec = (u_a.T @ En)[r_a:, k:]
        nu.append(k)
        ss.append(r_a)
        step += 1
    return nu, ss, Ac, Ec, svd_final


def _minimal_and_infinite(nu, ss, stage):
    """Right minimal indices and infinite divisor sizes from the step counts.

    nu_j - s_j blocks have minimal index j-1; the infinite divisors of size
    at least j number s_j minus the minimal indices that are still alive at
    later steps.
    """
    K = len(nu)
    minimal = []
    for j in range(1, K + 1):
        minimal.extend([j - 1] * (nu[j - 1] - ss[j - 1]))
    inf_geq = []
    for j in range(1, K + 1):
        alive_minimal = sum(nu[i - 1] - ss[i - 1] for i in range(j + 1, K + 1))
        inf_geq.append(ss[j - 1] - alive_minimal)
    inf_geq.append(0)
    sizes = []
    for j in range(1, K + 1):
        count = inf_geq[j - 1] - inf_geq[j]
        if count < 0:
            raise NumericalBreakdown(f"inconsistent staircase counts at {stage}")
        sizes.extend([j] * count)
    return minimal, sizes


def _regular_eigenvalues(A_reg, E_reg, svd_e2t) -> np.ndarray:
    """Eigenvalues of ``s E_reg - A_reg`` with E_reg invertible.

    With ``E_reg^T = U diag(sigma) Vh`` (the left pass's last SVD),
    ``s E_reg - A_reg = Vh^T (s diag(sigma) - Vh A_reg U) U^T``, so the
    spectrum is that of ``sigma^{-1/2} (Vh A_reg U) sigma^{-1/2}``.  QZ
    takes over when E_reg is too ill-conditioned for that scaling.
    """
    u, sigma, vh = svd_e2t
    if sigma[0] > _QZ_COND * sigma[-1]:
        import scipy.linalg

        return scipy.linalg.eigvals(A_reg, E_reg)
    d = 1.0 / np.sqrt(sigma)
    M = (vh @ A_reg @ u) * d[:, None] * d[None, :]
    return np.linalg.eigvals(M).astype(complex)


def kronecker_staircase(A, E, tol: ToleranceConfig = DEFAULT_TOL) -> KroneckerSummary:
    """Kronecker block data of the pencil ``s E - A`` (rectangular allowed)."""
    A = as_matrix(A)
    E = as_matrix(E)
    if A.shape != E.shape:
        raise ShapeMismatch(f"pencil blocks differ in shape: {A.shape} vs {E.shape}")
    p, q = A.shape
    maxdim = max(p, q, 1)
    svd_e = e_svd(E) if q else None
    s_e = svd_e[1] if q else np.zeros(0)
    thr_e = tol.rank_rtol * maxdim * (float(s_e[0]) if s_e.size else 0.0)
    thr_a = tol.rank_rtol * maxdim * spectral_norm(A)

    nu_r, ss_r, A1, E1, svd_e1 = _deflate_right_and_infinite(
        A, E, thr_a, thr_e, "right pass", svd_e)
    right_minimal, infinite_sizes = _minimal_and_infinite(nu_r, ss_r, "right pass")

    # E1 = U diag(s) Vh, so E1^T = Vh^T diag(s) U^T is the left pass's step 1.
    svd_e1t = None if svd_e1 is None else (svd_e1[2].T, svd_e1[1], svd_e1[0].T)
    nu_l, ss_l, A2t, E2t, svd_e2t = _deflate_right_and_infinite(
        A1.T, E1.T, thr_a, thr_e, "left pass", svd_e1t)
    left_minimal, leftover = _minimal_and_infinite(nu_l, ss_l, "left pass")
    if leftover:
        raise NumericalBreakdown("left pass uncovered infinite structure; "
                                 "rank decisions are inconsistent")

    A_reg, E_reg = A2t.T, E2t.T
    if A_reg.shape[0] != A_reg.shape[1]:
        raise NumericalBreakdown("regular part is not square after deflation")
    if A_reg.shape[0]:
        finite = _regular_eigenvalues(A_reg, E_reg, svd_e2t)
        if not np.all(np.isfinite(finite)):
            raise NumericalBreakdown("non-finite eigenvalues in the deflated regular part")
    else:
        finite = np.zeros(0, dtype=complex)

    summary = KroneckerSummary(
        rows=p,
        cols=q,
        normal_rank=q - len(right_minimal),
        finite_eigenvalues=finite,
        infinite_block_sizes=tuple(infinite_sizes),
        right_minimal_indices=tuple(right_minimal),
        left_minimal_indices=tuple(left_minimal),
        regular_A=A_reg,
        regular_E=E_reg,
    )
    if summary.dimension_accounting() != (p, q):
        raise NumericalBreakdown("staircase block sizes do not account for the pencil shape")
    return summary


def _cluster_multiplicity(evs: np.ndarray, lam: complex) -> int:
    return int(np.sum(np.abs(evs - lam) <= _CLUSTER_RTOL * max(1.0, abs(lam))))


def _axis_eigenvalues_semisimple(summary: KroneckerSummary, tol: ToleranceConfig) -> bool:
    """Algebraic multiplicity equals rank deficiency of the shifted regular part.

    A real pencil's eigenvalues come in exact conjugate pairs whose shifted
    parts share their singular values, so each pair is decided at Im >= 0.
    """
    evs = summary.finite_eigenvalues
    axis = evs[(np.abs(evs.real) <= tol.axis_tol) & (evs.imag >= 0)]
    seen: list[complex] = []
    for lam in axis:
        if any(abs(lam - mu) <= _CLUSTER_RTOL * max(1.0, abs(mu)) for mu in seen):
            continue
        seen.append(complex(lam))
        alg = _cluster_multiplicity(evs, lam)
        shifted = lam * summary.regular_E - summary.regular_A
        geo = summary.n_regular - numerical_rank(shifted, tol)
        if geo < alg:
            return False
    return True


def pencil_report(E, A, tol: ToleranceConfig = DEFAULT_TOL) -> PencilReport:
    """Regularity, index, finite spectrum, and stability class of ``s E - A``."""
    E = as_matrix(E)
    A = as_matrix(A)
    if E.shape[0] != E.shape[1] or A.shape != E.shape:
        raise NotSquare("pencil_report requires square E and A of equal shape")
    summary = kronecker_staircase(A, E, tol)
    evs = summary.finite_eigenvalues
    re = evs.real
    abscissa = float(re.max()) if evs.size else None
    axis_dist = float(np.abs(re).min()) if evs.size else None

    if not summary.is_regular:
        cls = StabilityClass.SINGULAR
    elif evs.size == 0 or np.all(re <= -tol.stability_margin):
        cls = StabilityClass.ASYMPTOTICALLY_STABLE
    elif np.any(re > tol.axis_tol):
        cls = StabilityClass.UNSTABLE
    elif _axis_eigenvalues_semisimple(summary, tol):
        cls = StabilityClass.STABLE_NOT_ASYMPTOTIC
    else:
        cls = StabilityClass.UNSTABLE

    return PencilReport(
        regular=summary.is_regular,
        index=summary.index,
        finite_eigenvalues=evs,
        # Each infinite and each right singular block leaves one kernel
        # column of E, so this is the staircase's own first E-compression.
        rank_E=(summary.cols - len(summary.infinite_block_sizes)
                - len(summary.right_minimal_indices)),
        stability_class=cls,
        spectral_abscissa=abscissa,
        axis_distance=axis_dist,
        summary=summary,
    )


def _axis_full_row_rank(M, K, tol: ToleranceConfig) -> tuple[bool, list[complex]]:
    """Decide rank(s M - K) == rows for every s on the imaginary axis.

    Returns the offending s values: the axis eigenvalues of the regular
    part, plus s = 0 as a representative witness when the normal rank is
    already deficient (then every axis point offends).
    """
    M = as_matrix(M)
    K = as_matrix(K)
    p = M.shape[0]
    if p == 0:
        return True, []
    summary = kronecker_staircase(K, M, tol)
    deficient = summary.normal_rank < p
    evs = summary.finite_eigenvalues
    witnesses = [complex(l) for l in evs[np.abs(evs.real) <= tol.axis_tol]]
    witnesses.sort(key=lambda z: (z.imag, z.real))
    if deficient and not witnesses:
        witnesses = [0j]
    return (not deficient) and not witnesses, witnesses


def imaginary_axis_full_rank(E, A, B, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, list[complex]]:
    """Decide rank([s E - A, B]) == n for all s in the closed imaginary axis.

    B may have zero columns, in which case the pencil itself is tested.
    """
    E = as_matrix(E)
    A = as_matrix(A)
    B = as_matrix(B) if B is not None else np.zeros((E.shape[0], 0))
    n = E.shape[0]
    if E.shape != (n, n) or A.shape != (n, n) or B.shape[0] != n:
        raise ShapeMismatch("imaginary_axis_full_rank expects n x n pencils and n x k B")
    M = np.hstack([E, np.zeros((n, B.shape[1]))])
    K = np.hstack([A, B])
    return _axis_full_row_rank(M, K, tol)


def _pbh_deficiency(E, A, B, omega: float, tol: ToleranceConfig,
                    axis_band: float) -> tuple[int, float, bool]:
    """Rank deficiency of ``[i w E - A, B]``, its rank threshold thr,
    and whether a singular value above thr is at most ``axis_band``.

    A singular value within a factor of ten of thr has no margin and raises.
    """
    M = np.hstack([1j * omega * E - A, B]) if omega else np.hstack([-A, B])
    s = np.linalg.svd(M, compute_uv=False)
    thr = rank_threshold(s, M.shape, tol)
    near = (s > thr / 10.0) & (s < 10.0 * thr)
    if near.any():
        kept, dropped = s[s > thr], s[s <= thr]
        raise ToleranceBreakdown(f"PBH test, s = {omega:.6g}i", thr,
                                 float(kept[-1]) if kept.size else np.inf,
                                 float(dropped[0]) if dropped.size else 0.0)
    return int(np.sum(s <= thr)), thr, bool(np.any((s > thr) & (s <= axis_band)))


def _ph_axis_full_rank(sys: PHSystem, B_in, tol: ToleranceConfig) -> tuple[bool, list[complex]]:
    """:func:`imaginary_axis_full_rank` of ``(E, J - R, B_in)`` for
    port-Hamiltonian data (E symmetric, J skew, R positive semidefinite).

    A left null vector y of ``[lam E - A, B_in]`` has ``B_in^T y = 0`` and
    ``Re lam = -y^H R y / y^H E y``.  A mode on the axis thus has
    ``R y = 0``, and one within axis_tol of it has ``y^H R y`` at most
    ``axis_tol ||E||``.  So y lies in the span Z of the directions of
    ``ker B_in^T`` whose R Rayleigh quotient is that small, and ``Im lam``
    is near an eigenvalue of ``(Z^T E Z, Z^T J Z)``, whose spectrum is
    imaginary when ``Z^T E Z`` is definite.  Both cutoffs are taken ten
    times above their thresholds: a wider Z only adds candidates.

    Each candidate point is decided by a PBH test.  Exact drops and full
    rank are read off it directly.  A singular value above the threshold
    but within ``10 axis_tol ||E Z||`` may belong to a weakly damped mode
    (``sigma_n([i w E - A, B_in]) <= |i w - lam| ||E y||``); its real part
    decides, so the staircase does.  The staircase also decides when
    ``Z^T E Z`` is too ill-conditioned to place the candidates within the
    PBH resolution.
    """
    E, A, n, k = sys.E, sys.A, sys.n, B_in.shape[1]
    # Frobenius norms bound the 2-norms from above, so every cutoff below
    # errs toward a wider Z or toward the staircase.
    e_norm = np.linalg.norm(E)
    W = np.eye(n)
    if k:
        u, s, _ = np.linalg.svd(B_in)
        b_cut = 10.0 * tol.rank_rtol * (n + k) * np.hypot(np.linalg.norm(A), s[0])
        W = u[:, int(np.sum(s > b_cut)):]
    mu, U = np.linalg.eigh(W.T @ sys.R @ W)
    r_cut = 10.0 * max(tol.axis_tol * e_norm, tol.rank_rtol * n * np.linalg.norm(sys.R))
    Z = W @ U[:, mu <= r_cut]
    d = Z.shape[1]
    if d == 0:
        return True, []
    Ed = Z.T @ E @ Z
    lam, V = np.linalg.eigh((Ed + Ed.T) / 2.0)
    EZ = E @ Z
    ez_norm = np.sqrt(np.linalg.eigvalsh(EZ.T @ EZ)[-1])
    # A computed candidate is off by about eps (||J|| + |w| ||E||) / lam_min
    # and moves sigma_n by that times ||E Z||.  The PBH threshold is
    # rank_rtol (n + k) sigma_1 with sigma_1 >= max(||J||, |w| ||E||), so at
    # the default rank_rtol of 256 eps, while ||E Z|| < 10 (n + k) lam_min,
    # an exact drop still reads below a tenth of it.
    if 10.0 * (n + k) * lam[0] <= ez_norm:
        return imaginary_axis_full_rank(E, A, B_in, tol)
    axis_band = 10.0 * tol.axis_tol * ez_norm
    T = V / np.sqrt(lam)
    Jd = Z.T @ sys.J @ Z
    K = T.T @ ((Jd - Jd.T) / 2.0) @ T
    # K is real skew: i K is Hermitian with eigenvalues +-w in exact pairs,
    # plus one 0 when d is odd.  Each pair is decided at its w >= 0; a point
    # carries the number of eigenvalues of K it stands for.
    w = np.linalg.eigvalsh(1j * K)
    points = sorted(([(0.0, 1)] if d % 2 else [])
                    + [(abs(float(x)), 2) for x in w[(d + 1) // 2:]])
    witnesses: list[complex] = []
    near_axis = False
    i = 0
    while i < len(points):
        omega = points[i][0]
        drops, thr, near = _pbh_deficiency(E, A, B_in, omega, tol, axis_band)
        near_axis |= near
        # Points closer than the PBH resolution in w are one point: a
        # computed multiple eigenvalue, or a +-w pair at s = 0.
        resolution = thr / (10.0 * e_norm)
        j = i + 1
        while j < len(points) and points[j][0] - omega <= resolution:
            j += 1
        if omega <= resolution:
            witnesses += [0j] * min(drops, sum(c for _, c in points[i:j]))
        else:
            witnesses += [complex(0.0, omega), complex(0.0, -omega)] * min(drops, j - i)
        i = j
    witnesses.sort(key=lambda z: (z.imag, z.real))
    if near_axis:
        ok, axis_witnesses = imaginary_axis_full_rank(E, A, B_in, tol)
        # A drop that PBH read below a tenth of its threshold stands even
        # where the staircase misses it.
        if not ok or not witnesses:
            return ok, axis_witnesses
    return not witnesses, witnesses


def undamped_block_stability_condition(E, J, R, n1: int,
                                       tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Asymptotic-stability test for pencils whose dissipation is confined to
    a leading PD block ``R = diag(R11, 0)`` with ``R11`` of size n1.

    The pencil ``s E - (J - R)`` has all finite eigenvalues in the open left
    half plane exactly when the trailing block row
    ``[s E12^T + J12^T, s E22 - J22]`` keeps full row rank on the axis.
    """
    E = as_matrix(E)
    J = as_matrix(J)
    R = as_matrix(R)
    n = E.shape[0]
    if not (E.shape == J.shape == R.shape == (n, n)):
        raise ShapeMismatch("E, J, R must be square of equal size")
    if not 0 <= n1 <= n:
        raise ShapeMismatch(f"n1 must be in [0, {n}]")
    scale = max(1.0, spectral_norm(R))
    off = spectral_norm(R[:n1, n1:])
    trailing = spectral_norm(R[n1:, n1:])
    if off > tol.psd_tol * scale or trailing > tol.psd_tol * scale:
        raise HypothesisViolated("R is not of the block form diag(R11, 0)")
    if n1 > 0 and not classify_definiteness(R[:n1, :n1], tol).is_definite:
        raise HypothesisViolated("leading dissipation block R11 is not positive definite")
    n2 = n - n1
    if n2 == 0:
        return True
    M = np.hstack([E[:n1, n1:].T, E[n1:, n1:]])
    K = np.hstack([-J[:n1, n1:].T, J[n1:, n1:]])
    ok, _ = _axis_full_row_rank(M, K, tol)
    return ok


def undamped_block_nonsingularity_condition(J, n1: int,
                                            tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Companion rank test: with ``R = diag(R11 > 0, 0)``, the matrix
    ``J - R`` is nonsingular exactly when ``[-J12^T, J22]`` has full row rank."""
    J = as_matrix(J)
    n = J.shape[0]
    if J.shape != (n, n) or not 0 <= n1 <= n:
        raise ShapeMismatch("J must be square and n1 within range")
    n2 = n - n1
    if n2 == 0:
        return True
    M = np.hstack([-J[:n1, n1:].T, J[n1:, n1:]])
    return numerical_rank(M, tol) == n2


def input_range_blocks(sys: PHSystem, tol: ToleranceConfig = DEFAULT_TOL
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Feedback-reachable input directions split by the feedthrough.

    Returns ``(B1, B3)`` with ``B1 = (G-P) (S+N)^+ Q_S`` (Q_S an orthonormal
    range basis of S) and ``B3 = (G-P) Z_D`` (Z_D an orthonormal nullspace
    basis of S+N).  These are the input directions through which a feedback
    can inject dissipation.
    """
    D = sys.D
    B1 = sys.B @ pseudo_inverse(D, tol) @ range_basis(sys.S, tol)
    B3 = sys.B @ nullspace_basis(D, tol)
    return B1, B3


def stabilizability_rank_condition(sys: PHSystem, tol: ToleranceConfig = DEFAULT_TOL
                                   ) -> tuple[bool, list[complex]]:
    """Existence condition for a structure-preserving stabilizing feedback:
    ``[s E - (J - R), B1, B3]`` must keep full row rank on the imaginary axis.

    Decided by PBH tests on the kernel of ``[R; B1^T; B3^T]``, with a
    :class:`ToleranceBreakdown` when a test has no tenfold margin; a mode
    within ``tol.axis_tol`` of the axis fails it, as in :func:`pencil_report`.
    Returns the verdict and the offending axis points when it fails.
    """
    return _ph_axis_full_rank(sys, np.hstack(input_range_blocks(sys, tol)), tol)


def index_reduction_rank_condition(sys: PHSystem, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Existence condition for regularity and index at most one under
    structure-preserving feedback: ``[E, (J-R) Z_E, B1, B3]`` has rank n,
    with Z_E an orthonormal nullspace basis of E."""
    return index_one_rank_condition(sys.E, sys.A, np.hstack(input_range_blocks(sys, tol)), tol)


def strict_passifiability_condition(sys: PHSystem, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Existence condition for a strictly passifying feedback: S must be
    positive definite and so must
    ``R + (G-P)(S+N)^{-1}(G+P)^T / 2 + (G+P)(S+N)^{-T}(G-P)^T / 2``."""
    if sys.m == 0:
        return False
    if not classify_definiteness(sys.S, tol).is_definite:
        return False
    T = 0.5 * sys.B @ np.linalg.solve(sys.D, (sys.G + sys.P).T)
    return classify_definiteness(sys.R + T + T.T, tol).is_definite


def index_one_rank_condition(E, A, B, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Rank test guaranteeing that dissipation-preserving feedback through B
    yields a regular pencil of index at most one: rank([E, A Z_E, B]) == n."""
    E = as_matrix(E)
    A = as_matrix(A)
    B = as_matrix(B) if B is not None else np.zeros((E.shape[0], 0))
    n = E.shape[0]
    if E.shape != (n, n) or A.shape != (n, n) or B.shape[0] != n:
        raise ShapeMismatch("index_one_rank_condition expects n x n pencils and n x k B")
    _, s, vh = e_svd(E)
    Z_E = vh[singular_value_rank(s, E.shape, tol):, :].T
    return numerical_rank(np.hstack([E, A @ Z_E, B]), tol) == n
