"""Structural analysis of matrix pencils ``s E - A``.

The workhorse is a staircase reduction with orthogonal transformations that
deflates a (possibly rectangular, possibly singular) real pencil into its
Kronecker constituents: right/left minimal indices, infinite elementary
divisors, and a square regular part with invertible E whose generalized
eigenvalues are the finite spectrum.  Each E-block is decomposed once.  The
first E-compression takes its SVD from :func:`phdesc.linalg.e_svd`, which
remembers it across calls (feedback keeps E, so a closed loop reuses the
plant's).  The left pass starts from the transpose of the right pass's last
SVD instead of taking its own.  :func:`pencil_report` remembers its last
``(E, A, tol)`` report the same way, so the existence conditions and the
synthesis of one system read the report that the analysis computed.

"Full row rank of ``[s E - A, B]`` on the imaginary axis" is decided at the
points where it can fail.  For a regular pencil the rank can drop only at
an eigenvalue (Hautus), so each eigenvalue of the report within axis_tol of
the axis is decided by one Popov-Belevitch-Hautus (PBH) SVD of
``[lam E - A, B]`` at lam itself, a conjugate pair at its member with
``Im lam >= 0``.  A singular pencil whose left minimal indices are all
zero, as every port-Hamiltonian one is (Mehl, Mehrmann & Wojtylak, SIMAX
2018), has a constant left kernel N0 off its spectrum: the rank drops
everywhere when ``N0^T B`` is rank-deficient, and one PBH test at s = 0
finds that.

:func:`compress_feedthrough` is the one split of the inputs by the feedthrough
``S + N``: the existence conditions read B1 and B3 off it, and
:mod:`phdesc.synthesis` builds the stabilizing feedback on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    HypothesisViolated,
    NotPSD,
    NotSkew,
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
    range_basis,
    rank_threshold,
    remembered,
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
class PencilReport:
    """Kronecker structure and stability class of the pencil ``s E - A`` of
    shape rows x cols; a rectangular pencil is singular."""

    rows: int
    cols: int
    finite_eigenvalues: np.ndarray          # complex, eigenvalues of the regular part
    infinite_block_sizes: tuple[int, ...]   # one entry per infinite elementary divisor
    right_minimal_indices: tuple[int, ...]  # epsilon value per right singular block
    left_minimal_indices: tuple[int, ...]   # eta value per left singular block
    stability_class: StabilityClass
    regular_A: np.ndarray = field(repr=False)
    regular_E: np.ndarray = field(repr=False)

    @property
    def n_regular(self) -> int:
        return self.regular_E.shape[0]

    @property
    def regular(self) -> bool:
        return (self.rows == self.cols
                and not self.right_minimal_indices
                and not self.left_minimal_indices)

    @property
    def index(self) -> int | None:
        """Largest infinite block size for regular pencils, else None."""
        if not self.regular:
            return None
        return max(self.infinite_block_sizes, default=0)

    @property
    def normal_rank(self) -> int:
        return self.cols - len(self.right_minimal_indices)

    @property
    def rank_E(self) -> int:
        # Each infinite and each right singular block leaves one kernel
        # column of E, so this is the staircase's own first E-compression.
        return self.normal_rank - len(self.infinite_block_sizes)

    @property
    def spectral_abscissa(self) -> float | None:
        """max Re(lambda), None when there is no finite spectrum."""
        evs = self.finite_eigenvalues
        return float(evs.real.max()) if evs.size else None

    @property
    def axis_distance(self) -> float | None:
        """min |Re(lambda)|, None when there is no finite spectrum."""
        evs = self.finite_eigenvalues
        return float(np.abs(evs.real).min()) if evs.size else None

    def dimension_accounting(self) -> tuple[int, int]:
        """Rows and columns implied by the block data; must equal (rows, cols)."""
        r = self.n_regular + sum(self.infinite_block_sizes)
        rows = r + sum(self.right_minimal_indices) + sum(e + 1 for e in self.left_minimal_indices)
        cols = r + sum(e + 1 for e in self.right_minimal_indices) + sum(self.left_minimal_indices)
        return rows, cols

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
            "infinite_block_sizes": list(self.infinite_block_sizes),
            "right_minimal_indices": list(self.right_minimal_indices),
            "left_minimal_indices": list(self.left_minimal_indices),
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


def kronecker_staircase(A, E, tol: ToleranceConfig = DEFAULT_TOL) -> PencilReport:
    """Kronecker structure and stability class of ``s E - A`` (rectangular allowed)."""
    A = as_matrix(A)
    E = as_matrix(E)
    if A.shape != E.shape:
        raise ShapeMismatch(f"pencil blocks differ in shape: {A.shape} vs {E.shape}")
    if np.iscomplexobj(A) or np.iscomplexobj(E):
        # The compressions use plain transposes, orthogonal only for real data.
        raise HypothesisViolated("the Kronecker staircase needs real E and A")
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

    re = finite.real
    if p != q or right_minimal or left_minimal:
        cls = StabilityClass.SINGULAR
    elif finite.size == 0 or np.all(re <= -tol.stability_margin):
        cls = StabilityClass.ASYMPTOTICALLY_STABLE
    elif np.any(re > tol.axis_tol):
        cls = StabilityClass.UNSTABLE
    elif _axis_eigenvalues_semisimple(finite, A_reg, E_reg, tol):
        cls = StabilityClass.STABLE_NOT_ASYMPTOTIC
    else:
        cls = StabilityClass.UNSTABLE

    report = PencilReport(
        rows=p,
        cols=q,
        finite_eigenvalues=finite,
        infinite_block_sizes=tuple(infinite_sizes),
        right_minimal_indices=tuple(right_minimal),
        left_minimal_indices=tuple(left_minimal),
        stability_class=cls,
        regular_A=A_reg,
        regular_E=E_reg,
    )
    if report.dimension_accounting() != (p, q):
        raise NumericalBreakdown("staircase block sizes do not account for the pencil shape")
    return report


def _axis_eigenvalues_semisimple(evs, A_reg, E_reg, tol: ToleranceConfig) -> bool:
    """Algebraic multiplicity equals rank deficiency of the shifted regular part.

    A real pencil's eigenvalues come in exact conjugate pairs whose shifted
    parts share their singular values, so each pair is decided at Im >= 0.
    """
    axis = evs[(np.abs(evs.real) <= tol.axis_tol) & (evs.imag >= 0)]
    seen: list[complex] = []
    for lam in axis:
        if any(abs(lam - mu) <= _CLUSTER_RTOL * max(1.0, abs(mu)) for mu in seen):
            continue
        seen.append(complex(lam))
        alg = int(np.sum(np.abs(evs - lam) <= _CLUSTER_RTOL * max(1.0, abs(lam))))
        geo = E_reg.shape[0] - numerical_rank(lam * E_reg - A_reg, tol)
        if geo < alg:
            return False
    return True


# remembered() slot of pencil_report: (key, report) of the last (E, A, tol).
_REPORT = None


def pencil_report(E, A, tol: ToleranceConfig = DEFAULT_TOL) -> PencilReport:
    """:func:`kronecker_staircase` of a square pencil ``s E - A``, remembered.

    The report of the last ``(E, A, tol)`` is remembered (see
    :func:`phdesc.linalg.remembered`); its arrays are read-only.
    """
    global _REPORT
    E = as_matrix(E)
    A = as_matrix(A)
    if E.shape[0] != E.shape[1] or A.shape != E.shape:
        raise NotSquare("pencil_report requires square E and A of equal shape")
    report, _REPORT = remembered(_REPORT, (E, A, tol), _pencil_report)
    return report


def _pencil_report(E, A, tol: ToleranceConfig) -> PencilReport:
    # Frozen only here: when nothing deflates, the regular part is a view of
    # the input, here the memo's private copy, after a direct call the
    # caller's array, which a read-only view would not stop from changing.
    report = kronecker_staircase(A, E, tol)
    for a in (report.finite_eigenvalues, report.regular_A, report.regular_E):
        a.flags.writeable = False
    return report


def _pbh_deficiency(E, A, B, lam: complex, tol: ToleranceConfig) -> int:
    """Rank deficiency of the n-row matrix ``[lam E - A, B]``.

    A singular value within a factor of ten of the rank threshold has no
    margin and raises.
    """
    # A point on the real line keeps the SVD real.
    M = np.hstack([(lam if lam.imag else lam.real) * E - A, B])
    s = np.linalg.svd(M, compute_uv=False)
    thr = rank_threshold(s, M.shape, tol)
    if np.any((s > thr / 10.0) & (s < 10.0 * thr)):
        kept, dropped = s[s > thr], s[s <= thr]
        raise ToleranceBreakdown(f"PBH test, s = {lam:.6g}", thr,
                                 float(kept[-1]) if kept.size else np.inf,
                                 float(dropped[0]) if dropped.size else 0.0)
    return int(np.sum(s <= thr))


def imaginary_axis_full_rank(E, A, B, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, list[complex]]:
    """Decide rank([s E - A, B]) == n for all s in the closed imaginary axis.

    B may have zero columns, in which case the pencil itself is tested.
    Returns the verdict and the offending points: each eigenvalue of
    ``s E - A`` within ``tol.axis_tol`` of the axis where the rank drops,
    with its conjugate, or ``[0j]`` for a singular pencil whose rank drops
    everywhere.  Raises :class:`ToleranceBreakdown` when a PBH test has no
    tenfold margin, and :class:`HypothesisViolated` for a singular pencil
    with a positive left minimal index (never port-Hamiltonian).
    """
    E = as_matrix(E)
    A = as_matrix(A)
    B = as_matrix(B) if B is not None else np.zeros((E.shape[0], 0))
    n = E.shape[0]
    if E.shape != (n, n) or A.shape != (n, n) or B.shape[0] != n:
        raise ShapeMismatch("imaginary_axis_full_rank expects n x n pencils and n x k B")
    rep = pencil_report(E, A, tol)
    if not rep.regular:
        if any(rep.left_minimal_indices):
            raise HypothesisViolated("singular pencil with a positive left minimal index: "
                                     "the rank of [s E - A, B] can drop off its spectrum")
        if _pbh_deficiency(E, A, B, 0j, tol):
            return False, [0j]
    evs = rep.finite_eigenvalues
    witnesses: list[complex] = []
    for lam in evs[(np.abs(evs.real) <= tol.axis_tol) & (evs.imag >= 0)]:
        if _pbh_deficiency(E, A, B, lam, tol):
            lam = complex(lam)
            witnesses += [lam, lam.conjugate()] if lam.imag else [lam]
    witnesses.sort(key=lambda z: (z.imag, z.real))
    return not witnesses, witnesses


def undamped_block_stability_condition(E, J, R, n1: int,
                                       tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Asymptotic-stability test for pencils whose dissipation is confined to
    a leading PD block ``R = diag(R11, 0)`` with ``R11`` of size n1.

    The pencil ``s E - (J - R)`` has all finite eigenvalues in the open left
    half plane exactly when the trailing block row
    ``[s E12^T + J12^T, s E22 - J22]`` keeps full row rank on the axis.  For
    symmetric E those rows are ``y^T [s E - (J - R)]`` over the y with
    ``y^T R = 0``, so this is :func:`imaginary_axis_full_rank` with B = R.
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
    return imaginary_axis_full_rank(E, J - R, R, tol)[0]


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
        k = self.m1 + self.m2
        T = np.zeros((k + self.m3, k + self.m3))
        T[:k, :k] = np.block([[self.D11, self.D12], [-self.D12.T, self.D22]])
        return T

    @property
    def dhat(self) -> np.ndarray:
        """Nonsingular right factor: the leading group bordered by identity."""
        T = self.block_form
        T[self.m1 + self.m2 :, self.m1 + self.m2 :] = np.eye(self.m3)
        return T

    def input_blocks(self, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(B1, B3)``: the columns of ``B U dhat^{-1}`` split at m1 and m1+m2.

        Since ``(S+N)^+ = U diag(group^{-1}, 0) U^T``, these are
        ``B (S+N)^+ U1`` and ``B U3``.
        """
        try:
            blocks = np.linalg.solve(self.dhat.T, (B @ self.U).T).T
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown("feedthrough block group is numerically singular") from exc
        return blocks[:, : self.m1], blocks[:, self.m1 + self.m2 :]


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
    # A zero violation is within any band, so its scale is never needed.
    asym = spectral_norm(S - S.T)
    if asym and asym > tol.psd_tol * max(1.0, spectral_norm(S)):
        raise NotPSD("S must be symmetric")
    if not classify_definiteness(S, tol).is_semidefinite:
        raise NotPSD("S must be positive semidefinite")
    sym = spectral_norm(N + N.T)
    if sym and sym > tol.psd_tol * max(1.0, spectral_norm(N)):
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


def input_range_blocks(sys: PHSystem, tol: ToleranceConfig = DEFAULT_TOL
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Feedback-reachable input directions split by the feedthrough.

    Returns ``(B1, B3) = ((G-P) (S+N)^+ U1, (G-P) U3)``, U1 and U3 the
    range of S and the kernel of S+N in :func:`compress_feedthrough`.  These
    are the input directions through which a feedback can inject
    dissipation.  Raises :class:`NotPSD` when S is not symmetric PSD.
    """
    return compress_feedthrough(sys.S, sys.N, tol).input_blocks(sys.B)


def stabilizability_rank_condition(sys: PHSystem, tol: ToleranceConfig = DEFAULT_TOL
                                   ) -> tuple[bool, list[complex]]:
    """Existence condition for a structure-preserving stabilizing feedback:
    ``[s E - (J - R), B1, B3]`` must keep full row rank on the imaginary axis.

    Decided as :func:`imaginary_axis_full_rank` decides it: by PBH tests at
    the eigenvalues that ``pencil_report(sys.E, sys.A, tol)`` puts within
    ``tol.axis_tol`` of the axis (the remembered report when the analysis
    made it), with a :class:`ToleranceBreakdown` when a test has no tenfold
    margin.  Returns the verdict and the offending points when it fails.
    """
    return imaginary_axis_full_rank(sys.E, sys.A, np.hstack(input_range_blocks(sys, tol)), tol)


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
