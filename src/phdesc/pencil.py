"""Structural analysis of matrix pencils ``s E - A``.

:func:`pencil_report`, the one entry, deflates a real pencil, rectangular or
singular, by orthogonal staircase steps into its Kronecker constituents:
minimal indices, infinite elementary divisors and a square regular part
with invertible E.  No other module decomposes a pencil's E: the report
hands out E's kernel and cokernel, and every memo of the package lives here
(:func:`remembered`).  A bitwise symmetric E, as every port-Hamiltonian one
is, takes one ``eigh`` whose factors are its SVD and whose eigenvalues also
give validate's ``e_psd`` and the dissipation bound (:func:`_decompose_e`);
near the staircase's first cutoff the SVD decides instead.

A square pencil of index at most one, as every closed loop of the syntheses
is, leaves after the SVD of E in the semi-explicit form (Kunkel & Mehrmann,
EMS 2006): with ``E = [U1 U2] diag(Sigma, 0) [V1 V2]^T`` it is decided by
the block ``A22 = U2^T A V2`` on ker E, and its regular part is
``s Sigma - (A11 - A12 A22^{-1} A21)``.  A square pencil with a symmetric E
that fails the exit is split, before any staircase step, on the common
kernel of E, A and A^T: k zero blocks, minimal indices 0 on both sides (Van
Dooren, LAA 1979), which every singular port-Hamiltonian pencil has.  One
SVD of the 2n x k_E stack ``[A Z; A^T Z]``, Z the kernel of E, finds it,
and the rest, a congruence of the pencil, takes the exit
(:func:`_split_common_kernel`).  Any other pencil, or one where a step of
the split finds no margin, takes the staircase.

Full row rank of ``[s E - A, B]`` on the imaginary axis can fail, for a
regular pencil, only at an eigenvalue (Hautus), so each eigenvalue within
axis_tol of the axis takes one Popov-Belevitch-Hautus (PBH) test.  A
singular pencil whose left minimal indices are all zero, as every
port-Hamiltonian one is (Mehl, Mehrmann & Wojtylak, SIMAX 2018), has a
constant left kernel N0 off its spectrum: the rank drops everywhere when
``N0^T B`` is rank-deficient, and one PBH test at s = 0 finds that.

The three existence conditions are lazy parts of one remembered
:class:`FeedbackAnalysis` per system and tolerance, which both syntheses
read.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from collections.abc import Callable
from functools import cached_property, partial

import numpy as np

from .errors import (
    HypothesisViolated,
    NotPSD,
    NotSkew,
    NumericalBreakdown,
    ShapeMismatch,
    ToleranceBreakdown,
)
from .fileio import complex_pairs
from .linalg import (
    DEFAULT_TOL,
    Definiteness,
    ToleranceConfig,
    as_matrix,
    classify_definiteness,
    decide_rank,
    deficiency,
    numerical_rank,
    rank_threshold,
    row_deficiency,
    spectral_norm,
)
from .model import PHSystem

logger = logging.getLogger(__name__)

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
    shape rows x cols; a rectangular pencil is singular.

    The block sizes, the read-only regular part and the dissipation bound
    are decided when the report is made.  The finite spectrum
    (``eigensolve`` on the regular part) and the stability class are each
    computed when first read, and then kept.  A spectrum-stage
    :class:`NumericalBreakdown` rises at the first read of the spectrum,
    and the :class:`ToleranceBreakdown` of an axis eigenvalue's
    multiplicity, which only the class decides, at the first read of the
    class.

    ``kernel_E`` (cols x (cols - rank_E)) and ``cokernel_E``
    (rows x (rows - rank_E)) are orthonormal bases of the kernel and the
    cokernel of E at ``rank_E``: read-only views of the trailing columns of
    V and U in the SVD of E that the report was decided on.

    ``dissipation_bound`` is the :class:`DissipationBound` of a square
    pencil with ``E == E^T`` bitwise: the whole pencil's when the report is
    regular, and on a common-kernel split that of the regular rest
    ``Q^T (s E - A) Q`` (see :func:`_split_common_kernel`), whose -H is
    ``-Q^T H Q``, with the whole E's ``norm_e`` and ``left_half_plane``,
    which bound those of ``Q^T E Q``.  Otherwise it is None.
    """

    rows: int
    cols: int
    infinite_block_sizes: tuple[int, ...]   # one entry per infinite elementary divisor
    right_minimal_indices: tuple[int, ...]  # epsilon value per right singular block
    left_minimal_indices: tuple[int, ...]   # eta value per left singular block
    regular_A: np.ndarray = field(repr=False)
    regular_E: np.ndarray = field(repr=False)
    eigensolve: Callable[[], np.ndarray] = field(repr=False, compare=False)
    tol: ToleranceConfig = field(repr=False)
    kernel_E: np.ndarray = field(repr=False)
    cokernel_E: np.ndarray = field(repr=False)
    dissipation_bound: DissipationBound | None = field(repr=False, compare=False)

    def __post_init__(self):
        _freeze(self.regular_A, self.regular_E, self.kernel_E, self.cokernel_E)
        if self.dimension_accounting() != (self.rows, self.cols):
            raise NumericalBreakdown("staircase block sizes do not account for the pencil shape")

    @cached_property
    def finite_eigenvalues(self) -> np.ndarray:
        """Complex eigenvalues of the regular part, read-only, sorted by real
        then imaginary part: equal spectra read the same on either route."""
        finite = self.eigensolve() if self.n_regular else np.zeros(0, dtype=complex)
        if not np.all(np.isfinite(finite)):
            raise NumericalBreakdown("non-finite eigenvalues in the deflated regular part")
        return _freeze(np.sort(finite))[0]

    @cached_property
    def stability_class(self) -> StabilityClass:
        finite, tol = self.finite_eigenvalues, self.tol
        if not self.regular:
            return StabilityClass.SINGULAR
        if finite.size == 0 or np.all(finite.real <= -tol.stability_margin):
            return StabilityClass.ASYMPTOTICALLY_STABLE
        if np.any(finite.real > tol.axis_tol) or not _axis_eigenvalues_semisimple(
                finite, self.regular_A, self.regular_E, tol):
            return StabilityClass.UNSTABLE
        return StabilityClass.STABLE_NOT_ASYMPTOTIC

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


def _decide(s, thr, stage, decisions) -> int:
    """:func:`decide_rank` of one staircase step, which appends
    ``(stage, thr, smallest kept, largest dropped)`` to decisions."""
    r = decide_rank(s, thr, stage)
    decisions.append((stage, thr, float(s[r - 1]) if r else np.inf,
                      float(s[r]) if r < s.size else 0.0))
    return r


def _deflate_right_and_infinite(A, E, thr_a, thr_e, stage, decisions, step1=None):
    """Alternating kernel-column / row compressions of ``s E - A``.

    Per step j records nu_j (kernel width of E) and s_j (row rank of A on
    that kernel), then deflates to the trailing subpencil.  Terminates with
    E of full column rank.  Thresholds are anchored at the original pencil
    norms so that later stages keep a consistent notion of "zero".
    ``step1``, when given, is step 1's ``(svd, rank)``: the full SVD of E,
    possibly read-only, and the rank of E already decided on it.

    Also returns the full SVD ``(U, s, Vh)`` of the final E, or None when no
    columns remain.  An A-compression of rank 0 deflates no row, so the next
    E is ``E V_r = U diag(s_r)`` with the SVD ``(U, s_r, I)``: when each of
    s_r is tenfold above thr_e, that step would keep them all, and the loop
    ends there without it.
    """
    nu, ss = [], []
    Ac, Ec = A, E
    step = 1
    svd_final = None
    while Ec.shape[1] > 0:
        q = Ec.shape[1]
        if step1 is None:
            u_e, s_e, vh_e = np.linalg.svd(Ec)
            r_e = _decide(s_e, thr_e, f"{stage}: E-compression, step {step}", decisions)
        else:
            (u_e, s_e, vh_e), r_e = step1
            step1 = None
        k = q - r_e
        if k == 0:
            svd_final = (u_e, s_e, vh_e)
            break
        V = np.hstack([vh_e[r_e:, :].T, vh_e[:r_e, :].T])
        An, En = Ac @ V, Ec @ V
        u_a, s_a, _ = np.linalg.svd(An[:, :k])
        r_a = _decide(s_a, thr_a, f"{stage}: A-compression, step {step}", decisions)
        nu.append(k)
        ss.append(r_a)
        step += 1
        if r_a == 0 and r_e and s_e[r_e - 1] >= 10.0 * thr_e:
            Ac, Ec = An[:, k:], En[:, k:]
            svd_final = (u_e, s_e[:r_e], np.eye(r_e))
            break
        Ac = (u_a.T @ An)[r_a:, k:]
        Ec = (u_a.T @ En)[r_a:, k:]
    return nu, ss, Ac, Ec, svd_final


def _least_margin(decisions) -> ToleranceBreakdown:
    """The refusal of the staircase decision whose smallest kept or largest
    dropped value lies nearest its cutoff."""
    def ratio(d):
        _, thr, kept, dropped = d
        return min(kept / thr if thr else np.inf, thr / dropped if dropped else np.inf)

    return ToleranceBreakdown(*min(decisions, key=ratio))


def _minimal_and_infinite(nu, ss, decisions):
    """Right minimal indices and infinite divisor sizes from the step counts.

    nu_j - s_j blocks have minimal index j-1; the infinite divisors of size
    at least j number s_j minus the minimal indices that are still alive at
    later steps.  Counts that no Kronecker structure has come only from
    rank decisions that disagree, and raise the
    :class:`ToleranceBreakdown` of the one of decisions (see
    :func:`_decide`) with the least margin.
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
            raise _least_margin(decisions)
        sizes.extend([j] * count)
    return minimal, sizes


def _scaled_eigenvalues(M, sigma) -> np.ndarray:
    """Eigenvalues of ``s diag(sigma) - M``: those of ``sigma^{-1/2} M sigma^{-1/2}``."""
    d = 1.0 / np.sqrt(sigma)
    return np.linalg.eigvals(M * d[:, None] * d[None, :]).astype(complex)


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
    return _scaled_eigenvalues(vh @ A_reg @ u, sigma)


def _index_one_exit(Ah, sigma, norm_a: float, tol: ToleranceConfig):
    """``(A_reg, E_reg, eigensolve)`` of a square pencil rotated by the SVD
    of its E, ``U^T (s E - A) V = s diag(sigma, 0) - Ah``, when it has index
    at most one with the exit's margin, else None; sigma holds the r kept
    singular values, and ``norm_a = ||A||_F``."""
    r = sigma.size
    A22 = Ah[r:, r:]
    # ||A||_F bounds ||A||_2.  The 1 / _QZ_COND margin keeps
    # ||A12 A22^{-1} A21|| below _QZ_COND ||A||_2.  The rank margin puts the
    # staircase's next two decisions tenfold clear of their cutoffs, so they
    # would find index one too: the A-compression on ker E, whose singular
    # values are at least sigma_min(A22), and step 2's E-compression, whose
    # smallest singular value is at least sigma_min(A22) / ||A||_2 * Sigma[r-1].
    margin = max(1.0 / _QZ_COND,
                 10.0 * tol.rank_rtol * len(Ah) * (sigma[0] / sigma[-1] if r else 1.0))
    if A22.size and not np.linalg.svd(A22, compute_uv=False)[-1] > margin * norm_a:
        return None
    S = Ah[:r, :r] - Ah[:r, r:] @ np.linalg.solve(A22, Ah[r:, :r])
    return S, np.diag(sigma), partial(_scaled_eigenvalues, S, sigma)


def _eigen_signs(u, vh):
    """The signs d with ``U = V diag(d)`` bitwise, as the eigh route of
    :func:`_decompose_e` builds U from the eigenvectors V, else None."""
    d = np.where(np.einsum("ij,ji->j", u, vh) < 0.0, -1.0, 1.0)
    return d if np.array_equal(u, vh.T * d) else None


def _split_common_kernel(Ah, P, s, thr_a: float, tol: ToleranceConfig):
    """``(k, exit, congruence)`` of a square pencil ``s E - A`` with E
    symmetric, split on the common kernel of E, A and A^T, of dimension
    k > 0; else None.

    With ``E = U diag(s, 0) V^T`` (s the r kept singular values),
    ``Ah = U^T A V`` and ``P = V^T A V``, E's kernel Z is the trailing
    columns of V, and ``Z y`` lies in ker A and ker A^T when
    ``[P[:, r:]; P[r:, :]^T] y = 0``.  k is the nullity of that 2n x k_E
    stack, decided by :func:`decide_rank` at the staircase's A-compression
    cutoff thr_a; where that rule refuses, None comes back.  With N
    an orthonormal basis of the rest of E's kernel, the rest of the pencil
    lives on ``Q = [V_r, Z N]``.  The exit reads it on the left in
    ``[U_r, Z N]``, where its E is ``diag(s, 0)``; a rest that fails the
    exit gives None.  ``congruence`` is ``Q^T A Q``, the A of the
    congruence ``Q^T (s E - A) Q`` that the rest's dissipation bound reads.
    """
    r = s.size
    _, sv, nh = np.linalg.svd(np.vstack([P[:, r:], P[r:, :].T]), full_matrices=False)
    try:
        N = nh[:decide_rank(sv, thr_a, "common-kernel split")].T
    except ToleranceBreakdown:
        return None
    k = nh.shape[0] - N.shape[1]
    if not k:
        return None
    low = [N.T @ P[r:, :r], N.T @ P[r:, r:] @ N]
    rest = np.block([[Ah[:r, :r], Ah[:r, r:] @ N], low])
    exit_ = _index_one_exit(rest, s, np.linalg.norm(rest), tol)
    if exit_ is None:
        return None
    return k, exit_, np.block([[P[:r, :r], P[:r, r:] @ N], low])


def remembered(slot, args: tuple, compute):
    """One-slot memo: ``(compute(*args), slot)`` with the slot updated.

    ``slot`` is None or ``(key, value)`` of the last call.  When args match
    the key (arrays entry by entry, other arguments with ==), the stored
    value and the same slot come back.  Otherwise compute runs on the new
    key, whose arrays are private read-only copies, so the value cannot
    alias the caller's arrays, and changing them in place forces a fresh
    value on the next call.  The new slot is one tuple, so a concurrent
    reader never pairs one call's key with another's value.  The stored
    values are read-only and exactly the bits a fresh computation on the
    same arguments returns, so no verdict can tell a remembered value from
    a new one.
    """
    if slot is not None and all(
            np.array_equal(k, a) if isinstance(k, np.ndarray) else k == a
            for k, a in zip(slot[0], args)):
        return slot[1], slot
    key = tuple(_freeze(np.array(a))[0] if isinstance(a, np.ndarray) else a for a in args)
    value = compute(*key)
    return value, (key, value)


# remembered() slots: (key, value) of the last call of _e_factors,
# pencil_report and feedback_analysis.
_E_SVD = None
_REPORT = None
_ANALYSIS = None


def _decompose_e(E: np.ndarray):
    """``(U, s, Vh, w)``: the full SVD of E and, when ``E == E^T`` bitwise,
    its ascending eigenvalues w, else None.

    A symmetric E takes one ``eigh``, ``E = V diag(w) V^T``, instead of the
    SVD: with the columns of V ordered by descending |w|, the SVD is
    ``s = |w|``, ``Vh = V^T`` and ``U = V sign(w)`` (+1 at w = 0).
    """
    if not np.array_equal(E, E.T):
        return (*_freeze(*np.linalg.svd(E)), None)
    w, V = np.linalg.eigh(E)
    order = np.argsort(-np.abs(w), kind="stable")
    V = V[:, order]
    return _freeze(V * np.where(w[order] < 0.0, -1.0, 1.0), np.abs(w[order]), V.T, w)


def _e_factors(E: np.ndarray):
    """:func:`_decompose_e` of a pencil's E, read-only and remembered for
    the last E."""
    global _E_SVD
    value, _E_SVD = remembered(_E_SVD, (E,), _decompose_e)
    return value


def e_definiteness(E, tol: ToleranceConfig = DEFAULT_TOL) -> Definiteness:
    """:func:`classify_definiteness` of a square E; when ``E == E^T``
    bitwise, read off the remembered eigenvalues of E (see
    :func:`_e_factors`), the same ones a later report of a pencil with this
    E reads."""
    E = as_matrix(E)
    if not E.size or not np.array_equal(E, E.T):
        return classify_definiteness(E, tol)
    w = _e_factors(E)[3]
    return Definiteness((float(w[0]), float(w[-1])), tol)


def pencil_report(E, A, tol: ToleranceConfig = DEFAULT_TOL) -> PencilReport:
    """Kronecker structure and stability class of the real pencil ``s E - A``
    (rectangular allowed), remembered.

    The report of the last ``(E, A, tol)`` is remembered (see
    :func:`remembered`), with its spectrum once read; its arrays are
    read-only and never alias E or A.
    """
    global _REPORT
    E = as_matrix(E)
    A = as_matrix(A)
    if A.shape != E.shape:
        raise ShapeMismatch(f"pencil blocks differ in shape: {A.shape} vs {E.shape}")
    if np.iscomplexobj(A) or np.iscomplexobj(E):
        # The compressions use plain transposes, orthogonal only for real data.
        raise HypothesisViolated("the Kronecker staircase needs real E and A")
    report, _REPORT = remembered(_REPORT, (E, A, tol), _staircase)
    return report


def _staircase(E, A, tol: ToleranceConfig) -> PencilReport:
    p, q = A.shape
    maxdim = max(p, q)
    u_e, s_e, vh_e, w = _e_factors(E)
    norm_e = float(s_e[0]) if s_e.size else 0.0
    thr_e = tol.rank_rtol * maxdim * norm_e
    # Whether E is PSD, read off its eigenvalues before the SVD may take over.
    psd_e = w is not None and (not w.size or float(w[0]) > -thr_e / 10.0)
    if w is not None and np.any((s_e > thr_e / 10.0) & (s_e < 10.0 * thr_e)):
        # An eigenvalue near the cutoff: eigh's roundoff ones need not sit
        # where the SVD's do, so the SVD decides, as for any other E.
        u_e, s_e, vh_e = np.linalg.svd(E)
        thr_e = tol.rank_rtol * maxdim * float(s_e[0])
    svd_e = u_e, s_e, vh_e
    decisions = []
    r = _decide(s_e, thr_e, "right pass: E-compression, step 1", decisions)
    kernels = vh_e[r:, :].T, u_e[:, r:]
    log = partial(logger.debug, "pencil %dx%d: %s, k = %d", p, q)
    exit_ = split = thr_a = None
    if p == q and not (r and s_e[0] > _QZ_COND * s_e[r - 1]):
        if r == q:
            exit_ = A, E, partial(_regular_eigenvalues, A, E, (vh_e.T, s_e, u_e.T))
        else:
            Ah = u_e.T @ A @ vh_e.T
            exit_ = _index_one_exit(Ah, s_e[:r], np.linalg.norm(A), tol)
            if exit_ is None and w is not None:
                # V^T A V: Ah with its rows signed when U = V diag(signs),
                # as eigh's factors are, else (V^T U) Ah.
                signs = _eigen_signs(u_e, vh_e)
                P = Ah * signs[:, None] if signs is not None else (vh_e @ u_e) @ Ah
                thr_a = tol.rank_rtol * maxdim * spectral_norm(A)
                split = _split_common_kernel(Ah, P, s_e[:r], thr_a, tol)

    def report(blocks, exit_, bounded):
        # bounded is the A whose -H bounds the regular part's spectrum.
        bound = None if w is None or bounded is None else DissipationBound(
            Definiteness(lambda: -bounded, tol), norm_e, psd_e)
        return PencilReport(p, q, *blocks, *exit_, tol, *kernels, bound)

    if exit_ is not None:
        log("index-one exit", q - r)
        return report(((1,) * (q - r), (), ()), exit_, A)
    if split is not None:
        k, exit_, congruence = split
        log("common-kernel split", k)
        return report(((1,) * (q - r - k), (0,) * k, (0,) * k), exit_, congruence)
    log("staircase", q - r)
    if thr_a is None:
        thr_a = tol.rank_rtol * maxdim * spectral_norm(A)

    nu_r, ss_r, A1, E1, svd_e1 = _deflate_right_and_infinite(
        A, E, thr_a, thr_e, "right pass", decisions, (svd_e, r))
    right_minimal, infinite_sizes = _minimal_and_infinite(nu_r, ss_r, decisions)

    # E1 = U diag(s) Vh, so E1^T = Vh^T diag(s) U^T is the left pass's step 1,
    # of the full rank s.size that the right pass decided.
    step1_l = None if svd_e1 is None else ((svd_e1[2].T, svd_e1[1], svd_e1[0].T), svd_e1[1].size)
    nu_l, ss_l, A2t, E2t, svd_e2t = _deflate_right_and_infinite(
        A1.T, E1.T, thr_a, thr_e, "left pass", decisions, step1_l)
    left_minimal, leftover = _minimal_and_infinite(nu_l, ss_l, decisions)
    if leftover:
        raise NumericalBreakdown("left pass uncovered infinite structure; "
                                 "rank decisions are inconsistent")

    A_reg, E_reg = A2t.T, E2t.T
    if A_reg.shape[0] != A_reg.shape[1]:
        raise NumericalBreakdown("regular part is not square after deflation")
    return report((tuple(infinite_sizes), tuple(right_minimal), tuple(left_minimal)),
                  (A_reg, E_reg, partial(_regular_eigenvalues, A_reg, E_reg, svd_e2t)),
                  None if right_minimal or left_minimal else A)


@dataclass(frozen=True)
class DissipationBound:
    """Where the dissipation puts the finite eigenvalues lam of a square
    pencil ``s E - A`` with ``E == E^T``, without an eigensolve (see
    :attr:`PencilReport.dissipation_bound`).

    An eigenvector x of lam has ``Re lam * x^H E x = x^H H x`` when E is
    symmetric, with ``H = (A + A^T) / 2``, so ``|Re lam| >= lambda_min(-H)
    / ||E||_2`` when -H is positive definite, and ``Re lam < 0`` when also
    E is PSD (Mehl, Mehrmann & Wojtylak, SIMAX 2018).  For port-Hamiltonian
    data -H is R.

    ``minus_h`` is the definiteness of -H (see :class:`Definiteness`) and
    ``norm_e`` is ``||E||_2 = max |w|``, with w the remembered eigenvalues
    of E (see :func:`_e_factors`).  ``axis_distance``, a lower bound on
    ``|Re lam|``, is ``lambda_min(-H) / ||E||_2`` when -H is positive
    definite (infinite for E = 0) and 0 otherwise; it takes one ``eigvalsh``
    of H on first read.  ``left_half_plane`` is whether E is PSD at the
    rank a report of the pencil keeps: ``lambda_min(E) > -thr_e / 10``,
    with ``thr_e = rank_rtol * n * ||E||_2``.  Then every lam has
    ``Re lam < 0``.
    """

    minus_h: Definiteness = field(repr=False)
    norm_e: float
    left_half_plane: bool

    @cached_property
    def axis_distance(self) -> float:
        # The eigenvalues first: with them known, the verdict takes no proof.
        lo = self.minus_h.min_eigenvalue
        if not self.minus_h.is_definite:
            return 0.0
        return lo / self.norm_e if self.norm_e else np.inf

    def exceeds(self, need: float) -> bool:
        """Whether ``axis_distance > need``, for need >= 0.  One Cholesky
        factorization of -H proves it (see :meth:`Definiteness.proves`)
        when ``lambda_min(-H) > max(band, need ||E||_2)``, need raised by a
        relative 1e-12 past the rounding of the quotient; otherwise
        axis_distance decides."""
        return (self.minus_h.proves(need * self.norm_e * (1.0 + 1e-12))
                or self.axis_distance > need)


def _axis_eigenvalues_semisimple(evs, A_reg, E_reg, tol: ToleranceConfig) -> bool:
    """Algebraic multiplicity equals rank deficiency of the shifted regular part.

    A real pencil's eigenvalues come in exact conjugate pairs whose shifted
    parts share their singular values, so each pair is decided at Im >= 0.
    The deficiency is decided with the PBH test's tenfold margin, at a
    cutoff anchored to the pencil's scale ``|lam| ||E_reg|| + ||A_reg||``:
    sigma_max of the shifted part itself is roundoff on a 1 x 1 regular part.
    """
    axis = evs[(np.abs(evs.real) <= tol.axis_tol) & (evs.imag >= 0)]
    seen: list[complex] = []
    norms = None  # (||E_reg||, ||A_reg||), taken at the first axis eigenvalue
    for lam in axis:
        if any(abs(lam - mu) <= _CLUSTER_RTOL * max(1.0, abs(mu)) for mu in seen):
            continue
        seen.append(complex(lam))
        alg = int(np.sum(np.abs(evs - lam) <= _CLUSTER_RTOL * max(1.0, abs(lam))))
        M = lam * E_reg - A_reg
        if norms is None:
            norms = spectral_norm(E_reg), spectral_norm(A_reg)
        thr = tol.rank_rtol * max(M.shape) * (abs(lam) * norms[0] + norms[1])
        geo = deficiency(np.linalg.svd(M, compute_uv=False), thr,
                         f"geometric multiplicity, s = {lam:.6g}")
        if geo < alg:
            return False
    return True


def _pencil_and_inputs(E, A, B, caller: str):
    """E, A and B as matrices, B with zero columns when None; raises
    :class:`ShapeMismatch` unless E and A are n x n and B has n rows."""
    E = as_matrix(E)
    A = as_matrix(A)
    B = as_matrix(B) if B is not None else np.zeros((E.shape[0], 0))
    n = E.shape[0]
    if E.shape != (n, n) or A.shape != (n, n) or B.shape[0] != n:
        raise ShapeMismatch(f"{caller} expects n x n pencils and n x k B")
    return E, A, B


def _pbh_deficiency(E, A, B, lam: complex, tol: ToleranceConfig) -> int:
    """Rank deficiency of the n-row matrix ``[lam E - A, B]`` by
    :func:`row_deficiency`: a point on the real line keeps the matrix real,
    where a Cholesky factorization of its Gram matrix may decide full rank;
    a complex point takes the SVD."""
    M = np.hstack([(lam if lam.imag else lam.real) * E - A, B])
    return row_deficiency(M, tol, f"PBH test, s = {lam:.6g}")


def imaginary_axis_full_rank(E, A, B, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, list[complex]]:
    """Decide rank([s E - A, B]) == n for all s in the closed imaginary axis.

    B may have zero columns, in which case the pencil itself is tested.
    Returns the verdict and the offending points: each eigenvalue of
    ``s E - A`` within ``tol.axis_tol`` of the axis where the rank drops,
    with its conjugate, or ``[0j]`` for a singular pencil whose rank drops
    everywhere.  A pencil whose report's ``dissipation_bound`` exceeds
    ``10 * tol.axis_tol`` has no such eigenvalue, and returns ``(True, [])``
    without reading the report's spectrum; on a common-kernel split that is
    the rest's bound, read after the test at s = 0.  Raises
    :class:`ToleranceBreakdown` when a PBH test has no tenfold margin, and
    :class:`HypothesisViolated` for a singular pencil with a positive left
    minimal index (never port-Hamiltonian).
    """
    E, A, B = _pencil_and_inputs(E, A, B, "imaginary_axis_full_rank")
    rep = pencil_report(E, A, tol)
    if not rep.regular:
        if any(rep.left_minimal_indices):
            raise HypothesisViolated("singular pencil with a positive left minimal index: "
                                     "the rank of [s E - A, B] can drop off its spectrum")
        if _pbh_deficiency(E, A, B, 0j, tol):
            return False, [0j]
    bound = rep.dissipation_bound
    if bound is not None and bound.exceeds(10.0 * tol.axis_tol):
        return True, []
    evs = rep.finite_eigenvalues
    witnesses: list[complex] = []
    for lam in evs[(np.abs(evs.real) <= tol.axis_tol) & (evs.imag >= 0)]:
        if _pbh_deficiency(E, A, B, lam, tol):
            lam = complex(lam)
            witnesses += [lam, lam.conjugate()] if lam.imag else [lam]
    witnesses.sort(key=lambda z: (z.imag, z.real))
    return not witnesses, witnesses


@dataclass(frozen=True)
class DCompression:
    """Orthogonal block form of the feedthrough ``S + N``.

    ``U = [U1, U2, U3]`` is orthonormal, with U1 spanning the range of S,
    U3 the kernel of S+N and U2 the rest of ker S.  In these coordinates
    S+N becomes ``[[D11, D12, 0], [-D12^T, D22, 0], [0, 0, 0]]`` with the
    leading (m1+m2) group nonsingular and D22 skew.  ``dhat`` is that form
    with the identity on the kernel block, the nonsingular right factor
    ``[[D11, D12, 0], [-D12^T, D22, 0], [0, 0, I]]``.  S11 is the diagonal
    of S's kept singular values, which is ``U1^T S U1`` for a PSD S; an S
    inside the PSD band can keep a negative eigenvalue above the rank
    cutoff, which the stabilizing synthesis refuses.
    """

    U: np.ndarray
    m1: int
    m2: int
    m3: int
    S11: np.ndarray
    dhat: np.ndarray

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
    """Orthogonal compression of the feedthrough pair (S, N) by two rank
    decisions.

    Requires S symmetric PSD and N skew-symmetric.  The SVD
    ``S = u diag(s) u^T`` decides m1 at S's own cutoff, and gives
    ``U1 = u[:, :m1]``, ``S11 = diag(s[:m1])`` and ker S, spanned by
    ``K = u[:, m1:]``.  Since ``x^T (S+N) x = x^T S x``, the kernel of S+N
    is the kernel of N on ker S: the SVD of ``N K`` decides m2 at the cutoff
    ``rank_rtol * m * ||S+N||_2``, and its right singular vectors q give
    ``[U2, U3] = K q``.
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
    u, s, _ = np.linalg.svd(S)
    m1 = decide_rank(s, rank_threshold(s, S.shape, tol), "feedthrough split: range of S")
    K = u[:, m1:]
    _, t, qh = np.linalg.svd(N @ K, full_matrices=False)
    m2 = decide_rank(t, tol.rank_rtol * m * spectral_norm(D),
                     "feedthrough split: kernel of S + N")
    U = np.hstack([u[:, :m1], K @ qh.T])

    T = U.T @ D @ U
    k = m1 + m2
    dhat = np.eye(m)
    dhat[:k, :k] = T[:k, :k]
    dhat[m1:k, :m1] = -T[:m1, m1:k].T
    D22 = T[m1:k, m1:k]
    dhat[m1:k, m1:k] = (D22 - D22.T) / 2.0
    return DCompression(U=U, m1=m1, m2=m2, m3=m - k, S11=np.diag(s[:m1]), dhat=dhat)


@dataclass(frozen=True, eq=False)
class FeedbackAnalysis:
    """The existence conditions of one system and tolerance (see
    :func:`feedback_analysis`).  Each part is computed when first read and
    then kept; its arrays are read-only."""

    sys: PHSystem
    tol: ToleranceConfig

    @cached_property
    def compression(self) -> DCompression:
        dc = compress_feedthrough(self.sys.S, self.sys.N, self.tol)
        _freeze(dc.U, dc.S11, dc.dhat)
        return dc

    @cached_property
    def input_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """``(B1, B3) = ((G-P) (S+N)^+ U1, (G-P) U3)``, the input directions
        through which a feedback can inject dissipation."""
        return _freeze(*self.compression.input_blocks(self.sys.B))

    @cached_property
    def stabilizability(self) -> tuple[bool, tuple[complex, ...]]:
        ok, witnesses = imaginary_axis_full_rank(self.sys.E, self.sys.A,
                                                 np.hstack(self.input_blocks), self.tol)
        return ok, tuple(witnesses)

    @cached_property
    def index_reducibility(self) -> bool:
        return index_one_rank_condition(self.sys.E, self.sys.A,
                                        np.hstack(self.input_blocks), self.tol)

    @cached_property
    def passifiability_refusal(self) -> str | None:
        """Why no strictly passifying feedback exists; None when one does."""
        sys = self.sys
        if sys.m == 0 or not classify_definiteness(sys.S, self.tol).is_definite:
            return "S not positive definite"
        T = 0.5 * sys.B @ np.linalg.solve(sys.D, (sys.G + sys.P).T)
        if not classify_definiteness(sys.R + T + T.T, self.tol).is_definite:
            return "passifiability condition matrix not positive definite"
        return None


def _freeze(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def feedback_analysis(sys: PHSystem, tol: ToleranceConfig = DEFAULT_TOL) -> FeedbackAnalysis:
    """The :class:`FeedbackAnalysis` of ``(sys, tol)``, remembered for the
    last system and tolerance (see :func:`remembered`)."""
    global _ANALYSIS
    analysis, _ANALYSIS = remembered(
        _ANALYSIS, (sys.E, sys.J, sys.R, sys.G, sys.P, sys.S, sys.N, tol),
        lambda *key: FeedbackAnalysis(PHSystem(*key[:-1]), key[-1]))
    return analysis


def stabilizability_rank_condition(sys: PHSystem, tol: ToleranceConfig = DEFAULT_TOL
                                   ) -> tuple[bool, list[complex]]:
    """Existence condition for a structure-preserving stabilizing feedback:
    ``[s E - (J - R), B1, B3]`` must keep full row rank on the imaginary axis,
    decided by :func:`imaginary_axis_full_rank`.  Returns the verdict and
    the offending points when it fails."""
    ok, witnesses = feedback_analysis(sys, tol).stabilizability
    return ok, list(witnesses)


def index_reduction_rank_condition(sys: PHSystem, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Existence condition for regularity and index at most one under
    structure-preserving feedback: ``[E, (J-R) Z_E, B1, B3]`` has rank n,
    with Z_E an orthonormal nullspace basis of E."""
    return feedback_analysis(sys, tol).index_reducibility


def strict_passifiability_condition(sys: PHSystem, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Existence condition for a strictly passifying feedback: S must be
    positive definite and so must
    ``R + (G-P)(S+N)^{-1}(G+P)^T / 2 + (G+P)(S+N)^{-T}(G-P)^T / 2``."""
    return feedback_analysis(sys, tol).passifiability_refusal is None


def index_one_rank_condition(E, A, B, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Rank test guaranteeing that dissipation-preserving feedback through B
    yields a regular pencil of index at most one: rank([E, A Z_E, B]) == n,
    with Z_E the kernel basis of ``pencil_report(E, A, tol)``, so the test
    raises that report's refusals."""
    E, A, B = _pencil_and_inputs(E, A, B, "index_one_rank_condition")
    Z_E = pencil_report(E, A, tol).kernel_E
    return numerical_rank(np.hstack([E, A @ Z_E, B]), tol, "index-reduction rank") == E.shape[0]
