"""Tolerance-aware dense linear algebra primitives.

A single :class:`ToleranceConfig` governs every rank, nullspace, and
definiteness decision.  There is one cutoff formula, :func:`rank_threshold`:
a singular value sigma counts when ``sigma > rank_rtol * sigma_1 *
max(rows, cols)``.  The staircase and the multiplicity test anchor the same
formula to the pencil's norms instead of sigma_1.  Every rank is decided by
one of two rules, each of which refuses a value without a tenfold margin
from the cutoff with a :class:`ToleranceBreakdown` that names the decision:

- :func:`decide_rank` refuses when the smallest kept and the largest
  dropped value are both within tenfold.  It decides the staircase's
  compressions, :func:`numerical_rank`, :func:`nullspace_basis`,
  :func:`range_basis` and :func:`pseudo_inverse` (so the feedthrough split,
  the index-reduction rank, simulate's step matrix and the consistent
  projection), and synthesis's mu1..mu3.
- :func:`deficiency` refuses when any value is within tenfold.  It decides
  the PBH tests and the geometric multiplicity of an axis eigenvalue.

Matrices with zero rows or columns take the same path as any other: numpy's
decompositions return identity factors and empty spectra for them.

Every function here is a pure function of its arguments; the module keeps
no state.  A pencil's E is decomposed only by :mod:`phdesc.pencil`, whose
report hands out E's rank and kernels and whose eigenvalues of a symmetric E
give ``validate`` its ``e_psd`` through :func:`definiteness`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NotSquare, ToleranceBreakdown

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy for rank, definiteness, and stability decisions.

    rank_rtol
        Relative singular-value cutoff of every rank decision: sigma is
        counted as nonzero when ``sigma > rank_rtol * sigma_max * max(rows, cols)``.
        The default, 256 eps, sits above the roundoff of the products of
        orthogonal and pseudo-inverse factors that the staircase and the
        feedback constructions compress, whose "exact zeros" land well
        above eps.
    psd_tol
        Relative eigenvalue threshold for (semi)definiteness decisions:
        the band is ``psd_tol * ||H||_2``, H the symmetric part of M, so a
        verdict does not move when M is scaled by a positive constant.
        Structure violations (asymmetry, skewness, block form) are still
        judged against ``psd_tol * max(1, ||.||_2)``, absolute below unit
        norm: ``model.validate`` takes the norm of the violation itself,
        ``compress_feedthrough`` the norm of the judged matrix (S or N).
    axis_tol
        An eigenvalue is treated as purely imaginary when ``|Re| <= axis_tol``.
    stability_margin
        Required ``-Re(lambda)`` for an "asymptotically stable" verdict.
    """

    rank_rtol: float = 256.0 * _EPS
    psd_tol: float = 1e-10
    axis_tol: float = 1e-8
    stability_margin: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rtol", "psd_tol", "axis_tol", "stability_margin"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"tolerance {name} must be positive")


DEFAULT_TOL = ToleranceConfig()


class DefinitenessKind(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE = "positive_semidefinite"
    INDEFINITE = "indefinite"
    NEGATIVE_SEMIDEFINITE = "negative_semidefinite"
    NEGATIVE_DEFINITE = "negative_definite"


@dataclass(frozen=True)
class Definiteness:
    """Classification of a symmetric matrix, its extreme eigenvalues and decision band."""

    kind: DefinitenessKind
    min_eigenvalue: float
    max_eigenvalue: float
    band: float

    @property
    def is_definite(self) -> bool:
        return self.kind is DefinitenessKind.POSITIVE_DEFINITE

    @property
    def is_semidefinite(self) -> bool:
        return self.kind in (
            DefinitenessKind.POSITIVE_DEFINITE,
            DefinitenessKind.POSITIVE_SEMIDEFINITE,
        )


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-D float (or complex) ndarray without copying when possible."""
    A = np.asarray(M)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        A = A.reshape(1, -1) if A.size else A.reshape(0, 0)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    if not np.iscomplexobj(A):
        A = A.astype(np.float64, copy=False)
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def spectral_norm(M) -> float:
    """Largest singular value; 0.0, without an SVD, for a zero matrix or
    one with an empty dimension."""
    A = as_matrix(M)
    if not A.any():
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def rank_threshold(s: np.ndarray, shape: tuple[int, int], tol: ToleranceConfig) -> float:
    """The cutoff ``rank_rtol * s[0] * max(shape)`` for the descending
    singular values s of a matrix of that shape; 0.0 when s is empty."""
    if s.size == 0:
        return 0.0
    return tol.rank_rtol * float(s[0]) * max(shape)


def decide_rank(s: np.ndarray, thr: float, stage: str) -> int:
    """Number of entries of the descending values s above the cutoff thr.

    Raises :class:`ToleranceBreakdown`, naming ``stage``, when the smallest
    kept and the largest dropped value both lie within a factor of ten of
    thr.
    """
    r = int(np.sum(s > thr))
    kept_min = float(s[r - 1]) if r > 0 else np.inf
    dropped_max = float(s[r]) if r < s.size else 0.0
    if kept_min < 10.0 * thr and dropped_max > thr / 10.0:
        raise ToleranceBreakdown(stage, thr, kept_min, dropped_max)
    return r


def deficiency(s: np.ndarray, thr: float, stage: str) -> int:
    """Number of entries of the descending values s at or below the cutoff
    thr: the rank deficiency of a matrix with no more rows than columns.

    Raises :class:`ToleranceBreakdown`, naming ``stage``, when any value
    lies within a factor of ten of thr.
    """
    if np.any((s > thr / 10.0) & (s < 10.0 * thr)):
        kept, dropped = s[s > thr], s[s <= thr]
        raise ToleranceBreakdown(stage, thr, float(kept[-1]) if kept.size else np.inf,
                                 float(dropped[0]) if dropped.size else 0.0)
    return int(np.sum(s <= thr))


def numerical_rank(M, tol: ToleranceConfig = DEFAULT_TOL, stage: str = "numerical rank") -> int:
    """Rank of M by :func:`decide_rank` at :func:`rank_threshold`.

    The zero matrix and matrices with an empty dimension have rank 0.
    """
    A = as_matrix(M)
    s = np.linalg.svd(A, compute_uv=False)
    return decide_rank(s, rank_threshold(s, A.shape, tol), stage)


def nullspace_basis(M, tol: ToleranceConfig = DEFAULT_TOL, stage: str = "nullspace") -> np.ndarray:
    """Orthonormal basis of the numerical right nullspace (cols x nullity).

    A matrix with at least as many rows as columns takes the thin SVD: its
    Vh is already square, and the rows x rows U of the full one is not
    needed."""
    A = as_matrix(M)
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    return vh[decide_rank(s, rank_threshold(s, A.shape, tol), stage):, :].conj().T


def range_basis(M, tol: ToleranceConfig = DEFAULT_TOL, stage: str = "range") -> np.ndarray:
    """Orthonormal basis of the numerical column space (rows x rank)."""
    A = as_matrix(M)
    u, s, _ = np.linalg.svd(A)
    return u[:, :decide_rank(s, rank_threshold(s, A.shape, tol), stage)]


def pseudo_inverse(M, tol: ToleranceConfig = DEFAULT_TOL,
                   stage: str = "pseudo-inverse") -> np.ndarray:
    """Moore-Penrose inverse truncated at the rank numerical_rank decides."""
    A = as_matrix(M)
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    kept = np.arange(s.size) < decide_rank(s, rank_threshold(s, A.shape, tol), stage)
    inv = np.where(kept, 1.0 / np.where(kept, s, 1.0), 0.0)
    return (vh.conj().T * inv) @ u.conj().T


def _require_square(M: np.ndarray):
    if M.shape[0] != M.shape[1]:
        raise NotSquare(f"square matrix required, got shape {M.shape}")


def sym_skew_split(D) -> tuple[np.ndarray, np.ndarray]:
    """Split a square matrix into its symmetric and skew-symmetric parts.

    Returns ``(S, N)`` with ``S = (D + D^T)/2`` exactly symmetric,
    ``N = (D - D^T)/2`` exactly skew, and ``S + N == D`` up to one rounding.
    """
    A = as_matrix(D)
    _require_square(A)
    S = (A + A.T) / 2.0
    N = (A - A.T) / 2.0
    return S, N


def classify_definiteness(M, tol: ToleranceConfig = DEFAULT_TOL) -> Definiteness:
    """Classify the symmetric part of a square matrix by its spectrum.

    The input is symmetrized as ``(M + M^T)/2`` before the eigendecomposition;
    the decision band, reported as ``band``, is ``psd_tol * ||H||_2`` with
    ``H`` that symmetric part, relative to H at every scale.
    """
    A = as_matrix(M)
    _require_square(A)
    if A.shape[0] == 0:
        return Definiteness(DefinitenessKind.POSITIVE_DEFINITE, np.inf, -np.inf, np.inf)
    w = np.linalg.eigvalsh((A + A.T) / 2.0)
    return definiteness(float(w[0]), float(w[-1]), tol)


def definiteness(lo: float, hi: float, tol: ToleranceConfig = DEFAULT_TOL) -> Definiteness:
    """Classify a symmetric matrix by its extreme eigenvalues ``lo <= hi``,
    within the band ``psd_tol * max(|lo|, |hi|)``."""
    band = tol.psd_tol * max(abs(lo), abs(hi))
    if lo > band:
        kind = DefinitenessKind.POSITIVE_DEFINITE
    elif hi < -band:
        kind = DefinitenessKind.NEGATIVE_DEFINITE
    elif lo >= -band:
        kind = DefinitenessKind.POSITIVE_SEMIDEFINITE
    elif hi <= band:
        kind = DefinitenessKind.NEGATIVE_SEMIDEFINITE
    else:
        kind = DefinitenessKind.INDEFINITE
    return Definiteness(kind, lo, hi, band)
