"""Tolerance-aware dense linear algebra primitives.

A single :class:`ToleranceConfig` governs every rank, nullspace, and
definiteness decision.  There is one cutoff formula, :func:`rank_threshold`:
a singular value sigma counts when ``sigma > rank_rtol * sigma_1 *
max(rows, cols)``.  Three policies refuse a value near it with
ToleranceBreakdown: :func:`singular_value_rank` never, the staircase's
``pencil._decide_rank`` when the smallest kept and the largest dropped
value are both within tenfold, and ``pencil._deficiency`` (the PBH and
multiplicity tests) when any value is.  Matrices with zero rows or columns
take the same path as any other: numpy's decompositions return identity
factors and empty spectra for them.

Every function here is a pure function of its arguments; the module keeps
no state.  A pencil's E is decomposed only by :mod:`phdesc.pencil`, whose
report hands out E's rank and kernels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NotSquare

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
        ``compress_feedthrough`` and ``undamped_block_stability_condition``
        the norm of the judged matrix (S, N or R).
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


def singular_value_rank(s: np.ndarray, shape: tuple[int, int], tol: ToleranceConfig) -> int:
    """Number of entries of the descending values s above
    :func:`rank_threshold`."""
    return int(np.sum(s > rank_threshold(s, shape, tol)))


def numerical_rank(M, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of singular values above the relative cutoff.

    The zero matrix and matrices with an empty dimension have rank 0.
    """
    A = as_matrix(M)
    return singular_value_rank(np.linalg.svd(A, compute_uv=False), A.shape, tol)


def nullspace_basis(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical right nullspace (cols x nullity)."""
    A = as_matrix(M)
    _, s, vh = np.linalg.svd(A)
    return vh[singular_value_rank(s, A.shape, tol):, :].conj().T


def range_basis(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical column space (rows x rank)."""
    A = as_matrix(M)
    u, s, _ = np.linalg.svd(A)
    return u[:, :singular_value_rank(s, A.shape, tol)]


def pseudo_inverse(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse with the same truncation rule as numerical_rank."""
    A = as_matrix(M)
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    thr = rank_threshold(s, A.shape, tol)
    inv = np.where(s > thr, 1.0 / np.where(s > thr, s, 1.0), 0.0)
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
    H = (A + A.T) / 2.0
    w = np.linalg.eigvalsh(H)
    lo, hi = float(w[0]), float(w[-1])
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
