"""Tolerance-aware dense linear algebra primitives.

- One cutoff formula, :func:`rank_threshold`: a singular value sigma counts
  when ``sigma > rank_rtol * sigma_1 * max(rows, cols)`` (the staircase and
  the multiplicity test anchor it to the pencil's norms instead of sigma_1).
- Two rank rules, each refusing a value without a tenfold margin from the
  cutoff with a :class:`ToleranceBreakdown` that names the decision:
  :func:`decide_rank` (every rank, nullspace and pseudo-inverse, the
  staircase, the feedthrough split and the synthesis's block sizes) and
  :func:`deficiency` (the PBH tests and an axis eigenvalue's multiplicity).
- Proof before decomposition: a yes/no verdict is first put to one Cholesky
  factorization, :func:`cholesky_proves`, whose success is the answer the
  ``eigvalsh`` or SVD would give; only a failure, or a read of a margin,
  takes that decomposition.
- No state: every function is a pure function of its arguments.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotSquare, ToleranceBreakdown

_EPS = float(np.finfo(np.float64).eps)

# Unit roundoff and smallest subnormal of binary64, for Rump's bound.
_U = _EPS / 2.0
_ETA = float(np.finfo(np.float64).smallest_subnormal)

# Relative raise of a proof's shift: it covers the rounding of the shift's
# own sums and products (each at most a few n u) for n up to 1e9.
_SHIFT_SLACK = 1.0 + 1e-6


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


@dataclass(frozen=True, eq=False)
class Definiteness:
    """Definiteness of the symmetric part ``H = (M + M^T)/2`` of a square
    matrix M, decided within the band ``psd_tol * max(|lo|, |hi|)`` on the
    extreme eigenvalues ``lo <= hi`` that ``eigvalsh(H)`` returns: definite
    when ``lo > band`` (or H is empty), semidefinite when ``lo >= -band``.

    ``source`` is either a callable that returns M (the record keeps the
    callable, not H) or the known pair ``(lo, hi)``, which is never factored.
    From a callable, a verdict (``is_definite``, ``is_semidefinite``,
    :meth:`proves`) is first put to :func:`cholesky_proves`, at a threshold
    that also covers eigvalsh's roundoff and bounds the band by norms of H,
    so a success is the verdict the eigenvalues would give.  ``extremes``
    (and with it ``band``) takes one ``eigvalsh`` on first read, and so does
    a verdict the factorization does not prove; both are then kept.
    """

    source: Callable[[], np.ndarray] | tuple[float, float] = field(repr=False)
    tol: ToleranceConfig = field(default=DEFAULT_TOL, repr=False)

    @cached_property
    def extremes(self) -> tuple[float, float]:
        """``(lo, hi)``; ``(inf, -inf)`` for an empty H."""
        if not callable(self.source):
            return self.source
        H = _symmetric_part(self.source())
        if not H.size:
            return np.inf, -np.inf
        w = np.linalg.eigvalsh(H)
        return float(w[0]), float(w[-1])

    @property
    def min_eigenvalue(self) -> float:
        return self.extremes[0]

    @property
    def band(self) -> float:
        lo, hi = self.extremes
        return self.tol.psd_tol * max(abs(lo), abs(hi))

    @cached_property
    def is_definite(self) -> bool:
        if self.proves(0.0):
            return True
        lo, hi = self.extremes
        return lo > self.band or hi < lo  # hi < lo: H is empty

    @cached_property
    def is_semidefinite(self) -> bool:
        # A definite verdict already read answers this one too.
        return (self.__dict__.get("is_definite") or self.proves()
                or self.min_eigenvalue >= -self.band)

    def proves(self, t: float | None = None) -> bool:
        """Whether one Cholesky factorization proves ``lo > max(band, t)``
        (definite, and above t), or ``lo >= -band`` when t is None, before
        ``extremes`` is computed; False proves nothing.  An all-zero H is
        semidefinite (band 0) with no factorization."""
        if not callable(self.source) or "extremes" in self.__dict__:
            return False
        H = _symmetric_part(self.source())
        if t is None and not H.any():
            return True
        n = H.shape[0]
        columns = np.einsum("ij,ij->j", H, H)
        up = float(np.sqrt(columns.sum()))                  # ||H||_F >= ||H||_2
        low = float(np.sqrt(columns.max())) if n else 0.0  # a column's norm <= ||H||_2
        slack = _decomposition_roundoff(n, up)
        # lo and hi lie within slack of the exact extremes, so
        # psd_tol (low - slack) <= band <= psd_tol (up + slack).
        if t is None:
            t = slack - self.tol.psd_tol * max(low - slack, 0.0)
        else:
            t = max(self.tol.psd_tol * (up + slack), t) + slack
        return cholesky_proves(H, t)


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

    A real M with no more rows than columns whose Gram matrix proves its
    smallest singular value above the cutoff (see :func:`_proves_full_row_rank`)
    has full row rank with no SVD.  The zero matrix and matrices with an
    empty dimension have rank 0.
    """
    A = as_matrix(M)
    if _proves_full_row_rank(A, 1.0, tol):
        return A.shape[0]
    s = np.linalg.svd(A, compute_uv=False)
    return decide_rank(s, rank_threshold(s, A.shape, tol), stage)


def row_deficiency(M, tol: ToleranceConfig = DEFAULT_TOL, stage: str = "row deficiency") -> int:
    """Rank deficiency of M, with no more rows than columns, by
    :func:`deficiency` at :func:`rank_threshold`.

    A real M whose Gram matrix proves every singular value tenfold above
    the cutoff, where :func:`deficiency` returns 0 without a refusal, takes
    no SVD.
    """
    A = as_matrix(M)
    if _proves_full_row_rank(A, 10.0, tol):
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return deficiency(s, rank_threshold(s, A.shape, tol), stage)


def _proves_full_row_rank(A: np.ndarray, factor: float, tol: ToleranceConfig) -> bool:
    """Whether one Cholesky factorization of the Gram matrix ``G = A A^T``
    proves that the smallest singular value the SVD of the real p x q A,
    p <= q, would return exceeds ``factor`` times its :func:`rank_threshold`.

    The SVD's values lie within d of the exact ones, so sigma_1 is at most
    ``F + d`` (F = ||A||_F) and it suffices that the exact ``sigma_p > c``,
    ``c = factor rank_rtol q (F + d) + d``, that is ``lambda_min(A A^T) > c^2``.
    The computed G has ``|G - A A^T| <= gamma_q |A| |A^T|``, of 2-norm at
    most ``gamma_q F^2``, so :func:`cholesky_proves` is asked for
    ``lambda_min(G) > c^2 + gamma_q F^2``.
    """
    p, q = A.shape
    if np.iscomplexobj(A) or not 0 < p <= q:
        return False
    G = A @ A.T
    fro2 = _SHIFT_SLACK * float(np.trace(G))  # raised past the rounding of G's diagonal
    d = _decomposition_roundoff(q, np.sqrt(fro2))
    c = factor * tol.rank_rtol * q * (np.sqrt(fro2) + d) + d
    gamma = q * _U / (1.0 - q * _U)
    return cholesky_proves(G, _SHIFT_SLACK * (c * c + gamma * fro2))


def nullspace_basis(M, tol: ToleranceConfig = DEFAULT_TOL, stage: str = "nullspace") -> np.ndarray:
    """Orthonormal basis of the numerical right nullspace (cols x nullity).

    A matrix with at least as many rows as columns takes the thin SVD: its
    Vh is already square, and the rows x rows U of the full one is not
    needed."""
    A = as_matrix(M)
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    return vh[decide_rank(s, rank_threshold(s, A.shape, tol), stage):, :].conj().T


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


def _decomposition_roundoff(n: int, norm: float) -> float:
    """How far the values of ``eigvalsh`` or the SVD of an n x n (or
    n-column) M, norm >= ||M||_2, may lie from the exact ones: LAPACK's are
    within ``p(n) eps ||M||_2`` for a modest p, taken as n, plus one eps
    for the rounding of norm itself."""
    return (n + 1) * _EPS * norm


def cholesky_proves(H: np.ndarray, t: float) -> bool:
    """Whether one Cholesky factorization proves ``lambda_min(H) > t``.

    H is a square float64 matrix, symmetric as ``np.linalg.cholesky`` reads
    it, by its lower triangle.  Its diagonal is shifted in place, so that
    no second n x n array is made: pass a copy to keep H.  It factors
    ``B = fl(H - s I)`` with ``s = t + c``.  A computed factor has
    ``R^T R = B + dB`` with ``|dB| <= gamma_{n+1} |R^T| |R|``, so a success proves
    ``lambda_min(B) > -gamma_{n+1} / (1 - gamma_{n+1}) tr B`` (Rump,
    "Verification of positive definiteness", BIT 46 (2006); Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 10), and
    ``tr B <= sum(h_ii - t)``.  The shift c is that bound, plus
    ``u (max(h_ii - t) + 2 |t|)`` for the rounding of B's diagonal and of
    s, all raised by a relative 1e-6, plus an underflow allowance of the
    form Rump gives, ``4 n (2 (n + 2) + max(h_ii - t)) eta`` with eta the
    smallest subnormal.  A diagonal entry at or below t fails with no
    factorization.  False proves nothing.
    """
    n = H.shape[0]
    if n == 0:
        return True
    d = np.diagonal(H) - t
    if not np.all(d > 0.0):
        return False
    g = (n + 1) * _U / (1.0 - (n + 1) * _U)
    d_max = float(d.max())
    c = (_SHIFT_SLACK * (g / (1.0 - g) * float(d.sum()) + _U * (d_max + 2.0 * abs(t)))
         + 4.0 * n * (2.0 * (n + 2) + d_max) * _ETA)
    H.flat[:: n + 1] -= t + c
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def _symmetric_part(M: np.ndarray) -> np.ndarray:
    """``(M + M^T) / 2`` in one new array."""
    H = M + M.T
    H /= 2.0
    return H


def classify_definiteness(M, tol: ToleranceConfig = DEFAULT_TOL) -> Definiteness:
    """The :class:`Definiteness` of the symmetric part ``(M + M^T)/2`` of a
    square matrix, with the band ``psd_tol * ||H||_2``, relative to H at
    every scale.

    The record keeps M itself, read when a verdict or a margin is first
    asked for.
    """
    A = as_matrix(M)
    _require_square(A)
    return Definiteness(lambda: A, tol)
