import logging
import os
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from phdesc import pencil
from phdesc.errors import HypothesisViolated, ShapeMismatch
from phdesc.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    classify_definiteness,
    decide_rank,
    nullspace_basis,
    numerical_rank,
    pseudo_inverse,
    rank_threshold,
    spectral_norm,
)
from phdesc.pencil import imaginary_axis_full_rank

settings.register_profile("suite", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("suite")


def skew(M):
    return (M - M.T) / 2.0


def sym(M):
    return (M + M.T) / 2.0


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    L = rng.normal(size=(n, rank)) if rank else np.zeros((n, 1)) * 0
    if rank == 0:
        return np.zeros((n, n))
    return sym(L @ L.T)


def random_dissipative_pencil(rng, n, k, rank_e=None, rank_r=None):
    """(E, J, R, B) with E, R PSD of controllable rank, J skew, B random."""
    rank_e = int(rng.integers(0, n + 1)) if rank_e is None else rank_e
    rank_r = int(rng.integers(0, n + 1)) if rank_r is None else rank_r
    E = random_psd(rng, n, rank_e)
    J = skew(rng.normal(size=(n, n)))
    R = random_psd(rng, n, rank_r)
    B = rng.normal(size=(n, k))
    return E, J, R, B


def random_admissible_feedback(rng, R, B):
    """Feedback keeping R - (BF + F^T B^T)/2 PSD with rank equal rank [R, B].

    F = -c B^T + B^+ K_B with c > 0 and K_B a skew matrix supported on the
    range of B: the skew part cancels in the symmetric update, so the
    dissipation gains exactly c B B^T.
    """
    n, k = B.shape
    c = float(rng.uniform(0.2, 2.0))
    F = -c * B.T
    if k and n:
        Bp = pseudo_inverse(B)
        Pb = B @ Bp
        K = skew(rng.normal(size=(n, n)))
        F = F + Bp @ (Pb @ K @ Pb)
    return F


def range_basis(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical column space (rows x rank) from
    the full SVD, at the cutoff of ``rank_threshold``: the oracle of the
    range of S in the paper's formula for B1."""
    A = as_matrix(M)
    u, s, _ = np.linalg.svd(A)
    return u[:, :decide_rank(s, rank_threshold(s, A.shape, tol), "range")]


def assert_spectra_match(e1, e2, atol=1e-8):
    """Compare spectra as multisets: order-free within atol."""
    e1 = list(np.asarray(e1, dtype=complex))
    e2 = list(np.asarray(e2, dtype=complex))
    assert len(e1) == len(e2), (e1, e2)
    for lam in e1:
        dists = [abs(lam - mu) for mu in e2]
        j = int(np.argmin(dists)) if dists else -1
        assert dists and dists[j] <= atol * max(1.0, abs(lam)), (lam, e2)
        e2.pop(j)


def brute_force_rank_on_axis(E, A, B, omega_grid, tol=DEFAULT_TOL):
    """Sampling oracle: SVD rank of ``[i w E - A, B]`` at every grid point.

    True when the rank is n everywhere on the grid.  Complements the
    eigenvalue-based decision; it can only ever refute at sampled points.
    """
    E = as_matrix(E)
    A = as_matrix(A)
    B = as_matrix(B) if B is not None else np.zeros((E.shape[0], 0))
    n = E.shape[0]
    for omega in np.asarray(omega_grid, dtype=float):
        M = np.hstack([1j * omega * E - A, B])
        if numerical_rank(M, tol) < n:
            return False
    return True


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
    # A zero violation is within any band, so its scale is never needed.
    violation = max(spectral_norm(R[:n1, n1:]), spectral_norm(R[n1:, n1:]))
    if violation and violation > tol.psd_tol * max(1.0, spectral_norm(R)):
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


def hamiltonian(sys, x) -> float:
    """Energy oracle: ``H(x) = x^T E x / 2`` of one state, by the formula."""
    v = np.asarray(x, dtype=float).reshape(-1)
    assert v.shape == (sys.n,)
    return 0.5 * float(v @ sys.E @ v)


def singular_common_nullspace(sys) -> bool:
    """True when E, J, R share a nullspace direction: the nullspace of the
    stack ``[E; J; R]`` that ``phdesc analyze`` reports.  For valid
    port-Hamiltonian data this is equivalent to ``s E - (J - R)`` being singular."""
    return nullspace_basis(np.vstack([sys.E, sys.J, sys.R])).shape[1] > 0


def logged_routes(caplog):
    """(route, k) of each pencil report logged since the last clear: k is
    n - rank E, or on the common-kernel split the dimension split off."""
    routes = []
    for rec in caplog.records:
        m = re.fullmatch(r"pencil \d+x\d+: (index-one exit|staircase|common-kernel split), "
                         r"k = (\d+)", rec.getMessage())
        if rec.name == "phdesc.pencil" and m:
            routes.append((m[1], int(m[2])))
    return routes


@pytest.fixture
def route_log(caplog):
    """``caplog`` recording the DEBUG route line of each fresh pencil report."""
    caplog.set_level(logging.DEBUG, logger="phdesc.pencil")
    return caplog


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process is still running" if pid == 0
                else f"child process {pid} was left unreaped")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def svd_calls(monkeypatch):
    """Every ``np.linalg.svd`` call from here on, as (copy of the argument,
    compute_uv)."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append((np.array(a, copy=True), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """Every ``np.linalg.eigh`` call from here on, as a copy of its argument."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.array(a, copy=True))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Every ``np.linalg.eigvalsh`` call from here on, as a copy of its argument."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.array(a, copy=True))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Every ``np.linalg.cholesky`` call from here on, as a copy of its
    argument, whether or not it succeeds."""
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        calls.append(np.array(a, copy=True))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return calls


@pytest.fixture
def eigvals_calls(monkeypatch):
    """Every ``eigvals`` and ``eig`` call of ``np.linalg`` and
    ``scipy.linalg`` from here on, as ``module.function``."""
    calls = []
    for module in (np.linalg, scipy.linalg):
        for name in ("eigvals", "eig"):
            def counting(*args, _solve=getattr(module, name),
                         _name=f"{module.__name__}.{name}", **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def cold_e_svd(monkeypatch):
    """Empty the SVD memo of a pencil's E in :mod:`phdesc.pencil` for one test."""
    monkeypatch.setattr(pencil, "_E_SVD", None)


@pytest.fixture
def cold_report(monkeypatch):
    """Empty the report memo of :func:`phdesc.pencil.pencil_report` for one test."""
    monkeypatch.setattr(pencil, "_REPORT", None)


@pytest.fixture
def cold_analysis(monkeypatch):
    """Empty the memo of :func:`phdesc.pencil.feedback_analysis` for one test."""
    monkeypatch.setattr(pencil, "_ANALYSIS", None)
