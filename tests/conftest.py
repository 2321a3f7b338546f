import numpy as np
import pytest
from hypothesis import settings

from phdesc import linalg, pencil
from phdesc.linalg import DEFAULT_TOL, as_matrix, nullspace_basis, numerical_rank, pseudo_inverse

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


def singular_common_nullspace(sys) -> bool:
    """True when E, J, R share a nullspace direction: the nullspace of the
    stack ``[E; J; R]`` that ``phdesc analyze`` reports.  For valid
    port-Hamiltonian data this is equivalent to ``s E - (J - R)`` being singular."""
    return nullspace_basis(np.vstack([sys.E, sys.J, sys.R])).shape[1] > 0


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
def cold_e_svd(monkeypatch):
    """Empty the SVD memo of :func:`phdesc.linalg.e_svd` for one test."""
    monkeypatch.setattr(linalg, "_E_SVD", None)


@pytest.fixture
def cold_report(monkeypatch):
    """Empty the report memo of :func:`phdesc.pencil.pencil_report` for one test."""
    monkeypatch.setattr(pencil, "_REPORT", None)
