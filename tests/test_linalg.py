import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from phdesc.errors import NotSquare, ToleranceBreakdown
from phdesc.linalg import (
    DEFAULT_TOL,
    Definiteness,
    ToleranceConfig,
    cholesky_proves,
    classify_definiteness,
    decide_rank,
    deficiency,
    nullspace_basis,
    numerical_rank,
    pseudo_inverse,
    rank_threshold,
    row_deficiency,
    spectral_norm,
    sym_skew_split,
)
from phdesc.model import PHSystem, validate
from phdesc.pencil import DissipationBound, compress_feedthrough, pencil_report

finite_elems = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def square_matrices(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=finite_elems)
    )


class TestToleranceConfig:
    def test_defaults_positive(self):
        tol = ToleranceConfig()
        assert tol.rank_rtol > 0 and tol.psd_tol > 0
        assert tol.axis_tol > 0 and tol.stability_margin > 0

    def test_default_rank_rtol(self):
        assert ToleranceConfig().rank_rtol == 256 * np.finfo(float).eps

    @pytest.mark.parametrize("field", ["rank_rtol", "psd_tol", "axis_tol", "stability_margin"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            ToleranceConfig(**{field: 0.0})


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_zero(self):
        assert numerical_rank(np.zeros((2, 2))) == 0

    def test_rank_one(self):
        # singular values of [[1,1],[1,1]] are {2, 0}
        assert numerical_rank([[1.0, 1.0], [1.0, 1.0]]) == 1

    def test_empty(self):
        assert numerical_rank(np.zeros((0, 3))) == 0
        assert numerical_rank(np.zeros((3, 0))) == 0

    def test_rank_plus_nullity(self, rng):
        for _ in range(40):
            p, q = rng.integers(1, 7, size=2)
            r = int(rng.integers(0, min(p, q) + 1))
            M = rng.normal(size=(p, r)) @ rng.normal(size=(r, q)) if r else np.zeros((p, q))
            assert numerical_rank(M) == r
            assert numerical_rank(M) + nullspace_basis(M).shape[1] == q


    def test_no_margin_refused(self):
        # The cutoff is 1e-16 * 1 * 3 = 3e-16: 5e-16 kept and 1e-16 dropped
        # both lie within tenfold of it.
        with pytest.raises(ToleranceBreakdown, match="numerical rank"):
            numerical_rank(np.diag([1.0, 5e-16, 1e-16]), ToleranceConfig(rank_rtol=1e-16))


class TestRankRules:
    def test_lone_value_near_cutoff(self):
        # Dropped at 0.4x the cutoff with nothing kept: the pair rule has a
        # clear side, the any-value rule does not.
        s, thr = np.array([3.4e-13]), 8.2e-13
        assert decide_rank(s, thr, "step") == 0
        with pytest.raises(ToleranceBreakdown, match="at step: threshold 8.200e-13"):
            deficiency(s, thr, "step")

    def test_clear_margin(self):
        s = np.array([2.0, 1.0, 1e-3, 1e-9])
        assert decide_rank(s, 1e-6, "step") == 3
        assert deficiency(s, 1e-6, "step") == 1

    def test_pair_within_margin(self):
        with pytest.raises(ToleranceBreakdown) as info:
            decide_rank(np.array([1.0, 5e-6, 5e-7]), 1e-6, "pair")
        assert (info.value.stage, info.value.kept_min, info.value.dropped_max) == \
            ("pair", 5e-6, 5e-7)


class TestNullspaceRange:
    def test_full_rank_empty_basis(self):
        assert nullspace_basis(np.eye(2)).shape == (2, 0)

    def test_scalar_zero(self):
        B = nullspace_basis(np.zeros((1, 1)))
        assert B.shape == (1, 1) and abs(abs(B[0, 0]) - 1.0) < 1e-14

    def test_coordinate_nullspace(self):
        B = nullspace_basis([[1.0, 0.0], [0.0, 0.0]])
        assert B.shape == (2, 1)
        assert abs(abs(B[1, 0]) - 1.0) < 1e-14 and abs(B[0, 0]) < 1e-14

    def test_nullspace_quality(self, rng):
        for _ in range(40):
            p, q = rng.integers(1, 8, size=2)
            r = int(rng.integers(0, min(p, q) + 1))
            M = rng.normal(size=(p, r)) @ rng.normal(size=(r, q)) if r else np.zeros((p, q))
            B = nullspace_basis(M)
            assert np.allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-12)
            if B.shape[1]:
                s = np.linalg.svd(M, compute_uv=False)
                thr = DEFAULT_TOL.rank_rtol * (s[0] if s.size else 0.0) * max(M.shape)
                assert spectral_norm(M @ B) <= 10 * max(thr, 1e-300) + 1e-13 * spectral_norm(M)


    def test_tall_input_takes_the_thin_svd(self, monkeypatch):
        # Same nullity and the same subspace as the full SVD's trailing
        # rows of Vh, on seeded rank-deficient tall shapes.
        rng = np.random.default_rng(24)
        svd, thin = np.linalg.svd, []

        def recording(a, *args, **kwargs):
            thin.append(kwargs.get("full_matrices") is False)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        for _ in range(200):
            q = int(rng.integers(1, 13))
            p = q + int(rng.integers(0, 3 * q + 1))
            r = int(rng.integers(0, q + 1))
            M = rng.normal(size=(p, r)) @ rng.normal(size=(r, q))
            B = nullspace_basis(M)
            _, s, vh = svd(M)
            full = vh[decide_rank(s, DEFAULT_TOL.rank_rtol * s[0] * p, "full"):].T
            assert B.shape == full.shape
            assert np.linalg.norm(B @ B.T - full @ full.T) <= 1e-12
        assert all(thin) and len(thin) == 200


# Nullspace basis of the zero matrix of each empty shape.
EMPTY_BASES = {
    (0, 0): np.zeros((0, 0)),
    (0, 3): np.eye(3),
    (3, 0): np.zeros((0, 0)),
}


@pytest.mark.parametrize("shape", EMPTY_BASES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_empty_operands_exact(shape):
    # Blocks such as B1, B3 or a kernel basis are often empty; numpy's SVD
    # of an empty matrix gives identity factors, so no special case is needed.
    M = np.zeros(shape)
    assert numerical_rank(M) == 0
    for got, want in [(nullspace_basis(M), EMPTY_BASES[shape]),
                      (pseudo_inverse(M), np.zeros(shape[::-1]))]:
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(2)), np.eye(2))

    def test_scalar(self):
        assert np.allclose(pseudo_inverse([[2.0]]), [[0.5]])

    def test_zero_transposed_shape(self):
        assert pseudo_inverse(np.zeros((2, 3))).shape == (3, 2)
        assert np.allclose(pseudo_inverse(np.zeros((2, 3))), 0.0)

    def test_penrose_identity(self, rng):
        for _ in range(40):
            p, q = rng.integers(1, 7, size=2)
            r = int(rng.integers(0, min(p, q) + 1))
            M = rng.normal(size=(p, r)) @ rng.normal(size=(r, q)) if r else np.zeros((p, q))
            Mp = pseudo_inverse(M)
            scale = max(1.0, spectral_norm(M))
            assert spectral_norm(M @ Mp @ M - M) <= 1e-10 * scale
            assert spectral_norm(Mp @ M @ Mp - Mp) <= 1e-10 * max(1.0, spectral_norm(Mp))


class TestClassifyDefiniteness:
    def test_identity(self):
        d = classify_definiteness(np.eye(3))
        assert d.is_definite and d.is_semidefinite
        assert abs(d.min_eigenvalue - 1.0) < 1e-14

    def test_zero(self):
        d = classify_definiteness(np.zeros((2, 2)))
        assert d.is_semidefinite and not d.is_definite
        assert abs(d.min_eigenvalue) < 1e-14

    def test_indefinite(self):
        d = classify_definiteness(np.diag([1.0, -1.0]))
        assert not d.is_semidefinite and not d.is_definite

    def test_negative(self):
        assert not classify_definiteness(-np.eye(2)).is_semidefinite
        d = classify_definiteness(np.diag([0.0, -1.0]))
        assert not d.is_semidefinite and not d.is_definite

    def test_not_square(self):
        with pytest.raises(NotSquare):
            classify_definiteness(np.zeros((2, 3)))


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _planted(Q, w):
    """The symmetric matrix ``Q diag(w) Q^T``, symmetric bitwise."""
    H = (Q * w) @ Q.T
    return (H + H.T) / 2.0


def _outcome(fn, *args):
    """fn(*args), or the stage, threshold and values of its refusal."""
    try:
        return fn(*args)
    except ToleranceBreakdown as exc:
        return ("refused", exc.stage, exc.threshold, exc.kept_min, exc.dropped_max)


# Where a planted extreme value sits, in units of the band or the cutoff.
_NEAR = (0.0, 0.5, -0.5, 2.0, -2.0, 20.0, -20.0)
_FAR = (1e5, -1e5)


class TestCholeskyProof:
    """Every verdict a Cholesky factorization proves is the one the
    eigvalsh or SVD route gives; where it proves nothing that route decides."""

    @pytest.mark.parametrize("n", [1, 2, 5, 40, 330])
    def test_definiteness_verdicts_equal_the_eigvalsh_route(self, rng, n):
        Q = _random_orthogonal(rng, n)
        rest = rng.uniform(0.5, 1.0, size=n - 1)
        rest[:1] = 1.0
        for tol in (DEFAULT_TOL, ToleranceConfig(psd_tol=1e-4)):
            for scale, c, sign in itertools.product((1e-8, 1.0, 1e8), _NEAR + _FAR, (1, -1)):
                # lambda_min planted at c times the band psd_tol * ||H||_2.
                w = sign * scale * np.concatenate([[c * tol.psd_tol], rest])
                H = _planted(Q, w)
                lam = np.linalg.eigvalsh(H)
                route = Definiteness((float(lam[0]), float(lam[-1])), tol)
                case = (tol.psd_tol, scale, c, sign)
                assert classify_definiteness(H, tol).is_definite == route.is_definite, case
                assert classify_definiteness(H, tol).is_semidefinite == route.is_semidefinite, case

    def test_zero_matrix_is_semidefinite_with_no_decomposition(
            self, cold_e_svd, eigvalsh_calls, cholesky_calls):
        # S = 0 in the feedthrough split, and W = [[R, P], [P^T, S]] = 0 in
        # validate: eigvalsh would return lo = hi = band = 0.
        Z = np.zeros((2, 2))
        assert classify_definiteness(Z).is_semidefinite
        assert compress_feedthrough(Z, Z).m3 == 2
        J = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        sys = PHSystem(E=np.eye(3), J=J, R=np.zeros((3, 3)), G=np.ones((3, 2)),
                       P=np.zeros((3, 2)), S=Z, N=Z)
        assert validate(sys).w_psd.passed
        assert eigvalsh_calls == [] and cholesky_calls == []

    def test_singular_dissipation_bound_takes_one_cholesky(
            self, cold_e_svd, cold_report, eigvalsh_calls, cholesky_calls):
        # R is singular with a positive diagonal, so the proof of the bound
        # is tried and fails; the one eigvalsh then decides, with no second
        # factorization.
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        bound = pencil_report(np.eye(2), J - np.ones((2, 2))).dissipation_bound
        assert not bound.exceeds(1e-7)
        assert len(cholesky_calls) == 1 and len(eigvalsh_calls) == 1
        assert bound.axis_distance == 0.0

    def test_proof_never_claims_a_refuted_bound(self, rng):
        # t just above the exact Rayleigh quotient of eigh's eigenvector:
        # x^T (H - t I) x < 0 exactly, so lambda_min(H) < t.  The unshifted
        # factorization of H - t I succeeds on about half of these.
        n = 40
        Q = _random_orthogonal(rng, n)
        for _ in range(400):
            w = rng.uniform(0.5, 1.0, size=n)
            w[0] = 0.0
            H = _planted(Q, w)
            t = _above_rayleigh_quotient(H, np.linalg.eigh(H)[1][:, 0])
            assert not cholesky_proves(H, t)

    def test_shifts_in_place(self):
        H = np.eye(3)
        assert cholesky_proves(H, 0.5) and H[0, 0] < 0.5 and H[0, 1] == 0.0
        assert not cholesky_proves(np.eye(3), 1.0)  # lambda_min = t is not above t
        assert cholesky_proves(np.zeros((0, 0)), 1.0)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (5, 8), (40, 44), (300, 331)])
    def test_full_row_rank_equals_the_svd_route(self, rng, shape):
        p, q = shape
        U, V = _random_orthogonal(rng, p), _random_orthogonal(rng, q)[:p]
        rest = rng.uniform(0.5, 1.0, size=p)
        rest[0] = 1.0
        # At rank_rtol = 1e-6 the Gram matrix resolves the cutoff, so the
        # proof is tried on both sides of it; at the default it is not.
        for tol in (DEFAULT_TOL, ToleranceConfig(rank_rtol=1e-6)):
            for c in (0.5, 2.0, 9.0, 11.0, 100.0, 1e5):
                # sigma_p planted at c times the cutoff rank_rtol * sigma_1 * q.
                s = rest.copy()
                s[-1] = min(c * tol.rank_rtol * q, 0.5) if p > 1 else 1.0
                M = (U * s) @ V
                sv = np.linalg.svd(M, compute_uv=False)
                thr = rank_threshold(sv, M.shape, tol)
                case = (tol.rank_rtol, c)
                assert _outcome(numerical_rank, M, tol, "stage") == \
                    _outcome(decide_rank, sv, thr, "stage"), case
                assert _outcome(row_deficiency, M, tol, "stage") == \
                    _outcome(deficiency, sv, thr, "stage"), case
                # A tall matrix and a complex one take the SVD.
                assert _outcome(numerical_rank, M.T, tol, "stage") == \
                    _outcome(decide_rank, sv, thr, "stage"), case
                sv = np.linalg.svd(M + 0j, compute_uv=False)
                assert _outcome(row_deficiency, M + 0j, tol, "stage") == \
                    _outcome(deficiency, sv, rank_threshold(sv, M.shape, tol), "stage"), case

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_dissipation_bound_equals_the_axis_distance_route(self, rng, n):
        Q = _random_orthogonal(rng, n)
        E = _planted(Q, rng.uniform(0.5, 2.0, size=n))
        norm_e = float(np.linalg.eigvalsh(E)[-1])
        J = rng.normal(size=(n, n))
        J = (J - J.T) / 2.0
        Qr = _random_orthogonal(rng, n)
        rest = rng.uniform(0.5, 1.0, size=n - 1)
        rest[:1] = 1.0
        for need, scale, c in itertools.product((1e-7, 1e-3), (1.0, 1e3), _NEAR + _FAR):
            # lambda_min(R) planted at c times need * ||E||_2, with ||R||_2
            # at scale, so that the band psd_tol ||R||_2 leads at 1e3.
            R = _planted(Qr, np.concatenate([[c * need * norm_e], scale * rest]))
            A = J - R
            # Two fresh bounds: one that has read its eigenvalues proves nothing.
            fresh = lambda: DissipationBound(Definiteness(lambda: -A), norm_e, True)  # noqa: E731
            expected = fresh().axis_distance > need
            assert fresh().exceeds(need) == expected, (need, scale, c)


def _above_rayleigh_quotient(H, x) -> float:
    """The least float t above ``x^T H x / x^T x``, computed exactly: every
    float is an integer multiple of 2^-1074."""
    def ints(a):
        return [num << 1074 >> (den.bit_length() - 1)
                for num, den in (float(v).as_integer_ratio() for v in np.ravel(a))]

    n, xi, hi = len(x), ints(x), ints(H)
    num = sum(xi[i] * sum(hi[i * n + j] * xi[j] for j in range(n)) for i in range(n))
    rq = Fraction(num, sum(v * v for v in xi) << 1074)
    t = float(rq)
    while not Fraction(t) > rq:
        t = float(np.nextafter(t, np.inf))
    return t


class TestSymSkewSplit:
    def test_example(self):
        S, N = sym_skew_split([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(S, [[1.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(N, [[0.0, 1.0], [-1.0, 0.0]])

    def test_symmetric_input(self):
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        S, N = sym_skew_split(M)
        assert np.array_equal(S, M) and np.array_equal(N, 0 * M)

    def test_skew_input(self):
        M = np.array([[0.0, 5.0], [-5.0, 0.0]])
        S, N = sym_skew_split(M)
        assert np.array_equal(N, M) and np.array_equal(S, 0 * M)

    @given(square_matrices())
    def test_reconstruction_and_structure(self, M):
        S, N = sym_skew_split(M)
        assert np.array_equal(S, S.T)
        assert np.array_equal(N, -N.T)
        assert np.allclose(S + N, M, rtol=0, atol=1e-9 * max(1.0, np.abs(M).max()))
