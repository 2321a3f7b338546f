import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from phdesc.errors import NotSquare, ToleranceBreakdown
from phdesc.linalg import (
    DEFAULT_TOL,
    DefinitenessKind,
    ToleranceConfig,
    classify_definiteness,
    decide_rank,
    deficiency,
    nullspace_basis,
    numerical_rank,
    pseudo_inverse,
    range_basis,
    spectral_norm,
    sym_skew_split,
)

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

    def test_range_identity(self):
        Q = range_basis(np.eye(3))
        assert Q.shape == (3, 3)
        assert np.allclose(Q.T @ Q, np.eye(3), atol=1e-13)

    def test_range_zero(self):
        assert range_basis(np.zeros((3, 2))).shape == (3, 0)

    def test_range_single_column(self):
        Q = range_basis([[1.0], [1.0]])
        assert Q.shape == (2, 1)
        assert np.allclose(np.abs(Q[:, 0]), np.full(2, 1 / np.sqrt(2)), atol=1e-14)

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


# (nullspace basis, range basis) of the zero matrix of each empty shape.
EMPTY_BASES = {
    (0, 0): (np.zeros((0, 0)), np.zeros((0, 0))),
    (0, 3): (np.eye(3), np.zeros((0, 0))),
    (3, 0): (np.zeros((0, 0)), np.zeros((3, 0))),
}


@pytest.mark.parametrize("shape", EMPTY_BASES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_empty_operands_exact(shape):
    # Blocks such as B1, B3 or a kernel basis are often empty; numpy's SVD
    # of an empty matrix gives identity factors, so no special case is needed.
    M = np.zeros(shape)
    null, rng_ = EMPTY_BASES[shape]
    assert numerical_rank(M) == 0
    for got, want in [(nullspace_basis(M), null), (range_basis(M), rng_),
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
        assert d.kind is DefinitenessKind.POSITIVE_DEFINITE
        assert abs(d.min_eigenvalue - 1.0) < 1e-14

    def test_zero(self):
        d = classify_definiteness(np.zeros((2, 2)))
        assert d.kind is DefinitenessKind.POSITIVE_SEMIDEFINITE
        assert abs(d.min_eigenvalue) < 1e-14

    def test_indefinite(self):
        assert classify_definiteness(np.diag([1.0, -1.0])).kind is DefinitenessKind.INDEFINITE

    def test_negative(self):
        assert classify_definiteness(-np.eye(2)).kind is DefinitenessKind.NEGATIVE_DEFINITE
        d = classify_definiteness(np.diag([0.0, -1.0]))
        assert d.kind is DefinitenessKind.NEGATIVE_SEMIDEFINITE

    def test_not_square(self):
        with pytest.raises(NotSquare):
            classify_definiteness(np.zeros((2, 3)))


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
