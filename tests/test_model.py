import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from phdesc.errors import GridTooShort, ShapeMismatch
from phdesc.generators import random_ph
from phdesc.linalg import DEFAULT_TOL, spectral_norm
from phdesc.model import (
    PHSystem,
    Trajectory,
    apply_feedback,
    dissipation_inequality_check,
    dissipation_matrix,
    _FORM_BLOCK_ROWS,
    power_balance_residual,
    quadratic_forms,
    validate,
)
from conftest import hamiltonian

ONE = np.array([[1.0]])
ZERO = np.array([[0.0]])


def scalar_system(E=1.0, J=0.0, R=0.0, G=0.0, P=0.0, S=0.0, N=0.0):
    return PHSystem(E=[[E]], J=[[J]], R=[[R]], G=[[G]], P=[[P]], S=[[S]], N=[[N]])


class TestValidate:
    def test_degenerate_all_zero_passes(self):
        assert validate(scalar_system(E=0.0)).passed

    def test_scalar_passive_system(self):
        rep = validate(scalar_system(E=1, R=1, G=1, S=1))
        assert rep.passed
        assert abs(rep.w_psd.margin - 1.0) < 1e-12  # lambda_min of diag(1, 1)

    def test_negative_r_fails(self):
        rep = validate(scalar_system(E=0.0, R=-1.0))
        assert not rep.passed
        assert not rep.w_psd.passed

    def test_one_svd_per_violation_check(self, svd_calls):
        # A 1e-14 structure violation in each of E, J, N and S: nonzero,
        # so each check takes its SVD, yet well inside the band.
        s = random_ph(6, 2, 0)
        bump = np.zeros((6, 6))
        bump[0, 1] = 1e-14
        sys = PHSystem(E=s.E + bump, J=s.J + bump, R=s.R, G=s.G, P=s.P,
                       S=s.S + bump[:2, :2], N=s.N + 1e-14 * np.eye(2))
        assert validate(sys).passed
        # e_symmetric, j_skew, n_skew and s_symmetric; the PSD checks take no SVD.
        assert [a.shape for a, _ in svd_calls] == [(6, 6), (6, 6), (2, 2), (2, 2)]

    def test_exact_structure_takes_no_svd(self, svd_calls):
        # Generated data have E - E^T, J + J^T, N + N^T and S - S^T exactly
        # zero, and the norm of a zero matrix needs no decomposition.
        assert validate(random_ph(6, 2, 0)).passed
        assert svd_calls == []

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            PHSystem(E=np.eye(2), J=np.zeros((2, 2)), R=np.zeros((2, 2)),
                     G=np.zeros((3, 1)), P=np.zeros((2, 1)),
                     S=np.zeros((1, 1)), N=np.zeros((1, 1)))


class TestDissipationMatrix:
    def test_scalar(self):
        W = dissipation_matrix(scalar_system(R=1, S=1))
        assert np.array_equal(W, np.eye(2))

    def test_all_zero(self):
        assert np.array_equal(dissipation_matrix(scalar_system(E=0)), np.zeros((2, 2)))

    def test_block_assembly(self):
        W = dissipation_matrix(scalar_system(R=2, P=1, S=1))
        assert np.array_equal(W, [[2.0, 1.0], [1.0, 1.0]])


def energy(sys, x) -> float:
    """``H(x) = x^T E x / 2`` of one state, through ``quadratic_forms``."""
    return 0.5 * float(quadratic_forms(sys.E, np.array([x], dtype=float))[0])


class TestHamiltonian:
    def test_identity(self):
        sys = PHSystem(E=np.eye(2), J=np.zeros((2, 2)), R=np.zeros((2, 2)),
                       G=np.zeros((2, 0)), P=np.zeros((2, 0)),
                       S=np.zeros((0, 0)), N=np.zeros((0, 0)))
        assert energy(sys, [1.0, 1.0]) == pytest.approx(1.0)
        assert energy(sys, [0.0, 0.0]) == 0.0

    def test_weighted(self):
        sys = PHSystem(E=np.diag([2.0, 0.0]), J=np.zeros((2, 2)), R=np.zeros((2, 2)),
                       G=np.zeros((2, 0)), P=np.zeros((2, 0)),
                       S=np.zeros((0, 0)), N=np.zeros((0, 0)))
        assert energy(sys, [3.0, 5.0]) == pytest.approx(9.0)

    def test_nonnegative_on_valid_systems(self, rng):
        for seed in range(20):
            sys = random_ph(5, 2, seed)
            for _ in range(10):
                x = rng.normal(size=5)
                assert energy(sys, x) >= -DEFAULT_TOL.psd_tol * float(x @ x)


class TestQuadraticForms:
    @pytest.mark.parametrize("K", [0, 1, _FORM_BLOCK_ROWS - 1, 3 * _FORM_BLOCK_ROWS + 5])
    def test_matches_per_row_formula(self, rng, K):
        sys = random_ph(6, 3, 2)
        x = rng.normal(size=(K, 6))
        u = rng.normal(size=(K, 3))
        W = dissipation_matrix(sys)
        energies = quadratic_forms(sys.E, x)
        supplies = quadratic_forms(W, x, u)
        assert energies.shape == supplies.shape == (K,)
        expected_e = np.array([2.0 * hamiltonian(sys, xk) for xk in x])
        expected_s = np.array([zk @ W @ zk for zk in np.hstack([x, u])])
        np.testing.assert_allclose(energies, expected_e, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(supplies, expected_s, rtol=1e-12, atol=0.0)


class TestApplyFeedback:
    def test_zero_feedback_identity(self):
        sys = scalar_system(E=1, R=1, G=1, S=1)
        closed = apply_feedback(sys, [[0.0]])
        for name in "EJRGPSN":
            assert np.array_equal(getattr(closed, name), getattr(sys, name))

    def test_scalar_no_feedthrough(self):
        sys = scalar_system(E=1, G=1)
        closed = apply_feedback(sys, [[-2.0]])
        assert closed.J[0, 0] == 0.0
        assert closed.R[0, 0] == 2.0
        assert closed.G[0, 0] == 1.0
        assert closed.P[0, 0] == 0.0

    def test_scalar_with_feedthrough(self):
        sys = scalar_system(E=1, R=1, G=1, S=1)
        closed = apply_feedback(sys, [[-2.0]])
        assert closed.R[0, 0] == pytest.approx(3.0)
        assert closed.P[0, 0] == pytest.approx(-1.0)
        assert closed.G[0, 0] == pytest.approx(0.0)

    def test_preserves_e_s_n_bitwise(self, rng):
        sys = random_ph(4, 2, 3)
        F = rng.normal(size=(2, 4))
        closed = apply_feedback(sys, F)
        assert closed.E is sys.E and closed.S is sys.S and closed.N is sys.N

    def test_pencil_identity(self, rng):
        for seed in range(15):
            sys = random_ph(5, 3, seed)
            F = rng.normal(size=(3, 5))
            closed = apply_feedback(sys, F)
            lhs = closed.J - closed.R
            rhs = (sys.J - sys.R) + sys.B @ F
            assert spectral_norm(lhs - rhs) <= 1e-13 * max(1.0, spectral_norm(rhs))

    def test_exact_structure(self, rng):
        sys = random_ph(6, 3, 9)
        F = rng.normal(size=(3, 6)) * 10
        closed = apply_feedback(sys, F)
        assert np.array_equal(closed.J, -closed.J.T)
        assert np.array_equal(closed.R, closed.R.T)

    def test_g_p_same_increment(self, rng):
        sys = random_ph(4, 2, 5)
        F = rng.normal(size=(2, 4))
        closed = apply_feedback(sys, F)
        assert np.allclose(closed.G, closed.P - sys.P + sys.G, atol=1e-14)

    @given(arrays(np.float64, (2, 3),
                  elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)))
    def test_pencil_identity_any_feedback(self, F):
        sys = random_ph(3, 2, 77)
        closed = apply_feedback(sys, F)
        rhs = (sys.J - sys.R) + sys.B @ F
        assert spectral_norm((closed.J - closed.R) - rhs) <= 1e-13 * max(1.0, spectral_norm(rhs))
        assert np.array_equal(closed.J, -closed.J.T)
        assert np.array_equal(closed.R, closed.R.T)

    def test_composition_additive_in_pencil(self, rng):
        sys = random_ph(4, 2, 8)
        F1 = rng.normal(size=(2, 4))
        F2 = rng.normal(size=(2, 4))
        twice = apply_feedback(apply_feedback(sys, F1), F2)
        once = apply_feedback(sys, F1 + F2)
        a = twice.J - twice.R
        b = once.J - once.R
        # feedback composes additively through (G-P)F because the first loop
        # shifts G and P by the same amount, leaving G-P invariant
        assert spectral_norm(a - b) <= 1e-12 * max(1.0, spectral_norm(b))


def _constant_trajectory(n, m, K=5, x=None, u=None, y=None):
    t = np.linspace(0.0, 1.0, K)
    X = np.tile(np.zeros(n) if x is None else np.asarray(x, float), (K, 1))
    U = np.tile(np.zeros(m) if u is None else np.asarray(u, float), (K, 1))
    Y = np.tile(np.zeros(m) if y is None else np.asarray(y, float), (K, 1))
    return Trajectory(t=t, x=X, u=U, y=Y)


class TestPowerBalance:
    def test_zero_trajectory(self):
        sys = scalar_system(E=1, R=1, G=1, S=1)
        assert power_balance_residual(sys, _constant_trajectory(1, 1)) == 0.0

    def test_conserved_hamiltonian(self):
        # no dissipation, no input: constant state solves E x' = 0
        sys = scalar_system(E=1)
        traj = _constant_trajectory(1, 1, x=[3.0])
        assert power_balance_residual(sys, traj) <= 1e-14

    def test_second_order_on_exact_solution(self):
        # closed loop x' = -2x sampled analytically: the checker's only
        # error is the central difference, so the residual falls ~4x per
        # step halving
        sys = PHSystem(E=ONE, J=ZERO, R=[[2.0]], G=ONE, P=ZERO, S=ZERO, N=ZERO)
        residuals = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            t = np.arange(0.0, 1.0 + dt / 2, dt)
            x = np.exp(-2.0 * t).reshape(-1, 1)
            traj = Trajectory(t=t, x=x, u=np.zeros_like(x), y=x.copy())
            residuals.append(power_balance_residual(sys, traj))
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.1)
        assert residuals[1] / residuals[2] == pytest.approx(4.0, rel=0.1)

    def test_grid_too_short(self):
        sys = scalar_system(E=1)
        traj = Trajectory(t=np.array([0.0, 1.0]), x=np.zeros((2, 1)),
                          u=np.zeros((2, 1)), y=np.zeros((2, 1)))
        with pytest.raises(GridTooShort):
            power_balance_residual(sys, traj)

    def test_strictly_increasing_grid_required(self):
        with pytest.raises(ValueError):
            Trajectory(t=np.array([0.0, 0.0, 1.0]), x=np.zeros((3, 1)),
                       u=np.zeros((3, 1)), y=np.zeros((3, 1)))


class TestDissipationInequality:
    def test_zero_trajectory(self):
        sys = scalar_system(E=1, R=1, G=1, S=1)
        assert dissipation_inequality_check(sys, _constant_trajectory(1, 1))

    def test_energy_injection_without_input_fails(self):
        sys = scalar_system(E=1)
        K = 11
        t = np.linspace(0.0, 1.0, K)
        X = (1.0 + 5.0 * t).reshape(-1, 1)  # H grows with zero input
        traj = Trajectory(t=t, x=X, u=np.zeros((K, 1)), y=np.zeros((K, 1)))
        assert not dissipation_inequality_check(sys, traj)
