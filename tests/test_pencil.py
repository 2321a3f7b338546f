import itertools
import sys as sys_module
import threading

import numpy as np
import pytest
import scipy.linalg

from phdesc import pencil
from phdesc.certify import certify_closed_loop
from phdesc.errors import ConditionsNotMet, HypothesisViolated, NotPSD, ToleranceBreakdown
from phdesc.generators import random_ph
from phdesc.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    nullspace_basis,
    numerical_rank,
    pseudo_inverse,
    range_basis,
)
from phdesc.model import PHSystem, apply_feedback, validate
from phdesc.pencil import (
    StabilityClass,
    compress_feedthrough,
    feedback_analysis,
    imaginary_axis_full_rank,
    index_one_rank_condition,
    index_reduction_rank_condition,
    pencil_report,
    stabilizability_rank_condition,
    strict_passifiability_condition,
)
from phdesc.synthesis import synthesize_passifying, synthesize_stabilizing
from conftest import (
    assert_spectra_match,
    logged_routes,
    brute_force_rank_on_axis,
    random_dissipative_pencil,
    singular_common_nullspace,
    undamped_block_nonsingularity_condition,
    undamped_block_stability_condition,
)

ONE = np.array([[1.0]])
ZERO = np.array([[0.0]])


def scalar_system(E=1.0, J=0.0, R=0.0, G=0.0, P=0.0, S=0.0, N=0.0):
    return PHSystem(E=[[E]], J=[[J]], R=[[R]], G=[[G]], P=[[P]], S=[[S]], N=[[N]])


class TestStaircase:
    def test_ordinary_pencil(self):
        s = pencil_report(np.eye(2), np.diag([-1.0, -2.0]))
        assert s.regular and s.index == 0
        assert sorted(s.finite_eigenvalues.real) == pytest.approx([-2.0, -1.0])
        assert not s.infinite_block_sizes

    def test_index_two_block(self):
        s = pencil_report(np.array([[1.0, 0.0], [0.0, 0.0]]),
                          np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert s.regular and s.index == 2
        assert s.finite_eigenvalues.size == 0
        assert s.infinite_block_sizes == (2,)

    def test_zero_pencil_singular(self):
        s = pencil_report(ZERO, ZERO)
        assert not s.regular
        assert s.right_minimal_indices == (0,)
        assert s.left_minimal_indices == (0,)
        assert s.normal_rank == 0

    def test_rectangular_mixed_structure(self):
        # one right singular chain of order 1 plus a simple infinite divisor
        E = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        s = pencil_report(E, A)
        assert s.right_minimal_indices == (1,)
        assert s.infinite_block_sizes == (1,)
        assert s.left_minimal_indices == ()
        assert s.normal_rank == 2

    def test_dimension_accounting(self, rng):
        for _ in range(30):
            p, q = rng.integers(1, 7, size=2)
            A = rng.normal(size=(p, q))
            E = rng.normal(size=(p, q))
            if rng.random() < 0.5:
                E[:, : q // 2] = 0.0
            if rng.random() < 0.3:
                A[p // 2 :, :] = 0.0
            s = pencil_report(E, A)
            assert s.dimension_accounting() == (p, q)

    def test_orthogonal_equivalence_invariance(self, rng):
        for seed in range(20):
            srng = np.random.default_rng(seed)
            n = int(srng.integers(2, 7))
            sys = random_ph(n, 2, seed)
            A, E = sys.A, sys.E
            s1 = pencil_report(E, A)
            q1, _ = np.linalg.qr(srng.normal(size=(n, n)))
            q2, _ = np.linalg.qr(srng.normal(size=(n, n)))
            s2 = pencil_report(q1 @ E @ q2, q1 @ A @ q2)
            assert s1.infinite_block_sizes == s2.infinite_block_sizes
            assert s1.right_minimal_indices == s2.right_minimal_indices
            assert s1.left_minimal_indices == s2.left_minimal_indices
            assert_spectra_match(s1.finite_eigenvalues, s2.finite_eigenvalues)

    def test_complex_input_refused(self, cold_report):
        # The compressions use plain transposes, so complex data would get a
        # wrong spectrum (here -0.405-1.251i and 0.588+0.526i, not -1 and -1.5).
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        E = Q @ np.diag([1.0, 2.0, 0.0]) @ Q.conj().T
        A = -Q @ np.diag([1.0, 3.0, 1.0]) @ Q.conj().T
        with pytest.raises(HypothesisViolated, match="real"):
            pencil_report(E, A)

    def test_rectangular_pencil_is_singular(self, rng):
        for p, q in [(2, 3), (4, 2), (1, 5)]:
            A = rng.normal(size=(p, q))
            E = rng.normal(size=(p, q))
            E[:, 0] = 0.0
            s = pencil_report(E, A)
            assert s.stability_class is StabilityClass.SINGULAR
            assert not s.regular and s.index is None
            assert s.rank_E == np.linalg.matrix_rank(E)
            assert s.normal_rank == np.linalg.matrix_rank(0.37 * E - A) == min(p, q)

    def test_ambiguous_rank_raises(self):
        # singular values straddle the cutoff within a factor of ten on
        # both sides, so no block size can be certified
        E = np.diag([1.0, 5e-13, 5e-14])
        with pytest.raises(ToleranceBreakdown):
            pencil_report(E, np.eye(3))

    @pytest.mark.parametrize("shape, right, left", [
        ((0, 0), (), ()), ((3, 0), (), (0, 0, 0)), ((0, 3), (0, 0, 0), ())],
        ids=["0x0", "3x0", "0x3"])
    def test_empty_dimension(self, cold_e_svd, cold_report, shape, right, left):
        # The SVD of an E with no rows or no columns has identity factors and
        # no singular values, so such a pencil takes the general path.
        r = pencil_report(np.zeros(shape), np.zeros(shape))
        assert (r.right_minimal_indices, r.left_minimal_indices) == (right, left)
        assert r.regular == (shape == (0, 0)) and r.rank_E == 0 and r.n_regular == 0
        assert r.kernel_E.shape == (shape[1],) * 2 and r.cokernel_E.shape == (shape[0],) * 2


class TestRegularEigenvalues:
    def test_match_qz(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 13))
            E, J, R, _ = random_dissipative_pencil(rng, n, 0)
            s = pencil_report(E, J - R)
            if s.n_regular == 0:
                continue
            qz = scipy.linalg.eigvals(s.regular_A, s.regular_E)
            assert_spectra_match(s.finite_eigenvalues, qz, atol=1e-10)

    @pytest.mark.parametrize("factor, qz_calls", [(0.99, 0), (1.01, 1)])
    def test_qz_only_above_the_cutoff(self, monkeypatch, cold_report, factor, qz_calls):
        c = factor * pencil._QZ_COND
        E = np.diag([1.0, 0.5, 1.0 / c])
        A = -np.diag([1.0, 2.0, 3.0])
        calls = []
        eigvals = scipy.linalg.eigvals

        def counting(*args, **kwargs):
            calls.append(args)
            return eigvals(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigvals", counting)
        s = pencil_report(E, A)
        assert s.finite_eigenvalues.dtype == complex
        assert len(calls) == qz_calls
        assert_spectra_match(s.finite_eigenvalues, [-1.0, -4.0, -3.0 * c], atol=1e-12)


class TestIndexOneExit:
    """Square pencils of index at most one leave after the SVD of E."""

    @pytest.mark.parametrize("n, m, seed, rank_e", [
        (6, 2, 0, 4), (12, 2, 1, None), (20, 4, 3, 12), (60, 6, 1, None), (60, 6, 0, 50)])
    def test_matches_an_independent_index_test(self, monkeypatch, route_log,
                                               n, m, seed, rank_e):
        sys = random_ph(n, m, seed, rank_e=rank_e)
        F, _ = synthesize_stabilizing(sys)
        for E, A in [(sys.E, sys.A), (sys.E, apply_feedback(sys, F).A)]:
            monkeypatch.setattr(pencil, "_REPORT", None)
            route_log.clear()
            r = pencil_report(E, A)
            Z = nullspace_basis(E)
            k = Z.shape[1]
            assert logged_routes(route_log) == [("index-one exit", k)]
            # Index at most one exactly when Z^T A Z is nonsingular.
            assert numerical_rank(Z.T @ A @ Z) == k
            assert r.regular and r.index == min(k, 1)
            assert r.rank_E == numerical_rank(E) == n - k
            alpha, beta = scipy.linalg.eigvals(A, E, homogeneous_eigvals=True)
            finite = np.argsort(-np.abs(beta) / np.hypot(np.abs(alpha), np.abs(beta)))[: n - k]
            assert_spectra_match(r.finite_eigenvalues, alpha[finite] / beta[finite])

    def test_zero_a22_is_index_two(self, route_log, cold_report, rng):
        # In a rotated basis A22 = 0 holds only to rounding, so the exit
        # refuses it and the staircase finds the k blocks of size two.
        n, k = 8, 3
        E = np.diag(np.r_[rng.uniform(1.0, 2.0, n - k), np.zeros(k)])
        A = rng.normal(size=(n, n))
        A[n - k:, n - k:] = 0.0
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        r = pencil_report(Q.T @ E @ Q, Q.T @ A @ Q)
        assert logged_routes(route_log) == [("staircase", k)]
        assert r.regular and r.index == 2
        assert r.infinite_block_sizes == (2,) * k and r.rank_E == n - k

    @pytest.mark.parametrize("factor, route, shapes", [
        (0.99, "staircase", [(1, 1), (3, 3), (6, 1), (3, 1), (2, 2)]),
        (1.01, "index-one exit", [(1, 1)]),
    ])
    def test_guard_on_a22(self, route_log, cold_e_svd, cold_report, svd_calls, eigh_calls,
                          factor, route, shapes):
        # sigma_min(A22) = a and ||A||_F = sqrt(2 + a^2), so the guard
        # a * _QZ_COND > ||A||_F holds from a = sqrt(2 / (_QZ_COND^2 - 1)).
        # Below it ||A||_2 and the split's 6 x 1 stack, which finds no common
        # kernel; then the staircase runs: the A-compression on ker E and
        # step 2's SVD of the deflated E, to the same verdict.  The symmetric
        # E takes one eigh and no SVD on either route.
        a = factor * np.sqrt(2.0 / (pencil._QZ_COND ** 2 - 1.0))
        r = pencil_report(np.diag([1.0, 1.0, 0.0]), -np.diag([1.0, 1.0, a]))
        assert logged_routes(route_log) == [(route, 1)]
        assert [x.shape for x in eigh_calls] == [(3, 3)]
        assert [x.shape for x, _ in svd_calls] == shapes
        assert r.regular and r.index == 1 and r.rank_E == 2
        assert_spectra_match(r.finite_eigenvalues, [-1.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("E, A, verdict", [
        # A22 = 2e-4 is below the A-compression's cutoff 3e-3: right and left
        # minimal index 0, split off as a common kernel.
        (np.diag([1.0, 1.0, 0.0]), -np.diag([1.0, 1.0, -2e-4]), "singular"),
        # 2e-2 and 1e-3 both sit within tenfold of the cutoff 4e-3.
        (np.diag([1.0, 1.0, 0.0, 0.0]), -np.diag([1.0, 1.0, 2e-2, 1e-3]), "refused"),
        # A V2 = (1, 1e-3) is kept, but the deflated E is 1e-3 < 2e-3: index 2.
        (np.diag([1.0, 0.0]), np.array([[-1.0, 1.0], [1.0, 1e-3]]), "index 2"),
    ], ids=["singular", "refused", "index-2"])
    def test_guard_follows_rank_rtol(self, route_log, cold_report, E, A, verdict):
        # Each A22 clears sigma_min(A22) * _QZ_COND > ||A||_F, but with
        # rank_rtol = 1e-3 not the rank cutoffs of the staircase steps that
        # the exit skips, so the split or the staircase decides.  The refused
        # stack [A Z; A^T Z] has both singular values within tenfold of the
        # split's cutoff, so the staircase refuses it.
        tol = ToleranceConfig(rank_rtol=1e-3)
        if verdict == "refused":
            with pytest.raises(ToleranceBreakdown, match="A-compression, step 1"):
                pencil_report(E, A, tol)
        else:
            r = pencil_report(E, A, tol)
            assert r.regular == (verdict == "index 2")
            assert r.index == (2 if r.regular else None)
            assert r.right_minimal_indices == (() if r.regular else (0,))
        route = "common-kernel split" if verdict == "singular" else "staircase"
        assert [x for x, _ in logged_routes(route_log)] == [route]

    def test_only_a_fresh_report_logs(self, route_log, cold_report):
        for case in ("staircase", "split"):
            kwargs, route, k = LAZY_ROUTES[case]
            sys = random_ph(12, 2, 0, **kwargs)
            route_log.clear()
            pencil_report(sys.E, sys.A)
            pencil_report(sys.E.copy(), sys.A.copy())
            assert logged_routes(route_log) == [(route, k)]


class TestPencilReport:
    def test_stable_scalar(self):
        r = pencil_report(ONE, [[-2.0]])
        assert r.regular and r.index == 0
        assert r.finite_eigenvalues == pytest.approx([-2.0])
        assert r.stability_class is StabilityClass.ASYMPTOTICALLY_STABLE

    def test_integrator(self):
        r = pencil_report(ONE, ZERO)
        assert r.regular
        assert r.finite_eigenvalues == pytest.approx([0.0])
        assert r.stability_class is StabilityClass.STABLE_NOT_ASYMPTOTIC

    def test_index_two(self):
        r = pencil_report(np.array([[1.0, 0.0], [0.0, 0.0]]),
                          np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert r.regular and r.index == 2
        assert r.finite_eigenvalues.size == 0
        assert r.rank_E == 1

    def test_rank_e_follows_the_staircase(self):
        # 1e-14 is below the cutoff 256 eps * 2 (about 1.1e-13), so the
        # staircase finds one infinite block and rank E is 1.
        r = pencil_report(np.diag([1.0, 1e-14]), -np.eye(2))
        assert r.regular and r.index == 1
        assert r.rank_E == 1
        assert r.finite_eigenvalues.size == 1

    def test_rank_rtol_is_the_staircase_cutoff(self):
        # With rank_rtol = 1e-14 the cutoff is 2e-14, so 1e-13 is kept by
        # every decision: no hidden safety factor scales it.
        r = pencil_report(np.diag([1.0, 1e-13]), -np.eye(2), ToleranceConfig(rank_rtol=1e-14))
        assert r.regular and r.index == 0
        assert r.rank_E == 2
        assert r.finite_eigenvalues.size == 2

    @pytest.mark.parametrize("n, m, seed, index, svds", [(60, 6, 0, 0, 1), (12, 2, 1, 1, 2)])
    def test_index_one_exit_takes_svds_of_e_and_a22(self, cold_e_svd, cold_report, svd_calls,
                                                    eigh_calls, n, m, seed, index, svds):
        # svds decompositions.  Index 0: E's one eigh (E is symmetric) alone,
        # with no ||A||_2.  Index 1: also the singular values of the k x k
        # block A22 = U2^T A V2 on ker E.  Neither takes a staircase step or
        # a left pass.
        sys = random_ph(n, m, seed)
        r = pencil_report(sys.E, sys.A)
        assert r.regular and r.index == index
        assert [a.shape for a in eigh_calls] == [(n, n)]
        assert [a.shape for a, _ in svd_calls] == [(n - r.rank_E,) * 2] * (svds - 1)

    @pytest.mark.parametrize("n, seed", [(12, 0), (60, 1)])
    def test_one_rank_svd_per_axis_pair(self, cold_report, svd_calls, n, seed):
        # The oscillator block puts one pair +-i w on the axis; the
        # semisimplicity test decides it with one complex SVD, at +i w.
        sys = random_ph(n, 2, seed, force_axis_modes=True)
        r = pencil_report(sys.E, sys.A)
        assert r.stability_class is StabilityClass.STABLE_NOT_ASYMPTOTIC
        evs = r.finite_eigenvalues
        axis = evs[np.abs(evs.real) <= DEFAULT_TOL.axis_tol]
        assert len(axis) == 2 and axis[0] == axis[1].conjugate()
        lam = axis[axis.imag > 0][0]
        shifted = [a for a, _ in svd_calls if np.iscomplexobj(a)]
        assert len(shifted) == 1
        assert np.array_equal(shifted[0], lam * r.regular_E - r.regular_A)

    def test_axis_norms_taken_once(self, cold_report, svd_calls):
        # Two undamped oscillators, at +-i and +-2i, with E = I and R = 0:
        # ||E_reg|| and ||A_reg|| once, then one shifted SVD per axis pair.
        J = np.zeros((4, 4))
        J[0, 1], J[2, 3] = 1.0, 2.0
        r = pencil_report(np.eye(4), J - J.T)
        svd_calls.clear()
        assert r.stability_class is StabilityClass.STABLE_NOT_ASYMPTOTIC
        assert len(svd_calls) == 4

    @pytest.mark.parametrize("family", ["plain", "axis-mode", "singular"])
    def test_spectrum_in_canonical_order(self, family):
        # Sorted by real part, then imaginary part, on either route.
        for seed in range(4):
            sys = random_ph(9, 2, seed, **FAMILIES[family])
            evs = pencil_report(sys.E, sys.A).finite_eigenvalues
            assert evs.size and np.array_equal(evs, np.sort(evs))

    def test_axis_multiplicity_without_margin_refused(self, cold_report):
        # Below rounding, sigma_min(lam E_reg - A_reg) at the oscillator's
        # eigenvalue is 4.2e-16 against a cutoff of 4.7e-16: no tenfold
        # margin, so the geometric multiplicity is refused, not guessed.
        sys = random_ph(11, 3, 5, force_axis_modes=True)
        with pytest.raises(ToleranceBreakdown, match="geometric multiplicity"):
            pencil_report(sys.E, sys.A, ToleranceConfig(rank_rtol=1e-17)).stability_class
        r = pencil_report(sys.E, sys.A)
        assert r.stability_class is StabilityClass.STABLE_NOT_ASYMPTOTIC

    def test_singular_pencil(self):
        r = pencil_report(ZERO, ZERO)
        assert not r.regular and r.index is None
        assert r.stability_class is StabilityClass.SINGULAR

    def test_defective_axis_eigenvalue_is_not_stable(self):
        # Jordan block at zero: algebraic multiplicity 2, geometric 1
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        r = pencil_report(np.eye(2), A)
        assert r.stability_class is StabilityClass.UNSTABLE

    @pytest.mark.parametrize("A, expected", [
        (np.zeros((2, 2)), StabilityClass.STABLE_NOT_ASYMPTOTIC),
        (np.kron(np.eye(2), [[0.0, 2.0], [-2.0, 0.0]]), StabilityClass.STABLE_NOT_ASYMPTOTIC),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), StabilityClass.UNSTABLE),
    ], ids=["double-zero", "double-rotation", "jordan-block"])
    def test_repeated_axis_eigenvalue_decided_once(self, cold_report, svd_calls, A, expected):
        # E = I: 0 twice, +-2i twice, and a Jordan block at 0.  Each
        # distinct axis eigenvalue with Im >= 0 takes one multiplicity SVD.
        r = pencil_report(np.eye(A.shape[0]), A)
        svd_calls.clear()
        assert r.stability_class is expected
        shifted = [a for a, _ in svd_calls if np.iscomplexobj(a)]
        assert len(shifted) == 1

    def test_ph_pencils_stable_and_low_index(self):
        for seed in range(120):
            srng = np.random.default_rng(seed + 900)
            n = int(srng.integers(1, 9))
            m = int(srng.integers(1, 5))
            sys = random_ph(n, m, seed)
            r = pencil_report(sys.E, sys.A)
            assert r.stability_class is not StabilityClass.UNSTABLE
            if r.regular:
                assert r.index <= 2

    def test_one_by_one_regular_part_is_stable(self):
        # `phdesc gen --n 3 --m 1 --seed 1 --rank-w 0`: the regular part is
        # 1 x 1 with eigenvalue 8.9e-17, simple, so semisimple.  Anchored to
        # sigma_max of the shifted part alone, roundoff, the multiplicity
        # test found geometric multiplicity 0.
        sys = random_ph(3, 1, 1, rank_w=0)
        r = pencil_report(sys.E, sys.A)
        assert r.n_regular == 1 and abs(r.finite_eigenvalues[0]) < 1e-15
        assert r.stability_class is StabilityClass.STABLE_NOT_ASYMPTOTIC

    def test_validated_plants_never_unstable(self):
        # Dissipative Hamiltonian pencils have their finite eigenvalues in
        # the closed left half plane, semisimple on the axis (Mehl, Mehrmann
        # and Wojtylak, SIMAX 2018).
        grid = itertools.product(FAMILIES, range(3, 9), range(4), range(4), (None, 0, 1))
        for family, n, m, seed, rank_w in grid:
            sys = random_ph(n, m, seed, rank_w=rank_w, **FAMILIES[family])
            assert validate(sys).passed
            r = pencil_report(sys.E, sys.A)
            assert r.stability_class is not StabilityClass.UNSTABLE, (family, n, m, seed, rank_w)


class TestSingularCommonNullspace:
    def test_all_zero(self):
        assert singular_common_nullspace(scalar_system(E=0))

    def test_nonsingular(self):
        assert not singular_common_nullspace(scalar_system(E=1))

    def test_shared_direction(self):
        sys = PHSystem(E=np.diag([1.0, 0.0]), J=np.zeros((2, 2)), R=np.zeros((2, 2)),
                       G=np.zeros((2, 0)), P=np.zeros((2, 0)),
                       S=np.zeros((0, 0)), N=np.zeros((0, 0)))
        assert singular_common_nullspace(sys)

    def test_agrees_with_staircase(self):
        for seed in range(60):
            sys = random_ph(4, 2, seed, force_singular=bool(seed % 2))
            by_nullspace = singular_common_nullspace(sys)
            by_staircase = not pencil_report(sys.E, sys.A).regular
            assert by_nullspace == by_staircase


class TestImaginaryAxisFullRank:
    def test_controllable_integrator(self):
        ok, wit = imaginary_axis_full_rank(ONE, ZERO, ONE)
        assert ok and not wit

    def test_bare_integrator_fails_at_zero(self):
        ok, wit = imaginary_axis_full_rank(ONE, ZERO, np.zeros((1, 0)))
        assert not ok
        assert wit == [0j]

    def test_damped_scalar(self):
        ok, wit = imaginary_axis_full_rank(ONE, [[-1.0]], np.zeros((1, 0)))
        assert ok and not wit

    def test_matches_brute_force(self):
        grid = np.arange(-10.0, 10.5, 1.0)
        for seed in range(60):
            srng = np.random.default_rng(seed)
            n = int(srng.integers(1, 6))
            m = int(srng.integers(1, 4))
            sys = random_ph(n, m, seed, force_axis_modes=bool(seed % 3 == 0) and n >= 3)
            B = sys.B if seed % 2 else np.zeros((n, 0))
            ok, wit = imaginary_axis_full_rank(sys.E, sys.A, B)
            full_grid = np.concatenate([grid, [w.imag for w in wit]])
            aug = pencil_report(np.hstack([sys.E, np.zeros((n, B.shape[1]))]),
                                np.hstack([sys.A, B]))
            full_grid = np.concatenate([full_grid, aug.finite_eigenvalues.imag])
            assert brute_force_rank_on_axis(sys.E, sys.A, B, full_grid) == ok


    def test_positive_left_minimal_index_refused(self):
        # s E - A = [[s, 0, 0], [-1, s, 0], [0, -1, 0]] has one left block of
        # index 2, with left null vector (1, s, s^2), and no finite spectrum;
        # b = (1, 0, 1) meets it at s = +-i, off the spectrum.
        E = np.diag([1.0, 1.0, 0.0])
        A = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = np.array([[1.0], [0.0], [1.0]])
        assert pencil_report(E, A).left_minimal_indices == (2,)
        assert brute_force_rank_on_axis(E, A, b, [1.0]) is False
        with pytest.raises(HypothesisViolated, match="left minimal index"):
            imaginary_axis_full_rank(E, A, b)

    def test_singular_pencil_drops_everywhere(self):
        # E, J, R share the kernel N0; an input with N0^T B rank-deficient
        # leaves the rank short at every s, reported at s = 0 alone.
        sys = random_ph(6, 2, 3, force_singular=True)
        N0 = nullspace_basis(np.vstack([sys.E, sys.J, sys.R]))
        assert N0.shape[1] == 1
        B = sys.B - N0 @ (N0.T @ sys.B)
        assert imaginary_axis_full_rank(sys.E, sys.A, B) == (False, [0j])
        assert brute_force_rank_on_axis(sys.E, sys.A, B, [0.0, 0.7, 3.0]) is False
        assert imaginary_axis_full_rank(sys.E, sys.A, sys.B) == (True, [])


class TestDissipationBound:
    """With E symmetric and -H = R > 0, an eigenvalue lam has
    |Re lam| >= lambda_min(R) / ||E||_2, so the stabilizability condition
    and the stabilize certification decide without an eigensolve."""

    def test_bound_verdicts_equal_the_spectrum_route(self, monkeypatch):
        undecided = lambda self, need: False  # noqa: E731
        decided = {"condition": 0, "certification": 0}
        grid = itertools.product(FAMILIES, (None, 0, 1), range(3, 13), range(1, 4), range(4))
        for family, rank_w, n, m, seed in grid:
            sys = random_ph(n, m, seed, rank_w=rank_w, **FAMILIES[family])
            B = np.hstack(feedback_analysis(sys).input_blocks)
            rep = pencil_report(sys.E, sys.A)
            bound = rep.dissipation_bound
            if (rep.regular and bound is not None
                    and bound.axis_distance > 10.0 * DEFAULT_TOL.axis_tol):
                decided["condition"] += 1
                assert imaginary_axis_full_rank(sys.E, sys.A, B) == (True, [])
                with monkeypatch.context() as mp:
                    mp.setattr(pencil.DissipationBound, "exceeds", undecided)
                    assert imaginary_axis_full_rank(sys.E, sys.A, B) == (True, [])
            try:
                F, _ = synthesize_stabilizing(sys)
            except ConditionsNotMet:
                continue
            cert = certify_closed_loop(sys, F)
            if cert.stable_by_bound:
                decided["certification"] += 1
                with monkeypatch.context() as mp:
                    mp.setattr(pencil.DissipationBound, "exceeds", undecided)
                    again = certify_closed_loop(sys, F)
                assert not again.stable_by_bound
                assert again.overall == cert.overall
                assert again.to_dict() == cert.to_dict()
        assert min(decided.values()) > 100, decided

    def test_asymmetric_e_reads_the_spectrum(self, cold_report, eigvals_calls):
        sys = random_ph(12, 2, 0)
        E = sys.E.copy()
        E[0, 1] = np.nextafter(E[0, 1], np.inf)  # one ulp off symmetric
        assert pencil_report(sys.E, sys.A).dissipation_bound is not None
        assert pencil_report(E, sys.A).dissipation_bound is None
        assert imaginary_axis_full_rank(E, sys.A, sys.B) == (True, [])
        assert len(eigvals_calls) == 1

    @pytest.mark.parametrize("case", ["one ulp off symmetric", "rectangular", "staircase",
                                      "exit-index-0", "exit-index-1", "split"])
    def test_report_bound_on_each_route(self, cold_e_svd, cold_report, route_log, case):
        # The whole pencil's bound on the exit and the rest's on the split,
        # with the whole E's norm and definiteness; none on the other routes.
        kwargs, route, _ = LAZY_ROUTES.get(case, ({}, None, None))
        sys = random_ph(12, 2, 0, **kwargs)
        E, A = sys.E.copy(), sys.A
        if case == "one ulp off symmetric":
            E[0, 1] = np.nextafter(E[0, 1], np.inf)
        elif case == "rectangular":
            E, A = E[:-1], A[:-1]
        bound = pencil_report(E, A).dissipation_bound
        if route is not None:
            assert [r for r, _ in logged_routes(route_log)] == [route]
        if route in (None, "staircase"):
            assert bound is None
            return
        w = pencil._e_factors(E)[3]
        assert bound.norm_e == np.abs(w).max()
        assert bound.left_half_plane == (w[0] > -DEFAULT_TOL.rank_rtol * 12 * bound.norm_e / 10)
        R = sys.R
        if case == "split":
            Q = nullspace_basis(nullspace_basis(np.vstack([sys.E, sys.J, sys.R])).T)
            R = Q.T @ R @ Q
            assert bound.axis_distance > 0.0
        lo = np.linalg.eigvalsh(R)[0]
        assert bound.minus_h.min_eigenvalue == pytest.approx(lo, abs=1e-12 * np.abs(R).max())

    def test_indefinite_e_fails_the_stabilize_certification(self):
        # -H = R = I bounds |Re lam| by 1, but E = diag(1, -1) puts the
        # eigenvalues at -1 and +1.
        sys = PHSystem(E=np.diag([1.0, -1.0]), J=np.zeros((2, 2)), R=np.eye(2),
                       G=np.zeros((2, 1)), P=np.zeros((2, 1)), S=[[0.0]], N=[[0.0]])
        bound = pencil_report(sys.E, sys.A).dissipation_bound
        assert bound.axis_distance == pytest.approx(1.0) and not bound.left_half_plane
        assert stabilizability_rank_condition(sys) == (True, [])
        cert = certify_closed_loop(sys, np.zeros((1, 2)), "stabilize")
        assert cert.w.is_semidefinite and not cert.stable_by_bound and not cert.overall
        assert cert.pencil.stability_class is StabilityClass.UNSTABLE
        assert cert.to_dict()["checks"]["asymptotically_stable"]["passed"] is False

    @pytest.mark.parametrize("r", [1e-9, 5e-9])
    def test_bound_within_the_margin_reads_the_spectrum(self, r):
        # R = r I > 0 bounds |Re lam| by r, within ten times axis_tol and
        # stability_margin: the unreachable oscillator at -r +- 1.5i still
        # fails the condition, and the open loop is not asymptotically stable.
        J = np.zeros((3, 3))
        J[0, 1] = 1.5
        sys = _port_hamiltonian(J - J.T, r * np.eye(3), np.array([[0.0], [0.0], [1.0]]))
        assert pencil_report(sys.E, sys.A).dissipation_bound.axis_distance == pytest.approx(r)
        ok, wit = stabilizability_rank_condition(sys)
        assert not ok
        assert_spectra_match(wit, [-r + 1.5j, -r - 1.5j], atol=1e-12)
        cert = certify_closed_loop(sys, np.zeros((1, 3)), "stabilize")
        assert not cert.stable_by_bound and not cert.overall

    def test_condition_takes_no_eigvals(self, cold_report, cold_analysis, eigvals_calls):
        assert stabilizability_rank_condition(random_ph(12, 2, 0)) == (True, [])
        assert eigvals_calls == []

    def test_condition_takes_no_eigvalsh(self, cold_e_svd, cold_report, cold_analysis,
                                         eigvalsh_calls, cholesky_calls):
        # S's semidefiniteness and the bound on -H = R are each proved by one
        # Cholesky factorization; neither takes an eigensolve.
        assert stabilizability_rank_condition(random_ph(12, 2, 0)) == (True, [])
        assert eigvalsh_calls == []
        assert [a.shape for a in cholesky_calls] == [(2, 2), (12, 12)]


# (generator keywords, route, k = n - rank E) of one pencil per route.  The
# singular pencils have minimal indices 0: the split's one kernel direction
# is E's whole kernel, and the staircase's lossless rest has an index-two
# block on the rest of E's kernel, which the exit refuses.
LAZY_ROUTES = {
    "exit-index-0": ({}, "index-one exit", 0),
    "exit-index-1": ({"rank_e": 9}, "index-one exit", 3),
    "staircase": ({"force_singular": True, "rank_w": 0, "rank_e": 10}, "staircase", 2),
    "split": ({"force_singular": True}, "common-kernel split", 1),
}


class TestESvd:
    """The decomposition of a pencil's E (its SVD, for an asymmetric E) is
    remembered for the last E by ``_e_factors``."""

    def test_equals_a_fresh_svd_and_decomposes_once(self, rng, cold_e_svd, svd_calls):
        E = rng.normal(size=(5, 5))
        first = pencil._e_factors(E)
        again = pencil._e_factors(E.copy())
        assert len(svd_calls) == 1
        assert first[3] is None and again[3] is None
        for f, g, h in zip(first[:3], again[:3], np.linalg.svd(E)):
            assert f is g
            assert np.array_equal(f, h)

    def test_factors_are_read_only(self, rng, cold_e_svd):
        u, s, vh, _ = pencil._e_factors(rng.normal(size=(4, 4)))
        for f in (u, s, vh):
            with pytest.raises(ValueError):
                f[0] = 0.0

    def test_in_place_change_forces_a_fresh_svd(self, rng, cold_e_svd, svd_calls):
        E = rng.normal(size=(4, 4))
        pencil._e_factors(E)
        E[0, 0] += 1.0
        _, s, _, _ = pencil._e_factors(E)
        assert len(svd_calls) == 2
        assert np.array_equal(s, np.linalg.svd(E)[1])

    def test_another_matrix_takes_the_slot(self, rng, cold_e_svd, svd_calls):
        E, F = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        pencil._e_factors(E)
        pencil._e_factors(F)
        pencil._e_factors(E)
        assert len(svd_calls) == 3


def _svd_route(E):
    """E decomposed as before the symmetric route: the SVD, and for a
    symmetric E the eigenvalues of ``eigvalsh``."""
    w = np.linalg.eigvalsh(E) if np.array_equal(E, E.T) else None
    return (*pencil._freeze(*np.linalg.svd(E)), w)


def _route_record(sys):
    """The chain's verdicts on sys, and the spectra and witnesses it read."""
    r = pencil_report(sys.E, sys.A)
    ok, witnesses = stabilizability_rank_condition(sys)
    verdicts = [validate(sys).passed, r.regular, r.index, r.infinite_block_sizes,
                r.right_minimal_indices, r.left_minimal_indices, r.rank_E, r.stability_class,
                ok, len(witnesses), index_reduction_rank_condition(sys),
                strict_passifiability_condition(sys)]
    spectra = [r.finite_eigenvalues, witnesses]
    for goal, synthesize in (("stabilize", lambda s: synthesize_stabilizing(s)[0]),
                             ("passify", synthesize_passifying)):
        try:
            F = synthesize(sys)
        except ConditionsNotMet as exc:
            verdicts.append((str(exc), len(exc.witnesses)))
            spectra.append(exc.witnesses)
            continue
        cert = certify_closed_loop(sys, F, goal)
        checks = cert.to_dict()["checks"]
        verdicts.append((cert.overall, cert.stable_by_bound, cert.pencil.index,
                         {name: c["passed"] for name, c in checks.items()}))
        spectra.append(cert.pencil.finite_eigenvalues)
    return verdicts, spectra


class TestSymmetricRoute:
    """A bitwise symmetric E takes one eigh, which serves validate, the
    staircase and the dissipation bound; any other E takes the SVD."""

    def test_verdicts_equal_the_svd_route(self, monkeypatch):
        def forget():
            for slot in ("_E_SVD", "_REPORT", "_ANALYSIS"):
                monkeypatch.setattr(pencil, slot, None)

        grid = itertools.product(FAMILIES, (None, 0, 1), [*range(3, 13), 60])
        for family, rank_w, n in grid:
            sys = random_ph(n, 2, 0, rank_w=rank_w, **FAMILIES[family])
            forget()
            verdicts, spectra = _route_record(sys)
            with monkeypatch.context() as mp:
                mp.setattr(pencil, "_decompose_e", _svd_route)
                forget()
                svd_verdicts, svd_spectra = _route_record(sys)
            forget()
            assert verdicts == svd_verdicts, (family, rank_w, n)
            for ev, svd_ev in zip(spectra, svd_spectra):
                assert_spectra_match(ev, svd_ev, atol=1e-12)

    def test_asymmetric_e_takes_the_svd(self, cold_e_svd, cold_report, svd_calls, eigh_calls):
        sys = random_ph(12, 2, 0)
        E = sys.E.copy()
        E[0, 1] = np.nextafter(E[0, 1], np.inf)  # one ulp off symmetric
        r = pencil_report(E, sys.A)
        assert eigh_calls == []
        assert svd_calls[0][1] and np.array_equal(svd_calls[0][0], E)
        assert r.rank_E == pencil_report(sys.E, sys.A).rank_E

    @pytest.mark.parametrize("small, rank_e, svd", [(5e-11, 3, False), (5e-13, 3, True),
                                                    (5e-14, 2, True), (1e-15, 2, False)])
    def test_eigenvalue_near_the_cutoff_takes_the_svd(self, cold_e_svd, cold_report, svd_calls,
                                                      eigh_calls, small, rank_e, svd):
        # The cutoff is 256 eps * 3 = 1.7e-13: an eigenvalue of E within
        # tenfold of it, kept or dropped, sends the staircase to the SVD.
        E = np.diag([1.0, 0.5, small])
        r = pencil_report(E, -np.eye(3))
        assert [a.shape for a in eigh_calls] == [(3, 3)]
        assert [np.array_equal(a, E) and full for a, full in svd_calls].count(True) == svd
        assert r.regular and r.rank_E == rank_e

    @pytest.mark.parametrize("seed, shapes, blocks", [
        # Right pass: the 1 x 1 A-compression on ker E has rank 0, and so
        # does the left pass's: neither takes an SVD of the deflated E.
        (0, [(12, 12), (1, 1), (12, 12), (12, 1), (11, 1)], ((), (0,), (0,))),
        # Right pass: A-compressions of rank 2, then an SVD of the 10 x 9 E;
        # the left pass takes only its 9 x 1 A-compression.
        (1, [(12, 12), (3, 3), (12, 12), (12, 3), (10, 9), (9, 1)], ((1, 1), (0,), (0,))),
    ])
    def test_rank_zero_compression_keeps_the_svd(self, cold_e_svd, cold_report, svd_calls,
                                                 seed, shapes, blocks):
        # E one ulp off symmetric takes its SVD and no split, so these
        # singular pencils keep the staircase.
        sys = random_ph(12, 2, seed, force_singular=True)
        E = sys.E.copy()
        E[0, 1] = np.nextafter(E[0, 1], np.inf)
        r = pencil_report(E, sys.A)
        assert [a.shape for a, _ in svd_calls] == shapes
        assert (r.infinite_block_sizes, r.right_minimal_indices, r.left_minimal_indices) == blocks
        assert_spectra_match(r.finite_eigenvalues,
                             scipy.linalg.eigvals(r.regular_A, r.regular_E), atol=1e-12)

    def test_inconsistent_counts_refuse_the_least_margin_decision(self, cold_report):
        # At rank_rtol = 1e-17 the right pass's second A-compression keeps
        # 4.0e-16 against a cutoff of 3.6e-16, and the counts that follow
        # fit no Kronecker structure: that decision is refused.
        sys = random_ph(9, 0, 1, force_singular=True)
        with pytest.raises(ToleranceBreakdown, match="right pass: A-compression, step 2") as info:
            pencil_report(sys.E, sys.A, ToleranceConfig(rank_rtol=1e-17))
        assert info.value.threshold < info.value.kept_min < 10.0 * info.value.threshold


class TestRememberedReport:
    """pencil_report keeps the report of its last (E, A, tol)."""

    def _compare(self, r1, r2):
        assert r1.to_dict() == r2.to_dict()
        for a, b in [(r1.finite_eigenvalues, r2.finite_eigenvalues),
                     (r1.regular_A, r2.regular_A),
                     (r1.regular_E, r2.regular_E)]:
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_warm_equals_cold_bitwise(self, monkeypatch, cold_report, svd_calls):
        sys = random_ph(12, 2, 1, force_axis_modes=True)
        cold = pencil_report(sys.E, sys.A)
        n_cold = len(svd_calls)
        warm = pencil_report(sys.E.copy(), sys.A.copy())
        assert warm is cold and len(svd_calls) == n_cold
        monkeypatch.setattr(pencil, "_REPORT", None)
        self._compare(pencil_report(sys.E, sys.A), warm)

    def test_arrays_are_read_only(self, cold_report):
        sys = random_ph(6, 2, 0)
        r = pencil_report(sys.E, sys.A)
        for a in (r.finite_eigenvalues, r.regular_A, r.regular_E):
            assert a.size and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("case", LAZY_ROUTES)
    def test_regular_part_read_only_on_every_route(self, route_log, cold_report, case):
        kwargs, route, k = LAZY_ROUTES[case]
        sys = random_ph(12, 2, 0, **kwargs)
        r = pencil_report(sys.E, sys.A)
        assert logged_routes(route_log) == [(route, k)]
        for a in (r.regular_A, r.regular_E):
            assert a.size and not a.flags.writeable

    def test_rectangular_pencil_leaves_the_inputs_alone(self, cold_report):
        # A 2 x 2 regular part beside a zero column, a right minimal index 0.
        E = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        A = np.array([[-1.0, 0.0, 0.0], [0.0, -2.0, 0.0]])
        r = pencil_report(E, A)
        assert r.right_minimal_indices == (0,) and r.n_regular == 2
        assert A.flags.writeable and E.flags.writeable
        for a in (r.regular_A, r.regular_E):
            assert not a.flags.writeable
            assert not (np.shares_memory(a, A) or np.shares_memory(a, E))

    @pytest.mark.parametrize("which", ["E", "A"])
    def test_in_place_change_forces_a_fresh_report(self, monkeypatch, cold_report, which):
        sys = random_ph(5, 1, 2)
        mats = {"E": sys.E.copy(), "A": sys.A.copy()}
        first = pencil_report(mats["E"], mats["A"])
        before = first.regular_A.copy()
        mats[which][0, 0] -= 1.0
        again = pencil_report(mats["E"], mats["A"])
        assert again is not first
        # The stored report does not alias the caller's arrays.
        assert np.array_equal(first.regular_A, before)
        monkeypatch.setattr(pencil, "_REPORT", None)
        self._compare(again, pencil_report(mats["E"].copy(), mats["A"].copy()))

    @pytest.mark.parametrize("case", ["exit-index-1", "staircase", "split"])
    def test_kernels_of_e_are_views_of_its_svd(self, cold_e_svd, cold_report, case):
        # Every route hands out the trailing columns of V and U in the
        # remembered SVD of E, at rank_E, without copying them.
        kwargs, _, k = LAZY_ROUTES[case]
        sys = random_ph(12, 2, 0, **kwargs)
        r = pencil_report(sys.E, sys.A)
        u, _, vh, _ = pencil._e_factors(sys.E)
        assert r.kernel_E.shape == r.cokernel_E.shape == (12, k) and r.rank_E == 12 - k
        assert np.shares_memory(r.kernel_E, vh) and np.shares_memory(r.cokernel_E, u)
        assert np.array_equal(r.kernel_E, vh[12 - k:].T)
        assert np.array_equal(r.cokernel_E, u[:, 12 - k:])
        for a in (r.kernel_E, r.cokernel_E):
            assert not a.flags.writeable

    def test_kernels_of_a_rectangular_e(self, cold_report):
        # E is 2 x 3 of rank 2: one kernel column, an empty cokernel.
        E = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        r = pencil_report(E, -E)
        assert r.rank_E == 2
        assert r.kernel_E.shape == (3, 1) and r.cokernel_E.shape == (2, 0)
        assert np.allclose(E @ r.kernel_E, 0.0, atol=1e-15)

    def test_another_tolerance_misses(self, cold_report):
        sys = random_ph(6, 2, 0)
        r = pencil_report(sys.E, sys.A)
        other = pencil_report(sys.E, sys.A, ToleranceConfig(axis_tol=1e-6))
        assert other is not r
        # An equal configuration is the same key.
        assert pencil_report(sys.E, sys.A, ToleranceConfig(axis_tol=1e-6)) is other


class TestLazySpectrum:
    """A report decides its block sizes when it is made and computes its
    finite spectrum and stability class when first read."""

    @pytest.mark.parametrize("case", LAZY_ROUTES)
    def test_spectrum_on_first_read(self, route_log, cold_report, eigvals_calls, case):
        kwargs, route, k = LAZY_ROUTES[case]
        sys = random_ph(12, 2, 0, **kwargs)
        r = pencil_report(sys.E, sys.A)
        assert logged_routes(route_log) == [(route, k)]
        exit_ = case.startswith("exit")
        assert (r.regular, r.rank_E) == (exit_, 12 - k)
        assert r.index == (min(k, 1) if exit_ else None)
        assert eigvals_calls == []
        evs = r.finite_eigenvalues
        assert len(eigvals_calls) == 1
        assert evs.size == r.n_regular > 0 and evs.dtype == complex
        assert np.array_equal(evs, np.sort(evs)) and not evs.flags.writeable
        with pytest.raises(ValueError):
            evs[0] = 0.0
        # A memo hit hands back the same report and the same spectrum object.
        assert pencil_report(sys.E.copy(), sys.A.copy()) is r
        assert r.finite_eigenvalues is evs
        r.stability_class, r.spectral_abscissa, r.to_dict()
        assert len(eigvals_calls) == 1

    def test_concurrent_first_reads(self, monkeypatch, cold_report):
        sys = random_ph(60, 6, 0, force_singular=True)
        eager = pencil_report(sys.E, sys.A).finite_eigenvalues
        monkeypatch.setattr(pencil, "_REPORT", None)
        r = pencil_report(sys.E, sys.A)
        start, seen = threading.Barrier(8), []

        def read():
            start.wait(timeout=10)
            seen.append(r.finite_eigenvalues)

        interval = sys_module.getswitchinterval()
        sys_module.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys_module.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(seen) == 8
        assert all(np.array_equal(evs, eager) for evs in seen)

    @pytest.mark.parametrize("case", LAZY_ROUTES)
    def test_late_read_equals_an_eager_one(self, cold_report, case):
        sys = random_ph(12, 2, 0, **LAZY_ROUTES[case][0])
        late = pencil_report(sys.E, sys.A)
        pencil_report(np.eye(2), -np.eye(2)).finite_eigenvalues
        eager = pencil_report(sys.E, sys.A)
        eager.finite_eigenvalues
        assert late.to_dict() == eager.to_dict()
        assert np.array_equal(late.finite_eigenvalues, eager.finite_eigenvalues)


def _singular_pencil(rng, n, signs, rank_r, omega=None):
    """``(E, A, B)`` of ``s E - (J - R)`` and one input, in a random
    orthogonal basis.  E, J and R vanish on one shared direction, which B
    reaches; on the other n - 1, E has eigenvalue signs ``signs``, J is
    skew and R PSD of rank rank_r.  With omega, two of those directions
    instead carry an undamped oscillator at +-i omega with E = -I, which
    B does not reach."""
    c = n - 1 - (2 if omega else 0)
    e = np.r_[np.asarray(signs) * rng.uniform(0.5, 2.0, len(signs)), np.zeros(c - len(signs))]
    J, L = rng.normal(size=(c, c)), rng.normal(size=(c, rank_r))
    blocks = [np.zeros((n, n)) for _ in range(3)]
    for M, core in zip(blocks, (np.diag(e), (J - J.T) / 2.0, L @ L.T)):
        M[:c, :c] = core
    B = np.r_[rng.normal(size=(c, 1)), np.zeros((n - 1 - c, 1)), [[1.0]]]
    if omega:
        blocks[0][c:c + 2, c:c + 2] = -np.eye(2)
        blocks[1][c, c + 1], blocks[1][c + 1, c] = omega, -omega
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    E, J, R = (Q @ M @ Q.T for M in blocks)
    return (E + E.T) / 2.0, (J - J.T) / 2.0 - (R + R.T) / 2.0, Q @ B


class TestCommonKernelSplit:
    """A square pencil with a symmetric E that fails the index-one exit
    sheds the common kernel of E, A and A^T before the staircase."""

    @staticmethod
    def _forget(mp):
        for slot in ("_REPORT", "_ANALYSIS"):
            mp.setattr(pencil, slot, None)

    def test_agrees_with_the_staircase(self, monkeypatch, route_log):
        # The staircase, with the split switched off, reads the same blocks,
        # spectrum and stabilizability verdict on every singular plant.
        split = 0
        grid = itertools.product((None, 0, 1), range(3, 13), range(1, 4), range(3))
        for rank_w, n, m, seed in grid:
            sys = random_ph(n, m, seed, rank_w=rank_w, force_singular=True)
            self._forget(monkeypatch)
            route_log.clear()
            r, cond = pencil_report(sys.E, sys.A), stabilizability_rank_condition(sys)
            if logged_routes(route_log) != [("common-kernel split", 1)]:
                continue
            split += 1
            with monkeypatch.context() as mp:
                mp.setattr(pencil, "_split_common_kernel", lambda *args: None)
                self._forget(mp)
                s, s_cond = pencil_report(sys.E, sys.A), stabilizability_rank_condition(sys)
            key = (n, m, seed, rank_w)
            assert r.to_dict().keys() == s.to_dict().keys(), key
            for name in ("infinite_block_sizes", "right_minimal_indices",
                         "left_minimal_indices", "rank_E", "n_regular"):
                assert getattr(r, name) == getattr(s, name), (key, name)
            assert np.array_equal(r.kernel_E, s.kernel_E)
            assert_spectra_match(r.finite_eigenvalues, s.finite_eigenvalues, atol=1e-10)
            assert cond[0] == s_cond[0] and len(cond[1]) == len(s_cond[1]), key
        assert split >= 250, split

    def test_indefinite_e_verdicts_equal_the_spectrum_route(self, monkeypatch, route_log, rng):
        # The rest's bound, lambda_min(Q^T R Q) / ||E||_2 for the congruence
        # Q^T (s E - A) Q, holds for an indefinite E too: with the bound
        # switched off, the spectrum gives the same verdict and witnesses,
        # among them unreachable oscillators whose E is -I.
        decided = witnessed = 0
        for trial in range(60):
            omega = rng.uniform(0.5, 2.0) if trial % 3 == 0 else None
            n = int(rng.integers(3, 9)) + (2 if omega else 0)
            c = n - 1 - (2 if omega else 0)
            signs = rng.choice([-1.0, 1.0], size=int(rng.integers(1, c + 1)))
            # R definite on the rest (but for an oscillator), or of rank 0 or 1.
            rank_r = int(rng.choice([c, c, 0, 1]))
            E, A, B = _singular_pencil(rng, n, signs, rank_r, omega)
            self._forget(monkeypatch)
            route_log.clear()
            try:
                ok, wit = imaginary_axis_full_rank(E, A, B)
            except ToleranceBreakdown:
                continue
            if logged_routes(route_log) != [("common-kernel split", 1)]:
                continue
            rep = pencil_report(E, A)
            bound = rep.dissipation_bound
            decided += bound.exceeds(10.0 * DEFAULT_TOL.axis_tol)
            with monkeypatch.context() as mp:
                mp.setattr(pencil.DissipationBound, "exceeds", lambda self, need: False)
                spectrum = imaginary_axis_full_rank(E, A, B)
            assert ok == spectrum[0], trial
            assert_spectra_match(wit, spectrum[1], atol=1e-12)
            witnessed += wit not in ([], [0j])
        assert decided >= 10 and witnessed >= 10, (decided, witnessed)

    def test_svds_of_the_split(self, cold_e_svd, cold_report, cold_analysis, svd_calls,
                               eigvals_calls, cholesky_calls):
        # The exit's 1 x 1 block A22, ||A||_2 and the 24 x 1 stack; the rest
        # has no kernel of E left, so its exit takes no SVD.  The condition
        # then proves the rest clear of the axis by Cholesky, with no
        # eigensolve.
        sys = random_ph(12, 2, 0, force_singular=True)
        pencil_report(sys.E, sys.A)
        assert [a.shape for a, _ in svd_calls] == [(1, 1), (12, 12), (24, 1)]
        assert stabilizability_rank_condition(sys) == (True, [])
        assert (11, 11) in [a.shape for a in cholesky_calls]
        assert eigvals_calls == []

    def test_large_singular_plant_condition_takes_no_eigensolve(
            self, cold_e_svd, cold_report, cold_analysis, route_log, eigvals_calls):
        sys = random_ph(300, 30, 0, force_singular=True)
        assert stabilizability_rank_condition(sys) == (True, [])
        assert logged_routes(route_log) == [("common-kernel split", 1)]
        assert eigvals_calls == []

    def test_tight_cutoff_reads_left_minimal_indices_zero(self, cold_report, cold_analysis,
                                                          route_log):
        # At rank_rtol = 1e-17 the staircase read a left minimal index 1 on
        # this plant and refused it with HypothesisViolated; the split's
        # stack drops its roundoff value and keeps the other far above.
        tol = ToleranceConfig(rank_rtol=1e-17)
        sys = random_ph(3, 2, 1, force_singular=True)
        r = pencil_report(sys.E, sys.A, tol)
        assert logged_routes(route_log) == [("common-kernel split", 1)]
        assert (r.right_minimal_indices, r.left_minimal_indices) == ((0,), (0,))
        F, _ = synthesize_stabilizing(sys, tol)
        assert certify_closed_loop(sys, F, "stabilize", tol).overall


class TestUndampedBlockConditions:
    def test_oscillator_with_damped_first_block(self):
        E = np.eye(2)
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        R = np.diag([1.0, 0.0])
        assert undamped_block_stability_condition(E, J, R, 1)

    def test_undamped_integrator_fails(self):
        E = np.diag([1.0, 1.0])
        J = np.zeros((2, 2))
        R = np.diag([1.0, 0.0])
        # block row [s*0 + 0, s*1 - 0] loses rank at s = 0
        assert not undamped_block_stability_condition(E, J, R, 1)

    def test_empty_partition_vacuous(self):
        assert undamped_block_stability_condition(np.eye(2), np.zeros((2, 2)), np.eye(2), 2)

    def test_hypothesis_violations(self):
        R_bad = np.array([[1.0, 0.5], [0.5, 0.0]])
        with pytest.raises(HypothesisViolated):
            undamped_block_stability_condition(np.eye(2), np.zeros((2, 2)), R_bad, 1)
        with pytest.raises(HypothesisViolated):
            undamped_block_stability_condition(np.eye(2), np.zeros((2, 2)),
                                               np.diag([0.0, 0.0]), 1)

    def _hypothesis_instance(self, seed):
        srng = np.random.default_rng(seed)
        n1 = int(srng.integers(1, 4))
        n2 = int(srng.integers(0, 4))
        n = n1 + n2
        E, J, _, _ = random_dissipative_pencil(srng, n, 0)
        L = srng.normal(size=(n1, n1))
        R = np.zeros((n, n))
        R[:n1, :n1] = L @ L.T + 0.1 * np.eye(n1)
        return E, J, R, n1

    def test_exact_block_form_takes_no_scale_norm(self, svd_calls):
        # Both violations are exactly zero, so ||R||_2 is never needed.
        E, J, R, n1 = self._hypothesis_instance(3)
        undamped_block_stability_condition(E, J, R, n1)
        assert not any(np.array_equal(a, R) for a, _ in svd_calls)

    def test_stability_condition_bidirectional(self):
        agree = 0
        for seed in range(80):
            E, J, R, n1 = self._hypothesis_instance(seed)
            cond = undamped_block_stability_condition(E, J, R, n1)
            rep = pencil_report(E, J - R)
            stable = rep.stability_class is StabilityClass.ASYMPTOTICALLY_STABLE
            assert cond == stable, (seed, cond, rep.stability_class)
            agree += 1
        assert agree == 80

    def test_nonsingularity_condition_bidirectional(self):
        for seed in range(80):
            E, J, R, n1 = self._hypothesis_instance(seed)
            cond = undamped_block_nonsingularity_condition(J, n1)
            nonsingular = numerical_rank(J - R, DEFAULT_TOL) == J.shape[0]
            assert cond == nonsingular, seed


class TestFeedbackExistenceConditions:
    def test_stabilizability_examples(self):
        ok, _ = stabilizability_rank_condition(scalar_system(E=1, G=1))
        assert ok
        ok, wit = stabilizability_rank_condition(scalar_system(E=1))
        assert not ok and wit == [0j]
        ok, _ = stabilizability_rank_condition(scalar_system(E=1, R=1))
        assert ok

    def test_index_reduction_examples(self):
        assert index_reduction_rank_condition(scalar_system(E=1))
        assert index_reduction_rank_condition(scalar_system(E=0, G=1))
        assert not index_reduction_rank_condition(scalar_system(E=0))

    def test_passifiability_examples(self):
        assert strict_passifiability_condition(scalar_system(E=1, R=1, G=1, S=1))
        assert not strict_passifiability_condition(scalar_system(E=1, R=1, G=1, S=0))
        assert not strict_passifiability_condition(scalar_system(E=1, S=1))

    def test_input_range_blocks_shapes(self):
        sys = scalar_system(E=1, G=1)
        B1, B3 = feedback_analysis(sys).input_blocks
        assert B1.shape == (1, 0)
        assert B3.shape == (1, 1) and abs(abs(B3[0, 0]) - 1.0) < 1e-14

    def test_index_one_rank_condition_examples(self):
        assert index_one_rank_condition(np.eye(2), np.zeros((2, 2)), np.zeros((2, 0)))
        assert index_one_rank_condition(ZERO, ZERO, ONE)
        assert not index_one_rank_condition(ZERO, ZERO, ZERO)

    def test_index_condition_raises_the_report_refusal(self, cold_report, cold_analysis):
        # At rank_rtol = 1e-17 the first E-compression of this plant has no
        # margin.  The condition reads Z_E from the plant's report, so it
        # refuses with the report instead of deciding rank E on its own.
        tol = ToleranceConfig(rank_rtol=1e-17)
        sys = random_ph(5, 1, 1, force_axis_modes=True)
        with pytest.raises(ToleranceBreakdown, match="right pass: E-compression, step 1"):
            pencil_report(sys.E, sys.A, tol)
        with pytest.raises(ToleranceBreakdown, match="right pass: E-compression, step 1"):
            index_reduction_rank_condition(sys, tol)

    def test_index_condition_takes_no_svd_of_e(self, monkeypatch, cold_analysis, svd_calls):
        # With the report warm and E's SVD memo emptied, Z_E is the report's
        # kernel basis, and a Cholesky factorization of the Gram matrix of
        # [E, A Z_E, B] proves its full row rank: no SVD at all.
        sys = random_ph(12, 2, 1)
        B = np.hstack(feedback_analysis(sys).input_blocks)
        k = 12 - pencil_report(sys.E, sys.A).rank_E
        assert k > 0
        monkeypatch.setattr(pencil, "_E_SVD", None)
        svd_calls.clear()
        assert index_one_rank_condition(sys.E, sys.A, B)
        assert svd_calls == []


def _transformed(sys, Q, c):
    """The system in the state basis Q, with every coefficient scaled by c."""
    return PHSystem(E=c * Q.T @ sys.E @ Q, J=c * Q.T @ sys.J @ Q, R=c * Q.T @ sys.R @ Q,
                    G=c * Q.T @ sys.G, P=c * Q.T @ sys.P, S=c * sys.S, N=c * sys.N)


def _coupled_oscillator(eps):
    """Undamped oscillator at s = 1.5i, coupled by eps to a damped state and
    to no input; the pair moves off the axis by about eps^2 / 6.5."""
    J = np.zeros((3, 3))
    J[0, 1], J[0, 2] = 1.5, eps
    return PHSystem(E=np.eye(3), J=J - J.T, R=np.diag([0.0, 0.0, 1.0]),
                    G=np.zeros((3, 0)), P=np.zeros((3, 0)),
                    S=np.zeros((0, 0)), N=np.zeros((0, 0)))


def _port_hamiltonian(J, R, G):
    """E = I, no feedthrough dissipation, S = I."""
    n, m = G.shape
    return PHSystem(E=np.eye(n), J=J, R=R, G=G, P=np.zeros((n, m)),
                    S=np.eye(m), N=np.zeros((m, m)))


def _weakly_damped_oscillator(r):
    """Oscillator at s = 1.5i damped by r, beside a damped state that the one
    input reaches; the pair sits at about -r/2 +- 1.5i."""
    J = np.zeros((3, 3))
    J[0, 1] = 1.5
    return _port_hamiltonian(J - J.T, np.diag([r, 0.0, 1.0]), np.array([[0.0], [0.0], [1.0]]))


class TestStabilizabilityPBH:
    # Axis-mode systems whose oscillator no input reaches.  A staircase of
    # the augmented pencil [sE - A, B1, B3] loses the oscillator to roundoff
    # on most of them and wrongly accepts.
    NARROW = ([(60, 1, seed) for seed in range(12)]
              + [(8, 3, 8310), (10, 1, 2), (11, 3, 7), (12, 1, 8)])

    @pytest.mark.parametrize("n, m, seed", NARROW)
    def test_unreachable_oscillator_refused(self, n, m, seed):
        sys = random_ph(n, m, seed, force_axis_modes=True)
        ok, wit = stabilizability_rank_condition(sys)
        assert not ok
        assert len(wit) == 2 and wit[0] == wit[1].conjugate()
        assert abs(wit[0].real) <= DEFAULT_TOL.axis_tol and wit[1].imag > 0
        B = np.hstack(feedback_analysis(sys).input_blocks)
        assert imaginary_axis_full_rank(sys.E, sys.A, B) == (False, wit)
        for w in wit:
            M = np.hstack([w * sys.E - sys.A, B])
            s = np.linalg.svd(M, compute_uv=False)
            thr = DEFAULT_TOL.rank_rtol * s[0] * max(M.shape)
            assert s[n - 1] <= thr / 10
        with pytest.raises(ConditionsNotMet) as info:
            synthesize_stabilizing(sys)
        assert info.value.witnesses == wit

    # rank_w = 0 leaves R = 0, so Z^T E Z can be singular and the staircase decides.
    @pytest.mark.parametrize("family", [{}, {"s_definite": True},
                                        {"force_axis_modes": True}, {"force_singular": True},
                                        {"rank_w": 0}])
    @pytest.mark.parametrize("seed", [3, 14, 15])
    def test_invariant_under_state_change_and_scaling(self, family, seed):
        srng = np.random.default_rng(seed)
        n, m = int(srng.integers(4, 13)), int(srng.integers(1, 5))
        sys = random_ph(n, m, seed, **family)
        ok, wit = stabilizability_rank_condition(sys)
        Q, _ = np.linalg.qr(srng.normal(size=(n, n)))
        for c in (1.0, 1e-6, 1e6):
            ok_c, wit_c = stabilizability_rank_condition(_transformed(sys, Q, c))
            assert ok_c == ok and len(wit_c) == len(wit), c
            assert_spectra_match(wit_c, wit, atol=1e-8)

    @pytest.mark.parametrize("eps, outcome", [(1e-2, True), (2e-4, False), (1e-4, False),
                                              (1e-6, False), (1e-9, False)])
    def test_near_threshold_refused_not_flipped(self, eps, outcome):
        # 1e-2 leaves the pair 1.5e-5 off the axis; 2e-4, 1e-4 and 1e-6 leave
        # it within axis_tol, where pencil_report puts it on the axis, and the
        # PBH test at the eigenvalue itself reads a clear drop; 1e-9 is a drop.
        sys = _coupled_oscillator(eps)
        ok, wit = stabilizability_rank_condition(sys)
        assert ok == outcome
        if eps == 1e-9:
            assert_spectra_match(wit, [-1.5j, 1.5j], atol=1e-12)
        elif not ok:
            assert len(wit) == 2 and wit[0] == wit[1].conjugate()
            assert all(abs(w.real) <= DEFAULT_TOL.axis_tol and abs(abs(w.imag) - 1.5) < 1e-7
                       for w in wit)

    @pytest.mark.parametrize("d, outcome", [(1e-9, True), (1e-12, None), (1e-13, None),
                                            (1e-15, False)])
    def test_pbh_without_margin_refused(self, d, outcome):
        # An undamped oscillator at s = 1.5i whose input reaches it with weight
        # d: [1.5i I - A, b] has sigma_min = d / sqrt(2) against a threshold of
        # about 5e-13, so 1e-12 and 1e-13 fall within a factor of ten of it.
        sys = _port_hamiltonian(np.array([[0.0, 1.5], [-1.5, 0.0]]), np.zeros((2, 2)),
                                np.array([[0.0], [d]]))
        if outcome is None:
            with pytest.raises(ToleranceBreakdown, match="PBH"):
                stabilizability_rank_condition(sys)
            return
        ok, wit = stabilizability_rank_condition(sys)
        assert ok == outcome
        if not ok:
            assert_spectra_match(wit, [-1.5j, 1.5j], atol=1e-12)

    @pytest.mark.parametrize("r", [1e-10, 5e-9, 1e-8])
    def test_weakly_damped_unreachable_mode_refused(self, r):
        # R = r on the oscillator is far above the rank threshold of R, but the
        # pair's real part -r/2 is within axis_tol: the condition fails, as
        # pencil_report and certification read the axis.
        sys = _weakly_damped_oscillator(r)
        ok, wit = stabilizability_rank_condition(sys)
        assert not ok and len(wit) == 2
        assert_spectra_match(wit, [-r / 2 + 1.5j, -r / 2 - 1.5j], atol=1e-12)
        with pytest.raises(ConditionsNotMet):
            synthesize_stabilizing(sys)
        # With a tighter axis_tol the same pair counts as damped.
        tight = ToleranceConfig(axis_tol=r / 10, stability_margin=r / 10)
        assert stabilizability_rank_condition(sys, tight) == (True, [])
        assert stabilizability_rank_condition(_weakly_damped_oscillator(1e-6)) == (True, [])

    def test_slow_drop_tested_at_its_own_point(self):
        # an unreachable oscillator at +-5e-9 i is a drop there, not at s = 0
        J = np.zeros((3, 3))
        J[0, 1] = 5e-9
        ok, wit = stabilizability_rank_condition(_port_hamiltonian(
            J - J.T, np.diag([0.0, 0.0, 1.0]), np.array([[0.0], [0.0], [1.0]])))
        assert not ok and wit == [-5e-9j, 5e-9j]

    def test_close_candidate_does_not_shadow_drop(self):
        # an unreachable oscillator at s = i and a reachable one 5e-9 below it
        J = np.zeros((5, 5))
        J[0, 1], J[2, 3], J[3, 4] = 1.0, 1.0 - 5e-9, 1.0
        G = np.zeros((5, 1))
        G[4, 0] = 1.0
        ok, wit = stabilizability_rank_condition(
            _port_hamiltonian(J - J.T, np.diag([0.0, 0.0, 0.0, 0.0, 1.0]), G))
        assert not ok
        assert_spectra_match(wit, [-1j, 1j], atol=1e-12)

    def test_svd_count(self, svd_calls):
        # After the analysis's report: three SVDs in the feedthrough split and
        # one PBH test per axis pair.
        sys = random_ph(60, 1, 1, force_axis_modes=True)
        pencil_report(sys.E, sys.A)
        svd_calls.clear()
        stabilizability_rank_condition(sys)
        assert len(svd_calls) <= 4, [a.shape for a, _ in svd_calls]


FAMILIES = {
    "plain": {},
    "s-definite": {"s_definite": True},
    "axis-mode": {"force_axis_modes": True},
    "singular": {"force_singular": True},
}
# (n, m, seed) per family: 36 systems, 144 over the four families.
INVARIANCE_GRID = [(n, m, seed) for n in range(4, 13) for m in (1, 2) for seed in (0, 1)]
# An orthogonal change of state basis, or the whole system scaled.
STATE_CHANGES = {
    "orthogonal": lambda sys, rng: _transformed(
        sys, np.linalg.qr(rng.normal(size=(sys.n, sys.n)))[0], 1.0),
    "scale-1e-6": lambda sys, rng: _transformed(sys, np.eye(sys.n), 1e-6),
    "scale-1e-3": lambda sys, rng: _transformed(sys, np.eye(sys.n), 1e-3),
    "scale-1e3": lambda sys, rng: _transformed(sys, np.eye(sys.n), 1e3),
    "scale-1e6": lambda sys, rng: _transformed(sys, np.eye(sys.n), 1e6),
}


def _changed_verdicts(family, change, decide):
    changed = []
    for n, m, seed in INVARIANCE_GRID:
        sys = random_ph(n, m, seed, **FAMILIES[family])
        before = decide(sys)
        after = decide(STATE_CHANGES[change](sys, np.random.default_rng(100 * n + seed)))
        if after != before:
            changed.append((n, m, seed, before, after))
    return changed


def _pencil_and_feedback_verdicts(sys):
    r = pencil_report(sys.E, sys.A)
    stabilizable, witnesses = stabilizability_rank_condition(sys)
    return (r.regular, r.index, r.rank_E, r.stability_class,
            stabilizable, len(witnesses), index_reduction_rank_condition(sys))


def _input_changed(sys, rng):
    """The system with its inputs in the orthogonal basis Q."""
    Q = np.linalg.qr(rng.normal(size=(sys.m, sys.m)))[0]
    return PHSystem(E=sys.E, J=sys.J, R=sys.R, G=sys.G @ Q, P=sys.P @ Q,
                    S=Q.T @ sys.S @ Q, N=Q.T @ sys.N @ Q)


def _chain_verdicts(sys):
    """The three conditions with the witness count, then per goal the
    synthesis refusal or the certification's overall."""
    stabilizable, witnesses = stabilizability_rank_condition(sys)
    verdicts = [stabilizable, len(witnesses), index_reduction_rank_condition(sys),
                strict_passifiability_condition(sys)]
    for goal, synthesize in (("stabilize", lambda s: synthesize_stabilizing(s)[0]),
                             ("passify", synthesize_passifying)):
        try:
            F = synthesize(sys)
        except ConditionsNotMet as exc:
            verdicts.append((str(exc), len(exc.witnesses)))
        else:
            verdicts.append(certify_closed_loop(sys, F, goal).overall)
    return tuple(verdicts)


class TestInvariance:
    """Verdicts that theory leaves unchanged by an orthogonal state change
    and by scaling the whole system by a positive constant."""

    @pytest.mark.parametrize("change", STATE_CHANGES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_pencil_and_feedback_conditions(self, route_log, cold_report, family, change):
        assert _changed_verdicts(family, change, _pencil_and_feedback_verdicts) == []
        # Each system and its change take one fresh report: the singular
        # family's by the common-kernel split, but after the orthogonal
        # change, whose E is not bitwise symmetric, by the staircase; the
        # others' by the index-one exit.
        route, changed = "index-one exit", "index-one exit"
        if family == "singular":
            route = changed = "common-kernel split"
            if change == "orthogonal":
                changed = "staircase"
        assert [x for x, _ in logged_routes(route_log)] == [route, changed] * len(INVARIANCE_GRID)

    @pytest.mark.parametrize("change", ["orthogonal", "scale-1e-6", "scale-1e6"])
    def test_strict_passifiability(self, change):
        changed = [case for family in FAMILIES
                   for case in _changed_verdicts(family, change, strict_passifiability_condition)]
        assert changed == []

    @pytest.mark.parametrize("family", FAMILIES)
    def test_orthogonal_input_change(self, family):
        changed = []
        for n, m, seed in INVARIANCE_GRID:
            sys = random_ph(n, m, seed, **FAMILIES[family])
            before = _chain_verdicts(sys)
            after = _chain_verdicts(_input_changed(sys, np.random.default_rng(100 * n + seed)))
            if after != before:
                changed.append((n, m, seed, before, after))
        assert changed == []


# rank_w = 0 and 1 leave S singular, so S+N gets skew (m2) and kernel (m3) groups.
SPLIT_GRID = [(n, m, seed, rank_w) for n in (4, 7, 10) for m in (1, 2, 3, 4)
              for seed in (0, 1) for rank_w in (None, 0, 1)]


def _relative_error(M, ref):
    return np.linalg.norm(M - ref) / np.linalg.norm(ref) if ref.size else 0.0


class TestFeedthroughSplit:
    """B1 and B3 come from the one compression of S+N that the stabilizing
    construction is built from."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_input_range_blocks_match_paper_formula(self, family):
        groups = set()
        for n, m, seed, rank_w in SPLIT_GRID:
            sys = random_ph(n, m, seed, rank_w=rank_w, **FAMILIES[family])
            dc = compress_feedthrough(sys.S, sys.N)
            groups.add((dc.m1 > 0, dc.m2 > 0, dc.m3 > 0))
            B1, B3 = feedback_analysis(sys).input_blocks
            ref1 = sys.B @ pseudo_inverse(sys.D) @ range_basis(sys.S)
            ref3 = sys.B @ nullspace_basis(sys.D)
            assert B1.shape == ref1.shape and B3.shape == ref3.shape
            assert _relative_error(B1, ref1) <= 1e-12, (n, m, seed, rank_w)
            assert _relative_error(B3, ref3) <= 1e-12, (n, m, seed, rank_w)
        assert (True, False, False) in groups
        if family != "s-definite":
            assert {(False, True, True), (True, True, False)} <= groups

    def test_all_three_groups(self):
        # ker S = span(e2, e3) meets ker N = span(e3): m1 = m2 = m3 = 1
        S = np.diag([2.0, 0.0, 0.0])
        N = np.zeros((3, 3))
        N[0, 1], N[1, 0] = 1.0, -1.0
        rng = np.random.default_rng(3)
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        S, N = Q @ S @ Q.T, Q @ N @ Q.T
        S, N = (S + S.T) / 2.0, (N - N.T) / 2.0
        sys = PHSystem(E=np.eye(4), J=np.zeros((4, 4)), R=np.eye(4),
                       G=rng.normal(size=(4, 3)), P=np.zeros((4, 3)), S=S, N=N)
        dc = compress_feedthrough(sys.S, sys.N)
        assert (dc.m1, dc.m2, dc.m3) == (1, 1, 1)
        B1, B3 = feedback_analysis(sys).input_blocks
        assert _relative_error(B1, sys.B @ pseudo_inverse(sys.D) @ range_basis(sys.S)) <= 1e-12
        assert _relative_error(B3, sys.B @ nullspace_basis(sys.D)) <= 1e-12

    def test_conditions_refuse_indefinite_s(self):
        sys = scalar_system(E=1, G=1, S=-1)
        with pytest.raises(NotPSD):
            stabilizability_rank_condition(sys)
        with pytest.raises(NotPSD):
            index_reduction_rank_condition(sys)

    def test_exact_structure_takes_three_svds(self, svd_calls):
        # range of S, kernel of S+N and the complement; an exactly symmetric
        # S and an exactly skew N need no scale norm for their checks
        rng = np.random.default_rng(0)
        L = rng.normal(size=(4, 2))
        S = L @ L.T
        S = (S + S.T) / 2.0
        M = rng.normal(size=(4, 4))
        compress_feedthrough(S, (M - M.T) / 2.0)
        assert len(svd_calls) == 3, [a.shape for a, _ in svd_calls]

    def test_synthesis_decomposes_feedthrough_once(self, svd_calls):
        # After the analysis's report: three feedthrough SVDs, one for the
        # index-one rank test and one in the state compression.
        sys = random_ph(60, 6, 0)
        pencil_report(sys.E, sys.A)
        svd_calls.clear()
        synthesize_stabilizing(sys)
        assert len(svd_calls) <= 5, [a.shape for a, _ in svd_calls]
        assert sum(a.shape == (6, 6) for a, _ in svd_calls) <= 3


# Every array of a system, by its PHSystem field name.
SYSTEM_ARRAYS = ("E", "J", "R", "G", "P", "S", "N")


class TestFeedbackAnalysis:
    """feedback_analysis keeps one analysis per system and tolerance, and
    the conditions and both syntheses read it."""

    @pytest.mark.parametrize("which", SYSTEM_ARRAYS)
    def test_in_place_change_forces_a_fresh_analysis(self, cold_analysis, which):
        sys = random_ph(5, 2, 2)
        first = feedback_analysis(sys)
        before = getattr(first.sys, which).copy()
        assert feedback_analysis(sys) is first
        getattr(sys, which)[0, 0] += 1.0
        assert feedback_analysis(sys) is not first
        # The stored analysis does not alias the caller's arrays.
        assert np.array_equal(getattr(first.sys, which), before)

    def test_another_tolerance_or_system_misses(self, cold_analysis):
        sys, other = random_ph(6, 2, 0), random_ph(6, 2, 1)
        a = feedback_analysis(sys)
        tight = feedback_analysis(sys, ToleranceConfig(axis_tol=1e-6))
        assert tight is not a
        # An equal configuration is the same key.
        assert feedback_analysis(sys, ToleranceConfig(axis_tol=1e-6)) is tight
        b = feedback_analysis(other)
        assert b is not a and feedback_analysis(other) is b
        assert feedback_analysis(sys) is not a

    def test_stored_arrays_are_read_only(self, cold_analysis):
        a = feedback_analysis(random_ph(6, 3, 0, rank_w=1))
        dc = a.compression
        for arr in (*a.input_blocks, dc.U, dc.S11, dc.dhat, a.sys.E):
            assert not arr.flags.writeable

    def test_stabilizing_synthesis_after_the_conditions(self, monkeypatch, cold_analysis,
                                                        cold_report, svd_calls):
        # S + N is invertible (m3 = 0), so the feedback reads no block of
        # the state compression and the call takes no SVD at all: no PBH
        # test and no SVD of [E, A Z_E, B1, B3].  A later call of the
        # trace's blocks() takes only the compression's SVDs, of B3
        # (n x m3) and of the rows of B1 S11^(1/2) below it (at most n x m1).
        sys = random_ph(60, 6, 0, rank_w=1)
        assert stabilizability_rank_condition(sys)[0] and index_reduction_rank_condition(sys)
        strict_passifiability_condition(sys)
        svd_calls.clear()
        F, trace = synthesize_stabilizing(sys)
        assert trace.compression.m3 == 0
        assert svd_calls == []
        assert sum(trace.blocks()["mu"]) == sys.n
        assert svd_calls and all(a.shape[1] <= sys.m for a, _ in svd_calls), \
            [a.shape for a, _ in svd_calls]
        monkeypatch.setattr(pencil, "_ANALYSIS", None)
        assert np.array_equal(synthesize_stabilizing(sys)[0], F)

    def test_passifying_synthesis_after_the_conditions(self, monkeypatch, cold_analysis):
        sys = random_ph(20, 3, 0, s_definite=True)
        assert strict_passifiability_condition(sys)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        synthesize_passifying(sys)
        assert (sys.n, sys.n) not in shapes

    def test_cold_passifying_synthesis_takes_no_svd(self, cold_analysis, cold_report, svd_calls):
        # The passifiability condition reads neither the feedthrough split
        # nor the pencil, so a passify never runs a PBH test.
        synthesize_passifying(random_ph(20, 3, 0, s_definite=True))
        assert svd_calls == []

    def test_refusal_witnesses_do_not_reach_the_analysis(self, cold_analysis):
        sys = random_ph(60, 1, 0, force_axis_modes=True)
        with pytest.raises(ConditionsNotMet) as info:
            synthesize_stabilizing(sys)
        witnesses = list(info.value.witnesses)
        assert witnesses
        info.value.witnesses.clear()
        ok, again = stabilizability_rank_condition(sys)
        assert not ok and again == witnesses
        again.append(0j)
        assert stabilizability_rank_condition(sys) == (False, witnesses)
