"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one machine-greppable verdict line; run with ``-s`` (or
``-rA``) to see them.  All draws are seeded, so verdicts are reproducible.
"""

import json
import time

import numpy as np

from phdesc.certify import certify_closed_loop
from phdesc.cli import main as cli_main
from phdesc.fileio import load_feedback, save_system
from phdesc.generators import random_ph
from phdesc.linalg import DEFAULT_TOL, numerical_rank, spectral_norm
from phdesc.model import (
    PHSystem,
    apply_feedback,
    dissipation_inequality_check,
    dissipation_matrix,
    power_balance_residual,
    validate,
)
from phdesc.pencil import (
    StabilityClass,
    imaginary_axis_full_rank,
    index_one_rank_condition,
    index_reduction_rank_condition,
    pencil_report,
    stabilizability_rank_condition,
    strict_passifiability_condition,
)
from phdesc.simulate import simulate_closed_loop
from phdesc.synthesis import (
    build_stabilizing_feedback,
    passifying_feedback_formula,
    synthesize_passifying,
    synthesize_stabilizing,
)
from conftest import (
    brute_force_rank_on_axis,
    feedback_admissible,
    random_admissible_feedback,
    random_dissipative_pencil,
    undamped_block_nonsingularity_condition,
    undamped_block_stability_condition,
)


def _verdict(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}: {detail}"


def _dims(rng, n_max=8, m_max=4, n_min=1):
    return int(rng.integers(n_min, n_max + 1)), int(rng.integers(1, m_max + 1))


def test_criterion_1_structure_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for seed in range(500):
        n, m = _dims(rng)
        force_singular = seed % 7 == 0
        force_axis = seed % 11 == 0 and n >= 3
        s_definite = seed % 5 == 0
        sys = random_ph(n, m, seed, force_singular=force_singular,
                        force_axis_modes=force_axis, s_definite=s_definite)
        assert validate(sys).passed, f"seed {seed} fails validate"
        rep = pencil_report(sys.E, sys.A)
        assert rep.stability_class is not StabilityClass.UNSTABLE, f"seed {seed} unstable"
        if rep.regular:
            assert rep.index <= 2, f"seed {seed} index {rep.index}"
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict("criterion 1 structure soundness",
             checked == 500 and elapsed < 60.0,
             f"{checked} instances, {elapsed:.1f}s")


def test_criterion_2_stabilizing_sufficiency():
    rng = np.random.default_rng(202)
    certified = 0
    attempts = 0
    while certified < 300 and attempts < 1500:
        seed = attempts
        attempts += 1
        n, m = _dims(rng)
        sys = random_ph(n, m, seed + 10_000)
        ok1, _ = stabilizability_rank_condition(sys)
        if not (ok1 and index_reduction_rank_condition(sys)):
            continue
        F, _ = synthesize_stabilizing(sys)
        cert = certify_closed_loop(sys, F, goal="stabilize")
        w_norm = max(1e-300, spectral_norm(dissipation_matrix(cert.closed_loop)))
        assert cert.w.min_eigenvalue >= -1e-8 * w_norm, f"seed {seed}: W not PSD"
        assert cert.pencil.regular, f"seed {seed}: closed loop not regular"
        assert cert.pencil.index <= 1, f"seed {seed}: index {cert.pencil.index}"
        if cert.pencil.finite_eigenvalues.size:
            assert cert.pencil.spectral_abscissa < -1e-8, \
                f"seed {seed}: abscissa {cert.pencil.spectral_abscissa}"
        certified += 1
    _verdict("criterion 2 stabilizing sufficiency",
             certified >= 300, f"{certified} condition-true instances, zero failures")


def test_criterion_3_stabilizing_necessity():
    rng = np.random.default_rng(303)
    instances = 0
    rejected = 0
    total = 0
    while instances < 50:
        seed = 20_000 + instances * 13 + total % 7
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 5))
        sys = random_ph(n, m, seed, force_axis_modes=True)
        ok1, _ = stabilizability_rank_condition(sys)
        assert not ok1, f"seed {seed}: pathology knob failed to break the condition"
        # the constructive feedback is the strongest candidate: it keeps the
        # closed loop port-Hamiltonian, yet the unreachable oscillator stays
        # on the axis and the certifier must reject on stability
        formula_f = build_stabilizing_feedback(sys)[0]
        cert_formula = certify_closed_loop(sys, formula_f, goal="stabilize")
        assert cert_formula.w.is_semidefinite, f"seed {seed}: formula feedback broke structure"
        stable = cert_formula.pencil.stability_class is StabilityClass.ASYMPTOTICALLY_STABLE
        assert not stable, f"seed {seed}"
        candidates = [formula_f]
        for _ in range(200):
            candidates.append(rng.normal(size=(m, n)) * 10 ** rng.uniform(-1.0, 0.5))
        for F in candidates:
            cert = certify_closed_loop(sys, F, goal="stabilize")
            assert not cert.overall, f"seed {seed}: certifier accepted a feedback"
            rejected += 1
        total += len(candidates)
        instances += 1
    _verdict("criterion 3 stabilizing necessity",
             instances >= 50 and rejected == total,
             f"{instances} instances, {rejected}/{total} feedbacks rejected")


def test_criterion_4_passifiability_iff():
    rng = np.random.default_rng(404)
    holds_n = fails_n = 0
    for k in range(300):
        seed = 30_000 + k
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        rank_w = int(rng.integers(0, min(n + m, 4)))
        sys = random_ph(n, m, seed, s_definite=True, rank_w=rank_w)
        if strict_passifiability_condition(sys):
            holds_n += 1
            F = synthesize_passifying(sys)
            cert = certify_closed_loop(sys, F, goal="passify")
            assert cert.w.min_eigenvalue > 0, f"seed {seed}: formula feedback not strict"
            assert cert.overall, f"seed {seed}: certification failed"
        else:
            fails_n += 1
            candidates = [passifying_feedback_formula(sys)]
            for _ in range(200):
                candidates.append(rng.normal(size=(m, n)) * 10 ** rng.uniform(-1.0, 0.5))
            for F in candidates:
                W = dissipation_matrix(apply_feedback(sys, F))
                lam = float(np.linalg.eigvalsh(W)[0])
                assert lam <= 1e-10 * max(1.0, spectral_norm(W)), \
                    f"seed {seed}: a feedback reached strict passivity"
    _verdict("criterion 4 passifiability iff",
             holds_n + fails_n == 300 and holds_n >= 30 and fails_n >= 30,
             f"{holds_n} condition-true, {fails_n} condition-false, all matched")


def test_criterion_5_axis_oracle_agreement():
    rng = np.random.default_rng(505)
    base_grid = np.arange(-10.0, 10.5, 1.0)
    disagreements = 0
    checked = 0
    for k in range(500):
        seed = 40_000 + k
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        force_axis = k % 4 == 0 and n >= 3
        force_singular = k % 9 == 0
        sys = random_ph(n, m, seed, force_axis_modes=force_axis,
                        force_singular=force_singular)
        choice = k % 3
        if choice == 0:
            B = sys.B
        elif choice == 1:
            B = np.zeros((n, 0))
        else:
            B = rng.normal(size=(n, int(rng.integers(1, 4))))
        ok, witnesses = imaginary_axis_full_rank(sys.E, sys.A, B)
        aug = pencil_report(np.hstack([sys.E, np.zeros((n, B.shape[1]))]),
                            np.hstack([sys.A, B]))
        grid = np.concatenate([base_grid,
                               [w.imag for w in witnesses],
                               aug.finite_eigenvalues.imag])
        brute = brute_force_rank_on_axis(sys.E, sys.A, B, grid)
        if brute != ok:
            disagreements += 1
        checked += 1
    _verdict("criterion 5 axis oracle agreement",
             checked >= 500 and disagreements == 0,
             f"{checked} instances, {disagreements} disagreements")


def _damped_block_instance(seed):
    srng = np.random.default_rng(seed)
    n1 = int(srng.integers(1, 4))
    n2 = int(srng.integers(0, 5))
    n = n1 + n2
    E, J, _, _ = random_dissipative_pencil(srng, n, 0)
    L = srng.normal(size=(n1, n1))
    R = np.zeros((n, n))
    R[:n1, :n1] = L @ L.T + 0.1 * np.eye(n1)
    return E, J, R, n1


def test_criterion_6_rank_condition_oracles():
    # damped-block stability test, both directions
    for seed in range(200):
        E, J, R, n1 = _damped_block_instance(seed + 50_000)
        cond = undamped_block_stability_condition(E, J, R, n1)
        stable = (pencil_report(E, J - R).stability_class
                  is StabilityClass.ASYMPTOTICALLY_STABLE)
        assert cond == stable, f"stability oracle mismatch at seed {seed}"
    # damped-block nonsingularity test, both directions
    for seed in range(200):
        E, J, R, n1 = _damped_block_instance(seed + 60_000)
        cond = undamped_block_nonsingularity_condition(J, n1)
        nonsingular = numerical_rank(J - R, DEFAULT_TOL) == J.shape[0]
        assert cond == nonsingular, f"nonsingularity oracle mismatch at seed {seed}"
    # axis rank condition + admissible feedback implies asymptotic stability
    stable_checked = 0
    seed = 70_000
    while stable_checked < 200:
        srng = np.random.default_rng(seed)
        seed += 1
        n = int(srng.integers(1, 8))
        k = int(srng.integers(1, 5))
        E, J, R, B = random_dissipative_pencil(srng, n, k)
        ok, _ = imaginary_axis_full_rank(E, J - R, B)
        if not ok:
            continue
        F = random_admissible_feedback(srng, R, B)
        assert feedback_admissible(R, B, F)
        rep = pencil_report(E, J - R + B @ F)
        assert rep.stability_class is StabilityClass.ASYMPTOTICALLY_STABLE, seed
        stable_checked += 1
    # index rank condition + admissible feedback implies regular index <= 1
    index_checked = 0
    seed = 80_000
    while index_checked < 200:
        srng = np.random.default_rng(seed)
        seed += 1
        n = int(srng.integers(1, 8))
        k = int(srng.integers(1, 5))
        E, J, R, B = random_dissipative_pencil(srng, n, k)
        if not index_one_rank_condition(E, J - R, B):
            continue
        F = random_admissible_feedback(srng, R, B)
        assert feedback_admissible(R, B, F)
        rep = pencil_report(E, J - R + B @ F)
        assert rep.regular and rep.index <= 1, seed
        index_checked += 1
    _verdict("criterion 6 rank-condition oracles",
             stable_checked >= 200 and index_checked >= 200,
             "4 suites x 200 hypothesis-satisfying instances")


def _tail(traj, t_from):
    i0 = int(np.searchsorted(traj.t, t_from))
    from phdesc.model import Trajectory
    return Trajectory(t=traj.t[i0:], x=traj.x[i0:], u=traj.u[i0:], y=traj.y[i0:])


def test_criterion_7_dynamics_witness():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    loops = 0
    seed = 90_000
    while loops < 20:
        seed += 1
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        sys = random_ph(n, m, seed)
        ok1, _ = stabilizability_rank_condition(sys)
        if not (ok1 and index_reduction_rank_condition(sys)):
            continue
        F, _ = synthesize_stabilizing(sys)
        cert = certify_closed_loop(sys, F, goal="stabilize")
        if not cert.overall:
            continue
        # the step-halving study needs dynamics (a purely algebraic loop
        # has residual at roundoff already) and the coarsest grid must
        # resolve the fastest closed-loop mode
        evs = cert.pencil.finite_eigenvalues
        if evs.size == 0 or np.abs(evs).max() > 10.0:
            continue
        closed = cert.closed_loop
        srng = np.random.default_rng(seed * 7 + 1)
        x0 = srng.normal(size=n)
        u = srng.normal(size=m)
        residuals = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            traj = simulate_closed_loop(sys, F, x0, u=u, T=2.0, dt=dt)
            assert dissipation_inequality_check(closed, traj), \
                f"seed {seed}: dissipation inequality violated at dt={dt}"
            # convergence is measured once the fast transients are gone and
            # the central difference sees the smooth slow-mode solution;
            # the residual there is purely the first-order integrator error
            residuals.append(power_balance_residual(closed, _tail(traj, 1.0)))
        assert residuals[0] > residuals[1] > residuals[2], f"seed {seed}: {residuals}"
        assert residuals[0] / residuals[1] >= 1.8, f"seed {seed}: {residuals}"
        assert residuals[1] / residuals[2] >= 1.8, f"seed {seed}: {residuals}"
        loops += 1
    elapsed = time.perf_counter() - start
    _verdict("criterion 7 dynamics witness",
             loops >= 20 and elapsed < 120.0,
             f"{loops} certified loops, {elapsed:.1f}s")


def test_criterion_8_worked_scalar_examples(tmp_path):
    # stabilization example: feedback -2, closed-loop spectrum {-2}
    sys_path = tmp_path / "stab.json"
    save_system(sys_path, PHSystem(E=[[1.0]], J=[[0.0]], R=[[0.0]], G=[[1.0]],
                                   P=[[0.0]], S=[[0.0]], N=[[0.0]]))
    f_path = tmp_path / "F_stab.json"
    rep_path = tmp_path / "rep_stab.json"
    code = cli_main(["stabilize", "--input", str(sys_path), "--output", str(f_path),
                     "--report", str(rep_path)])
    assert code == 0
    F = load_feedback(f_path)
    assert abs(F[0, 0] + 2.0) <= 1e-12
    doc = json.loads(rep_path.read_text())
    spectrum = doc["certification"]["spectrum"]
    assert len(spectrum) == 1
    assert abs(spectrum[0][0] + 2.0) <= 1e-12 and abs(spectrum[0][1]) <= 1e-12

    # passivation example: feedback -2, closed-loop dissipation eigenvalues 2 +/- sqrt(2)
    sys_path2 = tmp_path / "pass.json"
    save_system(sys_path2, PHSystem(E=[[1.0]], J=[[0.0]], R=[[1.0]], G=[[1.0]],
                                    P=[[0.0]], S=[[1.0]], N=[[0.0]]))
    f_path2 = tmp_path / "F_pass.json"
    rep_path2 = tmp_path / "rep_pass.json"
    code = cli_main(["passify", "--input", str(sys_path2), "--output", str(f_path2),
                     "--report", str(rep_path2)])
    assert code == 0
    F2 = load_feedback(f_path2)
    assert abs(F2[0, 0] + 2.0) <= 1e-12
    doc2 = json.loads(rep_path2.read_text())
    lam_min = doc2["certification"]["checks"]["strictly_passive"]["lambda_min_w"]
    assert abs(lam_min - (2.0 - np.sqrt(2.0))) <= 1e-12
    from phdesc.fileio import load_system
    W = dissipation_matrix(apply_feedback(load_system(sys_path2), F2))
    eigs = np.linalg.eigvalsh(W)
    assert abs(eigs[0] - (2.0 - np.sqrt(2.0))) <= 1e-12
    assert abs(eigs[1] - (2.0 + np.sqrt(2.0))) <= 1e-12
    _verdict("criterion 8 worked scalar examples", True,
             "feedbacks -2, spectrum {-2}, dissipation eigenvalues 2 +/- sqrt(2)")
