import os
import threading
import time

import numpy as np
import pytest

from phdesc import pencil, simulate
from phdesc.certify import certify_closed_loop
from phdesc.errors import NotIndexOne, ShapeMismatch, SolveFailure
from phdesc.generators import random_ph
from phdesc.model import (
    PHSystem,
    apply_feedback,
    dissipation_inequality_check,
    power_balance_residual,
)
from phdesc.pencil import pencil_report
from phdesc.simulate import consistent_projection, simulate_closed_loop, write_trajectory_csv
from phdesc.synthesis import synthesize_stabilizing
from conftest import hamiltonian


def scalar_system(E=1.0, J=0.0, R=0.0, G=0.0, P=0.0, S=0.0, N=0.0):
    return PHSystem(E=[[E]], J=[[J]], R=[[R]], G=[[G]], P=[[P]], S=[[S]], N=[[N]])


def no_input_system(E, J, R):
    n = np.asarray(E).shape[0]
    return PHSystem(E=E, J=J, R=R, G=np.zeros((n, 0)), P=np.zeros((n, 0)),
                    S=np.zeros((0, 0)), N=np.zeros((0, 0)))


class TestConsistentProjection:
    def test_ode_case_unchanged(self):
        sys = no_input_system(np.eye(2), np.zeros((2, 2)), np.eye(2))
        x = consistent_projection(sys, [1.0, 2.0])
        assert np.array_equal(x, [1.0, 2.0])

    def test_index_zero_loop_returns_x0_bitwise(self):
        # No algebraic constraint: x0 comes back bit for bit, signed zeros
        # and subnormals included, whatever the input.
        sys = random_ph(5, 2, 0, rank_e=5)
        assert pencil_report(sys.E, sys.A).index == 0
        x0 = np.array([1.5, -0.0, 3e-320, -2.0, 0.0])
        x = consistent_projection(sys, x0, u0=[1.0, -1.0])
        assert x is not x0 and x.tobytes() == x0.tobytes()

    def test_constraint_row(self):
        sys = no_input_system(np.diag([1.0, 0.0]), np.zeros((2, 2)), np.eye(2))
        x = consistent_projection(sys, [1.0, 5.0])
        assert np.allclose(x, [1.0, 0.0], atol=1e-12)

    def test_consistent_state_unchanged(self):
        sys = no_input_system(np.diag([1.0, 0.0]), np.zeros((2, 2)), np.eye(2))
        x = consistent_projection(sys, [2.5, 0.0])
        assert np.allclose(x, [2.5, 0.0], atol=1e-12)

    def test_input_shifts_constraint(self):
        # constraint row: -x2 + u = 0
        sys = PHSystem(E=np.diag([1.0, 0.0]), J=np.zeros((2, 2)), R=np.eye(2),
                       G=np.array([[0.0], [1.0]]), P=np.zeros((2, 1)),
                       S=[[0.0]], N=[[0.0]])
        x = consistent_projection(sys, [1.0, 0.0], u0=[3.0])
        assert np.allclose(x, [1.0, 3.0], atol=1e-12)

    def test_refuses_index_two(self):
        sys = no_input_system(np.diag([1.0, 0.0]),
                              np.array([[0.0, 1.0], [-1.0, 0.0]]),
                              np.zeros((2, 2)))
        with pytest.raises(NotIndexOne):
            consistent_projection(sys, [1.0, 1.0])

    def test_takes_no_svd_of_e(self, monkeypatch, svd_calls):
        # The constraint rows are the loop report's cokernel basis: with the
        # report warm and E's SVD memo emptied, the only SVD is the
        # pseudo-inverse's, of the k x n constraint block.
        sys = random_ph(12, 2, 1)
        F, _ = synthesize_stabilizing(sys)
        closed = apply_feedback(sys, F)
        k = closed.n - pencil_report(closed.E, closed.A).rank_E
        assert k > 0
        monkeypatch.setattr(pencil, "_E_SVD", None)
        svd_calls.clear()
        consistent_projection(closed, np.ones(closed.n))
        assert [a.shape for a, _ in svd_calls] == [(k, closed.n)]


class TestSimulateClosedLoop:
    def test_takes_no_eigensolve(self, monkeypatch, eigvals_calls):
        # Simulation reads the closed loop's regularity and index only; its
        # report stays in the memo with the spectrum unread.
        sys = random_ph(12, 2, 0, rank_e=9)
        F, _ = synthesize_stabilizing(sys)
        monkeypatch.setattr(pencil, "_REPORT", None)
        eigvals_calls.clear()
        simulate_closed_loop(sys, F, np.ones(sys.n), T=0.01, dt=1e-3)
        assert eigvals_calls == []
        closed = apply_feedback(sys, F)
        pencil_report(closed.E, closed.A).finite_eigenvalues
        assert len(eigvals_calls) == 1

    def test_zero_everything_stays_zero(self):
        sys = scalar_system(E=1, G=1)
        traj = simulate_closed_loop(sys, [[-2.0]], [0.0], T=0.5, dt=0.01)
        assert np.all(traj.x == 0.0) and np.all(traj.y == 0.0)

    def test_scalar_decay_accuracy(self):
        sys = scalar_system(E=1, G=1)
        traj = simulate_closed_loop(sys, [[-2.0]], [1.0], T=1.0, dt=1e-3)
        assert abs(traj.x[-1, 0] - np.exp(-2.0)) < 2e-3

    def test_refuses_index_two(self):
        sys = no_input_system(np.diag([1.0, 0.0]),
                              np.array([[0.0, 1.0], [-1.0, 0.0]]),
                              np.zeros((2, 2)))
        with pytest.raises(NotIndexOne):
            simulate_closed_loop(sys, np.zeros((0, 2)), [1.0, 1.0])

    def test_refuses_singular(self):
        sys = no_input_system(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(NotIndexOne):
            simulate_closed_loop(sys, np.zeros((0, 1)), [1.0])

    def test_blow_up_reports_first_non_finite_sample(self):
        # x_{k+1} = x_k / (1 - 0.999) = 1000 x_k overflows on step 103.
        sys = scalar_system(E=1, G=1)
        with pytest.raises(SolveFailure, match="non-finite") as exc:
            simulate_closed_loop(sys, [[999.0]], [1.0], T=1.0, dt=1e-3)
        assert exc.value.t == 103 * 1e-3

    def test_singular_step_matrix_refused_at_start(self):
        # E - dt A = 1 - 1e-3 * 1000 is exactly 0
        sys = scalar_system(E=1, G=1)
        with pytest.raises(SolveFailure, match="step matrix numerically singular") as exc:
            simulate_closed_loop(sys, [[1000.0]], [1.0], T=1.0, dt=1e-3)
        assert exc.value.t == 0.0

    def test_rank_deficient_step_matrix_refused_at_start(self):
        # A = Q diag(1000, -1, -2) Q^T, so E - dt A has a singular value at
        # roundoff level but no exact zero on its diagonal or in its LU.
        Q = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
        sys = PHSystem(E=np.eye(3), J=np.zeros((3, 3)), R=np.zeros((3, 3)), G=np.eye(3),
                       P=np.zeros((3, 3)), S=np.zeros((3, 3)), N=np.zeros((3, 3)))
        F = Q @ np.diag([1000.0, -1.0, -2.0]) @ Q.T
        step_matrix = np.eye(3) - 1e-3 * apply_feedback(sys, F).A
        assert np.linalg.svd(step_matrix, compute_uv=False)[-1] < 1e-13
        with pytest.raises(SolveFailure, match="step matrix numerically singular") as exc:
            simulate_closed_loop(sys, F, np.ones(3), T=0.1, dt=1e-3)
        assert exc.value.t == 0.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_step_solves_the_euler_equation(self, seed):
        # An index-one DAE (rank E = 57 of 60) under a certified feedback and
        # a time-varying input: each sample satisfies
        # (E - dt A) x_{k+1} = E x_k + dt B u_k to 64 n eps, relative to the
        # norms of its terms.
        sys = random_ph(60, 6, seed, rank_e=57)
        F, _ = synthesize_stabilizing(sys)
        cert = certify_closed_loop(sys, F)
        assert cert.overall
        closed = cert.closed_loop
        rng = np.random.default_rng(seed)
        dt, K = 1e-3, 2000
        u = rng.normal(size=(K, 6)) * np.sin(np.arange(K) * dt * 7.0)[:, None]
        traj = simulate_closed_loop(sys, F, rng.normal(size=60), u=u, T=K * dt, dt=dt)
        E, A, B = closed.E, closed.A, closed.B
        M = E - dt * A
        X, U = traj.x, traj.u
        res = X[1:] @ M.T - X[:-1] @ E.T - dt * (U[:-1] @ B.T)
        nx = np.linalg.norm(X, axis=1)
        scale = (np.linalg.norm(M, 2) * nx[1:] + np.linalg.norm(E, 2) * nx[:-1]
                 + dt * np.linalg.norm(B, 2) * np.linalg.norm(U[:-1], axis=1))
        worst = np.max(np.linalg.norm(res, axis=1) / scale)
        assert worst <= 64 * 60 * np.finfo(float).eps

    def test_bad_input_shape(self):
        sys = scalar_system(E=1, G=1)
        with pytest.raises(ShapeMismatch):
            simulate_closed_loop(sys, [[-2.0]], [1.0], u=np.ones((7, 2)), T=1.0, dt=0.1)

    @pytest.mark.parametrize("T, dt, message", [
        (float("inf"), 1e-3, "T must be finite and at least dt, got inf"),
        (float("nan"), 1e-3, "T must be finite and at least dt, got nan"),
        (1.0, float("nan"), "dt must be finite and positive, got nan"),
        (1.0, float("inf"), "dt must be finite and positive, got inf")],
        ids=["T=inf", "T=nan", "dt=nan", "dt=inf"])
    def test_non_finite_horizon_or_step_refused_first(self, monkeypatch, T, dt, message):
        # Refused before any other work: forming the closed loop would
        # raise TypeError.
        monkeypatch.setattr(simulate, "apply_feedback", None)
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_closed_loop(scalar_system(E=1, G=1), [[-2.0]], [1.0], T=T, dt=dt)

    def test_energy_decays_without_input(self):
        for seed in (1, 4, 11):
            sys = random_ph(5, 2, seed)
            try:
                F, _ = synthesize_stabilizing(sys)
            except Exception:
                continue
            closed = apply_feedback(sys, F)
            traj = simulate_closed_loop(sys, F, np.ones(5), T=2.0, dt=0.01)
            H = np.array([hamiltonian(closed, x) for x in traj.x])
            assert np.all(np.diff(H) <= 1e-12 * max(1.0, H.max()))

    def test_random_input_satisfies_dissipation(self, rng):
        count = 0
        for seed in range(12):
            sys = random_ph(4, 2, seed)
            cert = None
            try:
                F, _ = synthesize_stabilizing(sys)
                cert = certify_closed_loop(sys, F)
            except Exception:
                continue
            if not cert.overall:
                continue
            K = 100
            u = np.repeat(rng.normal(size=(10, 2)), 10, axis=0)[:K]
            traj = simulate_closed_loop(sys, F, rng.normal(size=4), u=u, T=1.0, dt=0.01)
            assert dissipation_inequality_check(cert.closed_loop, traj)
            count += 1
        assert count >= 5

    def test_residual_shrinks_with_step(self):
        sys = random_ph(5, 2, 11)
        F, _ = synthesize_stabilizing(sys)
        closed = apply_feedback(sys, F)
        x0 = np.ones(5)
        u = np.array([0.3, -0.2])
        residuals = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            traj = simulate_closed_loop(sys, F, x0, u=u, T=2.0, dt=dt)
            residuals.append(power_balance_residual(closed, traj))
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[0] / residuals[1] >= 1.8
        assert residuals[1] / residuals[2] >= 1.8


def long_loop(m):
    """(trajectory, closed loop) of a few thousand rows: an index-one loop
    under a varying input with m inputs, or an inputless one for m = 0."""
    if m:
        sys = random_ph(6, m, 3, rank_e=4)
        F, _ = synthesize_stabilizing(sys)
        u = np.random.default_rng(m).normal(size=(3000, m))
    else:
        sys = no_input_system(np.diag([1.0, 2.0, 0.0]), np.array(
            [[0.0, 1.0, 0.5], [-1.0, 0.0, 0.0], [-0.5, 0.0, 0.0]]), np.eye(3))
        F, u = np.zeros((0, 3)), None
    traj = simulate_closed_loop(sys, F, np.linspace(1.0, -2.0, sys.n), u=u, T=3.0, dt=1e-3)
    return traj, apply_feedback(sys, F)


def csv_values(traj):
    """Values in the trajectory's CSV: t, x, u, y and H of every row."""
    return traj.t.shape[0] * (2 + traj.x.shape[1] + 2 * traj.u.shape[1])


def force_parts(monkeypatch, traj, parts):
    """Make write_trajectory_csv split this trajectory into ``parts`` parts,
    whatever the host's CPUs; return the list of os.fork calls it makes."""
    monkeypatch.setattr(simulate, "_available_cpus", lambda: parts)
    monkeypatch.setattr(simulate, "_CSV_PART_VALUES", csv_values(traj) // parts)
    forks = []
    fork = os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def serial_bytes(tmp_path, traj, closed):
    path = tmp_path / "serial.csv"
    write_trajectory_csv(path, traj, closed)
    return path.read_bytes()


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        sys = scalar_system(E=1, G=1)
        traj = simulate_closed_loop(sys, [[-2.0]], [1.0], T=0.1, dt=0.01)
        closed = apply_feedback(sys, [[-2.0]])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, closed)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x1,u1,y1,H"
        assert len(lines) == traj.t.shape[0] + 1
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(data[:, 0], traj.t)
        assert np.array_equal(data[:, 1], traj.x[:, 0])
        H = np.array([hamiltonian(closed, x) for x in traj.x])
        assert np.array_equal(data[:, 4], H)

    def test_fields_pinned_on_multi_state_loop(self, tmp_path, rng):
        sys = random_ph(5, 2, 11)
        F, _ = synthesize_stabilizing(sys)
        cert = certify_closed_loop(sys, F)
        assert cert.overall
        closed = cert.closed_loop
        u = rng.normal(size=(200, 2))
        traj = simulate_closed_loop(sys, F, rng.normal(size=5), u=u, T=0.2, dt=1e-3)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, closed)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,x4,x5,u1,u2,y1,y2,H"
        assert len(lines) == traj.t.shape[0] + 1
        for k, line in enumerate(lines[1:]):
            fields = line.split(",")
            values = [traj.t[k], *traj.x[k], *traj.u[k], *traj.y[k]]
            assert fields[:-1] == [repr(float(v)) for v in values]
            H = hamiltonian(closed, traj.x[k])
            assert abs(float(fields[-1]) - H) <= 1e-12 * abs(H)

    @pytest.mark.parametrize("m", [2, 0])
    def test_bytes_identical_for_any_part_count(self, tmp_path, monkeypatch, m):
        traj, closed = long_loop(m)
        expected = serial_bytes(tmp_path, traj, closed)
        assert expected.count(b"\n") == 3002
        for parts in (1, 2, 3):
            forks = force_parts(monkeypatch, traj, parts)
            path = tmp_path / f"parts-{parts}.csv"
            write_trajectory_csv(path, traj, closed)
            assert len(forks) == parts - 1
            assert path.read_bytes() == expected

    @pytest.mark.parametrize("parts", [1, 3])
    def test_longer_existing_file_keeps_no_tail(self, tmp_path, monkeypatch, parts):
        # On the serial route and on the forked-parts route alike.
        traj, closed = long_loop(2)
        expected = serial_bytes(tmp_path, traj, closed)
        path = tmp_path / "old.csv"
        path.write_bytes(b"9" * (2 * len(expected)))
        forks = force_parts(monkeypatch, traj, parts)
        write_trajectory_csv(path, traj, closed)
        assert len(forks) == parts - 1
        assert path.read_bytes() == expected

    def test_failed_write_keeps_no_tail_of_the_old_file(self, tmp_path, monkeypatch):
        traj, closed = long_loop(2)
        expected = serial_bytes(tmp_path, traj, closed)
        path = tmp_path / "old.csv"
        path.write_bytes(b"9" * (2 * len(expected)))
        force_parts(monkeypatch, traj, 3)
        parent = os.getpid()
        write_rows = simulate._write_rows

        def failing_in_child(fh, *args):
            if os.getpid() != parent:
                raise RuntimeError("formatter failed")
            write_rows(fh, *args)

        monkeypatch.setattr(simulate, "_write_rows", failing_in_child)
        with pytest.raises(ChildProcessError):
            write_trajectory_csv(path, traj, closed)
        written = path.read_bytes()
        assert 0 < len(written) < len(expected) and expected.startswith(written)

    def test_pipe_output_same_bytes(self, tmp_path, monkeypatch):
        traj, closed = long_loop(2)
        expected = serial_bytes(tmp_path, traj, closed)
        forks = force_parts(monkeypatch, traj, 3)
        fifo = tmp_path / "traj.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        write_trajectory_csv(fifo, traj, closed)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert len(forks) == 2
        assert received == [expected]

    def test_small_file_never_forks(self, tmp_path, monkeypatch):
        # A short trajectory (201 rows of 26 values) stays serial however
        # many CPUs there are; so does one just short of two full parts.
        def no_fork():
            raise AssertionError("os.fork called")

        traj, closed = long_loop(2)
        sys = random_ph(10, 7, 0)
        short = simulate_closed_loop(sys, np.zeros((7, 10)), np.ones(10), T=0.2, dt=1e-3)
        assert csv_values(short) == 201 * 26
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 64)
        monkeypatch.setattr(os, "fork", no_fork)
        write_trajectory_csv(tmp_path / "short.csv", short, apply_feedback(sys, np.zeros((7, 10))))
        monkeypatch.setattr(simulate, "_CSV_PART_VALUES", csv_values(traj) // 2 + 1)
        path = tmp_path / "long.csv"
        write_trajectory_csv(path, traj, closed)
        monkeypatch.undo()
        assert path.read_bytes() == serial_bytes(tmp_path, traj, closed)

    @pytest.mark.parametrize("exc", [RuntimeError("formatter failed"), SystemExit(0),
                                     KeyboardInterrupt()], ids=type)
    def test_failing_child_raises_and_is_reaped(self, tmp_path, monkeypatch, exc):
        traj, closed = long_loop(2)
        forks = force_parts(monkeypatch, traj, 3)
        parent = os.getpid()
        write_rows = simulate._write_rows

        def failing_in_child(fh, *args):
            if os.getpid() != parent:
                raise exc
            write_rows(fh, *args)

        monkeypatch.setattr(simulate, "_write_rows", failing_in_child)
        with pytest.raises(ChildProcessError, match=r"part 1 .*exit status 1"):
            write_trajectory_csv(tmp_path / "traj.csv", traj, closed)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_parent_kills_running_children(self, tmp_path, monkeypatch):
        traj, closed = long_loop(2)
        forks = force_parts(monkeypatch, traj, 3)
        parent = os.getpid()
        write_rows = simulate._write_rows

        def slow_child_failing_parent(fh, *args):
            if os.getpid() != parent:
                time.sleep(60)
                write_rows(fh, *args)
            raise ValueError("parent's part failed")

        monkeypatch.setattr(simulate, "_write_rows", slow_child_failing_parent)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="parent's part failed"):
            write_trajectory_csv(tmp_path / "traj.csv", traj, closed)
        assert time.monotonic() - t0 < 30
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
