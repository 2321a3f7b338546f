"""Each independent check accepts a correct output and rejects a wrong one.

Run from the repository root: ``python3 -m pytest bench/test_checks.py``.
"""

import numpy as np
import pytest

import checks
from checks import CheckFailed, Plant


def scalar(E=1.0, J=0.0, R=0.0, G=1.0, P=0.0, S=0.0, N=0.0) -> Plant:
    return Plant(*(np.array([[v]]) for v in (E, J, R, G, P, S, N)))


def oscillator(omega=2.0) -> Plant:
    """A damped state driven by the input plus an undamped oscillator that
    the input cannot reach."""
    E = np.eye(3)
    J = np.zeros((3, 3))
    J[1, 2], J[2, 1] = omega, -omega
    R = np.diag([1.0, 0.0, 0.0])
    G = np.array([[1.0], [0.0], [0.0]])
    return Plant(E, J, R, G, np.zeros((3, 1)), np.zeros((1, 1)), np.zeros((1, 1)))


def random_plant(seed=0, n=4, m=2) -> Plant:
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    E = (Q * rng.uniform(0.5, 2.0, n)) @ Q.T
    J = rng.normal(size=(n, n))
    L = rng.normal(size=(n + m, n + m))
    W = L @ L.T / (n + m)
    N = rng.normal(size=(m, m))
    return Plant((E + E.T) / 2, (J - J.T) / 2, W[:n, :n], rng.normal(size=(n, m)),
                 W[:n, n:], W[n:, n:], (N - N.T) / 2)


def implicit_euler(plant, F, x0, u, dt, steps):
    A, B, _, _ = checks.closed_loop(plant, F)
    X = [np.asarray(x0, dtype=float)]
    for _ in range(steps):
        X.append(np.linalg.solve(plant.E - dt * A, plant.E @ X[-1] + dt * B @ u))
    return np.array(X), np.tile(u, (steps + 1, 1))


def test_scalar_examples():
    assert checks.certify(scalar(), np.array([[-2.0]]), "stabilize") == pytest.approx([-2.0])
    plant = scalar(R=1.0, S=1.0)
    *_, W = checks.closed_loop(plant, np.array([[-2.0]]))
    assert np.linalg.eigvalsh(W) == pytest.approx([2 - np.sqrt(2), 2 + np.sqrt(2)], abs=1e-12)
    checks.certify(plant, np.array([[-2.0]]), "passify")


def test_zero_feedback_on_axis_modes_is_not_stabilizing():
    with pytest.raises(CheckFailed, match="left half-plane"):
        checks.certify(oscillator(), np.zeros((1, 3)), "stabilize")


def test_dissipation_definiteness():
    full = random_plant()
    m = full.S.shape[0]
    plant = Plant(full.E, full.J, full.R, full.G, np.zeros_like(full.P),
                  np.zeros((m, m)), np.zeros((m, m)))
    B = plant.G - plant.P
    checks.check_dissipation(checks.closed_loop(plant, -B.T)[3], strict=False)
    with pytest.raises(CheckFailed, match="not PSD"):
        checks.check_dissipation(checks.closed_loop(plant, 10.0 * B.T)[3], strict=False)
    with pytest.raises(CheckFailed, match="not positive definite"):
        checks.check_dissipation(np.diag([1.0, 0.0]), strict=True)


def test_index_one_spectrum_from_schur_complement():
    E = np.diag([1.0, 0.0])
    spectrum = checks.index_one_spectrum(E, np.array([[-1.0, 1.0], [1.0, -2.0]]))
    assert spectrum == pytest.approx([-0.5])
    # Z^T A Z = 0: regular, but of index two.
    assert checks.index_one_spectrum(E, np.array([[-1.0, 1.0], [1.0, 0.0]])) is None


def test_axis_witness():
    plant = oscillator(omega=2.0)
    assert checks.check_axis_witness(plant, 2j) < 1e-12
    with pytest.raises(CheckFailed, match="full rank"):
        checks.check_axis_witness(plant, 3j)
    with pytest.raises(CheckFailed, match="not on the imaginary axis"):
        checks.check_axis_witness(plant, 0.5 + 2j)


def test_refusal_needs_a_reason():
    checks.check_refusal(oscillator(), [2j, -2j])
    # E = 0 and an input through the feedthrough kernel: rank [E, A Z_E, B3] = 1.
    reachable = scalar(E=0.0, G=1.0)
    assert checks.index_condition(reachable) is True
    with pytest.raises(CheckFailed, match="without a witness"):
        checks.check_refusal(reachable, [])
    assert checks.index_condition(scalar(E=0.0, G=0.0)) is False
    checks.check_refusal(scalar(E=0.0, G=0.0), [])


def test_passifiability_condition():
    assert checks.passifiability_condition(scalar(R=1.0, S=1.0)) is True
    assert checks.passifiability_condition(scalar(R=1.0, S=0.0)) is False
    # S > 0 but R + (G-P)(G+P)/S = 1 - 1 = 0.
    assert checks.passifiability_condition(scalar(R=1.0, G=0.0, P=1.0, S=1.0)) is False


def test_euler_recurrence_and_energy():
    plant = random_plant(seed=1)
    F = np.zeros((2, 4))
    u = np.array([0.3, -0.2])
    X, U = implicit_euler(plant, F, np.ones(4), u, dt=1e-2, steps=50)
    checks.check_euler(plant, F, X, U, 1e-2)
    checks.check_energy(plant, F, X, U, 1e-2)

    bad = X.copy()
    bad[20] *= 1.0 + 1e-9
    with pytest.raises(CheckFailed, match="recurrence"):
        checks.check_euler(plant, F, bad, U, 1e-2)

    # Explicit Euler satisfies neither the recurrence nor, on a lossless
    # loop, the energy inequality.
    lossless = Plant(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 2)),
                     np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    Xe = [np.array([1.0, 0.0])]
    for _ in range(10):
        Xe.append(Xe[-1] + 0.1 * lossless.J @ Xe[-1])
    Xe, Ue = np.array(Xe), np.zeros((11, 1))
    with pytest.raises(CheckFailed, match="recurrence"):
        checks.check_euler(lossless, np.zeros((1, 2)), Xe, Ue, 0.1)
    with pytest.raises(CheckFailed, match="energy inequality"):
        checks.check_energy(lossless, np.zeros((1, 2)), Xe, Ue, 0.1)


def write_csv(path, plant, F, X, U, dt, H=None):
    _, _, C, _ = checks.closed_loop(plant, F)
    Y = X @ C.T + U @ (plant.S + plant.N).T
    H = 0.5 * np.einsum("ki,ij,kj->k", X, plant.E, X) if H is None else H
    n, m = X.shape[1], U.shape[1]
    header = (["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(m)]
              + [f"y{i + 1}" for i in range(m)] + ["H"])
    rows = np.column_stack([np.arange(len(X)) * dt, X, U, Y, H])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def test_trajectory_file(tmp_path):
    plant = random_plant(seed=2)
    F = np.zeros((2, 4))
    X, U = implicit_euler(plant, F, np.ones(4), np.array([0.1, 0.2]), dt=1e-2, steps=30)
    good = tmp_path / "good.csv"
    write_csv(good, plant, F, X, U, 1e-2)
    assert np.array_equal(checks.check_trajectory_file(plant, F, good, 1e-2, 30), X)

    bad = tmp_path / "bad.csv"
    write_csv(bad, plant, F, X, U, 1e-2, H=np.einsum("ki,ij,kj->k", X, plant.E, X))
    with pytest.raises(CheckFailed, match="H column"):
        checks.check_trajectory_file(plant, F, bad, 1e-2, 30)
    with pytest.raises(CheckFailed, match="samples"):
        checks.check_trajectory_file(plant, F, good, 1e-2, 31)
