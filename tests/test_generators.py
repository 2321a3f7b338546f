import numpy as np
import pytest

from phdesc.errors import InfeasibleKnobs
from phdesc.generators import random_ph
from phdesc.linalg import classify_definiteness, numerical_rank
from phdesc.model import validate
from phdesc.pencil import stabilizability_rank_condition
from conftest import brute_force_rank_on_axis, singular_common_nullspace


class TestRandomPH:
    def test_deterministic(self):
        a = random_ph(6, 3, 42, force_axis_modes=True, s_definite=True)
        b = random_ph(6, 3, 42, force_axis_modes=True, s_definite=True)
        for name in "EJRGPSN":
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_always_valid(self):
        for seed in range(80):
            srng = np.random.default_rng(seed)
            n = int(srng.integers(1, 9))
            m = int(srng.integers(1, 5))
            assert validate(random_ph(n, m, seed)).passed

    def test_rank_e_knob(self):
        for target in range(0, 5):
            sys = random_ph(4, 2, 7, rank_e=target)
            assert numerical_rank(sys.E) == target

    def test_rank_w_knob(self):
        from phdesc.model import dissipation_matrix
        for target in (0, 2, 5):
            sys = random_ph(3, 2, 9, rank_w=target)
            assert numerical_rank(dissipation_matrix(sys)) == target

    def test_force_singular(self):
        hits = sum(
            singular_common_nullspace(random_ph(4, 2, seed, force_singular=True))
            for seed in range(100)
        )
        assert hits == 100

    def test_force_axis_modes(self):
        hits = 0
        for seed in range(100):
            sys = random_ph(5, 2, seed, force_axis_modes=True)
            ok, _ = stabilizability_rank_condition(sys)
            hits += not ok
        assert hits >= 99

    def test_s_definite(self):
        for seed in range(50):
            sys = random_ph(3, 2, seed, s_definite=True)
            assert classify_definiteness(sys.S).is_definite

    def test_infeasible_knobs(self):
        with pytest.raises(InfeasibleKnobs):
            random_ph(1, 1, 0, force_axis_modes=True)
        with pytest.raises(InfeasibleKnobs):
            random_ph(3, 1, 0, rank_e=3, force_singular=True)
        with pytest.raises(InfeasibleKnobs):
            random_ph(2, 1, 0, rank_w=5)
        with pytest.raises(InfeasibleKnobs):
            random_ph(2, 1, 0, rank_e=-1)


class TestBruteForceOracle:
    def test_controllable_integrator(self):
        assert brute_force_rank_on_axis([[1.0]], [[0.0]], [[1.0]], [-1.0, 0.0, 1.0])

    def test_integrator_fails_at_zero(self):
        assert not brute_force_rank_on_axis([[1.0]], [[0.0]], np.zeros((1, 0)),
                                            [-1.0, 0.0, 1.0])

    def test_damped(self):
        assert brute_force_rank_on_axis([[1.0]], [[-1.0]], np.zeros((1, 0)),
                                        [-1.0, 0.0, 1.0])
