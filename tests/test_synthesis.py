import sys as sys_module
import threading

import numpy as np
import pytest

from phdesc import pencil
from phdesc.certify import certify_closed_loop
from phdesc.errors import (
    ConditionsNotMet,
    NotPSD,
    NotSkew,
    NumericalBreakdown,
    ToleranceBreakdown,
)
from phdesc.generators import random_ph
from phdesc.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    classify_definiteness,
    numerical_rank,
    spectral_norm,
)
from phdesc.model import PHSystem, apply_feedback, dissipation_matrix
from phdesc.pencil import (
    StabilityClass,
    compress_feedthrough,
    imaginary_axis_full_rank,
    index_one_rank_condition,
    index_reduction_rank_condition,
    pencil_report,
    stabilizability_rank_condition,
    strict_passifiability_condition,
)
from phdesc.synthesis import (
    build_stabilizing_feedback,
    passifying_feedback_formula,
    synthesize_passifying,
    synthesize_stabilizing,
)
from conftest import (
    feedback_admissible,
    random_admissible_feedback,
    random_dissipative_pencil,
    skew,
)

ONE = np.array([[1.0]])
ZERO = np.array([[0.0]])


def scalar_system(E=1.0, J=0.0, R=0.0, G=0.0, P=0.0, S=0.0, N=0.0):
    return PHSystem(E=[[E]], J=[[J]], R=[[R]], G=[[G]], P=[[P]], S=[[S]], N=[[N]])


class TestCompressFeedthrough:
    def test_definite_scalar(self):
        dc = compress_feedthrough(ONE, ZERO)
        assert (dc.m1, dc.m2, dc.m3) == (1, 0, 0)
        assert np.allclose(dc.S11, [[1.0]], rtol=0, atol=1e-14)

    def test_zero_scalar(self):
        dc = compress_feedthrough(ZERO, ZERO)
        assert (dc.m1, dc.m2, dc.m3) == (0, 0, 1)

    def test_pure_skew(self):
        N = np.array([[0.0, 1.0], [-1.0, 0.0]])
        dc = compress_feedthrough(np.zeros((2, 2)), N)
        assert (dc.m1, dc.m2, dc.m3) == (0, 2, 0)
        assert np.allclose(dc.dhat, dc.U[:, :2].T @ N @ dc.U[:, :2])

    def test_rejects_bad_structure(self):
        with pytest.raises(NotPSD):
            compress_feedthrough([[-1.0]], ZERO)
        with pytest.raises(NotSkew):
            compress_feedthrough(ONE, ONE)

    def test_round_trip_and_orthogonality(self, rng):
        for seed in range(40):
            srng = np.random.default_rng(seed)
            m = int(srng.integers(1, 6))
            rank_s = int(srng.integers(0, m + 1))
            L = srng.normal(size=(m, rank_s)) if rank_s else np.zeros((m, 1))
            S = L @ L.T if rank_s else np.zeros((m, m))
            S = (S + S.T) / 2.0
            N = skew(srng.normal(size=(m, m)))
            if srng.random() < 0.3:
                N[:] = 0.0
            dc = compress_feedthrough(S, N)
            U, D = dc.U, S + N
            assert np.allclose(U.T @ U, np.eye(m), atol=1e-13)
            assert spectral_norm(U @ (U.T @ D @ U) @ U.T - D) <= 1e-12 * max(1.0, spectral_norm(D))
            k = dc.m1 + dc.m2
            block_form = dc.dhat.copy()
            block_form[k:, k:] = 0.0
            assert spectral_norm(U.T @ D @ U - block_form) <= 1e-12 * max(1.0, spectral_norm(D))
            assert numerical_rank(dc.dhat[:k, :k]) == k
            if dc.m1:
                assert classify_definiteness(dc.S11).is_definite


class TestSynthesizeStabilizing:
    def test_scalar_example(self):
        sys = scalar_system(E=1, G=1)
        F, trace = synthesize_stabilizing(sys, margin=1.0)
        assert np.allclose(F, [[-2.0]], rtol=0, atol=1e-12)
        assert trace.blocks()["mu"] == (1, 0, 0, 0)
        closed = apply_feedback(sys, F)
        assert closed.R[0, 0] == pytest.approx(2.0)
        rep = pencil_report(closed.E, closed.A)
        assert rep.finite_eigenvalues == pytest.approx([-2.0])

    def test_refuses_without_input(self):
        with pytest.raises(ConditionsNotMet) as exc:
            synthesize_stabilizing(scalar_system(E=1))
        assert exc.value.witnesses == [0j]

    def test_block_size_without_margin_refused(self):
        # Below roundoff, an eigenvalue of the compressed R on the remaining
        # rows sits within tenfold of the cutoff on both sides: mu3 is
        # refused, not guessed.  S + N is invertible (m3 = 0), so the
        # feedback does not read the compression and the refusal rises at
        # the first call of the trace's blocks().
        _, trace = synthesize_stabilizing(random_ph(5, 1, 0, rank_w=1),
                                          ToleranceConfig(rank_rtol=1e-17))
        assert trace.compression.m3 == 0
        with pytest.raises(ToleranceBreakdown, match="synthesis: mu3"):
            trace.blocks()

    def test_block_size_without_margin_refused_in_the_call_through_the_kernel(self):
        # S = N = 0 puts the input in the feedthrough kernel (m3 = 1): the
        # feedback reads the compression, so the call itself refuses.
        base = random_ph(6, 1, 2, rank_w=1)
        sys = PHSystem(E=base.E, J=base.J, R=base.R, G=base.G, P=np.zeros((6, 1)),
                       S=ZERO, N=ZERO)
        with pytest.raises(ToleranceBreakdown, match="synthesis: mu3"):
            synthesize_stabilizing(sys, ToleranceConfig(rank_rtol=1e-17))

    @pytest.mark.parametrize("positive", [[1.0], [1.0, 1e-11, 1e-11, 1e-11]],
                             ids=["alone", "sharing its singular value"])
    def test_kept_negative_eigenvalue_of_S_refused(self, positive):
        # -1e-11 lies inside the PSD band, so S is accepted, but above the
        # rank cutoff, so its direction is kept in U1: S11 would not be
        # U1^T S U1.  With positive eigenvalues of the same magnitude the
        # SVD may mix their directions, so no kept column need be flipped.
        w = np.array(positive + [-1e-11])
        m = w.size
        Q, _ = np.linalg.qr(np.random.default_rng(19).normal(size=(m, m)))
        S = Q @ np.diag(w) @ Q.T
        I, O = np.eye(m), np.zeros((m, m))
        sys = PHSystem(E=I, J=O, R=I, G=I, P=O, S=(S + S.T) / 2.0, N=O)
        assert compress_feedthrough(sys.S, sys.N).m1 == m
        with pytest.raises(NumericalBreakdown, match="lost positive definiteness"):
            synthesize_stabilizing(sys)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), 0.0, -1.0])
    def test_margin_must_be_finite_and_positive(self, margin):
        # Refused before the conditions, whether or not the feedback would
        # read the margin (here m3 = 0, so it would not).
        for entry in (synthesize_stabilizing, build_stabilizing_feedback):
            with pytest.raises(ValueError, match="margin must be finite and positive"):
                entry(scalar_system(E=1, G=1, S=1), margin=margin)

    def test_zero_input_column_still_certifies(self):
        # conditions hold through R alone; the construction returns a
        # feedback whose pencil contribution (G-P)F vanishes
        sys = scalar_system(E=1, R=1, G=0.0)
        F, _ = synthesize_stabilizing(sys)
        assert (sys.B @ F == 0).all()
        assert certify_closed_loop(sys, F, goal="stabilize").overall

    def test_margin_controls_free_block(self):
        sys = scalar_system(E=1, G=1)
        F5, _ = synthesize_stabilizing(sys, margin=5.0)
        assert np.allclose(F5, [[-10.0]], rtol=0, atol=1e-12)

    def test_trace_identities(self):
        checked = 0
        for seed in range(60):
            srng = np.random.default_rng(seed + 3000)
            n = int(srng.integers(1, 8))
            m = int(srng.integers(1, 5))
            sys = random_ph(n, m, seed + 3000)
            ok1, _ = stabilizability_rank_condition(sys)
            if not (ok1 and index_reduction_rank_condition(sys)):
                continue
            F, tr = build_stabilizing_feedback(sys)
            b = tr.blocks()
            mu1, mu2, mu3, mu4 = b["mu"]
            m1, m2 = tr.compression.m1, tr.compression.m2
            PU = sys.P @ tr.compression.U
            scale = max(1.0, spectral_norm(sys.P))
            # the transformed P loses its m2 and m3 blocks
            assert spectral_norm(PU[:, m1 : m1 + m2]) <= 1e-10 * scale
            assert spectral_norm(PU[:, m1 + m2 :]) <= 1e-10 * scale
            # trailing blocks of the compressed cross term vanish
            assert spectral_norm(b["B12"] @ b["Phat14"]) <= 1e-8 * scale
            assert spectral_norm(b["P14"]) <= 1e-8 * scale
            # the mu2/mu3 core is positive definite with full rank
            core = np.block([
                [b["R22"] + b["P12"] + b["P12"].T + 2 * np.eye(mu2), b["P13"]],
                [b["P13"].T, np.eye(mu3)],
            ])
            if core.size:
                assert classify_definiteness(core).is_definite
            assert numerical_rank(core) == mu2 + mu3
            # closed-loop dissipation rank chain
            closed = apply_feedback(sys, F)
            rank_r_cl = numerical_rank(closed.R, DEFAULT_TOL)
            rank_rbb = numerical_rank(np.hstack([sys.R, tr.B1, tr.B3]), DEFAULT_TOL)
            assert rank_r_cl == mu1 + mu2 + mu3 == rank_rbb
            # block form of the transformed closed-loop dissipation
            Zr = b["Z"] @ closed.R @ b["Z"].T
            expected = np.zeros_like(Zr)
            top = (b["R11"] - 0.5 * (b["F31"] + b["F31"].T) + b["B12"] @ b["Phat11"]
                   + b["Phat11"].T @ b["B12"].T + 2 * b["B12"] @ b["B12"].T)
            expected[:mu1, :mu1] = top
            expected[mu1:mu1 + mu2, mu1:mu1 + mu2] = (b["R22"] + b["P12"] + b["P12"].T
                                                      + 2 * np.eye(mu2))
            expected[:0, :0] = 0
            expected[mu1:mu1 + mu2, mu1 + mu2:mu1 + mu2 + mu3] = b["P13"]
            expected[mu1 + mu2:mu1 + mu2 + mu3, mu1:mu1 + mu2] = b["P13"].T
            expected[mu1 + mu2:mu1 + mu2 + mu3, mu1 + mu2:mu1 + mu2 + mu3] = np.eye(mu3)
            assert spectral_norm(Zr - expected) <= 1e-7 * max(1.0, spectral_norm(Zr))
            checked += 1
        assert checked >= 20

    def test_inputless_system(self):
        # m = 0 is a legitimate edge: empty blocks propagate end to end
        sys = PHSystem(E=np.eye(2), J=[[0.0, 1.0], [-1.0, 0.0]], R=np.eye(2),
                       G=np.zeros((2, 0)), P=np.zeros((2, 0)),
                       S=np.zeros((0, 0)), N=np.zeros((0, 0)))
        ok1, _ = stabilizability_rank_condition(sys)
        assert ok1 and index_reduction_rank_condition(sys)
        F, tr = synthesize_stabilizing(sys)
        assert F.shape == (0, 2)
        assert certify_closed_loop(sys, F, goal="stabilize").overall
        assert not strict_passifiability_condition(sys)

    def test_empty_definite_block_path(self):
        # S = 0 forces m1 = 0: every formula degrades to empty blocks
        for seed in range(10):
            base = random_ph(4, 2, seed)
            sys = PHSystem(E=base.E, J=base.J, R=base.R, G=base.G,
                           P=np.zeros((4, 2)), S=np.zeros((2, 2)), N=base.N)
            ok1, _ = stabilizability_rank_condition(sys)
            if not (ok1 and index_reduction_rank_condition(sys)):
                continue
            F, tr = synthesize_stabilizing(sys)
            assert tr.compression.m1 == 0 and tr.F1.shape[0] == 0
            assert certify_closed_loop(sys, F, goal="stabilize").overall


def _lazy_grid():
    """Seeded systems with S + N invertible (m3 = 0) and, with P = S = 0,
    singular (m3 > 0)."""
    for seed in range(12):
        n, m = 4 + seed % 4, 1 + seed % 3
        base = random_ph(n, m, seed, rank_w=seed % 2 + 1)
        yield base
        yield PHSystem(E=base.E, J=base.J, R=base.R, G=base.G, P=np.zeros((n, m)),
                       S=np.zeros((m, m)), N=base.N)


class TestLazyCompression:
    def test_feedback_and_blocks_equal_an_eager_build(self, monkeypatch, cold_analysis):
        kernels = set()
        for sys in _lazy_grid():
            ok1, _ = stabilizability_rank_condition(sys)
            if not (ok1 and index_reduction_rank_condition(sys)):
                continue
            F, tr = synthesize_stabilizing(sys)
            dc = tr.compression
            # The construction with the compression built up front, past the
            # trace's cache: F reads its F3 rows, which are empty when m3 = 0.
            eager = tr.blocks.__wrapped__()
            stacked = np.vstack([tr.F1, np.zeros((dc.m2, sys.n)), eager["F3"]])
            assert np.array_equal(F, dc.U @ np.linalg.solve(dc.dhat, stacked))
            blocks = tr.blocks()
            assert blocks.keys() == eager.keys()
            for name, block in eager.items():
                assert np.array_equal(blocks[name], block), name
            # A cold call whose trace is read at once gives the same bits.
            monkeypatch.setattr(pencil, "_ANALYSIS", None)
            F_read, tr_read = synthesize_stabilizing(sys)
            assert tr_read.blocks()["mu"] == blocks["mu"]
            assert np.array_equal(F_read, F)
            kernels.add(dc.m3 > 0)
        assert kernels == {False, True}

    def test_large_synthesis_takes_no_svd_and_no_eigh(self, svd_calls, eigh_calls):
        sys = random_ph(300, 30, 0)
        assert stabilizability_rank_condition(sys)[0] and index_reduction_rank_condition(sys)
        svd_calls.clear()
        eigh_calls.clear()
        _, trace = synthesize_stabilizing(sys)
        assert trace.compression.m3 == 0 < trace.compression.m1
        assert svd_calls == []
        assert eigh_calls == []

    @pytest.mark.parametrize("sys, kernel", [
        (random_ph(6, 2, 1), False),
        (PHSystem(E=np.eye(3), J=np.zeros((3, 3)), R=np.diag([0.0, 0.0, 1.0]),
                  G=np.eye(3)[:, :2], P=np.zeros((3, 2)), S=np.zeros((2, 2)),
                  N=np.zeros((2, 2))), True)], ids=["m3=0", "m3>0"])
    def test_blocks_are_built_once(self, svd_calls, sys, kernel):
        # When m3 > 0 the call itself built the blocks for F3, so reading
        # them afterwards decomposes nothing; every call returns the same
        # arrays.
        _, trace = synthesize_stabilizing(sys)
        assert (trace.compression.m3 > 0) == kernel
        svd_calls.clear()
        first = trace.blocks()
        assert (svd_calls == []) == kernel
        svd_calls.clear()
        second = trace.blocks()
        assert svd_calls == []
        assert all(second[name] is block for name, block in first.items())

    def test_concurrent_first_reads(self):
        # No lock: overlapping first calls may each build the blocks, with
        # the same bits.
        _, trace = synthesize_stabilizing(random_ph(60, 6, 0, rank_w=1))
        eager = trace.blocks.__wrapped__()
        start, seen = threading.Barrier(8), []

        def read():
            start.wait(timeout=10)
            seen.append(trace.blocks())

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
        assert all(blocks.keys() == eager.keys() for blocks in seen)
        assert all(np.array_equal(blocks[name], block)
                   for blocks in seen for name, block in eager.items())


FAMILIES = {
    "plain": {},
    "s-definite": {"s_definite": True},
    "axis-mode": {"force_axis_modes": True},
    "singular": {"force_singular": True},
}


def _family_system(family, seed):
    srng = np.random.default_rng(seed)
    n, m = int(srng.integers(4, 9)), int(srng.integers(1, 3))
    knobs = dict(FAMILIES[family])
    if seed % 2:
        # low-rank E and W, so that the index-reduction condition fails too
        axis = 2 if knobs.get("force_axis_modes") else 0
        core = n - axis - (1 if knobs.get("force_singular") else 0)
        knobs["rank_e"] = axis + int(srng.integers(0, core // 2 + 1))
        knobs["rank_w"] = int(srng.integers(0, 2))
    return random_ph(n, m, seed, **knobs)


def _synthesis_agrees_with_conditions(sys):
    """Refusal exactly when a public condition fails, carrying its witnesses."""
    ok_axis, witnesses = stabilizability_rank_condition(sys)
    ok_index = index_reduction_rank_condition(sys)
    if ok_axis and ok_index:
        F, _ = synthesize_stabilizing(sys)
        assert F.shape == (sys.m, sys.n)
    else:
        with pytest.raises(ConditionsNotMet) as exc:
            synthesize_stabilizing(sys)
        assert exc.value.witnesses == witnesses
        assert ("stabilizability" in str(exc.value)) == (not ok_axis)
        assert ("index-reduction" in str(exc.value)) == (not ok_index)
    return ok_axis, ok_index


class TestSynthesisAgreesWithConditions:
    def test_generator_families(self):
        outcomes = set()
        for family in FAMILIES:
            for seed in range(16):
                outcomes.add(_synthesis_agrees_with_conditions(_family_system(family, seed)))
        assert outcomes == {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_narrow_axis_mode(self, seed):
        _synthesis_agrees_with_conditions(random_ph(60, 1, seed, force_axis_modes=True))


class TestSynthesizePassifying:
    def test_scalar_example(self):
        sys = scalar_system(E=1, R=1, G=1, S=1)
        F = synthesize_passifying(sys)
        assert np.allclose(F, [[-2.0]], rtol=0, atol=1e-12)
        W = dissipation_matrix(apply_feedback(sys, F))
        assert np.allclose(W, [[3.0, -1.0], [-1.0, 1.0]])
        eigs = np.linalg.eigvalsh(W)
        assert np.allclose(eigs, [2 - np.sqrt(2), 2 + np.sqrt(2)], rtol=0, atol=1e-12)

    def test_refuses_singular_s(self):
        with pytest.raises(ConditionsNotMet, match="S not positive definite"):
            synthesize_passifying(scalar_system(E=1, R=1, G=1, S=0))

    def test_collapses_to_zero_feedback(self):
        sys = scalar_system(E=1, R=1, S=1)
        F = synthesize_passifying(sys)
        assert np.allclose(F, [[0.0]], rtol=0, atol=1e-14)
        W = dissipation_matrix(apply_feedback(sys, F))
        assert np.allclose(W, np.eye(2))

    def test_iff_on_definite_feedthrough(self, rng):
        true_n = false_n = 0
        for seed in range(150):
            srng = np.random.default_rng(seed)
            n = int(srng.integers(1, 6))
            m = int(srng.integers(1, 4))
            sys = random_ph(n, m, seed, s_definite=True,
                            rank_w=int(srng.integers(0, 3)))
            holds = strict_passifiability_condition(sys)
            F = passifying_feedback_formula(sys)
            W = dissipation_matrix(apply_feedback(sys, F))
            lmin = float(np.linalg.eigvalsh(W)[0])
            wscale = max(1.0, spectral_norm(W))
            if holds:
                true_n += 1
                assert lmin > 0
            else:
                false_n += 1
                assert lmin <= 1e-10 * wscale
                for _ in range(25):
                    Fr = rng.normal(size=(m, n)) * 10 ** rng.uniform(-1, 1)
                    Wr = dissipation_matrix(apply_feedback(sys, Fr))
                    assert np.linalg.eigvalsh(Wr)[0] <= 1e-10 * max(1.0, spectral_norm(Wr))
        assert true_n >= 30 and false_n >= 30


class TestFeedbackAdmissible:
    def test_scalar_examples(self):
        assert feedback_admissible(ZERO, ONE, [[-2.0]])
        assert feedback_admissible(ONE, ZERO, ZERO)

    def test_rank_growth_not_allowed_with_zero_feedback(self):
        R = np.diag([1.0, 0.0])
        B = np.array([[0.0], [1.0]])
        assert not feedback_admissible(R, B, np.zeros((1, 2)))
        # but the canonical admissible feedback through B does reach it
        assert feedback_admissible(R, B, -B.T)

    def test_random_family_is_admissible(self, rng):
        for seed in range(40):
            srng = np.random.default_rng(seed)
            n = int(srng.integers(1, 7))
            k = int(srng.integers(0, 4))
            _, _, R, B = random_dissipative_pencil(srng, n, k)
            F = random_admissible_feedback(srng, R, B)
            assert feedback_admissible(R, B, F), seed


class TestDissipativeFeedbackGuarantees:
    """Dissipation-preserving feedback and the two rank hypotheses."""

    def test_axis_rank_implies_stability(self):
        done = 0
        for seed in range(200):
            srng = np.random.default_rng(seed + 500)
            n = int(srng.integers(1, 7))
            k = int(srng.integers(1, 4))
            E, J, R, B = random_dissipative_pencil(srng, n, k)
            ok, _ = imaginary_axis_full_rank(E, J - R, B)
            if not ok:
                continue
            F = random_admissible_feedback(srng, R, B)
            assert feedback_admissible(R, B, F)
            rep = pencil_report(E, J - R + B @ F)
            assert rep.stability_class is StabilityClass.ASYMPTOTICALLY_STABLE, seed
            done += 1
        assert done >= 100

    def test_index_rank_implies_index_one(self):
        done = 0
        for seed in range(200):
            srng = np.random.default_rng(seed + 700)
            n = int(srng.integers(1, 7))
            k = int(srng.integers(1, 4))
            E, J, R, B = random_dissipative_pencil(srng, n, k)
            if not index_one_rank_condition(E, J - R, B):
                continue
            F = random_admissible_feedback(srng, R, B)
            assert feedback_admissible(R, B, F)
            rep = pencil_report(E, J - R + B @ F)
            assert rep.regular and rep.index <= 1, seed
            done += 1
        assert done >= 100
