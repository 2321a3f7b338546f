import json

import numpy as np
import pytest

from phdesc import pencil
from phdesc.certify import certify_closed_loop
from phdesc.fileio import feedback_from_dict, feedback_to_dict
from phdesc.generators import random_ph
from phdesc.model import PHSystem, apply_feedback, validate
from phdesc.pencil import (
    StabilityClass,
    index_reduction_rank_condition,
    pencil_report,
    stabilizability_rank_condition,
    strict_passifiability_condition,
)
from phdesc.synthesis import synthesize_passifying, synthesize_stabilizing


def scalar_system(E=1.0, J=0.0, R=0.0, G=0.0, P=0.0, S=0.0, N=0.0):
    return PHSystem(E=[[E]], J=[[J]], R=[[R]], G=[[G]], P=[[P]], S=[[S]], N=[[N]])


class TestCertifyClosedLoop:
    def test_scalar_passify_example(self):
        sys = scalar_system(E=1, R=1, G=1, S=1)
        rep = certify_closed_loop(sys, [[-2.0]], goal="passify")
        assert rep.overall and rep.w.is_definite
        assert rep.w.min_eigenvalue == pytest.approx(2 - np.sqrt(2), abs=1e-12)
        assert rep.pencil.regular and rep.pencil.index == 0
        assert rep.pencil.stability_class is StabilityClass.ASYMPTOTICALLY_STABLE

    def test_scalar_stabilize_example(self):
        sys = scalar_system(E=1, G=1)
        rep = certify_closed_loop(sys, [[-2.0]], goal="stabilize")
        assert rep.overall and rep.w.is_semidefinite
        assert rep.pencil.regular and rep.pencil.index == 0
        assert rep.pencil.finite_eigenvalues == pytest.approx([-2.0])
        assert rep.pencil.stability_class is StabilityClass.ASYMPTOTICALLY_STABLE

    def test_axis_eigenvalue_rejected(self):
        sys = scalar_system(E=1, G=1)
        rep = certify_closed_loop(sys, [[0.0]], goal="stabilize")
        assert rep.pencil.stability_class is not StabilityClass.ASYMPTOTICALLY_STABLE
        assert not rep.overall
        assert rep.w.is_semidefinite  # zero feedback keeps the structure

    def test_inadmissible_feedback_breaks_structure(self):
        sys = scalar_system(E=1, G=1)
        rep = certify_closed_loop(sys, [[2.0]], goal="stabilize")
        assert not rep.w.is_semidefinite and not rep.overall

    def test_tolerance_is_the_decision_band(self):
        # classify_definiteness decides within psd_tol * |lambda|max,
        # so -5e-9 passes next to R's 100 and both checks name that band.
        sys = PHSystem(E=np.eye(2), J=np.zeros((2, 2)), R=np.diag([100.0, -5e-9]),
                       G=np.zeros((2, 1)), P=np.zeros((2, 1)), S=[[0.0]], N=[[0.0]])
        checks = certify_closed_loop(sys, np.zeros((1, 2))).to_dict()["checks"]
        band = validate(sys).w_psd.tolerance
        assert band == pytest.approx(1e-8)
        assert checks["ph_structure"] == {"passed": True, "lambda_min_w": -5e-9,
                                          "tolerance": band}
        assert checks["strictly_passive"]["tolerance"] == band

    def test_invalid_goal(self):
        with pytest.raises(ValueError):
            certify_closed_loop(scalar_system(), [[0.0]], goal="optimize")

    def test_serialization_independent(self):
        for seed in range(15):
            sys = random_ph(5, 2, seed)
            try:
                F, _ = synthesize_stabilizing(sys)
            except Exception:
                continue
            direct = certify_closed_loop(sys, F, goal="stabilize").to_dict()
            rebuilt = feedback_from_dict(feedback_to_dict(F))
            again = certify_closed_loop(sys, rebuilt, goal="stabilize").to_dict()
            assert direct == again

    def test_report_dict_shape(self):
        sys = scalar_system(E=1, G=1)
        doc = certify_closed_loop(sys, [[-2.0]]).to_dict()
        assert doc["kind"] == "certification"
        assert set(doc["checks"]) == {"ph_structure", "regular", "index_at_most_one",
                                      "asymptotically_stable", "strictly_passive"}
        for check in doc["checks"].values():
            assert "passed" in check


class TestSpectrumOnDemand:
    """The passify verdict reads W and the index but no spectrum, and so
    does the stabilize verdict when the dissipation bound decides; the report
    still lists all five checks and the closed loop's spectrum."""

    @pytest.mark.parametrize("rank_e", [None, 9])
    def test_passify_verdict_takes_no_eigvals(self, monkeypatch, cold_report, eigvals_calls,
                                              rank_e):
        sys = random_ph(12, 2, 0, rank_e=rank_e)
        F = synthesize_passifying(sys)
        eigvals_calls.clear()
        cert = certify_closed_loop(sys, F, "passify")
        assert cert.overall and eigvals_calls == []
        lazy = json.dumps(cert.to_dict())
        assert len(eigvals_calls) == 1
        assert list(json.loads(lazy)["checks"]) == [
            "ph_structure", "regular", "index_at_most_one", "asymptotically_stable",
            "strictly_passive"]
        # The same certification with the closed loop's spectrum read first.
        monkeypatch.setattr(pencil, "_REPORT", None)
        closed = apply_feedback(sys, F)
        pencil_report(closed.E, closed.A).finite_eigenvalues
        eager = certify_closed_loop(sys, F, "passify")
        assert eager.pencil is not cert.pencil
        assert json.dumps(eager.to_dict()) == lazy

    def test_stabilize_verdict_reads_the_spectrum_only_without_the_bound(
            self, monkeypatch, cold_report, eigvals_calls):
        # R~ > 0 and E PSD: the dissipation bound keeps the synthesized
        # loop's spectrum far inside the left half plane.
        sys = random_ph(12, 2, 0)
        F, _ = synthesize_stabilizing(sys)
        monkeypatch.setattr(pencil, "_REPORT", None)
        eigvals_calls.clear()
        cert = certify_closed_loop(sys, F, "stabilize")
        assert cert.overall and cert.stable_by_bound and eigvals_calls == []
        assert cert.to_dict()["checks"]["asymptotically_stable"]["passed"]
        # An oscillator damped through R = diag(1, 0) is stable, but R is
        # singular, so the bound decides nothing and the class is read.
        damped = PHSystem(E=np.eye(2), J=[[0.0, 1.0], [-1.0, 0.0]], R=np.diag([1.0, 0.0]),
                          G=np.zeros((2, 1)), P=np.zeros((2, 1)), S=[[0.0]], N=[[0.0]])
        eigvals_calls.clear()
        cert = certify_closed_loop(damped, np.zeros((1, 2)), "stabilize")
        assert cert.overall and not cert.stable_by_bound and len(eigvals_calls) == 1


class TestMarginOnRead:
    """W's verdict is proved by one Cholesky factorization; its margin, an
    eigvalsh, is taken when first read."""

    def test_passify_certification_takes_eigvalsh_only_for_the_margin(
            self, eigvalsh_calls, cholesky_calls):
        sys = random_ph(60, 6, 0)
        F = synthesize_passifying(sys)
        eigvalsh_calls.clear()
        cholesky_calls.clear()
        cert = certify_closed_loop(sys, F, goal="passify")
        assert cert.overall
        assert eigvalsh_calls == []
        assert [a.shape for a in cholesky_calls] == [(66, 66)]
        checks = cert.to_dict()["checks"]
        assert [a.shape for a in eigvalsh_calls] == [(66, 66)]
        assert len(cholesky_calls) == 1
        lam = float(np.linalg.eigvalsh(eigvalsh_calls[0])[0])
        assert checks["strictly_passive"]["lambda_min_w"] == lam > 0

    def test_validate_takes_eigvalsh_only_for_the_margin(self, eigvalsh_calls):
        sys = random_ph(60, 6, 0)
        rep = validate(sys)
        assert rep.passed and eigvalsh_calls == []
        assert rep.to_dict()["checks"]["w_psd"]["margin"] == rep.w_psd.margin
        assert [a.shape for a in eigvalsh_calls] == [(66, 66)]


class TestSharedSvdOfE:
    """Feedback keeps E, so a chain decomposes it once, and the conditions
    and the synthesis read the analysis's open-loop report; the certifier
    still reaches every verdict from scratch."""

    def test_chain_takes_no_second_full_svd_of_e(self, svd_calls):
        sys = random_ph(12, 2, 1)
        pencil_report(sys.E, sys.A)
        svd_calls.clear()
        F, _ = synthesize_stabilizing(sys)
        assert certify_closed_loop(sys, F, goal="stabilize").overall
        assert not any(full and np.array_equal(a, sys.E) for a, full in svd_calls)

    def test_chain_takes_one_eigh_of_e(self, monkeypatch, cold_e_svd, cold_report,
                                       cold_analysis, svd_calls, eigh_calls):
        # validate, the report, the three conditions, the synthesis and a
        # certification that the dissipation bound decides all read the
        # one eigendecomposition of the symmetric E.
        eigvalsh_calls, eigvalsh = [], np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            eigvalsh_calls.append(np.array(a, copy=True))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        sys = random_ph(12, 2, 0)
        assert validate(sys).passed
        assert pencil_report(sys.E, sys.A).regular
        assert stabilizability_rank_condition(sys)[0] and index_reduction_rank_condition(sys)
        strict_passifiability_condition(sys)
        F, _ = synthesize_stabilizing(sys)
        cert = certify_closed_loop(sys, F, goal="stabilize")
        assert cert.overall and cert.stable_by_bound
        of_e = lambda calls: sum(np.array_equal(a, sys.E) for a in calls)  # noqa: E731
        assert of_e(eigh_calls) == 1
        assert of_e(a for a, _ in svd_calls) == 0 and of_e(eigvalsh_calls) == 0

    @pytest.mark.parametrize("rank_e", [None, 50])
    def test_certification_takes_only_the_k_block_svd(self, svd_calls, rank_e):
        # E's SVD is remembered from the analysis, and the closed loop leaves
        # the staircase after step 1: its one SVD is of the k x k block A22
        # on ker E, none when E is nonsingular.
        sys = random_ph(60, 6, 0, rank_e=rank_e)
        k = sys.n - pencil_report(sys.E, sys.A).rank_E
        F, _ = synthesize_stabilizing(sys)
        svd_calls.clear()
        assert certify_closed_loop(sys, F, goal="stabilize").overall
        assert [a.shape for a, _ in svd_calls] == [(k, k)] * (k > 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cold_and_warm_memo_agree_bitwise(self, monkeypatch, seed):
        sys = random_ph(12, 2, seed, s_definite=True)

        def chain(before_each):
            before_each()
            F, _ = synthesize_stabilizing(sys)
            before_each()
            Fp = synthesize_passifying(sys)
            before_each()
            cs = certify_closed_loop(sys, F, goal="stabilize")
            before_each()
            return F, Fp, cs, certify_closed_loop(sys, Fp, goal="passify")

        def forget():
            monkeypatch.setattr(pencil, "_E_SVD", None)
            monkeypatch.setattr(pencil, "_REPORT", None)

        # Cold: every stage decomposes E and reports the open loop afresh.
        # Warm: none does.
        cold = chain(forget)
        pencil_report(sys.E, sys.A)
        warm = chain(lambda: None)
        for x, y in zip(cold[:2], warm[:2]):
            assert np.array_equal(x, y)
        for x, y in zip(cold[2:], warm[2:]):
            assert x.to_dict() == y.to_dict()
            assert np.array_equal(x.pencil.finite_eigenvalues, y.pencil.finite_eigenvalues)

    def test_closed_loop_takes_its_own_report(self, cold_report):
        sys = random_ph(12, 2, 1)
        open_loop = pencil_report(sys.E, sys.A)
        F, _ = synthesize_stabilizing(sys)
        assert pencil_report(sys.E, sys.A) is open_loop
        cert = certify_closed_loop(sys, F, goal="stabilize")
        assert np.any(sys.B @ F != 0.0)
        assert cert.pencil is not open_loop
        assert not np.array_equal(cert.pencil.finite_eigenvalues, open_loop.finite_eigenvalues)
        # B F == 0 leaves A with the same bits, and so the same report.
        open_loop = pencil_report(sys.E, sys.A)
        zero = certify_closed_loop(sys, np.zeros((sys.m, sys.n)), goal="stabilize")
        assert zero.pencil is open_loop
