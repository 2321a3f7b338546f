import numpy as np
import pytest

from phdesc import linalg, pencil
from phdesc.certify import certify_closed_loop
from phdesc.fileio import feedback_from_dict, feedback_to_dict
from phdesc.generators import random_ph
from phdesc.model import PHSystem, validate
from phdesc.pencil import StabilityClass, pencil_report
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
        # classify_definiteness decides within psd_tol * max(1, |lambda|max),
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
            monkeypatch.setattr(linalg, "_E_SVD", None)
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
