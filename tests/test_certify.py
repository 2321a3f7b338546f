import numpy as np
import pytest

from phdesc import linalg, pencil
from phdesc.certify import certify_closed_loop
from phdesc.fileio import feedback_from_dict, feedback_to_dict
from phdesc.generators import random_ph
from phdesc.model import PHSystem
from phdesc.pencil import pencil_report
from phdesc.synthesis import synthesize_passifying, synthesize_stabilizing


def scalar_system(E=1.0, J=0.0, R=0.0, G=0.0, P=0.0, S=0.0, N=0.0):
    return PHSystem(E=[[E]], J=[[J]], R=[[R]], G=[[G]], P=[[P]], S=[[S]], N=[[N]])


class TestCertifyClosedLoop:
    def test_scalar_passify_example(self):
        sys = scalar_system(E=1, R=1, G=1, S=1)
        rep = certify_closed_loop(sys, [[-2.0]], goal="passify")
        assert rep.overall and rep.strictly_passive
        assert rep.lambda_min_w == pytest.approx(2 - np.sqrt(2), abs=1e-12)
        assert rep.regular and rep.index == 0
        assert rep.asymptotically_stable

    def test_scalar_stabilize_example(self):
        sys = scalar_system(E=1, G=1)
        rep = certify_closed_loop(sys, [[-2.0]], goal="stabilize")
        assert rep.overall and rep.ph_structure
        assert rep.regular and rep.index == 0
        assert rep.spectrum == pytest.approx([-2.0])
        assert rep.asymptotically_stable

    def test_axis_eigenvalue_rejected(self):
        sys = scalar_system(E=1, G=1)
        rep = certify_closed_loop(sys, [[0.0]], goal="stabilize")
        assert not rep.asymptotically_stable
        assert not rep.overall
        assert rep.ph_structure  # zero feedback keeps the structure

    def test_inadmissible_feedback_breaks_structure(self):
        sys = scalar_system(E=1, G=1)
        rep = certify_closed_loop(sys, [[2.0]], goal="stabilize")
        assert not rep.ph_structure and not rep.overall

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
            assert np.array_equal(x.spectrum, y.spectrum)

    def test_closed_loop_takes_its_own_report(self, cold_report):
        sys = random_ph(12, 2, 1)
        open_loop = pencil_report(sys.E, sys.A)
        F, _ = synthesize_stabilizing(sys)
        assert pencil_report(sys.E, sys.A) is open_loop
        cert = certify_closed_loop(sys, F, goal="stabilize")
        assert np.any(sys.B @ F != 0.0)
        assert cert.pencil is not open_loop
        assert not np.array_equal(cert.spectrum, open_loop.finite_eigenvalues)
        # B F == 0 leaves A with the same bits, and so the same report.
        open_loop = pencil_report(sys.E, sys.A)
        zero = certify_closed_loop(sys, np.zeros((sys.m, sys.n)), goal="stabilize")
        assert zero.pencil is open_loop
