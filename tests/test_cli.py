import dataclasses
import json

import numpy as np
import pytest

from phdesc import cli, pencil
from phdesc.cli import main
from phdesc.fileio import load_feedback, load_system, save_system
from phdesc.generators import random_ph
from phdesc.linalg import DEFAULT_TOL
from phdesc.model import PHSystem


def scalar_system(E=1.0, J=0.0, R=0.0, G=0.0, P=0.0, S=0.0, N=0.0):
    return PHSystem(E=[[E]], J=[[J]], R=[[R]], G=[[G]], P=[[P]], S=[[S]], N=[[N]])


def run(*argv):
    return main([str(a) for a in argv])


class TestGenValidateAnalyze:
    def test_gen_validate_roundtrip(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        assert run("gen", "--n", 4, "--m", 2, "--seed", 3, "--output", sys_path) == 0
        assert run("validate", "--input", sys_path) == 0
        loaded = load_system(sys_path)
        assert loaded.n == 4 and loaded.m == 2

    def test_gen_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "--n", 3, "--m", 2, "--seed", 11, "--output", p1)
        run("gen", "--n", 3, "--m", 2, "--seed", 11, "--output", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_analyze_deterministic_report_bytes(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        run("gen", "--n", 4, "--m", 2, "--seed", 5, "--output", sys_path)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run("analyze", "--input", sys_path, "--report", r1) == 0
        assert run("analyze", "--input", sys_path, "--report", r2) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_analyze_compresses_the_feedthrough_once(self, monkeypatch, tmp_path, cold_analysis):
        # The three conditions read one analysis, and so one split of S + N.
        calls = []
        compress = pencil.compress_feedthrough

        def counting(*args, **kwargs):
            calls.append(args)
            return compress(*args, **kwargs)

        monkeypatch.setattr(pencil, "compress_feedthrough", counting)
        sys_path = tmp_path / "sys.json"
        run("gen", "--n", 6, "--m", 2, "--seed", 5, "--output", sys_path)
        assert run("analyze", "--input", sys_path, "--report", tmp_path / "r.json") == 0
        assert len(calls) == 1

    def test_validate_fails_on_invalid_structure(self, tmp_path):
        sys_path = tmp_path / "bad.json"
        save_system(sys_path, scalar_system(E=0.0, R=-1.0))
        assert run("validate", "--input", sys_path) == 1

    def test_analyze_singular_system_exits_zero(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        report = tmp_path / "report.json"
        run("gen", "--n", 4, "--m", 2, "--seed", 1, "--force-singular",
            "--output", sys_path)
        assert run("analyze", "--input", sys_path, "--report", report) == 0
        doc = json.loads(report.read_text())
        assert doc["singular_common_nullspace"] is True
        assert doc["pencil"]["stability_class"] == "singular"
        sys_ = load_system(sys_path)
        basis = np.array(doc["common_nullspace_basis"])
        assert basis.shape == (4, 1)
        assert np.allclose(basis.T @ basis, np.eye(1), atol=1e-12)
        for M in (sys_.E, sys_.J, sys_.R):
            assert np.linalg.norm(M @ basis) < 1e-12

    def test_analyze_refuses_indefinite_feedthrough(self, tmp_path):
        # not port-Hamiltonian: the existence conditions raise NotPSD
        sys_path = tmp_path / "sys.json"
        save_system(sys_path, scalar_system(E=1, G=1, S=-1))
        assert run("analyze", "--input", sys_path) == 2

    def test_analyze_tol_is_the_rank_cutoff(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        report = tmp_path / "report.json"
        save_system(sys_path, PHSystem(E=np.diag([1.0, 1e-13]), J=np.zeros((2, 2)),
                                       R=np.eye(2), G=np.zeros((2, 0)), P=np.zeros((2, 0)),
                                       S=np.zeros((0, 0)), N=np.zeros((0, 0))))
        assert run("analyze", "--input", sys_path, "--tol", 1e-14, "--report", report) == 0
        doc = json.loads(report.read_text())
        assert doc["tolerances"]["rank_rtol"] == 1e-14
        assert doc["pencil"]["index"] == 0
        assert doc["pencil"]["rank_E"] == 2
        assert len(doc["pencil"]["finite_eigenvalues"]) == 2

    def test_malformed_input_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("validate", "--input", bad) == 2
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"n": 1, "m": 1}))
        assert run("validate", "--input", missing) == 2
        assert run("validate", "--input", tmp_path / "nope.json") == 2

    @pytest.mark.parametrize("m, command", [(1, "validate"), (0, "validate"), (0, "stabilize")])
    def test_report_of_an_empty_state_is_strict_json(self, tmp_path, m, command):
        # With n = 0, E (and at m = 0 also W) is empty: it has no eigenvalue,
        # so its margin and band are written as null, not as Infinity.
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        sys_path, report = tmp_path / "sys.json", tmp_path / "report.json"
        sys_path.write_text(json.dumps({"n": 0, "m": m, "E": [], "J": [], "R": [], "G": [],
                                        "P": [], "D": [[1.0]] if m else []}))
        assert run(command, "--input", sys_path, "--report", report) == 0
        doc = json.loads(report.read_text(), parse_constant=refuse)
        if command == "validate":
            check = doc["checks"]["e_psd"]
            assert check["passed"] and check["margin"] is check["tolerance"] is None
        else:
            check = doc["certification"]["checks"]["ph_structure"]
            assert check["passed"] and check["lambda_min_w"] is check["tolerance"] is None


class TestSynthesisCommands:
    def test_stabilize_scalar_example(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        save_system(sys_path, scalar_system(E=1, G=1))
        f_path = tmp_path / "F.json"
        report = tmp_path / "report.json"
        assert run("stabilize", "--input", sys_path, "--output", f_path,
                   "--report", report) == 0
        F = load_feedback(f_path)
        assert np.allclose(F, [[-2.0]], rtol=0, atol=1e-12)
        doc = json.loads(report.read_text())
        cert = doc["certification"]
        assert cert["overall"] is True
        for name in ("ph_structure", "regular", "index_at_most_one",
                     "asymptotically_stable"):
            assert cert["checks"][name]["passed"] is True

    def test_passify_scalar_example(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        save_system(sys_path, scalar_system(E=1, R=1, G=1, S=1))
        f_path = tmp_path / "F.json"
        report = tmp_path / "report.json"
        assert run("passify", "--input", sys_path, "--output", f_path,
                   "--report", report) == 0
        assert np.allclose(load_feedback(f_path), [[-2.0]], rtol=0, atol=1e-12)
        doc = json.loads(report.read_text())
        lam = doc["certification"]["checks"]["strictly_passive"]["lambda_min_w"]
        assert lam == pytest.approx(2 - np.sqrt(2), abs=1e-12)

    def test_passify_refuses_singular_s(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        save_system(sys_path, scalar_system(E=1, R=1, G=1, S=0))
        report = tmp_path / "report.json"
        assert run("passify", "--input", sys_path, "--report", report) == 1
        doc = json.loads(report.read_text())
        assert doc["conditions_met"] is False
        assert "S not positive definite" in doc["reason"]

    def test_stabilize_refusal_reports_witness(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        save_system(sys_path, scalar_system(E=1))
        report = tmp_path / "report.json"
        assert run("stabilize", "--input", sys_path, "--report", report) == 1
        doc = json.loads(report.read_text())
        assert doc["conditions_met"] is False
        assert [0.0, 0.0] in doc["witnesses"]


class TestCertifySimulate:
    def test_certify_provided_feedback(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        f_path = tmp_path / "F.json"
        save_system(sys_path, scalar_system(E=1, G=1))
        f_path.write_text(json.dumps({"m": 1, "n": 1, "F": [[-2.0]]}))
        assert run("certify", "--input", sys_path, "--feedback", f_path) == 0
        f_path.write_text(json.dumps({"m": 1, "n": 1, "F": [[0.0]]}))
        assert run("certify", "--input", sys_path, "--feedback", f_path) == 1

    def test_certify_transposed_feedback_exit_two(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        f_path = tmp_path / "F.json"
        save_system(sys_path, random_ph(3, 2, 0))
        f_path.write_text(json.dumps({"m": 2, "n": 3, "F": np.ones((3, 2)).tolist()}))
        assert run("certify", "--input", sys_path, "--feedback", f_path) == 2

    def test_simulate_writes_csv_and_report(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        f_path = tmp_path / "F.json"
        save_system(sys_path, scalar_system(E=1, G=1))
        f_path.write_text(json.dumps({"m": 1, "n": 1, "F": [[-2.0]]}))
        csv_path = tmp_path / "traj.csv"
        report = tmp_path / "report.json"
        assert run("simulate", "--input", sys_path, "--feedback", f_path,
                   "--x0", "1.0", "--T", 0.5, "--dt", 0.01,
                   "--output", csv_path, "--report", report) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,x1,u1,y1,H"
        assert len(lines) == 52
        doc = json.loads(report.read_text())
        assert doc["dissipation_inequality"] is True
        assert doc["power_balance_residual"] >= 0.0

    def test_simulate_refuses_high_index(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        sys = PHSystem(E=np.diag([1.0, 0.0]), J=[[0.0, 1.0], [-1.0, 0.0]],
                       R=np.zeros((2, 2)), G=np.zeros((2, 1)), P=np.zeros((2, 1)),
                       S=[[0.0]], N=[[0.0]])
        save_system(sys_path, sys)
        assert run("simulate", "--input", sys_path, "--x0", "1,1",
                   "--output", tmp_path / "t.csv") == 1


class TestCommandSurface:
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("flag, field, value", [
        ("--tol", "rank_rtol", 1e-12), ("--axis-tol", "axis_tol", 1e-7),
        ("--psd-tol", "psd_tol", 1e-9), ("--stability-margin", "stability_margin", 1e-7)])
    def test_tolerance_flag_reaches_the_report(self, tmp_path, command, flag, field, value):
        sys_path = tmp_path / "sys.json"
        report = tmp_path / "report.json"
        save_system(sys_path, scalar_system(E=1, R=1, G=1))
        extra = ["--T", 0.01, "--output", tmp_path / "t.csv"] if command == "simulate" else []
        assert run(command, "--input", sys_path, *extra, flag, value, "--report", report) == 0
        tolerances = json.loads(report.read_text())["tolerances"]
        assert tolerances == {**dataclasses.asdict(DEFAULT_TOL), field: value}

    @pytest.mark.parametrize("argument, message", [
        ("--x0=1,2", "--x0 has 2 entries, expected 5"),
        ("--x0=1,a", "could not parse --x0: '1,a'"),
        ("--u=1 2 3", "--u has 3 entries, expected 2"),
        ("--u=0.5,x", "could not parse --u: '0.5,x'"),
        ("--x0=nan,0,0,0,0", "--x0 has a non-finite entry"),
        ("--u=inf,0", "--u has a non-finite entry")])
    def test_bad_vector_exits_two_naming_the_flag(self, tmp_path, capsys, argument, message):
        sys_path = tmp_path / "sys.json"
        run("gen", "--n", 5, "--m", 2, "--output", sys_path)
        capsys.readouterr()
        csv_path = tmp_path / "t.csv"
        assert run("simulate", "--input", sys_path, argument, "--output", csv_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not csv_path.exists()

    @pytest.mark.parametrize("argument, message", [
        ("--T=inf", "T must be finite and at least dt, got inf"),
        ("--T=nan", "T must be finite and at least dt, got nan"),
        ("--dt=nan", "dt must be finite and positive, got nan")], ids=["T=inf", "T=nan", "dt=nan"])
    def test_non_finite_horizon_or_step_exits_two(self, tmp_path, capsys, argument, message):
        sys_path = tmp_path / "sys.json"
        save_system(sys_path, scalar_system(E=1, G=1))
        csv_path = tmp_path / "t.csv"
        assert run("simulate", "--input", sys_path, argument, "--output", csv_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not csv_path.exists()

    @pytest.mark.parametrize("T, dt, steps", [("1e300", "1e-300", "inf"),
                                              ("1e15", "1e-3", str(round(1e15 / 1e-3)))],
                             ids=["T/dt=inf", "T/dt=1e18"])
    def test_too_many_steps_exits_two(self, tmp_path, capsys, T, dt, steps):
        sys_path = tmp_path / "sys.json"
        save_system(sys_path, scalar_system(E=1, G=1))
        csv_path = tmp_path / "t.csv"
        assert run("simulate", "--input", sys_path, "--T", T, "--dt", dt,
                   "--output", csv_path) == 2
        assert capsys.readouterr().err == (
            f"error: T = {float(T)} and dt = {float(dt)} give {steps} steps, "
            "more than a trajectory can hold\n")
        assert not csv_path.exists()

    @pytest.mark.parametrize("margin", ["nan", "inf", "0", "-1"])
    def test_bad_margin_exits_two_naming_the_flag(self, monkeypatch, tmp_path, capsys, margin):
        # Refused before the synthesis runs: calling it would raise TypeError.
        monkeypatch.setattr(cli, "synthesize_stabilizing", None)
        sys_path, report = tmp_path / "sys.json", tmp_path / "r.json"
        save_system(sys_path, scalar_system(E=1, G=1))
        assert run("stabilize", "--input", sys_path, f"--margin={margin}",
                   "--report", report) == 2
        assert capsys.readouterr().err == (
            f"error: --margin must be finite and positive, got {float(margin)}\n")
        assert not report.exists()

    def test_simulate_defaults_to_zero_state_and_input(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        csv_path = tmp_path / "t.csv"
        run("gen", "--n", 3, "--m", 1, "--seed", 2, "--output", sys_path)
        assert run("simulate", "--input", sys_path, "--T", 0.01, "--output", csv_path) == 0
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "t,x1,x2,x3,u1,y1,H" and len(rows) == 12
        assert all(row.split(",")[1:] == ["0.0"] * 6 for row in rows[1:])

    @pytest.mark.parametrize("knobs", [[], ["--rank-e", 3, "--s-definite"],
                                       ["--rank-w", 1, "--force-singular"],
                                       ["--force-axis-modes"]])
    def test_gen_stdout_is_the_file_bytes(self, tmp_path, capsys, knobs):
        path = tmp_path / "sys.json"
        assert run("gen", "--n", 5, "--m", 2, "--seed", 7, *knobs, "--output", path) == 0
        capsys.readouterr()
        assert run("gen", "--n", 5, "--m", 2, "--seed", 7, *knobs) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == path.read_bytes()
        assert captured.err == ""
        metadata = json.loads(captured.out)["metadata"]
        assert metadata["seed"] == 7
        assert list(metadata["knobs"]) == ["rank_e", "rank_w", "force_axis_modes",
                                           "force_singular", "s_definite"]

    def test_stabilize_without_output_reports_feedback_inline(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        report = tmp_path / "report.json"
        save_system(sys_path, scalar_system(E=1, G=1))
        assert run("stabilize", "--input", sys_path, "--report", report) == 0
        doc = json.loads(report.read_text())
        assert "feedback_file" not in doc
        assert np.allclose(doc["feedback"], [[-2.0]], rtol=0, atol=1e-12)
        assert doc["certification"]["overall"] is True

    def test_kept_negative_eigenvalue_of_S_exits_two_without_report(self, tmp_path, capsys):
        sys_path = tmp_path / "sys.json"
        report = tmp_path / "report.json"
        I, O = np.eye(2), np.zeros((2, 2))
        save_system(sys_path, PHSystem(E=I, J=O, R=I, G=I, P=O, S=np.diag([1.0, -1e-11]), N=O))
        assert run("stabilize", "--input", sys_path, "--report", report) == 2
        assert capsys.readouterr().err.startswith(
            "numerical breakdown: definite feedthrough block lost positive definiteness")
        assert not report.exists()

    def test_ambiguous_rank_decision_exits_two_without_report(self, tmp_path, capsys):
        sys_path = tmp_path / "sys.json"
        report = tmp_path / "report.json"
        save_system(sys_path, random_ph(5, 1, 1, force_axis_modes=True))
        assert run("analyze", "--input", sys_path, "--tol", 1e-17, "--report", report) == 2
        assert capsys.readouterr().err.startswith(
            "numerical breakdown: ambiguous rank decision at right pass: E-compression, step 1")
        assert not report.exists()

    def test_inconsistent_staircase_exits_two_naming_the_decision(self, tmp_path, capsys):
        # The staircase counts at rank_rtol = 1e-17 fit no Kronecker
        # structure; the refusal names the decision with the least margin.
        sys_path = tmp_path / "sys.json"
        report = tmp_path / "report.json"
        save_system(sys_path, random_ph(9, 0, 1, force_singular=True))
        assert run("analyze", "--input", sys_path, "--tol", 1e-17, "--report", report) == 2
        assert capsys.readouterr().err.startswith(
            "numerical breakdown: ambiguous rank decision at right pass: A-compression, step 2")
        assert not report.exists()
