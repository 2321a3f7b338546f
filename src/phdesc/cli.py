"""Command-line interface.

Subcommands: gen, validate, analyze, stabilize, passify, certify, simulate.
Machine-readable JSON reports go to --report (or stdout); human summaries go
to stderr.  Exit codes: 0 when the command succeeded and every checked
condition or certificate holds, 1 for well-formed inputs whose conditions or
certificates fail (the report is still written), 2 for malformed input or a
numerical breakdown.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys as _sys

import numpy as np

from .certify import GOALS, certify_closed_loop
from .errors import (
    ConditionsNotMet,
    NotIndexOne,
    NumericalBreakdown,
    PhdescError,
    SolveFailure,
    ToleranceBreakdown,
)
from .fileio import (
    complex_pairs,
    load_feedback,
    load_system,
    matrix_to_lists,
    report_to_json,
    save_feedback,
    save_system,
    system_to_dict,
    write_report,
)
from .generators import random_ph
from .linalg import DEFAULT_TOL, ToleranceConfig, nullspace_basis
from .model import (
    apply_feedback,
    dissipation_inequality_check,
    power_balance_residual,
    validate,
)
from .pencil import (
    index_reduction_rank_condition,
    pencil_report,
    stabilizability_rank_condition,
    strict_passifiability_condition,
)
from .simulate import simulate_closed_loop, write_trajectory_csv
from .synthesis import synthesize_passifying, synthesize_stabilizing


def _add_tol_args(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=float, default=None, metavar="X",
                   help="override rank_rtol, the relative singular value "
                        "cutoff of every rank decision; below about "
                        "10 eps (n + k) a PBH rank drop cannot be told from "
                        "roundoff, and a command that meets one refuses "
                        "with ToleranceBreakdown (exit 2)")
    p.add_argument("--axis-tol", type=float, default=None, metavar="X",
                   help="override the imaginary-axis classification band")
    p.add_argument("--psd-tol", type=float, default=None, metavar="X",
                   help="override the semidefiniteness band")
    p.add_argument("--stability-margin", type=float, default=None, metavar="X",
                   help="override the required stability margin")


def _tol_from_args(args) -> ToleranceConfig:
    overrides = {}
    if args.tol is not None:
        overrides["rank_rtol"] = args.tol
    if args.axis_tol is not None:
        overrides["axis_tol"] = args.axis_tol
    if args.psd_tol is not None:
        overrides["psd_tol"] = args.psd_tol
    if args.stability_margin is not None:
        overrides["stability_margin"] = args.stability_margin
    return dataclasses.replace(DEFAULT_TOL, **overrides) if overrides else DEFAULT_TOL


def _emit(args, doc: dict):
    if getattr(args, "report", None):
        write_report(args.report, doc)
    else:
        _sys.stdout.write(report_to_json(doc))


def _say(msg: str):
    print(msg, file=_sys.stderr)


def _parse_vector(text: str | None, length: int, name: str) -> np.ndarray:
    if text is None:
        return np.zeros(length)
    try:
        vec = np.array([float(v) for v in text.replace(",", " ").split()])
    except ValueError as exc:
        raise ValueError(f"could not parse {name}: {text!r}") from exc
    if vec.shape[0] != length:
        raise ValueError(f"{name} has {vec.shape[0]} entries, expected {length}")
    return vec


def _conditions_dict(sys, tol) -> dict:
    stab, witnesses = stabilizability_rank_condition(sys, tol)
    return {
        "stabilizability": {
            "holds": bool(stab),
            "witnesses": complex_pairs(witnesses),
        },
        "index_reducibility": {"holds": bool(index_reduction_rank_condition(sys, tol))},
        "strict_passifiability": {"holds": bool(strict_passifiability_condition(sys, tol))},
    }


def _cmd_gen(args) -> int:
    sys_ = random_ph(
        args.n, args.m, args.seed,
        rank_e=args.rank_e, rank_w=args.rank_w,
        force_axis_modes=args.force_axis_modes,
        force_singular=args.force_singular,
        s_definite=args.s_definite,
    )
    metadata = {
        "seed": args.seed,
        "knobs": {
            "rank_e": args.rank_e,
            "rank_w": args.rank_w,
            "force_axis_modes": args.force_axis_modes,
            "force_singular": args.force_singular,
            "s_definite": args.s_definite,
        },
    }
    if args.output:
        save_system(args.output, sys_, metadata)
        _say(f"wrote system (n={sys_.n}, m={sys_.m}) to {args.output}")
    else:
        _sys.stdout.write(report_to_json(system_to_dict(sys_, metadata)))
    return 0


def _cmd_validate(args) -> int:
    sys_ = load_system(args.input)
    tol = _tol_from_args(args)
    report = validate(sys_, tol)
    _emit(args, report.to_dict())
    _say(f"structure {'valid' if report.passed else 'INVALID'}")
    return 0 if report.passed else 1


def _cmd_analyze(args) -> int:
    sys_ = load_system(args.input)
    tol = _tol_from_args(args)
    rep = pencil_report(sys_.E, sys_.A, tol)
    basis = nullspace_basis(np.vstack([sys_.E, sys_.J, sys_.R]), tol,
                            "common nullspace of E, J, R")
    singular = basis.shape[1] > 0
    doc = {
        "kind": "analysis",
        "tolerances": dataclasses.asdict(tol),
        "pencil": rep.to_dict(),
        "singular_common_nullspace": singular,
        "conditions": _conditions_dict(sys_, tol),
    }
    if singular:
        doc["common_nullspace_basis"] = matrix_to_lists(basis)
    _emit(args, doc)
    _say(f"pencil: {rep.stability_class.value}, index {rep.index}")
    return 0


def _synthesize_and_certify(args, goal: str) -> int:
    sys_ = load_system(args.input)
    tol = _tol_from_args(args)
    doc: dict = {"kind": "synthesis", "goal": goal}
    try:
        if goal == "stabilize":
            F, _trace = synthesize_stabilizing(sys_, tol, margin=args.margin)
        else:
            F = synthesize_passifying(sys_, tol)
    except ConditionsNotMet as exc:
        doc["conditions_met"] = False
        doc["reason"] = str(exc)
        doc["witnesses"] = complex_pairs(exc.witnesses)
        _emit(args, doc)
        _say(f"refused: {exc}")
        return 1
    doc["conditions_met"] = True
    cert = certify_closed_loop(sys_, F, goal=goal, tol=tol)
    doc["certification"] = cert.to_dict()
    if args.output:
        save_feedback(args.output, F)
        doc["feedback_file"] = args.output
    else:
        doc["feedback"] = matrix_to_lists(F)
    _emit(args, doc)
    _say(f"{goal}: certification {'PASS' if cert.overall else 'FAIL'}")
    return 0 if cert.overall else 1


def _cmd_stabilize(args) -> int:
    return _synthesize_and_certify(args, "stabilize")


def _cmd_passify(args) -> int:
    return _synthesize_and_certify(args, "passify")


def _cmd_certify(args) -> int:
    sys_ = load_system(args.input)
    F = load_feedback(args.feedback)
    tol = _tol_from_args(args)
    cert = certify_closed_loop(sys_, F, goal=args.goal, tol=tol)
    _emit(args, cert.to_dict())
    _say(f"certification {'PASS' if cert.overall else 'FAIL'}")
    return 0 if cert.overall else 1


def _cmd_simulate(args) -> int:
    sys_ = load_system(args.input)
    tol = _tol_from_args(args)
    F = load_feedback(args.feedback) if args.feedback else np.zeros((sys_.m, sys_.n))
    x0 = _parse_vector(args.x0, sys_.n, "--x0")
    u = _parse_vector(args.u, sys_.m, "--u") if args.u else None
    traj = simulate_closed_loop(sys_, F, x0, u=u, T=args.T, dt=args.dt, tol=tol)
    closed = apply_feedback(sys_, F)
    write_trajectory_csv(args.output, traj, closed)
    residual = power_balance_residual(closed, traj)
    dissipative = dissipation_inequality_check(closed, traj, tol)
    doc = {
        "kind": "simulation",
        "tolerances": dataclasses.asdict(tol),
        "trajectory_file": args.output,
        "steps": int(traj.t.shape[0] - 1),
        "dt": args.dt,
        "power_balance_residual": residual,
        "dissipation_inequality": bool(dissipative),
    }
    _emit(args, doc)
    _say(f"simulated {doc['steps']} steps; dissipation inequality "
         f"{'holds' if dissipative else 'VIOLATED'}")
    return 0 if dissipative else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phdesc",
        description="Port-Hamiltonian descriptor systems: validation, pencil "
                    "analysis, feedback synthesis, certification, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random valid system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank-e", type=int, default=None)
    p.add_argument("--rank-w", type=int, default=None)
    p.add_argument("--force-axis-modes", action="store_true")
    p.add_argument("--force-singular", action="store_true")
    p.add_argument("--s-definite", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="check the structure constraints")
    p.add_argument("--input", required=True)
    p.add_argument("--report", default=None)
    _add_tol_args(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="pencil report and feedback-existence conditions")
    p.add_argument("--input", required=True)
    p.add_argument("--report", default=None)
    _add_tol_args(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("stabilize", help="synthesize a stabilizing feedback and certify it")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="feedback file to write")
    p.add_argument("--report", default=None)
    p.add_argument("--margin", type=float, default=1.0,
                   help="dissipation floor injected through the feedthrough kernel")
    _add_tol_args(p)
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("passify", help="synthesize a strictly passifying feedback and certify it")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="feedback file to write")
    p.add_argument("--report", default=None)
    _add_tol_args(p)
    p.set_defaults(func=_cmd_passify)

    p = sub.add_parser("certify", help="certify a provided feedback")
    p.add_argument("--input", required=True)
    p.add_argument("--feedback", required=True)
    p.add_argument("--goal", choices=GOALS, default="stabilize")
    p.add_argument("--report", default=None)
    _add_tol_args(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("simulate", help="integrate the closed loop and check the energy inequalities")
    p.add_argument("--input", required=True)
    p.add_argument("--feedback", default=None)
    p.add_argument("--x0", default=None, help="initial state, comma separated")
    p.add_argument("--u", default=None, help="constant exogenous input, comma separated")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--output", required=True, help="trajectory CSV to write")
    p.add_argument("--report", default=None)
    _add_tol_args(p)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotIndexOne as exc:
        _say(f"error: {exc}")
        return 1
    except (ToleranceBreakdown, NumericalBreakdown, SolveFailure) as exc:
        _say(f"numerical breakdown: {exc}")
        return 2
    except (PhdescError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
