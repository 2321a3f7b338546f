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


# Each tolerance flag: the ToleranceConfig field it overrides and its help.
_TOL_FLAGS = (
    ("--tol", "rank_rtol",
     "override rank_rtol, the relative singular value cutoff of every rank "
     "decision; below about 10 eps (n + k) a PBH rank drop cannot be told from "
     "roundoff, and a command that meets one refuses with ToleranceBreakdown (exit 2)"),
    ("--axis-tol", "axis_tol", "override the imaginary-axis classification band"),
    ("--psd-tol", "psd_tol", "override the semidefiniteness band"),
    ("--stability-margin", "stability_margin", "override the required stability margin"),
)

# random_ph's keyword knobs, each with its gen flag's settings, in the order
# of gen's metadata.
_INT, _SWITCH = {"type": int}, {"action": "store_true"}
_GEN_KNOBS = {"rank_e": _INT, "rank_w": _INT, "force_axis_modes": _SWITCH,
              "force_singular": _SWITCH, "s_definite": _SWITCH}


def _tol_from_args(args) -> ToleranceConfig:
    overrides = {field: getattr(args, field) for _, field, _ in _TOL_FLAGS
                 if getattr(args, field) is not None}
    return dataclasses.replace(DEFAULT_TOL, **overrides) if overrides else DEFAULT_TOL


def _emit(path, doc: dict):
    if path:
        write_report(path, doc)
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
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} has a non-finite entry")
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
    knobs = {knob: getattr(args, knob) for knob in _GEN_KNOBS}
    sys_ = random_ph(args.n, args.m, args.seed, **knobs)
    _emit(args.output, system_to_dict(sys_, {"seed": args.seed, "knobs": knobs}))
    if args.output:
        _say(f"wrote system (n={sys_.n}, m={sys_.m}) to {args.output}")
    return 0


def _cmd_validate(args) -> int:
    sys_ = load_system(args.input)
    tol = _tol_from_args(args)
    report = validate(sys_, tol)
    _emit(args.report, report.to_dict())
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
    _emit(args.report, doc)
    _say(f"pencil: {rep.stability_class.value}, index {rep.index}")
    return 0


def _cmd_synthesize(args) -> int:
    if args.goal == "stabilize" and not (np.isfinite(args.margin) and args.margin > 0):
        raise ValueError(f"--margin must be finite and positive, got {args.margin}")
    sys_ = load_system(args.input)
    tol = _tol_from_args(args)
    doc: dict = {"kind": "synthesis", "goal": args.goal}
    try:
        if args.goal == "stabilize":
            F, _trace = synthesize_stabilizing(sys_, tol, margin=args.margin)
        else:
            F = synthesize_passifying(sys_, tol)
    except ConditionsNotMet as exc:
        doc["conditions_met"] = False
        doc["reason"] = str(exc)
        doc["witnesses"] = complex_pairs(exc.witnesses)
        _emit(args.report, doc)
        _say(f"refused: {exc}")
        return 1
    doc["conditions_met"] = True
    cert = certify_closed_loop(sys_, F, goal=args.goal, tol=tol)
    doc["certification"] = cert.to_dict()
    if args.output:
        save_feedback(args.output, F)
        doc["feedback_file"] = args.output
    else:
        doc["feedback"] = matrix_to_lists(F)
    _emit(args.report, doc)
    _say(f"{args.goal}: certification {'PASS' if cert.overall else 'FAIL'}")
    return 0 if cert.overall else 1


def _cmd_certify(args) -> int:
    sys_ = load_system(args.input)
    F = load_feedback(args.feedback)
    tol = _tol_from_args(args)
    cert = certify_closed_loop(sys_, F, goal=args.goal, tol=tol)
    _emit(args.report, cert.to_dict())
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
    _emit(args.report, doc)
    _say(f"simulated {doc['steps']} steps; dissipation inequality "
         f"{'holds' if dissipative else 'VIOLATED'}")
    return 0 if dissipative else 1


def _add_command(sub, name: str, summary: str, options: dict, **defaults):
    """Subcommand ``name`` with --input, its own ``options`` (flag: keyword
    arguments of add_argument), --report and the tolerance flags, in that
    order, unless ``options`` place --report; ``defaults`` go to set_defaults."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--input", required=True)
    for flag, kwargs in {**options, "--report": {}}.items():
        p.add_argument(flag, **kwargs)
    for flag, field, text in _TOL_FLAGS:
        p.add_argument(flag, dest=field, type=float, metavar="X", help=text)
    p.set_defaults(**defaults)


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
    for knob, kwargs in _GEN_KNOBS.items():
        p.add_argument("--" + knob.replace("_", "-"), **kwargs)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_gen)

    feedback_file = {"--output": {"help": "feedback file to write"}}
    _add_command(sub, "validate", "check the structure constraints", {}, func=_cmd_validate)
    _add_command(sub, "analyze", "pencil report and feedback-existence conditions", {},
                 func=_cmd_analyze)
    _add_command(sub, "stabilize", "synthesize a stabilizing feedback and certify it",
                 {**feedback_file, "--report": {}, "--margin": {
                     "type": float, "default": 1.0,
                     "help": "dissipation floor injected through the feedthrough kernel"}},
                 func=_cmd_synthesize, goal="stabilize")
    _add_command(sub, "passify", "synthesize a strictly passifying feedback and certify it",
                 feedback_file, func=_cmd_synthesize, goal="passify")
    _add_command(sub, "certify", "certify a provided feedback",
                 {"--feedback": {"required": True},
                  "--goal": {"choices": GOALS, "default": "stabilize"}},
                 func=_cmd_certify)
    _add_command(sub, "simulate", "integrate the closed loop and check the energy inequalities",
                 {"--feedback": {},
                  "--x0": {"help": "initial state, comma separated"},
                  "--u": {"help": "constant exogenous input, comma separated"},
                  "--T": {"type": float, "default": 1.0},
                  "--dt": {"type": float, "default": 1e-3},
                  "--output": {"required": True, "help": "trajectory CSV to write"}},
                 func=_cmd_simulate)
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
