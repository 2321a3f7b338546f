#!/usr/bin/env python3
"""Identity sweep: record every verdict of the full chain, or compare two records.

Runs the four ``random_ph`` families, a "damped-floor" family of lossless
plants given R = delta I, and a "near-band" family whose R has one eigenvalue
planted near the definiteness band, through validation, the pencil report,
the three existence conditions, both syntheses with certification, and the
``phdesc`` CLI (in-process ``phdesc.cli.main``: ``validate`` on every system, and on the
smaller ones every other command, ``certify`` and ``simulate`` on the
stabilizing and on a seeded random feedback), and writes one JSON record of
what the importable ``phdesc`` returned: verdicts, witnesses, exception types
and messages, the margins of ``validate``, the group sizes ``[m1, m2, m3]``
of the feedthrough split, the SHA-256 of every feedback's bytes (and, for
n <= 20, its entries as ``float.hex``), spectra as multisets, the
certifications' checks, and CLI exit codes with their stderr and the
SHA-256 of their reports (the work folder's path masked), and of
``analyze``'s common nullspace basis; each ``simulate`` starts from a seeded state under a seeded constant input and adds its
power-balance residual and the SHA-256 of its trajectory CSV.  One system per family adds
a 10 s ``simulate`` (10,001 rows) under its stabilizing feedback, or its
open loop where there is none, so the record also pins a trajectory CSV
long enough to be formatted in parts on a host with several CPUs.  Spectra
are stored sorted, so two trees that list the same eigenvalues in another
order agree.  The record also pins the command-line surface: the SHA-256 of
``phdesc --help`` and of each subcommand's ``--help`` (at 80 columns), of
``gen``'s stdout for each family (and with ``--rank-e`` and ``--rank-w`` set),
and one ``analyze`` per family with all four tolerance flags set.

Record one tree, then another, then compare:

    PYTHONPATH=src python3 scripts/identity_sweep.py --out new.json
    PYTHONPATH=../parent/src python3 scripts/identity_sweep.py --out old.json
    python3 scripts/identity_sweep.py --compare old.json new.json

``--tol X`` sets ``rank_rtol`` for the in-process calls and passes
``--tol X`` to the CLI.  ``--compare`` lists every difference, ends with one
tally line that counts the moves by kind, and exits 1 when there is one.  A
move to or from an exception, or between two of them, counts once (as
verdict->refusal, refusal->refusal or refusal->verdict), and so does a CLI
run whose exit code moves (as exit a->b) or that exits 2 on both sides (as
refusal->refusal).  Every other differing value counts as verdict->verdict,
and a key that only one record has as one side only.  A last line gives the
largest move of the numbers the two records both hold, per kind (spectra,
witnesses, spectral abscissas, margins, power-balance residuals, feedbacks),
each relative to its scale: ``|a - b| / max(1, |a|, |b|)``, the eigenvalues
of a spectrum or witness list paired nearest first, and a feedback's
entries compared in place against its largest entry.  Pin BLAS to one
thread (``OPENBLAS_NUM_THREADS=1``) on both sides, since the bits of a
decomposition may depend on it.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

FAMILIES = {
    "plain": {},
    "s-definite": {"s_definite": True},
    "axis-mode": {"force_axis_modes": True},
    "singular": {"force_singular": True},
}

# (n, seed) of the system per family whose CLI runs add the 10 s simulation.
LONG_HORIZON = (20, 0)

# R = delta I on a lossless plant (rank_w = 0): the dissipation bound
# delta / ||E||_2 sits below, near and above the tenfold cutoffs
# 10 axis_tol and 10 stability_margin (1e-7 at the defaults).
DAMPED_FLOOR = (1e-9, 1e-7, 1e-6)

# R's smallest eigenvalue planted at c * psd_tol * ||R||_2, with P = 0 so
# that W = diag(R, S): the definiteness of R (the dissipation bound's -H)
# and of W sit at half, twice and twenty times the band, where a Cholesky
# proof may fail and the eigenvalues decide.
NEAR_BAND = (0.5, 2.0, 20.0)

# Every subcommand, for the SHA-256 of its --help.
COMMANDS = ("gen", "validate", "analyze", "stabilize", "passify", "certify", "simulate")

# The gen runs: each family, and --rank-e and --rank-w on one family each.
GEN_RUNS = {
    **{family: [f"--{knob.replace('_', '-')}" for knob in knobs]
       for family, knobs in FAMILIES.items()},
    "plain rank-e": ["--rank-e", "4"],
    "s-definite rank-w": ["--s-definite", "--rank-w", "1"],
}

# All four tolerance flags off their defaults, for one analyze per family;
# these runs ignore --tol.
TOL_OVERRIDES = ["--tol", "1e-12", "--axis-tol", "1e-6", "--psd-tol", "1e-9",
                 "--stability-margin", "1e-6"]

# Record keys whose numbers the compare's last line measures, by kind.
MOVE_KINDS = {"finite_eigenvalues": "spectra", "witnesses": "witnesses",
              "spectral_abscissa": "abscissas", "lambda_min_w": "margins",
              "validate_margins": "margins", "power_balance_residual": "residuals",
              "feedback": "feedbacks"}

# Largest n whose in-process feedbacks are recorded entry by entry.
FEEDBACK_ENTRIES_N = 20


def systems():
    """(family, n, m, seed, run_cli, knobs) of every system in the sweep;
    knobs are further ``random_ph`` keywords."""
    for family in FAMILIES:
        for n in range(3, 13):
            for m in range(1, 5):
                for seed in range(6):
                    yield family, n, m, seed, m <= 2, {}
        for n in (20, 60):
            for seed in range(2):
                yield family, n, n // 10, seed, n == 20, {}
        for n in (150, 200, 300):
            yield family, n, n // 10, 0, False, {}
        # Inputless systems: B, S, N and every input block are empty.
        for n in range(3, 13):
            for seed in range(3):
                yield family, n, 0, seed, n <= 8, {}
        # Lossless plants (rank_w = 0: m1 = 0, often m3 > 0) and rank-one
        # dissipation (rank_w = 1: m2 > 0 once m > 1).
        for rank_w in (0, 1):
            for n in range(3, 9):
                for m in range(1, 4):
                    for seed in range(2):
                        yield family, n, m, seed, m <= 2, {"rank_w": rank_w}
    # Narrow-input axis-mode systems whose oscillator no input reaches.
    for seed in range(12):
        yield "axis-mode", 60, 1, seed, True, {}
    for damping in DAMPED_FLOOR:
        for n in range(3, 13):
            for m in (1, 2):
                for seed in range(2):
                    yield "damped-floor", n, m, seed, n <= 6, {"rank_w": 0, "damping": damping}
    for c in NEAR_BAND:
        for n in range(3, 13):
            for m in (1, 2):
                for seed in range(2):
                    yield "near-band", n, m, seed, n <= 6, {"band": c}


def _system(phdesc, family: str, n: int, m: int, seed: int, knobs: dict):
    """The generated system; a "damping" knob replaces R by damping * I, and
    a "band" knob c plants R's smallest eigenvalue at c * psd_tol * ||R||_2
    and sets P = 0."""
    knobs = dict(knobs)
    damping = knobs.pop("damping", None)
    band = knobs.pop("band", None)
    s = phdesc.random_ph(n, m, seed, **FAMILIES.get(family, {}), **knobs)
    if damping is not None:
        return dataclasses.replace(s, R=damping * np.eye(n))
    if band is not None:
        w, V = np.linalg.eigh(s.R)
        w[0] = band * phdesc.DEFAULT_TOL.psd_tol * w[-1]
        R = (V * w) @ V.T
        return dataclasses.replace(s, R=(R + R.T) / 2.0, P=np.zeros_like(s.P))
    return s


def _hex(values) -> list[list[str]]:
    return [[float(z.real).hex(), float(z.imag).hex()] for z in np.asarray(values, dtype=complex)]


def _multiset(values) -> list[list[str]]:
    return sorted(_hex(values))


def _sha(F) -> str:
    return hashlib.sha256(np.ascontiguousarray(F, dtype=np.float64).tobytes()).hexdigest()


def _error(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def _guarded(fn, *args, **kwargs) -> dict:
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every exception is part of the record
        return _error(exc)


def _report(rep) -> dict:
    return {"regular": bool(rep.regular), "index": rep.index, "rank_E": int(rep.rank_E),
            "stability_class": rep.stability_class.value,
            "infinite_block_sizes": list(rep.infinite_block_sizes),
            "right_minimal_indices": list(rep.right_minimal_indices),
            "left_minimal_indices": list(rep.left_minimal_indices),
            "finite_eigenvalues": _multiset(rep.finite_eigenvalues)}


def _synthesis(phdesc, s, goal, tol) -> dict:
    """The feedback's SHA-256 and certification, then, for the stabilizing
    synthesis, the block sizes ``mu`` from its trace's ``blocks()`` under
    their own guard, so that a refusal on that call is recorded apart from
    the feedback."""
    try:
        if goal == "stabilize":
            F, trace = phdesc.synthesize_stabilizing(s, tol)
        else:
            F = phdesc.synthesize_passifying(s, tol)
    except phdesc.ConditionsNotMet as exc:
        return {**_error(exc), "witnesses": _hex(exc.witnesses)}
    cert = phdesc.certify_closed_loop(s, F, goal, tol)
    out = {"feedback_sha256": _sha(F), "overall": bool(cert.overall),
           "certification": _report(cert.pencil), "checks": cert.to_dict()["checks"]}
    if s.n <= FEEDBACK_ENTRIES_N:
        out["feedback"] = [float(v).hex() for v in np.ravel(F)]
    if goal == "stabilize":
        out["mu"] = _guarded(lambda: list(trace.blocks()["mu"]))
    return out


def _chain(phdesc, s, tol) -> dict:
    def conditions():
        ok, witnesses = phdesc.stabilizability_rank_condition(s, tol)
        return {"stabilizability": bool(ok), "witnesses": _hex(witnesses)}

    def groups():
        dc = phdesc.feedback_analysis(s, tol).compression
        return [dc.m1, dc.m2, dc.m3]

    return {
        "valid": _guarded(lambda: bool(phdesc.validate(s, tol).passed)),
        "validate_margins": _guarded(
            lambda: {c.name: c.margin for c in phdesc.validate(s, tol).checks}),
        "pencil": _guarded(lambda: _report(phdesc.pencil_report(s.E, s.A, tol))),
        "compression": _guarded(groups),
        "stabilizability": _guarded(conditions),
        "index_reducibility": _guarded(lambda: bool(phdesc.index_reduction_rank_condition(s, tol))),
        "strict_passifiability": _guarded(
            lambda: bool(phdesc.strict_passifiability_condition(s, tol))),
        "stabilize": _guarded(_synthesis, phdesc, s, "stabilize", tol),
        "passify": _guarded(_synthesis, phdesc, s, "passify", tol),
    }


def _cli(s, seed: int, tol_args: list[str], work: Path, full: bool, long_horizon: bool) -> dict:
    """CLI runs on one system: ``validate`` alone, or every command when
    ``full``; the long-horizon system adds ``simulate-long`` and
    ``analyze-overrides``."""
    from phdesc.cli import main
    from phdesc.fileio import save_feedback, save_system

    system, stab_F, rand_F = work / "sys.json", work / "F_stab.json", work / "F_rand.json"
    report, traj = work / "report.json", work / "traj.csv"
    for path in (stab_F, rand_F):
        path.unlink(missing_ok=True)
    save_system(system, s)
    rng = np.random.default_rng(seed)
    save_feedback(rand_F, rng.normal(size=(s.m, s.n)))
    # A seeded initial state and constant input, so that the power balance
    # and the dissipation check run on a nonzero trajectory.
    excite = [f"--x0={_csv(rng.normal(size=s.n))}"]
    if s.m:
        excite.append(f"--u={_csv(rng.normal(size=s.m))}")
    runs = {
        "validate": ["validate", "--input", str(system)],
        "analyze": ["analyze", "--input", str(system)],
        "stabilize": ["stabilize", "--input", str(system), "--output", str(stab_F)],
        "passify": ["passify", "--input", str(system)],
        "certify-random-stabilize": ["certify", "--input", str(system), "--feedback",
                                     str(rand_F), "--goal", "stabilize"],
        "certify-random-passify": ["certify", "--input", str(system), "--feedback",
                                   str(rand_F), "--goal", "passify"],
        "certify-own": ["certify", "--input", str(system), "--feedback", str(stab_F)],
        "simulate": ["simulate", "--input", str(system), "--feedback", str(stab_F),
                     "--T", "0.02", "--dt", "0.001", "--output", str(traj), *excite],
        # The random loop may be singular or of index > 1: the refusals count too.
        "simulate-random": ["simulate", "--input", str(system), "--feedback", str(rand_F),
                            "--T", "0.02", "--dt", "0.001", "--output", str(traj), *excite],
    }
    if long_horizon:
        runs["simulate-long"] = ["simulate", "--input", str(system), "--T", "10",
                                 "--dt", "0.001", "--output", str(traj), *excite]
        runs["analyze-overrides"] = ["analyze", "--input", str(system)]
    if not full:
        runs = {"validate": runs["validate"]}
    out = {}
    for name, argv in runs.items():
        if name in ("certify-own", "simulate") and not stab_F.exists():
            continue
        if name == "simulate-long" and stab_F.exists():
            argv = argv + ["--feedback", str(stab_F)]
        for path in (report, traj):
            path.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--report", str(report)]
                        + (TOL_OVERRIDES if name == "analyze-overrides" else tol_args))
        out[name] = {"exit": code, "stderr": err.getvalue()}
        if report.exists():
            # Reports name their files, which lie in a fresh temporary folder.
            text = report.read_text().replace(str(work), "WORK")
            out[name]["report_sha256"] = hashlib.sha256(text.encode()).hexdigest()
            basis = json.loads(text).get("common_nullspace_basis")
            if name.startswith("analyze") and basis is not None:
                out[name]["common_nullspace_sha256"] = hashlib.sha256(
                    json.dumps(basis).encode()).hexdigest()
        if name.startswith("simulate") and traj.exists():
            doc = json.loads(report.read_text())
            out[name].update(power_balance_residual=float(doc["power_balance_residual"]).hex(),
                             trajectory_sha256=hashlib.sha256(traj.read_bytes()).hexdigest())
    return out


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _captured(argv: list[str]) -> dict:
    """Exit code, stderr and the SHA-256 of stdout of one in-process command;
    ``--help`` exits through SystemExit, whose code is recorded."""
    from phdesc.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stderr": err.getvalue(),
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def surface() -> dict:
    """The help text of ``phdesc`` and of every subcommand, at 80 columns,
    and ``gen``'s stdout for each of GEN_RUNS."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        help_text = {" ".join(argv): _captured(argv)
                     for argv in (["--help"], *([cmd, "--help"] for cmd in COMMANDS))}
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    gen = {name: _captured(["gen", "--n", "6", "--m", "2", "--seed", "3", *flags])
           for name, flags in GEN_RUNS.items()}
    return {"help": help_text, "gen": gen}


def record(tol_value: float | None) -> dict:
    import phdesc

    tol = phdesc.DEFAULT_TOL
    tol_args = []
    if tol_value is not None:
        tol = dataclasses.replace(tol, rank_rtol=tol_value)
        tol_args = ["--tol", repr(tol_value)]
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for family, n, m, seed, run_cli, knobs in systems():
            key = f"{family} n={n} m={m} seed={seed}" + "".join(
                f" {k}={v}" for k, v in knobs.items())
            try:
                s = _system(phdesc, family, n, m, seed, knobs)
            except phdesc.PhdescError as exc:
                records[key] = {"generate": _error(exc)}
                continue
            rec = _chain(phdesc, s, tol)
            rec["cli"] = _cli(s, seed, tol_args, Path(tmp), run_cli,
                              run_cli and (n, seed) == LONG_HORIZON)
            records[key] = rec
    return {"numpy": np.__version__, "tol": dataclasses.asdict(tol), "surface": surface(),
            "records": records}


def _differences(a, b, path: str):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                yield f"{path}.{k}: only in {'second' if k not in a else 'first'}"
            else:
                yield from _differences(a[k], b[k], f"{path}.{k}")
    elif a != b:
        yield f"{path}: {json.dumps(a)} -> {json.dumps(b)}"


def _tally(a, b, counts: collections.Counter):
    """Add the moves between two values of the record to counts by kind."""
    if a == b:
        return
    refused = tuple(isinstance(v, dict) and "error" in v for v in (a, b))
    if any(refused):
        counts[{(False, True): "verdict->refusal", (True, True): "refusal->refusal",
                (True, False): "refusal->verdict"}[refused]] += 1
    elif isinstance(a, dict) and isinstance(b, dict):
        if "exit" in a and "exit" in b and (a["exit"] != b["exit"] or a["exit"] == 2):
            # A CLI run: an exit move, or a refusal's text on both sides.
            kind = "refusal->refusal" if a["exit"] == b["exit"] else f"exit {a['exit']}->{b['exit']}"
            counts[kind] += 1
            return
        for k in set(a) | set(b):
            if k in a and k in b:
                _tally(a[k], b[k], counts)
            else:
                counts["one side only"] += 1
    else:
        counts["verdict->verdict"] += 1


def _numbers(value) -> list[complex] | None:
    """The numbers of a record entry: a list of hex pairs or of ``float.hex``
    strings, one such string or a JSON number; None for anything else."""
    if isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 for p in value):
        return [complex(float.fromhex(re), float.fromhex(im)) for re, im in value]
    if isinstance(value, list) and all(isinstance(x, str) for x in value):
        return [complex(float.fromhex(x)) for x in value]
    if isinstance(value, str) and value.lstrip("-").startswith("0x"):
        return [complex(float.fromhex(value))]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [complex(value)]
    return None


def _largest_move(xs: list[complex], ys: list[complex], kind: str) -> float:
    """Largest ``|x - y| / max(1, |x|, |y|)`` with each x paired to the
    nearest y not yet paired; for feedbacks, the largest ``|x_i - y_i|``
    over ``max(1, |x_j|, |y_j|)`` of the largest entries."""
    if kind == "feedbacks":
        scale = max([1.0, *map(abs, xs), *map(abs, ys)])
        return max((abs(x - y) for x, y in zip(xs, ys)), default=0.0) / scale
    ys, worst = list(ys), 0.0
    for x in xs:
        j = min(range(len(ys)), key=lambda i: abs(x - ys[i]))
        y = ys.pop(j)
        worst = max(worst, abs(x - y) / max(1.0, abs(x), abs(y)))
    return worst


def _moves(a, b, kind: str | None, worst: dict):
    """Raise worst[kind] to the largest move between the numbers of a and
    b under a key of MOVE_KINDS; lists of unequal length are left out."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in a.keys() & b.keys():
            _moves(a[k], b[k], MOVE_KINDS.get(k, kind), worst)
    elif kind is not None and a != b:
        xs, ys = _numbers(a), _numbers(b)
        if xs is not None and ys is not None and len(xs) == len(ys):
            worst[kind] = max(worst[kind], _largest_move(xs, ys, kind))


def compare(first: Path, second: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (first, second))
    if a["tol"] != b["tol"]:
        print(f"records differ in tolerance: {a['tol']} vs {b['tol']}")
        return 1
    diffs = [line for part in ("surface", "records")
             for line in _differences(a.get(part), b.get(part), part)]
    for line in diffs:
        print(line)
    print(f"{len(a['records'])} vs {len(b['records'])} systems, {len(diffs)} differences")
    counts = collections.Counter({kind: 0 for kind in (
        "verdict->refusal", "refusal->refusal", "refusal->verdict", "verdict->verdict",
        "one side only")})
    for part in ("surface", "records"):
        _tally(a.get(part), b.get(part), counts)
    print("tally: " + ", ".join(f"{kind} {n}" for kind, n in counts.items()))
    worst = {kind: 0.0 for kind in MOVE_KINDS.values()}
    _moves(a.get("records"), b.get("records"), None, worst)
    print("largest relative move: " + ", ".join(f"{kind} {v:.3g}" for kind, v in worst.items()))
    return 1 if diffs else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="write the record of the importable phdesc here")
    ap.add_argument("--tol", type=float, default=None, help="rank_rtol of every decision")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        ap.error("give --out or --compare")
    args.out.write_text(json.dumps(record(args.tol), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
