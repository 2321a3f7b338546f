"""The three workloads: seeded inputs, one round of operations, and checks.

An operation is one system carried through its workload's chain.  A round
runs every operation of the workload once, in a fixed order, each starting
when the previous one ends (a closed loop with one caller).  A run repeats
whole rounds, so every run attempts the same operations.

Each operation's chain time covers the program's calls only; its outputs
are checked afterwards against :mod:`checks`, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import phdesc
import phdesc.cli
from phdesc import (
    ConditionsNotMet,
    ToleranceBreakdown,
    apply_feedback,
    certify_closed_loop,
    dissipation_inequality_check,
    index_reduction_rank_condition,
    pencil_report,
    power_balance_residual,
    random_ph,
    simulate_closed_loop,
    stabilizability_rank_condition,
    strict_passifiability_condition,
    synthesize_passifying,
    synthesize_stabilizing,
    validate,
    write_trajectory_csv,
)

import checks
from checks import CheckFailed, Plant

FAMILIES = {
    "plain": {},
    "s-definite": {"s_definite": True},
    "axis-mode": {"force_axis_modes": True},
    "singular": {"force_singular": True},
}

# No feedback can stabilize an undamped oscillator that the input cannot
# reach, so a feedback returned for an axis-mode system is a wrong verdict.
FAULT = "stabilizing feedback returned for an axis-mode system"

CLI_TIMEOUT_S = 120.0


@dataclass
class Op:
    """Outcome of one operation."""

    name: str
    seconds: float
    largest: bool           # in the workload's largest size class
    error: str | None = None
    fault: bool = False     # the error is the named fault


def generator_seed(seed: int, *key: int) -> int:
    """Seed for one generated system, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


class NamedFault(CheckFailed):
    """The check failure is the fault named in :data:`FAULT`."""


def _outcome(op: Op, check) -> Op:
    """Run ``check()``; record its failure on ``op``."""
    try:
        check()
    except CheckFailed as exc:
        op.error = str(exc)
        op.fault = isinstance(exc, NamedFault)
    return op


def _stage(label: str, fn, *args):
    """Run one check stage, prefixing its failure with the stage label."""
    try:
        return fn(*args)
    except CheckFailed as exc:
        raise type(exc)(f"{label}: {exc}") from None


def _own_verdict(plant, F, goal: str) -> bool:
    try:
        checks.certify(plant, F, goal)
        return True
    except CheckFailed:
        return False


def _check_pencil(plant, regular: bool, index, n_finite: int):
    own = checks.index_one_spectrum(plant.E, plant.J - plant.R)
    claims_index_one = bool(regular) and (index or 0) <= 1
    if (own is not None) != claims_index_one:
        raise CheckFailed(f"pencil regular={regular}, index={index}, but Z^T A Z "
                          f"{'nonsingular' if own is not None else 'singular'}")
    if own is not None and n_finite != own.size:
        raise CheckFailed(f"{n_finite} finite eigenvalues reported, rank E gives {own.size}")


def _check_conditions(plant, idx_ok: bool, pas_ok: bool):
    own_idx = checks.index_condition(plant)
    if own_idx is not None and own_idx != idx_ok:
        raise CheckFailed(f"index-reduction condition reported {idx_ok}, recomputed {own_idx}")
    own_pas = checks.passifiability_condition(plant)
    if own_pas is not None and own_pas != pas_ok:
        raise CheckFailed(f"passifiability condition reported {pas_ok}, recomputed {own_pas}")


def _check_stabilize(plant, F, witnesses, program_pass: bool, axis_family: bool):
    """F is None for a refusal (with its witnesses)."""
    if F is None:
        checks.check_refusal(plant, witnesses)
        return
    try:
        checks.certify(plant, F, "stabilize")
    except CheckFailed as exc:
        if axis_family:
            raise NamedFault(f"{FAULT} ({exc})") from None
        raise
    if not program_pass:
        raise CheckFailed("the certifier rejected a feedback that meets every definition")


def _check_passify(plant, F, program_pass: bool):
    own = checks.passifiability_condition(plant)
    if F is None:
        if own is True:
            raise CheckFailed("passification refused although the condition holds")
        return
    if own is False:
        raise CheckFailed("passifying feedback returned although the condition fails")
    checks.certify(plant, F, "passify")
    if not program_pass:
        raise CheckFailed("the certifier rejected a strictly passifying feedback")


def _csv_bytes(args) -> dict:
    return {"csv_bytes": float(os.path.getsize(args[0]))}


def instrument_cli(tracer):
    """Route phdesc.cli's calls into the other layers through spans."""
    wraps = {
        "load_system": "fileio.load_system",
        "pencil_report": "pencil.report",
        "stabilizability_rank_condition": "pencil.conditions",
        "index_reduction_rank_condition": "pencil.conditions",
        "strict_passifiability_condition": "pencil.conditions",
        "synthesize_stabilizing": "synthesis.stabilize",
        "synthesize_passifying": "synthesis.passify",
        "certify_closed_loop": "certify.certify",
        "simulate_closed_loop": "simulate.integrate",
        "write_trajectory_csv": "simulate.csv",
        "power_balance_residual": "model.power_balance",
        "dissipation_inequality_check": "model.dissipation_check",
    }
    for attr, name in wraps.items():
        tracer.wrap(phdesc.cli, attr, name,
                    after=_csv_bytes if attr == "write_trajectory_csv" else None)


def generate(tracer, n, m, gen_seed, family, validate_input=False):
    """One seeded system, optionally validated by the program (set-up)."""
    request = ("setup", gen_seed, family, n, m)
    s = tracer.call("generators.random_ph", request, random_ph, n, m, gen_seed,
                    **FAMILIES[family])
    if validate_input and not tracer.call("model.validate", request, validate, s).passed:
        raise RuntimeError(f"generated {family} system n={n} m={m} is invalid")
    return s


# --------------------------------------------------------------------------
# the phdesc CLI chain


def _system_doc(s) -> dict:
    """The system file format: n, m and row-major E, J, R, G, P, D = S + N."""
    doc = {"n": s.E.shape[0], "m": s.S.shape[0]}
    for name, M in (("E", s.E), ("J", s.J), ("R", s.R), ("G", s.G), ("P", s.P),
                    ("D", s.S + s.N)):
        doc[name] = np.asarray(M, dtype=float).tolist()
    return doc


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc), encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_feedback(path: Path) -> np.ndarray | None:
    if not path.exists():
        return None
    doc = _read_json(path)
    return np.asarray(doc["F"], dtype=float).reshape(doc["m"], doc["n"])


@dataclass
class CliSystem:
    name: str
    family: str
    plant: Plant
    dir: Path
    x0: str
    u: str


class CliChain:
    """The ``phdesc`` chain of one system, as processes or, when
    ``inprocess``, as calls to ``phdesc.cli.main`` (traced runs)."""

    SIM_T, SIM_DT = 0.2, 1e-3

    def __init__(self, root: Path, env: dict, workdir: Path, inprocess: bool):
        self.root = root
        self.env = env
        self.workdir = workdir
        self.inprocess = inprocess
        self.peak_rss_kb = 0

    def stage(self, name: str, family: str, s, rng) -> CliSystem:
        """Write the system file, a zero feedback and draw x0 and u."""
        plant = Plant.from_feedthrough(s.E, s.J, s.R, s.G, s.P, s.S + s.N)
        d = self.workdir / name.replace(" ", "_").replace("=", "")
        d.mkdir()
        _write_json(d / "sys.json", _system_doc(s))
        n, m = plant.E.shape[0], plant.S.shape[0]
        _write_json(d / "zero.json", {"m": m, "n": n, "F": np.zeros((m, n)).tolist()})
        x0 = ",".join(repr(float(v)) for v in rng.normal(size=n))
        u = ",".join(repr(float(v)) for v in rng.uniform(-0.5, 0.5, size=m))
        return CliSystem(name, family, plant, d, x0, u)

    def run(self, argv, tracer, request) -> tuple[int, float]:
        """Exit code and wall seconds of one ``phdesc`` command."""
        if self.inprocess:
            t0 = time.perf_counter()
            with contextlib.redirect_stderr(io.StringIO()):
                code = tracer.call(f"cli.{argv[0]}", request, phdesc.cli.main, list(argv))
            return code, time.perf_counter() - t0
        code, seconds, rss_kb = run_process([sys.executable, "-m", "phdesc.cli", *argv],
                                            self.root, self.env)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return code, seconds

    def run_chain(self, cs: CliSystem, tracer, request) -> Op:
        d = cs.dir
        for f in ("analyze.json", "stab.json", "F_stab.json", "cert.json", "pass.json",
                  "F_pass.json", "sim.json", "traj.csv"):
            (d / f).unlink(missing_ok=True)
        i = str(d / "sys.json")
        codes, seconds = {}, 0.0

        def run(*argv):
            nonlocal seconds
            codes[argv[0]], sec = self.run(argv, tracer, request)
            seconds += sec

        F_stab, F_pass, zero = d / "F_stab.json", d / "F_pass.json", d / "zero.json"
        run("analyze", "--input", i, "--report", str(d / "analyze.json"))
        run("stabilize", "--input", i, "--output", str(F_stab), "--report", str(d / "stab.json"))
        cert_F = F_stab if F_stab.exists() else zero
        run("certify", "--input", i, "--feedback", str(cert_F), "--goal", "stabilize",
            "--report", str(d / "cert.json"))
        run("passify", "--input", i, "--output", str(F_pass), "--report", str(d / "pass.json"))
        sim_F = next(p for p in (F_stab, F_pass, zero) if p.exists())
        run("simulate", "--input", i, "--feedback", str(sim_F), f"--x0={cs.x0}", f"--u={cs.u}",
            "--T", repr(self.SIM_T), "--dt", repr(self.SIM_DT),
            "--output", str(d / "traj.csv"), "--report", str(d / "sim.json"))
        op = Op(cs.name, seconds, largest=True)
        return _outcome(op, lambda: self.check_chain(cs, codes, cert_F, sim_F))

    def check_chain(self, cs: CliSystem, codes: dict, cert_F: Path, sim_F: Path):
        plant, d = cs.plant, cs.dir
        if codes["analyze"] != 0:
            raise CheckFailed(f"analyze: exit {codes['analyze']}")
        doc = _read_json(d / "analyze.json")
        pen, cond = doc["pencil"], doc["conditions"]
        _stage("analyze", _check_pencil, plant, pen["regular"], pen["index"],
               len(pen["finite_eigenvalues"]))
        _stage("analyze", _check_conditions, plant, cond["index_reducibility"]["holds"],
               cond["strict_passifiability"]["holds"])

        stab = _read_json(d / "stab.json")
        F = _read_feedback(d / "F_stab.json")
        passed = bool(stab.get("certification", {}).get("overall"))
        if stab["conditions_met"] != (F is not None):
            raise CheckFailed("stabilize: report and feedback file disagree")
        holds = cond["stabilizability"]["holds"] and cond["index_reducibility"]["holds"]
        if holds != stab["conditions_met"]:
            raise CheckFailed("stabilize: verdict differs from analyze's conditions")
        witnesses = [complex(a, b) for a, b in stab.get("witnesses", [])]
        _stage("stabilize", _check_stabilize, plant, F, witnesses, passed,
               cs.family == "axis-mode")
        if codes["stabilize"] != (0 if F is not None and passed else 1):
            raise CheckFailed(f"stabilize: exit {codes['stabilize']}")

        own = _own_verdict(plant, _read_feedback(cert_F), "stabilize")
        if codes["certify"] != (0 if own else 1):
            raise CheckFailed(f"certify: exit {codes['certify']}, own verdict {own}")
        if _read_json(d / "cert.json")["overall"] != own:
            raise CheckFailed("certify: report overall differs from own verdict")

        pas = _read_json(d / "pass.json")
        F_pass = _read_feedback(d / "F_pass.json")
        passed = bool(pas.get("certification", {}).get("overall"))
        if pas["conditions_met"] != (F_pass is not None):
            raise CheckFailed("passify: report and feedback file disagree")
        if pas["conditions_met"] != cond["strict_passifiability"]["holds"]:
            raise CheckFailed("passify: verdict differs from analyze's condition")
        _stage("passify", _check_passify, plant, F_pass, passed)
        if codes["passify"] != (0 if F_pass is not None and passed else 1):
            raise CheckFailed(f"passify: exit {codes['passify']}")

        F_sim = _read_feedback(sim_F)
        A, *_ = checks.closed_loop(plant, F_sim)
        if checks.index_one_spectrum(plant.E, A) is None:
            if codes["simulate"] != 1 or (d / "sim.json").exists():
                raise CheckFailed(f"simulate: exit {codes['simulate']} on a loop of index > 1")
            return
        if codes["simulate"] != 0:
            raise CheckFailed(f"simulate: exit {codes['simulate']}")
        sim = _read_json(d / "sim.json")
        steps = int(round(self.SIM_T / self.SIM_DT))
        if sim["steps"] != steps or sim["dissipation_inequality"] is not True:
            raise CheckFailed(f"simulate: report {sim}")
        _stage("simulate", checks.check_trajectory_file, plant, F_sim, d / "traj.csv",
               self.SIM_DT, steps)


def run_process(cmd, cwd: Path, env: dict) -> tuple[int, float, int]:
    """Run one process to its end: exit code, wall seconds, peak RSS in KB."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


class Workload:
    """Set-up happens in the constructor; ``run_round`` runs one round.

    ``cli_systems`` lists the systems whose ``phdesc`` chain a traced run
    also replays in-process (see :meth:`traced_extras`), so that every layer
    has spans on every workload.
    """

    def __init__(self, workdir: Path, root: Path, env: dict, inprocess_cli: bool):
        self.workdir = workdir
        self.cli = CliChain(root, env, workdir, inprocess_cli)
        self.cli_systems: list[CliSystem] = []

    def run_round(self, tracer, round_index: int) -> list[Op]:
        raise NotImplementedError

    def cli_chains(self, tracer, round_index) -> list[Op]:
        return [self.cli.run_chain(cs, tracer, ("cli", round_index, i))
                for i, cs in enumerate(self.cli_systems)]

    def traced_extras(self, tracer) -> list[Op]:
        """Operations a traced run adds after its rounds."""
        return self.cli_chains(tracer, "extra")

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliBatch(Workload):
    """Small systems through five ``phdesc`` processes each, plus the
    paper's two scalar examples."""

    def __init__(self, seed, workdir, tracer, root, env, inprocess_cli):
        super().__init__(workdir, root, env, inprocess_cli)
        rng = np.random.default_rng([seed, 1])
        for k, family in enumerate(FAMILIES):
            if family == "axis-mode":
                # Fixed, not drawn from the seed: a wrong verdict here fails
                # on every run, never on some seeds only.
                n, m, gen = 12, 1, 0
            else:
                n, m = int(rng.integers(3, 13)), int(rng.integers(1, 5))
                gen = generator_seed(seed, 1, k)
            s = generate(tracer, n, m, gen, family, validate_input=True)
            self.cli_systems.append(self.cli.stage(f"{family} n={n} m={m}", family, s, rng))
        self.examples = []
        for goal, R, S in (("stabilize", 0.0, 0.0), ("passify", 1.0, 1.0)):
            plant = Plant(*(np.array([[v]]) for v in (1.0, 0.0, R, 1.0, 0.0, S, 0.0)))
            d = workdir / f"example-{goal}"
            d.mkdir()
            _write_json(d / "sys.json", _system_doc(plant))
            self.examples.append((goal, plant, d))

    def run_round(self, tracer, round_index):
        ops = self.cli_chains(tracer, round_index)
        for j, (goal, plant, d) in enumerate(self.examples):
            ops.append(self.run_example(goal, plant, d, tracer, ("example", round_index, j)))
        return ops

    def traced_extras(self, tracer):
        # The chains are this workload's own operations: nothing to add.
        return []

    def run_example(self, goal, plant, d: Path, tracer, request) -> Op:
        (d / "F.json").unlink(missing_ok=True)
        argv = (goal, "--input", str(d / "sys.json"), "--output", str(d / "F.json"),
                "--report", str(d / "rep.json"))
        code, seconds = self.cli.run(argv, tracer, request)
        op = Op(f"scalar {goal} example", seconds, largest=False)
        return _outcome(op, lambda: self.check_example(goal, plant, d, code))

    @staticmethod
    def check_example(goal, plant, d: Path, code: int):
        if code != 0:
            raise CheckFailed(f"{goal} example: exit {code}")
        F = _read_feedback(d / "F.json")
        if F is None or abs(F[0, 0] + 2.0) > 1e-12:
            raise CheckFailed(f"{goal} example: feedback {F}, expected -2")
        spectrum = checks.certify(plant, F, goal)
        if goal == "stabilize":
            reported = _read_json(d / "rep.json")["certification"]["spectrum"]
            if (len(reported) != 1 or abs(reported[0][0] + 2.0) > 1e-12
                    or abs(reported[0][1]) > 1e-12 or abs(spectrum[0] + 2.0) > 1e-12):
                raise CheckFailed(f"stabilize example: spectrum {reported}, expected {{-2}}")
        else:
            *_, W = checks.closed_loop(plant, F)
            lam = np.linalg.eigvalsh(W)
            want = np.array([2.0 - np.sqrt(2.0), 2.0 + np.sqrt(2.0)])
            if np.abs(lam - want).max() > 1e-12:
                raise CheckFailed(f"passify example: W eigenvalues {lam}, expected 2 -/+ sqrt 2")

    def peak_rss_kb(self):
        return self.cli.peak_rss_kb


# --------------------------------------------------------------------------
# in-process workloads


def _conditions(s):
    stab, witnesses = stabilizability_rank_condition(s)
    return stab, witnesses, index_reduction_rank_condition(s), strict_passifiability_condition(s)


class SynthLarge(Workload):
    """Large systems through validate, pencil analysis, the existence
    conditions, both syntheses and both certifications, in-process."""

    SIZES = (60, 150, 300)
    NARROW_N, NARROW_SEEDS = 60, range(12)

    def __init__(self, seed, workdir, tracer, root, env, inprocess_cli):
        super().__init__(workdir, root, env, inprocess_cli)
        rng = np.random.default_rng([seed, 2])
        self.systems = []
        for n in self.SIZES:
            for k, family in enumerate(FAMILIES):
                s = generate(tracer, n, n // 10, generator_seed(seed, 2, n, k), family)
                self.systems.append((f"{family} n={n}", family, s, n == self.SIZES[-1]))
                if n == self.SIZES[0]:
                    self.cli_systems.append(self.cli.stage(f"cli {family} n={n}", family, s, rng))
        # Narrow-input axis-mode systems from a fixed seed range, whatever
        # the workload seed, and not filtered by verdict.
        for gen in self.NARROW_SEEDS:
            s = generate(tracer, self.NARROW_N, 1, gen, "axis-mode")
            self.systems.append((f"axis-mode n={self.NARROW_N} m=1 seed={gen}",
                                 "axis-mode", s, False))

    def run_round(self, tracer, round_index):
        ops = []
        for i, (name, family, s, largest) in enumerate(self.systems):
            t0 = time.perf_counter()
            out = self.chain(s, tracer, (round_index, i))
            op = Op(name, time.perf_counter() - t0, largest)
            ops.append(_outcome(op, lambda: self.check(s, out, family == "axis-mode")))
        return ops

    @staticmethod
    def chain(s, tracer, req) -> dict:
        call = tracer.call
        out = {"valid": call("model.validate", req, validate, s),
               "pencil": call("pencil.report", req, pencil_report, s.E, s.A),
               "conditions": call("pencil.conditions", req, _conditions, s)}
        try:
            F, _ = call("synthesis.stabilize", req, synthesize_stabilizing, s)
            out["stabilize"] = (F, [], call("certify.certify", req, certify_closed_loop,
                                            s, F, "stabilize").overall)
        except ConditionsNotMet as exc:
            out["stabilize"] = (None, exc.witnesses, False)
        except ToleranceBreakdown:
            out["stabilize"] = "breakdown"
        try:
            F = call("synthesis.passify", req, synthesize_passifying, s)
            out["passify"] = (F, call("certify.certify", req, certify_closed_loop,
                                      s, F, "passify").overall)
        except ConditionsNotMet:
            out["passify"] = (None, False)
        return out

    @staticmethod
    def check(s, out, axis_family: bool):
        if not out["valid"].passed:
            raise CheckFailed("validate: a generated system was reported invalid")
        rep = out["pencil"]
        _stage("pencil", _check_pencil, s, rep.regular, rep.index, rep.finite_eigenvalues.size)
        stab_ok, _, idx_ok, pas_ok = out["conditions"]
        _stage("conditions", _check_conditions, s, idx_ok, pas_ok)
        if out["stabilize"] != "breakdown":
            F, witnesses, passed = out["stabilize"]
            if (F is not None) != (stab_ok and idx_ok):
                raise CheckFailed("stabilize: verdict differs from the existence conditions")
            _stage("stabilize", _check_stabilize, s, F, witnesses, passed, axis_family)
        F, passed = out["passify"]
        if (F is not None) != pas_ok:
            raise CheckFailed("passify: verdict differs from the passifiability condition")
        _stage("passify", _check_passify, s, F, passed)


class SimulateLong(Workload):
    """Certified closed loops integrated over long horizons, with the energy
    checks and the CSV export that ``phdesc simulate`` runs."""

    SIZES = ((5, 2), (20, 2), (60, 6))
    STEPS, DT = 10000, 1e-3

    def __init__(self, seed, workdir, tracer, root, env, inprocess_cli):
        super().__init__(workdir, root, env, inprocess_cli)
        rng = np.random.default_rng([seed, 3])
        self.systems = []
        for k, (n, m) in enumerate(self.SIZES):
            gen = generator_seed(seed, 3, k)
            s = generate(tracer, n, m, gen, "plain", validate_input=True)
            req = ("setup", gen, "plain", n, m)
            F, _ = tracer.call("synthesis.stabilize", req, synthesize_stabilizing, s)
            tracer.call("certify.certify", req, certify_closed_loop, s, F, "stabilize")
            checks.certify(s, F, "stabilize")
            x0 = rng.normal(size=n)
            u = rng.uniform(-0.5, 0.5, size=m)
            self.systems.append((f"n={n} m={m}", s, F, x0, u, k == len(self.SIZES) - 1))
            if k == 0:
                self.cli_systems.append(self.cli.stage(f"cli plain n={n}", "plain", s, rng))

    def run_round(self, tracer, round_index):
        ops = []
        for i, (name, s, F, x0, u, largest) in enumerate(self.systems):
            path = self.workdir / f"traj-{i}.csv"
            t0 = time.perf_counter()
            out = self.chain(s, F, x0, u, path, tracer, (round_index, i))
            op = Op(name, time.perf_counter() - t0, largest)
            ops.append(_outcome(op, lambda: self.check(s, F, out, path)))
            path.unlink()
        return ops

    @classmethod
    def chain(cls, s, F, x0, u, path, tracer, req) -> dict:
        call = tracer.call
        traj = call("simulate.integrate", req, simulate_closed_loop, s, F, x0, u=u,
                    T=cls.STEPS * cls.DT, dt=cls.DT)
        closed = apply_feedback(s, F)
        call("simulate.csv", req, write_trajectory_csv, path, traj, closed)
        if tracer.enabled:
            tracer.note_last(_csv_bytes((path,)))
        return {"traj": traj,
                "residual": call("model.power_balance", req, power_balance_residual, closed, traj),
                "dissipative": call("model.dissipation_check", req,
                                    dissipation_inequality_check, closed, traj)}

    @classmethod
    def check(cls, s, F, out, path):
        traj = out["traj"]
        if traj.x.shape[0] != cls.STEPS + 1:
            raise CheckFailed(f"simulate: {traj.x.shape[0]} samples, expected {cls.STEPS + 1}")
        if out["dissipative"] is not True:
            raise CheckFailed("dissipation_inequality_check: reported a violation")
        r = out["residual"]
        if not (np.isfinite(r) and r >= 0.0):
            raise CheckFailed(f"power_balance_residual: {r}")
        X = _stage("csv", checks.check_trajectory_file, s, F, path, cls.DT, cls.STEPS)
        if not np.array_equal(X, traj.x):
            raise CheckFailed("csv: states differ from the returned trajectory")


WORKLOADS = {"cli-batch": CliBatch, "synth-large": SynthLarge, "simulate-long": SimulateLong}
