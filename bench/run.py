"""phdesc benchmark: seeded workloads, independently checked outputs, and
end-to-end or per-layer metrics.

Run from the repository root (nothing needs building or installing):

    python3 bench/run.py --workload synth-large --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same workload with spans and LAPACK call counts and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the result object; the line before it records the environment.
A full record also goes to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# One BLAS thread: with two, pencil_report times on one input swing by 40x.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("cli-batch", "synth-large", "simulate-long")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_version,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in THREAD_PIN}, "commit": commit}


def setup_probe(args, workdir: Path) -> float:
    """Time one set-up from a fresh interpreter: import, generation, and
    synthesis for simulate-long."""
    t0 = time.perf_counter()
    import workloads
    from spans import NullTracer

    workloads.WORKLOADS[args.workload](args.seed, workdir, NullTracer(), ROOT, child_env(),
                                       inprocess_cli=False)
    return time.perf_counter() - t0


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def more_rounds(t0: float, done: int, seconds: float) -> bool:
    """Whether another round, as long as the mean one so far, still ends
    within ``seconds``: a run never overshoots by most of a round."""
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / done <= seconds


def run_rounds(wl, seconds: float, tracer) -> list[list]:
    """Whole rounds for ``seconds``; at least one."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or more_rounds(t0, len(rounds), seconds):
        rounds.append(wl.run_round(tracer, len(rounds)))
    return rounds


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(wl, rounds, setup_samples) -> dict:
    """Every round runs the same operations, so each operation's time is
    the median over rounds: a stall in one round does not move it."""
    per_op = [statistics.median(op.seconds for op in ops) for ops in zip(*rounds)]
    good = sum(1 for op in rounds[0] if op.error is None)
    largest = [t for t, op in zip(per_op, rounds[0]) if op.largest]
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(wl.peak_rss_kb() / 1024.0, "MB"),
        "systems_per_s": metric(good / sum(per_op), "1/s"),
        "chain_ms": metric(1e3 * statistics.fmean(largest), "ms"),
    }


PER_LAYER_MS = (
    "generators.random_ph", "cli.analyze", "cli.stabilize", "cli.passify", "cli.certify",
    "cli.simulate", "fileio.load_system", "model.validate", "pencil.report",
    "pencil.conditions", "synthesis.stabilize", "synthesis.passify", "certify.certify",
    "simulate.integrate", "simulate.csv", "model.power_balance", "model.dissipation_check",
)
LAYER_SPANS = {
    "pencil": ("pencil.report", "pencil.conditions"),
    "synthesis": ("synthesis.stabilize", "synthesis.passify"),
    "certify": ("certify.certify",),
}


def per_layer(own, replay, import_s: float, cli_import_s: list[float], overhead: float) -> dict:
    """Per-layer metrics from the workload's own spans; a layer the workload
    does not call is measured on the CLI replay's spans instead."""
    def spans(*names):
        return own if own.has(*names) else replay

    out = {"setup.import_ms": metric(1e3 * import_s, "ms"),
           "cli.import_ms": metric(1e3 * statistics.median(cli_import_s), "ms")}
    for name in PER_LAYER_MS:
        out[f"{name}_ms"] = metric(spans(name).mean_ms(name), "ms")
    for layer, names in LAYER_SPANS.items():
        for family in ("svd", "eig"):
            out[f"{layer}.{family}_calls"] = metric(spans(*names).mean_count(names, family),
                                                    "count")
    sim = ("simulate.integrate",)
    out["simulate.svd_calls"] = metric(spans(*sim).mean_count(sim, "svd"), "count")
    out["simulate.lu_solve_calls"] = metric(spans(*sim).mean_count(sim, "lu_solve"), "count")
    out["simulate.csv_bytes"] = metric(
        spans("simulate.csv").mean_value("simulate.csv", "csv_bytes"), "bytes")
    out["trace.overhead_pct"] = metric(overhead, "%")
    return out


def run_traced(args, wl_cls, workdir, import_s):
    from spans import NullTracer, Tracer
    from workloads import instrument_cli, run_process

    tracer = Tracer()
    with tracer:
        wl = wl_cls(args.seed, workdir, tracer, ROOT, child_env(), inprocess_cli=True)
    cli_import = [run_process([sys.executable, "-c", "import phdesc"], ROOT, child_env())[1]
                  for _ in range(IMPORT_SAMPLES)]
    untraced = NullTracer()
    # Round 0 warms up; then traced and untraced rounds alternate, so the
    # overhead compares rounds run under the same conditions.
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < 3 or more_rounds(t0, len(rounds), args.seconds):
        i = len(rounds)
        if i % 2 == 1:
            with tracer:
                instrument_cli(tracer)
                rounds.append(wl.run_round(tracer, i))
        else:
            rounds.append(wl.run_round(untraced, i))
    replay = Tracer()
    with replay:
        instrument_cli(replay)
        extras = wl.traced_extras(replay)
    sums = [sum(op.seconds for op in r) for r in rounds]
    traced = statistics.median(sums[1::2])
    plain = statistics.median(sums[2::2])
    metrics = per_layer(tracer, replay, import_s, cli_import, 100.0 * (traced / plain - 1.0))
    return wl, rounds, extras, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind like an exception, so children are killed and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "phdesc" / "__init__.py").is_file():
        print(f"error: no phdesc sources at {SRC}; run from a phdesc checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PIN)
    sys.path.insert(0, str(SRC))
    workdir = BENCH / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            print(f"{setup_probe(args, workdir):.9f}")
            return 0
        t0 = time.perf_counter()
        import phdesc  # noqa: F401  (timed: this is the import every CLI call pays)
        import_s = time.perf_counter() - t0
        import workloads
        from spans import NullTracer

        wl_cls = workloads.WORKLOADS[args.workload]
        if args.trace:
            wl, rounds, extras, metrics = run_traced(args, wl_cls, workdir, import_s)
        else:
            setup_samples = measure_setup(args)
            wl = wl_cls(args.seed, workdir, NullTracer(), ROOT, child_env(), inprocess_cli=False)
            rounds, extras = run_rounds(wl, args.seconds, NullTracer()), []
            metrics = end_to_end(wl, rounds, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    # The CLI replay a traced run adds is checked like any operation, but
    # left out of the counts, so failed is the same share of attempted in
    # traced and untraced runs.
    ops = [op for r in rounds for op in r]
    failures = [op for op in ops + extras if op.error is not None]
    result = {"correct": all(op.fault for op in failures), "attempted": len(ops),
              "failed": sum(1 for op in ops if op.error is not None), "metrics": metrics}
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "rounds": len(rounds),
              "round_seconds": [sum(op.seconds for op in r) for r in rounds],
              "failures": sorted({f"{op.name}: {op.error}" for op in failures}), **result}
    if not args.trace:
        record["setup_samples_s"] = setup_samples
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in record["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:>28} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
