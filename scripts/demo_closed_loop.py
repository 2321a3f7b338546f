#!/usr/bin/env python3
"""End-to-end demo: generate a system, synthesize both feedbacks, certify,
simulate, and drop all artifacts into an output directory.

    python3 scripts/demo_closed_loop.py --n 5 --m 2 --seed 11 --out demo_out
"""

import argparse
import json
from pathlib import Path

import numpy as np

from phdesc import (
    apply_feedback,
    certify_closed_loop,
    pencil_report,
    random_ph,
    simulate_closed_loop,
    stabilizability_rank_condition,
    strict_passifiability_condition,
    synthesize_passifying,
    synthesize_stabilizing,
    validate,
    write_trajectory_csv,
)
from phdesc.errors import ConditionsNotMet
from phdesc.fileio import save_feedback, save_system, write_report


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--s-definite", action="store_true")
    ap.add_argument("--out", default="demo_out")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sys_ = random_ph(args.n, args.m, args.seed, s_definite=args.s_definite)
    save_system(out / "system.json", sys_, metadata={"seed": args.seed})

    print(f"system n={sys_.n} m={sys_.m}: validate passed={validate(sys_).passed}")
    rep = pencil_report(sys_.E, sys_.A)
    print(f"open-loop pencil: {rep.stability_class.value}, index {rep.index}, "
          f"spectrum {np.round(rep.finite_eigenvalues, 3)}")
    ok, wit = stabilizability_rank_condition(sys_)
    print(f"stabilizability condition: {ok}" + (f", witnesses {wit}" if wit else ""))

    try:
        F, trace = synthesize_stabilizing(sys_)
        cert = certify_closed_loop(sys_, F, goal="stabilize")
        save_feedback(out / "F_stabilize.json", F)
        write_report(out / "cert_stabilize.json", cert.to_dict())
        print(f"stabilize: certified={cert.overall}, abscissa={cert.pencil.spectral_abscissa:.4f}, "
              f"block sizes mu={trace.blocks()['mu']}")
        rng = np.random.default_rng(args.seed)
        traj = simulate_closed_loop(sys_, F, rng.normal(size=sys_.n),
                                    u=rng.normal(size=sys_.m), T=2.0, dt=1e-3)
        write_trajectory_csv(out / "trajectory.csv", traj, apply_feedback(sys_, F))
        print(f"simulated {traj.t.size - 1} steps -> {out / 'trajectory.csv'}")
    except ConditionsNotMet as exc:
        print(f"stabilize refused: {exc}")

    print(f"passifiability condition: {strict_passifiability_condition(sys_)}")
    try:
        Fp = synthesize_passifying(sys_)
        certp = certify_closed_loop(sys_, Fp, goal="passify")
        save_feedback(out / "F_passify.json", Fp)
        write_report(out / "cert_passify.json", certp.to_dict())
        print(f"passify: certified={certp.overall}, lambda_min(W)={certp.w.min_eigenvalue:.4e}")
    except ConditionsNotMet as exc:
        print(f"passify refused: {exc}")

    print(json.dumps({"artifacts": sorted(p.name for p in out.iterdir())}, indent=2))


if __name__ == "__main__":
    main()
