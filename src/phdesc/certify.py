"""Independent certification of closed-loop properties.

The certifier trusts nothing from the synthesis path: it re-forms the closed
loop from the plant and the feedback matrix, re-classifies the dissipation
matrix, and re-runs the full pencil analysis.  What it shares with earlier
analyses of the same plant comes from two memos of :mod:`phdesc.pencil`,
which hand back the bits a fresh computation would give.  One is the SVD of
E, which feedback keeps.  The other is the open-loop report of
:func:`phdesc.pencil.pencil_report`, and only when ``B F == 0`` exactly,
so that the closed loop's A has the same bits as the plant's.  It does not
read :func:`phdesc.pencil.feedback_analysis`.  Every verdict is still
reached from scratch.

The overall verdict reads only its goal's checks, in order.  The passify
verdict reads W and the index but no spectrum: W > 0 already forces
asymptotic stability.  The closed loop's spectrum is computed when
:meth:`CertReport.to_dict` (or a caller) first reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fileio import complex_pairs
from .linalg import DEFAULT_TOL, Definiteness, ToleranceConfig, classify_definiteness
from .model import PHSystem, apply_feedback, dissipation_matrix
from .pencil import PencilReport, StabilityClass, pencil_report

GOALS = ("stabilize", "passify")

# The checks whose conjunction is each goal's overall verdict.
_REQUIRED = {"stabilize": ("ph_structure", "index_at_most_one", "asymptotically_stable"),
             "passify": ("strictly_passive", "index_at_most_one")}

# Each check reads only what it reports: the spectrum only for stability.
_CHECKS = {
    "ph_structure": lambda rep, w, tol: {
        "passed": bool(w.is_semidefinite),
        "lambda_min_w": float(w.min_eigenvalue),
        "tolerance": w.band,
    },
    "regular": lambda rep, w, tol: {"passed": bool(rep.regular)},
    "index_at_most_one": lambda rep, w, tol: {
        "passed": bool(rep.regular and rep.index <= 1),
        "index": rep.index,
    },
    "asymptotically_stable": lambda rep, w, tol: {
        "passed": rep.stability_class is StabilityClass.ASYMPTOTICALLY_STABLE,
        "spectral_abscissa": rep.spectral_abscissa,
        "tolerance": tol.stability_margin,
    },
    "strictly_passive": lambda rep, w, tol: {
        "passed": bool(w.is_definite),
        "lambda_min_w": float(w.min_eigenvalue),
        "tolerance": w.band,
    },
}


@dataclass(frozen=True)
class CertReport:
    """Per-property verdicts for a closed loop, read off its pencil report
    and the definiteness of its dissipation matrix W."""

    goal: str
    overall: bool
    closed_loop: PHSystem = field(repr=False)
    pencil: PencilReport = field(repr=False)
    w: Definiteness
    tol: ToleranceConfig

    def to_dict(self) -> dict:
        return {
            "kind": "certification",
            "goal": self.goal,
            "overall": bool(self.overall),
            "checks": {name: check(self.pencil, self.w, self.tol)
                       for name, check in _CHECKS.items()},
            "spectrum": complex_pairs(self.pencil.finite_eigenvalues),
        }


def certify_closed_loop(
    sys: PHSystem,
    F,
    goal: str = "stabilize",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CertReport:
    """Close the loop with F and certify every property from scratch.

    For goal "stabilize" the overall verdict requires the closed-loop
    dissipation matrix PSD, regularity, index at most one, and all finite
    eigenvalues at least ``stability_margin`` inside the left half plane.
    For goal "passify" it requires the dissipation matrix positive definite
    together with regularity and index at most one (definiteness already
    forces asymptotic stability, which is still reported, but not read).
    """
    if goal not in GOALS:
        raise ValueError(f"goal must be one of {GOALS}")
    closed = apply_feedback(sys, F)
    w = classify_definiteness(dissipation_matrix(closed), tol)
    rep = pencil_report(closed.E, closed.A, tol)
    overall = all(_CHECKS[k](rep, w, tol)["passed"] for k in _REQUIRED[goal])
    return CertReport(goal=goal, overall=overall, closed_loop=closed, pencil=rep, w=w, tol=tol)
