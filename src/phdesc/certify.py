"""Independent certification of closed-loop properties.

The certifier trusts nothing from the synthesis path: it re-forms the closed
loop from the plant and the feedback matrix, re-classifies the dissipation
matrix, and re-runs the full pencil analysis.  The one thing it shares with
earlier analyses of the same plant is the SVD of E, which feedback keeps:
:func:`phdesc.linalg.e_svd` hands back the bits a fresh SVD of that E would
give, so every verdict is still reached from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fileio import complex_pairs
from .linalg import DEFAULT_TOL, ToleranceConfig, classify_definiteness
from .model import PHSystem, apply_feedback, dissipation_matrix
from .pencil import PencilReport, StabilityClass, pencil_report

GOALS = ("stabilize", "passify")


@dataclass(frozen=True)
class CertReport:
    """Per-property verdicts for a closed loop, with numerical margins."""

    goal: str
    ph_structure: bool
    strictly_passive: bool
    lambda_min_w: float
    regular: bool
    index: int | None
    asymptotically_stable: bool
    spectral_abscissa: float | None
    spectrum: np.ndarray
    psd_tol: float
    axis_tol: float
    stability_margin: float
    overall: bool
    closed_loop: PHSystem = field(repr=False)
    pencil: PencilReport = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "kind": "certification",
            "goal": self.goal,
            "overall": bool(self.overall),
            "checks": {
                "ph_structure": {
                    "passed": bool(self.ph_structure),
                    "lambda_min_w": float(self.lambda_min_w),
                    "tolerance": self.psd_tol,
                },
                "regular": {"passed": bool(self.regular)},
                "index_at_most_one": {
                    "passed": bool(self.regular and (self.index or 0) <= 1),
                    "index": self.index,
                },
                "asymptotically_stable": {
                    "passed": bool(self.asymptotically_stable),
                    "spectral_abscissa": self.spectral_abscissa,
                    "tolerance": self.stability_margin,
                },
                "strictly_passive": {
                    "passed": bool(self.strictly_passive),
                    "lambda_min_w": float(self.lambda_min_w),
                    "tolerance": self.psd_tol,
                },
            },
            "spectrum": complex_pairs(self.spectrum),
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
    forces asymptotic stability, which is still reported).
    """
    if goal not in GOALS:
        raise ValueError(f"goal must be one of {GOALS}")
    closed = apply_feedback(sys, F)
    W = dissipation_matrix(closed)
    d = classify_definiteness(W, tol)
    rep = pencil_report(closed.E, closed.A, tol)
    index_ok = rep.regular and (rep.index or 0) <= 1
    stable = rep.stability_class is StabilityClass.ASYMPTOTICALLY_STABLE
    if goal == "stabilize":
        overall = d.is_semidefinite and index_ok and stable
    else:
        overall = d.is_definite and index_ok
    return CertReport(
        goal=goal,
        ph_structure=d.is_semidefinite,
        strictly_passive=d.is_definite,
        lambda_min_w=d.min_eigenvalue,
        regular=rep.regular,
        index=rep.index,
        asymptotically_stable=stable,
        spectral_abscissa=rep.spectral_abscissa,
        spectrum=rep.finite_eigenvalues,
        psd_tol=tol.psd_tol,
        axis_tol=tol.axis_tol,
        stability_margin=tol.stability_margin,
        overall=bool(overall),
        closed_loop=closed,
        pencil=rep,
    )
