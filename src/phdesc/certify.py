"""Independent certification of closed-loop properties.

The certifier trusts nothing from the synthesis path: it re-forms the closed
loop from the plant and the feedback matrix, re-classifies the dissipation
matrix, and re-runs the full pencil analysis.  What it shares with earlier
analyses of the same plant comes from two memos of :mod:`phdesc.pencil`,
which hand back the bits a fresh computation would give.  One is the
decomposition of E, which feedback keeps: for a symmetric E one ``eigh``,
whose factors give the staircase its SVD and whose eigenvalues give the
report's dissipation bound ``||E||_2`` and whether E is PSD.  The other is
the open-loop report of :func:`phdesc.pencil.pencil_report`, and only when
``B F == 0`` exactly, so that the closed loop's A has the same bits as the
plant's.  It does not read :func:`phdesc.pencil.feedback_analysis`.  Every
verdict is still reached from scratch.

The overall verdict reads only its goal's checks, in order.  The passify
verdict reads W and the index but no spectrum: W > 0 already forces
asymptotic stability.  W's verdict is proved by one Cholesky factorization
where it can (see :class:`phdesc.linalg.Definiteness`); its eigenvalues,
the reported ``lambda_min_w`` and band, are computed when first read.  The
stabilize verdict reads no spectrum either when the closed loop's
:attr:`phdesc.pencil.PencilReport.dissipation_bound` keeps every
eigenvalue of the regular loop more than ten times ``stability_margin``
inside the left half plane, the case for a loop with R~ > 0 and E PSD;
otherwise it reads the closed loop's stability class.  The closed loop's
spectrum is computed when :meth:`CertReport.to_dict` (or a caller) first
reads it, so a spectrum-stage refusal rises there and not in
:func:`certify_closed_loop` when the bound decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .fileio import complex_pairs, finite_or_none
from .linalg import DEFAULT_TOL, Definiteness, ToleranceConfig
from .model import PHSystem, apply_feedback, dissipation_matrix
from .pencil import PencilReport, StabilityClass, pencil_report

GOALS = ("stabilize", "passify")

# The checks whose conjunction is each goal's overall verdict.
_REQUIRED = {"stabilize": ("ph_structure", "index_at_most_one", "asymptotically_stable"),
             "passify": ("strictly_passive", "index_at_most_one")}

# Per check, whether it passed and what it reports beside that.  A verdict
# reads only the first, so only the stability check reads the spectrum, and
# not even it when the dissipation bound decided.
_CHECKS = {
    "ph_structure": (
        lambda c: c.w.is_semidefinite,
        lambda c: {"lambda_min_w": finite_or_none(c.w.min_eigenvalue),
                   "tolerance": finite_or_none(c.w.band)}),
    "regular": (lambda c: c.pencil.regular, lambda c: {}),
    "index_at_most_one": (
        lambda c: c.pencil.regular and c.pencil.index <= 1,
        lambda c: {"index": c.pencil.index}),
    "asymptotically_stable": (
        lambda c: c.stable_by_bound
        or c.pencil.stability_class is StabilityClass.ASYMPTOTICALLY_STABLE,
        lambda c: {"spectral_abscissa": c.pencil.spectral_abscissa,
                   "tolerance": c.tol.stability_margin}),
    "strictly_passive": (
        lambda c: c.w.is_definite,
        lambda c: {"lambda_min_w": finite_or_none(c.w.min_eigenvalue),
                   "tolerance": finite_or_none(c.w.band)}),
}


@dataclass(frozen=True)
class CertReport:
    """Per-property verdicts for a closed loop, read off its pencil report
    and the definiteness of its dissipation matrix W.

    ``stable_by_bound`` is True when the dissipation bound of ``pencil``
    (:attr:`PencilReport.dissipation_bound`) alone decided asymptotic
    stability (goal "stabilize" only); the stability check then reads no
    spectrum.
    """

    goal: str
    overall: bool = field(init=False)
    closed_loop: PHSystem = field(repr=False)
    pencil: PencilReport = field(repr=False)
    w: Definiteness
    tol: ToleranceConfig
    stable_by_bound: bool

    def __post_init__(self):
        object.__setattr__(self, "overall", all(
            bool(_CHECKS[name][0](self)) for name in _REQUIRED[self.goal]))

    def to_dict(self) -> dict:
        return {
            "kind": "certification",
            "goal": self.goal,
            "overall": self.overall,
            "checks": {name: {"passed": bool(passed(self)), **details(self)}
                       for name, (passed, details) in _CHECKS.items()},
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
    A regular loop with W PSD whose report's dissipation bound lies in the
    left half plane and exceeds ``10 * stability_margin`` is
    asymptotically stable without an eigensolve; any other loop reads its
    stability class.  For goal "passify" it requires the dissipation matrix
    positive definite together with regularity and index at most one
    (definiteness already forces asymptotic stability, which is still
    reported, but not read).
    """
    if goal not in GOALS:
        raise ValueError(f"goal must be one of {GOALS}")
    closed = apply_feedback(sys, F)
    A = closed.A
    # W is formed again from the closed loop when read, not kept.
    w = Definiteness(partial(dissipation_matrix, closed), tol)
    rep = pencil_report(closed.E, A, tol)
    bound = rep.dissipation_bound
    stable = (goal == "stabilize" and rep.regular and w.is_semidefinite
              and bound is not None and bound.left_half_plane
              and bound.exceeds(10.0 * tol.stability_margin))
    return CertReport(goal=goal, closed_loop=closed, pencil=rep, w=w, tol=tol,
                      stable_by_bound=stable)
