"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class PhdescError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatch(PhdescError, ValueError):
    """Matrix or vector dimensions are inconsistent with the operation."""


class NotSquare(ShapeMismatch):
    """A square matrix was required."""


class NotSkew(PhdescError, ValueError):
    """Skew-symmetry violation beyond tolerance."""


class NotPSD(PhdescError, ValueError):
    """Positive semidefiniteness violation beyond tolerance."""


class GridTooShort(PhdescError, ValueError):
    """A time grid with at least three points was required."""


class ToleranceBreakdown(PhdescError, ArithmeticError):
    """A rank decision had no tenfold margin from its cutoff, so it is
    refused rather than guessed; ``stage`` names the decision (a staircase
    step, a PBH test, an axis eigenvalue's multiplicity, a synthesis block
    size, a named rank or nullspace).  The values are singular values, or
    eigenvalues where the decision rests on them (synthesis's mu3)."""

    def __init__(self, stage: str, threshold: float, kept_min: float, dropped_max: float):
        self.stage = stage
        self.threshold = threshold
        self.kept_min = kept_min
        self.dropped_max = dropped_max
        super().__init__(
            f"ambiguous rank decision at {stage}: threshold {threshold:.3e}, "
            f"smallest kept value {kept_min:.3e}, "
            f"largest dropped {dropped_max:.3e}"
        )


class HypothesisViolated(PhdescError, ValueError):
    """Input does not satisfy the structural hypothesis of the test."""


class ConditionsNotMet(PhdescError, ValueError):
    """A feedback-existence condition fails; synthesis refuses.

    ``witnesses`` holds offending imaginary-axis points when available.
    """

    def __init__(self, message: str, witnesses: list | None = None):
        self.witnesses = list(witnesses) if witnesses else []
        super().__init__(message)


class NumericalBreakdown(PhdescError, ArithmeticError):
    """A multi-stage construction failed for numerical reasons."""


class NotIndexOne(PhdescError, ValueError):
    """The pencil is singular or of index greater than one."""


class SolveFailure(PhdescError, ArithmeticError):
    """A linear solve inside the integrator failed."""

    def __init__(self, message: str, t: float | None = None):
        self.t = t
        super().__init__(message)


class InfeasibleKnobs(PhdescError, ValueError):
    """Generator knobs are contradictory for the requested dimensions."""
