"""Exception types raised across the package.

Everything subclasses ValueError so callers that only care about
"bad input" can catch one thing; the CLI maps the finer-grained types
onto distinct exit codes.
"""

from __future__ import annotations


class DimensionMismatch(ValueError):
    """Operands live on Hilbert spaces of different dimension."""


class DensityValidationError(ValueError):
    """A candidate density operator violates one of its invariants.

    The ``defect`` attribute records how badly the invariant failed.
    """

    def __init__(self, message: str, defect: float = 0.0):
        super().__init__(f"{message} (defect {defect:.3e})")
        self.defect = float(defect)


class HermiticityViolation(DensityValidationError):
    """Matrix is not Hermitian within tolerance."""


class TraceViolation(DensityValidationError):
    """Trace differs from the required value within tolerance."""


class NegativeEigenvalue(DensityValidationError):
    """An eigenvalue is negative beyond the positivity tolerance."""


class InvalidProjector(ValueError):
    """Matrix is not an orthogonal projector, or has the wrong rank."""


class OrthogonalPostselection(ValueError):
    """A weak-value denominator vanished: pre- and post-selection are
    (numerically) orthogonal and the conditional average is undefined."""


class NoExactSolution(ValueError):
    """A superoperator completion problem has no exact solution; the
    least-squares residual is recorded on the ``residual`` attribute."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = float(residual)


class DegenerateScenario(ValueError):
    """The competing measurement models predict identical weak values for
    this configuration, so no discrimination is possible."""


class VanishingPostselection(ValueError):
    """Postselection succeeds with zero probability even after including
    the pointer overlap, so no conditional pointer average exists."""
