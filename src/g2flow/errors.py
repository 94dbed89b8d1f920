"""Exception types shared across the package."""


class G2FlowError(Exception):
    """Base class for all errors raised by this package."""


class DegreeUnderflow(G2FlowError):
    """Interior product applied to a 0-form."""


class BadMetric(G2FlowError):
    """A metric that is not symmetric positive definite."""


class PositivityError(G2FlowError):
    """A 3-form that does not induce a definite bilinear form."""


class SingularSystem(G2FlowError):
    """A map that must be inverted is rank deficient: the theta map, an action's h."""


class NonFiniteState(SingularSystem):
    """A solve met NaN or infinite input: the flowing state overflowed."""


class InconsistentTorsion(G2FlowError):
    """(dphi, dpsi) cannot be reconstructed from any torsion forms."""


class NotClosed(G2FlowError):
    """Operation requires a closed structure (d phi = 0)."""


class NotTraceFree(G2FlowError):
    """Operation requires a trace-free matrix."""


class StepUnderflow(G2FlowError):
    """Adaptive step fell below hmin without meeting the tolerance."""


class StepBudgetExhausted(G2FlowError):
    """An integration took its step budget without reaching its end time."""


class InvalidBracket(G2FlowError):
    """Structure constants violate antisymmetry or the Jacobi identity."""
