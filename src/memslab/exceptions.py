"""Error types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid mesh, domain, or run configuration."""


class HypothesisError(ValueError):
    """A permittivity profile violates the admissibility hypotheses."""


class PreconditionError(ValueError):
    """An operation was called outside its contract."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge within its budget."""


class UnboundedRayError(RuntimeError):
    """No infeasible parameter found along a ray; contradicts boundedness."""


class NumericsError(RuntimeError):
    """Internal numerical failure (non-finite values, solver breakdown)."""


class IndefiniteError(NumericsError):
    """A linear system that should be positive definite showed a direction
    of nonpositive curvature."""
