"""Exception and warning types shared across the toolkit."""

__all__ = ["SolverError", "InvalidTrajectoryError", "DegenerateFrameError", "NormalizationDivergenceError",
           "ReconstructionQualityError", "InsufficientAnglesError", "ConfigError", "SupportTruncationWarning"]


class SolverError(RuntimeError):
    """Mode-function integration failed to meet the requested tolerance."""


class InvalidTrajectoryError(ValueError):
    """A (eps, deps) pair violates the Wronskian invariant Im(eps* deps) = 1."""


class DegenerateFrameError(ValueError):
    """Tomogram frame with vanishing quadrature dispersion, i.e. (mu, nu) = (0, 0)."""


class NormalizationDivergenceError(ValueError):
    """State normalization constant diverges (odd cat with alpha = 0)."""


class ReconstructionQualityError(RuntimeError):
    """Reconstructed Wigner grid failed its normalization quality gate."""


class InsufficientAnglesError(ValueError):
    """Filtered backprojection needs at least 16 projection angles."""


class ConfigError(ValueError):
    """Run configuration is malformed or violates a module precondition."""


class SupportTruncationWarning(UserWarning):
    """Evaluation grid leaves non-negligible mass at its boundary."""
