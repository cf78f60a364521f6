"""Exception types shared across the package."""


class LbmError(Exception):
    """Base class for every error raised by this package."""


class InvalidVelocitySet(LbmError):
    """Velocity vectors are malformed (duplicates, non-integers, bad dimension)."""


class RankDeficient(LbmError):
    """The mass/momentum block built from a velocity set does not have full rank."""


class SingularMomentMatrix(LbmError):
    """The assembled moment matrix cannot be inverted."""


class InvalidEquilibrium(LbmError):
    """An equilibrium table violates the mass/momentum moment constraints."""


class NonPositiveDensity(LbmError):
    """An operation that requires rho > 0 received a non-positive density."""


class ShapeError(LbmError):
    """Array shapes are inconsistent with the velocity set or grid."""


class ComponentMismatch(LbmError):
    """Components (matrix, model, parameters) were built for different velocity scales."""


class InvalidRelaxation(LbmError):
    """A relaxation ratio violates the stability bound 0 < s <= 2."""


class GridTooCoarse(LbmError):
    """Fewer than 8 nodes along some axis; centered differences would be meaningless."""


class SimulationDiverged(LbmError):
    """Populations stopped being finite during a run."""


class FitRejected(LbmError):
    """An amplitude-decay fit was rejected (non-monotone beyond tolerance)."""


class ConfigError(LbmError):
    """Configuration text is malformed or internally inconsistent."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class IllConditionedWarning(UserWarning):
    """Viscometry requested at a relaxation rate where the decay is unresolvable."""
