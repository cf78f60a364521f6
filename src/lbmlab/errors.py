"""Exception types shared across the package, and the UTF-8 file reader.

Each class carries the exit code and stderr label with which ``lbmlab``
reports it; the command line's exit codes are:

    0  success
    2  "config error" (ConfigError, also for a config that is not UTF-8);
       "error" (any other LbmError, such as GridTooCoarse or a malformed or
       non-UTF-8 checkpoint, unreadable files, and MemoryError: "error: out
       of memory")
    3  "construction error" (ConstructionError), including a non-positive
       initial density
    4  "simulation diverged" (SimulationDiverged) during a run
    5  a study of ``lbmlab verify`` failed its check (no exception)
"""


class LbmError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2
    label = "error"


class ConstructionError(LbmError):
    """Components cannot be built from their inputs or do not fit together."""

    exit_code = 3
    label = "construction error"


class InvalidVelocitySet(ConstructionError):
    """Velocity vectors are malformed (duplicates, non-integers, bad dimension)."""


class RankDeficient(ConstructionError):
    """The mass/momentum block built from a velocity set does not have full rank."""


class SingularMomentMatrix(ConstructionError):
    """The assembled moment matrix cannot be inverted."""


class InvalidEquilibrium(ConstructionError):
    """An equilibrium table violates the mass/momentum moment constraints."""


class NonPositiveDensity(ConstructionError):
    """An operation that requires rho > 0 received a non-positive density."""


class ShapeError(ConstructionError):
    """Array shapes are inconsistent with the velocity set or grid."""


class ComponentMismatch(ConstructionError):
    """Components (matrix, model, parameters) were built for different velocity scales."""


class InvalidRelaxation(ConstructionError):
    """A relaxation ratio violates the stability bound 0 < s <= 2."""


class GridTooCoarse(LbmError):
    """Fewer than 8 nodes along some axis; centered differences would be meaningless."""


class SimulationDiverged(LbmError):
    """Populations stopped being finite or positive in density during a run."""

    exit_code = 4
    label = "simulation diverged"


class ConfigError(LbmError):
    """Configuration text is malformed or internally inconsistent."""

    label = "config error"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


def read_utf8(path, error=LbmError) -> str:
    """The text of the file at ``path``, decoded as UTF-8 whatever the locale;
    bytes that are not UTF-8 raise ``error`` naming the file and the offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 at byte offset {exc.start} of {path}") from exc
