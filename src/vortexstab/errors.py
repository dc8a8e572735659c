"""Exception hierarchy for vortexstab."""


class VortexStabError(Exception):
    """Base class for all vortexstab errors.

    A check over a stack of samples (leading axis) raises for the first
    sample that fails it; ``sample`` is that sample's index (0 for one input).
    """

    def __init__(self, *args, sample: int = 0):
        super().__init__(*args)
        self.sample = sample


class InvalidArgument(VortexStabError, ValueError):
    """An input lies outside its admissible range: a time or grid step that
    is not positive and finite, an empty sweep range, a malformed custom
    configuration."""


class DimensionMismatch(VortexStabError):
    """Operands have incompatible matrix/vector dimensions."""


class SingularCoupling(VortexStabError):
    """Circulation coupling matrix is singular to working precision."""


class Collision(VortexStabError):
    """Two vortices are closer than the collision tolerance."""


class DomainError(VortexStabError):
    """A logarithm argument is non-positive (collision or infeasible state)."""


class EmptyTrajectory(VortexStabError):
    """Trajectory has no samples."""


class NotInOpenSet(VortexStabError):
    """State has a vanishing entry; constraint machinery is undefined there."""


class NotRankOne(VortexStabError):
    """State is not of the form i z z^*, off the stratum the reduced dynamics lives on."""


class UnsupportedScenario(VortexStabError):
    """No closed-form fixture exists for this configuration."""


class Infeasible(VortexStabError):
    """Multiplier system has no solution at the requested point."""


class RankDeficiency(VortexStabError):
    """Computed nullspace dimension differs from the expected one."""


class ExcludedParameter(VortexStabError):
    """Scenario parameter value is outside the admissible set."""


class NoConvergence(VortexStabError):
    """Dense eigensolver failed to converge."""


class NotAFixedPoint(VortexStabError):
    """Certification was requested at a point that is not a fixed point."""


class NotAFixedPointWarning(UserWarning):
    """Linearization was requested at a point that is not a fixed point."""
