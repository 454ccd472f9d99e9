"""Exception hierarchy for pulse synthesis, simulation and verification."""


class BlochControlError(Exception):
    """Base class for every error raised by this package."""


class ZeroVector(BlochControlError):
    """A magnetization vector of zero length has no polar representation."""


class StallDetected(BlochControlError):
    """The closed-loop angle rate dropped to zero or below before the stop angle.

    Raised by the feedback integrator: the supplied law cannot drive the
    polar angle forward from the offending sample.
    """


class StepTooLarge(BlochControlError):
    """The integration step does not fit the run.

    Raised when time fails to advance, when a run would take more than the
    integrator's step cap, and when the adjoint check's run at this step
    has too few samples left outside its exclusion windows.
    """


class NonpositiveThetaDot(BlochControlError):
    """The angle rate was non-positive at an interior quadrature node."""


class TargetOutOfRange(BlochControlError):
    """Final radius outside (0, 1), or final angle not a quarter or half turn."""


class BoundTooSmall(BlochControlError):
    """Control bounds of 1/2 or less stall the rotation before the transverse plane."""


class NoRealSwitch(BlochControlError):
    """The saturation equation has no real solutions for this costate constant."""


class AngleOutOfRange(BlochControlError):
    """Angle lies outside the valid parameter range of the requested curve."""


class DegenerateKappa(BlochControlError):
    """A vanishing costate constant makes the post-switch arc formula singular."""


class NoBracket(BlochControlError):
    """No switching-point crossing was bracketed, or the synthesized program
    misses its target radius beyond the stated tolerance."""


class Unreachable(BlochControlError):
    """The requested final radius exceeds what the control bound allows.

    Attributes:
        limit_radius: largest radius reachable on the requested axis.
    """

    def __init__(self, message: str, limit_radius: float):
        super().__init__(message)
        self.limit_radius = limit_radius


class DidNotConverge(BlochControlError):
    """The transcription search failed to meet the endpoint tolerance in budget."""
