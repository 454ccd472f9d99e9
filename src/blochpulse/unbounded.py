"""Closed-form minimum-energy synthesis with no amplitude limit.

The stationarity conditions give a one-parameter family of feedback laws

    u(theta) = sin(theta) * (cos(theta) + sqrt(cos^2(theta) + kappa^2))

indexed by the non-negative constant kappa (the log-radius costate equals
kappa^2/2).  Along the closed loop the angle rate and the traced radius
have closed forms, so the single unknown kappa follows directly from the
requested final point, as does the pulse energy.  These smooth-arc closed
forms (``_smooth_factor``, ``_smooth_energy``) serve bounded programs too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bloch import PulseTarget, _HALF_PI
from .errors import TargetOutOfRange

__all__ = [
    "kappa_for_target",
    "feedback_u",
    "thetadot",
    "trajectory_r",
    "closed_energy",
    "UnboundedSolution",
]


def kappa_for_target(target: PulseTarget) -> float:
    """Costate constant reaching (r, pi/2) or (r, pi) without saturation.

    Quarter turn: kappa = 2 r / (1 - r^2).  Half turn: 2 sqrt(r) / (1 - r).
    """
    r = target.r
    if target.is_inversion:
        return 2.0 * math.sqrt(r) / (1.0 - r)
    return 2.0 * r / (1.0 - r * r)


def feedback_u(theta: float, kappa: float) -> float:
    """Smooth-arc control value; vanishes at both poles."""
    _check_kappa(kappa)
    c = math.cos(theta)
    return math.sin(theta) * (c + math.sqrt(c * c + kappa * kappa))


def thetadot(theta: float, kappa: float) -> float:
    """Closed-loop angle rate sin(theta) sqrt(cos^2(theta) + kappa^2)."""
    _check_kappa(kappa)
    c = math.cos(theta)
    return math.sin(theta) * math.sqrt(c * c + kappa * kappa)


def trajectory_r(theta: float, kappa: float) -> float:
    """Radius traced from the unit pole, as a function of the angle.

    r(theta) = (cos(theta) + sqrt(cos^2(theta) + kappa^2)) / (1 + sqrt(1 + kappa^2));
    equals 1 at theta = 0, decreases strictly for kappa > 0; cos(pi/2) is 0.
    """
    _check_kappa(kappa)
    return _smooth_factor(_axis_cos(theta), kappa) / _smooth_factor(1.0, kappa)


def closed_energy(target: PulseTarget) -> float:
    """Minimum pulse energy: 1/(1-r^2) for pi/2 targets, (1+r)/(1-r) for pi."""
    r = target.r
    if not 0.0 < r < 1.0:
        raise TargetOutOfRange(f"final radius must lie in (0, 1), got {r}")
    if target.is_inversion:
        return (1.0 + r) / (1.0 - r)
    return 1.0 / (1.0 - r * r)


def _axis_cos(theta: float) -> float:
    """cos(theta), exactly 0 on the quarter-turn axis (cos(pi) is exact)."""
    return 0.0 if theta == _HALF_PI else math.cos(theta)


def _smooth_factor(c: float, kappa: float) -> float:
    """c + sqrt(c^2 + kappa^2), free of cancellation for c < 0.

    A smooth arc's radius is proportional to this factor at c = cos(theta).
    """
    s = math.sqrt(c * c + kappa * kappa)
    return c + s if c >= 0.0 else kappa * kappa / (s - c)


def _smooth_energy(lo: float, hi: float, kappa: float) -> float:
    # with x = cos(theta) the energy density u^2/(2 thetadot) integrates to
    # F(x) = x (x + sqrt(x^2 + kappa^2)) / 2, taken from x(hi) up to x(lo)
    def antiderivative(theta: float) -> float:
        c = _axis_cos(theta)
        return 0.5 * c * _smooth_factor(c, kappa)

    return antiderivative(lo) - antiderivative(hi)


def _check_kappa(kappa: float) -> None:
    if kappa < 0.0 or not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite and non-negative, got {kappa}")


@dataclass(frozen=True)
class UnboundedSolution:
    """Complete unlimited-amplitude design for one target."""

    kappa: float
    target: PulseTarget
    energy: float

    @property
    def lambda_a(self) -> float:
        """Constant log-radius costate."""
        return 0.5 * self.kappa * self.kappa

    @classmethod
    def for_target(cls, target: PulseTarget) -> "UnboundedSolution":
        return cls(
            kappa=kappa_for_target(target),
            target=target,
            energy=closed_energy(target),
        )
