"""Numerical verification of the stationarity conditions along a program.

Three independent signals certify a synthesized pulse:

* the stationarity function H = -u^2/2 + lambda_theta * thetadot
  + lambda_a * adot must vanish along the whole transfer (free final time);
* the angle costate must satisfy d(lambda_theta)/dt
  = lambda_theta cos(2 theta) + lambda_a sin(2 theta), checked by central
  finite differences along the integrated trajectory;
* strictly inside a saturated arc the costate must exceed the bound, which
  is what makes the clipped control the pointwise maximizer; its margin is
  closed-form, so the arc's two ends decide its sign.  On a smooth arc the
  costate must stay within the bound, to a relative 2e-3 that covers a
  12-digit program file; the smooth law's peak angle, clamped into the
  arc, decides it.

The checks accept any object exposing ``control(theta)``,
``costate(theta)``, ``lambda_a`` and ``theta_domain`` - in particular a
``PulseProgram`` - and read ``segments`` and ``m`` when present.
``check_adjoint`` without a trajectory also calls ``program.simulate``.  The
switching angles are read from ``segments`` only: each arc after the first
starts at one.  Per-arc closed forms live in ``unbounded`` (smooth) and
``bounded`` (saturated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bloch import StepControl, Trajectory, _json, control_hamiltonian
from .errors import StepTooLarge

__all__ = [
    "CostateSample",
    "costate_along",
    "check_hamiltonian",
    "check_adjoint",
    "saturation_excess",
    "VerificationReport",
    "verify_program",
]

_EXCLUSION_STEPS = 10  # check_adjoint's skipped samples around each switch
# a 12-digit round trip puts a valid smooth arc up to 3.1e-4 above m (a theta2
# about 1e-8 below pi); a theta1 moved 0.01 late puts it 1.2e-2 above
_SMOOTH_ARC_RTOL = 2e-3


@dataclass(frozen=True)
class CostateSample:
    """Costates and stationarity value at one angle."""

    theta: float
    lambda_theta: float
    lambda_a: float
    hamiltonian: float


def costate_along(program, thetas: Sequence[float]) -> list[CostateSample]:
    """Evaluate the costates and H at the given angles.

    The angle costate is continuous across switching angles (both closed
    forms give the bound there) while the log-radius costate is one
    constant for the whole transfer.
    """
    lam_a = program.lambda_a
    samples = []
    for theta in thetas:
        lam = program.costate(theta)
        samples.append(
            CostateSample(
                theta=theta,
                lambda_theta=lam,
                lambda_a=lam_a,
                hamiltonian=control_hamiltonian(
                    program.control(theta), theta, lam, lam_a
                ),
            )
        )
    return samples


@dataclass(frozen=True)
class HamiltonianCheck:
    max_abs_h: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_abs_h < self.tol


def check_hamiltonian(program, tol: float = 1e-8) -> HamiltonianCheck:
    """Largest |H| over a uniform 10,000-point angle grid spanning the program
    domain; NaN, which fails the check, if H is NaN anywhere on it."""
    lo, hi = program.theta_domain
    lam_a = program.lambda_a
    values = [
        control_hamiltonian(program.control(theta), theta, program.costate(theta), lam_a)
        for theta in np.linspace(lo, hi, 10_000).tolist()
    ]
    return HamiltonianCheck(max_abs_h=float(np.max(np.abs(values))), tol=tol)


@dataclass(frozen=True)
class AdjointCheck:
    max_residual: float
    tol: float
    step: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol


def check_adjoint(
    program,
    tol: float = 1e-4,
    step: float = 1e-4,
    trajectory: Optional[Trajectory] = None,
) -> AdjointCheck:
    """Finite-difference residual of the costate rate equation.

    Differentiates lambda_theta(t) centrally, taken from a run of the program
    or from ``costate`` along a supplied trajectory (at its step), and compares with
    lambda_theta cos(2 theta) + lambda_a sin(2 theta).  Samples within 10
    grid steps of a switching angle (the start of every segment after the
    first) are skipped, since the costate's curvature jumps with the
    control there; the last 10 samples, around the shortened final step,
    are skipped for the same reason.  Raises StepTooLarge when the skipped
    samples leave none to check.
    """
    if trajectory is None:
        trajectory = program.simulate(StepControl(h=step))
        lam = trajectory.lambda_theta
    else:
        step = float(trajectory.t[1] - trajectory.t[0])
        lam = np.array([program.costate(t) for t in trajectory.theta.tolist()])
    theta = trajectory.theta
    lam_a = program.lambda_a

    fd = (lam[2:] - lam[:-2]) / (2.0 * step)
    mid_theta = theta[1:-1]
    rhs = lam[1:-1] * np.cos(2.0 * mid_theta) + lam_a * np.sin(2.0 * mid_theta)
    residual = np.abs(fd - rhs) / np.maximum(1.0, np.abs(rhs))

    keep = np.ones(len(residual), dtype=bool)
    keep[-_EXCLUSION_STEPS:] = False  # event-shortened last step breaks the stencil
    for seg in getattr(program, "segments", ())[1:]:
        idx = int(np.searchsorted(theta, seg.theta_lo)) - 1
        lo = max(idx - _EXCLUSION_STEPS, 0)
        hi = min(idx + _EXCLUSION_STEPS, len(residual))
        keep[lo:hi] = False
    if not keep.any():
        raise StepTooLarge(
            f"step {step:g} leaves {len(theta)} samples, too few for the adjoint "
            f"check once {_EXCLUSION_STEPS} samples around each switch and the end are skipped"
        )
    return AdjointCheck(max_residual=float(residual[keep].max()), tol=tol, step=step)


def _smooth_arc_excess(program) -> float:
    """Largest relative excess of the costate over the bound on the smooth
    arcs; -1 for an unlimited program or one without ``segments``.

    There the costate is the smooth law, which rises up to its peak angle
    arccos(1 / sqrt(2 + kappa^2)) and falls after it, so each arc's largest
    value is at that angle clamped into the arc.
    """
    peak = math.acos(1.0 / math.sqrt(2.0 + 2.0 * program.lambda_a))
    values = [
        program.costate(min(max(peak, seg.theta_lo), seg.theta_hi))
        for seg in getattr(program, "segments", ())
        if seg.kind == "smooth"
    ]
    return max(values, default=0.0) / getattr(program, "m", math.inf) - 1.0


def saturation_excess(program) -> Optional[float]:
    """Smaller costate margin over the bound at the saturated arc's ends,
    each inset by 1e-6 of the arc, or None without a saturated arc.

    The margin is -m^2 sin^2(theta) Q(cot theta) / (2 (m - sin cos)), with
    Q the saturation quadratic, so a positive value holds on the whole arc.
    """
    for seg in getattr(program, "segments", ()):
        if seg.kind == "saturated":
            inset = (seg.theta_hi - seg.theta_lo) * 1e-6
            ends = program.costate(seg.theta_lo + inset), program.costate(seg.theta_hi - inset)
            return min(ends) - program.m
    return None


@dataclass(frozen=True)
class VerificationReport:
    """Verification summary; its JSON keeps an always-null ``oracle`` key."""

    max_abs_h: float
    adjoint_residual: float
    lambda_excess_ok: bool
    h_tol: float
    adjoint_tol: float

    @property
    def passed(self) -> bool:
        return (
            self.max_abs_h < self.h_tol
            and self.adjoint_residual < self.adjoint_tol
            and self.lambda_excess_ok
        )

    def to_json(self) -> str:
        return _json({
            "max_abs_H": self.max_abs_h,
            "adjoint_residual": self.adjoint_residual,
            "lambda_excess_ok": self.lambda_excess_ok,
            "oracle": None,
        })


def verify_program(
    program,
    h_tol: float = 1e-8,
    adjoint_tol: float = 1e-4,
    step: float = 1e-4,
    trajectory: Optional[Trajectory] = None,
) -> VerificationReport:
    """Run all stationarity checks and collect them into one report."""
    ham = check_hamiltonian(program, tol=h_tol)
    adj = check_adjoint(program, tol=adjoint_tol, step=step, trajectory=trajectory)
    excess = saturation_excess(program)
    return VerificationReport(
        max_abs_h=ham.max_abs_h,
        adjoint_residual=adj.max_residual,
        lambda_excess_ok=(excess is None or excess > 0.0)
        and _smooth_arc_excess(program) <= _SMOOTH_ARC_RTOL,
        h_tol=h_tol,
        adjoint_tol=adjoint_tol,
    )
