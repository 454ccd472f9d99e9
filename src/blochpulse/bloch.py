"""Magnetization dynamics under dominant transverse relaxation.

With time rescaled by the transverse relaxation rate and the drive field
held along +x, the unit-initialized magnetization r = (x, y, z) obeys

    dx/dt = -x - u_y z
    dy/dt = -y + u_x z
    dz/dt = u_y x - u_x y

and stays in the yz-plane when u_y = 0.  In log-radius / polar-angle
coordinates (a = ln r, theta measured from +z) the planar rotation under a
scalar control u reduces to

    da/dt     = -sin^2(theta)
    dtheta/dt = u - sin(theta) cos(theta)

This module holds the coordinate transforms, both right-hand sides, a
fixed-step 4th-order integrator for feedback-closed dynamics, and the
angle-domain energy quadrature E = integral of u^2 / (2 thetadot) dtheta.
The integrator takes sin and cos of each stage angle once and evaluates
the law once per stage, a program's clipped law (``_ClippedLaw``) inline
from its constants.  It records the costate and H of each sample in the
same loop, from the same values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    NonpositiveThetaDot,
    StallDetected,
    StepTooLarge,
    TargetOutOfRange,
    ZeroVector,
)

__all__ = [
    "THETA_START",
    "POLE_AZIMUTH",
    "CartesianState",
    "PolarState",
    "PulseTarget",
    "StepControl",
    "Trajectory",
    "polar_from_cartesian",
    "cartesian_from_polar",
    "reduced_rhs",
    "full_rhs",
    "control_hamiltonian",
    "integrate_feedback",
    "integrate_full",
    "energy_theta_quadrature",
    "write_trajectory_csv",
]

# Angle offset used to leave the theta = 0 equilibrium: both thetadot and
# the synthesized control vanish there, so exact escape takes infinite time.
# The energy and log-radius content of [0, THETA_START] is O(THETA_START^2).
THETA_START = 1e-6
_EPS_STOP = 1e-6  # integrate_feedback stops this far short of theta_stop
_MAX_STEPS = 20_000_000  # integrate_feedback raises StepTooLarge past this many steps

# Azimuth convention at the poles and for planar transfers: the control
# field along +x rotates the vector inside the yz-plane, where phi = pi/2.
POLE_AZIMUTH = math.pi / 2

_HALF_PI = math.pi / 2

# Every number the package writes, in CSV, JSON or text, has 12 significant
# digits: CSV rows repeat _NUMBER, everything else goes through _num.
_NUMBER = "%.12g"
# Trajectory CSV rows: seven fields, written in blocks.
_CSV_ROW = ",".join([_NUMBER] * 7) + "\n"
_CSV_BLOCK_ROWS = 4096


def _num(x: Optional[float]) -> str:
    """One number as the outputs write it: 12 significant digits, null for None or +-inf."""
    if x is None or math.isinf(x):
        return "null"
    return _NUMBER % x


def _json(value) -> str:
    """One JSON value on one line, dicts in their own key order.

    Floats go through ``_num``, so 2.0 is written ``2``, as ``json.dumps``
    would not; ints, bools and strings are written as JSON writes them.
    """
    if isinstance(value, dict):
        return "{%s}" % ", ".join(
            "%s: %s" % (json.dumps(key), _json(item)) for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(map(_json, value))
    if isinstance(value, (bool, int, str)):
        return json.dumps(value)
    return _num(value)


@dataclass(frozen=True)
class CartesianState:
    """Dimensionless magnetization components (time already rescaled)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"non-finite magnetization components: {self}")

    @property
    def r(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


@dataclass(frozen=True)
class PolarState:
    """Log-radius and polar angle of the magnetization in the rotation plane.

    ``a = ln r`` is non-positive along any trajectory started from the unit
    pole, because the radius can only shrink under transverse relaxation.
    """

    a: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.theta)):
            raise ValueError(f"non-finite polar state: {self}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")

    @property
    def r(self) -> float:
        return math.exp(self.a)


@dataclass(frozen=True)
class PulseTarget:
    """Desired final point (r, theta); only quarter- and half-turn angles.

    ``theta`` must equal pi/2 (transverse plane) or pi (inverted pole); the
    stored value is snapped exactly onto the matching constant.
    """

    r: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and 0.0 < self.r < 1.0):
            raise TargetOutOfRange(
                f"final radius must lie strictly inside (0, 1), got {self.r}"
            )
        for exact in (_HALF_PI, math.pi):
            if abs(self.theta - exact) <= 1e-9:
                object.__setattr__(self, "theta", exact)
                return
        raise TargetOutOfRange(
            f"final angle must be pi/2 or pi, got {self.theta}"
        )

    @property
    def is_inversion(self) -> bool:
        """True for a half-turn (pi) target, False for a quarter turn."""
        return self.theta == math.pi

    @property
    def label(self) -> str:
        return "pi" if self.is_inversion else "pi/2"

    @classmethod
    def from_label(cls, r: float, label: str) -> "PulseTarget":
        try:
            theta = {"pi": math.pi, "pi/2": _HALF_PI, "pi2": _HALF_PI}[label]
        except KeyError:
            raise TargetOutOfRange(f"unknown target label {label!r}") from None
        return cls(r, theta)


@dataclass(frozen=True)
class StepControl:
    """Fixed-step integration settings: ``h`` is the step in rescaled time units."""

    h: float = 1e-4


@dataclass
class Trajectory:
    """Time-ordered samples of a feedback-closed run.

    ``energy`` is the accumulated integral of u^2/2 up to each sample, so it
    is non-negative and non-decreasing; ``lambda_theta`` and ``hamiltonian``
    are NaN when the integrated law carries no costate information.
    """

    t: np.ndarray
    theta: np.ndarray
    a: np.ndarray
    u: np.ndarray
    lambda_theta: np.ndarray
    hamiltonian: np.ndarray
    energy: np.ndarray

    @property
    def r(self) -> np.ndarray:
        return np.exp(self.a)

    @property
    def total_energy(self) -> float:
        return float(self.energy[-1])

    @property
    def final_theta(self) -> float:
        return float(self.theta[-1])

    @property
    def final_r(self) -> float:
        return float(math.exp(self.a[-1]))

    def __len__(self) -> int:
        return len(self.t)


def polar_from_cartesian(state: CartesianState) -> tuple[float, float, float]:
    """Return (a, theta, phi) for a magnetization vector.

    ``theta`` is the angle from +z in [0, pi]; at the poles (x = y = 0) the
    azimuth is undefined and the planar convention value pi/2 is returned.
    """
    rho = math.hypot(state.x, state.y)
    r = math.hypot(rho, state.z)
    if r == 0.0:
        raise ZeroVector("zero magnetization vector has no polar form")
    theta = math.atan2(rho, state.z)
    phi = POLE_AZIMUTH if rho == 0.0 else math.atan2(state.y, state.x)
    return math.log(r), theta, phi


def cartesian_from_polar(a: float, theta: float, phi: float) -> CartesianState:
    """Inverse transform; exact round trip away from the poles."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    r = math.exp(a)
    s = math.sin(theta)
    return CartesianState(
        x=r * s * math.cos(phi),
        y=r * s * math.sin(phi),
        z=r * math.cos(theta),
    )


def reduced_rhs(theta: float, u: float) -> tuple[float, float]:
    """Planar dynamics: returns (da_dt, dtheta_dt)."""
    s = math.sin(theta)
    return -s * s, u - s * math.cos(theta)


def full_rhs(state: CartesianState, ux: float, uy: float) -> tuple[float, float, float]:
    """Three-dimensional dynamics: returns (dx_dt, dy_dt, dz_dt)."""
    return (
        -state.x - uy * state.z,
        -state.y + ux * state.z,
        uy * state.x - ux * state.y,
    )


def control_hamiltonian(u: float, theta: float, lambda_theta: float, lambda_a: float) -> float:
    """Stationarity function -u^2/2 + lambda_theta*thetadot + lambda_a*adot.

    Vanishes identically along an energy-optimal transfer with free final
    time; its residual is the primary verification signal.
    """
    s = math.sin(theta)
    return -0.5 * u * u + lambda_theta * (u - s * math.cos(theta)) - lambda_a * s * s


class _ClippedLaw:
    """A program's feedback law: the smooth law
    sin(theta) (cos(theta) + sqrt(cos^2(theta) + kappa^2)), clipped to the
    bound m on the closed saturated interval [lo, hi].

    Calling it gives the control, and ``costate`` the angle costate.
    ``integrate_feedback`` reads its constants and evaluates both inline.
    """

    def __init__(self, kappa: float, m: float, saturated: Optional[tuple[float, float]]):
        self.k2 = kappa * kappa
        self.m = m
        # an empty interval when the program never saturates
        self.lo, self.hi = saturated or (math.inf, -math.inf)

    def __call__(self, theta: float) -> float:
        if self.lo <= theta <= self.hi:
            return self.m
        c = math.cos(theta)
        return math.sin(theta) * (c + math.sqrt(c * c + self.k2))

    def costate(self, theta: float) -> float:
        """Equals the control on smooth arcs and exceeds m strictly inside
        the saturated arc."""
        if self.lo <= theta <= self.hi:
            return self._saturated_costate(math.sin(theta), math.cos(theta))
        return self(theta)

    def _saturated_costate(self, s: float, c: float) -> float:
        m = self.m
        return (m * m + self.k2 * s * s) / (2.0 * (m - s * c))


def integrate_feedback(
    u_of_theta: Callable[[float], float],
    start: PolarState,
    theta_stop: float,
    step: StepControl = StepControl(),
    costate: Optional[Callable[[float], float]] = None,
    lambda_a: Optional[float] = None,
) -> Trajectory:
    """Integrate the planar dynamics under a state-feedback law u(theta).

    Classical fixed-step 4th-order integration of (theta, a, energy).  The
    run terminates on the event theta >= theta_stop - 1e-6 (half-turn
    transfers reach pi only asymptotically); the final step is shortened
    by bisection, until it can no longer shrink, so the last sample lands
    on the event angle instead of overshooting it.

    Each stage takes sin and cos of its angle once and evaluates the law
    once; the rates of theta, a and energy all come from those values.  A
    program's law (a ``PulseProgram``'s) is evaluated inline from its
    constants, any other callable is called.  The control recorded at a
    sample is the step's first stage.  ``lambda_theta`` and
    ``hamiltonian`` are recorded in the loop from the same values:
    ``lambda_theta`` from ``costate`` (a program's own costate inline), and
    ``hamiltonian`` as ``control_hamiltonian`` computes it; they are NaN
    without ``costate``, and ``hamiltonian`` also without ``lambda_a``.

    Raises StallDetected if the closed-loop angle rate is not positive (or
    is NaN) at any recorded sample before the stop angle, and StepTooLarge
    if time would fail to advance or the run exceeds _MAX_STEPS steps.
    """
    if theta_stop <= start.theta:
        raise ValueError(
            f"theta_stop ({theta_stop}) must exceed the start angle ({start.theta})"
        )
    if not 0.0 < step.h < math.inf:
        raise StepTooLarge(f"step must be finite and positive, got {step.h}")

    goal = theta_stop - _EPS_STOP
    sin, cos, sqrt, nan = math.sin, math.cos, math.sqrt, math.nan

    clipped = u_of_theta if isinstance(u_of_theta, _ClippedLaw) else None
    if clipped is None:
        law, k2, m, sat_lo, sat_hi = u_of_theta, 0.0, 0.0, math.inf, -math.inf
    else:
        law, k2, m, sat_lo, sat_hi = None, clipped.k2, clipped.m, clipped.lo, clipped.hi
    own_costate = clipped is not None and costate == clipped.costate
    record_h = costate is not None and lambda_a is not None

    def control(x: float, s: float, c: float) -> float:
        # the law at angle x, from sin(x) and cos(x)
        if law is not None:
            return law(x)
        if sat_lo <= x <= sat_hi:
            return m
        return s * (c + sqrt(c * c + k2))

    def advance(th: float, aa: float, en: float, h: float, k1: tuple) -> tuple[float, float, float]:
        # one 4th-order step of (theta, a, energy) from its first stage k1
        k1t, k1a, k1e = k1
        x = th + 0.5 * h * k1t
        s, c = sin(x), cos(x)
        u = control(x, s, c)
        k2t, k2a, k2e = u - s * c, -s * s, 0.5 * u * u

        x = th + 0.5 * h * k2t
        s, c = sin(x), cos(x)
        u = control(x, s, c)
        k3t, k3a, k3e = u - s * c, -s * s, 0.5 * u * u

        x = th + h * k3t
        s, c = sin(x), cos(x)
        u = control(x, s, c)
        k4t, k4a, k4e = u - s * c, -s * s, 0.5 * u * u

        sixth = h / 6.0
        return (
            th + sixth * (k1t + 2.0 * k2t + 2.0 * k3t + k4t),
            aa + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a),
            en + sixth * (k1e + 2.0 * k2e + 2.0 * k3e + k4e),
        )

    ts, thetas, avals, us, lams, hams, ens = [], [], [], [], [], [], []

    h = step.h
    t, th, aa, en = 0.0, start.theta, start.a, 0.0
    for _ in range(_MAX_STEPS):
        s, c = sin(th), cos(th)
        u = control(th, s, c)
        k1 = u - s * c, -s * s, 0.5 * u * u
        if own_costate:
            lam = clipped._saturated_costate(s, c) if sat_lo <= th <= sat_hi else u
        else:
            lam = nan if costate is None else costate(th)
        ts.append(t)
        thetas.append(th)
        avals.append(aa)
        us.append(u)
        lams.append(lam)
        # control_hamiltonian's operations in its order, so H is bit-identical
        hams.append(-0.5 * u * u + lam * k1[0] - lambda_a * s * s if record_h else nan)
        ens.append(en)

        if th >= goal:
            break
        if not k1[0] > 0.0:
            raise StallDetected(
                f"closed-loop angle rate is not positive at theta={th:.9g}"
            )

        th_next, a_next, e_next = advance(th, aa, en, h, k1)
        h_used = h
        if th_next >= goal:
            # shrink the final step until it lands on the event angle, or
            # until no double lies between the bisection's ends
            lo, hi = 0.0, h
            while hi - lo > 1e-18 * h:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                th_mid, _, _ = advance(th, aa, en, mid, k1)
                if th_mid >= goal:
                    hi = mid
                else:
                    lo = mid
            h_used = hi
            th_next, a_next, e_next = advance(th, aa, en, h_used, k1)
        elif th_next <= th:
            raise StepTooLarge(
                f"angle failed to advance at theta={th:.9g} with step {h}"
            )
        t += h_used
        th, aa, en = th_next, a_next, e_next
    else:
        raise StepTooLarge(
            f"exceeded {_MAX_STEPS} steps before reaching theta={theta_stop}"
        )

    return Trajectory(
        t=np.asarray(ts),
        theta=np.asarray(thetas),
        a=np.asarray(avals),
        u=np.asarray(us),
        lambda_theta=np.asarray(lams),
        hamiltonian=np.asarray(hams),
        energy=np.asarray(ens),
    )


def integrate_full(
    u_of_theta: Callable[[float], float],
    start: CartesianState,
    times: Sequence[float],
) -> np.ndarray:
    """Integrate the 3-D dynamics under the planar feedback on a given grid.

    The drive is applied along +x (u_x = u(theta), u_y = 0) so the vector
    rotates in the yz-plane; ``theta`` is recovered from the state at every
    stage.  Returns an array of shape (len(times), 3) with columns x, y, z
    sampled at ``times``.
    """
    sin, cos, hypot, atan2 = math.sin, math.cos, math.hypot, math.atan2

    def rhs(x: float, y: float, z: float) -> tuple[float, float, float]:
        ux = u_of_theta(atan2(hypot(x, y), z))
        return -x, -y + ux * z, -ux * y

    out = np.empty((len(times), 3))
    x, y, z = start.x, start.y, start.z
    out[0] = (x, y, z)
    for i in range(1, len(times)):
        h = times[i] - times[i - 1]
        k1 = rhs(x, y, z)
        k2 = rhs(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1], z + 0.5 * h * k1[2])
        k3 = rhs(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1], z + 0.5 * h * k2[2])
        k4 = rhs(x + h * k3[0], y + h * k3[1], z + h * k3[2])
        x += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        z += h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        out[i] = (x, y, z)
    return out


def energy_theta_quadrature(
    u_of_theta: Callable[[float], float],
    thetadot_of_theta: Callable[[float], float],
    theta_lo: float,
    theta_hi: float,
) -> float:
    """Pulse energy in the angle domain: integral of u^2/(2 thetadot).

    Composite Simpson quadrature with panel doubling until successive
    estimates agree to 1e-10 relative.  The integrand at the two endpoints is
    replaced by 0 when it evaluates to an indeterminate form there (the
    synthesized laws have u -> 0 and thetadot -> 0 together at theta = 0 and
    theta = pi, where the limit is zero).  A non-positive angle rate at an
    interior node raises NonpositiveThetaDot.
    """
    if theta_hi < theta_lo:
        raise ValueError("theta_hi must not be below theta_lo")
    if theta_hi == theta_lo:
        return 0.0

    def integrand(theta: float, interior: bool) -> float:
        td = thetadot_of_theta(theta)
        u = u_of_theta(theta)
        if interior and td <= 0.0:
            raise NonpositiveThetaDot(
                f"thetadot={td:.6g} at interior node theta={theta:.9g}"
            )
        try:
            value = u * u / (2.0 * td)
        except ZeroDivisionError:
            value = math.nan
        if not math.isfinite(value):
            if interior:
                raise NonpositiveThetaDot(
                    f"non-finite integrand at interior node theta={theta:.9g}"
                )
            return 0.0
        return value

    f_lo = integrand(theta_lo, interior=False)
    f_hi = integrand(theta_hi, interior=False)
    span = theta_hi - theta_lo

    def simpson(n: int) -> float:
        h = span / n
        total = f_lo + f_hi
        for i in range(1, n):
            weight = 4.0 if i % 2 else 2.0
            total += weight * integrand(theta_lo + i * h, interior=True)
        return total * h / 3.0

    n = 64
    prev = simpson(n)
    while n <= 2 ** 21:
        n *= 2
        current = simpson(n)
        if abs(current - prev) <= 1e-10 * max(abs(current), 1e-12) + 1e-15:
            return current
        prev = current
    return prev


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Write samples as CSV with 12-significant-digit floats.

    Columns: t,theta,a,r,u,lambda_theta,hamiltonian.  Rows are formatted
    a block at a time with one ``%`` operation.
    """
    rows = np.column_stack((
        trajectory.t, trajectory.theta, trajectory.a, trajectory.r,
        trajectory.u, trajectory.lambda_theta, trajectory.hamiltonian,
    ))
    with open(path, "w", newline="") as handle:
        handle.write("t,theta,a,r,u,lambda_theta,hamiltonian\n")
        _write_rows(handle, _CSV_ROW, rows)


def _write_rows(handle, row: str, rows: np.ndarray) -> None:
    """Write one ``row % values`` line per row of ``rows``, a block of rows
    per ``%`` operation."""
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        block = rows[start:start + _CSV_BLOCK_ROWS]
        handle.write(row * len(block) % tuple(block.ravel().tolist()))
