"""Bounded-amplitude synthesis: switching geometry and feedback assembly.

With the control clipped to [0, m] the smooth feedback law saturates
wherever it would exceed m.  Saturation starts and ends on the angles that
solve

    cot^2(theta) - (2/m) cot(theta) + 1 - kappa^2/m^2 = 0,

whose two roots theta1 <= theta2 satisfy cot(theta1) + cot(theta2) = 2/m.
Sweeping kappa traces two switching curves in the (r, theta) plane: the
first (entry) curve lies on the pre-switch smooth arcs, and the second
(exit) curve is its image under the saturated-arc transport.  Synthesis for
a given bound and final point reduces to classifying the final point
against a handful of landmark radii and then locating the switching point
where a required-radius curve crosses the matching switching curve.  The
saturated arc's closed forms live here, the smooth arc's in ``unbounded``.

Everything here works in the arccot convention with range [0, pi], so
arccot(x) = pi - arccot(-x) for x < 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import unbounded
from .bloch import (
    THETA_START,
    PolarState,
    PulseTarget,
    StepControl,
    Trajectory,
    _HALF_PI,
    _json,
    _NUMBER,
    _write_rows,
    energy_theta_quadrature,  # noqa: F401 -- not called; blochbench's tracer patches it here
    integrate_feedback,
)
from .errors import (
    AngleOutOfRange,
    BoundTooSmall,
    DegenerateKappa,
    NoBracket,
    NoRealSwitch,
    Unreachable,
)
from .unbounded import _axis_cos, _smooth_energy, _smooth_factor

__all__ = [
    "MIN_BOUND",
    "arccot",
    "cot",
    "switching_angles",
    "kappa_from_switch",
    "partner_angle",
    "first_switch_radius",
    "saturated_arc_radius",
    "second_switch_radius",
    "reachable_boundary",
    "max_no_switch_radius",
    "Landmarks",
    "landmarks",
    "Regime",
    "classify",
    "required_second_switch_radius",
    "required_first_switch_radius",
    "Segment",
    "PulseProgram",
    "solve_two_switch",
    "solve_one_switch",
    "synthesize",
    "SwitchingGeometry",
    "sample_geometry",
]

# Bounds at or below 1/2 stall the rotation at an equilibrium angle before
# the transverse plane, so no quarter- or half-turn transfer is possible.
MIN_BOUND = 0.5

# Largest relative miss of the final radius that ``synthesize`` accepts, and
# the largest |log mismatch| at which a bracket end counts as the crossing.
_RADIUS_RTOL = 1e-9
# Lower end of the log-kappa bracket where the switching curves reach
# kappa = 0 (m <= 1): far below the kappa of any representable target.
_KAPPA_FLOOR = 1e-150


def arccot(x: float) -> float:
    """Inverse cotangent with range [0, pi]."""
    return math.atan2(1.0, x)


def cot(theta: float) -> float:
    s = math.sin(theta)
    c = math.cos(theta)
    if s == 0.0:
        return math.copysign(math.inf, c)
    return c / s


def _require_bound(m: float) -> None:
    if not m > MIN_BOUND:
        raise BoundTooSmall(f"control bound must exceed {MIN_BOUND}, got {m}")


def switching_angles(kappa: float, m: float) -> tuple[float, float]:
    """Both saturation angles for a given costate constant.

    Solves the saturation quadratic in cot(theta).  For m >= 1 real
    solutions require kappa >= sqrt(m^2 - 1); for 1/2 < m < 1 they exist
    for every kappa >= 0.
    """
    _require_bound(m)
    if kappa < 0.0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    # kappa^2 + 1 - m^2, written so that a tiny kappa^2 survives at m = 1
    disc = kappa * kappa + (1.0 - m) * (1.0 + m)
    if disc < 0.0:
        # tolerate rounding at the double-root boundary
        if disc > -1e-9 * max(1.0, m * m):
            disc = 0.0
        else:
            raise NoRealSwitch(
                f"no real switching angles: kappa={kappa:.9g} is below "
                f"sqrt(m^2-1)={math.sqrt(m * m - 1.0):.9g} for m={m:.9g}"
            )
    root = math.sqrt(disc)
    return arccot((1.0 + root) / m), arccot((1.0 - root) / m)


def kappa_from_switch(theta: float, m: float, which: str = "first") -> float:
    """Costate constant whose switching angle (entry or exit) is ``theta``.

    Entry curve: kappa^2 = (m cot(theta) - 1)^2 + m^2 - 1, valid from the
    pole down to the curve join; exit curve mirrors the sign of the linear
    term and runs from the join to pi.
    """
    _require_bound(m)
    limits = _switch_angle_limits(m)
    if which == "first":
        lo, hi = 0.0, limits[0]
        if not lo < theta <= hi + 1e-9:
            raise AngleOutOfRange(
                f"entry switching angle must lie in (0, {hi:.9g}], got {theta}"
            )
        linear = m * cot(theta) - 1.0
    elif which == "second":
        lo, hi = limits[1], math.pi
        if not lo - 1e-9 <= theta <= hi:
            raise AngleOutOfRange(
                f"exit switching angle must lie in [{lo:.9g}, pi], got {theta}"
            )
        linear = 1.0 - m * cot(theta)
    else:
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    value = linear * linear + m * m - 1.0
    if math.isinf(value):
        raise ValueError(
            f"control bound m={m:.9g} is too large: kappa^2 overflows at "
            f"theta={theta:.9g} on the {which} switching curve"
        )
    if value < 0.0:
        # only possible for m < 1 at the curve ends, from rounding
        value = 0.0
    return math.sqrt(value)


def _switch_angle_limits(m: float) -> tuple[float, float]:
    """(end of entry curve, start of exit curve); equal when m >= 1."""
    if m >= 1.0:
        join = arccot(1.0 / m)
        return join, join
    s = math.sqrt(1.0 - m * m)
    return arccot((1.0 + s) / m), arccot((1.0 - s) / m)


def partner_angle(theta: float, m: float) -> float:
    """The other saturation angle sharing theta's costate constant.

    Involution defined by cot(theta1) + cot(theta2) = 2/m.
    """
    _require_bound(m)
    return arccot(2.0 / m - cot(theta))


def first_switch_radius(theta1: float, m: float) -> float:
    """Radius of the saturation-entry curve at angle ``theta1``.

    Every entry point lies on the smooth arc from the unit pole whose
    costate constant makes ``theta1`` the first saturation angle.  The
    curve starts at (r, theta) = (1, 0), which is returned exactly.
    """
    _require_bound(m)
    if theta1 == 0.0:
        return 1.0
    return unbounded.trajectory_r(theta1, kappa_from_switch(theta1, m, "first"))


def _transport_exponent(theta_a: float, theta_b: float, m: float) -> float:
    w = math.sqrt(4.0 * m * m - 1.0)
    return arccot((2.0 * m * cot(theta_b) - 1.0) / w) - arccot(
        (2.0 * m * cot(theta_a) - 1.0) / w
    )


def saturated_arc_radius(
    r_start: float, theta_start: float, theta_end: float, m: float
) -> float:
    """Transport a radius along a fully saturated arc (u = m).

    Closed-form integral of da/dtheta = -sin^2(theta)/(m - sin cos) between
    the two angles; composes exactly: a->b then b->c equals a->c.
    """
    _require_bound(m)
    if theta_end == theta_start:
        return r_start
    amplitude = math.sqrt(
        (2.0 * m - math.sin(2.0 * theta_start)) / (2.0 * m - math.sin(2.0 * theta_end))
    )
    w = math.sqrt(4.0 * m * m - 1.0)
    return r_start * amplitude * math.exp(-_transport_exponent(theta_start, theta_end, m) / w)


def second_switch_radius(theta2: float, m: float) -> float:
    """Radius of the saturation-exit curve at angle ``theta2``.

    The exit curve is the saturated-arc image of the entry curve: find the
    partner entry angle, its radius, and transport it to ``theta2``.
    """
    theta1 = partner_angle(theta2, m)
    return saturated_arc_radius(first_switch_radius(theta1, m), theta1, theta2, m)


def reachable_boundary(theta3: float, m: float) -> float:
    """Outermost reachable radius at angle ``theta3``: the u = m trajectory
    from the unit pole."""
    return saturated_arc_radius(1.0, 0.0, theta3, m)


def max_no_switch_radius(theta: float, m: float) -> float:
    """Largest radius at ``theta`` reachable by a smooth arc alone.

    For m >= 1 this is the smooth trajectory at the largest costate
    constant that never saturates, kappa = sqrt((m - 1)(m + 1)).  For
    1/2 < m < 1 every transfer saturates; the analogue is the straight
    post-exit chord of the kappa = 0 trajectory, which meets theta = pi/2
    at the origin.
    """
    _require_bound(m)
    if m >= 1.0:
        return unbounded.trajectory_r(theta, math.sqrt((m - 1.0) * (m + 1.0)))
    lm = landmarks(m)
    return lm.r_b2 * math.cos(theta) / math.cos(lm.theta_b2)


@dataclass(frozen=True)
class Landmarks:
    """Named radii and angles organizing the reachable set for one bound.

    ``r_c1``/``r_d1`` are the outermost reachable radii on the theta = pi
    and theta = pi/2 axes; ``r_d2`` is where the saturation-exit curve
    crosses pi/2.  For m >= 1 the two switching curves join at
    (r_b, theta_b) and ``r_c2``/``r_d3`` bound the no-switch region; for
    1/2 < m < 1 the curves end at distinct points B1/B2 (the kappa = 0
    switches) and no transfer avoids saturation.
    """

    m: float
    r_c1: float
    r_d1: float
    r_d2: float
    theta_b: Optional[float] = None
    r_b: Optional[float] = None
    r_c2: Optional[float] = None
    r_d3: Optional[float] = None
    theta_b1: Optional[float] = None
    theta_b2: Optional[float] = None
    r_b1: Optional[float] = None
    r_b2: Optional[float] = None

    def as_dict(self) -> dict:
        ordered = [
            ("m", self.m),
            ("theta_B", self.theta_b),
            ("r_B", self.r_b),
            ("theta_B1", self.theta_b1),
            ("theta_B2", self.theta_b2),
            ("r_B1", self.r_b1),
            ("r_B2", self.r_b2),
            ("r_C1", self.r_c1),
            ("r_C2", self.r_c2),
            ("r_D1", self.r_d1),
            ("r_D2", self.r_d2),
            ("r_D3", self.r_d3),
        ]
        return {key: value for key, value in ordered if value is not None}


def landmarks(m: float) -> Landmarks:
    """All applicable landmark radii and angles for the bound ``m``."""
    _require_bound(m)
    if math.isinf(m * m):
        overflow = "" if math.isinf(m) else ", whose square overflows"
        raise ValueError(f"landmarks need a finite control bound, got m={m}{overflow}")
    w = math.sqrt(4.0 * m * m - 1.0)
    r_c1 = math.exp(-math.pi / w)
    r_d1 = math.exp(-(math.pi - arccot(1.0 / w)) / w)
    r_d2 = (
        math.sqrt(m * m + 2.0)
        / (1.0 + math.sqrt(m * m + 1.0))
        * math.exp(-arccot((m * m - 1.0) / w) / w)
    )
    if m >= 1.0:
        return Landmarks(
            m=m,
            r_c1=r_c1,
            r_d1=r_d1,
            r_d2=r_d2,
            theta_b=arccot(1.0 / m),
            r_b=math.sqrt(m * m + 1.0) / (m + 1.0),
            r_c2=(m - 1.0) / (m + 1.0),
            r_d3=math.sqrt(m * m - 1.0) / (m + 1.0),
        )
    s = math.sqrt(1.0 - m * m)
    r_b1 = math.sqrt((1.0 + s) / 2.0)
    r_b2 = r_b1 * math.exp(-arccot((2.0 * m * m - 1.0) / (w * s)) / w)
    return Landmarks(
        m=m,
        r_c1=r_c1,
        r_d1=r_d1,
        r_d2=r_d2,
        theta_b1=arccot((1.0 + s) / m),
        theta_b2=arccot((1.0 - s) / m),
        r_b1=r_b1,
        r_b2=r_b2,
    )


class Regime(Enum):
    """Switch count of the optimal transfer."""

    NO_SWITCH = "none"
    ONE_SWITCH = "one"
    TWO_SWITCH = "two"
    UNREACHABLE = "unreachable"


def classify(m: float, target: PulseTarget) -> Regime:
    """Switch-count regime of the target under the bound ``m``.

    Boundary radii are inclusive downward, matching the interval placement
    of the regime table: a target exactly on a landmark belongs to the
    interval whose upper end it is.  A bound whose square overflows (inf
    too) never saturates, so every target is NO_SWITCH.
    """
    _require_bound(m)
    if math.isinf(m * m):
        return Regime.NO_SWITCH
    lm = landmarks(m)
    r = target.r
    if target.is_inversion:
        if r > lm.r_c1:
            return Regime.UNREACHABLE
        if lm.r_c2 is not None and r <= lm.r_c2:
            return Regime.NO_SWITCH
        return Regime.TWO_SWITCH
    if r > lm.r_d1:
        return Regime.UNREACHABLE
    if lm.r_d3 is not None and r <= lm.r_d3:
        return Regime.NO_SWITCH
    if r <= lm.r_d2:
        return Regime.TWO_SWITCH
    return Regime.ONE_SWITCH


def required_second_switch_radius(
    theta2: float, r_tau: float, theta_tau: float, kappa: float
) -> float:
    """Exit radius needed so the post-saturation smooth arc ends on target.

    Derived by running the smooth-arc radius ratio backwards from the final
    point (r_tau, theta_tau) to the exit angle.  Singular at kappa = 0,
    which only arises in the r_tau -> 0 limit.
    """
    if kappa <= 0.0:
        raise DegenerateKappa(
            f"post-switch arc is singular for kappa={kappa:.9g}"
        )
    if theta_tau not in (_HALF_PI, math.pi):
        raise ValueError(f"final angle must be pi/2 or pi, got {theta_tau}")
    return r_tau * _smooth_factor(_axis_cos(theta2), kappa) / _smooth_factor(
        _axis_cos(theta_tau), kappa
    )


def required_first_switch_radius(theta1: float, r_tau: float, m: float) -> float:
    """Entry radius needed so a saturated arc from ``theta1`` ends on
    (r_tau, pi/2): the saturated transport run backwards from the target."""
    _require_bound(m)
    w = math.sqrt(4.0 * m * m - 1.0)
    amplitude = math.sqrt(2.0 * m / (2.0 * m - math.sin(2.0 * theta1)))
    return r_tau * amplitude * math.exp(_transport_exponent(theta1, _HALF_PI, m) / w)


@dataclass(frozen=True)
class Segment:
    """One piece of the piecewise feedback description."""

    kind: str  # "smooth" | "saturated"
    theta_lo: float
    theta_hi: float


@dataclass(frozen=True)
class PulseProgram:
    """Complete synthesized pulse: bound, regime, costate constant,
    switching angles, predicted energy, and the feedback law itself.

    ``m`` is ``math.inf`` for an unlimited-amplitude design.  ``theta1``
    and ``theta2`` are absent (None) according to the regime.  The program
    object doubles as the feedback law: ``control``/``costate`` evaluate
    the piecewise closed forms, and ``radius_at`` the angle-parameterized
    trajectory they trace.
    """

    m: float
    target: PulseTarget
    regime: Regime
    kappa: float
    theta1: Optional[float]
    theta2: Optional[float]
    energy: float

    @property
    def lambda_a(self) -> float:
        return 0.5 * self.kappa * self.kappa

    @property
    def theta_domain(self) -> tuple[float, float]:
        return 0.0, self.target.theta

    def _saturated_interval(self) -> Optional[tuple[float, float]]:
        return _saturated_interval(self.target, self.theta1, self.theta2)

    @property
    def segments(self) -> tuple[Segment, ...]:
        sat = self._saturated_interval()
        if sat is None:
            return (Segment("smooth", 0.0, self.target.theta),)
        lo, hi = sat
        pieces = [Segment("smooth", 0.0, lo), Segment("saturated", lo, hi)]
        if hi < self.target.theta:
            pieces.append(Segment("smooth", hi, self.target.theta))
        return tuple(pieces)

    @cached_property
    def _law(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        """The feedback law compiled once into plain (control, costate)
        closures over (kappa^2, m, theta1, theta2); kappa is checked here."""
        unbounded._check_kappa(self.kappa)
        k2, m = self.kappa * self.kappa, self.m
        lo, hi = self._saturated_interval() or (math.inf, -math.inf)
        sin, cos, sqrt = math.sin, math.cos, math.sqrt

        def control(theta: float) -> float:
            if lo <= theta <= hi:
                return m
            c = cos(theta)
            return sin(theta) * (c + sqrt(c * c + k2))

        def costate(theta: float) -> float:
            if lo <= theta <= hi:
                s = sin(theta)
                return (m * m + k2 * s * s) / (2.0 * (m - s * cos(theta)))
            return control(theta)

        return control, costate

    def __getstate__(self) -> dict:
        # the compiled law's closures do not pickle; it is rebuilt on first use
        return {k: v for k, v in self.__dict__.items() if k != "_law"}

    def control(self, theta: float) -> float:
        return self._law[0](theta)

    def costate(self, theta: float) -> float:
        """Angle costate along the program; equals the control on smooth
        arcs and exceeds the bound strictly inside the saturated arc."""
        return self._law[1](theta)

    def radius_at(self, theta: float) -> float:
        """Angle-parameterized closed-form radius along the program."""
        return _program_radius(self.m, self.kappa, self._saturated_interval(), theta)

    def simulate(self, step: StepControl = StepControl()) -> Trajectory:
        """Closed-loop run of the program from (r, theta) = (1, THETA_START)."""
        control, costate = self._law
        return integrate_feedback(
            control,
            PolarState(a=0.0, theta=THETA_START),
            self.target.theta,
            step=step,
            costate=costate,
            lambda_a=self.lambda_a,
        )

    def to_json(self) -> str:
        return _json({
            "m": self.m,
            "target": {"r": self.target.r, "theta": self.target.label},
            "regime": self.regime.value,
            "kappa": self.kappa,
            "theta1": self.theta1,
            "theta2": self.theta2,
            "energy": self.energy,
        })

    def save(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def from_json(cls, text: str) -> "PulseProgram":
        raw = json.loads(text)
        try:
            target = PulseTarget.from_label(raw["target"]["r"], raw["target"]["theta"])
            regime = Regime(raw["regime"])
            m = raw["m"]
            program = cls(
                m=math.inf if m is None else float(m),
                target=target,
                regime=regime,
                kappa=float(raw["kappa"]),
                theta1=None if raw["theta1"] is None else float(raw["theta1"]),
                theta2=None if raw["theta2"] is None else float(raw["theta2"]),
                energy=float(raw["energy"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed pulse program document: {exc}") from exc
        if not 0.0 < program.energy < math.inf:
            raise ValueError(f"energy must be finite and positive, got {program.energy}")
        program._validate_shape()
        return program

    @classmethod
    def load(cls, path) -> "PulseProgram":
        with open(path) as handle:
            return cls.from_json(handle.read())

    def _validate_shape(self) -> None:
        needs = {
            Regime.NO_SWITCH: (False, False),
            Regime.ONE_SWITCH: (True, False),
            Regime.TWO_SWITCH: (True, True),
        }
        if self.regime not in needs:
            raise ValueError(f"program regime {self.regime} is not synthesizable")
        want1, want2 = needs[self.regime]
        if (self.theta1 is not None) != want1 or (self.theta2 is not None) != want2:
            raise ValueError(
                f"switching angles inconsistent with regime {self.regime.value}"
            )
        if not math.isinf(self.m):
            _require_bound(self.m)
        # chained comparisons also reject NaN angles
        theta_tau = self.target.theta
        if self.theta1 is not None and not 0.0 < self.theta1 <= theta_tau:
            raise ValueError(
                f"theta1 must lie in (0, {theta_tau:.12g}], got {self.theta1}"
            )
        if self.theta2 is not None and not self.theta1 <= self.theta2 <= theta_tau:
            raise ValueError(
                f"theta2 must lie in [theta1, {theta_tau:.12g}], got {self.theta2}"
            )
        if self.theta1 is not None and math.isinf(self.m):
            raise ValueError("a program with theta1 needs a finite bound m")


def _saturated_interval(
    target: PulseTarget, theta1: Optional[float], theta2: Optional[float]
) -> Optional[tuple[float, float]]:
    """The one saturated arc: none without theta1, and up to the target
    angle without theta2."""
    if theta1 is None:
        return None
    return theta1, target.theta if theta2 is None else theta2


def _program(
    m: float,
    target: PulseTarget,
    regime: Regime,
    kappa: float,
    theta1: Optional[float] = None,
    theta2: Optional[float] = None,
) -> PulseProgram:
    """A synthesized program, with its closed-form energy."""
    sat = _saturated_interval(target, theta1, theta2)
    energy = _program_energy(m, kappa, sat, target.theta)
    return PulseProgram(m, target, regime, kappa, theta1, theta2, energy)


def _program_radius(
    m: float, kappa: float, sat: Optional[tuple[float, float]], theta: float
) -> float:
    """Closed-form radius at ``theta`` of a program started on the unit pole."""
    c = _axis_cos(theta)
    pole = _smooth_factor(1.0, kappa)
    if sat is None or theta <= sat[0]:
        return _smooth_factor(c, kappa) / pole
    r1 = _smooth_factor(_axis_cos(sat[0]), kappa) / pole
    if theta <= sat[1]:
        return saturated_arc_radius(r1, sat[0], theta, m)
    r2 = saturated_arc_radius(r1, sat[0], sat[1], m)
    return r2 * _smooth_factor(c, kappa) / _smooth_factor(_axis_cos(sat[1]), kappa)


def _program_energy(
    m: float, kappa: float, sat: Optional[tuple[float, float]], theta_tau: float
) -> float:
    """Closed-form energy of a piecewise program, segment by segment.

    A saturated arc costs m^2/(2 (m - sin cos)) per unit angle, whose
    integral is m^2 times the transport exponent over sqrt(4 m^2 - 1).
    """
    if sat is None:
        return _smooth_energy(0.0, theta_tau, kappa)
    lo, hi = sat
    saturated = m * m * _transport_exponent(lo, hi, m) / math.sqrt(4.0 * m * m - 1.0)
    return _smooth_energy(0.0, lo, kappa) + saturated + _smooth_energy(hi, theta_tau, kappa)


def _bracketed_root(g: Callable[[float], float], a: float, b: float) -> Optional[float]:
    """Root of ``g`` on [a, b] by Brent's method, or None without a crossing.

    An end where |g| <= _RADIUS_RTOL is taken as the root when g has the
    same sign at both ends: a target exactly on a landmark radius puts the
    crossing on a bracket end, where rounding decides the sign of g.
    """
    fa, fb = g(a), g(b)
    if fa * fb > 0.0:
        end, f_end = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
        return end if abs(f_end) <= _RADIUS_RTOL else None
    c, fc = a, fa
    d = e = b - a
    # Brent needs a few dozen steps at most; the cap only bounds a g gone
    # NaN, whose result the post-condition in ``synthesize`` then rejects
    for _ in range(200):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * math.ulp(max(abs(b), 1.0))
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            # inverse quadratic interpolation, or secant with two points
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = g(b)
    return b


def solve_two_switch(m: float, target: PulseTarget) -> PulseProgram:
    """Locate the costate constant of a two-switch transfer.

    Both switching angles follow from kappa, so one bracketed root solve in
    log kappa matches the closed-form final radius to the target's.  The
    bracket runs from the curve join (kappa = sqrt(m^2 - 1), or a tiny
    floor when the curves reach kappa = 0) to the kappa whose exit angle
    lies on the target axis.
    """
    regime = classify(m, target)
    if regime is not Regime.TWO_SWITCH:
        raise ValueError(
            f"target (r={target.r}, theta={target.label}) with m={m} is in the "
            f"{regime.value!r} regime, not 'two'"
        )
    lo = math.log(max(math.sqrt(max((m - 1.0) * (m + 1.0), 0.0)), _KAPPA_FLOOR))
    hi = math.log(kappa_from_switch(target.theta, m, "second"))
    log_r = math.log(target.r)

    def mismatch(log_kappa: float) -> float:
        kappa = math.exp(log_kappa)
        sat = switching_angles(kappa, m)
        return math.log(_program_radius(m, kappa, sat, target.theta)) - log_r

    root = _bracketed_root(mismatch, lo, hi)
    if root is None:
        raise NoBracket(
            f"no crossing with the exit switching curve for kappa in "
            f"[{math.exp(lo):.9g}, {math.exp(hi):.9g}] "
            f"for r={target.r}, theta={target.label}, m={m}"
        )
    kappa = math.exp(root)
    theta1, theta2 = switching_angles(kappa, m)
    # at the axis end of the bracket rounding can put theta2 an ulp past it
    theta2 = min(theta2, target.theta)
    return _program(m, target, Regime.TWO_SWITCH, kappa, theta1, theta2)


def solve_one_switch(m: float, r_tau: float) -> PulseProgram:
    """Locate the entry switching angle for a one-switch quarter turn.

    One bracketed root solve over the entry curve matches the log of the
    entry radius to the log of the radius the saturated arc needs.
    """
    target = PulseTarget(r_tau, _HALF_PI)
    regime = classify(m, target)
    if regime is not Regime.ONE_SWITCH:
        raise ValueError(
            f"target (r={r_tau}, theta=pi/2) with m={m} is in the "
            f"{regime.value!r} regime, not 'one'"
        )
    hi = _switch_angle_limits(m)[0]

    def mismatch(theta1: float) -> float:
        return math.log(
            first_switch_radius(theta1, m) / required_first_switch_radius(theta1, r_tau, m)
        )

    theta1 = _bracketed_root(mismatch, 1e-12, hi)
    if theta1 is None:
        raise NoBracket(
            f"no crossing with the entry switching curve on (0, {hi:.9g}] "
            f"for r={r_tau}, m={m}"
        )
    kappa = kappa_from_switch(theta1, m, "first")
    return _program(m, target, Regime.ONE_SWITCH, kappa, theta1)


def synthesize(m: float, target: PulseTarget) -> PulseProgram:
    """Dispatch on the regime and assemble the full pulse program.

    ``m = math.inf`` selects the unlimited-amplitude branch.  The no-switch
    regime reuses the unlimited-amplitude costate constant, whose smooth law
    never touches the bound there.  The program's closed-form final radius
    is checked against the target: a relative miss above 1e-9 raises
    NoBracket instead of returning a wrong program.
    """
    regime = classify(m, target)
    if regime is Regime.UNREACHABLE:
        lm = landmarks(m)
        limit = lm.r_c1 if target.is_inversion else lm.r_d1
        raise Unreachable(
            f"final radius {target.r:.9g} exceeds the largest reachable radius "
            f"{limit:.9g} on the theta={target.label} axis for m={m:.9g}",
            limit_radius=limit,
        )
    if regime is Regime.NO_SWITCH:
        program = _program(m, target, regime, unbounded.kappa_for_target(target))
    elif regime is Regime.TWO_SWITCH:
        program = solve_two_switch(m, target)
    else:
        program = solve_one_switch(m, target.r)
    miss = program.radius_at(target.theta) / target.r - 1.0
    if not abs(miss) <= _RADIUS_RTOL:
        raise NoBracket(
            f"program misses the final radius by {miss:.3g} relative "
            f"for r={target.r}, theta={target.label}, m={m}"
        )
    return program


@dataclass(frozen=True)
class SwitchingGeometry:
    """Sampled switching curves, reachable boundary and landmarks.

    Each curve is an array of shape (n, 2) with columns (theta, r).
    """

    m: float
    first_curve: np.ndarray
    second_curve: np.ndarray
    boundary: np.ndarray
    no_switch_max: np.ndarray
    landmarks: Landmarks

    def write_csv(self, handle) -> None:
        """Emit rows ``curve,theta,r`` for every sampled point."""
        handle.write("curve,theta,r\n")
        for name, curve in (
            ("first", self.first_curve),
            ("second", self.second_curve),
            ("boundary", self.boundary),
            ("noswitch_max", self.no_switch_max),
        ):
            _write_rows(handle, f"{name},{_NUMBER},{_NUMBER}\n", curve)


def sample_geometry(m: float, samples: int = 400) -> SwitchingGeometry:
    """Sample all four organizing curves on uniform angle grids."""
    _require_bound(m)
    if samples < 2:
        raise ValueError(f"need at least 2 samples per curve, got {samples}")
    lm = landmarks(m)
    first_end, second_start = _switch_angle_limits(m)

    def curve(fn, lo: float, hi: float) -> np.ndarray:
        thetas = np.linspace(lo, hi, samples)
        return np.column_stack([thetas, [fn(float(t)) for t in thetas]])

    if m >= 1.0:
        no_switch = curve(lambda t: max_no_switch_radius(t, m), lm.theta_b, math.pi)
    else:
        no_switch = curve(lambda t: max_no_switch_radius(t, m), lm.theta_b2, _HALF_PI)
    return SwitchingGeometry(
        m=m,
        first_curve=curve(lambda t: first_switch_radius(t, m), 0.0, first_end),
        second_curve=curve(lambda t: second_switch_radius(t, m), second_start, math.pi),
        boundary=curve(lambda t: reachable_boundary(t, m), 0.0, math.pi),
        no_switch_max=no_switch,
        landmarks=lm,
    )
