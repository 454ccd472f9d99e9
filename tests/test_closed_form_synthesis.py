"""Closed-form synthesis over the whole documented domain.

Every returned program is checked against a log radius computed apart from
the program: the smooth-arc antiderivative log(cos + sqrt(cos^2 + kappa^2))
with exact axis cosines, and Gauss-Legendre quadrature of the saturated-arc
rate.  Energies are checked against the angle-domain Simpson quadrature.
"""

import dataclasses
import math

import numpy as np
import pytest

from blochpulse import bounded
from blochpulse.bloch import PulseTarget, energy_theta_quadrature, reduced_rhs
from blochpulse.bounded import (
    Regime,
    classify,
    first_switch_radius,
    landmarks,
    required_first_switch_radius,
    switching_angles,
    synthesize,
)
from blochpulse.errors import NoBracket, Unreachable
from blochpulse.pmp import saturation_excess

QUARTER = math.pi / 2
AXES = (QUARTER, math.pi)
# 17 bounds from just above 1/2 to 1e4, with 1 +/- 1e-6 (ROADMAP item 1 grid)
BOUNDS = (
    0.5000001, 0.51, 0.6, 0.75, 0.9, 0.95, 1.0 - 1e-6, 1.0, 1.0 + 1e-6,
    1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, 1e4,
)
SMALLEST_RADIUS = 1e-12
RADIUS_RTOL = 1e-9

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def _exact_cos(theta):
    if theta == QUARTER:
        return 0.0
    if theta == math.pi:
        return -1.0
    return math.cos(theta)


def _log_smooth_factor(theta, kappa):
    c = _exact_cos(theta)
    s = math.hypot(c, kappa)
    return math.log(c + s if c >= 0.0 else kappa * kappa / (s - c))


def _saturated_log_radius(lo, hi, m):
    # -integral of sin^2 / (m - sin cos); panels resolve its peak at pi/4,
    # whose width is ~sqrt(m - 1/2)
    panels = max(64, min(20_000, math.ceil((hi - lo) / (0.1 * math.sqrt(m - 0.5)))))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * _GL_X
    return -float(np.sum(half * _GL_W * np.sin(x) ** 2 / (m - np.sin(x) * np.cos(x))))


def reference_miss(program):
    """Relative miss of the program's final radius, computed apart from it."""
    log_r = 0.0
    for seg in program.segments:
        if seg.theta_hi <= seg.theta_lo:
            continue
        if seg.kind == "smooth":
            log_r += _log_smooth_factor(seg.theta_hi, program.kappa) - _log_smooth_factor(
                seg.theta_lo, program.kappa
            )
        else:
            log_r += _saturated_log_radius(seg.theta_lo, seg.theta_hi, program.m)
    return abs(math.expm1(log_r - math.log(program.target.r)))


def _limit(m, theta):
    lm = landmarks(m)
    return lm.r_c1 if theta == math.pi else lm.r_d1


def _sweep_targets():
    rng = np.random.default_rng(20100423)
    targets = []
    for m in BOUNDS:
        for theta in AXES:
            limit = _limit(m, theta)
            if limit < SMALLEST_RADIUS:
                continue
            # the one-switch band lies just below the quarter-turn limit
            fractions = np.concatenate([rng.uniform(0.0, 1.0, 6), rng.uniform(0.95, 1.0, 2)])
            exponents = rng.uniform(0.0, math.log10(limit / SMALLEST_RADIUS), 4)
            targets += [(m, float(f) * limit, theta) for f in fractions]
            targets += [(m, limit * 10.0 ** -float(e), theta) for e in exponents]
            targets.append((m, SMALLEST_RADIUS, theta))
    for _ in range(60):
        m = 0.5 + 10.0 ** rng.uniform(-6.0, 6.0)
        theta = AXES[rng.integers(2)]
        limit = _limit(m, theta)
        if limit < SMALLEST_RADIUS:
            targets.append((m, SMALLEST_RADIUS, theta))
            continue
        exponent = rng.uniform(0.0, math.log10(limit / SMALLEST_RADIUS))
        targets.append((m, limit * 10.0 ** -exponent, theta))
    return targets


def test_seeded_sweep_hits_every_reachable_target():
    regimes = set()
    for m, r, theta in _sweep_targets():
        target = PulseTarget(r, theta)
        if r > _limit(m, theta):
            # bounds near 1/2 reach less than the smallest radius of the domain
            with pytest.raises(Unreachable):
                synthesize(m, target)
            continue
        program = synthesize(m, target)
        regimes.add(program.regime)
        assert program.regime is classify(m, target)
        assert reference_miss(program) <= RADIUS_RTOL, (m, r, theta)
    assert regimes == {Regime.NO_SWITCH, Regime.ONE_SWITCH, Regime.TWO_SWITCH}


def _scanned_excess(program):
    """Smallest costate margin over 1,000 points of the inset saturated arc."""
    (arc,) = [seg for seg in program.segments if seg.kind == "saturated"]
    inset = (arc.theta_hi - arc.theta_lo) * 1e-6
    thetas = np.linspace(arc.theta_lo + inset, arc.theta_hi - inset, 1_000)
    return min(program.costate(float(theta)) - program.m for theta in thetas)


def test_saturation_excess_equals_scan_on_seeded_sweep():
    # the closed-form margin's sign is decided at the arc's ends, and there
    # its value is the scan's minimum, bit for bit
    saturated = 0
    for m, r, theta in _sweep_targets():
        if r > _limit(m, theta):
            continue
        program = synthesize(m, PulseTarget(r, theta))
        if program.regime is Regime.NO_SWITCH:
            assert saturation_excess(program) is None
            continue
        saturated += 1
        assert saturation_excess(program) == _scanned_excess(program), (m, r, theta)
    assert saturated >= 250


@pytest.mark.parametrize(
    "m, theta, r",
    [
        (1.0, QUARTER, 1e-8),
        (1.0, QUARTER, 1e-12),
        (0.95, math.pi, 1e-12),
        (0.95, QUARTER, 1e-8),
        (0.95, QUARTER, 1e-12),
        (0.51, QUARTER, 1e-12),
    ],
)
def test_small_radius_targets(m, theta, r):
    program = synthesize(m, PulseTarget(r, theta))
    assert program.regime is Regime.TWO_SWITCH
    assert program.theta1 < program.theta2
    assert reference_miss(program) <= RADIUS_RTOL
    assert program.radius_at(theta) == pytest.approx(r, rel=RADIUS_RTOL, abs=0.0)


def test_switching_angles_resolve_tiny_kappa_at_unit_bound():
    theta1, theta2 = switching_angles(1e-12, 1.0)
    assert theta2 - theta1 == pytest.approx(1e-12, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("m", BOUNDS)
def test_exact_landmark_radii(m):
    # every landmark radius and the doubles on either side, on both axes:
    # a target beyond the axis limit is Unreachable, any other one is met
    lm = landmarks(m)
    for key, value in lm.as_dict().items():
        if not key.startswith("r_"):
            continue
        for r in (math.nextafter(value, 0.0), value, math.nextafter(value, 1.0)):
            for theta in AXES:
                if not SMALLEST_RADIUS <= r < 1.0:
                    continue
                target = PulseTarget(r, theta)
                if r > _limit(m, theta):
                    with pytest.raises(Unreachable):
                        synthesize(m, target)
                    continue
                program = synthesize(m, target)
                assert program.regime is classify(m, target)
                assert reference_miss(program) <= RADIUS_RTOL, (m, key, r, theta)


@pytest.mark.parametrize("m", [m for m in BOUNDS if landmarks(m).r_d1 >= SMALLEST_RADIUS])
def test_one_switch_entry_radius_meets_required_radius(m):
    # the solve runs in log kappa; the entry-angle formulation stays the
    # reference: the entry curve meets the saturated arc run back from target
    lm = landmarks(m)
    for fraction in (1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0):
        r = lm.r_d2 + fraction * (lm.r_d1 - lm.r_d2)
        program = synthesize(m, PulseTarget(r, QUARTER))
        assert program.regime is Regime.ONE_SWITCH
        entry = first_switch_radius(program.theta1, m)
        required = required_first_switch_radius(program.theta1, r, m)
        assert entry == pytest.approx(required, rel=RADIUS_RTOL, abs=0.0), (m, r)


def _quadrature_energy(program):
    return sum(
        energy_theta_quadrature(
            program.control,
            lambda th: reduced_rhs(th, program.control(th))[1],
            seg.theta_lo,
            seg.theta_hi,
        )
        for seg in program.segments
    )


@pytest.mark.parametrize(
    "m, r, theta, regime",
    [
        (math.inf, 0.6, QUARTER, Regime.NO_SWITCH),
        (math.inf, 0.6, math.pi, Regime.NO_SWITCH),
        (2.0, 0.3, math.pi, Regime.NO_SWITCH),
        (2.0, 0.55, QUARTER, Regime.NO_SWITCH),
        (2.0, 0.61, QUARTER, Regime.ONE_SWITCH),
        (0.95, 0.265, QUARTER, Regime.ONE_SWITCH),
        (2.0, 0.39, math.pi, Regime.TWO_SWITCH),
        (2.0, 0.59, QUARTER, Regime.TWO_SWITCH),
        (0.95, 0.2, QUARTER, Regime.TWO_SWITCH),
        (0.95, 0.1, math.pi, Regime.TWO_SWITCH),
    ],
)
def test_closed_form_energy_matches_quadrature(m, r, theta, regime):
    program = synthesize(m, PulseTarget(r, theta))
    assert program.regime is regime
    assert program.energy == pytest.approx(_quadrature_energy(program), rel=1e-9)


def test_missed_target_raises(monkeypatch):
    solve = bounded.solve_two_switch

    def off_target(m, target):
        program = solve(m, target)
        return dataclasses.replace(program, kappa=program.kappa * (1.0 + 1e-6))

    monkeypatch.setattr(bounded, "solve_two_switch", off_target)
    with pytest.raises(NoBracket):
        synthesize(2.0, PulseTarget(0.39, math.pi))
