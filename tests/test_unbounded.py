import decimal
import math

import numpy as np
import pytest

from blochpulse.bloch import (
    THETA_START,
    PolarState,
    PulseTarget,
    control_hamiltonian,
    energy_theta_quadrature,
    integrate_feedback,
)
from blochpulse.errors import TargetOutOfRange
from blochpulse.unbounded import (
    UnboundedSolution,
    closed_energy,
    feedback_u,
    kappa_for_target,
    thetadot,
    trajectory_r,
)

QUARTER = math.pi / 2

THETA_GRID = np.linspace(0.0, math.pi, 501)
KAPPAS = [0.0, 0.3, 1.875, 3.873, 10.0]


class TestKappaSelection:
    def test_quarter_turn_value(self):
        assert kappa_for_target(PulseTarget(0.6, QUARTER)) == pytest.approx(
            2 * 0.6 / (1 - 0.36), rel=1e-15
        )
        assert kappa_for_target(PulseTarget(0.6, QUARTER)) == pytest.approx(1.875)

    def test_half_turn_value(self):
        assert kappa_for_target(PulseTarget(0.6, math.pi)) == pytest.approx(
            2 * math.sqrt(0.6) / 0.4, rel=1e-15
        )

    def test_small_radius_limit(self):
        assert kappa_for_target(PulseTarget(1e-9, QUARTER)) < 1e-8
        assert kappa_for_target(PulseTarget(1e-12, math.pi)) < 1e-5

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.2])
    def test_rejects_bad_radius(self, bad):
        with pytest.raises(TargetOutOfRange):
            kappa_for_target(PulseTarget(bad, math.pi))


class TestFeedbackLaw:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_vanishes_at_poles(self, kappa):
        assert feedback_u(0.0, kappa) == 0.0
        assert abs(feedback_u(math.pi, kappa)) < 1e-14

    def test_transverse_value_is_kappa(self):
        for kappa in KAPPAS:
            assert feedback_u(QUARTER, kappa) == pytest.approx(kappa, abs=1e-15)
            assert thetadot(QUARTER, kappa) == pytest.approx(kappa, abs=1e-15)

    def test_zero_kappa_midpoint(self):
        assert feedback_u(math.pi / 4, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert thetadot(math.pi / 4, 0.0) == pytest.approx(0.5, rel=1e-15)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            feedback_u(1.0, -0.1)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_rate_identity(self, kappa):
        # u(theta) - sin cos == thetadot(theta), identically
        for theta in THETA_GRID:
            theta = float(theta)
            lhs = feedback_u(theta, kappa) - math.sin(theta) * math.cos(theta)
            assert abs(lhs - thetadot(theta, kappa)) < 1e-12

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_stationarity_identities(self, kappa):
        lam_a = 0.5 * kappa * kappa
        for theta in THETA_GRID:
            theta = float(theta)
            lam = feedback_u(theta, kappa)
            # quadratic satisfied by the costate
            s, c = math.sin(theta), math.cos(theta)
            assert abs(lam * lam - 2 * lam * s * c - kappa * kappa * s * s) < 1e-12
            # stationarity function vanishes
            assert abs(control_hamiltonian(lam, theta, lam, lam_a)) < 1e-12


class TestTrajectoryRadius:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_starts_at_unit_radius(self, kappa):
        assert trajectory_r(0.0, kappa) == pytest.approx(1.0, rel=1e-15)

    def test_zero_kappa_is_cosine(self):
        assert trajectory_r(math.pi / 3, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_round_trip_with_kappa_selection(self):
        kappa = kappa_for_target(PulseTarget(0.6, math.pi))
        assert trajectory_r(math.pi, kappa) == pytest.approx(0.6, rel=1e-12)
        kappa = kappa_for_target(PulseTarget(0.37, QUARTER))
        assert trajectory_r(QUARTER, kappa) == pytest.approx(0.37, rel=1e-12)

    @pytest.mark.parametrize("theta", [2.5, 3.0, QUARTER])
    @pytest.mark.parametrize("kappa", [1e-3, 1e-6, 1e-9])
    def test_matches_decimal_reference(self, kappa, theta, decimal_cos):
        # past pi/2 the factor c + sqrt(c^2 + kappa^2) cancels to ~kappa^2/(2|c|)
        with decimal.localcontext(decimal.Context(prec=60)):
            c, k2 = decimal_cos(theta), decimal.Decimal(kappa) ** 2
            expected = (c + (c * c + k2).sqrt()) / (1 + (1 + k2).sqrt())
        assert trajectory_r(theta, kappa) == pytest.approx(float(expected), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kappa", [0.3, 1.875, 10.0])
    def test_strictly_decreasing_for_positive_kappa(self, kappa):
        values = [trajectory_r(float(t), kappa) for t in THETA_GRID]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_ode_matches_closed_form(self):
        kappa = kappa_for_target(PulseTarget(0.6, math.pi))
        traj = integrate_feedback(
            lambda th: feedback_u(th, kappa),
            PolarState(0.0, THETA_START),
            math.pi,
        )
        assert traj.final_r == pytest.approx(0.6, abs=1e-4)
        assert traj.final_r == pytest.approx(
            trajectory_r(traj.final_theta, kappa), abs=1e-9
        )


class TestClosedEnergy:
    def test_reference_values(self):
        assert closed_energy(PulseTarget(0.6, QUARTER)) == pytest.approx(1.5625)
        assert closed_energy(PulseTarget(0.6, math.pi)) == pytest.approx(4.0)

    def test_small_radius_limit(self):
        assert closed_energy(PulseTarget(1e-9, QUARTER)) == pytest.approx(1.0)
        assert closed_energy(PulseTarget(1e-9, math.pi)) == pytest.approx(1.0)

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("theta", [QUARTER, math.pi])
    def test_quadrature_matches_closed_form(self, r, theta):
        target = PulseTarget(r, theta)
        kappa = kappa_for_target(target)
        energy = energy_theta_quadrature(
            lambda th: feedback_u(th, kappa),
            lambda th: thetadot(th, kappa),
            0.0,
            theta,
        )
        assert energy == pytest.approx(closed_energy(target), rel=1e-8)

    @pytest.mark.parametrize("r", [0.3, 0.6])
    @pytest.mark.parametrize("theta", [QUARTER, math.pi])
    def test_energy_slope_equals_lambda_a(self, r, theta):
        # d(energy)/d(log final radius) equals the constant costate kappa^2/2
        delta = 1e-6
        up = closed_energy(PulseTarget(r * math.exp(delta), theta))
        down = closed_energy(PulseTarget(r * math.exp(-delta), theta))
        slope = (up - down) / (2 * delta)
        solution = UnboundedSolution.for_target(PulseTarget(r, theta))
        assert slope == pytest.approx(solution.lambda_a, rel=1e-6)


def test_solution_bundle():
    target = PulseTarget(0.6, QUARTER)
    solution = UnboundedSolution.for_target(target)
    assert solution.kappa == pytest.approx(1.875)
    assert solution.energy == pytest.approx(1.5625)
    assert solution.lambda_a == pytest.approx(1.875**2 / 2)
    assert solution.energy > 0
