import math

import numpy as np
import pytest

from blochpulse import bloch
from blochpulse.bloch import (
    THETA_START,
    CartesianState,
    PolarState,
    PulseTarget,
    StepControl,
    cartesian_from_polar,
    energy_theta_quadrature,
    full_rhs,
    integrate_feedback,
    integrate_full,
    polar_from_cartesian,
    reduced_rhs,
    write_trajectory_csv,
)
from blochpulse.errors import (
    NonpositiveThetaDot,
    StallDetected,
    StepTooLarge,
    TargetOutOfRange,
    ZeroVector,
)
from blochpulse.unbounded import feedback_u, kappa_for_target, trajectory_r


def smooth_law(kappa):
    return lambda theta: feedback_u(theta, kappa)


class TestTransforms:
    @pytest.mark.parametrize(
        "xyz, expected",
        [
            ((0.0, 0.0, 1.0), (0.0, 0.0, math.pi / 2)),
            ((0.0, 1.0, 0.0), (0.0, math.pi / 2, math.pi / 2)),
            ((0.0, 0.0, -0.6), (math.log(0.6), math.pi, math.pi / 2)),
        ],
    )
    def test_polar_from_cartesian(self, xyz, expected):
        a, theta, phi = polar_from_cartesian(CartesianState(*xyz))
        assert a == pytest.approx(expected[0], abs=1e-15)
        assert theta == pytest.approx(expected[1], abs=1e-15)
        assert phi == pytest.approx(expected[2], abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            polar_from_cartesian(CartesianState(0.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "polar, xyz",
        [
            ((0.0, math.pi / 2, math.pi / 2), (0.0, 1.0, 0.0)),
            ((math.log(0.5), 0.0, math.pi / 2), (0.0, 0.0, 0.5)),
            ((math.log(0.39), math.pi, math.pi / 2), (0.0, 0.0, -0.39)),
        ],
    )
    def test_cartesian_from_polar(self, polar, xyz):
        state = cartesian_from_polar(*polar)
        assert state.x == pytest.approx(xyz[0], abs=1e-15)
        assert state.y == pytest.approx(xyz[1], abs=1e-15)
        assert state.z == pytest.approx(xyz[2], abs=1e-15)

    def test_round_trip_away_from_poles(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a = float(-rng.uniform(0.0, 2.0))
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            phi = float(rng.uniform(-math.pi, math.pi))
            a2, theta2, phi2 = polar_from_cartesian(cartesian_from_polar(a, theta, phi))
            assert abs(a2 - a) < 1e-12
            assert abs(theta2 - theta) < 1e-12
            assert abs(phi2 - phi) < 1e-12

    def test_non_finite_state_rejected(self):
        with pytest.raises(ValueError):
            CartesianState(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            PolarState(0.0, -0.1)


class TestRightHandSides:
    @pytest.mark.parametrize(
        "theta, u, expected",
        [
            (0.0, 2.0, (0.0, 2.0)),
            (math.pi / 2, 0.0, (-1.0, 0.0)),
            (math.pi / 4, 1.0, (-0.5, 0.5)),
        ],
    )
    def test_reduced(self, theta, u, expected):
        da, dtheta = reduced_rhs(theta, u)
        assert da == pytest.approx(expected[0], abs=1e-15)
        assert dtheta == pytest.approx(expected[1], abs=1e-15)

    @pytest.mark.parametrize(
        "xyz, uxy, expected",
        [
            # columns are (dx, dy, dz)
            ((0.0, 0.0, 1.0), (1.0, 0.0), (0.0, 1.0, 0.0)),
            ((0.0, 1.0, 0.0), (0.0, 0.0), (0.0, -1.0, 0.0)),
            ((1.0, 0.0, 0.0), (0.0, 1.0), (-1.0, 0.0, 1.0)),
        ],
    )
    def test_full(self, xyz, uxy, expected):
        assert full_rhs(CartesianState(*xyz), *uxy) == pytest.approx(expected)


class TestIntegrator:
    def test_saturated_run_hits_reachable_limit(self):
        # u = m all the way to pi lands on exp(-pi / sqrt(4 m^2 - 1))
        m = 2.0
        traj = integrate_feedback(
            lambda theta: m,
            PolarState(0.0, THETA_START),
            math.pi,
            StepControl(h=1e-4),
        )
        expected = math.exp(-math.pi / math.sqrt(4.0 * m * m - 1.0))
        assert traj.final_r == pytest.approx(expected, rel=1e-6)

    def test_smooth_run_matches_closed_form(self):
        kappa = kappa_for_target(PulseTarget(0.6, math.pi / 2))
        traj = integrate_feedback(
            smooth_law(kappa), PolarState(0.0, THETA_START), math.pi / 2
        )
        assert traj.final_r == pytest.approx(0.6, abs=1e-4)
        assert traj.final_r == pytest.approx(
            trajectory_r(traj.final_theta, kappa), abs=1e-9
        )

    def test_zero_control_stalls(self):
        with pytest.raises(StallDetected):
            integrate_feedback(
                lambda theta: 0.0, PolarState(0.0, 0.3), math.pi / 2
            )

    def test_nan_control_stalls(self, monkeypatch):
        # a NaN angle rate is not positive; a low cap makes a regression fail fast
        monkeypatch.setattr(bloch, "_MAX_STEPS", 1000)
        with pytest.raises(StallDetected):
            integrate_feedback(
                lambda theta: math.nan if theta > 0.5 else 1.0,
                PolarState(0.0, 0.3),
                math.pi / 2,
                StepControl(h=1e-2),
            )

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(bloch, "_MAX_STEPS", 50)
        with pytest.raises(StepTooLarge, match="exceeded 50 steps"):
            integrate_feedback(lambda theta: 1.0, PolarState(0.0, 0.3), math.pi / 2)

    @pytest.mark.parametrize("h", [0.0, math.nan, math.inf])
    def test_nonpositive_step_rejected(self, h):
        calls = []
        with pytest.raises(StepTooLarge):
            integrate_feedback(
                lambda theta: calls.append(theta) or 1.0,
                PolarState(0.0, 0.3),
                math.pi / 2,
                StepControl(h=h),
            )
        assert calls == []  # rejected before the first step, not by the step cap

    def test_stop_angle_must_be_ahead(self):
        with pytest.raises(ValueError):
            integrate_feedback(lambda theta: 1.0, PolarState(0.0, 1.0), 0.5)

    def test_step_halving_converged(self):
        kappa = 1.875
        finals = []
        for h in (1e-3, 5e-4):
            traj = integrate_feedback(
                smooth_law(kappa),
                PolarState(0.0, THETA_START),
                math.pi / 2,
                StepControl(h=h),
            )
            finals.append(traj.final_r)
        assert abs(finals[0] - finals[1]) < 1e-6

    def test_sample_monotonicity(self):
        traj = integrate_feedback(
            smooth_law(1.875),
            PolarState(0.0, THETA_START),
            math.pi / 2,
            StepControl(h=1e-3),
        )
        assert np.all(np.diff(traj.t) > 0)
        assert np.all(np.diff(traj.theta) > 0)
        assert np.all(np.diff(traj.a) <= 0)
        assert np.all(np.diff(traj.energy) >= 0)
        assert traj.energy[0] == 0.0

    def test_full_model_tracks_reduced(self):
        kappa = 1.875
        traj = integrate_feedback(
            smooth_law(kappa),
            PolarState(0.0, THETA_START),
            math.pi / 2,
            StepControl(h=1e-3),
        )
        start = cartesian_from_polar(0.0, THETA_START, math.pi / 2)
        states = integrate_full(smooth_law(kappa), start, traj.t)
        r_full = np.sqrt((states**2).sum(axis=1))
        theta_full = np.arctan2(np.hypot(states[:, 0], states[:, 1]), states[:, 2])
        assert np.abs(r_full - traj.r).max() < 1e-6
        assert np.abs(theta_full - traj.theta).max() < 1e-6


class TestEnergyQuadrature:
    def test_quarter_turn_closed_form(self):
        kappa = kappa_for_target(PulseTarget(0.6, math.pi / 2))
        energy = energy_theta_quadrature(
            lambda th: feedback_u(th, kappa),
            lambda th: math.sin(th) * math.sqrt(math.cos(th) ** 2 + kappa**2),
            0.0,
            math.pi / 2,
        )
        assert energy == pytest.approx(1.0 / (1.0 - 0.36), rel=1e-8)

    def test_half_turn_closed_form(self):
        kappa = kappa_for_target(PulseTarget(0.6, math.pi))
        energy = energy_theta_quadrature(
            lambda th: feedback_u(th, kappa),
            lambda th: math.sin(th) * math.sqrt(math.cos(th) ** 2 + kappa**2),
            0.0,
            math.pi,
        )
        assert energy == pytest.approx(1.6 / 0.4, rel=1e-8)

    def test_zero_control_zero_energy(self):
        assert (
            energy_theta_quadrature(lambda th: 0.0, lambda th: 1.0, 0.0, 1.0) == 0.0
        )

    def test_interior_nonpositive_rate_rejected(self):
        with pytest.raises(NonpositiveThetaDot):
            energy_theta_quadrature(lambda th: 1.0, math.cos, 0.0, 2.0)

    def test_time_domain_agrees_with_quadrature(self):
        kappa = 1.875
        traj = integrate_feedback(
            smooth_law(kappa),
            PolarState(0.0, THETA_START),
            math.pi / 2,
            StepControl(h=1e-3),
        )
        quad = energy_theta_quadrature(
            lambda th: feedback_u(th, kappa),
            lambda th: math.sin(th) * math.sqrt(math.cos(th) ** 2 + kappa**2),
            0.0,
            math.pi / 2,
        )
        assert traj.total_energy == pytest.approx(quad, rel=1e-5)


class TestTrajectoryCsv:
    def test_schema_and_precision(self, tmp_path):
        traj = integrate_feedback(
            lambda theta: 2.0,
            PolarState(0.0, 0.5),
            1.0,
            StepControl(h=1e-3),
        )
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,theta,a,r,u,lambda_theta,hamiltonian"
        assert len(lines) == len(traj) + 1
        cells = lines[5].split(",")
        assert len(cells) == 7
        assert float(cells[1]) == pytest.approx(traj.theta[4], rel=1e-11)
        assert cells[5] == "nan" and cells[6] == "nan"


class TestPulseTarget:
    @pytest.mark.parametrize("bad_r", [0.0, 1.0, -0.5, 1.5])
    def test_radius_range(self, bad_r):
        with pytest.raises(TargetOutOfRange):
            PulseTarget(bad_r, math.pi)

    def test_angle_restricted(self):
        with pytest.raises(TargetOutOfRange):
            PulseTarget(0.5, 1.0)

    def test_angle_snapped(self):
        assert PulseTarget(0.5, math.pi / 2 + 1e-12).theta == math.pi / 2

    def test_labels(self):
        assert PulseTarget(0.5, math.pi).label == "pi"
        assert PulseTarget.from_label(0.5, "pi2").theta == math.pi / 2
        with pytest.raises(TargetOutOfRange):
            PulseTarget.from_label(0.5, "pi/3")
