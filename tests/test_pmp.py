import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from blochpulse.bloch import PulseTarget
from blochpulse.bounded import switching_angles, synthesize
from blochpulse.pmp import (
    check_adjoint,
    check_hamiltonian,
    costate_along,
    saturation_excess,
    verify_program,
)
QUARTER = math.pi / 2


@dataclass
class _Mismatched:
    """Program stand-in whose costate claims a different constant than the
    control implements (what a corrupted document looks like)."""

    base: object
    kappa_shift: float

    @property
    def m(self):
        return self.base.m

    @property
    def theta1(self):
        return self.base.theta1

    @property
    def theta2(self):
        return self.base.theta2

    @property
    def theta_domain(self):
        return self.base.theta_domain

    @property
    def lambda_a(self):
        shifted = self.base.kappa + self.kappa_shift
        return 0.5 * shifted * shifted

    def control(self, theta):
        return self.base.control(theta)

    def costate(self, theta):
        return self.base.costate(theta)

    def simulate(self, *args, **kwargs):
        return self.base.simulate(*args, **kwargs)


@dataclass
class _DriftingCostate:
    """Zero control with a constant nonzero costate: the rate equation fails."""

    lambda_theta: float = 0.5
    lambda_a: float = 0.0
    m: float = 2.0
    theta1 = None
    theta2 = None
    theta_domain = (2.0, 3.0)

    def control(self, theta):
        return 0.0

    def costate(self, theta):
        return self.lambda_theta

    def simulate(self, step):
        from blochpulse.bloch import PolarState, integrate_feedback

        return integrate_feedback(
            self.control, PolarState(0.0, 2.0), 3.0, step=step, costate=self.costate,
            lambda_a=self.lambda_a,
        )


class TestCostateAlong:
    def test_smooth_value_at_transverse_plane(self, unbounded_quarter):
        sample = costate_along(unbounded_quarter, [QUARTER])[0]
        assert sample.lambda_theta == pytest.approx(unbounded_quarter.kappa, abs=1e-12)
        assert sample.lambda_a == pytest.approx(unbounded_quarter.kappa**2 / 2)
        assert abs(sample.hamiltonian) < 1e-12

    def test_continuity_at_switches(self, example1):
        for angle in (example1.theta1, example1.theta2):
            below, above = costate_along(
                example1, [angle - 1e-10, angle + 1e-10]
            )
            assert below.lambda_theta == pytest.approx(example1.m, abs=1e-7)
            assert above.lambda_theta == pytest.approx(example1.m, abs=1e-7)

    def test_exceeds_bound_mid_saturation(self, example1):
        mid = 0.5 * (example1.theta1 + example1.theta2)
        sample = costate_along(example1, [mid])[0]
        assert sample.lambda_theta > example1.m

    def test_constant_lambda_a(self, example1):
        samples = costate_along(example1, np.linspace(0.1, 3.0, 7))
        assert len({s.lambda_a for s in samples}) == 1


class TestHamiltonianCheck:
    def test_unbounded_program(self, unbounded_quarter):
        check = check_hamiltonian(unbounded_quarter)
        assert check.max_abs_h < 1e-10
        assert check.passed

    def test_bounded_programs(self, example1, example2, example3):
        for program in (example1, example2, example3):
            assert check_hamiltonian(program).max_abs_h < 1e-10

    def test_corrupted_costate_fails(self, example1):
        corrupted = _Mismatched(example1, kappa_shift=1e-3)
        check = check_hamiltonian(corrupted)
        assert not check.passed
        assert check.max_abs_h > 1e-4

    def test_nan_hamiltonian_fails(self, example2):
        # a law that cannot be evaluated on part of the domain
        view = SimpleNamespace(
            lambda_a=example2.lambda_a,
            theta_domain=example2.theta_domain,
            control=lambda th: math.nan if 1.0 < th < 1.1 else example2.control(th),
            costate=example2.costate,
        )
        check = check_hamiltonian(view)
        assert math.isnan(check.max_abs_h)
        assert not check.passed


class TestAdjointCheck:
    def test_unbounded_program(self, unbounded_quarter):
        check = check_adjoint(unbounded_quarter)
        assert check.max_residual < 1e-5
        assert check.passed

    def test_two_switch_program(self, example1, example1_trajectory):
        check = check_adjoint(example1, trajectory=example1_trajectory)
        assert check.max_residual < 1e-5

    def test_switches_read_from_segments(self, example1):
        # a view without theta1/theta2: the switch windows come from segments
        view = SimpleNamespace(
            m=example1.m,
            lambda_a=example1.lambda_a,
            theta_domain=example1.theta_domain,
            segments=example1.segments,
            control=example1.control,
            costate=example1.costate,
            simulate=example1.simulate,
        )
        assert check_adjoint(view, step=1e-3).max_residual == check_adjoint(
            example1, step=1e-3
        ).max_residual

    def test_constant_costate_fails(self):
        check = check_adjoint(_DriftingCostate(), step=1e-3)
        assert not check.passed
        assert check.max_residual > 0.1


class TestSaturationExcess:
    def test_positive_inside_saturated_arc(self, example1, example2, example3):
        for program in (example1, example2, example3):
            assert saturation_excess(program) > 0.0

    def test_absent_without_saturation(self, unbounded_quarter):
        assert saturation_excess(unbounded_quarter) is None

    def test_negative_when_arc_starts_outside_the_roots(self, example1):
        # saturating before the first root of the quadratic for this kappa
        program = replace(example1, theta1=example1.theta1 - 0.2)
        assert program.theta1 < switching_angles(program.kappa, program.m)[0]
        assert saturation_excess(program) < 0.0
        assert not verify_program(program, step=1e-3).lambda_excess_ok


class TestVerificationReport:
    def test_passing_report(self, example1, example1_trajectory):
        report = verify_program(example1, trajectory=example1_trajectory)
        assert report.passed
        raw = report.to_json()
        assert raw.startswith('{"max_abs_H": ')
        assert '"lambda_excess_ok": true' in raw
        assert '"oracle": null' in raw

    def test_failing_report(self, example1):
        corrupted = _Mismatched(example1, kappa_shift=1e-3)
        report = verify_program(corrupted, step=1e-3)
        assert not report.passed


class TestEnergySlopeBounded:
    @pytest.mark.parametrize(
        "m, r, theta",
        [(2.0, 0.39, math.pi), (2.0, 0.61, QUARTER), (0.95, 0.2, QUARTER)],
    )
    def test_energy_slope_matches_lambda_a(self, m, r, theta):
        # d(energy)/d(log final radius) must equal kappa^2/2 in every regime
        delta = 1e-5
        up = synthesize(m, PulseTarget(r * math.exp(delta), theta)).energy
        down = synthesize(m, PulseTarget(r * math.exp(-delta), theta)).energy
        slope = (up - down) / (2 * delta)
        program = synthesize(m, PulseTarget(r, theta))
        assert slope == pytest.approx(program.lambda_a, rel=1e-3)
