import decimal
import math

import numpy as np
import pytest

from blochpulse.bounded import (
    arccot,
    cot,
    first_switch_radius,
    kappa_from_switch,
    landmarks,
    max_no_switch_radius,
    partner_angle,
    reachable_boundary,
    required_first_switch_radius,
    required_second_switch_radius,
    sample_geometry,
    saturated_arc_radius,
    switching_angles,
)
from blochpulse.errors import (
    AngleOutOfRange,
    BoundTooSmall,
    DegenerateKappa,
    NoRealSwitch,
)


def simpson(f, lo, hi, n=4096):
    xs = np.linspace(lo, hi, n + 1)
    ys = np.array([f(float(x)) for x in xs])
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((ys * weights).sum() * (hi - lo) / n / 3.0)


class TestArccot:
    def test_range_convention(self):
        assert arccot(0.0) == pytest.approx(math.pi / 2)
        assert arccot(1.0) == pytest.approx(math.pi / 4)
        assert arccot(-1.0) == pytest.approx(math.pi - math.pi / 4)
        assert arccot(math.inf) == 0.0
        assert arccot(-math.inf) == pytest.approx(math.pi)

    def test_reflection_identity(self):
        for x in (0.3, 1.7, 42.0):
            assert arccot(-x) == pytest.approx(math.pi - arccot(x), rel=1e-15)

    def test_cot_poles(self):
        assert cot(0.0) == math.inf
        assert cot(math.pi / 2) == pytest.approx(0.0, abs=1e-15)


class TestSwitchingAngles:
    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_double_root_at_threshold(self, m):
        kappa = math.sqrt(m * m - 1.0)
        theta1, theta2 = switching_angles(kappa, m)
        assert theta1 == pytest.approx(arccot(1.0 / m), abs=1e-9)
        assert theta2 == pytest.approx(arccot(1.0 / m), abs=1e-9)

    def test_reference_pair(self):
        theta1, theta2 = switching_angles(2.2382, 2.0)
        assert theta1 == pytest.approx(0.6912, abs=1e-3)
        assert theta2 == pytest.approx(1.7766, abs=1e-3)

    def test_no_real_solutions(self):
        with pytest.raises(NoRealSwitch):
            switching_angles(1.0, 2.0)

    def test_below_unit_bound_always_real(self):
        theta1, theta2 = switching_angles(0.0, 0.95)
        assert 0.0 < theta1 < theta2 < math.pi

    def test_ordering(self):
        for kappa in (2.0, 3.0, 8.0):
            theta1, theta2 = switching_angles(kappa, 1.5)
            assert theta1 <= theta2


class TestKappaFromSwitch:
    @pytest.mark.parametrize(
        "theta, m, which, expected",
        [
            (0.6912, 2.0, "first", 2.2382),
            (0.6124, 2.0, "first", 2.5322),
            (0.5442, 0.95, "first", 0.4766),
        ],
    )
    def test_reference_values(self, theta, m, which, expected):
        assert kappa_from_switch(theta, m, which) == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("m", [0.95, 2.0])
    def test_round_trip_first(self, m):
        hi = arccot(1.0 / m) if m >= 1 else arccot((1 + math.sqrt(1 - m * m)) / m)
        for theta in np.linspace(0.05, hi - 1e-6, 25):
            kappa = kappa_from_switch(float(theta), m, "first")
            assert switching_angles(kappa, m)[0] == pytest.approx(
                float(theta), abs=1e-10
            )

    @pytest.mark.parametrize("m", [0.95, 2.0])
    def test_round_trip_second(self, m):
        lo = arccot(1.0 / m) if m >= 1 else arccot((1 - math.sqrt(1 - m * m)) / m)
        for theta in np.linspace(lo + 1e-6, math.pi - 0.05, 25):
            kappa = kappa_from_switch(float(theta), m, "second")
            assert switching_angles(kappa, m)[1] == pytest.approx(
                float(theta), abs=1e-10
            )

    def test_out_of_range(self):
        with pytest.raises(AngleOutOfRange):
            kappa_from_switch(2.0, 2.0, "first")  # beyond the entry-curve end
        with pytest.raises(AngleOutOfRange):
            kappa_from_switch(0.3, 2.0, "second")  # before the exit-curve start
        with pytest.raises(ValueError):
            kappa_from_switch(0.5, 2.0, "third")


class TestPartnerAngle:
    @pytest.mark.parametrize(
        "theta, m, expected",
        [
            (0.6912, 2.0, 1.7766),
            (math.pi / 4, 1.0, math.pi / 4),
            (0.5442, 0.95, 1.1456),
        ],
    )
    def test_reference_values(self, theta, m, expected):
        assert partner_angle(theta, m) == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("m", [0.8, 1.0, 2.0, 5.0])
    def test_involution(self, m):
        for theta in np.linspace(0.05, math.pi - 0.05, 40):
            theta = float(theta)
            assert partner_angle(partner_angle(theta, m), m) == pytest.approx(
                theta, abs=1e-12
            )

    @pytest.mark.parametrize("m", [0.8, 2.0])
    def test_cot_sum(self, m):
        for theta in np.linspace(0.2, 2.8, 20):
            theta = float(theta)
            assert cot(theta) + cot(partner_angle(theta, m)) == pytest.approx(
                2.0 / m, abs=1e-12
            )


class TestFirstSwitchCurve:
    def test_starts_at_unit_pole(self):
        assert first_switch_radius(0.0, 2.0) == 1.0
        assert first_switch_radius(1e-9, 2.0) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("m", [1.0, 2.0, 5.0])
    def test_join_point(self, m):
        theta_b = arccot(1.0 / m)
        expected = math.sqrt(m * m + 1.0) / (m + 1.0)
        assert first_switch_radius(theta_b, m) == pytest.approx(expected, rel=1e-12)

    def test_below_unit_bound_end(self):
        m = 0.95
        s = math.sqrt(1.0 - m * m)
        theta_b1 = arccot((1.0 + s) / m)
        expected = math.sqrt((1.0 + s) / 2.0)
        assert first_switch_radius(theta_b1, m) == pytest.approx(expected, rel=1e-12)


class TestSaturatedArc:
    def test_empty_arc(self):
        assert saturated_arc_radius(0.7, 1.0, 1.0, 2.0) == 0.7

    def test_full_sweep_reference(self):
        expected = math.exp(-math.pi / math.sqrt(15.0))
        assert saturated_arc_radius(1.0, 0.0, math.pi, 2.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_quarter_sweep_reference(self):
        w = math.sqrt(15.0)
        expected = math.exp(-(math.pi - arccot(1.0 / w)) / w)
        assert saturated_arc_radius(1.0, 0.0, math.pi / 2, 2.0) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("m", [0.8, 1.0, 2.0])
    def test_composition(self, m):
        a, b, c = 0.2, 1.1, 2.7
        direct = saturated_arc_radius(0.9, a, c, m)
        via = saturated_arc_radius(saturated_arc_radius(0.9, a, b, m), b, c, m)
        assert via == pytest.approx(direct, abs=1e-12)

    def test_monotone_decrease(self):
        radii = [saturated_arc_radius(1.0, 0.0, float(t), 2.0) for t in np.linspace(0.1, math.pi, 30)]
        assert all(b < a for a, b in zip(radii, radii[1:]))

    @pytest.mark.parametrize("m", [0.8, 2.0])
    def test_against_direct_quadrature(self, m):
        def slope(theta):
            return math.sin(theta) ** 2 / (m - math.sin(theta) * math.cos(theta))

        for a, b in [(0.3, 1.2), (1.0, 2.9), (0.05, 3.0)]:
            quad = 0.9 * math.exp(-simpson(slope, a, b))
            assert saturated_arc_radius(0.9, a, b, m) == pytest.approx(quad, abs=1e-10)

    def test_bound_validated(self):
        with pytest.raises(BoundTooSmall):
            saturated_arc_radius(1.0, 0.0, 1.0, 0.5)


class TestReachableBoundary:
    def test_endpoints(self):
        assert reachable_boundary(0.0, 2.0) == 1.0
        assert reachable_boundary(math.pi, 2.0) == pytest.approx(
            math.exp(-math.pi / math.sqrt(15.0)), rel=1e-12
        )

    def test_equals_saturated_transport(self):
        for theta in np.linspace(0.0, math.pi, 17):
            theta = float(theta)
            assert reachable_boundary(theta, 0.95) == saturated_arc_radius(
                1.0, 0.0, theta, 0.95
            )


class TestLandmarks:
    def test_m2_values(self):
        lm = landmarks(2.0)
        w = math.sqrt(15.0)
        assert lm.r_c1 == pytest.approx(math.exp(-math.pi / w), rel=1e-14)
        assert lm.r_d1 == pytest.approx(math.exp(-(math.pi - arccot(1 / w)) / w), rel=1e-14)
        assert lm.r_d2 == pytest.approx(
            math.sqrt(6.0) / (1 + math.sqrt(5.0)) * math.exp(-arccot(3.0 / w) / w),
            rel=1e-14,
        )
        assert lm.r_c2 == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert lm.r_d3 == pytest.approx(math.sqrt(3.0) / 3.0, rel=1e-14)
        assert lm.theta_b == pytest.approx(arccot(0.5), rel=1e-14)
        assert lm.r_b == pytest.approx(math.sqrt(5.0) / 3.0, rel=1e-14)
        assert lm.theta_b1 is None and lm.r_b1 is None

    def test_m1_values(self):
        lm = landmarks(1.0)
        assert lm.theta_b == pytest.approx(math.pi / 4)
        assert lm.r_b == pytest.approx(math.sqrt(2.0) / 2.0)
        assert lm.r_c2 == 0.0
        assert lm.r_d3 == 0.0

    def test_below_unit_bound_values(self):
        lm = landmarks(0.95)
        s = math.sqrt(1.0 - 0.95**2)
        assert lm.theta_b is None and lm.r_c2 is None and lm.r_d3 is None
        assert lm.theta_b1 == pytest.approx(arccot((1 + s) / 0.95), rel=1e-14)
        assert lm.theta_b2 == pytest.approx(arccot((1 - s) / 0.95), rel=1e-14)
        assert lm.theta_b1 < lm.theta_b2  # gap between the curves
        assert lm.r_b1 == pytest.approx(math.sqrt((1 + s) / 2.0), rel=1e-14)
        assert lm.r_b1 == pytest.approx(0.810015, abs=1e-6)
        assert lm.r_d2 == pytest.approx(0.260896, abs=1e-6)
        # the exit-curve end is the saturated transport of the entry-curve end
        assert lm.r_b2 == pytest.approx(
            saturated_arc_radius(lm.r_b1, lm.theta_b1, lm.theta_b2, 0.95), rel=1e-10
        )

    @pytest.mark.parametrize("m", [0.4, 0.5])
    def test_bound_validated(self, m):
        with pytest.raises(BoundTooSmall):
            landmarks(m)

    def test_ordering_above_unit_bound(self):
        for m in np.linspace(1.0, 10.0, 19):
            lm = landmarks(float(m))
            assert lm.r_c1 > lm.r_c2
            assert lm.r_d1 > lm.r_d2 > lm.r_d3

    def test_ordering_below_unit_bound(self):
        for m in np.linspace(0.55, 0.99, 12):
            lm = landmarks(float(m))
            assert lm.r_d1 > lm.r_d2

    def test_dict_keys(self):
        d = landmarks(2.0).as_dict()
        assert set(d) == {"m", "theta_B", "r_B", "r_C1", "r_C2", "r_D1", "r_D2", "r_D3"}
        d = landmarks(0.95).as_dict()
        assert set(d) == {
            "m",
            "theta_B1",
            "theta_B2",
            "r_B1",
            "r_B2",
            "r_C1",
            "r_D1",
            "r_D2",
        }


class TestRequiredRadii:
    def test_exit_radius_approaches_target(self):
        kappa = kappa_from_switch(math.pi - 1e-9, 2.0, "second")
        value = required_second_switch_radius(math.pi - 1e-9, 0.39, math.pi, kappa)
        assert value == pytest.approx(0.39, abs=1e-6)
        kappa = kappa_from_switch(math.pi / 2 - 1e-9, 2.0, "second")
        value = required_second_switch_radius(
            math.pi / 2 - 1e-9, 0.59, math.pi / 2, kappa
        )
        assert value == pytest.approx(0.59, abs=1e-6)

    @pytest.mark.parametrize("theta2, theta_tau", [(3.0, math.pi), (2.0, math.pi / 2)])
    @pytest.mark.parametrize("kappa", [1e-3, 1e-5, 1e-7])
    def test_exit_radius_matches_decimal_reference(self, kappa, theta2, theta_tau, decimal_cos):
        with decimal.localcontext(decimal.Context(prec=60)):
            k2 = decimal.Decimal(kappa) ** 2

            def factor(theta):
                c = decimal_cos(theta)
                return c + (c * c + k2).sqrt()

            expected = decimal.Decimal(0.39) * factor(theta2) / factor(theta_tau)
        value = required_second_switch_radius(theta2, 0.39, theta_tau, kappa)
        assert value == pytest.approx(float(expected), rel=1e-13, abs=0.0)

    def test_degenerate_kappa(self):
        with pytest.raises(DegenerateKappa):
            required_second_switch_radius(2.0, 0.39, math.pi, 0.0)

    def test_bad_final_angle(self):
        with pytest.raises(ValueError):
            required_second_switch_radius(2.0, 0.39, 1.0, 1.0)

    def test_entry_radius_at_pole(self):
        lm = landmarks(2.0)
        assert required_first_switch_radius(0.0, lm.r_d1, 2.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_entry_radius_inverts_transport(self):
        # transporting the required entry radius forward recovers the target
        m, r_tau, theta1 = 2.0, 0.6, 0.5
        r1 = required_first_switch_radius(theta1, r_tau, m)
        assert saturated_arc_radius(r1, theta1, math.pi / 2, m) == pytest.approx(
            r_tau, rel=1e-12
        )


class TestGeometry:
    def test_curves_meet_at_join_above_unit_bound(self):
        geo = sample_geometry(2.0, samples=50)
        lm = geo.landmarks
        assert geo.first_curve[0] == pytest.approx([0.0, 1.0])
        assert geo.first_curve[-1] == pytest.approx([lm.theta_b, lm.r_b], rel=1e-12)
        assert geo.second_curve[0] == pytest.approx([lm.theta_b, lm.r_b], rel=1e-12)
        assert geo.second_curve[-1] == pytest.approx([math.pi, lm.r_c1], rel=1e-9)
        assert geo.boundary[-1] == pytest.approx([math.pi, lm.r_c1], rel=1e-12)

    def test_gap_below_unit_bound(self):
        geo = sample_geometry(0.95, samples=50)
        lm = geo.landmarks
        assert geo.first_curve[-1] == pytest.approx([lm.theta_b1, lm.r_b1], rel=1e-12)
        assert geo.second_curve[0] == pytest.approx([lm.theta_b2, lm.r_b2], rel=1e-10)
        assert lm.theta_b2 > lm.theta_b1

    def test_no_switch_max_ranges(self):
        geo = sample_geometry(2.0, samples=33)
        assert geo.no_switch_max[0, 0] == pytest.approx(geo.landmarks.theta_b)
        assert geo.no_switch_max[-1, 0] == pytest.approx(math.pi)
        assert geo.no_switch_max[-1, 1] == pytest.approx(geo.landmarks.r_c2, rel=1e-12)
        geo = sample_geometry(0.95, samples=33)
        assert geo.no_switch_max[0, 1] == pytest.approx(geo.landmarks.r_b2, rel=1e-10)
        assert geo.no_switch_max[-1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_max_no_switch_values(self):
        # smooth trajectory at the largest never-saturating costate constant
        assert max_no_switch_radius(math.pi, 2.0) == pytest.approx(1.0 / 3.0)
        assert max_no_switch_radius(math.pi / 2, 2.0) == pytest.approx(
            math.sqrt(3.0) / 3.0
        )

    @pytest.mark.parametrize("theta", [2.0, 2.5, 3.0, math.pi])
    @pytest.mark.parametrize("m", [1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 2.0])
    def test_max_no_switch_matches_decimal_reference(self, m, theta, decimal_cos):
        with decimal.localcontext(decimal.Context(prec=60)):
            c, dm = decimal_cos(theta), decimal.Decimal(m)
            expected = (c + (c * c + dm * dm - 1).sqrt()) / (dm + 1)
        assert max_no_switch_radius(theta, m) == pytest.approx(float(expected), rel=1e-13, abs=0.0)
        if theta == math.pi:
            assert max_no_switch_radius(theta, m) == pytest.approx(
                landmarks(m).r_c2, rel=1e-13, abs=0.0
            )

    def test_csv_format(self, tmp_path):
        geo = sample_geometry(2.0, samples=10)
        path = tmp_path / "curves.csv"
        with open(path, "w") as handle:
            geo.write_csv(handle)
        lines = path.read_text().splitlines()
        assert lines[0] == "curve,theta,r"
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"first", "second", "boundary", "noswitch_max"}
        assert len(lines) == 1 + 4 * 10
