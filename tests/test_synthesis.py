import json
import math

import numpy as np
import pytest

from blochpulse.bloch import PulseTarget, StepControl
from blochpulse.bounded import (
    PulseProgram,
    Regime,
    classify,
    cot,
    landmarks,
    solve_one_switch,
    solve_two_switch,
    synthesize,
)
from blochpulse.errors import BoundTooSmall, Unreachable
from blochpulse.unbounded import feedback_u, kappa_for_target

QUARTER = math.pi / 2


class TestClassify:
    @pytest.mark.parametrize(
        "m, r, theta, expected",
        [
            (2.0, 0.39, math.pi, Regime.TWO_SWITCH),
            (2.0, 0.61, QUARTER, Regime.ONE_SWITCH),
            (0.95, 0.2, QUARTER, Regime.TWO_SWITCH),
            (2.0, 0.5, math.pi, Regime.UNREACHABLE),
            (2.0, 0.3, math.pi, Regime.NO_SWITCH),
            (2.0, 0.55, QUARTER, Regime.NO_SWITCH),
            (2.0, 0.59, QUARTER, Regime.TWO_SWITCH),
            (2.0, 0.7, QUARTER, Regime.UNREACHABLE),
            (0.95, 0.1, math.pi, Regime.TWO_SWITCH),
            (0.95, 0.5, math.pi, Regime.UNREACHABLE),
            (0.95, 0.265, QUARTER, Regime.ONE_SWITCH),
            (1.0, 0.1, math.pi, Regime.TWO_SWITCH),
        ],
    )
    def test_regimes(self, m, r, theta, expected):
        assert classify(m, PulseTarget(r, theta)) is expected

    def test_landmark_values_are_inclusive_upper_ends(self):
        lm = landmarks(2.0)
        assert classify(2.0, PulseTarget(lm.r_c2, math.pi)) is Regime.NO_SWITCH
        assert classify(2.0, PulseTarget(lm.r_c1, math.pi)) is Regime.TWO_SWITCH
        assert classify(2.0, PulseTarget(lm.r_d3, QUARTER)) is Regime.NO_SWITCH
        assert classify(2.0, PulseTarget(lm.r_d2, QUARTER)) is Regime.TWO_SWITCH
        assert classify(2.0, PulseTarget(lm.r_d1, QUARTER)) is Regime.ONE_SWITCH

    def test_unbounded_never_switches(self):
        assert classify(math.inf, PulseTarget(0.99, math.pi)) is Regime.NO_SWITCH

    def test_bound_validated(self):
        with pytest.raises(BoundTooSmall):
            classify(0.5, PulseTarget(0.3, math.pi))

    @pytest.mark.parametrize("m", [-math.inf, -1e200])
    def test_negative_bound_with_infinite_square_rejected(self, m):
        with pytest.raises(BoundTooSmall):
            classify(m, PulseTarget(0.3, math.pi))


class TestTwoSwitchSolver:
    def test_half_turn_reference(self, example1):
        assert example1.theta1 == pytest.approx(0.6912, abs=1e-3)
        assert example1.theta2 == pytest.approx(1.7766, abs=1e-3)
        assert example1.kappa == pytest.approx(2.2382, abs=1e-3)

    def test_quarter_turn_reference(self, example3):
        assert example3.theta1 == pytest.approx(0.5442, abs=1e-3)
        assert example3.theta2 == pytest.approx(1.1456, abs=1e-3)
        assert example3.kappa == pytest.approx(0.4766, abs=1e-3)

    def test_degenerate_near_no_switch_boundary(self):
        lm = landmarks(2.0)
        program = solve_two_switch(2.0, PulseTarget(lm.r_c2 + 1e-6, math.pi))
        assert program.theta1 == pytest.approx(lm.theta_b, abs=5e-3)
        assert program.theta2 == pytest.approx(lm.theta_b, abs=5e-3)
        assert program.kappa == pytest.approx(math.sqrt(3.0), abs=1e-4)

    def test_wrong_regime_rejected(self):
        with pytest.raises(ValueError):
            solve_two_switch(2.0, PulseTarget(0.3, math.pi))


class TestOneSwitchSolver:
    def test_reference(self, example2):
        assert example2.theta1 == pytest.approx(0.6124, abs=1e-3)
        assert example2.kappa == pytest.approx(2.5322, abs=1e-3)
        assert example2.theta2 is None

    def test_boundary_of_reachability(self):
        lm = landmarks(2.0)
        program = solve_one_switch(2.0, lm.r_d1)
        assert program.theta1 < 1e-3  # saturated essentially from the start

    def test_wrong_regime_rejected(self):
        with pytest.raises(ValueError):
            solve_one_switch(2.0, 0.5)


class TestSynthesizeDispatch:
    def test_no_switch_delegates_to_smooth_law(self):
        target = PulseTarget(0.3, math.pi)
        program = synthesize(2.0, target)
        assert program.regime is Regime.NO_SWITCH
        assert program.kappa == pytest.approx(kappa_for_target(target), rel=1e-14)
        assert program.kappa == pytest.approx(2 * math.sqrt(0.3) / 0.7, rel=1e-12)
        assert program.theta1 is None and program.theta2 is None

    def test_unbounded_flag(self, unbounded_quarter):
        assert unbounded_quarter.regime is Regime.NO_SWITCH
        assert math.isinf(unbounded_quarter.m)
        assert unbounded_quarter.kappa == pytest.approx(1.875)
        assert unbounded_quarter.energy == pytest.approx(1.5625, rel=1e-8)

    @pytest.mark.parametrize("theta", [math.pi, QUARTER])
    def test_bound_whose_square_overflows_never_switches(self, theta):
        target = PulseTarget(0.5, theta)
        program = synthesize(1e200, target)
        assert program.regime is Regime.NO_SWITCH
        assert program.m == 1e200
        assert program.kappa == synthesize(math.inf, target).kappa

    def test_unreachable_reports_limit(self):
        with pytest.raises(Unreachable) as info:
            synthesize(2.0, PulseTarget(0.5, math.pi))
        limit = landmarks(2.0).r_c1
        assert info.value.limit_radius == pytest.approx(limit, rel=1e-12)
        assert format(limit, ".5g")[:6] in str(info.value)

    def test_bound_validated(self):
        with pytest.raises(BoundTooSmall):
            synthesize(0.4, PulseTarget(0.3, math.pi))


class TestProgramInvariants:
    def programs(self, example1, example2, example3, unbounded_quarter):
        return [example1, example2, example3, unbounded_quarter]

    def test_segments_tile_domain(self, example1, example2, example3, unbounded_quarter):
        for program in self.programs(example1, example2, example3, unbounded_quarter):
            segments = program.segments
            assert segments[0].theta_lo == 0.0
            assert segments[-1].theta_hi == program.target.theta
            for left, right in zip(segments, segments[1:]):
                assert left.theta_hi == right.theta_lo

    def test_control_continuous_at_switches(self, example1, example2, example3):
        for program in (example1, example2, example3):
            for angle in (program.theta1, program.theta2):
                if angle is None:
                    continue
                below = program.control(angle - 1e-12)
                above = program.control(angle + 1e-12)
                assert abs(below - program.m) < 1e-8
                assert abs(above - program.m) < 1e-8

    def test_kappa_consistent_between_both_switch_expressions(self, example1, example3):
        for program in (example1, example3):
            m = program.m
            k1_sq = (m * cot(program.theta1) - 1.0) ** 2 + m * m - 1.0
            k2_sq = (1.0 - m * cot(program.theta2)) ** 2 + m * m - 1.0
            assert abs(math.sqrt(k1_sq) - math.sqrt(k2_sq)) < 1e-9
            assert math.sqrt(k1_sq) == pytest.approx(program.kappa, abs=1e-9)

    def test_cot_relation(self, example1, example3):
        for program in (example1, example3):
            residual = cot(program.theta1) + cot(program.theta2) - 2.0 / program.m
            assert abs(residual) < 1e-9

    def test_smooth_law_exceeds_bound_inside_saturation(self, example1, example3):
        for program in (example1, example3):
            inner = np.linspace(program.theta1 + 1e-6, program.theta2 - 1e-6, 500)
            for theta in inner:
                assert feedback_u(float(theta), program.kappa) > program.m

    def test_closed_form_radius_hits_target(
        self, example1, example2, example3, unbounded_quarter
    ):
        for program in self.programs(example1, example2, example3, unbounded_quarter):
            final = program.radius_at(program.target.theta)
            assert final == pytest.approx(program.target.r, abs=1e-9)

    def test_energy_positive_and_above_unbounded(self, example1, example2, example3):
        for program in (example1, example2, example3):
            # clipping can only cost energy relative to the unlimited design
            unlimited = synthesize(math.inf, program.target)
            assert program.energy >= unlimited.energy - 1e-12


class TestRegimeSweeps:
    def test_energy_monotone_in_radius(self):
        for theta in (math.pi, QUARTER):
            limit = landmarks(2.0).r_c1 if theta == math.pi else landmarks(2.0).r_d1
            radii = np.linspace(0.05, limit - 1e-3, 20)
            energies = [synthesize(2.0, PulseTarget(float(r), theta)).energy for r in radii]
            assert all(b > a for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize(
        "landmark, theta",
        [("r_c2", math.pi), ("r_d2", QUARTER), ("r_d3", QUARTER)],
    )
    def test_energy_continuous_across_regime_boundaries(self, landmark, theta):
        center = getattr(landmarks(2.0), landmark)
        radii = np.arange(center - 5e-4, center + 5e-4, 1e-4)
        energies = [synthesize(2.0, PulseTarget(float(r), theta)).energy for r in radii]
        assert max(abs(b - a) for a, b in zip(energies, energies[1:])) < 1e-2

    def test_angles_continuous_across_one_two_boundary(self):
        lm = landmarks(2.0)
        below = synthesize(2.0, PulseTarget(lm.r_d2 - 1e-7, QUARTER))
        above = synthesize(2.0, PulseTarget(lm.r_d2 + 1e-7, QUARTER))
        assert below.regime is Regime.TWO_SWITCH
        assert above.regime is Regime.ONE_SWITCH
        assert below.theta1 == pytest.approx(above.theta1, abs=1e-4)
        assert below.theta2 == pytest.approx(QUARTER, abs=1e-4)
        assert below.energy == pytest.approx(above.energy, abs=1e-5)


class TestProgramSerialization:
    def test_round_trip(self, example1, example2, unbounded_quarter):
        for program in (example1, example2, unbounded_quarter):
            clone = PulseProgram.from_json(program.to_json())
            assert clone.regime == program.regime
            assert clone.target.label == program.target.label
            if math.isinf(program.m):
                assert math.isinf(clone.m)
            else:
                assert clone.m == pytest.approx(program.m, rel=1e-11)
            assert clone.kappa == pytest.approx(program.kappa, rel=1e-11)
            assert clone.energy == pytest.approx(program.energy, rel=1e-11)

    def test_schema_fields(self, example1):
        raw = json.loads(example1.to_json())
        assert set(raw) == {"m", "target", "regime", "kappa", "theta1", "theta2", "energy"}
        assert raw["regime"] == "two"
        assert set(raw["target"]) == {"r", "theta"}
        assert raw["target"]["theta"] == "pi"

    def test_null_fields(self, example2, unbounded_quarter):
        raw = json.loads(example2.to_json())
        assert raw["theta2"] is None
        raw = json.loads(unbounded_quarter.to_json())
        assert raw["m"] is None and raw["theta1"] is None

    def test_byte_determinism(self, example1):
        assert example1.to_json() == example1.to_json()
        clone = PulseProgram.from_json(example1.to_json())
        assert clone.to_json() == example1.to_json()

    def test_save_load(self, tmp_path, example3):
        path = tmp_path / "pulse.json"
        example3.save(path)
        clone = PulseProgram.load(path)
        assert clone.theta2 == pytest.approx(example3.theta2, rel=1e-11)

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            '{"m": 2, "target": {"r": 0.39, "theta": "pi"}, "regime": "two", '
            '"kappa": 2.2, "theta1": null, "theta2": null, "energy": 2.3}',
            '{"m": 2, "target": {"r": 0.39, "theta": "pi/3"}, "regime": "two", '
            '"kappa": 2.2, "theta1": 0.7, "theta2": 1.8, "energy": 2.3}',
            '{"m": 2, "target": {"r": 0.39, "theta": "pi"}, "regime": "three", '
            '"kappa": 2.2, "theta1": 0.7, "theta2": 1.8, "energy": 2.3}',
            '{"m": 2, "target": {"r": 0.39, "theta": "pi"}, "regime": "two", '
            '"kappa": 2.2, "theta1": 0.7, "theta2": 1.8, "energy": 0}',
            '{"m": 2, "target": {"r": 0.39, "theta": "pi"}, "regime": "two", '
            '"kappa": 2.2, "theta1": 0.7, "theta2": 1.8, "energy": -1}',
            '{"m": 2, "target": {"r": 0.39, "theta": "pi"}, "regime": "two", '
            '"kappa": 2.2, "theta1": 0.7, "theta2": 1.8, "energy": NaN}',
        ],
    )
    def test_malformed_documents_rejected(self, text):
        from blochpulse.errors import TargetOutOfRange

        with pytest.raises((ValueError, KeyError, TargetOutOfRange)):
            PulseProgram.from_json(text)

    @pytest.mark.parametrize(
        "example, field, value",
        [
            ("example2", "theta1", math.nan),
            ("example2", "theta1", 5.0),
            ("example2", "theta1", -1.0),
            ("example1", "theta2", math.nan),
            ("example1", "theta2", 0.5),
            ("example2", "m", None),
            ("unbounded_quarter", "m", -math.inf),
        ],
    )
    def test_impossible_switching_angles_rejected(self, request, example, field, value):
        # each document would load a different law than the one it names
        raw = json.loads(request.getfixturevalue(example).to_json())
        raw[field] = value
        with pytest.raises(ValueError, match=field):
            PulseProgram.from_json(json.dumps(raw))

    @pytest.mark.parametrize(
        "example, field, factor",
        [
            ("example1", "kappa", 1.0 + 1e-6),
            ("example2", "kappa", 0.4),
            ("example3", "kappa", 1.0 - 1e-6),
            ("unbounded_quarter", "kappa", 1.0 + 1e-6),
            ("example1", "kappa", -1.0),
            ("example1", "energy", 1.0 + 1e-8),
            ("example2", "energy", 4.0),
            ("unbounded_quarter", "energy", 1.0 - 1e-8),
        ],
    )
    def test_edited_numbers_rejected(self, request, example, field, factor):
        # a document must meet synthesize's post-condition: its radius and
        # its energy both agree with the closed forms to 1e-9
        raw = json.loads(request.getfixturevalue(example).to_json())
        raw[field] *= factor
        with pytest.raises(ValueError, match=field):
            PulseProgram.from_json(json.dumps(raw))

    @pytest.mark.parametrize("m", [0.51, 2.0, 1e4])
    def test_half_turn_at_reach_limit_round_trips(self, m):
        # theta2 = pi is written as 3.14159265359, just above pi
        program = synthesize(m, PulseTarget(landmarks(m).r_c1, math.pi))
        assert program.theta2 == math.pi
        text = program.to_json()
        assert PulseProgram.from_json(text).to_json() == text


class TestSimulatedPrograms:
    def test_quarter_turn_simulation_hits_target(self, example2_trajectory, example2):
        assert example2_trajectory.final_r == pytest.approx(0.61, abs=1e-3)
        assert example2_trajectory.final_theta == pytest.approx(QUARTER, abs=1e-5)

    def test_time_domain_energy_agrees_for_all_programs(
        self,
        example1,
        example2,
        example3,
        example1_trajectory,
        example2_trajectory,
        example3_trajectory,
    ):
        pairs = [
            (example1, example1_trajectory),
            (example2, example2_trajectory),
            (example3, example3_trajectory),
        ]
        for program, trajectory in pairs:
            deviation = abs(trajectory.total_energy - program.energy)
            assert deviation / program.energy < 1e-5

    def test_half_turn_simulation_hits_target(self, example1_trajectory, example1):
        assert example1_trajectory.final_r == pytest.approx(0.39, abs=1e-3)
        assert example1_trajectory.final_theta == pytest.approx(
            math.pi - 1e-6, abs=1e-9
        )

    def test_simulation_stepsize_override(self, example2):
        coarse = example2.simulate(StepControl(h=2e-3))
        assert coarse.final_r == pytest.approx(0.61, abs=1e-3)
