"""The closed-form closed-loop clock of a program.

``_program_time`` gives the time from THETA_START to an angle and
``_program_angle`` inverts it.  They are checked against ``simulate``'s
sample times, against each other, and through their two uses: the early
step check in ``simulate`` and ``oracle_transcription``, which runs no
simulation.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from blochpulse.bloch import _EPS_STOP, _MAX_STEPS, PulseTarget, StepControl
from blochpulse.bounded import (
    PulseProgram,
    Regime,
    _program_angle,
    _program_time,
    switching_angles,
    synthesize,
)
from blochpulse.cli import main
from blochpulse.errors import StepTooLarge

QUARTER = math.pi / 2

# (m, r, theta): no-, one- and two-switch programs, kappa down to 2e-8
CLOCK_PROGRAMS = [
    (2.0, 0.39, math.pi),
    (0.95, 0.2, QUARTER),
    (2.0, 0.61, QUARTER),
    (1.0, 1e-8, QUARTER),
    (0.51, 1e-8, math.pi),
    (1e4, 0.5, math.pi),
]
# the closed-loop programs of the benchmark
BENCH_PROGRAMS = [
    (2.0, 0.39, math.pi),
    (2.0, 0.61, QUARTER),
    (0.95, 0.2, QUARTER),
    (math.inf, 0.6, QUARTER),
    (10.0, 0.5, math.pi),
    (0.6, 0.005, QUARTER),
]
# angles over the whole turn, dense next to both poles
ANGLES = np.concatenate([
    np.geomspace(1e-6, 1.0, 60),
    np.linspace(1.0, math.pi - 1e-2, 60),
    math.pi - np.geomspace(1e-2, 1e-6, 20),
]).tolist()


def _clock(program):
    return program.m, program.kappa, program._saturated_interval()


@pytest.fixture(scope="module")
def runs(request):
    """Each clock program with its default-step run; three runs are shared
    with the session fixtures."""
    shared = {
        (2.0, 0.39, math.pi): "example1",
        (0.95, 0.2, QUARTER): "example3",
        (2.0, 0.61, QUARTER): "example2",
    }
    out = {}
    for case in CLOCK_PROGRAMS:
        if case in shared:
            name = shared[case]
            out[case] = (
                request.getfixturevalue(name),
                request.getfixturevalue(name + "_trajectory"),
            )
        else:
            program = synthesize(case[0], PulseTarget(case[1], case[2]))
            out[case] = (program, program.simulate())
    return out


@pytest.mark.parametrize("case", CLOCK_PROGRAMS, ids=str)
def test_clock_matches_simulated_times(runs, case):
    program, trajectory = runs[case]
    last = len(trajectory) - 1
    for share in (0.3, 0.6, 0.9, 0.99, 1.0):
        i = round(share * last)
        clock = _program_time(*_clock(program), float(trajectory.theta[i]))
        assert abs(clock / trajectory.t[i] - 1.0) <= 1e-9, share


@pytest.mark.parametrize("case", CLOCK_PROGRAMS, ids=str)
def test_smooth_law_maximum_bounds_the_run(runs, case):
    # the unlimited oracle's control bound is twice this maximum
    program, trajectory = runs[case]
    assert math.sqrt(1.0 + program.kappa ** 2) >= trajectory.u.max()


@pytest.mark.parametrize("case", CLOCK_PROGRAMS, ids=str)
def test_program_clock_round_trip(case):
    program = synthesize(case[0], PulseTarget(case[1], case[2]))
    clock = _clock(program)
    for theta in ANGLES:
        if theta <= case[2]:
            back = _program_angle(*clock, _program_time(*clock, theta))
            assert abs(back / theta - 1.0) <= 1e-12, theta


@pytest.mark.parametrize("kappa", [1e-8, 1e-3, 1.0, 1e4])
def test_smooth_arc_round_trip(kappa):
    for theta in ANGLES:
        t = _program_time(math.inf, kappa, None, theta)
        back = _program_angle(math.inf, kappa, None, t)
        assert abs(back / theta - 1.0) <= 1e-12, theta


@pytest.mark.parametrize("m, kappa", [(0.51, 1e-8), (0.95, 0.2), (2.0, 3.0), (10.0, 10.0)])
def test_saturated_arc_round_trip(m, kappa):
    # smooth up to the entry angle, saturated up to the exit angle, smooth after
    sat = switching_angles(kappa, m)
    assert any(sat[0] < theta < sat[1] for theta in ANGLES)
    for theta in ANGLES:
        back = _program_angle(m, kappa, sat, _program_time(m, kappa, sat, theta))
        assert abs(back / theta - 1.0) <= 1e-12, theta


def test_clock_is_continuous_at_the_switches(example1):
    clock = _clock(example1)
    for switch in (example1.theta1, example1.theta2):
        before = _program_time(*clock, math.nextafter(switch, 0.0))
        after = _program_time(*clock, math.nextafter(switch, 4.0))
        assert abs(after - before) <= 1e-12


class TestStepCheck:
    def test_tiny_step_fails_before_the_run(self):
        program = synthesize(2.0, PulseTarget(0.39, math.pi))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(StepTooLarge, match="more than 20000000"):
                program.simulate(StepControl(1e-9))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert elapsed < 1.0

    @pytest.mark.parametrize("case", sorted(set(CLOCK_PROGRAMS + BENCH_PROGRAMS)), ids=str)
    def test_default_step_is_accepted(self, case):
        program = synthesize(case[0], PulseTarget(case[1], case[2]))
        duration = _program_time(*_clock(program), case[2] - _EPS_STOP)
        assert duration < _MAX_STEPS * StepControl().h

    def test_cli_exit_code(self, capsys, tmp_path):
        pulse = tmp_path / "pulse.json"
        main(["synthesize", "--m", "2", "--target", "pi", "--r-final", "0.39",
              "--out", str(pulse)])
        capsys.readouterr()
        code = main(["simulate", "--pulse", str(pulse), "--step", "1e-9"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "more than 20000000" in captured.err

    def test_zero_kappa_is_left_to_the_run(self):
        # the clock needs kappa > 0; at kappa = 0 the quarter turn's law is
        # 2 sin cos, so dt = dtheta / (sin cos) and the run takes
        # ln tan(pi/2 - 1e-6) - ln tan(1e-6) = 2 ln 1e6
        program = PulseProgram(
            math.inf, PulseTarget(0.5, QUARTER), Regime.NO_SWITCH, 0.0, None, None, 1.0
        )
        trajectory = program.simulate(StepControl(1e-2))
        assert trajectory.t[-1] == pytest.approx(2.0 * math.log(1e6), rel=1e-6)
