"""The program's feedback law, the integrator's inline evaluation of it,
the block CSV writer and the adjoint check's costate source, each against
the per-call reference it replaces."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from blochpulse import synthesize
from blochpulse.bloch import (
    _CSV_BLOCK_ROWS,
    THETA_START,
    PolarState,
    PulseTarget,
    StepControl,
    Trajectory,
    integrate_feedback,
    write_trajectory_csv,
)
from blochpulse.pmp import check_adjoint
from blochpulse.unbounded import feedback_u

QUARTER = math.pi / 2

# (m, r, theta): two-switch on both axes, one-switch, no-switch, unlimited
PROGRAMS = (
    (2.0, 0.39, math.pi),
    (0.95, 0.2, QUARTER),
    (2.0, 0.61, QUARTER),
    (10.0, 0.5, math.pi),
    (math.inf, 0.6, QUARTER),
    (math.inf, 0.3, math.pi),
)


@pytest.fixture(scope="module", params=PROGRAMS, ids=lambda p: "m%g_r%g_%s" % (
    p[0], p[1], "pi" if p[2] == math.pi else "pi2"))
def program(request):
    m, r, theta = request.param
    return synthesize(m, PulseTarget(r, theta))


def _grid(program) -> list[float]:
    """Dense angles with the switches, their neighbours and the axes exact."""
    marks = [0.0, THETA_START, QUARTER, math.pi]
    for angle in (program.theta1, program.theta2):
        if angle is not None:
            marks += [angle, math.nextafter(angle, 0.0), math.nextafter(angle, 4.0)]
    dense = np.linspace(0.0, program.target.theta, 2001).tolist()
    return sorted(set(marks + dense))


def _saturated(program, theta: float) -> bool:
    hi = program.theta2 if program.theta2 is not None else program.target.theta
    return program.theta1 is not None and program.theta1 <= theta <= hi


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestCompiledLaw:
    def test_control_is_the_clipped_smooth_law(self, program):
        grid = _grid(program)
        expected = [
            program.m if _saturated(program, th) else feedback_u(th, program.kappa)
            for th in grid
        ]
        assert _bits(map(program.control, grid)) == _bits(expected)

    def test_costate_is_the_saturated_formula(self, program):
        grid = _grid(program)
        m, kappa = program.m, program.kappa
        expected = []
        for th in grid:
            if _saturated(program, th):
                s = math.sin(th)
                expected.append(
                    (m * m + kappa * kappa * s * s) / (2.0 * (m - s * math.cos(th)))
                )
            else:
                expected.append(feedback_u(th, kappa))
        assert _bits(map(program.costate, grid)) == _bits(expected)

    def test_simulated_samples_carry_the_law(self, program):
        traj = program.simulate(StepControl(h=1e-3))
        thetas = traj.theta.tolist()
        assert _bits(traj.u) == _bits(map(program.control, thetas))
        assert _bits(traj.lambda_theta) == _bits(map(program.costate, thetas))

    def test_program_pickles_after_use(self, program):
        program.simulate(StepControl(h=1e-2))
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program
        assert clone.costate(1.0) == program.costate(1.0)

    @pytest.mark.parametrize("kappa", [-1.0, -1e-300, math.nan, math.inf])
    def test_invalid_kappa_raises(self, kappa):
        bad = dataclasses.replace(
            synthesize(2.0, PulseTarget(0.39, math.pi)), kappa=kappa
        )
        inside = 0.5 * (bad.theta1 + bad.theta2)
        for theta in (0.1, inside):
            with pytest.raises(ValueError):
                bad.control(theta)
            with pytest.raises(ValueError):
                bad.costate(theta)
        with pytest.raises(ValueError):
            bad.simulate(StepControl(h=1e-3))


@pytest.mark.parametrize("case", PROGRAMS + ((0.6, 0.005, QUARTER),))
def test_inline_law_matches_the_generic_path(case):
    # simulate evaluates the program's law and costate inline; the generic
    # path calls them at every stage and sample
    m, r, theta = case
    program = synthesize(m, PulseTarget(r, theta))
    step = StepControl(h=1e-3)
    inline = program.simulate(step)
    generic = integrate_feedback(
        lambda th: program.control(th),
        PolarState(0.0, THETA_START),
        program.target.theta,
        step,
        costate=lambda th: program.costate(th),
        lambda_a=program.lambda_a,
    )
    for field in dataclasses.fields(Trajectory):
        assert getattr(inline, field.name).tobytes() == getattr(generic, field.name).tobytes()


def test_one_law_evaluation_per_stage():
    calls = []

    def law(theta):
        calls.append(theta)
        return 2.0

    traj = integrate_feedback(law, PolarState(0.0, 0.5), 1.0, StepControl(h=1e-3))
    steps = len(traj) - 1
    # one evaluation per sample (the first stage), three more per step, and
    # three per bisection trial of the shortened final step
    assert 4 * steps + 1 <= len(calls) <= 4 * steps + 1 + 3 * 61
    assert set(traj.theta.tolist()) <= set(calls)


class TestBlockCsv:
    @staticmethod
    def _reference(traj: Trajectory) -> str:
        r = traj.r
        lines = ["t,theta,a,r,u,lambda_theta,hamiltonian\n"]
        for i in range(len(traj)):
            row = (traj.t[i], traj.theta[i], traj.a[i], r[i], traj.u[i],
                   traj.lambda_theta[i], traj.hamiltonian[i])
            lines.append(",".join(format(x, ".12g") for x in row) + "\n")
        return "".join(lines)

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    @pytest.mark.parametrize("rows", [1, _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS + 3])
    def test_matches_per_row_format(self, rows, tmp_path):
        rng = np.random.default_rng(rows)
        special = np.array([math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324,
                            -5e-324, 1e300, -1.7976931348623157e308, 1e-5, 123456789012.5])
        columns = [rng.normal(size=rows) * 10.0 ** rng.integers(-20, 20, size=rows)
                   for _ in range(7)]
        for k, column in enumerate(columns):
            column[: len(special)] = np.roll(special, k)[:rows]
        traj = Trajectory(
            t=columns[0], theta=columns[1], a=columns[2], u=columns[3],
            lambda_theta=np.full(rows, math.nan), hamiltonian=columns[5],
            energy=columns[6],
        )
        path = tmp_path / "rows.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text() == self._reference(traj)

    def test_matches_per_row_format_on_a_run(self, tmp_path):
        traj = synthesize(0.95, PulseTarget(0.2, QUARTER)).simulate(StepControl(h=1e-3))
        path = tmp_path / "run.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text() == self._reference(traj)


@pytest.mark.parametrize("case", PROGRAMS[:3])
def test_adjoint_residual_independent_of_supplied_trajectory(case):
    m, r, theta = case
    program = synthesize(m, PulseTarget(r, theta))
    own = check_adjoint(program, step=1e-3)
    supplied = check_adjoint(program, trajectory=program.simulate(StepControl(h=1e-3)))
    assert own == supplied
