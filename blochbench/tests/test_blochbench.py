"""Tests of the benchmark itself: seeded inputs, the reference checks, the
tracer and the result format.  Run with ``python -m pytest blochbench/tests``."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from blochbench import inputs, reference, run
from blochbench.inputs import make_inputs
from blochbench.tracing import COUNTED, SPANS, Tracer
from blochbench.workloads import _design
from blochpulse import PulseTarget, bounded, oracle_transcription

ROOT = Path(__file__).resolve().parents[2]
HALF_PI = math.pi / 2


# ------------------------------------------------------------------ inputs


def test_same_seed_gives_identical_inputs():
    assert make_inputs(5) == make_inputs(5)


def test_other_seed_moves_the_jitter_but_keeps_the_fixed_sets():
    a, b = make_inputs(5), make_inputs(6)
    assert a.faults == b.faults == inputs.KNOWN_FAULTS
    assert a.oracle_cases == b.oracle_cases
    assert sorted(a.programs) == sorted(b.programs)
    moved = 0
    for ba, bb in zip(a.bounds, b.bounds):
        assert ba.m == bb.m and ba.limits == bb.limits and ba.beyond == bb.beyond
        assert len(ba.reachable) == len(bb.reachable)
        moved += sum(ra != rb for ra, rb in zip(ba.reachable, bb.reachable))
    assert moved == sum(len(x.reachable) for x in a.bounds) > 0


def test_grid_shape_and_cells():
    grid = make_inputs(0)
    assert len(grid.bounds) == 17
    # m = 0.5000001: both limits underflow, only the targets beyond them remain
    assert grid.bounds[0].limits == (0.0, 0.0) and grid.bounds[0].reachable == ()
    assert sum(len(b.reachable) for b in grid.bounds) == 16 * 2 * 62
    for b in grid.bounds[1:]:
        for axis, limit in zip(inputs.AXES, b.limits):
            fractions = np.array([r for theta, r in b.reachable if theta == axis]) / limit
            cells = np.floor(fractions * inputs.FRACTION_CELLS)
            assert np.array_equal(cells, np.arange(inputs.FRACTION_CELLS))
        for theta, r in b.beyond:
            assert b.limits[inputs.AXES.index(theta)] < r < 1.0


# ------------------------------------------------------- reference checks


@pytest.mark.parametrize("m, r, theta", inputs.PROGRAMS)
def test_design_check_accepts_program_and_rejects_scaled_kappa(m, r, theta):
    design = _design(bounded.synthesize(m, PulseTarget(r, theta)))
    assert reference.check_design(m, r, theta, design) == []
    perturbed = dict(design, kappa=design["kappa"] * (1.0 + 1e-6))
    assert reference.check_design(m, r, theta, perturbed) != []


def test_limits_match_the_landmarks():
    for m in inputs.BOUNDS:
        lm = bounded.landmarks(m)
        assert reference.check_limits(m, lm.r_c1, lm.r_d1) == []
    lm = bounded.landmarks(2.0)
    assert reference.check_limits(2.0, lm.r_c1 * (1 + 1e-9), lm.r_d1) != []


def test_trajectory_check_rejects_a_row_above_the_bound():
    m, r, theta = 2.0, 0.61, HALF_PI
    program = bounded.synthesize(m, PulseTarget(r, theta))
    traj = program.simulate()
    rows = np.column_stack(
        [traj.t, traj.theta, traj.a, traj.r, traj.u, traj.lambda_theta, traj.hamiltonian]
    )
    design = _design(program)
    assert reference.check_trajectory(m, design, theta, rows, traj.total_energy) == []
    rows[len(rows) // 2, 4] = m * (1.0 + 1e-12)
    fails = reference.check_trajectory(m, design, theta, rows, traj.total_energy)
    assert any("outside [0, m]" in f for f in fails)


@pytest.fixture(scope="module")
def oracle_case():
    m, r, theta = inputs.ORACLE_CASES[0]
    design = _design(bounded.synthesize(m, PulseTarget(r, theta)))
    result = oracle_transcription(
        m, PulseTarget(r, theta), n_segments=inputs.ORACLE_SEGMENTS,
        evaluations=inputs.ORACLE_BUDGET, seed=0,
    )
    return m, r, theta, design, result


def test_oracle_check_accepts_the_search(oracle_case):
    m, r, theta, design, result = oracle_case
    assert reference.check_oracle(m, r, theta, design, result, inputs.ORACLE_SEGMENTS) == []


def test_oracle_check_rejects_a_lowered_energy(oracle_case):
    m, r, theta, design, result = oracle_case
    lowered = dataclasses.replace(result, best_energy=result.best_energy * 0.99)
    fails = reference.check_oracle(m, r, theta, design, lowered, inputs.ORACLE_SEGMENTS)
    assert any("sum u^2 dt/2" in f for f in fails)
    # a consistent grid whose energy beats the synthesized one by more than the slack
    args = (m, design["kappa"], design["regime"], math.pi - 1e-3, result.target_radius)
    target = design["energy"] - 2.0 * reference.oracle_slack(*args)
    scale = math.sqrt(target / result.best_energy)
    cheaper = dataclasses.replace(
        result,
        best_energy=result.best_energy * scale * scale,
        control_grid=tuple(u * scale for u in result.control_grid),
    )
    fails = reference.check_oracle(
        m, r, theta, design, cheaper, inputs.ORACLE_SEGMENTS, miss=result.endpoint_error
    )
    assert any("beats the synthesized" in f for f in fails)


# ------------------------------------------------------- speed and tracer


def test_speed_samples_the_kernel_inside_calls_only(monkeypatch):
    from blochbench import speed

    times = iter([5.0, 3.0, 2.0, 6.0])  # warm-up (discarded), first sample, two in a call

    def kernel():
        time.sleep(0.05)
        return next(times) * speed.KERNEL_REF_S

    monkeypatch.setattr(speed, "kernel_seconds", kernel)
    probe = speed.Speed()
    probe._sample(None, None)  # between calls: no sample
    _, error, seconds, factor = probe.time_call(
        lambda: [probe._sample(None, None) for _ in "ab"], ()
    )
    assert error is None and seconds < 0.05  # the kernel's time is taken out
    assert probe.samples == [3.0 * speed.KERNEL_REF_S, 2.0 * speed.KERNEL_REF_S,
                             6.0 * speed.KERNEL_REF_S]
    assert factor == pytest.approx(1.0 / 4.0)  # the runs inside the call
    *_, factor = probe.time_call(lambda: None, ())
    assert factor == pytest.approx(1.0 / 4.0)  # no run inside: the last two
    assert probe.mean_ms() == pytest.approx(11e3 / 3 * speed.KERNEL_REF_S)


def test_speed_timer_samples_a_long_call(monkeypatch):
    from blochbench import speed

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    monkeypatch.setattr(speed, "EVERY_S", 0.05)
    probe = speed.Speed()
    with probe.sampling():
        _, _, seconds, _ = probe.time_call(busy, (0.3,))
    assert len(probe.samples) >= 4 and 0.0 < seconds < 0.3


def test_setup_scales_by_the_square_root_of_the_kernel(monkeypatch):
    from blochbench import speed

    monkeypatch.setattr(speed, "kernel_seconds", lambda: 4.0 * speed.KERNEL_REF_S)
    assert speed.scaled_setup(0.3) == pytest.approx((0.15, 4.0 * speed.KERNEL_REF_S))


def test_tracer_restores_every_name():
    before = [getattr(owner, attr) for owner, attr, *_ in SPANS + COUNTED]
    tracer = Tracer()
    with tracer.installed():
        bounded.synthesize(2.0, PulseTarget(0.39, math.pi))
    after = [getattr(owner, attr) for owner, attr, *_ in SPANS + COUNTED]
    assert all(a is b for a, b in zip(before, after))
    inclusive, own, calls = tracer.totals()
    assert calls["bounded.synthesize"] == 1 and calls["bounded.solve_two_switch"] == 1
    assert 0.0 < own["bounded.synthesize"] < inclusive["bounded.synthesize"]
    assert tracer.counts["bounded.first_switch_radius.calls"] > 2000


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    class FakeSpeed:
        def mean_ms(self):
            return 2.0

    class FakeRound:
        latencies, work, work_s = [0.1, 0.2], 10, 1.0
        untraced_raw_s, traced_raw_s, speed = 1.0, 1.1, FakeSpeed()

    metrics = run._end_to_end([FakeRound()], 0.3)
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in metrics.values()]
    # every per-layer metric listed is one the traced run computes
    assert len(run._per_layer(Tracer(), dict(import_s=0.2, raw_s=0.3, kernel_s=2e-3), FakeRound())) == len(spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "blochbench", tmp_path / "blochbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "blochbench/run.py", "--workload", "design_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
