"""One round of each workload, checked against the reference.

A round is the same set of operations on every call, so the share of
failed operations is the same in every run.  Only calls into
``blochpulse`` are timed; the reference checks run outside the timed
regions.  Program functions are looked up on their modules at call time,
so the wrappers of a traced round see them.
"""

from __future__ import annotations

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from blochpulse import bloch, bounded, cli, oracle
from blochpulse.errors import Unreachable

from . import reference as ref
from .inputs import ORACLE_BUDGET, ORACLE_SEGMENTS, Inputs
from .speed import Speed, outcome

GEOMETRY_SAMPLES = 400


class Round:
    """Operations attempted and failed, and the timings one round took.

    Every timing is scaled to the reference speed of ``speed.py``.  With a
    tracer, every operation runs twice, back to back: untraced, for the
    timings the workload records, then traced, for the spans.  The overhead
    is then measured on identical work at nearly the same moment.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []  # failures outside the known-fault set
        self.program_s = 0.0  # time inside program calls
        self.untraced_raw_s = 0.0  # unscaled, for the tracing overhead
        self.traced_raw_s = 0.0
        self.latencies: list[float] = []  # one per unit operation (README)
        self.work = 0  # work units behind the throughput metric (README)
        self.work_s = 0.0

    def play(self, body, *args) -> None:
        """Run ``body(self, *args)`` with the speed kernel sampled during its calls."""
        with self.speed.sampling():
            body(self, *args)

    def call(self, fn, *args):
        """Time one program call: (result, exception, seconds at reference speed).

        ``fn`` must look program functions up on their modules when it runs,
        so that the traced repeat goes through the wrappers.
        """
        self.attempted += 1
        result, error, raw, factor = self.speed.time_call(fn, args)
        elapsed = raw * factor
        if self.tracer is not None:
            with self.tracer.installed():
                self.tracer.begin_op(self.attempted)
                start = time.perf_counter()
                result, error = outcome(fn, args)  # no kernel runs here
                self.traced_raw_s += time.perf_counter() - start
            self.untraced_raw_s += raw
        self.program_s += elapsed
        return result, error, elapsed

    def record(self, fails: list[str], what: str, known_fault: bool = False) -> None:
        if fails:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(f"{what}: {'; '.join(fails)}")


def _error(exc) -> list[str]:
    return [] if exc is None else [f"{type(exc).__name__}: {exc}"]


def _design(program) -> dict:
    return {
        "regime": program.regime.value,
        "kappa": program.kappa,
        "theta1": program.theta1,
        "theta2": program.theta2,
        "energy": program.energy,
    }


def _synthesize(m: float, r: float, theta: float):
    return bounded.synthesize(m, bloch.PulseTarget(r, theta))


# ------------------------------------------------------------- design_sweep


def design_sweep(inputs: Inputs, run: Round, workdir: Path) -> None:
    for b in inputs.bounds:
        lm, exc, _ = run.call(lambda: bounded.landmarks(b.m))
        run.record(_error(exc) or ref.check_limits(b.m, lm.r_c1, lm.r_d1), f"landmarks m={b.m}")

        geometry, exc, _ = run.call(lambda: bounded.sample_geometry(b.m, GEOMETRY_SAMPLES))
        fails = _error(exc) or ref.check_boundary_curve(b.m, geometry.boundary)
        run.record(fails, f"sample_geometry m={b.m}")

        for theta, r in b.beyond:
            _, exc, _ = run.call(_synthesize, b.m, r, theta)
            if not isinstance(exc, Unreachable):
                fails = _error(exc) or ["returned a program for an unreachable target"]
            elif lm is None or exc.limit_radius != (lm.r_c1 if theta == math.pi else lm.r_d1):
                fails = [f"limit_radius {exc.limit_radius!r} is not the landmark"]
            else:
                fails = []
            run.record(fails, f"synthesize m={b.m} theta={theta} r={r!r} (beyond)")

        for theta, r in b.reachable:
            program, exc, elapsed = run.call(_synthesize, b.m, r, theta)
            run.latencies.append(elapsed)
            fails = _error(exc) or ref.check_design(b.m, r, theta, _design(program))
            run.record(fails, f"synthesize m={b.m} theta={theta} r={r!r}")

    for m, theta, r in inputs.faults:
        program, exc, _ = run.call(_synthesize, m, r, theta)
        fails = _error(exc) or ref.check_design(m, r, theta, _design(program))
        run.record(fails, f"synthesize m={m} theta={theta} r={r!r}", known_fault=True)

    run.work += run.attempted
    run.work_s += run.program_s


# -------------------------------------------------------------- closed_loop


def _cli(run: Round, argv: list[str]):
    """One in-process CLI call: (stdout, fails, seconds)."""

    def invoke():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    outcome, exc, elapsed = run.call(invoke)
    if exc is not None:
        return "", _error(exc), elapsed
    code, out, err = outcome
    return out, [] if code == 0 else [f"exit code {code}: {err.strip()}"], elapsed


def _parsed(parse, *args):
    """(value, []), or (None, [reason]) when the program's output cannot be read."""
    try:
        return parse(*args), []
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return None, [f"unreadable output: {type(exc).__name__}: {exc}"]


def _limits(out: str) -> tuple[float, float]:
    doc = json.loads(out)
    return float(doc["r_C1"]), float(doc["r_D1"])


def _design_file(path: Path) -> dict:
    doc = json.loads(path.read_text())
    return {k: doc[k] for k in ("regime", "kappa", "theta1", "theta2", "energy")}


def _csv_rows(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _stdout_value(text: str, key: str) -> float:
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return float(line.split(":", 1)[1])
    raise ValueError(f"no {key!r} line in the output")


def _verify_report(out: str) -> list[str]:
    report = json.loads(out)
    if (
        report["max_abs_H"] < ref.H_TOL
        and report["adjoint_residual"] < ref.ADJOINT_TOL
        and report["lambda_excess_ok"] is True
    ):
        return []
    return [f"verify report {out.strip()}"]


def closed_loop(inputs: Inputs, run: Round, workdir: Path) -> None:
    for m, r, theta in inputs.programs:
        name = f"m{m:g}_r{r:g}_{'pi' if theta == math.pi else 'pi2'}"
        where = f"program {name}"
        m_flag = "inf" if math.isinf(m) else repr(m)
        pulse, csv = workdir / f"{name}.json", workdir / f"{name}.csv"
        chain_s = 0.0

        if math.isfinite(m):
            out, fails, elapsed = _cli(run, ["landmarks", "--m", m_flag, "--json"])
            chain_s += elapsed
            if not fails:
                limits, fails = _parsed(_limits, out)
            run.record(fails or ref.check_limits(m, *limits), f"{where} landmarks")

        target = "pi" if theta == math.pi else "pi2"
        argv = ["synthesize", "--m", m_flag, "--target", target, "--r-final", repr(r)]
        _, fails, elapsed = _cli(run, argv + ["--out", str(pulse)])
        chain_s += elapsed
        design = None
        if not fails:
            design, fails = _parsed(_design_file, pulse)
        run.record(fails or ref.check_design(m, r, theta, design), f"{where} synthesize")

        out, fails, elapsed = _cli(run, ["simulate", "--pulse", str(pulse), "--csv", str(csv)])
        chain_s += elapsed
        run.work_s += elapsed
        if not fails and design is None:
            fails = ["no program to check the run against"]
        if not fails:
            rows, fails = _parsed(_csv_rows, csv)
        if not fails:
            energy, fails = _parsed(_stdout_value, out, "simulated energy")
        if not fails:
            run.work += len(rows)
            fails = ref.check_trajectory(m, design, theta, rows, energy)
        run.record(fails, f"{where} simulate")

        out, fails, elapsed = _cli(run, ["verify", "--pulse", str(pulse), "--json"])
        chain_s += elapsed
        if not fails:
            report_fails, fails = _parsed(_verify_report, out)
            fails = fails or report_fails
        run.record(fails, f"{where} verify")

        run.latencies.append(chain_s)
        for path in (pulse, csv):
            path.unlink(missing_ok=True)


# ---------------------------------------------------------- oracle_evidence


def oracle_designs(inputs: Inputs) -> dict:
    """Synthesized designs the oracle results are checked against.

    Made once per run, before any timed or traced round.
    """
    designs = {}
    for m, r, theta in inputs.oracle_cases:
        try:
            design = _design(_synthesize(m, r, theta))
        except Exception:  # reported by every oracle operation of this case
            design = None
        if design is not None and ref.check_design(m, r, theta, design):
            design = None
        designs[(m, r, theta)] = design
    return designs


def oracle_evidence(inputs: Inputs, run: Round, workdir: Path, designs: dict) -> None:
    for m, r, theta in inputs.oracle_cases:
        result, exc, elapsed = run.call(
            lambda: oracle.oracle_transcription(
                m,
                bloch.PulseTarget(r, theta),
                n_segments=ORACLE_SEGMENTS,
                evaluations=ORACLE_BUDGET,
                seed=inputs.seed,
            )
        )
        run.latencies.append(elapsed)
        run.work_s += elapsed
        fails = _error(exc)
        design = designs[(m, r, theta)]
        if not fails and design is None:
            fails = ["the synthesized design failed its own check"]
        if not fails:
            run.work += result.evaluations
            fails = ref.check_oracle(m, r, theta, design, result, ORACLE_SEGMENTS)
        run.record(fails, f"oracle m={m} r={r} theta={theta}")
