"""Benchmark of blochpulse: design sweep, closed-loop CLI chain, oracle evidence.

    python3 blochbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of
the same checkout.  With ``--trace 0`` the run repeats whole rounds of the
workload until S seconds have passed and prints the end-to-end metrics; with
``--trace 1`` it runs one round in which every program call is made
untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  See README.md.
"""

import time

# set-up is timed from the process's start: the interpreter's own start-up
# is the CPU time the process has used before this line
_START = time.perf_counter() - time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "blochbench" / "out"
WORKLOADS = ("design_sweep", "closed_loop", "oracle_evidence")


def _import_program() -> float:
    """Import blochpulse from this checkout's src/; return the seconds it took."""
    package = SRC / "blochpulse"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"blochbench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import blochpulse

    elapsed = time.perf_counter() - start
    if Path(blochpulse.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"blochbench: imported blochpulse from {blochpulse.__file__}")
    return elapsed


def _end_to_end(rounds, setup_s: float) -> dict:
    latencies = [x for rnd in rounds for x in rnd.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (sum(r.work for r in rounds) / sum(r.work_s for r in rounds), "1/s"),
        "op_ms_mean": (1e3 * statistics.fmean(latencies), "ms"),
    }


def _per_layer(tracer, setup: dict, rnd) -> dict:
    inclusive, own, calls = tracer.totals()
    counts = tracer.counts
    solves = calls["bounded.solve_two_switch"] + calls["bounded.solve_one_switch"]
    steps = counts["bloch.integrate_feedback.steps"]
    sim_s = inclusive.get("bloch.integrate_feedback", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "import.blochpulse_s": setup["import_s"],
        "setup.raw_s": setup["raw_s"],
        "setup.kernel_ms": 1e3 * setup["kernel_s"],
        "bounded.first_switch_radius.calls_per_solve": ratio(
            counts["bounded.first_switch_radius.calls"], solves
        ),
        "bloch.energy_theta_quadrature.calls": calls["bloch.energy_theta_quadrature"],
        "bloch.integrate_feedback.steps": steps,
        "sim.steps_per_s": ratio(steps, sim_s),
        "bounded.PulseProgram.control.calls_per_step": ratio(
            counts["bounded.PulseProgram.control.calls"], steps
        ),
        "unbounded.feedback_u.calls_per_step": ratio(counts["unbounded.feedback_u.calls"], steps),
        "unbounded.feedback_u.calls": counts["unbounded.feedback_u.calls"],
        "bloch.write_trajectory_csv.bytes": counts["bloch.write_trajectory_csv.bytes"],
        "oracle.evaluations": counts["oracle.evaluations"],
        # the search's own time: the call less the synthesize and simulate it makes
        "oracle.rollout_s": own.get("oracle.oracle_transcription", 0.0),
        "trace.overhead_s": rnd.traced_raw_s - rnd.untraced_raw_s,
        "trace.overhead_pct": 100.0 * (rnd.traced_raw_s / rnd.untraced_raw_s - 1.0),
        "speed.kernel_ms": rnd.speed.mean_ms(),
        "untraced.op_ms_p50": 1e3 * statistics.median(rnd.latencies),
        "untraced.op_ms_p99": 1e3
        * statistics.quantiles(rnd.latencies, n=100, method="inclusive")[98],
    }
    for layer in ("bloch", "bounded", "pmp", "oracle", "cli"):
        values[f"layer.{layer}.self_s"] = sum(
            v for name, v in own.items() if name.split(".")[0] == layer
        )
    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = spec["name"]
        if name not in values:  # "<span name>.s": inclusive seconds
            if not name.endswith(".s"):
                raise SystemExit(f"blochbench: no per-layer metric {name!r}")
            values[name] = inclusive.get(name[: -len(".s")], 0.0)
        metrics[name] = (values[name], spec["unit"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_program()
    sys.path.insert(0, str(ROOT))
    from blochbench import workloads
    from blochbench.inputs import make_inputs
    from blochbench.speed import scaled_setup

    inputs = make_inputs(args.seed)
    setup_raw_s = time.perf_counter() - _START
    setup_s, setup_kernel_s = scaled_setup(setup_raw_s)
    setup = {"import_s": import_s, "raw_s": setup_raw_s, "kernel_s": setup_kernel_s}

    if args.workload == "oracle_evidence":
        designs = workloads.oracle_designs(inputs)

        def run_round(rnd, workdir):
            workloads.oracle_evidence(inputs, rnd, workdir, designs)

    else:
        body = getattr(workloads, args.workload)

        def run_round(rnd, workdir):
            body(inputs, rnd, workdir)

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from blochbench.tracing import Tracer

            tracer = Tracer()
            rounds = [workloads.Round(tracer)]
            rounds[0].play(run_round, workdir)
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
            metrics = _per_layer(tracer, setup, rounds[0])
            # each CSV holds the start sample and one row per step; verify
            # integrates every program a second time
            steps = tracer.counts["bloch.integrate_feedback.steps"]
            csv_steps = rounds[0].work - len(inputs.programs)
            if args.workload == "closed_loop" and steps != 2 * csv_steps:
                rounds[0].unexpected.append(
                    f"integrate_feedback recorded {steps} steps, twice the steps "
                    f"in the CSV files (data rows less one per file) is {2 * csv_steps}"
                )
        else:
            rounds = []
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                rounds.append(workloads.Round())  # whole rounds, at least S seconds
                rounds[-1].play(run_round, workdir)
            metrics = _end_to_end(rounds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = [msg for rnd in rounds for msg in rnd.unexpected]
    for msg in unexpected[:20]:
        print(f"unexpected failure: {msg}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": sum(r.attempted for r in rounds),
                "failed": sum(r.failed for r in rounds),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
