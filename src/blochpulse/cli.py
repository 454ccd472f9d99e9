"""Command-line front end.

Subcommands: synthesize, simulate, curves, landmarks, verify, oracle.
Exit codes: 0 success, 1 usage/input error, 2 unreachable target,
3 verification failure.  All numeric flags default to the values the test
suite pins, so omitting them reproduces those numbers.  An optional
key=value config file becomes the subcommand's argparse defaults, so
argparse converts each value with its flag's type and an explicit flag
wins in either spelling.  Every number is printed through ``bloch._num``
and every JSON object through ``bloch._json``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from .bloch import PulseTarget, StepControl, _json, _num, write_trajectory_csv
from .bounded import PulseProgram, landmarks, sample_geometry, synthesize
from .errors import BlochControlError, DidNotConverge, Unreachable
from .oracle import oracle_transcription
from .pmp import verify_program

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise _UsageError(f"{self.prog}: error: {message}")


def _parse_bound(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "unbounded"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid control bound {text!r}") from None


def _bool_from_text(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


def _read_config(path: str) -> dict:
    values = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            values[key.strip().replace("-", "_")] = raw.strip()
    return values


def _apply_config(subcommands: dict, command: str, path: str) -> None:
    """Make the config file's values the defaults of the chosen subcommand.

    Parsing again then converts each value with its flag's own type, and an
    explicit flag wins in either spelling.  Keys of another subcommand are
    skipped; a key that names no flag is an error.
    """
    flags = {
        action.dest
        for parser in subcommands.values()
        for action in parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    chosen = {action.dest: action for action in subcommands[command]._actions}
    defaults = {}
    for key, raw in _read_config(path).items():
        if key not in flags:
            raise ValueError(f"unknown config key {key!r}")
        if key in chosen:
            # store_true flags take no value, so argparse has no type for them
            defaults[key] = _bool_from_text(raw) if chosen[key].nargs == 0 else raw
    subcommands[command].set_defaults(**defaults)


def _target_from_args(args: argparse.Namespace) -> PulseTarget:
    return PulseTarget.from_label(args.r_final, args.target)


def cmd_synthesize(args: argparse.Namespace) -> int:
    program = synthesize(args.m, _target_from_args(args))
    if args.out:
        program.save(args.out)
    if args.json:
        print(program.to_json())
        return 0
    print(f"regime: {program.regime.value}")
    print(f"theta1: {_num(program.theta1) if program.theta1 is not None else '-'}")
    print(f"theta2: {_num(program.theta2) if program.theta2 is not None else '-'}")
    print(f"kappa: {_num(program.kappa)}")
    print(f"energy: {_num(program.energy)}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    program = PulseProgram.load(args.pulse)
    trajectory = program.simulate(StepControl(h=args.step))
    if args.csv:
        write_trajectory_csv(trajectory, args.csv)
    deviation = abs(trajectory.total_energy - program.energy) / program.energy
    print(f"final theta: {_num(trajectory.final_theta)}")
    print(f"final r: {_num(trajectory.final_r)}")
    print(f"simulated energy: {_num(trajectory.total_energy)}")
    print(f"predicted energy: {_num(program.energy)}")
    print(f"relative energy deviation: {_num(deviation)}")
    return 0


def cmd_curves(args: argparse.Namespace) -> int:
    geometry = sample_geometry(args.m, args.samples)
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            geometry.write_csv(handle)
    else:
        geometry.write_csv(sys.stdout)
    return 0


def cmd_landmarks(args: argparse.Namespace) -> int:
    values = landmarks(args.m).as_dict()
    if args.json:
        print(_json(values))
    else:
        for key, value in values.items():
            print(f"{key}: {_num(value)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    program = PulseProgram.load(args.pulse)
    report = verify_program(
        program,
        h_tol=args.tol,
        adjoint_tol=args.adjoint_tol,
        step=args.step,
    )
    if args.json:
        print(report.to_json())
    else:
        print(f"max |H|: {_num(report.max_abs_h)} (tol {_num(report.h_tol)})")
        print(
            f"adjoint residual: {_num(report.adjoint_residual)} "
            f"(tol {_num(report.adjoint_tol)})"
        )
        print(f"costate exceeds bound inside saturation: {report.lambda_excess_ok}")
        print(f"verdict: {'pass' if report.passed else 'fail'}")
    return 0 if report.passed else 3


def cmd_oracle(args: argparse.Namespace) -> int:
    target = _target_from_args(args)
    program = synthesize(args.m, target)
    result = oracle_transcription(
        args.m,
        target,
        n_segments=args.grid,
        evaluations=args.evals,
        seed=args.seed,
        restarts=args.restarts,
        program=program,
    )
    if args.json:
        print(_json({"synthesized_energy": program.energy, "oracle": result._fields()}))
    else:
        print(f"synthesized energy: {_num(program.energy)}")
        print(f"oracle best energy: {_num(result.best_energy)}")
        print(f"oracle endpoint error: {_num(result.endpoint_error)}")
        print(f"horizon: {_num(result.horizon)}")
        print(f"evaluations: {result.evaluations}")
    return 0


def _build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="blochpulse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", help="key=value file with flag defaults")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("synthesize", help="design a pulse program")
    p.add_argument(
        "--m", type=_parse_bound, required=True, help="control bound (> 0.5) or 'inf'"
    )
    p.add_argument("--target", required=True, choices=["pi", "pi2"])
    p.add_argument("--r-final", dest="r_final", type=float, required=True)
    p.add_argument("--out", help="write the program JSON here")
    add_common(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="closed-loop run of a saved program")
    p.add_argument("--pulse", required=True, help="program JSON file")
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--csv", help="write the trajectory CSV here")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("curves", help="export the switching geometry")
    p.add_argument("--m", type=_parse_bound, required=True)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--csv", help="write here instead of stdout")
    add_common(p)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("landmarks", help="named radii/angles for a bound")
    p.add_argument("--m", type=_parse_bound, required=True)
    add_common(p)
    p.set_defaults(func=cmd_landmarks)

    p = sub.add_parser("verify", help="stationarity checks on a saved program")
    p.add_argument("--pulse", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--adjoint-tol", dest="adjoint_tol", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-4)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="transcription search for cheaper controls")
    p.add_argument("--m", type=_parse_bound, required=True)
    p.add_argument("--target", required=True, choices=["pi", "pi2"])
    p.add_argument("--r-final", dest="r_final", type=float, required=True)
    p.add_argument("--grid", type=int, default=200, help="number of control segments")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--evals", type=int, default=50_000)
    p.add_argument("--restarts", type=int, default=2)
    add_common(p)
    p.set_defaults(func=cmd_oracle)

    return parser, sub.choices


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subcommands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(subcommands, args.command, args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except Unreachable as exc:
        print(f"unreachable target: {exc}", file=sys.stderr)
        return 2
    except DidNotConverge as exc:
        print(f"oracle did not converge: {exc}", file=sys.stderr)
        return 3
    except (BlochControlError, ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
