"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces public names of ``blochpulse`` in the
modules that call them with wrappers, and restores them on exit.  Each
wrapper records a span (name, start, end, parent, operation id) in memory;
the hot scalar functions get a call counter only, so the overhead stays
bounded.  Spans are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
from collections import Counter, defaultdict

from blochpulse import bounded, cli, oracle, pmp, unbounded


def _steps(result, args, kwargs):
    # a trajectory holds the start sample and one sample per step
    return {"bloch.integrate_feedback.steps": len(result) - 1}


def _csv_bytes(result, args, kwargs):
    return {"bloch.write_trajectory_csv.bytes": os.path.getsize(args[1])}


def _evaluations(result, args, kwargs):
    return {"oracle.evaluations": result.evaluations}


# (module holding the name, attribute, span name, counter hook)
SPANS = (
    (bounded, "synthesize", "bounded.synthesize", None),
    (cli, "synthesize", "bounded.synthesize", None),
    (oracle, "synthesize", "bounded.synthesize", None),
    (bounded, "solve_two_switch", "bounded.solve_two_switch", None),
    (bounded, "solve_one_switch", "bounded.solve_one_switch", None),
    (bounded, "landmarks", "bounded.landmarks", None),
    (cli, "landmarks", "bounded.landmarks", None),
    (bounded, "sample_geometry", "bounded.sample_geometry", None),
    (bounded, "energy_theta_quadrature", "bloch.energy_theta_quadrature", None),
    (bounded, "integrate_feedback", "bloch.integrate_feedback", _steps),
    (cli, "write_trajectory_csv", "bloch.write_trajectory_csv", _csv_bytes),
    (cli, "verify_program", "pmp.verify_program", None),
    (pmp, "check_hamiltonian", "pmp.check_hamiltonian", None),
    (pmp, "check_adjoint", "pmp.check_adjoint", None),
    (pmp, "saturation_excess", "pmp.saturation_excess", None),
    (oracle, "oracle_transcription", "oracle.oracle_transcription", _evaluations),
    (cli, "oracle_transcription", "oracle.oracle_transcription", _evaluations),
    (cli, "main", "cli.main", None),
    (cli, "cmd_landmarks", "cli.landmarks", None),
    (cli, "cmd_synthesize", "cli.synthesize", None),
    (cli, "cmd_simulate", "cli.simulate", None),
    (cli, "cmd_verify", "cli.verify", None),
)
COUNTED = (
    (bounded, "first_switch_radius", "bounded.first_switch_radius.calls"),
    (unbounded, "feedback_u", "unbounded.feedback_u.calls"),
    (bounded.PulseProgram, "control", "bounded.PulseProgram.control.calls"),
)


class Tracer:
    """Spans and counters of one traced region."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, operation id]
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._ticks: dict = {}

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def _span(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                self.counts.update(hook(result, args, kwargs))
            return result

        return wrapper

    def _counter(self, name, fn):
        # every counted function takes exactly two positional arguments; a
        # fixed signature and a C-level tick keep the per-call cost low
        tick = itertools.count()
        self._ticks[name] = tick

        @functools.wraps(fn)
        def wrapper(first, second):
            next(tick)
            return fn(first, second)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in SPANS:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._span(name, saved[-1][2], hook))
            for owner, attr, name in COUNTED:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._counter(name, saved[-1][2]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            for name, tick in self._ticks.items():
                self.counts[name] += next(tick)
            self._ticks.clear()

    # ------------------------------------------------------------ reports

    def totals(self) -> tuple[dict, dict, Counter]:
        """(inclusive seconds, self seconds, span count), each keyed by span name.

        Self time is a span's duration less its direct children's; the
        counted scalar functions have no spans, so their time stays in the
        span that called them.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        inclusive: dict = defaultdict(float)
        exclusive: dict = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _, _), self_s in zip(self.spans, own):
            inclusive[name] += end - start
            exclusive[name] += self_s
            calls[name] += 1
        return inclusive, exclusive, calls

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                handle,
            )
