"""Seeded inputs of the three workloads.

The seed enters in three places only: the jitter of each design-grid radius
fraction inside its cell, the order in which the closed-loop programs run,
and the oracle's own ``seed`` argument.  The known-fault targets, the
targets beyond the limits and the oracle cases do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reference import HALF_PI, reach_limit

PI = math.pi

# ROADMAP item 1 grid: 17 bounds from just above 1/2 to 1e4, with 1 +/- 1e-6.
BOUNDS = (
    0.5000001, 0.51, 0.6, 0.75, 0.9, 0.95, 1.0 - 1e-6, 1.0, 1.0 + 1e-6,
    1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, 1e4,
)
AXES = (HALF_PI, PI)
FRACTION_CELLS = 62
# Fractions are jittered inside the middle half of each cell, so the smallest
# one stays above 1/248 of the limit (README, "Inputs").
JITTER_LO, JITTER_HI = 0.25, 0.75
# Targets beyond a limit L sit at L + f (1 - L): correct outcome Unreachable.
BEYOND_STEPS = (1e-6, 1e-3, 0.5)

# (m, theta, r) of the small-radius fault in the two-switch solve: the first
# three return a wrong program, the last three raise NoBracket although the
# targets are reachable.  Counted as failed every run.
KNOWN_FAULTS = (
    (1.0, HALF_PI, 1e-8),
    (1.0, HALF_PI, 1e-12),
    (0.95, PI, 1e-12),
    (0.95, HALF_PI, 1e-8),
    (0.95, HALF_PI, 1e-12),
    (0.51, HALF_PI, 1e-12),
)

# (m, r, theta): the three acceptance examples, the unlimited case, a
# no-switch half turn and a two-switch quarter turn at a small radius.
PROGRAMS = (
    (2.0, 0.39, PI),
    (2.0, 0.61, HALF_PI),
    (0.95, 0.2, HALF_PI),
    (math.inf, 0.6, HALF_PI),
    (10.0, 0.5, PI),
    (0.6, 0.005, HALF_PI),
)
ORACLE_CASES = PROGRAMS[:4]
ORACLE_SEGMENTS = 200
ORACLE_BUDGET = 2000


@dataclass(frozen=True)
class BoundInputs:
    m: float
    limits: tuple[float, float]  # reference reachable limit on (pi/2, pi)
    reachable: tuple[tuple[float, float], ...]  # (theta, r)
    beyond: tuple[tuple[float, float], ...]  # (theta, r), correct outcome Unreachable


@dataclass(frozen=True)
class Inputs:
    seed: int
    bounds: tuple[BoundInputs, ...]
    faults: tuple[tuple[float, float, float], ...]
    programs: tuple[tuple[float, float, float], ...]
    oracle_cases: tuple[tuple[float, float, float], ...]


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(JITTER_LO, JITTER_HI, size=(len(BOUNDS), len(AXES), FRACTION_CELLS))
    bounds = []
    for i, m in enumerate(BOUNDS):
        limits = tuple(reach_limit(m, theta) for theta in AXES)
        reachable, beyond = [], []
        for j, (theta, limit) in enumerate(zip(AXES, limits)):
            if limit > 0.0:  # for m -> 1/2 both limits underflow to 0.0
                fractions = (np.arange(FRACTION_CELLS) + jitter[i, j]) / FRACTION_CELLS
                reachable += [(theta, float(f) * limit) for f in fractions]
            beyond += [(theta, limit + f * (1.0 - limit)) for f in BEYOND_STEPS]
        bounds.append(BoundInputs(m, limits, tuple(reachable), tuple(beyond)))
    order = rng.permutation(len(PROGRAMS))
    return Inputs(
        seed=seed,
        bounds=tuple(bounds),
        faults=KNOWN_FAULTS,
        programs=tuple(PROGRAMS[k] for k in order),
        oracle_cases=ORACLE_CASES,
    )
