"""Direct-transcription search used as empirical optimality evidence.

The synthesized feedback laws satisfy necessary conditions only, so the
package ships an independent check: a derivative-free search over
piecewise-constant controls on a fixed horizon, scored by exact quadrature
energy plus a penalty on the distance of closest approach to the target.
If the search - warm-started from the synthesized control and from seeded
random restarts - never lands below the synthesized energy, that is the
strongest optimality evidence available at desk scale.

Because the final time is free, the horizon is taken generously (three
times the closed-loop 99%-progress time) and the endpoint error is the
minimum distance to the target over the whole rollout; trailing segments
then relax to zero control on their own, since they only add energy.
Half-turn targets are approached asymptotically, so the search aims at the
angle pi - 1e-3 with the radius mapped through the program's final smooth
arc; the mapped target is declared in the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bloch import THETA_START, PulseTarget, _json
from .bounded import PulseProgram, synthesize
from .errors import DidNotConverge

__all__ = ["OracleResult", "oracle_transcription"]

_ENDPOINT_TOL = 1e-3
_PENALTY_START = 1e4
_PENALTY_MAX = 1e10
_PENALTY_GROWTH = 30.0


@dataclass(frozen=True)
class OracleResult:
    """Best feasible control found by the transcription search."""

    best_energy: float
    control_grid: tuple[float, ...]
    endpoint_error: float
    horizon: float
    target_theta: float
    target_radius: float
    evaluations: int

    def to_json(self) -> str:
        return _json(self._fields())

    def _fields(self) -> dict:
        return {
            "best_energy": self.best_energy,
            "endpoint_error": self.endpoint_error,
            "horizon": self.horizon,
            "target_theta": self.target_theta,
            "target_radius": self.target_radius,
            "evaluations": self.evaluations,
            "control_grid": self.control_grid,
        }


class _Rollout:
    """Piecewise-constant rollout of the planar dynamics with tail caching.

    Keeps the states and running minimum target distance at every segment
    boundary so that re-evaluating a candidate that changes segment i only
    costs the tail i..n-1.  The radius never grows, so a probe stops at the
    first boundary whose radius is already below the target's by more than
    the running minimum distance: no later point can come closer, and the
    returned miss is the one the full tail would give.  States past the
    boundaries a committed probe reached are marched lazily, when a later
    probe starts there.  Boundary 0, the start point (r, theta) =
    (1, THETA_START), is fixed at construction.
    """

    def __init__(
        self,
        n_segments: int,
        seg_dt: float,
        n_sub: int,
        target_theta: float,
        target_radius: float,
    ):
        self.n = n_segments
        self.n_sub = n_sub
        self.dt = seg_dt / n_sub
        self.z_t = target_radius * math.cos(target_theta)
        self.y_t = target_radius * math.sin(target_theta)
        # rounding of the rolled-out points is far below this relative slack
        self.settle_radius = math.hypot(self.z_t, self.y_t)
        self.settle_slack = 1e-9 * self.settle_radius
        start_dist = math.hypot(
            math.cos(THETA_START) - self.z_t, math.sin(THETA_START) - self.y_t
        )
        self.theta = [THETA_START] + [0.0] * n_segments
        self.log_r = [0.0] * (n_segments + 1)
        self.min_dist = [start_dist] + [0.0] * n_segments
        self.valid = 0  # boundaries 0..valid hold the committed controls' states

    def _advance(self, controls, first: int, value: float, end: int, settle: bool):
        """March segments first..end-1, segment ``first`` at ``value``;
        returns (err, tail states).

        The target miss is the minimum distance from the target point to
        the polyline through the sub-step states, so a fast crossing of
        the target neighbourhood is not penalized by sample spacing.  With
        ``settle`` the march ends early at a boundary past which the miss
        cannot change; the tail then covers only the boundaries reached.
        """
        sin, cos, exp, hypot = math.sin, math.cos, math.exp, math.hypot
        dt = self.dt
        half = 0.5 * dt
        sixth = dt / 6.0
        th = self.theta[first]
        aa = self.log_r[first]
        best = self.min_dist[first]
        z_t, y_t = self.z_t, self.y_t
        settle_radius, settle_slack = self.settle_radius, self.settle_slack
        r = exp(aa)
        z0 = r * cos(th)
        y0 = r * sin(th)

        tail_theta = []
        tail_log_r = []
        tail_min = []
        for k in range(first, end):
            if settle and settle_radius - r > best + settle_slack:
                break
            u = value if k == first else controls[k]
            for _ in range(self.n_sub):
                s = sin(th)
                k1t = u - s * cos(th)
                k1a = -s * s
                t2 = th + half * k1t
                s = sin(t2)
                k2t = u - s * cos(t2)
                k2a = -s * s
                t3 = th + half * k2t
                s = sin(t3)
                k3t = u - s * cos(t3)
                k3a = -s * s
                t4 = th + dt * k3t
                s = sin(t4)
                k4t = u - s * cos(t4)
                k4a = -s * s
                th += sixth * (k1t + 2.0 * (k2t + k3t) + k4t)
                aa += sixth * (k1a + 2.0 * (k2a + k3a) + k4a)
                r = exp(aa)
                z1 = r * cos(th)
                y1 = r * sin(th)
                # distance from the target to the chord (z0,y0)-(z1,y1)
                dz = z1 - z0
                dy = y1 - y0
                denom = dz * dz + dy * dy
                if denom > 0.0:
                    frac = ((z_t - z0) * dz + (y_t - y0) * dy) / denom
                    if frac < 0.0:
                        frac = 0.0
                    elif frac > 1.0:
                        frac = 1.0
                    d = hypot(z_t - (z0 + frac * dz), y_t - (y0 + frac * dy))
                else:
                    d = hypot(z_t - z1, y_t - y1)
                if d < best:
                    best = d
                z0, y0 = z1, y1
            tail_theta.append(th)
            tail_log_r.append(aa)
            tail_min.append(best)
        return best, tail_theta, tail_log_r, tail_min

    def reset(self, controls) -> float:
        tail = self._advance(controls, 0, controls[0], self.n, False)
        self.commit(0, tail)
        return tail[0]

    def probe(self, controls, index: int, value: float):
        """Miss and tail states with segment ``index`` set to ``value``.

        ``controls`` must hold the committed controls: states a settled
        commit left unmarched up to ``index`` are marched from them first.
        """
        first = self.valid
        if first < index:
            self.commit(first, self._advance(controls, first, controls[first], index, False))
        return self._advance(controls, index, value, self.n, True)

    def commit(self, first: int, tail) -> None:
        """Store the tail states of a march or probe that started at ``first``."""
        _, tail_theta, tail_log_r, tail_min = tail
        stop = first + 1 + len(tail_theta)
        self.theta[first + 1 : stop] = tail_theta
        self.log_r[first + 1 : stop] = tail_log_r
        self.min_dist[first + 1 : stop] = tail_min
        self.valid = stop - 1


def oracle_transcription(
    m: float,
    target: PulseTarget,
    n_segments: int = 200,
    evaluations: int = 50_000,
    seed: int = 0,
    restarts: int = 2,
    program: Optional[PulseProgram] = None,
) -> OracleResult:
    """Search piecewise-constant controls for a cheaper feasible transfer.

    Coordinate descent with a shrinking step and multiplicative penalty
    continuation, warm-started from the synthesized control plus
    ``restarts`` seeded random starts.  Deterministic for a fixed seed.
    Raises DidNotConverge when no evaluated control comes within 1e-3 of
    the target.
    """
    if n_segments < 20:
        raise ValueError(f"need at least 20 segments, got {n_segments}")
    if evaluations < 1:
        raise ValueError("evaluation budget must be positive")
    if program is None:
        program = synthesize(m, target)

    trajectory = program.simulate()
    if target.is_inversion:
        target_theta = math.pi - 1e-3
        target_radius = program.radius_at(target_theta)
    else:
        target_theta = target.theta
        target_radius = target.r

    progress_angle = THETA_START + 0.99 * (target_theta - THETA_START)
    idx = min(int(np.searchsorted(trajectory.theta, progress_angle)), len(trajectory) - 1)
    horizon = 3.0 * float(trajectory.t[idx])

    bound = m if math.isfinite(m) else max(1.0, 2.0 * float(trajectory.u.max()))
    seg_dt = horizon / n_segments
    n_sub = max(1, math.ceil(seg_dt / 0.03))
    rollout = _Rollout(n_segments, seg_dt, n_sub, target_theta, target_radius)

    boundaries = np.linspace(0.0, horizon, n_segments + 1)
    rng = np.random.default_rng(seed)
    # the warm start, the synthesized control averaged over 9 points of each
    # segment window (0 past its end), takes half the budget and a fine
    # initial step; random restarts explore coarsely
    t, u = trajectory.t, trajectory.u
    window = np.linspace(boundaries[:-1], boundaries[1:], 9, axis=1)
    warm = np.clip(np.interp(window, t, u, left=u[0], right=0.0).mean(axis=1), 0.0, bound)
    warm_share = 0.5 if restarts > 0 else 1.0
    starts = [(warm, bound / 64.0, warm_share)]
    for _ in range(restarts):
        starts.append((rng.uniform(0.0, bound, n_segments), bound / 8.0, 0.5 / restarts))

    half_dt = 0.5 * seg_dt
    best_energy = math.inf
    best_error = math.inf
    best_controls: Optional[list[float]] = None
    closest_error = math.inf
    used = 0

    for start, delta0, share in starts:
        controls = [float(v) for v in start]
        budget = min(max(1, int(evaluations * share)), evaluations - used)
        if budget <= 0:
            break
        energy = sum(v * v for v in controls) * half_dt
        error = rollout.reset(controls)
        used += 1
        budget -= 1
        closest_error = min(closest_error, error)
        if error <= _ENDPOINT_TOL and energy < best_energy:
            best_energy, best_error = energy, error
            best_controls = list(controls)

        penalty = _PENALTY_START
        objective = energy + penalty * error * error
        delta = delta0
        while budget > 0:
            improved = False
            for i in range(n_segments):
                if budget <= 0:
                    break
                current = controls[i]
                for candidate in (current + delta, current - delta):
                    candidate = min(max(candidate, 0.0), bound)
                    if candidate == current or budget <= 0:
                        continue
                    tail = rollout.probe(controls, i, candidate)
                    used += 1
                    budget -= 1
                    cand_error = tail[0]
                    cand_energy = energy + (candidate * candidate - current * current) * half_dt
                    closest_error = min(closest_error, cand_error)
                    if cand_error <= _ENDPOINT_TOL and cand_energy < best_energy:
                        best_energy, best_error = cand_energy, cand_error
                        best_controls = list(controls)
                        best_controls[i] = candidate
                    cand_objective = cand_energy + penalty * cand_error * cand_error
                    if cand_objective < objective - 1e-15:
                        rollout.commit(i, tail)
                        controls[i] = candidate
                        current = candidate
                        energy, error, objective = cand_energy, cand_error, cand_objective
                        improved = True
            if not improved:
                delta *= 0.5
                if delta < bound * 1e-6:
                    if error > _ENDPOINT_TOL and penalty < _PENALTY_MAX:
                        penalty *= _PENALTY_GROWTH
                        objective = energy + penalty * error * error
                        delta = delta0
                    else:
                        break

    if best_controls is None:
        raise DidNotConverge(
            f"no control within {_ENDPOINT_TOL:g} of the target after {used} "
            f"evaluations (closest approach {closest_error:.3g})"
        )
    return OracleResult(
        best_energy=best_energy,
        control_grid=tuple(best_controls),
        endpoint_error=best_error,
        horizon=horizon,
        target_theta=target_theta,
        target_radius=target_radius,
        evaluations=used,
    )
