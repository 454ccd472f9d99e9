"""Reference computations made apart from the program, and the checks built on them.

Nothing here calls ``blochpulse``: every expected value is recomputed from
the paper's dynamics (da/dtheta = -sin^2 / thetadot) with elementary
antiderivatives on smooth arcs and numpy Gauss-Legendre quadrature on
saturated arcs.  Axis angles use exact cosines (cos pi/2 = 0, cos pi = -1)
so that small target radii are not swamped by cos(pi/2) ~ 6e-17.

Each ``check_*`` function returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

HALF_PI = math.pi / 2

# Relative miss of the final radius that a design may have.  The program's
# switch solve bisects to a 1e-12 angle width; at the smallest grid
# fractions that width maps to relative misses up to ~1e-7 (README,
# "Reference tolerances").
RADIUS_RTOL = 1e-6
# Program energy against the per-segment quadrature of u^2 / (2 thetadot).
ENERGY_RTOL = 1e-9
# Switch relations cot(theta1) + cot(theta2) = 2/m and the saturation quadratic.
SWITCH_TOL = 1e-9
# Landmark radii against the reference quadrature of the u = m trajectory.
LIMIT_RTOL = 1e-11
# Closed-loop run (RK4, h = 1e-4) against the reference: final radius and energy.
SIM_RTOL = 1e-6
# Stationarity function on the CSV rows and the adjoint residual, as ``verify`` pins them.
H_TOL = 1e-8
ADJOINT_TOL = 1e-4
# The search's endpoint tolerance, and how far its miss may read from our
# converged rollout's: the chord error of its 0.03-time-unit RK4 steps.
ORACLE_ENDPOINT_TOL = 1e-3
ORACLE_ROLLOUT_ATOL = 2e-4
ORACLE_ENERGY_RTOL = 1e-9

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def exact_cos(theta: float) -> float:
    if theta == HALF_PI:
        return 0.0
    if theta == math.pi:
        return -1.0
    return math.cos(theta)


def gauss(f, lo: float, hi: float, panels: int = 128) -> float:
    """Composite 20-point Gauss-Legendre quadrature of a vectorised f."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * _GL_X
    return float(np.sum(half * _GL_W * f(nodes)))


def _saturated_panels(m: float, span: float) -> int:
    # the integrand 1/(m - sin cos) peaks at pi/4 with width ~ sqrt(m - 1/2)
    width = math.sqrt(max(m - 0.5, 1e-300))
    return max(128, min(20_000, math.ceil(span / (0.1 * width))))


def saturated_log_radius(theta_lo: float, theta_hi: float, m: float) -> float:
    """Change of log radius along u = m: -integral of sin^2 / (m - sin cos)."""
    if theta_hi <= theta_lo:
        return 0.0
    return -gauss(
        lambda x: np.sin(x) ** 2 / (m - np.sin(x) * np.cos(x)),
        theta_lo,
        theta_hi,
        _saturated_panels(m, theta_hi - theta_lo),
    )


def reach_limit(m: float, theta: float) -> float:
    """Largest reachable radius at the axis angle: the u = m run from the pole."""
    return math.exp(saturated_log_radius(0.0, theta, m))


def _smooth_factor(c: float, kappa: float) -> float:
    # c + sqrt(c^2 + kappa^2) without cancellation for c < 0
    s = math.hypot(c, kappa)
    return c + s if c >= 0.0 else kappa * kappa / (s - c)


def _smooth_log_radius(theta_lo: float, theta_hi: float, kappa: float) -> float:
    # antiderivative of -sin / sqrt(cos^2 + kappa^2) is log(cos + sqrt(cos^2 + kappa^2))
    return math.log(
        _smooth_factor(exact_cos(theta_hi), kappa) / _smooth_factor(exact_cos(theta_lo), kappa)
    )


def segments(regime: str, theta1, theta2, theta_end: float):
    """(kind, lo, hi) pieces of a program from the pole to ``theta_end``."""
    if regime == "none":
        return [("smooth", 0.0, theta_end)]
    hi = theta2 if regime == "two" else HALF_PI
    pieces = [("smooth", 0.0, theta1), ("saturated", theta1, min(hi, theta_end))]
    if hi < theta_end:
        pieces.append(("smooth", hi, theta_end))
    return pieces


def log_radius(m: float, kappa: float, regime: str, theta1, theta2, theta_end: float) -> float:
    """Reference log radius of a program at ``theta_end``."""
    total = 0.0
    for kind, lo, hi in segments(regime, theta1, theta2, theta_end):
        if kind == "smooth":
            total += _smooth_log_radius(lo, hi, kappa)
        else:
            total += saturated_log_radius(lo, hi, m)
    return total


def energy(m: float, kappa: float, regime: str, theta1, theta2, theta_end: float) -> float:
    """Reference energy: per-segment quadrature of u^2 / (2 thetadot) in angle."""

    def smooth(x):
        c = np.cos(x)
        s = np.sqrt(c * c + kappa * kappa)
        factor = np.where(c >= 0.0, c + s, kappa * kappa / (s - c))
        return np.sin(x) * factor * factor / (2.0 * s)

    def saturated(x):
        return m * m / (2.0 * (m - np.sin(x) * np.cos(x)))

    total = 0.0
    for kind, lo, hi in segments(regime, theta1, theta2, theta_end):
        if hi <= lo:
            continue
        if kind == "smooth":
            total += gauss(smooth, lo, hi)
        else:
            total += gauss(saturated, lo, hi, _saturated_panels(m, hi - lo))
    return total


def closed_energy(r: float, theta: float) -> float:
    """Unlimited-amplitude minimum energy, a lower bound for every bound m."""
    return (1.0 + r) / (1.0 - r) if theta == math.pi else 1.0 / (1.0 - r * r)


def end_costates(m: float, kappa: float, regime: str, theta: float) -> tuple[float, float]:
    """(lambda_a, lambda_theta) at the final angle."""
    lam_a = 0.5 * kappa * kappa
    s, c = math.sin(theta), exact_cos(theta)
    if regime == "one":  # the saturated arc runs to the final angle
        return lam_a, (m * m + kappa * kappa * s * s) / (2.0 * (m - s * c))
    return lam_a, s * _smooth_factor(c, kappa)


def oracle_slack(m: float, kappa: float, regime: str, theta: float, radius: float) -> float:
    """How far below the synthesized energy a search ending within the
    endpoint tolerance may land: twice the first-order change of the
    minimum energy, lambda . dx, over a disc of that radius (README)."""
    lam_a, lam_theta = end_costates(m, kappa, regime, theta)
    return 2.0 * ORACLE_ENDPOINT_TOL / radius * (lam_a + abs(lam_theta))


# --------------------------------------------------------------------- checks


def check_design(m: float, r: float, theta: float, design: dict) -> list[str]:
    """Check a synthesized program, given as a dict of its JSON fields.

    ``design`` holds ``regime``, ``kappa``, ``theta1``, ``theta2`` and
    ``energy``; ``m`` is ``math.inf`` for an unlimited design.
    """
    fails = []
    regime, kappa = design["regime"], design["kappa"]
    theta1, theta2, e = design["theta1"], design["theta2"], design["energy"]
    shape = {"none": (False, False), "one": (True, False), "two": (True, True)}
    if regime not in shape or shape[regime] != (theta1 is not None, theta2 is not None):
        return [f"regime {regime!r} with theta1={theta1}, theta2={theta2}"]
    if math.isinf(m) and regime != "none":
        return [f"unlimited design in regime {regime!r}"]
    if not (math.isfinite(kappa) and kappa >= 0.0):
        return [f"kappa {kappa}"]
    if regime == "one" and theta != HALF_PI:
        fails.append("one-switch design on the pi axis")
    if regime == "two" and not 0.0 < theta1 < theta2 < theta:
        fails.append(f"switching angles {theta1}, {theta2} out of order")
    if fails:
        return fails
    try:
        return _check_design_values(m, r, theta, regime, kappa, theta1, theta2, e)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return [f"reference undefined for this design: {exc}"]


def _check_design_values(m, r, theta, regime, kappa, theta1, theta2, e) -> list[str]:
    fails = []
    miss = math.expm1(log_radius(m, kappa, regime, theta1, theta2, theta) - math.log(r))
    if not abs(miss) <= RADIUS_RTOL:
        fails.append(f"final radius misses the target by {miss:.3g} relative")
    e_ref = energy(m, kappa, regime, theta1, theta2, theta)
    if not abs(e / e_ref - 1.0) <= ENERGY_RTOL:
        fails.append(f"energy {e!r} against reference {e_ref!r}")
    e_min = closed_energy(r, theta)
    if regime == "none":
        if not abs(e / e_min - 1.0) <= ENERGY_RTOL:
            fails.append(f"no-switch energy {e!r} differs from closed form {e_min!r}")
    elif not e >= e_min * (1.0 - ENERGY_RTOL):
        fails.append(f"energy {e!r} below the unlimited minimum {e_min!r}")
    if regime != "none":
        cot1 = 1.0 / math.tan(theta1)
        residual = (m * cot1 - 1.0) ** 2 + m * m - 1.0 - kappa * kappa
        if not abs(residual) <= SWITCH_TOL * max(1.0, kappa * kappa):
            fails.append(f"theta1 off the saturation quadratic by {residual:.3g}")
    if regime == "two":
        cot_sum = 1.0 / math.tan(theta1) + 1.0 / math.tan(theta2)
        if not abs(cot_sum - 2.0 / m) <= SWITCH_TOL * max(1.0, 2.0 / m):
            fails.append(f"cot(theta1) + cot(theta2) = {cot_sum!r}, not 2/m")
    return fails


def check_limits(m: float, r_c1: float, r_d1: float) -> list[str]:
    """Landmark limit radii on the pi and pi/2 axes against the reference."""
    fails = []
    for name, value, theta in (("r_C1", r_c1, math.pi), ("r_D1", r_d1, HALF_PI)):
        want = reach_limit(m, theta)
        if not abs(value - want) <= LIMIT_RTOL * want:
            fails.append(f"{name}={value!r}, reference {want!r}")
    return fails


def check_boundary_curve(m: float, boundary: np.ndarray, every: int = 50) -> list[str]:
    """Sampled u = m trajectory (columns theta, r) against the reference."""
    fails = []
    if boundary.ndim != 2 or boundary.shape[1] != 2 or not np.all(np.diff(boundary[:, 0]) > 0):
        return ["boundary curve is not an increasing (theta, r) table"]
    for theta, r in boundary[::every]:
        want = math.exp(saturated_log_radius(0.0, float(theta), m))
        if not abs(r - want) <= LIMIT_RTOL * max(want, 1e-300) + 1e-300:
            fails.append(f"boundary r({theta:.6g})={r!r}, reference {want!r}")
    return fails


def check_trajectory(
    m: float, design: dict, theta_target: float, rows: np.ndarray, sim_energy: float
) -> list[str]:
    """Check a trajectory CSV table (t, theta, a, r, u, lambda_theta, H)."""
    fails = []
    t, theta, a, r, u, _lam, ham = rows.T
    bound = m if math.isfinite(m) else math.inf
    bad = np.flatnonzero(~((u >= 0.0) & (u <= bound)))
    if bad.size:
        fails.append(f"{bad.size} rows with u outside [0, m], first at row {bad[0] + 1}")
    if not np.all(np.diff(theta) > 0.0):
        fails.append("theta is not strictly increasing")
    if not np.all(np.diff(t) > 0.0):
        fails.append("time is not strictly increasing")
    if not np.allclose(r, np.exp(a), rtol=1e-10, atol=0.0):
        fails.append("r column differs from exp(a)")
    worst_h = float(np.max(np.abs(ham)))
    if not worst_h < H_TOL:
        fails.append(f"max |H| on the rows is {worst_h:.3g}")
    args = (m, design["kappa"], design["regime"], design["theta1"], design["theta2"])
    r_ref = math.exp(log_radius(*args, float(theta[-1])))
    if not abs(r[-1] / r_ref - 1.0) <= SIM_RTOL:
        fails.append(f"simulated final radius {r[-1]!r}, reference {r_ref!r}")
    e_ref = energy(*args, float(theta[-1]))
    if not abs(sim_energy / e_ref - 1.0) <= SIM_RTOL:
        fails.append(f"simulated energy {sim_energy!r}, reference {e_ref!r}")
    if not abs(theta[-1] - (theta_target - 1e-6)) <= 1e-9:
        fails.append(f"run stopped at theta={theta[-1]!r}")
    return fails


def rollout_miss(
    controls, horizon: float, target_theta: float, target_radius: float, max_dt: float = 0.001
) -> float:
    """Closest approach of a piecewise-constant control's run to the target.

    Fixed-step RK4 from the program's start angle, with distances taken to
    the chords between steps, on a step fine enough that the miss has
    converged to about 2e-7 (five times finer moves it by less).
    """
    seg_dt = horizon / len(controls)
    n_sub = max(1, math.ceil(seg_dt / max_dt))
    h = seg_dt / n_sub
    sin, cos, exp, hypot = math.sin, math.cos, math.exp, math.hypot
    z_t, y_t = target_radius * cos(target_theta), target_radius * sin(target_theta)
    th, aa = 1e-6, 0.0
    z0, y0 = cos(th), sin(th)
    best = hypot(z0 - z_t, y0 - y_t)
    for u in controls:
        for _ in range(n_sub):
            k1 = u - sin(th) * cos(th)
            t2 = th + 0.5 * h * k1
            k2 = u - sin(t2) * cos(t2)
            t3 = th + 0.5 * h * k2
            k3 = u - sin(t3) * cos(t3)
            t4 = th + h * k3
            k4 = u - sin(t4) * cos(t4)
            aa -= h / 6.0 * (sin(th) ** 2 + 2.0 * sin(t2) ** 2 + 2.0 * sin(t3) ** 2 + sin(t4) ** 2)
            th += h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            r = exp(aa)
            z1, y1 = r * cos(th), r * sin(th)
            dz, dy = z1 - z0, y1 - y0
            denom = dz * dz + dy * dy
            frac = 0.0 if denom == 0.0 else ((z_t - z0) * dz + (y_t - y0) * dy) / denom
            frac = min(max(frac, 0.0), 1.0)
            best = min(best, hypot(z_t - z0 - frac * dz, y_t - y0 - frac * dy))
            z0, y0 = z1, y1
    return best


def check_oracle(
    m: float,
    r: float,
    theta: float,
    design: dict,
    result,
    n_segments: int,
    miss: Optional[float] = None,
) -> list[str]:
    """Check an oracle result against the synthesized design for the same target.

    ``miss`` is our own rollout's closest approach; it is computed here when
    not given.
    """
    fails = []
    controls = np.asarray(result.control_grid, dtype=float)
    if controls.shape != (n_segments,):
        return [f"control grid has shape {controls.shape}"]
    bound = m if math.isfinite(m) else math.inf
    if not np.all((controls >= 0.0) & (controls <= bound)):
        fails.append("control grid leaves [0, m]")
    dt = result.horizon / n_segments
    e_grid = float(np.sum(controls * controls)) * dt / 2.0
    if not abs(result.best_energy / e_grid - 1.0) <= ORACLE_ENERGY_RTOL:
        fails.append(f"best energy {result.best_energy!r}, sum u^2 dt/2 = {e_grid!r}")

    args = (m, design["kappa"], design["regime"], design["theta1"], design["theta2"])
    if theta == math.pi:
        want_theta = math.pi - 1e-3
        want_radius = math.exp(log_radius(*args, want_theta))
    else:
        want_theta, want_radius = theta, r
    if result.target_theta != want_theta or not abs(result.target_radius / want_radius - 1.0) <= 1e-9:
        fails.append(
            f"search target ({result.target_radius!r}, {result.target_theta!r}), "
            f"reference ({want_radius!r}, {want_theta!r})"
        )
    if miss is None:
        miss = rollout_miss(controls, result.horizon, want_theta, want_radius)
    if not (miss <= ORACLE_ENDPOINT_TOL and result.endpoint_error <= ORACLE_ENDPOINT_TOL):
        fails.append(f"miss {result.endpoint_error:.3g}, our rollout {miss:.3g}, beyond the tolerance")
    if not abs(miss - result.endpoint_error) <= ORACLE_ROLLOUT_ATOL:
        fails.append(f"endpoint error {result.endpoint_error:.6g}, our rollout {miss:.6g}")
    slack = oracle_slack(m, design["kappa"], design["regime"], want_theta, want_radius)
    if not e_grid >= design["energy"] - slack:
        fails.append(
            f"search energy {e_grid!r} beats the synthesized {design['energy']!r} "
            f"by more than the slack {slack:.3g}"
        )
    return fails
