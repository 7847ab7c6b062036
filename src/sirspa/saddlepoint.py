"""Saddle-point solver and Lugannani-Rice tail approximation.

The saddle point solves K'(t) = x on the composite CGF. K' is strictly
increasing on the strip (convexity), so the root is unique; a safeguarded
Newton iteration with a bisection fallback toward the bracket is
guaranteed to find it from any start inside the strip, so a curve can
start each point from its neighbour's saddle point. It reads K' and K''
only; K is summed once, at the root, for w. The tail is the three-term
Lugannani-Rice value, with a breakdown branch where 1/w would blow up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .composite import CgfEval, CompositeCgf
from .exceptions import (
    BreakdownBranchRequired,
    DivergedSolver,
    NoSaddleInStrip,
)

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# never evaluate closer to a strip edge than this fraction of its scale
_EDGE_MARGIN = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Newton-solver and breakdown-branch parameters."""

    tol: float = 1e-8
    max_iter: int = 50
    near_mean_w_threshold: float = 1e-4
    interpolation_delta: float = 1e-3  # in units of sqrt(Var)
    near_mean_method: str = "interpolate"  # or "skewness"

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")
        if not (self.near_mean_w_threshold > 0 and self.interpolation_delta > 0):
            raise ValueError("thresholds must be > 0")
        if self.near_mean_method not in ("interpolate", "skewness"):
            raise ValueError(f"unknown near_mean_method {self.near_mean_method!r}")


@dataclass(frozen=True)
class SaddleSolution:
    """Root of K'(t) = x plus the Lugannani-Rice intermediates."""

    t_hat: float
    w: float
    u: float
    iterations: int
    converged: bool
    near_mean: bool
    clamped: bool = False


def _phi(w: float) -> float:
    return math.exp(-0.5 * w * w) / _SQRT_2PI


def _edge_points(start: float, edge: float, step: float):
    """Points approaching a finite or infinite strip edge from ``start``: halving
    the distance to a finite edge, doubling ``step`` toward an infinite one."""
    if math.isfinite(edge):
        margin = _EDGE_MARGIN * max(abs(edge), 1.0)
        for i in range(1, 60):
            t = start + (edge - start) * (1.0 - 0.5 ** i)
            if abs(edge - t) < margin:
                return
            yield t
    else:
        sign = 1.0 if edge > 0 else -1.0
        for i in range(0, 512):
            yield start + sign * step * 2.0 ** i


def _bracket(c: CompositeCgf, x: float, start: CgfEval):
    """Bracket the root of K'(t) - x as (lo, g_lo, hi, g_hi), edges with their
    residuals, searching outward from the evaluated ``start``. K' is
    increasing, so the sign of the residual there tells which side of the
    start holds the root. Toward an infinite edge the probes double the
    Newton step from the start."""
    t0, g0 = start.t, start.k1 - x
    step = (abs(g0) or max(1.0, abs(x))) / start.k2
    if g0 > 0.0:  # root below the start
        for t in _edge_points(t0, c.strip.lower, step):
            g = c.k1(t) - x
            if g < 0.0:
                return t, g, t0, g0
    else:  # root at or above the start
        for t in _edge_points(t0, c.strip.upper, step):
            g = c.k1(t) - x
            if g > 0.0:
                return t0, g0, t, g
    raise NoSaddleInStrip(f"K' does not cross x={x} inside the strip")


def solve_saddle(c: CompositeCgf, x: float,
                 cfg: SolverConfig = SolverConfig(), t0: float = 0.0) -> SaddleSolution:
    """Solve K'(t) = x by safeguarded Newton iteration from t0, or from 0 when
    t0 is not inside the strip.

    The bracket is searched outward from the start. Every iterate stays
    strictly inside the strip: a proposed Newton step that would leave the
    current bracket is replaced by the violated bracket edge when that
    edge's residual already meets the tolerance, else by the midpoint of the
    iterate and that edge. After the residual tolerance is met one extra
    Newton step polishes the root to near machine precision. The last
    evaluation then gives w, u and one more Newton step without a new
    evaluation, so every start lands on the same root to rounding.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    scale = cfg.tol * max(1.0, abs(x), math.sqrt(c.variance))
    t = t0 if c.strip.contains(t0) else 0.0
    e = c.eval(t)
    lo, g_lo, hi, g_hi = _bracket(c, x, e)
    converged = False
    iterations = 0
    polish = 0
    while iterations < cfg.max_iter:
        iterations += 1
        g = e.k1 - x
        if abs(g) <= scale:
            converged = True
            if polish >= 1 or g == 0.0:
                break
            polish += 1
        # tighten the bracket around the root
        if g < 0.0:
            lo, g_lo = t, g
        else:
            hi, g_hi = t, g
        t_new = t - g / e.k2
        if not lo < t_new < hi:
            edge, g_edge = (hi, g_hi) if t_new >= hi else (lo, g_lo)
            t_new = edge if abs(g_edge) <= scale else 0.5 * (t + edge)
        assert c.strip.contains(t_new)
        if t_new == t:
            break
        t = t_new
        e = c.eval(t)
    g = e.k1 - x
    converged = converged or abs(g) <= scale
    # once converged, one more Newton step without a new evaluation: x*t - K(t)
    # is stationary at the root, so the step adds -g*dt/2 to it (second order)
    dt = -g / e.k2 if converged else 0.0
    arg = 2.0 * (x * t - e.k) - g * dt
    t += dt
    w = math.copysign(math.sqrt(max(arg, 0.0)), t)
    u = t * math.sqrt(e.k2)
    near_mean = t == 0.0 or abs(w) < cfg.near_mean_w_threshold
    return SaddleSolution(t_hat=t, w=w, u=u, iterations=iterations,
                          converged=converged, near_mean=near_mean)


def lugannani_rice(c: CompositeCgf, x: float, sol: SaddleSolution) -> float:
    """Three-term Lugannani-Rice upper-tail value at x, before clamping to [0, 1]."""
    if not sol.converged:
        raise DivergedSolver("saddle solver did not converge")
    if sol.near_mean:
        raise BreakdownBranchRequired(
            "saddle point too close to the mean; use ccdf_at_mean or interpolation"
        )
    return 0.5 * math.erfc(sol.w / _SQRT_2) + _phi(sol.w) * (1.0 / sol.u - 1.0 / sol.w)


def ccdf_at_mean(c: CompositeCgf) -> float:
    """Skewness-corrected tail probability at x = E[X] (saddle point 0)."""
    k2 = c.k2(0.0)
    k3 = c.d3(0.0)
    p = 0.5 - k3 / (6.0 * _SQRT_2PI * k2 ** 1.5)
    return min(1.0, max(0.0, p))


def ccdf(c: CompositeCgf, x: float, cfg: SolverConfig = SolverConfig(),
         t0: float = 0.0) -> tuple[float, SaddleSolution]:
    """Upper-tail probability of the composite variable at x, with the saddle
    point solved from t0 (see ``solve_saddle``).

    Routes through the Lugannani-Rice formula away from the mean. Inside
    the breakdown neighborhood (|w| below the configured threshold) the
    value is linearly interpolated between the tail values at
    mean +- delta * sqrt(Var); an anchor that itself falls in the
    neighborhood takes the skewness-corrected mean value, which is also
    available directly via ``near_mean_method="skewness"``.
    """
    sol = solve_saddle(c, x, cfg, t0)
    if not sol.converged:
        raise DivergedSolver(f"saddle solver did not converge at x={x}")
    if not sol.near_mean:
        p_raw = lugannani_rice(c, x, sol)
    elif cfg.near_mean_method == "skewness":
        p_raw = ccdf_at_mean(c)
    else:
        delta = cfg.interpolation_delta * math.sqrt(c.variance)
        x_lo, x_hi = c.mean - delta, c.mean + delta
        anchor_cfg = replace(cfg, near_mean_method="skewness")
        p_lo = ccdf(c, x_lo, anchor_cfg)[0]
        p_hi = ccdf(c, x_hi, anchor_cfg)[0]
        frac = (x - x_lo) / (x_hi - x_lo)
        p_raw = (1.0 - frac) * p_lo + frac * p_hi
    p = min(1.0, max(0.0, p_raw))
    if p != p_raw:
        sol = replace(sol, clamped=True)
    return p, sol
