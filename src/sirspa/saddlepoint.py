"""Saddle-point solver and Lugannani-Rice tail approximation.

The saddle point solves K'(t) = x on the composite CGF. K' is strictly
increasing on the strip (convexity), so the root is unique; a safeguarded
Newton iteration with a bisection fallback toward the bracket is
guaranteed to find it from any start inside the strip, so a curve can
start each point from its neighbour's saddle point. It reads K' and K''
only; K is summed once, at the root, for w. The tail is the three-term
Lugannani-Rice value; near the mean, where its 1/u - 1/w term cancels,
``ccdf`` interpolates between two tail values around the mean instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .composite import CompositeCgf
from .exceptions import DivergedSolver, NoSaddleInStrip

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# never evaluate closer to a strip edge than this fraction of its scale
_EDGE_MARGIN = 1e-12
# a saddle point with |w| below this is too close to the mean for the tail formula
_NEAR_MEAN_W = 1e-4
# the near-mean branch interpolates between mean -+ this many standard deviations
_NEAR_MEAN_DELTA = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    """Newton-solver tolerance and iteration budget."""

    tol: float = 1e-8
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")


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


def _bracket(c: CompositeCgf, x: float, t0: float, k1: float, k2: float):
    """Bracket the root of K'(t) - x as (lo, g_lo, hi, g_hi), edges with their
    residuals, searching outward from t0, where K' = k1 and K'' = k2. K' is
    increasing, so the sign of the residual there tells which side of t0
    holds the root. Toward an infinite edge the probes double the Newton
    step from t0."""
    g0 = k1 - x
    step = (abs(g0) or max(1.0, abs(x))) / k2
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
    k1, k2 = c.eval(t)
    lo, g_lo, hi, g_hi = _bracket(c, x, t, k1, k2)
    converged = False
    iterations = 0
    polish = 0
    while iterations < cfg.max_iter:
        iterations += 1
        g = k1 - x
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
        t_new = t - g / k2
        if not lo < t_new < hi:
            edge, g_edge = (hi, g_hi) if t_new >= hi else (lo, g_lo)
            t_new = edge if abs(g_edge) <= scale else 0.5 * (t + edge)
        assert c.strip.contains(t_new)
        if t_new == t:
            break
        t = t_new
        k1, k2 = c.eval(t)
    g = k1 - x
    converged = converged or abs(g) <= scale
    # once converged, one more Newton step without a new evaluation: x*t - K(t)
    # is stationary at the root, so the step adds -g*dt/2 to it (second order)
    dt = -g / k2 if converged else 0.0
    arg = 2.0 * (x * t - c.k(t)) - g * dt
    t += dt
    w = math.copysign(math.sqrt(max(arg, 0.0)), t)
    u = t * math.sqrt(k2)
    near_mean = t == 0.0 or abs(w) < _NEAR_MEAN_W
    return SaddleSolution(t_hat=t, w=w, u=u, iterations=iterations,
                          converged=converged, near_mean=near_mean)


def ccdf_at_mean(c: CompositeCgf) -> float:
    """Skewness-corrected tail probability at x = E[X] (saddle point 0)."""
    k2 = c.k2(0.0)
    k3 = c.d3(0.0)
    p = 0.5 - k3 / (6.0 * _SQRT_2PI * k2 ** 1.5)
    return min(1.0, max(0.0, p))


def _solve(c: CompositeCgf, x: float, cfg: SolverConfig, t0: float) -> SaddleSolution:
    sol = solve_saddle(c, x, cfg, t0)
    if not sol.converged:
        raise DivergedSolver(f"saddle solver did not converge at x={x}")
    return sol


def _lugannani_rice(sol: SaddleSolution) -> float:
    return 0.5 * math.erfc(sol.w / _SQRT_2) + _phi(sol.w) * (1.0 / sol.u - 1.0 / sol.w)


def ccdf(c: CompositeCgf, x: float, cfg: SolverConfig = SolverConfig(),
         t0: float = 0.0) -> tuple[float, SaddleSolution]:
    """Upper-tail probability of the composite variable at x, with the saddle
    point solved from t0 (see ``solve_saddle``), clamped to [0, 1].

    Away from the mean this is the Lugannani-Rice value. Near it (|w| below
    1e-4) the value is linearly interpolated between the tail values at
    mean -+ 1e-3 standard deviations, each solved from 0 and clamped; an
    anchor that is itself near the mean takes ``ccdf_at_mean``. Raises
    ``DivergedSolver`` when a solve runs out of iterations.
    """
    sol = _solve(c, x, cfg, t0)
    if sol.near_mean:
        delta = _NEAR_MEAN_DELTA * math.sqrt(c.variance)
        x_lo, x_hi = c.mean - delta, c.mean + delta
        p_lo, p_hi = (
            min(1.0, max(0.0, ccdf_at_mean(c) if a.near_mean else _lugannani_rice(a)))
            for a in (_solve(c, xa, cfg, 0.0) for xa in (x_lo, x_hi)))
        frac = (x - x_lo) / (x_hi - x_lo)
        p_raw = (1.0 - frac) * p_lo + frac * p_hi
    else:
        p_raw = _lugannani_rice(sol)
    p = min(1.0, max(0.0, p_raw))
    if p != p_raw:
        sol = replace(sol, clamped=True)
    return p, sol
