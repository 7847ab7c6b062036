"""Saddle-point solver and Lugannani-Rice tail approximation.

The saddle point solves K'(t) = x on the composite CGF. K' is strictly
increasing on the open strip (convexity), so the root is unique and the
strip itself brackets it. K' runs to -inf at a lower pole (the signal's)
and +inf at an upper one (an interferer's), or with a quadratic atom; on a
side with neither it tends to the linear atoms' slope, and an x at or
beyond that has no root (``NoSaddleInStrip``). A safeguarded Newton
iteration finds it, from the root of a two-pole model of K' with the
strip's poles (``_start``), which is the root itself when each side of
q * I - S is one gamma atom. One solve runs every threshold of a curve in
lockstep (``ccdf_block``), from one ``AtomBlock`` whose K' and K'' are
summed along the atom axis; the one-point ``solve_saddle`` and ``ccdf``
are that solve on a block of one row. It reads K' and K'' only; K is
summed once, at the roots, for w. The tail is the three-term
Lugannani-Rice value; near the mean, where its 1/u - 1/w term cancels,
``ccdf`` interpolates between two tail values around the mean instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .composite import CompositeCgf, SirScenario, _invalid_threshold
from .exceptions import DivergedSolver, InvalidScenario, NoSaddleInStrip, SirspaError
from .fading import AtomBlock, _cumulant

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# never evaluate closer to a strip edge than this fraction of its distance from 0
_EDGE_MARGIN = 1e-12
# a Newton correction within this fraction of |t| (2 to 4 ulps of t) has
# resolved the root to float precision
_RESOLVED = 4.0 * 2.0 ** -53
# a residual |K'(t) - x| within this fraction of max(1, |x|, sigma) meets the root
_TOL = 1e-8
# Newton rounds a row may take before it fails with ``DivergedSolver``
_MAX_ITER = 200
# a saddle point with |w| below this is too close to the mean for the tail formula
_NEAR_MEAN_W = 1e-4
# the near-mean branch interpolates between mean -+ this many standard deviations
_NEAR_MEAN_DELTA = 1e-3


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


def _start(blk: AtomBlock, x: np.ndarray, floor: np.ndarray, ceiling: np.ndarray):
    """Every row's start: the root inside the strip of its two-pole model
    A+ / (1 - a*t) - A- / (1 - b*t) = x of K' (``AtomBlock.two_pole``, with
    a = 1/p+ and b = 1/p-), clamped into [floor, ceiling]; 0 where that root
    is not finite.

    Times (1 - a*t)(1 - b*t), the model is c*t**2 - B*t + d = 0 with
    c = x*a*b, B = x*(a + b) + a*A- - b*A+ and d = x - mean. Its root in the
    strip is the one where the quadratic falls, 2d / (B + sqrt(B**2 - 4cd)),
    taken as (B/c)(1 + s)/2 when B < 0 so that nothing cancels, with
    s = sqrt(1 - 4(c/B)(d/B)).
    """
    a_plus, a_minus, a, b = blk.two_pole
    with np.errstate(all="ignore"):  # a row with a non-finite start starts from 0
        c = x * a * b
        big_b = x * (a + b) + a * a_minus - b * a_plus
        d = x - blk.mean
        s = np.sqrt(1.0 - 4.0 * (c / big_b) * (d / big_b))
        t = np.where(big_b > 0.0, 2.0 * (d / big_b) / (1.0 + s), 0.5 * (big_b / c) * (1.0 + s))
    return np.where(np.isfinite(t), np.minimum(np.maximum(t, floor), ceiling), 0.0)


def _newton(blk: AtomBlock, x: np.ndarray, rootless: np.ndarray):
    """Safeguarded Newton iteration on K'(t) = x for the rows of ``blk`` that
    ``blk.finite`` marks and that are not ``rootless``, in lockstep, each
    from the root of its two-pole model of K' (``_start``), with one
    ``blk.k12`` per round; the start's evaluation is the first. The rows
    whose start lies far out sum whole atoms (``blk.sum_whole``). The other
    rows never run a round.

    Each row's bracket starts as its strip and shrinks to the iterates on
    either side of the root. A Newton step that would leave the bracket is
    replaced by the midpoint of the iterate and the bracket edge it crossed,
    and no iterate comes closer to a strip edge than ``_EDGE_MARGIN`` of its
    distance from 0. A row stops one Newton step (the polish) after its
    residual meets 1e-8 * max(1, |x|, sigma), or its Newton correction is
    within a few ulps of t (the root resolved to float precision), or when
    it can no longer move, or after ``_MAX_ITER`` rounds. Returns each
    row's last iterate, its residual and K'', its iteration count and
    whether it converged, and the margins of the strip.
    """
    n = len(x)
    scale = _TOL * np.maximum(np.maximum(np.abs(x), 1.0), np.sqrt(blk.variance))
    lo, hi = blk.lower, blk.upper
    floor, ceiling = lo * (1.0 - _EDGE_MARGIN), hi * (1.0 - _EDGE_MARGIN)
    t = _start(blk, x, floor, ceiling)
    blk.sum_whole(t)
    k1, k2 = blk.k12(t)
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)  # a row polishes once it has converged
    active = blk.finite & ~rootless
    for _ in range(_MAX_ITER):
        iterations += active
        g = k1 - x
        met = _met(g, k2, t, scale)
        active &= ~(met & converged)
        converged |= met
        # tighten the bracket around the root; step toward its far edge
        below = g < 0.0
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        edge = np.where(below, hi, lo)
        step = t - g / k2
        crossed = np.where(below, step >= edge, step <= edge)
        step = np.minimum(np.maximum(np.where(crossed, 0.5 * (t + edge), step), floor), ceiling)
        active &= (step != t) & np.isfinite(step)
        if not np.count_nonzero(active):
            break
        t = np.where(active, step, t)
        k1, k2 = blk.k12(t)
    g = k1 - x
    return t, g, k2, iterations, converged | _met(g, k2, t, scale), floor, ceiling


def _met(g, k2, t, scale):
    """Whether the residual g at t, with K'' = k2 there, meets the stopping
    rule: |g| <= scale, or a Newton correction |g / k2| within a few ulps
    of t."""
    resolved = _RESOLVED * np.abs(t) * k2
    return np.abs(g) <= np.maximum(scale, np.where(np.isfinite(k2), resolved, 0.0))


def _solutions(blk: AtomBlock, x: np.ndarray):
    """Every row's solve of K'(t) = x on ``blk`` at its own x, as arrays:
    t, w, u, iterations, converged, near_mean, and whether the row failed
    with no root inside the strip's margins (``edge``) or with K''
    underflowing to 0 at a root off 0 (``flat``); ``_failure`` gives those
    errors. A row is solved only if ``blk.finite`` marks it and its x lies
    strictly between K' at the strip's edges (``blk.k1_limits``); any other
    x, an infinite or NaN one too, is ``edge``.

    Once converged, one more Newton step without a new evaluation: x*t - K(t)
    is stationary at the root, so the step adds -g*dt/2 to it (second
    order), and every start lands on the same root to rounding. A row
    whose step would leave the strip's margins keeps its last iterate:
    there K' is rounding noise, and g / K'' need not point at the root.
    """
    k1_lower, k1_upper = blk.k1_limits
    rootless = ~((x > k1_lower) & (x < k1_upper))  # K' never reaches x on the strip
    with np.errstate(all="ignore"):  # the rows not solved, and 0/0 where K'' is 0
        t, g, k2, iterations, converged, floor, ceiling = _newton(blk, x, rootless)
        k = blk.k(t)
        dt = -g / k2
        dt = np.where(converged & (t + dt >= floor) & (t + dt <= ceiling), dt, 0.0)
        arg = 2.0 * (x * t - k) - g * dt
        t = t + dt
        w = np.copysign(np.sqrt(np.maximum(arg, 0.0)), t)
        u = t * np.sqrt(k2)
    near_mean = (t == 0.0) | (np.abs(w) < _NEAR_MEAN_W)
    # no root, or stopped at a margin with the root still beyond it
    edge = rootless | (~converged & (((t == ceiling) & (g < 0.0)) | ((t == floor) & (g > 0.0))))
    flat = converged & (t != 0.0) & (k2 == 0.0)  # u = 0: the tail formula divides by it
    return t, w, u, iterations, converged, near_mean, edge, flat


def _failure(x: float, t: float, edge: bool, flat: bool) -> SirspaError:
    """The error of a row that ``_solutions`` marks ``edge`` or ``flat``, or
    else did not converge."""
    if edge:
        return NoSaddleInStrip(f"K' does not cross x={x} inside the strip")
    if flat:
        return InvalidScenario(f"K'' underflows to 0 at the saddle point t={t!r} of x={x}")
    return DivergedSolver(f"saddle solver did not converge at x={x}")


def solve_saddle(c: CompositeCgf, x: float) -> SaddleSolution:
    """Solve K'(t) = x by safeguarded Newton iteration (see ``_newton``).

    Raises ``NoSaddleInStrip`` when K' does not cross x (an infinite or NaN
    x too) or the root lies closer to a strip edge than the edge margin, and
    ``InvalidScenario`` when K'' underflows to 0 at a root off 0; a solve
    that does not converge in ``_MAX_ITER`` (200) rounds is returned with
    ``converged`` False.
    """
    t, w, u, iterations, converged, near_mean, edge, flat = (
        a.item() for a in _solutions(c.scenario.block([c.q]), np.array([x])))
    if edge or flat:
        raise _failure(x, t, edge, flat)
    return SaddleSolution(t, w, u, iterations, converged, near_mean)


def ccdf_at_mean(c: CompositeCgf) -> float:
    """Skewness-corrected tail probability at x = E[X] (saddle point 0). The
    skewness, kappa3 / sigma**3, is the third cumulant of the layout with
    its scales times 1/sigma, so that no power of sigma can overflow."""
    scale = 1.0 / math.sqrt(c.variance)
    skewness = _cumulant({f: (w, s * scale) for f, (w, s) in c._layout.items()}, 3)
    p = 0.5 - skewness / (6.0 * _SQRT_2PI)
    return min(1.0, max(0.0, p))


def _lugannani_rice(w: float, u: float) -> float:
    return 0.5 * math.erfc(w / _SQRT_2) + math.exp(-0.5 * w * w) / _SQRT_2PI * (1.0 / u - 1.0 / w)


def _anchor(c: CompositeCgf, x: float) -> float:
    """Tail value at one near-mean anchor, solved on its own and clamped."""
    sol = solve_saddle(c, x)
    if not sol.converged:
        raise _failure(x, sol.t_hat, False, False)
    return min(1.0, max(0.0, ccdf_at_mean(c) if sol.near_mean else
                        _lugannani_rice(sol.w, sol.u)))


def _near_mean(c: CompositeCgf, x: float) -> float:
    delta = _NEAR_MEAN_DELTA * math.sqrt(c.variance)
    x_lo, x_hi = c.mean - delta, c.mean + delta
    p_lo = _anchor(c, x_lo)
    if x_hi == x_lo:  # |mean| / sigma above ~1e13: both anchors round to the mean
        return p_lo
    p_hi = _anchor(c, x_hi)
    frac = (x - x_lo) / (x_hi - x_lo)
    return (1.0 - frac) * p_lo + frac * p_hi


def ccdf_block(s: SirScenario, qs, x) -> list:
    """Upper-tail probability of the composite variable of ``s`` at each
    threshold of ``qs`` (``s.at(q)``) and its own x, from one lockstep
    saddle-point solve of every threshold, as ``ccdf`` takes it: per
    threshold the tuple ``(p, t_hat, w, u, iterations, near_mean, clamped)``
    of a converged solve, or the ``SirspaError`` that ``ccdf`` raises. Each
    row is read once from the solve's arrays, rows of the one block
    ``s.block(qs)``.

    A threshold that ``s.at`` rejects is a row the solve leaves inactive; it
    gives the same ``InvalidScenario``. A row whose x is infinite or NaN
    fails alone, with ``NoSaddleInStrip``, and a row still unconverged after
    ``_MAX_ITER`` (200) rounds with ``DivergedSolver``.
    """
    qs, x = np.asarray(qs, dtype=float), np.asarray(x, dtype=float)
    blk = s.block(qs)
    t, w, u, iterations, converged, near_mean, edge, flat = _solutions(blk, x)
    rows = []
    for q, xi, ti, wi, ui, n, ok, m, e, f, valid, v in zip(
            qs.tolist(), x.tolist(), t.tolist(), w.tolist(), u.tolist(),
            iterations.tolist(), converged.tolist(), near_mean.tolist(), edge.tolist(),
            flat.tolist(), blk.finite.tolist(), blk.variance.tolist()):
        if not valid:
            rows.append(_invalid_threshold(q, v))
            continue
        if e or f or not ok:
            rows.append(_failure(xi, ti, e, f))
            continue
        if m:
            try:
                p_raw = _near_mean(s.at(q), xi)
            except SirspaError as exc:
                rows.append(exc)
                continue
        else:
            p_raw = _lugannani_rice(wi, ui)
        p = min(1.0, max(0.0, p_raw))
        rows.append((p, ti, wi, ui, n, m, p != p_raw))
    return rows


def ccdf(c: CompositeCgf, x: float) -> tuple[float, SaddleSolution]:
    """Upper-tail probability of the composite variable at x, with the saddle
    point solved as ``solve_saddle`` solves it, clamped to [0, 1].

    Away from the mean this is the Lugannani-Rice value. Near it (|w| below
    1e-4) the value is linearly interpolated between the tail values at
    mean -+ 1e-3 standard deviations, each solved on its own and clamped; an
    anchor that is itself near the mean takes ``ccdf_at_mean``, and where
    both anchors round to the mean their common value is returned. Raises
    the error of ``solve_saddle``, or ``DivergedSolver`` for a solve still
    unconverged after ``_MAX_ITER`` (200) rounds.
    """
    (r,) = ccdf_block(c.scenario, [c.q], [x])
    if isinstance(r, SirspaError):
        raise r
    p, t_hat, w, u, iterations, near_mean, clamped = r
    return p, SaddleSolution(t_hat, w, u, iterations, True, near_mean, clamped)
