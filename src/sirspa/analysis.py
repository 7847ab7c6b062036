"""High-level metrics: outage curves over threshold grids, SINR outage, capacity.

One function, ``_outage``, turns thresholds into results for every method:
``outage_point`` is its one-point case and ``outage_curve`` its grid case.
The capacity integrand reads the same tails (``_tails``) from its scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .composite import SirScenario
from .exceptions import InvalidScenario, QuadratureNotConverged, SirspaError, UnsupportedScenario
from .oracles import (
    MonteCarloConfig,
    QuadratureConfig,
    adaptive_gl,
    exponential_signal_closed_form,
    gil_pelaez_ccdf,
    map_batches,
    monte_carlo_curve,
)
from .saddlepoint import ccdf_block
from .saddlepoint import ccdf  # noqa: F401  perfbench's test_tracer_restores_originals reads it

METHODS = ("spa", "gil_pelaez", "monte_carlo", "closed_form")


@dataclass(frozen=True)
class ThresholdGrid:
    """Inclusive SIR threshold grid in dB."""

    start_db: float
    stop_db: float
    step_db: float

    def __post_init__(self):
        if not self.start_db <= self.stop_db:
            raise ValueError("start_db must be <= stop_db")
        if not self.step_db > 0:
            raise ValueError("step_db must be > 0")
        if self._size() > 10 ** 6:
            raise ValueError("grid size exceeds 1e6 points")
        for db in (self.start_db, self.start_db + self.step_db * (self._size() - 1)):
            try:
                q = db_to_linear(db)
            except OverflowError:
                q = math.inf
            if not 0.0 < q < math.inf:
                raise ValueError(f"grid point {db:g} dB is outside the range of a "
                                 "positive finite linear threshold")

    def _size(self) -> int:
        return int(math.floor((self.stop_db - self.start_db) / self.step_db + 1e-9)) + 1

    def values_db(self) -> np.ndarray:
        return self.start_db + self.step_db * np.arange(self._size())


class OutageResult(NamedTuple):
    """One outage evaluation with method label and diagnostics. Immutable,
    and equal only to an ``OutageResult`` with equal fields."""

    q_db: float
    q_linear: float
    p_out: float
    method: str
    t_hat: float | None = None
    iterations: int | None = None
    near_mean: bool = False
    clamped: bool = False
    error_estimate: float | None = None
    error: str | None = None

    def __eq__(self, other):
        return type(other) is OutageResult and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def outage_point(s: SirScenario, method: str = "spa",
                 quadrature: QuadratureConfig = QuadratureConfig(),
                 monte_carlo: MonteCarloConfig = MonteCarloConfig(),
                 q_db: float | None = None) -> OutageResult:
    """Outage probability for one scenario with the selected method: the
    one-point case of ``outage_curve``, raising the point's error (for
    ``spa``, ``DivergedSolver`` after the solve's fixed 200 Newton rounds).

    SINR outage with noise power N0 > 0 evaluates the composite tail at
    x = -q * N0; with N0 = 0 this is the plain SIR outage at x = 0.
    """
    q = s.threshold_q
    (r,) = _outage(s, [(10.0 * math.log10(q) if q_db is None else q_db, q)], method,
                   monte_carlo, quadrature)
    if isinstance(r, SirspaError):
        raise r
    return r


def error_result(q_db: float, q_linear: float, method: str,
                 exc: SirspaError) -> OutageResult:
    """The marker a failed point carries instead of being dropped."""
    return OutageResult(q_db=q_db, q_linear=q_linear, p_out=math.nan,
                        method=method, error=f"{type(exc).__name__}: {exc}")


def outage_curve(template: SirScenario, grid: ThresholdGrid, method: str = "spa",
                 monte_carlo: MonteCarloConfig = MonteCarloConfig()) -> list[OutageResult]:
    """One outage result per grid point; the template's threshold is replaced
    per point. ``gil_pelaez`` integrates at the default ``QuadratureConfig``.
    A failed point carries an error marker instead of being dropped."""
    points = [(q_db, db_to_linear(q_db)) for q_db in grid.values_db().tolist()]
    return [error_result(q_db, q, method, r) if isinstance(r, SirspaError) else r
            for (q_db, q), r in zip(points, _outage(template, points, method, monte_carlo))]


def _outage(s: SirScenario, points: list[tuple[float, float]], method: str,
            monte_carlo: MonteCarloConfig,
            quadrature: QuadratureConfig = QuadratureConfig()) -> list:
    """The ``OutageResult`` of ``method`` at each (q_db, q) of ``points``, the
    threshold of ``s`` replaced by q, or the ``SirspaError`` it raised.
    ``gil_pelaez`` integrates at ``quadrature``. Monte Carlo draws once for
    every point; if that fails, every point carries it."""
    qs = [q for _, q in points]
    if method == "monte_carlo":
        try:
            tails = monte_carlo_curve(s, qs, monte_carlo)
        except SirspaError as exc:
            tails = [exc] * len(qs)
    elif method in METHODS:
        tails = _tails(s, qs, method, quadrature)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    results = []
    for (q_db, q), tail in zip(points, tails):
        if isinstance(tail, SirspaError):
            results.append(tail)
        elif method == "spa":
            p, t_hat, _, _, iterations, near_mean, clamped = tail
            results.append(OutageResult(q_db, q, p, method, t_hat, iterations,
                                        near_mean, clamped))
        else:
            results.append(OutageResult(q_db, q, tail[0], method, error_estimate=tail[1]))
    return results


def _tails(s: SirScenario, qs: list[float], method: str,
           quadrature: QuadratureConfig = QuadratureConfig()):
    """Each threshold's tail at x = -q * N0, in order: a ``ccdf_block`` row,
    (p, error estimate) or (p, None), each with p first, or the
    ``SirspaError``. ``spa`` solves all in one ``ccdf_block`` call;
    ``gil_pelaez`` (on ``s.at(q)``) and ``closed_form`` go one per read."""
    if method == "spa":
        yield from ccdf_block(s, qs, [-q * s.noise_power for q in qs])
        return
    for q in qs:
        try:
            if method == "closed_form":
                tail = exponential_signal_closed_form(replace(s, threshold_q=q)), None
            else:
                tail = gil_pelaez_ccdf(s.at(q), -q * s.noise_power, quadrature)
        except SirspaError as exc:
            tail = exc
        yield tail


# Panel budget of the capacity integral, and the capacities probed for its cut.
_CAPACITY_PANELS = 400
_CAPACITY_PROBES = [2.0 ** k for k in range(7)]  # c = 1, 2, 4, ..., 64


def ergodic_capacity(template: SirScenario, method: str = "spa") -> tuple[float, float]:
    """Mean capacity E[log2(1 + SINR)] in bits/s/Hz.

    Integrates the success probability over the capacity axis c with
    q = 2**c - 1, which equals the mean by the tail-integral identity.
    Truncates where the success probability falls below 1e-8. The integral
    runs over s = sqrt(c) with integrand 2s * success(s**2) (the G20/K41
    panels of ``adaptive_gl``, to an absolute tolerance of
    max(1e-9, 1e-8 * |C|)): the success probability goes as 1 - O(c**m0)
    near c = 0, which is smooth in s. The returned error estimate is the
    quadrature's (its panels' |K41 - G20|) plus a bound on the dropped tail.
    Raises ``QuadratureNotConverged`` carrying the integral so far if the
    panel budget runs out with the error above tolerance, or if the success
    probability is still at or above 1e-8 at the cap c = 64, and
    ``InvalidScenario`` if a probe, the integral or its error estimate is
    not finite.
    ``closed_form`` has no capacity yet and raises ``UnsupportedScenario``.
    ``gil_pelaez`` inverts each integrand node at the default
    ``QuadratureConfig``. The saddle-point method solves each batch of
    integrand nodes, and the truncation probes c = 1, 2, 4, ..., 64, in one
    ``ccdf_block`` call.
    """
    if method not in ("spa", "gil_pelaez"):
        error = UnsupportedScenario if method == "closed_form" else ValueError
        raise error(f"capacity supports methods 'spa'/'gil_pelaez', got {method!r}")

    def successes(cs: list[float]):
        """Success probability at each capacity of ``cs``, in order. A failed
        point raises its error when it is reached."""
        qs = [2.0 ** c - 1.0 for c in cs]
        tails = _tails(template, [q for q in qs if q > 0.0], method)
        for q in qs:
            tail = next(tails) if q > 0.0 else (0.0, None)
            if isinstance(tail, SirspaError):
                raise tail
            yield 1.0 - tail[0]

    def integrand(s_nodes: np.ndarray) -> np.ndarray:
        nodes = s_nodes.tolist()
        return np.array([2.0 * s * p for s, p in zip(nodes, successes([s * s for s in nodes]))])

    probes = [(0.0, 1.0)]  # (c, success probability)
    capped = zip(_CAPACITY_PROBES, successes(_CAPACITY_PROBES))
    c_max, tail = next(capped)
    while tail >= 1e-8 and c_max < 64.0:
        probes.append((c_max, tail))
        c_max, tail = next(capped)

    def tol(estimate: float) -> float:
        return max(1e-9, 1e-8 * abs(estimate))

    if not math.isfinite(tail):
        raise InvalidScenario(
            f"success probability {tail} at the probe c = {c_max:g} is not finite")
    value, err, exhausted = adaptive_gl(
        integrand, np.array([0.0, math.sqrt(c_max)]), tol, _CAPACITY_PANELS)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise InvalidScenario(
            f"capacity {value} with error estimate {err} is not finite")
    if exhausted and err > tol(value):
        raise QuadratureNotConverged(
            f"capacity error estimate {err:.3e} above tolerance at "
            f"{_CAPACITY_PANELS} panels", value=value, error_estimate=err)
    if tail >= 1e-8:
        raise QuadratureNotConverged(
            f"success probability {tail:.3e} at the capacity cap c = {c_max:g} "
            "is above 1e-8; the integral up to the cap is truncated",
            value=value)
    # the integral dropped beyond c_max, with the success probability decaying
    # exponentially at the slower of its last two rates that are decays
    last = probes[-2:] + [(c_max, tail)]
    dropped = tail * max((c1 - c0) / math.log(s0 / s1) for (c0, s0), (c1, s1)
                         in zip(last, last[1:]) if s0 > s1) if tail > 0.0 else 0.0
    return value, err + dropped


def monte_carlo_capacity(template: SirScenario,
                         mc: MonteCarloConfig = MonteCarloConfig()) -> tuple[float, float]:
    """Mean of log2(1 + S / (I + N0)) over paired samples; independent capacity oracle.

    The standard error is the spread of the batch means. With one batch it is
    the sample standard deviation over the square root of the sample count,
    and with one sample it is ``math.inf``: no estimate.
    """
    def batch(p0, interference):
        cap = np.log2(1.0 + p0 / (interference + template.noise_power))
        # one batch has no spread of batch means; its own samples give the error
        spread = float(np.std(cap, ddof=1)) if mc.batches == 1 and len(cap) > 1 else math.inf
        return len(cap) / mc.samples, float(np.mean(cap)), spread

    weights, means, spreads = zip(*map_batches(template, mc, batch))
    mean = float(np.dot(weights, means))
    if mc.batches > 1:
        std_error = float(np.std(means, ddof=1)) / math.sqrt(mc.batches)
    else:
        std_error = spreads[0] / math.sqrt(mc.samples)
    return mean, std_error
