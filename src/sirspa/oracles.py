"""Independent reference methods: Gil-Pelaez inversion, Monte Carlo, closed form.

These serve both as validation oracles for the saddlepoint engine and as
selectable computation methods in their own right.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .composite import SirScenario
from .exceptions import InvalidScenario, QuadratureNotConverged, UnsupportedScenario
from .fading import NakagamiM

# Monte Carlo streams use numpy's PCG64 via SeedSequence(seed).spawn(batch);
# recorded so results are reproducible across implementations
RNG_ALGORITHM = "numpy-pcg64-seedseq"


# Gauss-Kronrod G20/K41 on [-1, 1], QUADPACK's qk41 (Kronrod 1965; Laurie
# 1997): the 21 nodes from the largest down to the centre 0, with their K41
# and G20 weights. Every second node from the first is a 20-point
# Gauss-Legendre node; at the others, the Kronrod nodes, the G20 weight is 0.
# Computed with mpmath at 60 digits: the Kronrod nodes are the roots of the
# Stieltjes polynomial E21, for which the integral of P20 * E21 * x**k is 0
# for every k <= 20, and the weights solve the moment equations. The tests
# recompute them.
_GK_X = np.array([
    0.9988590315882777, 0.9931285991850949, 0.9815078774502503,
    0.9639719272779138, 0.9408226338317548, 0.912234428251326,
    0.878276811252282, 0.8391169718222188, 0.7950414288375512,
    0.7463319064601508, 0.6932376563347514, 0.636053680726515,
    0.5751404468197103, 0.5108670019508271, 0.4435931752387251,
    0.37370608871541955, 0.301627868114913, 0.22778585114164507,
    0.15260546524092267, 0.07652652113349734, 0.0,
])
_K41_W = np.array([
    0.0030735837185205317, 0.008600269855642943, 0.014626169256971253,
    0.020388373461266523, 0.02588213360495116, 0.0312873067770328,
    0.036600169758200796, 0.041668873327973685, 0.04643482186749767,
    0.05094457392372869, 0.05519510534828599, 0.05911140088063957,
    0.06265323755478117, 0.06583459713361842, 0.06864867292852161,
    0.07105442355344407, 0.07303069033278667, 0.07458287540049918,
    0.07570449768455667, 0.07637786767208074, 0.07660071191799965,
])
_G20_W = np.array([
    0.0, 0.017614007139152118, 0.0, 0.04060142980038694,
    0.0, 0.06267204833410907, 0.0, 0.08327674157670475,
    0.0, 0.10193011981724044, 0.0, 0.11819453196151841,
    0.0, 0.13168863844917664, 0.0, 0.14209610931838204,
    0.0, 0.14917298647260374, 0.0, 0.15275338713072584, 0.0,
])
# the 41 nodes in ascending order, and a column each of K41 and G20 weights
_GK_NODES = np.concatenate([-_GK_X[:-1], _GK_X[::-1]])
_GK_WEIGHTS = np.stack([np.concatenate([w[:-1], w[::-1]]) for w in (_K41_W, _G20_W)], axis=1)
# the relative rounding level of a panel's sum
_ROUNDOFF = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and panel budget of the Gil-Pelaez inversion's adaptive
    Gauss-Kronrod quadrature. No run config sets them: every curve and
    capacity integrates at the default, and the CLI retries a point whose
    budget ran out once at its own fixed, larger budget."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_panels: int = 2 ** 15

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be > 0")
        if not self.max_panels >= 1:
            raise ValueError("max_panels must be >= 1")


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sample budget, seed and batch count for streaming error estimation."""

    samples: int = 10 ** 6
    seed: int = 0
    batches: int = 100

    def __post_init__(self):
        if not self.samples >= 1:
            raise ValueError("samples must be >= 1")
        if not 1 <= self.batches <= self.samples:
            raise ValueError("batches must be in [1, samples]")
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")


def _gl_batch(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K41 values and error estimates for a batch of panels [a_i, b_i], from
    one call of ``f`` at their 41 nodes each. The estimate is |K41 - G20|,
    but never below the rounding level ``_ROUNDOFF * |K41|``: the two sums
    come from the same values and can agree to the last bit."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * _GK_NODES[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    with np.errstate(invalid="ignore"):  # inf - inf where a value is not finite
        kronrod, gauss = (half[:, None] * (vals @ _GK_WEIGHTS)).T
        return kronrod, np.maximum(np.abs(kronrod - gauss), _ROUNDOFF * np.abs(kronrod))


# Gil-Pelaez integrates over v in [-pi/4, pi/4]: u = sigma * t is tan(v)
# for v >= 0 (u in [0, 1]) and cot(-v) for v < 0 (u in [1, inf)). Both ends
# of the u axis sit at v = 0, where floats are dense; the single map
# u = tan(theta) on [0, pi/2] resolves u only up to ~1e15, because theta near
# pi/2 is quantised to 2e-16.
#
# The bulk of the integrand sits at u ~ 1, where 16 uniform panels resolve
# it. An atom of scale s turns its CF factor at t ~ 1/|s|, i.e. at
# u_s = sigma/|s|. For every u_s outside the bulk [1/16, 16] the first
# panels are also cut at u_s * 4**j, from two steps beyond u_s back to the
# bulk: the far feature starts in panels of its own size, and no first panel
# between it and the bulk spans more than a factor of 4 in u, where a
# power-law tail would otherwise fall between the nodes.
_UNIFORM_EDGES = (np.pi / 32) * np.arange(-8, 9)
_BULK = 16.0


def _v_of_u(u: float) -> float:
    return math.atan(u) if u <= 1.0 else -math.atan(1.0 / u)


def _u_of_v(v: np.ndarray) -> np.ndarray:
    tan_v = np.tan(v)
    return np.where(v >= 0.0, tan_v, -1.0 / tan_v)


def _initial_edges(layout, sigma: float) -> np.ndarray:
    edges = set(_UNIFORM_EDGES.tolist())
    for u in {sigma / abs(s) for _, ss in layout.values() for s in ss[0].tolist() if s}:
        # a zero scale, or one beyond the floating-point range, has no panel to cut
        if not 0.0 < u < math.inf or 1.0 / _BULK <= u <= _BULK:
            continue
        # ladder steps from u_s back to the edge of the bulk
        steps = math.ceil(abs(math.log(u / _BULK if u > 1.0 else u * _BULK, 4.0)))
        ladder = range(1 - steps, 3) if u > 1.0 else range(-2, steps)
        edges.update(_v_of_u(u * 4.0 ** j) for j in ladder)
    return np.array(sorted(edges))


def _fsum(xs: list[float]) -> float:
    """``math.fsum``, or nan where there is no finite sum to give."""
    try:
        return math.fsum(xs)
    except (ValueError, OverflowError):  # inf - inf, or an overflowing partial sum
        return math.nan


def adaptive_gl(f, edges, tol, max_panels: int) -> tuple[float, float, bool]:
    """Integral of ``f`` from ``edges[0]`` to ``edges[-1]`` by adaptive
    Gauss-Kronrod G20/K41 panels.

    ``f`` maps an array of nodes to an array of values. The first panels lie
    between consecutive ``edges``. Each panel is evaluated once, at its 41
    nodes: its value is the K41 sum, exact to degree 61, and its error
    estimate is |K41 - G20|, the error of the 20-point Gauss-Legendre sum at
    20 of the same nodes (``_gl_batch``). ``tol(estimate)`` is the absolute
    tolerance on the whole integral, taken from the first pass's estimate;
    each panel's share of it is proportional to its length. A panel is
    accepted when its error estimate is within that share or at the rounding
    level of its value, and is halved otherwise. Once ``max_panels`` panels
    have been used, every open panel is accepted as it stands. A first pass
    whose sum is not finite is returned at once, since it gives no
    tolerance, and a panel whose value or estimate is not finite is accepted
    as it stands: a NaN integrand costs one pass, and the caller sees an
    integral that is not finite.

    Returns the integral, the error estimate (the sum of the accepted
    panels' estimates) and whether the panel budget ran out.
    """
    a, b = edges[:-1], edges[1:]
    value, err = _gl_batch(f, a, b)
    first = float(np.sum(value))
    if not math.isfinite(first):
        return first, float(np.sum(err)), False
    share = tol(first) / (edges[-1] - edges[0])
    accepted: list[float] = []
    errors: list[float] = []
    used = len(a)
    exhausted = False
    while True:
        # a panel whose K41 and G20 sums agree to rounding is done, however
        # small its share of the budget: halving cannot improve it, and its
        # error is at the rounding level of the sum itself
        ok = (err <= np.maximum(share * (b - a), _ROUNDOFF * np.abs(value))) | ~np.isfinite(err)
        if used >= max_panels:
            exhausted = True
            ok = np.ones_like(ok)
        accepted.extend(value[ok].tolist())
        errors.extend(err[ok].tolist())
        keep = ~ok
        if not keep.any():
            return _fsum(accepted), _fsum(errors), exhausted
        mid = 0.5 * (a[keep] + b[keep])
        a = np.concatenate([a[keep], mid])
        b = np.concatenate([mid, b[keep]])
        value, err = _gl_batch(f, a, b)
        used += int(keep.sum())


def gil_pelaez_ccdf(c, x: float,
                    qc: QuadratureConfig = QuadratureConfig()) -> tuple[float, float]:
    """Upper-tail probability by numerical inversion of the characteristic function.

    Evaluates 1/2 + (1/pi) * integral_0^inf Im{M(jt) exp(-jtx)} / t dt with
    the substitution t = u / sigma, sigma the standard deviation, and
    u = tan(v) or cot(-v) on a finite v interval, so that the bulk of the
    integrand sits at u ~ 1 whatever the scale of the variable. The first
    panels are cut at every atom scale far from sigma (``_initial_edges``),
    and each is evaluated at 41 nodes and halved by ``adaptive_gl`` until its
    |K41 - G20| estimate is within its share of the tolerance. The
    integrand limit at t -> 0 is supplied analytically ((mean - x) / sigma)
    to avoid 0/0 cancellation, and where u overflows to inf the integrand
    takes its limit, 0.

    ``c`` needs ``characteristic_function``, ``mean``, ``variance`` and the
    one-row layout of its atoms, ``_layout``; both the composite CGF object
    and a single power distribution qualify, by one path.

    Returns the clamped probability and the quadrature's own error estimate
    (in probability units). An integral or error estimate that is not finite
    raises ``InvalidScenario`` (the numbers have left the float range, and
    no panel budget mends that); it is never clamped into [0, 1]. A first
    pass that is not finite raises after that one pass. A panel budget that
    runs out with the error above tolerance raises
    ``QuadratureNotConverged``, carrying the value and its estimate.
    """
    mean = c.mean
    sigma = math.sqrt(c.variance)

    def integrand(v):
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            u = _u_of_v(v)
            t = u / sigma
            z = c.characteristic_function(t) * np.exp(-1j * t * x)
            # dt / t = (u + 1/u) dv on both branches; at u = inf (v within
            # ~1e-308 of 0) the limit 0, not 0 * inf
            val = np.multiply(z.imag, u + 1.0 / u, out=np.zeros_like(u), where=u < np.inf)
        return np.where(u < 1e-12, (mean - x) / sigma, val)

    def tol(integral: float) -> float:
        # the tolerance on the probability, in integral units
        p = 0.5 + integral / np.pi
        return np.pi * max(qc.abs_tol, qc.rel_tol * max(abs(p), 1e-3))

    integral, err, exhausted = adaptive_gl(
        integrand, _initial_edges(c._layout, sigma), tol, qc.max_panels)
    err_p = err / np.pi
    if not (math.isfinite(integral) and math.isfinite(err)):
        raise InvalidScenario(
            f"integral {integral} with error estimate {err_p} is not finite")
    p = min(1.0, max(0.0, 0.5 + integral / np.pi))
    if exhausted and err > tol(integral):
        raise QuadratureNotConverged(
            f"error estimate {err_p:.3e} above tolerance at {qc.max_panels} panels",
            value=p, error_estimate=err_p)
    return p, err_p


def _batch_sizes(samples: int, batches: int) -> list[int]:
    base, extra = divmod(samples, batches)
    return [base + 1 if i < extra else base for i in range(batches)]


def _workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def map_batches(s: SirScenario, mc: MonteCarloConfig, reduce) -> list:
    """``reduce(signal, interference)`` of every batch of power samples, in
    batch order.

    Deterministic for a fixed seed: batch b always uses the b-th spawned
    child of SeedSequence(seed), drawing the signal first and then each
    interferer in order, so the result does not depend on how batches are
    scheduled. Batches are drawn and reduced on a pool of up to one thread
    per available CPU (numpy releases the interpreter lock while it fills
    and reduces arrays), so at most that many batches are in memory at once
    and only the reduced values are kept. A pool of one thread would only
    hand each batch over, so then the batches run in the calling thread. If a
    batch raises, the batches not yet started are cancelled and the first
    error in batch order is raised.
    """
    def batch(child: np.random.SeedSequence, n: int):
        rng = np.random.Generator(np.random.PCG64(child))
        p0 = s.desired.sample(rng, n)
        interference = np.zeros(n)
        for d in s.interferers:
            interference += d.sample(rng, n)
        return reduce(p0, interference)

    jobs = list(zip(np.random.SeedSequence(mc.seed).spawn(mc.batches),
                    _batch_sizes(mc.samples, mc.batches)))
    threads = min(_workers(), mc.batches)
    if threads == 1:
        return [batch(child, n) for child, n in jobs]
    # imported here so that importing sirspa does not pay for it
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    pool = ThreadPoolExecutor(threads)
    try:
        futures = [pool.submit(batch, child, n) for child, n in jobs]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # every batch before a failed one has run, so this raises the first error
    return [f.result() for f in futures]


# Per-batch hit counts kept for one pass over the samples. A longer grid is
# split into blocks of thresholds, and each block redraws the same streams.
_MAX_BLOCK_COUNTS = 2 ** 20


def monte_carlo_curve(template: SirScenario, qs: list[float],
                      mc: MonteCarloConfig = MonteCarloConfig()) -> list[tuple[float, float]]:
    """Empirical outage frequency and standard error at every threshold in ``qs``.

    Each batch of ``map_batches`` is drawn once and compared with every
    threshold: a draw is an outage at q when q*(I + N0) > S. All thresholds
    therefore share the same samples, which makes the estimate monotone in q
    whenever I + N0 >= 0, as for every fading family. The template's own
    threshold is not used.
    """
    sizes = np.array(_batch_sizes(mc.samples, mc.batches))
    block = max(1, _MAX_BLOCK_COUNTS // mc.batches)
    out = []
    for start in range(0, len(qs), block):
        block_qs = qs[start:start + block]

        def hits(p0, interference):
            total = interference + template.noise_power
            return [np.count_nonzero(q * total > p0) for q in block_qs]

        counts = np.array(map_batches(template, mc, hits), dtype=np.int64).T
        for row in counts:
            p = int(row.sum()) / mc.samples
            if mc.batches > 1:
                std_error = float(np.std(row / sizes, ddof=1)) / math.sqrt(mc.batches)
            else:
                std_error = math.sqrt(max(p * (1.0 - p), 1.0 / mc.samples) / mc.samples)
            out.append((p, std_error))
    return out


def monte_carlo_outage(s: SirScenario,
                       mc: MonteCarloConfig = MonteCarloConfig()) -> tuple[float, float]:
    """Empirical outage frequency at the scenario's threshold; one point of
    ``monte_carlo_curve``."""
    return monte_carlo_curve(s, [s.threshold_q], mc)[0]


def exponential_signal_closed_form(s: SirScenario) -> float:
    """Exact outage for an exponential signal and gamma interferers.

    Valid when the desired power is Nakagami-m with m = 1 (rate L0) and all
    interferers are Nakagami-m: the outage equals
    1 - exp(-L0*q*N0) * prod_k (1 + q*L0/L_k)^(-m_k),
    from Pr(S > y) = exp(-L0*y) averaged over the interference MGF.
    """
    d = s.desired
    if not isinstance(d, NakagamiM) or abs(d.m - 1.0) > 1e-12:
        raise UnsupportedScenario("closed form needs an exponential (m=1) signal")
    if not all(isinstance(k, NakagamiM) for k in s.interferers):
        raise UnsupportedScenario("closed form needs Nakagami-m interferers")
    lam0 = d.rate
    q = s.threshold_q
    noise = -lam0 * q * s.noise_power if s.noise_power else 0.0  # not -inf * 0 once q*L0 overflows
    log_success = noise - math.fsum(
        k.m * math.log1p(q * lam0 / k.rate) for k in s.interferers)
    return 1.0 - math.exp(log_success)
