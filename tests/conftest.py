"""Shared fixtures and numerical helpers for the test suite."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from sirspa import CompositeCgf, Hoyt, NakagamiM, Rician, SirScenario
from sirspa.fading import Atom, gamma, linear, noncentral, quadratic

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def rel_err(approx: float, exact: float) -> float:
    return abs(approx - exact) / max(1.0, abs(exact))


def fd_step(t: float, dist_to_edge: float) -> float:
    """Central-difference step: scale-aware, kept well inside the strip."""
    h = 1e-5 * max(1.0, abs(t))
    if math.isfinite(dist_to_edge):
        h = min(h, 1e-3 * dist_to_edge)
    return h


def central_diff(f, t: float, h: float) -> float:
    return (f(t + h) - f(t - h)) / (2.0 * h)


def strip_points(strip, rng: np.random.Generator, n: int) -> np.ndarray:
    """Random points in the strip interior, away from the edges."""
    lo = strip.lower if math.isfinite(strip.lower) else -10.0
    hi = strip.upper if math.isfinite(strip.upper) else 10.0
    span = hi - lo
    return rng.uniform(lo + 0.05 * span, hi - 0.05 * span, size=n)


def dist_to_edge(strip, t: float) -> float:
    d_up = strip.upper - t if math.isfinite(strip.upper) else math.inf
    d_lo = t - strip.lower if math.isfinite(strip.lower) else math.inf
    return min(d_up, d_lo)


def random_distribution(rng: np.random.Generator, families=("nakagami_m", "rician", "hoyt")):
    family = families[rng.integers(len(families))]
    mean_power = float(10.0 ** (rng.uniform(-3.0, 6.0) / 10.0))
    if family == "nakagami_m":
        return NakagamiM(m=float(rng.uniform(0.5, 4.0)), mean_power=mean_power)
    if family == "rician":
        return Rician(r=float(rng.uniform(0.0, 4.0)), mean_power=mean_power)
    return Hoyt(b=float(rng.uniform(-0.9, 0.9)), mean_power=mean_power)


def random_scenario(rng: np.random.Generator, families=("nakagami_m", "rician", "hoyt"),
                    max_interferers: int = 8) -> SirScenario:
    desired = random_distribution(rng, families)
    n = int(rng.integers(1, max_interferers + 1))
    interferers = tuple(random_distribution(rng, families) for _ in range(n))
    q = float(10.0 ** (rng.uniform(-10.0, 20.0) / 10.0))
    return SirScenario(desired=desired, interferers=interferers, threshold_q=q)


def serial_batches(s: SirScenario, mc):
    """(signal, interference) of every Monte Carlo batch, drawn one after
    another in this thread: the serial loop the thread pool of
    ``oracles.map_batches`` must reproduce exactly."""
    base, extra = divmod(mc.samples, mc.batches)
    children = np.random.SeedSequence(mc.seed).spawn(mc.batches)
    for b, child in enumerate(children):
        n = base + 1 if b < extra else base
        rng = np.random.Generator(np.random.PCG64(child))
        p0 = s.desired.sample(rng, n)
        interference = np.zeros(n)
        for d in s.interferers:
            interference += d.sample(rng, n)
        yield p0, interference


@pytest.fixture
def workers(request, monkeypatch):
    """Patch the Monte Carlo pool to ``request.param`` threads, with a short
    switch interval so that the threads interleave often."""
    from sirspa import oracles

    monkeypatch.setattr(oracles, "_workers", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def gp_budget(monkeypatch):
    """``gp_budget(rel_tol=..., abs_tol=..., max_panels=...)``, any of them,
    sets the Gil-Pelaez quadrature's module constants for one test."""
    from sirspa import oracles

    names = {"rel_tol": "_REL_TOL", "abs_tol": "_ABS_TOL", "max_panels": "_MAX_PANELS"}

    def set_budget(**overrides):
        for key, value in overrides.items():
            monkeypatch.setattr(oracles, names[key], value)

    return set_budget


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


# The exact reference for K and its derivatives at t, against which the one
# evaluator, ``fading.AtomBlock``, is checked: each shape's n-th derivative
# at scalar u of f(u) - f'(0) * u, and the sums over atoms exactly rounded.
def _gamma_derivative(n: int, u: float) -> float:
    if n == 0:
        # -log1p(-u) - u = u**2 / (2 - u) + 2 * (atanh(z) - z), z = u / (2 - u);
        # the series keeps atanh(z) - z accurate for small z
        z = u / (2.0 - u)
        if z == -1.0:  # u below about -2**54: nothing left to cancel
            return -math.log1p(-u) - u
        z2 = z * z
        if abs(z) < 0.1:
            tail = z * z2 * (1 / 3 + z2 * (1 / 5 + z2 * (1 / 7 + z2 * (
                1 / 9 + z2 * (1 / 11 + z2 * (1 / 13 + z2 * (1 / 15 + z2 / 17)))))))
        else:
            tail = math.atanh(z) - z
        return u * u / (2.0 - u) + 2.0 * tail
    if n == 1:
        return u / (1.0 - u)
    return math.factorial(n - 1) / (1.0 - u) ** n


def _noncentral_derivative(n: int, u: float) -> float:
    if n == 0:
        return u * u / (1.0 - u)
    if n == 1:
        return u * (2.0 - u) / (1.0 - u) ** 2
    return math.factorial(n) / (1.0 - u) ** (n + 1)


def _quadratic_derivative(n: int, u: float) -> float:
    return 0.5 * u * u if n == 0 else u if n == 1 else 1.0 if n == 2 else 0.0


_SHAPE_DERIVATIVES = {gamma: _gamma_derivative, noncentral: _noncentral_derivative,
                      linear: lambda n, u: 0.0, quadratic: _quadratic_derivative}


def shape_derivative(shape, n: int, u: float) -> float:
    """n-th derivative at u of f(u) - f'(0) * u for the atom shape ``shape``."""
    return _SHAPE_DERIVATIVES[shape](n, u)


def cumulant(atoms, n: int, t: float) -> float:
    """n-th derivative at t of the CGF sum of ``atoms``, each sum exactly
    rounded (``math.fsum``); the linear parts are summed into the mean."""
    terms = [w * s ** n * shape_derivative(f, n, s * t) for f, w, s in atoms]
    if n < 2:
        mean = math.fsum([w * s * f(1) for f, w, s in atoms])
        terms.append(mean * t if n == 0 else mean)
    return math.fsum(terms)


def layout_atoms(layout) -> tuple:
    """The atoms of a one-row layout, such as a composite's or a family's
    ``_layout``: shape by shape, each shape's in the layout's order."""
    return tuple([Atom(f, w, s) for f, (ws, ss) in layout.items()
                  for w, s in zip(ws.tolist(), ss[0].tolist())])


def complex_log_cf(atoms, t):
    """M(jt) of a sum of atoms from each shape's full f at the complex
    argument j*s*t, in numpy's complex arithmetic: the reference the
    real-arithmetic ``fading._characteristic_function`` is checked against."""
    full_f = {gamma: lambda z: -np.log1p(-z), noncentral: lambda z: z / (1.0 - z),
              linear: lambda z: z, quadratic: lambda z: 0.5 * z * z}
    t = np.asarray(t, dtype=float)
    log_cf = np.zeros(t.shape, dtype=complex)
    for f, w, s in atoms:
        log_cf += w * full_f[f](1j * s * t)
    return np.exp(log_cf)


@pytest.fixture
def cf_nodes(monkeypatch):
    """A one-item list counting the nodes at which any composite's
    characteristic function is evaluated."""
    count = [0]
    characteristic_function = CompositeCgf.characteristic_function

    def counting(self, t):
        count[0] += np.size(t)
        return characteristic_function(self, t)

    monkeypatch.setattr(CompositeCgf, "characteristic_function", counting)
    return count
