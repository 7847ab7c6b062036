"""Signal-power distribution families and their CGF machinery.

Each family's cumulant generating function K(t) = log E[exp(t X)] is a sum
of closed-form atoms, weight * f(scale * t) for one of four shapes f:

- gamma: f(u) = -log(1 - u), n-th derivative (n-1)! / (1 - u)**n;
- noncentral: f(u) = u / (1 - u), n-th derivative n! / (1 - u)**(n+1);
- linear: f(u) = u;
- quadratic: f(u) = u**2 / 2.

Everything follows from a family's ``atoms()``, the one place where a sum
is a tuple of ``Atom``s. ``_layout_of`` reads it into the layout that
everything downstream, a composite included, reads: per shape, in a fixed
order, its weights and a (rows x atoms) matrix of scales sorted by scale, one
sum per row, the atoms of one shape and scale merged into one. The strip,
the mean and variance with their validity, the cumulants at 0 and the
characteristic function each have one function over it. ``AtomBlock``, the
one evaluator of K and its derivatives at t, holds many rows. Only the mean
and the cumulants at 0 are exactly rounded. The characteristic function
M(jt) = exp(sum of weight * f(j*scale*t)) takes each f(j*u) as its real
and imaginary parts in real arithmetic: -log1p(u**2) / 2 and arctan(u) for
gamma, -u**2 / (1 + u**2) and u / (1 + u**2) for noncentral, 0 and u for
linear, -u**2 / 2 and 0 for quadratic. Only the exact sampler stays per
family, as an independent check on the atoms. All power quantities are
linear milliwatts.

Near the mean of q * I - S the linear parts of the interferer and signal
atoms cancel. So each atom's linear part, weight * scale * f'(0) * t, is
summed once into the mean, and the block's kernels take only the rest of
f; the CGF and its first derivative then keep their relative accuracy at
small t. Far from 0 an atom at u << -1 cancels its share of the mean
instead, so an ``AtomBlock`` can sum a row's atoms whole (``sum_whole``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import StripViolation


@dataclass(frozen=True)
class Strip:
    """Open interval of t on which the MGF is finite."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < 0.0 < self.upper:
            raise ValueError("convergence strip must contain 0 in its interior")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, t: float) -> bool:
        return self.lower < t < self.upper

    def require(self, t: float) -> None:
        if not self.contains(t):
            raise StripViolation(
                f"t={t!r} outside open convergence strip ({self.lower}, {self.upper})"
            )


# The atom shapes, each named by its f^(n)(0) for n >= 1: an atom adds
# weight * scale**n * f^(n)(0) to the n-th cumulant of its sum.
def gamma(n: int) -> float:
    return math.factorial(n - 1)


def noncentral(n: int) -> float:
    return math.factorial(n)


def linear(n: int) -> float:
    return float(n == 1)


def quadratic(n: int) -> float:
    return float(n == 2)


# shapes with a pole at u = 1, which bounds the strip at t = 1 / scale
_POLAR = (gamma, noncentral)


# The full f of each shape at j*u for real u, as (real part, imaginary part).
# No finite u gives a NaN, an overflow or a division by zero.
# Beyond |u| = _HUGE, log1p(u**2) / 2 = log|u| + log1p(u**-2) / 2 rounds to
# log|u|: the second term, below 2**-55, is under half an ulp of log|u| > 18.
_HUGE = 2.0 ** 27


def _gamma_jt(u):
    """-log(1 - j*u) = -log1p(u**2) / 2 + j * arctan(u); the real part is
    -log|u| beyond |u| = _HUGE, where u**2 may overflow."""
    a = np.abs(u)
    re = np.log1p(np.square(np.minimum(a, _HUGE)))
    re *= 0.5
    np.log(a, out=re, where=a > _HUGE)
    return -re, np.arctan(u)


def _noncentral_jt(u):
    """j*u / (1 - j*u) = -u**2 / (1 + u**2) + j * u / (1 + u**2), with
    u**2 / (1 + u**2) = u * im; once |u| > 1, u**2 is never formed. At
    |u| = inf it is the limit, -1 + 0j."""
    big = np.maximum(np.abs(u), 1.0)
    p = np.clip(u, -1.0, 1.0)  # u / big: u, or its sign once |u| > 1
    im = p / (big + p * p / big)
    return -np.multiply(u, im, out=np.ones_like(u), where=np.isfinite(u)), im


def _linear_jt(u):
    return np.zeros_like(u), u


def _quadratic_jt(u):
    """(j*u)**2 / 2 = -u**2 / 2; -inf where u**2 overflows (|u| >= 2**512)."""
    u2 = np.square(u, out=np.full_like(u, np.inf), where=np.abs(u) < 2.0 ** 512)
    return -0.5 * u2, np.zeros_like(u)


_JT = {gamma: _gamma_jt, noncentral: _noncentral_jt,
       linear: _linear_jt, quadratic: _quadratic_jt}


class Atom(NamedTuple):
    """One CGF term, weight * f(scale * t) for the shape f named ``shape``."""

    shape: Callable[[int], float]
    weight: float
    scale: float


# The kernels of the shapes with a pole, elementwise on arrays of u: the
# shape without its linear part, f(u) - u, and the whole shape, -log(1 - u)
# or u / (1 - u); the terms w*s*(f'(u) - 1) and w*s**2*f''(u) of K' and K''
# from an atom's w*s and w*s**2, where ``whole`` marks the terms of K' that
# keep their linear part, w*s*f'(u) = w*s / (1 - u) or w*s / (1 - u)**2.
# Linear atoms add only their mean, and quadratic atoms a constant curvature
# w*s**2.
def _gamma_k(u):
    z = u / (2.0 - u)
    z2 = z * z
    series = z * z2 * (1 / 3 + z2 * (1 / 5 + z2 * (1 / 7 + z2 * (
        1 / 9 + z2 * (1 / 11 + z2 * (1 / 13 + z2 * (1 / 15 + z2 / 17)))))))
    tail = np.where(np.abs(z) < 0.1, series, np.arctanh(z) - z)
    return np.where(z == -1.0, -np.log1p(-u) - u, u * u / (2.0 - u) + 2.0 * tail)


def _gamma_whole(u):
    return -np.log1p(-u)


def _gamma_12(u, ws, ws2, whole=None):
    d = 1.0 - u
    f1 = ws * u if whole is None else np.where(whole, ws, ws * u)
    return f1 / d, ws2 / (d * d)


def _noncentral_k(u):
    return u * u / (1.0 - u)


def _noncentral_whole(u):
    return u / (1.0 - u)


def _noncentral_12(u, ws, ws2, whole=None):
    d = 1.0 - u
    d2 = d * d
    f1 = ws * u * (2.0 - u) if whole is None else np.where(whole, ws, ws * u * (2.0 - u))
    return f1 / d2, 2.0 * ws2 / (d2 * d)


_KERNELS = {gamma: (_gamma_k, _gamma_whole, _gamma_12),
            noncentral: (_noncentral_k, _noncentral_whole, _noncentral_12)}


# Sums of atoms in one layout, {shape: (weights, scales[rows, atoms])}, one
# sum per row, and their quantities; a shape without the quantity adds a
# block of no atoms.
def _layout_of(atoms) -> dict:
    """``atoms`` as a one-row layout, the shapes in the order of ``_JT`` and
    each shape's atoms sorted by scale: the positive scales (an
    interferer's) first, then the negative ones. Atoms of one shape and
    scale are one atom of their summed weight, exactly rounded."""
    weights: dict[tuple, list[float]] = {}
    for f, w, s in sorted(atoms, key=lambda a: (a.scale < 0.0, a.scale)):
        weights.setdefault((f, s), []).append(w)
    return {f: (np.array([math.fsum(ws) for (g, _), ws in weights.items() if g is f]),
                np.array([[s for g, s in weights if g is f]]))
            for f in _JT if any(g is f for g, _ in weights)}


def _strip_edges(layout):
    """Each row's strip (lower, upper), bounded by the poles 1/s of its gamma
    and noncentral atoms nearest to 0; a zero scale's pole bounds nothing."""
    with np.errstate(divide="ignore"):
        poles = np.concatenate([1.0 / s if f in _POLAR else s[:, :0]
                                for f, (w, s) in layout.items()], axis=1)
    return (np.maximum.reduce(np.where(poles < 0.0, poles, -np.inf), axis=1, initial=-np.inf),
            np.minimum.reduce(np.where(poles > 0.0, poles, np.inf), axis=1, initial=np.inf))


def _fsum(xs: list[float]) -> float:
    """``math.fsum``, or nan where there is no finite sum to give."""
    try:
        return math.fsum(xs)
    except (ValueError, OverflowError):  # inf - inf, or an overflowing partial sum
        return math.nan


def _moments(layout):
    """Each row's mean and variance, whether both are finite with a variance
    above 0, and every atom's share of the mean, w*s, as one (rows x atoms)
    matrix. The mean sums the shares exactly rounded, nan where they overflow
    (the caller silences overflow); the variance is numpy's sum of
    f''(0) * w * s**2, shape by shape, quadratic first."""
    slopes = np.concatenate([w * s if f(1) else s[:, :0] for f, (w, s) in layout.items()], axis=1)
    variance = 0.0
    for f in (quadratic, gamma, noncentral):  # linear atoms add nothing
        if f in layout:
            w, s = layout[f]
            variance = variance + np.add.reduce(f(2) * (w * (s * s)), axis=1)
    mean = np.array([_fsum(r) for r in slopes.tolist()])
    return mean, variance, np.isfinite(mean) & np.isfinite(variance) & (variance > 0.0), slopes


def _cumulant(layout, n: int) -> float:
    """n-th cumulant, K^(n)(0) for n >= 1, of the one-row sum ``layout``:
    its weight * scale**n * f^(n)(0), exactly rounded, so in any order. A
    shape whose f^(n)(0) is 0 adds nothing, however large its scale**n."""
    return math.fsum([w * s ** n * f(n) for f, (ws, ss) in layout.items() if f(n)
                      for w, s in zip(ws.tolist(), ss[0].tolist())])


def _characteristic_function(layout, t):
    """M(jt) of the one-row sum ``layout`` for real scalar or array t: the
    real and imaginary parts of every w * f(j*s*t), a shape's atoms as one
    (atoms x nodes) block, summed in real arithmetic, then one complex exp.

    Underflow is ignored: a term below 1e-300, or M(jt) itself rounding to 0
    at large t. No finite t gives a NaN: where s*t overflows, each shape
    takes its limit at |u| = inf.
    """
    t = np.asarray(t, dtype=float)
    nodes = t.ravel()
    log_cf = np.zeros(nodes.shape, dtype=complex)
    with np.errstate(under="ignore", over="ignore"):  # |s*t| = inf takes each limit
        for shape, (w, s) in layout.items():
            re, im = _JT[shape](np.multiply.outer(s[0], nodes))
            log_cf.real += np.einsum("a,an->n", w, re)
            log_cf.imag += np.einsum("a,an->n", w, im)
        return np.exp(log_cf.reshape(t.shape))


class AtomBlock:
    """The sums of atoms of n points at once, one row per point, built from
    a weight per atom and an (n x atoms) matrix of scales for each shape.

    ``k``, ``k12`` and ``derivative`` give every row's K and its derivatives
    at its own t, each atom's term summed by numpy along the atom axis. Each
    row is a contiguous run of that axis and is reduced on its own, so a
    row's values do not depend on how many rows share the block. Only each
    row's mean is exactly rounded, and ``finite`` marks the rows whose mean
    and variance are finite, with a variance above 0; ``k1_limits`` holds
    each row's K' at its strip's lower and upper edges. Overflow and
    underflow in K and its derivatives are the caller's to silence.

    Each atom's linear part is summed into the mean, so K and K' keep their
    accuracy at small t, where the two sides' linear parts cancel. Far out,
    at u << -1, an atom's remaining f'(u) = u / (1 - u) tends to -1 and
    cancels its share of the mean instead. ``sum_whole`` switches the rows
    where that costs more to sums of whole atoms.
    """

    def __init__(self, blocks: dict):
        no_atoms = (np.empty(0), np.empty((len(next(iter(blocks.values()))[1]), 0)))
        with np.errstate(all="ignore"):
            self._blocks = [(f, *_KERNELS[f], w, s, w * s, w * (s * s))
                            for f, (w, s) in blocks.items() if f in _KERNELS]
            self.mean, self.variance, self.finite, slopes = _moments(blocks)
            self.lower, self.upper = _strip_edges(blocks)
            self._quadratic = blocks.get(quadratic, no_atoms)
            w, s = self._quadratic
            self._curvature = np.add.reduce(w * (s * s), axis=1)
            w, s = blocks.get(linear, no_atoms)
            self._linear_mean = np.add.reduce(w * s, axis=1)
            # K' at the strip's lower and upper edges: -inf and +inf at a pole or
            # with a curvature; else every term but the linear atoms' tends to 0
            curved = self._curvature > 0.0
            self.k1_limits = (
                np.where(np.isfinite(self.lower) | curved, -np.inf, self._linear_mean),
                np.where(np.isfinite(self.upper) | curved, np.inf, self._linear_mean))
            upper_pole = np.isfinite(self.upper)[:, None]
            plus = np.concatenate([(s > 0.0) & (f in _POLAR or upper_pole) if f(1)
                                   else s[:, :0] > 0.0 for f, (w, s) in blocks.items()], axis=1)
            self.two_pole = self._two_pole(np.where(plus, slopes, 0.0), slopes)
        self._whole = None  # no row sums whole atoms

    def _two_pole(self, plus, slopes):
        """(A+, A-, 1/p+, 1/p-) of every row for the model
        A+ / (1 - t/p+) - A- / (1 - t/p-) of K', which is K' itself when each
        side is one gamma atom. A+ is the mean of the row's positive-scale
        atoms (the interferers), A- the rest of the mean with its sign
        flipped, each summed on its own so that neither is lost in the other;
        p+ and p- are the strip edges. A side without a pole takes the scale
        of the gamma that matches its mean and variance, variance / mean, for
        1/p: a Gaussian-family signal. Gaussian-family interferers count in
        A+ only beside a gamma or noncentral one, which bounds the strip
        above; in A- their slope would put the start far from the root. On
        their own they leave A+ = 0, so 1/p+ is not finite and the solve
        starts from 0, from where Newton on their linear K' lands in one step.

        ``slopes`` holds every atom's share of the mean, w*s, and ``plus``
        those of the interferers that count in A+, 0 elsewhere.
        """
        a_plus = np.add.reduce(plus, axis=1)
        a_minus = np.add.reduce(plus - slopes, axis=1)
        inv_upper, inv_lower = 1.0 / self.upper, 1.0 / self.lower
        w, s = self._quadratic
        if w.size:  # only the Gaussian family leaves a side without a pole
            v = w * (s * s)
            inv_upper = np.where(np.isfinite(self.upper), inv_upper,
                                 np.add.reduce(np.where(s > 0.0, v, 0.0), axis=1) / a_plus)
            inv_lower = np.where(np.isfinite(self.lower), inv_lower,
                                 -np.add.reduce(np.where(s < 0.0, v, 0.0), axis=1) / a_minus)
        return a_plus, a_minus, inv_upper, inv_lower

    def sum_whole(self, t):
        """From now on, sum K and K' of the rows whose whole atoms' terms of
        K' at t add up, in magnitude, to less than half of the terms with
        the linear parts in the mean; both sums are K' in exact arithmetic,
        and the one with the smaller terms rounds less."""
        tc = t[:, None]
        split, whole = np.abs(self.mean), np.abs(self._linear_mean)
        with np.errstate(all="ignore"):
            for _, _, _, d12, w, s, ws, ws2 in self._blocks:
                u = s * tc
                split = split + np.add.reduce(np.abs(d12(u, ws, ws2)[0]), axis=1)
                whole = whole + np.add.reduce(np.abs(d12(u, ws, ws2, True)[0]), axis=1)
        rows = whole < 0.5 * split
        self._whole = rows[:, None] if rows.any() else None

    def k12(self, t):
        """(K'(t), K''(t)) of every row at its own t, unchecked against the strip."""
        whole = self._whole
        mean = self.mean if whole is None else np.where(whole[:, 0], self._linear_mean, self.mean)
        k1, k2 = mean + self._curvature * t, self._curvature
        tc = t[:, None]
        for _, _, _, d12, w, s, ws, ws2 in self._blocks:
            f1, f2 = d12(s * tc, ws, ws2, whole)
            k1 = k1 + np.add.reduce(f1, axis=1)
            k2 = k2 + np.add.reduce(f2, axis=1)
        return k1, k2

    def k(self, t):
        """K(t) of every row at its own t, unchecked against the strip."""
        whole = self._whole
        mean = self.mean if whole is None else np.where(whole[:, 0], self._linear_mean, self.mean)
        tc = t[:, None]
        w, s = self._quadratic
        u = s * tc
        k = mean * t + np.add.reduce(0.5 * (w * u) * u, axis=1)  # (s*t)**2 alone may overflow
        with np.errstate(divide="ignore", invalid="ignore"):  # branches np.where drops
            for _, f0, f, _, w, s, ws, ws2 in self._blocks:
                u = s * tc
                k = k + np.add.reduce(w * (f0(u) if whole is None else
                                           np.where(whole, f(u), f0(u))), axis=1)
        return k

    def derivative(self, n: int, t):
        """K^(n)(t) of every row at its own t, unchecked against the strip.
        For n >= 3 a gamma atom adds (n-1)! * w * s**n / (1 - u)**n, a
        noncentral one n! * w * s**n / (1 - u)**(n+1), and the others 0."""
        if n < 3:
            return self.k(t) if n == 0 else self.k12(t)[n - 1]
        tc = t[:, None]
        kn = np.zeros(len(t))
        for f, _, _, _, w, s, _, _ in self._blocks:
            d = 1.0 - s * tc
            term = f(n) * w * (s / d) ** n
            kn = kn + np.add.reduce(term if f is gamma else term / d, axis=1)
        return kn


class PowerDistribution:
    """Common interface of the power-distribution families.

    Subclasses give ``atoms()`` and the sampler; the CGF methods enforce the
    strip and take scalars.
    """

    def atoms(self) -> tuple[Atom, ...]:
        raise NotImplementedError

    @cached_property
    def _layout(self) -> dict:
        return _layout_of(self.atoms())

    @cached_property
    def _row(self) -> AtomBlock:
        return AtomBlock(self._layout)

    def strip(self) -> Strip:
        return Strip(self._row.lower.item(), self._row.upper.item())

    @property
    def mean(self) -> float:
        return self._row.mean.item()

    @property
    def variance(self) -> float:
        return self._row.variance.item()

    def _at(self, n: int, t: float) -> float:
        self.strip().require(t)
        return self._row.derivative(n, np.array([t], dtype=float)).item()

    def cgf(self, t: float) -> float:
        return self._at(0, t)

    def cgf_d1(self, t: float) -> float:
        return self._at(1, t)

    def cgf_d2(self, t: float) -> float:
        return self._at(2, t)

    def characteristic_function(self, t):
        """M(jt) for real scalar or array t, from ``atoms()``."""
        return _characteristic_function(self._layout, t)

    def sample(self, rng: np.random.Generator, size=None):
        """Draw power samples whose population MGF equals the family MGF."""
        raise NotImplementedError


@dataclass(frozen=True)
class NakagamiM(PowerDistribution):
    """Gamma-distributed power: shape m, rate m / mean_power."""

    m: float
    mean_power: float

    def __post_init__(self):
        if not self.m >= 0.5:
            raise ValueError(f"Nakagami shape m must be >= 0.5, got {self.m}")
        if not self.mean_power > 0:
            raise ValueError(f"mean_power must be > 0, got {self.mean_power}")

    @property
    def rate(self) -> float:
        return self.m / self.mean_power

    def atoms(self) -> tuple[Atom, ...]:
        return (Atom(gamma, self.m, self.mean_power / self.m),)

    def sample(self, rng, size=None):
        return rng.gamma(shape=self.m, scale=self.mean_power / self.m, size=size)


@dataclass(frozen=True)
class Rician(PowerDistribution):
    """Line-of-sight power model: Rice factor r, r = 0 is Rayleigh."""

    r: float
    mean_power: float

    def __post_init__(self):
        if not self.r >= 0:
            raise ValueError(f"Rice factor r must be >= 0, got {self.r}")
        if not self.mean_power > 0:
            raise ValueError(f"mean_power must be > 0, got {self.mean_power}")

    def atoms(self) -> tuple[Atom, ...]:
        theta = self.mean_power / (1.0 + self.r)
        return (Atom(gamma, 1.0, theta), Atom(noncentral, self.r, theta))

    def sample(self, rng, size=None):
        nu = math.sqrt(self.r * self.mean_power / (1.0 + self.r))
        sigma = math.sqrt(self.mean_power / (2.0 * (1.0 + self.r)))
        x = rng.normal(nu, sigma, size=size)
        y = rng.normal(0.0, sigma, size=size)
        return x * x + y * y


# validation bound: the power PDF/MGF degenerate as |b| -> 1
_HOYT_B_MAX = 1.0 - 1e-9


@dataclass(frozen=True)
class Hoyt(PowerDistribution):
    """Unequal-variance two-Gaussian power model; asymmetry b, b = 0 is Rayleigh."""

    b: float
    mean_power: float

    def __post_init__(self):
        if not abs(self.b) <= _HOYT_B_MAX:
            raise ValueError(
                f"Hoyt asymmetry |b| must be < 1, got {self.b}. Parameters from the "
                "fading-figure convention convert as b = (1 - m**2) / (1 + m**2)."
            )
        if not self.mean_power > 0:
            raise ValueError(f"mean_power must be > 0, got {self.mean_power}")

    def _halves(self):
        return self.mean_power * (1.0 - self.b), self.mean_power * (1.0 + self.b)

    def atoms(self) -> tuple[Atom, ...]:
        return tuple(Atom(gamma, 0.5, h) for h in self._halves())

    def sample(self, rng, size=None):
        lo, hi = self._halves()
        x = rng.normal(0.0, math.sqrt(hi / 2.0), size=size)
        y = rng.normal(0.0, math.sqrt(lo / 2.0), size=size)
        return x * x + y * y


@dataclass(frozen=True)
class GaussianTest(PowerDistribution):
    """Gaussian test distribution; the tail formula is exact for it."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")

    def atoms(self) -> tuple[Atom, ...]:
        return (Atom(linear, self.mu, 1.0), Atom(quadratic, self.sigma2, 1.0))

    def sample(self, rng, size=None):
        return rng.normal(self.mu, math.sqrt(self.sigma2), size=size)

