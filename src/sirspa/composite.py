"""Composite CGF of the outage variable: threshold * interference - signal.

For a scenario with desired-signal power S, interferer powers P_1..P_L and
linear threshold q, the outage variable is q * sum_k P_k - S. Its CGF is
one flat sum of atoms: each interferer's atoms scaled by q and the signal's
by -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import InvalidScenario
from .fading import PowerDistribution, atoms_strip, characteristic_function, cumulant


@dataclass(frozen=True)
class SirScenario:
    """Desired signal, interferers, linear SIR threshold and noise power (mW)."""

    desired: PowerDistribution
    interferers: tuple[PowerDistribution, ...]
    threshold_q: float
    noise_power: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "interferers", tuple(self.interferers))
        if len(self.interferers) < 1:
            raise InvalidScenario("at least one interferer is required")
        if not self.threshold_q > 0:
            raise InvalidScenario(f"threshold_q must be > 0, got {self.threshold_q}")
        if not self.noise_power >= 0:
            raise InvalidScenario(f"noise_power must be >= 0, got {self.noise_power}")


@dataclass(frozen=True)
class CgfEval:
    """CGF value and first two derivatives at a point."""

    t: float
    k: float
    k1: float
    k2: float


class CompositeCgf:
    """CGF of q * sum(interferers) - desired, with derivatives, strip and CF.

    Immutable; all evaluation methods are pure. Atom sums are exactly
    rounded, so results do not depend on interferer order.
    """

    def __init__(self, desired: PowerDistribution,
                 interferers: tuple[PowerDistribution, ...], q: float):
        if len(interferers) < 1:
            raise InvalidScenario("at least one interferer is required")
        if not q > 0:
            raise InvalidScenario(f"threshold q must be > 0, got {q}")
        self.interferers = tuple(interferers)
        self.atoms = (tuple(a.scaled(float(q)) for d in self.interferers for a in d.atoms())
                      + tuple(a.scaled(-1.0) for a in desired.atoms()))
        self.strip = atoms_strip(self.atoms)
        try:
            self.mean = cumulant(self.atoms, 1, 0.0)
            self.variance = cumulant(self.atoms, 2, 0.0)
            finite = math.isfinite(self.mean) and math.isfinite(self.variance)
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidScenario(
                f"threshold q={q!r} overflows the cumulants of q * I - S")

    @property
    def in_breakdown(self) -> bool:
        """Whether x = 0 lies within 0.05 standard deviations of the mean."""
        return abs(self.mean) < 0.05 * math.sqrt(self.variance)

    def _cumulant(self, n: int, t: float) -> float:
        self.strip.require(t)
        return cumulant(self.atoms, n, t)

    def k(self, t: float) -> float:
        return self._cumulant(0, t)

    def k1(self, t: float) -> float:
        return self._cumulant(1, t)

    def k2(self, t: float) -> float:
        return self._cumulant(2, t)

    def d3(self, t: float) -> float:
        return self._cumulant(3, t)

    def eval(self, t: float) -> CgfEval:
        self.strip.require(t)
        a = self.atoms
        return CgfEval(t=t, k=cumulant(a, 0, t), k1=cumulant(a, 1, t), k2=cumulant(a, 2, t))

    def characteristic_function(self, t):
        """M(jt) of the composite variable, for real scalar or array t."""
        return characteristic_function(self.atoms, t)


def build_composite(s: SirScenario) -> CompositeCgf:
    """Assemble the composite CGF object for a scenario.

    Noise power is deliberately not folded in here; SINR evaluation shifts
    the evaluation point instead (see the analysis module).
    """
    return CompositeCgf(s.desired, s.interferers, s.threshold_q)
