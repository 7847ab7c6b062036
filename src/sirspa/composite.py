"""Composite CGF of the outage variable: threshold * interference - signal.

For a scenario with desired-signal power S, interferer powers P_1..P_L and
linear threshold q, the outage variable is q * sum_k P_k - S. Its CGF is
one flat sum of atoms: each interferer's atoms scaled by q and the signal's
by -1, with atoms of the same shape and scale merged into one. K, K' and K''
come from one pass over these atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import InvalidScenario
from .fading import (
    PowerDistribution,
    atoms_mean,
    atoms_strip,
    cgf_012,
    characteristic_function,
    cumulant,
    merge_atoms,
)


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
        # built as a list: CPython grows a tuple from a generator by resizing
        # it, and such a tuple, once freed, adds to the free list of its size
        # instead of having come from it; over many composites that held ~2 MB
        atoms = [a.scaled(float(q)) for d in self.interferers for a in d.atoms()]
        atoms += [a.scaled(-1.0) for a in desired.atoms()]
        self.atoms = merge_atoms(tuple(atoms))
        self.strip = atoms_strip(self.atoms)
        try:
            self.mean = atoms_mean(self.atoms)
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

    def _cgf_012(self, t: float) -> tuple[float, float, float]:
        self.strip.require(t)
        return cgf_012(self.atoms, self.mean, t)

    def k(self, t: float) -> float:
        return self._cgf_012(t)[0]

    def k1(self, t: float) -> float:
        return self._cgf_012(t)[1]

    def k2(self, t: float) -> float:
        return self._cgf_012(t)[2]

    def d3(self, t: float) -> float:
        self.strip.require(t)
        return cumulant(self.atoms, 3, t)

    def eval(self, t: float) -> CgfEval:
        k, k1, k2 = self._cgf_012(t)
        return CgfEval(t=t, k=k, k1=k1, k2=k2)

    def characteristic_function(self, t):
        """M(jt) of the composite variable, for real scalar or array t."""
        return characteristic_function(self.atoms, t)


def build_composite(s: SirScenario) -> CompositeCgf:
    """Assemble the composite CGF object for a scenario.

    Noise power is deliberately not folded in here; SINR evaluation shifts
    the evaluation point instead (see the analysis module).
    """
    return CompositeCgf(s.desired, s.interferers, s.threshold_q)
