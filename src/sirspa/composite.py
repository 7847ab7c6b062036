"""Composite CGF of the outage variable: threshold * interference - signal.

For a scenario with desired-signal power S, interferer powers P_1..P_L and
linear threshold q, the outage variable is q * sum_k P_k - S. Its CGF is
one flat sum of atoms: each interferer's atoms scaled by q and the signal's
by -1, with atoms of the same shape and scale merged into one. A curve builds
them once and moves them to each q (``at``), or to all of its q at once
(``block``) for the saddle-point solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InvalidScenario
from .fading import (
    AtomBlock,
    PowerDistribution,
    atoms_cumulant,
    atoms_strip,
    characteristic_function,
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


class CompositeCgf:
    """CGF of q * sum(interferers) - desired, with derivatives, strip and CF.

    Immutable; all evaluation methods are pure. Only the mean and variance
    are exactly rounded; K and its derivatives at t are the row of
    ``block([q])``, which sorts each shape's atoms by scale, so results do
    not depend on interferer order.
    """

    def __init__(self, desired: PowerDistribution,
                 interferers: tuple[PowerDistribution, ...], q: float):
        self.interferers = tuple(interferers)
        self._unit = merge_atoms(tuple([a for d in self.interferers for a in d.atoms()]))
        self._signal = merge_atoms(tuple([a.scaled(-1.0) for a in desired.atoms()]))
        # per shape: weights and unit scales, interferers' (sorted) then the
        # signal's, and which of them scale with q
        self._shapes = {}
        for f in dict.fromkeys(a.shape for a in self._unit + self._signal):
            unit = sorted((s, w) for g, w, s in self._unit if g is f)
            signal = sorted((s, w) for g, w, s in self._signal if g is f)
            self._shapes[f] = (np.array([w for _, w in unit + signal]),
                               np.array([s for s, _ in unit + signal]),
                               np.arange(len(unit) + len(signal)) < len(unit))
        self._place(q)

    def at(self, q: float) -> "CompositeCgf":
        """The composite at threshold q, from this one's atoms: a build at q."""
        if not q > 0:
            raise InvalidScenario(f"threshold q must be > 0, got {q}")
        c = object.__new__(CompositeCgf)
        c.interferers, c._unit, c._signal = self.interferers, self._unit, self._signal
        c._shapes = self._shapes
        c._place(q)
        return c

    def _place(self, q: float) -> None:
        self.q, scale = q, float(q)
        # a list, not a generator: a tuple grown from a generator is resized, and
        # once freed it swells a free list it never came from (~2 MB over a run)
        atoms = [a.scaled(scale) for a in self._unit] + list(self._signal)
        self.atoms = merge_atoms(tuple(atoms))
        self.strip = atoms_strip(self.atoms)
        try:
            self.mean = atoms_cumulant(self.atoms, 1)
            self.variance = atoms_cumulant(self.atoms, 2)
            finite = math.isfinite(self.mean) and math.isfinite(self.variance)
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidScenario(
                f"threshold q={q!r} overflows the cumulants of q * I - S")
        if not self.variance > 0.0:
            raise InvalidScenario(f"threshold q={q!r} underflows the variance of q * I - S to 0")

    @property
    def in_breakdown(self) -> bool:
        """Whether x = 0 lies within 0.05 standard deviations of the mean."""
        return abs(self.mean) < 0.05 * math.sqrt(self.variance)

    @cached_property
    def _row(self) -> AtomBlock:
        return self.block([self.q])

    def _at(self, n: int, t: float) -> float:
        self.strip.require(t)
        return self._row.derivative(n, np.array([t], dtype=float)).item()

    def k(self, t: float) -> float:
        return self._at(0, t)

    def k1(self, t: float) -> float:
        return self._at(1, t)

    def k2(self, t: float) -> float:
        return self._at(2, t)

    def d3(self, t: float) -> float:
        return self._at(3, t)

    def eval(self, t: float) -> tuple[float, float]:
        """(K'(t), K''(t))."""
        return self.k1(t), self.k2(t)

    def block(self, qs) -> AtomBlock:
        """The composite at every threshold of ``qs`` as one block: row i holds
        the atoms of ``at(qs[i])`` (each interferer atom's scale times q_i,
        each signal atom as it is), grouped by shape."""
        qs = np.asarray(qs, dtype=float)[:, None]
        return AtomBlock({f: (w, s * np.where(scaled, qs, 1.0))
                          for f, (w, s, scaled) in self._shapes.items()})

    def characteristic_function(self, t):
        """M(jt) of the composite variable, for real scalar or array t."""
        return characteristic_function(self.atoms, t)


def build_composite(s: SirScenario) -> CompositeCgf:
    """Assemble the composite CGF object for a scenario.

    Noise power is deliberately not folded in here; SINR evaluation shifts
    the evaluation point instead (see the analysis module).
    """
    return CompositeCgf(s.desired, s.interferers, s.threshold_q)
