"""Composite CGF of the outage variable: threshold * interference - signal.

For a scenario with desired-signal power S, interferer powers P_1..P_L and
linear threshold q, the outage variable is q * sum_k P_k - S. Its CGF is
one flat sum of atoms: each interferer's atoms scaled by q and the signal's
by -1, the atoms of one shape and scale on either side merged into one. A
scenario lays them out once, at q = 1 (``fading._layout_of``), and places
that layout at any q: one threshold as a ``CompositeCgf`` (``at``), or all
of a curve's thresholds at once as an ``AtomBlock`` (``block``); no tuple
of atoms is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InvalidScenario
from .fading import (Atom, AtomBlock, PowerDistribution, Strip, _characteristic_function,
                     _layout_of, _moments, _strip_edges)


def _invalid_threshold(q, variance: float) -> InvalidScenario:
    """The error of a threshold whose mean or variance is not finite, or 0."""
    if variance == 0.0:
        return InvalidScenario(f"threshold q={q!r} underflows the variance of q * I - S to 0")
    return InvalidScenario(f"threshold q={q!r} overflows the cumulants of q * I - S")


@dataclass(frozen=True)
class SirScenario:
    """Desired signal, interferers, linear SIR threshold and noise power (mW).
    Its atoms are laid out once, on first use, and placed at any threshold;
    equality and the hash read only the four fields."""

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

    @cached_property
    def _shapes(self) -> dict:
        """The layout of q * I - S at q = 1."""
        return _layout_of([a for d in self.interferers for a in d.atoms()]
                          + [Atom(f, w, -s) for f, w, s in self.desired.atoms()])

    def _layout_at(self, qs) -> dict:
        """The layout at each threshold of ``qs``: the interferers' (positive) scales times q."""
        qs = np.asarray(qs, dtype=float)[:, None]
        return {f: (w, s * np.where(s > 0.0, qs, 1.0)) for f, (w, s) in self._shapes.items()}

    def at(self, q: float) -> "CompositeCgf":
        """The composite at threshold q, its own or any other."""
        return CompositeCgf(self, q)

    def block(self, qs) -> AtomBlock:
        """The composite at every threshold of ``qs`` as one block: row i holds
        the atoms of ``at(qs[i])``, and a threshold that ``at`` rejects is a
        row that ``finite`` leaves unmarked."""
        return AtomBlock(self._layout_at(qs))


class CompositeCgf:
    """CGF of q * sum(interferers) - desired, with derivatives, strip and CF:
    the layout of ``scenario`` placed at q > 0, with a finite mean and a
    finite variance above 0 (else ``InvalidScenario``).

    Immutable; all evaluation methods are pure. The strip, mean, variance
    and CF are read from the layout at q, and K and its derivatives at t
    from a one-row block of it, the row of ``scenario.block([q])``; neither
    depends on interferer order.
    """

    def __init__(self, scenario: SirScenario, q: float):
        if not q > 0:
            raise InvalidScenario(f"threshold q must be > 0, got {q}")
        self.scenario, self.interferers, self.q = scenario, scenario.interferers, q
        self._layout = layout = scenario._layout_at([q])
        with np.errstate(all="ignore"):
            mean, variance, valid, _ = _moments(layout)
        if not valid[0]:
            raise _invalid_threshold(q, variance.item())
        self.mean, self.variance = mean.item(), variance.item()

    @cached_property
    def strip(self) -> Strip:
        return Strip(*[edge.item() for edge in _strip_edges(self._layout)])

    @cached_property
    def _row(self) -> AtomBlock:
        return AtomBlock(self._layout)

    def _at(self, n: int, t: float) -> float:
        self.strip.require(t)
        return self._row.derivative(n, np.array([t], dtype=float)).item()

    def k(self, t: float) -> float:
        return self._at(0, t)

    def k1(self, t: float) -> float:
        return self._at(1, t)

    def k2(self, t: float) -> float:
        return self._at(2, t)

    def eval(self, t: float) -> tuple[float, float]:
        """(K'(t), K''(t))."""
        return self.k1(t), self.k2(t)

    def characteristic_function(self, t):
        """M(jt) of the composite variable, for real scalar or array t."""
        return _characteristic_function(self._layout, t)


def build_composite(s: SirScenario) -> CompositeCgf:
    """Assemble the composite CGF object for a scenario.

    Noise power is deliberately not folded in here; SINR evaluation shifts
    the evaluation point instead (see the analysis module).
    """
    return s.at(s.threshold_q)
