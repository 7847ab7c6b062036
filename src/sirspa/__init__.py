"""SIR/SINR outage probability via saddlepoint approximation over CGFs."""

from .analysis import (
    OutageResult,
    ThresholdGrid,
    ergodic_capacity,
    monte_carlo_capacity,
    outage_curve,
    outage_point,
)
from .composite import CompositeCgf, SirScenario, build_composite
from .exceptions import (
    ConfigError,
    DivergedSolver,
    InvalidScenario,
    NoSaddleInStrip,
    QuadratureNotConverged,
    SirspaError,
    StripViolation,
    UnsupportedScenario,
)
from .fading import GaussianTest, Hoyt, NakagamiM, PowerDistribution, Rician, Strip
from .oracles import (
    MonteCarloConfig,
    exponential_signal_closed_form,
    gil_pelaez_ccdf,
    monte_carlo_curve,
    monte_carlo_outage,
)
from .saddlepoint import (
    SaddleSolution,
    ccdf,
    ccdf_at_mean,
    solve_saddle,
)

__version__ = "0.1.0"
