"""Run-configuration parsing: strict-schema JSON into scenario objects."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import jsonschema

from .composite import SirScenario
from .exceptions import ConfigError
from .fading import GaussianTest, Hoyt, NakagamiM, PowerDistribution, Rician
from .analysis import ThresholdGrid
from .oracles import MonteCarloConfig, QuadratureConfig
from .saddlepoint import SolverConfig


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class CurveSpec:
    """One labelled scenario; the threshold is filled in per grid point."""

    label: str
    template: SirScenario  # threshold_q is a placeholder


@dataclass(frozen=True)
class CompareSpec:
    default_bound: float = 1e-2
    breakdown_bound: float = 5e-2
    mc_std_errors: float = 4.0
    bounds: dict = field(default_factory=dict)  # "methodA,methodB" -> bound


@dataclass(frozen=True)
class RunConfig:
    curves: tuple[CurveSpec, ...]
    grid: ThresholdGrid
    methods: tuple[str, ...]
    solver: SolverConfig
    quadrature: QuadratureConfig
    monte_carlo: MonteCarloConfig
    output_path: str | None
    output_format: str
    compare: CompareSpec


@functools.cache
def _validator():
    """The config schema's validator, built once: the schema itself is checked
    against its meta-schema only here, not on every load."""
    text = resources.files("sirspa").joinpath("schemas/config.schema.json").read_text()
    schema = json.loads(text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _parse_distribution(spec: dict, where: str) -> PowerDistribution:
    family = spec["family"]
    try:
        if family == "nakagami_m":
            return NakagamiM(m=spec["m"], mean_power=dbm_to_mw(spec["mean_power_dbm"]))
        if family == "rician":
            return Rician(r=spec["r"], mean_power=dbm_to_mw(spec["mean_power_dbm"]))
        if family == "hoyt":
            return Hoyt(b=spec["b"], mean_power=dbm_to_mw(spec["mean_power_dbm"]))
        if family == "gaussian":
            return GaussianTest(mu=spec["mean_mw"], sigma2=spec["variance_mw2"])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown family {family!r}")


def load_config(path: str | Path) -> RunConfig:
    """Load, schema-validate and materialize a run configuration.

    Unknown fields are rejected; domain violations (e.g. Nakagami m < 0.5 or
    Hoyt |b| >= 1) raise ConfigError naming the offending field.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    # the error jsonschema.validate would raise
    exc = jsonschema.exceptions.best_match(_validator().iter_errors(raw))
    if exc is not None:
        loc = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config field {loc}: {exc.message}") from exc

    curves = []
    for i, cv in enumerate(raw["curves"]):
        where = f"curves/{i}"
        desired = _parse_distribution(cv["desired"], f"{where}/desired")
        interferers = tuple(
            _parse_distribution(d, f"{where}/interferers/{j}")
            for j, d in enumerate(cv["interferers"]))
        noise_dbm = cv.get("noise_power_dbm")
        noise = dbm_to_mw(noise_dbm) if noise_dbm is not None else 0.0
        template = SirScenario(desired=desired, interferers=interferers,
                               threshold_q=1.0, noise_power=noise)
        curves.append(CurveSpec(label=cv["label"], template=template))

    g = raw["grid"]
    try:
        grid = ThresholdGrid(g["start_db"], g["stop_db"], g["step_db"])
        solver = SolverConfig(**raw.get("solver", {}))
        quadrature = QuadratureConfig(**raw.get("quadrature", {}))
        monte_carlo = MonteCarloConfig(**raw.get("monte_carlo", {}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = raw.get("output", {})
    comp = raw.get("compare", {})
    compare = CompareSpec(
        default_bound=comp.get("default_bound", 1e-2),
        breakdown_bound=comp.get("breakdown_bound", 5e-2),
        mc_std_errors=comp.get("mc_std_errors", 4.0),
        bounds=dict(comp.get("bounds", {})),
    )
    return RunConfig(
        curves=tuple(curves),
        grid=grid,
        methods=tuple(raw["methods"]),
        solver=solver,
        quadrature=quadrature,
        monte_carlo=monte_carlo,
        output_path=out.get("path"),
        output_format=out.get("format", "csv"),
        compare=compare,
    )
