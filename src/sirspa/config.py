"""Run-configuration parsing: strict JSON into scenario objects.

The dataclasses are the schema. The reader checks the shape of the JSON (no
unknown or missing keys, no empty lists) and the type of every value (finite
numbers, whole counts, non-empty strings) while it builds them, and each
dataclass's ``__post_init__`` checks its own domain. Every error is a
``ConfigError`` whose message begins ``config field <path>:``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

from .analysis import METHODS, ThresholdGrid, db_to_linear
from .composite import SirScenario
from .exceptions import ConfigError
from .fading import GaussianTest, Hoyt, NakagamiM, PowerDistribution, Rician
from .oracles import MonteCarloConfig

# family -> (class, the keys of its two arguments); a *_dbm key is read in mW
_FAMILIES = {
    "nakagami_m": (NakagamiM, "m", "mean_power_dbm"),
    "rician": (Rician, "r", "mean_power_dbm"),
    "hoyt": (Hoyt, "b", "mean_power_dbm"),
    "gaussian": (GaussianTest, "mean_mw", "variance_mw2"),
}
_KINDS = {float: "finite number", int: "whole number", str: "non-empty string"}
_hints = functools.cache(typing.get_type_hints)  # a dataclass's field types, once per class


@dataclass(frozen=True)
class CurveSpec:
    """One labelled scenario; the threshold is filled in per grid point."""

    label: str
    template: SirScenario  # threshold_q is a placeholder


@dataclass(frozen=True)
class RunConfig:
    curves: tuple[CurveSpec, ...]
    grid: ThresholdGrid
    methods: tuple[str, ...]
    monte_carlo: MonteCarloConfig
    output_path: str | None


def _fail(where: str, message) -> typing.NoReturn:
    raise ConfigError(f"config field {where or '<root>'}: {message}")


def _object(raw, where: str, required=(), optional=()) -> dict:
    """``raw`` if it is a JSON object with every required key and no key
    outside ``required`` and ``optional``; ``optional=None`` allows any."""
    if not isinstance(raw, dict):
        _fail(where, f"{raw!r} is not an object")
    for key in required:
        if key not in raw:
            _fail(where, f"{key!r} is a required property")
    for key in raw:
        if optional is not None and key not in required and key not in optional:
            _fail(where, f"unknown field {key!r}")
    return raw


def _array(raw, where: str) -> list:
    if not isinstance(raw, list) or not raw:
        _fail(where, f"{raw!r} is not a non-empty array")
    return raw


def _value(raw: dict, key: str, where: str, kind: type):
    """``raw[key]`` checked as ``kind``: float for a finite number, int for a
    whole number (a whole float becomes an int), str for a non-empty string.
    A bool is none of these."""
    value = raw[key]
    if kind is str:
        ok = isinstance(value, str) and value != ""
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        ok = False
    elif kind is int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        ok = isinstance(value, int)
    else:
        try:
            ok = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            ok = False
    if not ok:
        _fail(f"{where}/{key}", f"{value!r} is not a {_KINDS[kind]}")
    return value


def _build(cls, raw, where: str):
    """``cls`` from the JSON object ``raw``, whose keys are its fields: a field
    without a default is required."""
    fields = dataclasses.fields(cls)
    spec = _object(raw, where, [f.name for f in fields
                                if f.default is dataclasses.MISSING],
                   [f.name for f in fields])
    kinds = _hints(cls)
    try:
        return cls(**{k: _value(spec, k, where, kinds[k]) for k in spec})
    except (ValueError, OverflowError) as exc:
        _fail(where, exc)


def _mw(raw: dict, key: str, where: str) -> float:
    """The dBm field ``key`` in mW."""
    dbm = _value(raw, key, where, float)
    try:
        return db_to_linear(dbm)
    except OverflowError:
        _fail(f"{where}/{key}", f"{dbm!r} dBm overflows in mW")


def _distribution(raw, where: str) -> PowerDistribution:
    # the other keys depend on the family
    family = _value(_object(raw, where, ("family",), None), "family", where, str)
    if family not in _FAMILIES:
        _fail(f"{where}/family", f"{family!r} is not one of {list(_FAMILIES)}")
    cls, *keys = _FAMILIES[family]
    spec = _object(raw, where, ("family", *keys))
    args = [_mw(spec, k, where) if k.endswith("_dbm") else _value(spec, k, where, float)
            for k in keys]
    try:
        return cls(*args)
    except ValueError as exc:
        _fail(where, exc)


def _curve(raw, where: str) -> CurveSpec:
    cv = _object(raw, where, ("label", "desired", "interferers"), ("noise_power_dbm",))
    interferers = _array(cv["interferers"], f"{where}/interferers")
    template = SirScenario(
        desired=_distribution(cv["desired"], f"{where}/desired"),
        interferers=tuple(_distribution(d, f"{where}/interferers/{j}")
                          for j, d in enumerate(interferers)),
        threshold_q=1.0,
        noise_power=(0.0 if cv.get("noise_power_dbm") is None
                     else _mw(cv, "noise_power_dbm", where)))
    return CurveSpec(label=_value(cv, "label", where, str), template=template)


def parse_methods(raw, where: str) -> tuple[str, ...]:
    """The method list: non-empty, no method twice, each one of ``METHODS``."""
    methods = _array(raw, where)
    for i, method in enumerate(methods):
        if method not in METHODS:
            _fail(f"{where}/{i}", f"{method!r} is not one of {list(METHODS)}")
        if method in methods[:i]:
            _fail(f"{where}/{i}", f"{method!r} is listed twice")
    return tuple(methods)


def load_config(path: str | Path) -> RunConfig:
    """Load, check and materialize a run configuration; any violation, e.g. an
    unknown field or Nakagami m < 0.5, raises ConfigError naming the field."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    raw = _object(raw, "", ("curves", "grid", "methods"),
                  ("monte_carlo", "output"))
    curves = tuple(_curve(cv, f"curves/{i}")
                   for i, cv in enumerate(_array(raw["curves"], "curves")))
    labels = [c.label for c in curves]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            _fail(f"curves/{i}/label", f"{label!r} is the label of an earlier curve")
    out = _object(raw.get("output", {}), "output", (), ("path",))
    return RunConfig(
        curves=curves,
        grid=_build(ThresholdGrid, raw["grid"], "grid"),
        methods=parse_methods(raw["methods"], "methods"),
        monte_carlo=_build(MonteCarloConfig, raw.get("monte_carlo", {}), "monte_carlo"),
        output_path=_value(out, "path", "output", str) if "path" in out else None,
    )
