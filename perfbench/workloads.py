"""Seeded workload generator: the CLI invocations and strict-schema configs of one run.

Each workload is a list of invocations of the ``sirspa`` CLI. An invocation
names a subcommand, a ``--method`` list and one generated config. The same
(workload, seed) always yields the same invocations; the program receives
only these configs. Cost-determining structure (number of curves, L per
curve, grid size, sample budgets) is fixed per workload and only the
parameters are drawn, so one seed costs about the same as another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Outage grids stay inside the declared threshold domain.
DOMAIN_DB = (-40.0, 60.0)

WORKLOADS = ("spa-figures", "oracle-figures", "capacity")

# spa-figures: every config holds one curve per L below, so each seed does the
# same amount of composite work (L = 1 .. 16).
SPA_CONFIGS = 6
SPA_LS = (1, 2, 3, 4, 6, 8, 12, 16)
SPA_DESIRED = ("nakagami_m", "rician", "hoyt", "gaussian")
SPA_POINTS = 51
SPA_STEP_DB = 1.8

# oracle-figures: fig1-style configs, five Nakagami interferers per curve.
ORACLE_CONFIGS = 4
ORACLE_L = 5
ORACLE_INTERFERER_M = 0.5
ORACLE_POINTS = 17
ORACLE_STEP_DB = 2.0
ORACLE_MC = {"samples": 100000, "batches": 100}

# capacity: one heavy-tailed scenario per four light-tailed ones.
CAPACITY_LIGHT = 4
CAPACITY_LIGHT_L = 5
CAPACITY_MC = {"samples": 1000000, "batches": 100}
# The heavy-tailed share is the repository's Rayleigh pair (L = 1, m = 1,
# equal powers), held fixed: its Gil-Pelaez capacity jumps between 8 and 13 s
# when the power ratio moves by 1 dB, which would swamp the seed-to-seed spread.
CAPACITY_HEAVY = {
    "desired": {"family": "nakagami_m", "m": 1.0, "mean_power_dbm": 0.0},
    "interferers": [{"family": "nakagami_m", "m": 1.0, "mean_power_dbm": 0.0}],
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``sirspa <command> <config> --method <methods>``."""

    name: str
    command: str
    methods: tuple[str, ...]
    config: dict = field(hash=False)

    def argv(self, config_path: str, output_path: str) -> list[str]:
        return [self.command, config_path, "--output", output_path,
                "--method", ",".join(self.methods)]


def _r(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def _dist(rng: random.Random, family: str, power_dbm: float) -> dict:
    if family == "nakagami_m":
        return {"family": family, "m": _r(rng, 0.5, 4.0), "mean_power_dbm": power_dbm}
    if family == "rician":
        return {"family": family, "r": _r(rng, 0.0, 8.0), "mean_power_dbm": power_dbm}
    if family == "hoyt":
        return {"family": family, "b": _r(rng, -0.9, 0.9), "mean_power_dbm": power_dbm}
    mean_mw = round(10.0 ** (power_dbm / 10.0), 6)
    return {"family": "gaussian", "mean_mw": mean_mw,
            "variance_mw2": round((0.3 * mean_mw) ** 2, 9)}


def closed_form_eligible(curve: dict) -> bool:
    """Exponential (m = 1 Nakagami) signal and Nakagami interferers only."""
    d = curve["desired"]
    return (d["family"] == "nakagami_m" and d["m"] == 1.0
            and all(i["family"] == "nakagami_m" for i in curve["interferers"]))


def _grid(rng: random.Random, points: int, step: float, lo: float, hi: float) -> dict:
    span = step * (points - 1)
    start = _r(rng, lo, min(hi, DOMAIN_DB[1] - span), 2)
    return {"start_db": start, "stop_db": round(start + span, 6), "step_db": step}


def _spa_figures(rng: random.Random) -> list[Invocation]:
    out = []
    for k in range(SPA_CONFIGS):
        ls = list(SPA_LS)
        rng.shuffle(ls)
        desired = [SPA_DESIRED[i % len(SPA_DESIRED)] for i in range(len(ls))]
        rng.shuffle(desired)
        eligible = desired.index("nakagami_m")
        pair = ls.index(1)
        noisy = set(rng.sample([i for i in range(len(ls)) if i != pair], 2))
        curves = []
        for i, (n_int, fam) in enumerate(zip(ls, desired)):
            if i == eligible:
                sig = {"family": "nakagami_m", "m": 1.0,
                       "mean_power_dbm": _r(rng, 0.0, 10.0)}
                ints = [_dist(rng, "nakagami_m", _r(rng, -10.0, 0.0))
                        for _ in range(n_int)]
            else:
                sig = _dist(rng, fam, _r(rng, 0.0, 10.0))
                ints = [_dist(rng, rng.choice(("nakagami_m", "rician", "hoyt")),
                              _r(rng, -10.0, 0.0)) for _ in range(n_int)]
            if i == pair:
                # a symmetric pair puts the grid point at 0 dB on the mean,
                # so the near-mean branch runs
                ints = [dict(sig)]
            curve = {"label": f"c{i}-L{n_int}-{sig['family']}",
                     "desired": sig, "interferers": ints}
            if i in noisy:
                curve["noise_power_dbm"] = _r(rng, -20.0, -5.0)
            curves.append(curve)
        # the grid starts on a multiple of the step, so 0 dB is a grid point
        start = -SPA_STEP_DB * rng.randint(17, 22)
        grid = {"start_db": round(start, 6), "step_db": SPA_STEP_DB,
                "stop_db": round(start + SPA_STEP_DB * (SPA_POINTS - 1), 6)}
        cfg = {"curves": curves, "grid": grid, "methods": ["spa"]}
        out.append(Invocation(f"spa{k}", "outage", ("spa",), cfg))
    return out


def _oracle_figures(rng: random.Random) -> list[Invocation]:
    out = []
    for k in range(ORACLE_CONFIGS):
        # fig1 sweeps the signal's m0 over five m = 0.5 interferers. Config 0
        # holds the closed-form (m0 = 1) curves; the others pair one m0 < 1
        # with one m0 > 1, because gamma sampling costs more below shape 1.
        if k == 0:
            m0s = (1.0, 1.0)
        else:
            m0s = (rng.choice((0.5, 0.75)), rng.choice((1.5, 2.0, 3.0)))
        curves = []
        for i, m0 in enumerate(m0s):
            interferer = {"family": "nakagami_m", "m": ORACLE_INTERFERER_M,
                          "mean_power_dbm": _r(rng, -2.0, 2.0)}
            curves.append({
                "label": f"c{i}-m0={m0:g}",
                "desired": {"family": "nakagami_m", "m": m0,
                            "mean_power_dbm": _r(rng, 3.0, 7.0)},
                "interferers": [dict(interferer) for _ in range(ORACLE_L)],
            })
        methods = ("gil_pelaez", "monte_carlo")
        if all(closed_form_eligible(c) for c in curves):
            methods += ("closed_form",)
        cfg = {"curves": curves,
               "grid": _grid(rng, ORACLE_POINTS, ORACLE_STEP_DB, -12.0, -8.0),
               "methods": list(methods),
               "monte_carlo": dict(ORACLE_MC, seed=rng.randrange(2 ** 31))}
        out.append(Invocation(f"oracle{k}", "outage", methods, cfg))
    return out


def _capacity(rng: random.Random) -> list[Invocation]:
    curves = [dict(CAPACITY_HEAVY, label="heavy-rayleigh-pair")]
    families = ("nakagami_m", "rician", "hoyt")
    for i in range(CAPACITY_LIGHT):
        # the first light scenario is closed-form eligible
        if i == 0:
            sig = {"family": "nakagami_m", "m": 1.0, "mean_power_dbm": _r(rng, 3.0, 8.0)}
            ints = [_dist(rng, "nakagami_m", _r(rng, -3.0, 0.0))
                    for _ in range(CAPACITY_LIGHT_L)]
        else:
            sig = _dist(rng, rng.choice(families), _r(rng, 3.0, 8.0))
            ints = [_dist(rng, rng.choice(families), _r(rng, -3.0, 0.0))
                    for _ in range(CAPACITY_LIGHT_L)]
        curves.append({"label": f"light{i}-{sig['family']}",
                       "desired": sig, "interferers": ints})
    methods = ("spa", "gil_pelaez", "monte_carlo")
    cfg = {"curves": curves,
           # capacity ignores the grid; the schema requires one
           "grid": {"start_db": 0.0, "stop_db": 0.0, "step_db": 1.0},
           "methods": list(methods),
           "monte_carlo": dict(CAPACITY_MC, seed=rng.randrange(2 ** 31))}
    return [Invocation("capacity0", "capacity", methods, cfg)]


_GENERATORS = {
    "spa-figures": _spa_figures,
    "oracle-figures": _oracle_figures,
    "capacity": _capacity,
}


def generate(workload: str, seed: int) -> list[Invocation]:
    """The invocations of ``workload`` for ``seed``; deterministic in both."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def expected_rows(inv: Invocation) -> int:
    """Result rows the CLI writes for one invocation when nothing fails."""
    curves = len(inv.config["curves"])
    if inv.command == "capacity":
        return curves * sum(m != "closed_form" for m in inv.methods)
    g = inv.config["grid"]
    points = int((g["stop_db"] - g["start_db"]) / g["step_db"] + 1e-9) + 1
    return curves * points * len(inv.methods)
