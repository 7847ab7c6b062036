"""Output checks on the CLI's CSVs, against references the benchmark computes itself.

The references are the exponential-signal closed form and its capacity
integral, written here independently of the program. A row fails when it
errored, is missing, lies outside [0, 1], breaks monotonicity in q, or
disagrees with a reference by more than the method's own tolerance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from workloads import Invocation, closed_form_eligible, expected_rows

# Monte Carlo may sit this many standard errors from a reference.
MC_STD_ERRORS = 5.0
# Largest |SPA - exact| accepted as a sanity band; the documented
# Lugannani-Rice method error is up to ~2e-2, and compare's breakdown bound
# is 5e-2. Tighter accuracy is reported as a metric, not checked.
SPA_OUTAGE_BAND = 5e-2
SPA_CAPACITY_BAND = 2e-2
# Float slack for closed-form rows and SPA monotonicity.
EXACT_SLACK = 1e-12
# Capacity quadrature tolerances of ``ergodic_capacity`` (epsabs, epsrel) and
# the widest capacity range it integrates (c_max <= 64).
CAP_EPSABS, CAP_EPSREL, CAP_C_MAX = 1e-9, 1e-8, 64.0
QUAD_DEFAULTS = {"rel_tol": 1e-9, "abs_tol": 1e-12}


def mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def _rates(curve: dict):
    d = curve["desired"]
    lam0 = d["m"] / mw(d["mean_power_dbm"])
    ints = [(i["m"], i["m"] / mw(i["mean_power_dbm"])) for i in curve["interferers"]]
    noise_dbm = curve.get("noise_power_dbm")
    n0 = mw(noise_dbm) if noise_dbm is not None else 0.0
    return lam0, ints, n0


def log_success_exact(curve: dict, q):
    """log Pr(S > q (I + N0)) for an exponential signal and gamma interferers."""
    lam0, ints, n0 = _rates(curve)
    q = np.asarray(q, dtype=float)
    log_s = -lam0 * q * n0
    for m, lam in ints:
        log_s = log_s - m * np.log1p(q * lam0 / lam)
    return log_s


def outage_exact(curve: dict, q: float) -> float:
    return float(-np.expm1(log_success_exact(curve, q)))


def capacity_exact(curve: dict) -> float:
    """E[log2(1 + SINR)] = (1/ln 2) * int_0^inf Pr(SINR > q) / (1 + q) dq.

    With q = e^u the integrand is analytic in a strip of half-width pi
    around the real axis and decays at both ends, so the trapezoid rule
    on u converges geometrically; h = 0.05 leaves an error far below 1e-12.
    """
    u = np.arange(-60.0, 160.0, 0.05)
    q = np.exp(u)
    f = np.exp(log_success_exact(curve, q)) * q / (1.0 + q)
    return float(np.sum(f) * 0.05 / math.log(2.0))


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    spa_outage_max_abs_err: float | None = None
    spa_capacity_max_abs_err: float | None = None

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)

    def merge_max(self, attr: str, value: float) -> None:
        cur = getattr(self, attr)
        setattr(self, attr, value if cur is None else max(cur, value))


def _float(text: str) -> float:
    return float(text) if text != "" else math.nan


def _gp_tol(quad: dict, p: float, err: float) -> float:
    return max(quad["abs_tol"], quad["rel_tol"] * max(abs(p), 1e-3)) + err


def _mc_tol(p_ref: float, se: float, samples: int) -> float:
    floor = math.sqrt(max(p_ref * (1.0 - p_ref), 1.0 / samples) / samples)
    return MC_STD_ERRORS * max(se, floor)


def check_outage(inv: Invocation, rows: list[dict], res: CheckResult) -> None:
    curves = {c["label"]: c for c in inv.config["curves"]}
    quad = dict(QUAD_DEFAULTS, **inv.config.get("quadrature", {}))
    samples = inv.config.get("monte_carlo", {}).get("samples", 10 ** 6)
    groups: dict[tuple[str, str], list[dict]] = {}
    for r in rows:
        groups.setdefault((r["curve"], r["method"]), []).append(r)
    for (label, method), grp in groups.items():
        curve = curves.get(label)
        if curve is None or method not in inv.methods:
            res.fail(len(grp), f"{inv.name}: unexpected rows {label}/{method}")
            continue
        eligible = closed_form_eligible(curve)
        gp_rows = {r["q_db"]: r for r in groups.get((label, "gil_pelaez"), [])}
        prev = None
        for r in grp:
            p = _float(r["p_out"])
            err = _float(r["error_estimate"]) if r["error_estimate"] else 0.0
            q = float(r["q_linear"])
            where = f"{inv.name} {label} {method} q_db={r['q_db']}"
            if not 0.0 <= p <= 1.0:
                res.fail(1, f"{where}: p={p} outside [0, 1]")
                prev = None
                continue
            if method == "gil_pelaez":
                tol = _gp_tol(quad, p, err)
            elif method == "monte_carlo":
                tol = 0.0  # common samples across q make MC exactly monotone
            else:
                tol = EXACT_SLACK
            if prev is not None and p < prev[0] - prev[1] - tol:
                res.fail(1, f"{where}: p={p!r} below previous {prev[0]!r}")
                prev = (p, tol)
                continue
            prev = (p, tol)
            ref = outage_exact(curve, q) if eligible else None
            if method == "spa" and ref is not None:
                dev = abs(p - ref)
                res.merge_max("spa_outage_max_abs_err", dev)
                if dev > SPA_OUTAGE_BAND:
                    res.fail(1, f"{where}: |spa - exact| = {dev:.3e}")
            elif method == "gil_pelaez" and ref is not None:
                if abs(p - ref) > tol:
                    res.fail(1, f"{where}: |gp - exact| = {abs(p - ref):.3e} > {tol:.3e}")
            elif method == "closed_form":
                if ref is None or abs(p - ref) > EXACT_SLACK:
                    res.fail(1, f"{where}: closed form {p!r} vs {ref!r}")
            elif method == "monte_carlo":
                gp = gp_rows.get(r["q_db"])
                if ref is None and gp is not None:
                    p_gp = _float(gp["p_out"])
                    ref_tol = _gp_tol(quad, p_gp, _float(gp["error_estimate"] or "0"))
                    ref = p_gp
                else:
                    ref_tol = 0.0
                if ref is not None and abs(p - ref) > _mc_tol(ref, err, samples) + ref_tol:
                    res.fail(1, f"{where}: |mc - ref| = {abs(p - ref):.3e}, se={err:.2e}")


def check_capacity(inv: Invocation, rows: list[dict], res: CheckResult) -> None:
    curves = {c["label"]: c for c in inv.config["curves"]}
    by_curve: dict[str, dict[str, tuple[float, float]]] = {}
    for r in rows:
        by_curve.setdefault(r["curve"], {})[r["method"]] = (
            _float(r["capacity_bits"]), _float(r["error_estimate"]))
    for label, per_method in by_curve.items():
        curve = curves.get(label)
        if curve is None:
            res.fail(len(per_method), f"{inv.name}: unexpected curve {label}")
            continue
        exact = capacity_exact(curve) if closed_form_eligible(curve) else None
        for method, (cap, err) in per_method.items():
            where = f"{inv.name} {label} {method}"
            if not (math.isfinite(cap) and cap >= 0.0):
                res.fail(1, f"{where}: capacity {cap}")
                continue
            if method == "spa":
                if exact is not None:
                    dev = abs(cap - exact)
                    res.merge_max("spa_capacity_max_abs_err", dev)
                    if dev > SPA_CAPACITY_BAND:
                        res.fail(1, f"{where}: |spa - exact| = {dev:.3e}")
                continue
            if method == "gil_pelaez":
                if exact is not None:
                    tol = err + CAP_EPSABS + CAP_EPSREL * exact + CAP_C_MAX * QUAD_DEFAULTS["rel_tol"]
                    if abs(cap - exact) > tol:
                        res.fail(1, f"{where}: |gp - exact| = {abs(cap - exact):.3e} > {tol:.3e}")
                continue
            ref = exact if exact is not None else per_method.get("gil_pelaez", (None,))[0]
            if ref is not None and abs(cap - ref) > MC_STD_ERRORS * err:
                res.fail(1, f"{where}: |mc - ref| = {abs(cap - ref):.3e}, se={err:.2e}")


def check_invocation(inv: Invocation, csv_path: str, exit_code: int,
                     res: CheckResult) -> None:
    expected = expected_rows(inv)
    res.attempted += expected
    if exit_code != 0:
        res.fail(expected, f"{inv.name}: CLI exit code {exit_code}")
        return
    try:
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        res.fail(expected, f"{inv.name}: no output ({exc})")
        return
    if len(rows) != expected:
        res.fail(max(expected - len(rows), 0) or expected,
                 f"{inv.name}: {len(rows)} rows, expected {expected}")
        return
    if inv.command == "capacity":
        check_capacity(inv, rows, res)
    else:
        check_outage(inv, rows, res)
