"""Command-line front end: outage curves, ergodic capacity, method comparison.

Exit codes: 0 ok, 1 config error, 2 numerical failure, 3 comparison bound
exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from dataclasses import replace

import numpy as np

from .analysis import OutageResult, ergodic_capacity, monte_carlo_capacity, outage_curve
from .config import RunConfig, load_config, parse_methods
from .exceptions import ConfigError, SirspaError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_COMPARE = 3

OUTAGE_HEADER = ("curve,q_db,q_linear,method,p_out,t_hat,iterations,"
                 "near_mean,clamped,error_estimate")
CAPACITY_HEADER = "curve,capacity_bits,method,error_estimate"
# compare's bound on |p1 - p2|, acceptance criterion 4's: at every point, in
# the breakdown band (where Lugannani-Rice is least accurate), and in Monte
# Carlo standard errors
_BOUND = 1e-2
_BREAKDOWN_BOUND = 5e-2
_MC_STD_ERRORS = 4.0


def _outage_row(label: str, r: OutageResult) -> str:
    """The CSV row of ``r``: floats as their repr, ints as they are, bools as
    true/false and None as an empty field."""
    return (f"{label},{r.q_db!r},{r.q_linear!r},{r.method},{r.p_out!r},"
            f"{'' if r.t_hat is None else repr(r.t_hat)},"
            f"{'' if r.iterations is None else r.iterations},"
            f"{'true' if r.near_mean else 'false'},{'true' if r.clamped else 'false'},"
            f"{'' if r.error_estimate is None else repr(r.error_estimate)}")


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _run_curves(cfg: RunConfig) -> dict[str, dict[str, list[OutageResult]]]:
    """label -> method -> per-grid-point results, one ``outage_curve`` each.
    No point is retried: the saddle solve and the Gil-Pelaez quadrature each
    have one fixed budget, and a failed point keeps its error."""
    return {curve.label: {method: outage_curve(curve.template, cfg.grid, method,
                                               cfg.monte_carlo)
                          for method in cfg.methods}
            for curve in cfg.curves}


def _report_failures(by_curve: dict[str, dict[str, list[OutageResult]]]) -> bool:
    """Print a ``FAILED`` line on stderr for each failed grid point; whether
    any point failed."""
    failed = [f"FAILED {label} {r.method} q_db={r.q_db:g}: {r.error}"
              for label, per_method in by_curve.items()
              for results in per_method.values() for r in results if r.error]
    for line in failed:
        print(line, file=sys.stderr)
    return bool(failed)


def _deviations(per_method: dict[str, list[OutageResult]], methods):
    """Each pair (m1, m2) of ``methods``, in order, with (|p1 - p2|, r1, r2)
    at each grid point."""
    for i, m1 in enumerate(methods):
        for m2 in methods[i + 1:]:
            yield m1, m2, [(abs(r1.p_out - r2.p_out), r1, r2)
                           for r1, r2 in zip(per_method[m1], per_method[m2])]


def cmd_outage(cfg: RunConfig) -> int:
    by_curve = _run_curves(cfg)
    lines = [OUTAGE_HEADER]
    for label, per_method in by_curve.items():
        for results in per_method.values():
            lines.extend(_outage_row(label, r) for r in results)
    _write_lines(cfg.output_path, lines)
    # the largest deviation at a point where neither method failed; the first wins
    worst = max(((dev, m1, m2, r1.q_db) for per_method in by_curve.values()
                 for m1, m2, devs in _deviations(per_method, sorted(per_method))
                 for dev, r1, r2 in devs if not (r1.error or r2.error)),
                key=lambda w: w[0], default=None)
    if worst:
        print(f"max cross-method deviation: {worst[0]:.6g} "
              f"({worst[1]} vs {worst[2]} at q_db={worst[3]:g})")
    return EXIT_NUMERICAL if _report_failures(by_curve) else EXIT_OK


def cmd_capacity(cfg: RunConfig) -> int:
    lines = [CAPACITY_HEADER]
    code = EXIT_OK
    for curve in cfg.curves:
        for method in cfg.methods:
            try:
                if method == "monte_carlo":
                    cap, err = monte_carlo_capacity(curve.template, cfg.monte_carlo)
                else:
                    cap, err = ergodic_capacity(curve.template, method)
            except SirspaError as exc:
                print(f"FAILED {curve.label} {method}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                code = EXIT_NUMERICAL
                continue
            lines.append(f"{curve.label},{cap!r},{method},{err!r}")
            print(f"{curve.label} {method}: {cap:.6f} bits/s/Hz")
    _write_lines(cfg.output_path, lines)
    return code


def _in_breakdown(template, qs: list[float]) -> list[bool]:
    """Whether x = 0 lies in the breakdown band, within 0.05 standard
    deviations of the mean, at each threshold of ``qs``: one block of the
    scenario. A threshold that cannot be placed (its cumulants overflow or
    its variance underflows) lies outside the band."""
    blk = template.block(qs)
    return (blk.finite & (np.abs(blk.mean) < 0.05 * np.sqrt(blk.variance))).tolist()


def cmd_compare(cfg: RunConfig) -> int:
    """Each pair of methods per curve, with its largest and mean |p1 - p2|
    and whether every point is within its bound: ``_BOUND``, widened to
    ``_BREAKDOWN_BOUND`` in the breakdown band and, against ``monte_carlo``,
    to ``_MC_STD_ERRORS`` standard errors. Exits 3 if any pair is not."""
    if len(cfg.methods) < 2:
        print("compare needs at least 2 methods", file=sys.stderr)
        return EXIT_CONFIG
    by_curve = _run_curves(cfg)
    if _report_failures(by_curve):
        return EXIT_NUMERICAL
    exceeded = False
    print("curve,method_a,method_b,max_abs_dev,mean_abs_dev,bound,ok")
    for curve in cfg.curves:
        per_method = by_curve[curve.label]
        in_breakdown = _in_breakdown(curve.template,
                                     [r.q_linear for r in per_method[cfg.methods[0]]])
        for m1, m2, pair in _deviations(per_method, cfg.methods):
            devs, bounds = [], []
            for (dev, r1, r2), breakdown in zip(pair, in_breakdown):
                bound = _BREAKDOWN_BOUND if breakdown else _BOUND
                if "monte_carlo" in (m1, m2):
                    se = (r1.error_estimate if m1 == "monte_carlo"
                          else r2.error_estimate) or 0.0
                    bound = max(bound, _MC_STD_ERRORS * se)
                devs.append(dev)
                bounds.append(bound)
            ok = all(d <= b for d, b in zip(devs, bounds))
            if not ok:
                exceeded = True
            # the bound of the point nearest to failing, or farthest past it
            worst = max(range(len(devs)), key=lambda i: devs[i] - bounds[i])
            print(f"{curve.label},{m1},{m2},{max(devs)!r},{sum(devs) / len(devs)!r},"
                  f"{bounds[worst]!r},{'true' if ok else 'false'}")
    return EXIT_COMPARE if exceeded else EXIT_OK


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """The config with the command-line overrides applied; an override the
    config reader would reject in a file raises ``ConfigError``."""
    if args.output is not None:
        cfg = dataclasses.replace(cfg, output_path=args.output)
    if args.seed is not None:
        try:
            cfg = dataclasses.replace(
                cfg, monte_carlo=replace(cfg.monte_carlo, seed=args.seed))
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    if args.method is not None:
        methods = [m.strip() for m in args.method.split(",") if m.strip()]
        cfg = dataclasses.replace(cfg, methods=parse_methods(methods, "--method"))
    return cfg


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="sirspa",
        description="SIR/SINR outage probability via saddlepoint approximation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("outage", "outage probability over a threshold grid"),
        ("capacity", "ergodic capacity per scenario"),
        ("compare", "cross-method deviation report"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="JSON run configuration")
        p.add_argument("--output", help="output file path (default from config)")
        p.add_argument("--seed", type=int, help="Monte Carlo seed override")
        p.add_argument("--method", help="comma-separated method override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "outage":
            return cmd_outage(cfg)
        if args.command == "capacity":
            return cmd_capacity(cfg)
        return cmd_compare(cfg)
    except SirspaError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
