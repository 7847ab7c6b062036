"""Write the reference outputs of the sirspa CLI on the shipped configs.

Usage, from the root of a source tree:

    python3 tools/reference_outputs.py OUTDIR

The tree is the working directory, so one copy of this script serves any
tree, an older one without it too. It runs ``sirspa.cli.main`` in this
process, from that tree's ``src`` and with its ``configs``, for
``outage`` on fig1-fig4, ``capacity`` on rayleigh_pair (with the configured
methods and with ``--method spa,gil_pelaez``), ``compare`` on fig4,
``compare`` on fig3 with ``--method spa,gil_pelaez`` (two curves exceed
the fixed bound, so it exits 3), ``outage`` on rayleigh_pair with every
method (its 0 dB point is a near-mean ``spa`` row), three runs that fail
points: ``outage`` on fig2
with ``--method closed_form``, ``capacity`` on rayleigh_pair and
``compare`` on fig2, each with ``--method spa,closed_form``, ``outage``
with ``spa`` on a Rician signal under Gaussian-family interferers beside
gamma and noncentral ones, and three runs at the edges of what can be
placed: ``outage`` with ``spa,gil_pelaez,closed_form`` on the Rayleigh pair
and a -1540 dBm signal from 1525 to 1550 dB, the same on a -2000 dBm
interferer around -1500 dB, and ``compare`` on the Rayleigh pair from 1525
to 1550 dB with ``--method monte_carlo,closed_form``, and two more:
``outage`` with ``spa,gil_pelaez`` around 0 dB on a -1700 dBm signal under
a Gaussian-family interferer whose (s*t)**2 overflows at the root,
``compare`` on the -1540 dBm signal from 1525 to 1550 dB with ``--method
monte_carlo,closed_form``, where q times the signal's rate overflows, and
``outage`` with ``spa,gil_pelaez,closed_form`` from 3070 to 3080 dB on a
-3000 dBm interferer with N0 = 10 mW, where x = -q * N0 overflows.
Each config that is not shipped is written into OUTDIR as ``<name>.json``.
Each run writes its CSV into OUTDIR through ``--output``, and its stdout,
stderr and exit code beside it, as ``<name>.stdout``, ``<name>.stderr``
and ``<name>.exit``; ``versions.txt`` names the Python and numpy that ran.
Nothing is written at the root of the tree. Two trees give the same
outputs when ``diff -r`` finds no difference between their OUTDIRs.

    python3 tools/reference_outputs.py OUTDIR --against OLDDIR

compares two such directories instead of writing one, and needs no source
tree; it prints nothing when every file is the same, byte for byte. For
each CSV table that differs (the ``.csv`` files, and ``compare``'s table on
stdout) and each method in it, it prints how many rows differ and the
largest |difference| of each value column (``p_out``, ``capacity_bits``,
``max_abs_dev``, ``mean_abs_dev``, ``error_estimate``, and the solve's
``t_hat`` and ``iterations``); rows are matched by position. Any other
file that differs is named.

``tests/reference`` holds this tree's outputs, and a tier-1 test compares
a new run with them through ``against``. After a change that is meant to
move them, rewrite them with

    python3 tools/reference_outputs.py tests/reference
"""

import contextlib
import csv
import io
import json
import math
import platform
import sys
from pathlib import Path

ROOT = Path.cwd()
VALUES = ("p_out", "capacity_bits", "max_abs_dev", "mean_abs_dev", "error_estimate",
          "t_hat", "iterations")

# Gaussian-family interferers beside gamma and noncentral ones, where the
# two-pole start decides how many Newton steps a point takes: with their
# slope on the signal's side, the 10 dB point once took 73, which the one
# fixed budget of 200 rounds holds with no retry (it takes at most 5 now)
GAUSSIAN_MIX = {
    "curves": [{
        "label": "g",
        "desired": {"family": "rician", "r": 2.415, "mean_power_dbm": 8.08},
        "interferers": [
            {"family": "gaussian", "mean_mw": 0.5638, "variance_mw2": 0.03572},
            {"family": "nakagami_m", "m": 0.6348, "mean_power_dbm": -3.517},
            {"family": "rician", "r": 1.2254, "mean_power_dbm": -8.516},
            {"family": "gaussian", "mean_mw": 0.14388, "variance_mw2": 0.09993},
        ],
    }],
    "grid": {"start_db": -10.0, "stop_db": 10.0, "step_db": 1.0},
    "methods": ["spa"],
}


def _nakagami(m, dbm):
    return {"family": "nakagami_m", "m": m, "mean_power_dbm": dbm}


# Thresholds at the edge of what can be placed: the Rayleigh pair's
# cumulants overflow from 1545 dB on, and the -1540 dBm signal's Gil-Pelaez
# ladder runs to u ~ 1e307, past which u is inf
PLACEMENT_EDGES = {
    "curves": [
        {"label": "rayleigh-pair", "desired": _nakagami(1.0, 0.0),
         "interferers": [_nakagami(1.0, 0.0)]},
        {"label": "signal-1540dBm", "desired": _nakagami(1.0, -1540.0),
         "interferers": [_nakagami(2.0, -10.0)]},
    ],
    "grid": {"start_db": 1525.0, "stop_db": 1550.0, "step_db": 5.0},
    "methods": ["spa", "gil_pelaez", "closed_form"],
    "monte_carlo": {"samples": 2000, "seed": 1, "batches": 4},
}

# A -2000 dBm interferer whose scale q * s rounds to 0: K' < 0 = x on the
# whole strip (-1, inf), so spa has no saddle point
ZERO_SCALE_INTERFERER = {
    "curves": [{"label": "zero-scale", "desired": _nakagami(1.0, 0.0),
                "interferers": [_nakagami(1.0, -2000.0)]}],
    "grid": {"start_db": -1510.0, "stop_db": -1490.0, "step_db": 5.0},
    "methods": ["spa", "gil_pelaez", "closed_form"],
}

# A Gaussian-family interferer whose (s*t)**2 overflows at the root near
# 0 dB, although its share of K does not
QUADRATIC_OVERFLOW = {
    "curves": [{"label": "quadratic-overflow", "desired": _nakagami(1.0, -1700.0),
                "interferers": [{"family": "gaussian", "mean_mw": 1e-160, "variance_mw2": 1e-321},
                                _nakagami(1.0, -1500.0)]}],
    "grid": {"start_db": -2.0, "stop_db": 2.0, "step_db": 1.0},
    "methods": ["spa", "gil_pelaez"],
}

# x = -q * N0 is -1e308 at 3070 dB and overflows to -inf from 3075 dB on.
# Gil-Pelaez's integrals are NaN there, and each fails after its first pass
NOISE_OVERFLOW = {
    "curves": [{"label": "noise-overflow", "desired": _nakagami(1.0, 0.0),
                "interferers": [_nakagami(1.0, -3000.0)], "noise_power_dbm": 10.0}],
    "grid": {"start_db": 3070.0, "stop_db": 3080.0, "step_db": 5.0},
    "methods": ["spa", "gil_pelaez", "closed_form"],
}

# (name, arguments before the config, a shipped config's name or a config
# to write, arguments after it)
RUNS = [(f"outage_fig{i}", ["outage"], f"fig{i}", []) for i in range(1, 5)] + [
    ("capacity_rayleigh_pair", ["capacity"], "rayleigh_pair", []),
    ("capacity_rayleigh_pair_spa_gil_pelaez", ["capacity"], "rayleigh_pair",
     ["--method", "spa,gil_pelaez"]),
    ("compare_fig4", ["compare"], "fig4", []),
    # b0 = 0.6 and 0.9 deviate by 1.4e-2 and 1.8e-2, past the bound 1e-2
    ("compare_fig3", ["compare"], "fig3", ["--method", "spa,gil_pelaez"]),
    ("outage_rayleigh_pair_all_methods", ["outage"], "rayleigh_pair",
     ["--method", "spa,gil_pelaez,monte_carlo,closed_form"]),
    # failure paths: closed_form fails on every fig2 point (Rician signals)
    # and has no capacity
    ("outage_fig2_closed_form", ["outage"], "fig2", ["--method", "closed_form"]),
    ("capacity_rayleigh_pair_spa_closed_form", ["capacity"], "rayleigh_pair",
     ["--method", "spa,closed_form"]),
    ("compare_fig2_spa_closed_form", ["compare"], "fig2", ["--method", "spa,closed_form"]),
    ("outage_gaussian_mix", ["outage"], GAUSSIAN_MIX, []),
    ("outage_placement_edges", ["outage"], PLACEMENT_EDGES, []),
    ("outage_zero_scale_interferer", ["outage"], ZERO_SCALE_INTERFERER, []),
    ("compare_placement_edges", ["compare"],
     dict(PLACEMENT_EDGES, curves=PLACEMENT_EDGES["curves"][:1]),
     ["--method", "monte_carlo,closed_form"]),
    ("outage_quadratic_overflow", ["outage"], QUADRATIC_OVERFLOW, []),
    ("compare_closed_form_overflow", ["compare"],
     dict(PLACEMENT_EDGES, curves=PLACEMENT_EDGES["curves"][1:]),
     ["--method", "monte_carlo,closed_form"]),
    ("outage_noise_overflow", ["outage"], NOISE_OVERFLOW, []),
]


def run(outdir: Path) -> None:
    if not (ROOT / "src" / "sirspa").is_dir():
        sys.exit(f"{ROOT} is not the root of a sirspa source tree")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import sirspa
    from sirspa.cli import main

    outdir.mkdir(parents=True, exist_ok=True)
    print(f"sirspa from {Path(sirspa.__file__).parent}")
    (outdir / "versions.txt").write_text(
        f"python {platform.python_version()}\nnumpy {numpy.__version__}\n")
    for name, command, config, extra in RUNS:
        if isinstance(config, dict):
            path = outdir / f"{name}.json"
            path.write_text(json.dumps(config, indent=2) + "\n")
        else:
            path = ROOT / "configs" / f"{config}.json"
        argv = command + [str(path), "--output", str(outdir / f"{name}.csv")] + extra
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        for suffix, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                             ("exit", f"{code}\n")):
            (outdir / f"{name}.{suffix}").write_text(text)
        print(f"{name}: exit {code}")


def _table(path: Path):
    """The rows of a CSV table as dicts, or None for any other file."""
    text = path.read_text()
    return list(csv.DictReader(io.StringIO(text))) if text.startswith("curve,") else None


def _method(row: dict) -> str:
    return row["method"] if "method" in row else f"{row['method_a']},{row['method_b']}"


def _delta(old: str, new: str) -> float:
    if old == new:
        return 0.0
    try:
        d = abs(float(new) - float(old))
    except ValueError:  # an empty field on one side only
        return math.inf
    return math.inf if math.isnan(d) else d


def against(newdir: Path, olddir: Path) -> list[str]:
    """One line for each file of either directory that is not the same,
    byte for byte, in the other; none when the two are the same."""
    lines = []
    names = sorted({p.name for p in newdir.iterdir()} | {p.name for p in olddir.iterdir()})
    for name in names:
        new, old = newdir / name, olddir / name
        if not (new.is_file() and old.is_file()):
            lines.append(f"{name}: only in {newdir if new.is_file() else olddir}")
            continue
        if new.read_bytes() == old.read_bytes():
            continue
        rows_new, rows_old = _table(new), _table(old)
        if rows_new is None or rows_old is None or len(rows_new) != len(rows_old):
            lines.append(f"{name}: differs")
            continue
        methods: dict[str, list] = {}
        for a, b in zip(rows_old, rows_new):
            counts = methods.setdefault(_method(a), [0, 0, {}])
            counts[0] += 1
            counts[1] += a != b
            for col in VALUES:
                if col in a:
                    counts[2][col] = max(counts[2].get(col, 0.0), _delta(a[col], b.get(col, "")))
        for method, (rows, differ, deltas) in methods.items():
            largest = ", ".join(f"{col} {d:.3g}" for col, d in deltas.items())
            lines.append(f"{name} {method}: {differ} of {rows} rows differ; "
                         f"max |delta| {largest}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[2] == "--against":
        for line in against(Path(sys.argv[1]), Path(sys.argv[3])):
            print(line)
    elif len(sys.argv) == 2:
        run(Path(sys.argv[1]))
    else:
        sys.exit("usage: python3 tools/reference_outputs.py OUTDIR [--against OLDDIR]")
