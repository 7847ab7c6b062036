"""Write the reference outputs of the sirspa CLI on the shipped configs.

Usage, from the root of a source tree:

    python3 tools/reference_outputs.py OUTDIR

The tree is the working directory, so one copy of this script serves any
tree, an older one without it too. It runs ``sirspa.cli.main`` in this
process, from that tree's ``src`` and with its ``configs``, for
``outage`` on fig1-fig4, ``capacity`` on rayleigh_pair (with the configured
methods and with ``--method spa,gil_pelaez``), ``compare`` on fig4,
``outage`` on rayleigh_pair with every method (its 0 dB point is a
near-mean ``spa`` row), and three runs that fail points: ``outage`` on fig2
with ``--method closed_form``, ``capacity`` on rayleigh_pair and
``compare`` on fig2, each with ``--method spa,closed_form``. Each run
writes its CSV into OUTDIR through ``--output``, and its stdout, stderr
and exit code beside it, as ``<name>.stdout``, ``<name>.stderr`` and
``<name>.exit``. Nothing is written at the root of the tree. Two trees give
the same outputs when ``diff -r`` finds no difference between their OUTDIRs.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path.cwd()
if not (ROOT / "src" / "sirspa").is_dir():
    sys.exit(f"{ROOT} is not the root of a sirspa source tree")
sys.path.insert(0, str(ROOT / "src"))

import sirspa  # noqa: E402
from sirspa.cli import main  # noqa: E402

# (name, arguments before the config, config, arguments after it)
RUNS = [(f"outage_fig{i}", ["outage"], f"fig{i}", []) for i in range(1, 5)] + [
    ("capacity_rayleigh_pair", ["capacity"], "rayleigh_pair", []),
    ("capacity_rayleigh_pair_spa_gil_pelaez", ["capacity"], "rayleigh_pair",
     ["--method", "spa,gil_pelaez"]),
    ("compare_fig4", ["compare"], "fig4", []),
    ("outage_rayleigh_pair_all_methods", ["outage"], "rayleigh_pair",
     ["--method", "spa,gil_pelaez,monte_carlo,closed_form"]),
    # failure paths: closed_form fails on every fig2 point (Rician signals)
    # and has no capacity
    ("outage_fig2_closed_form", ["outage"], "fig2", ["--method", "closed_form"]),
    ("capacity_rayleigh_pair_spa_closed_form", ["capacity"], "rayleigh_pair",
     ["--method", "spa,closed_form"]),
    ("compare_fig2_spa_closed_form", ["compare"], "fig2", ["--method", "spa,closed_form"]),
]


def run(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    print(f"sirspa from {Path(sirspa.__file__).parent}")
    for name, command, config, extra in RUNS:
        argv = command + [str(ROOT / "configs" / f"{config}.json"),
                          "--output", str(outdir / f"{name}.csv")] + extra
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        for suffix, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                             ("exit", f"{code}\n")):
            (outdir / f"{name}.{suffix}").write_text(text)
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tools/reference_outputs.py OUTDIR")
    run(Path(sys.argv[1]))
