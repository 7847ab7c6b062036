"""sirspa benchmark: run one seeded workload through the CLI and report its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload spa-figures --seed 1 --seconds 30 --trace 0

Each run generates the workload's configs from ``--seed``, starts fresh
single-threaded interpreters with ``src`` on PYTHONPATH (set-up is timed in
five of them), runs the CLI invocations in the third one in a closed loop
for ``--seconds``, checks every output row against the benchmark's own
references, and prints one ``name value unit`` line per metric followed by
a JSON object as the last line. ``--trace 1`` runs one untraced and two
traced passes instead and reports the per-layer metrics. The exit code is 0
when every check passes, 1 when one fails, and 2 when the run could not be
made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
# set-up is sampled in fresh interpreters before and after the worker, and
# in the worker itself, so its median spans the whole run
SETUP_PROBES = 2
# every child must end well inside the run's 180 s limit
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
INFO_UNITS = {  # printed as lines; not part of the JSON contract
    "failed_frac": "fraction",
    "spa_outage_max_abs_err": "probability",
    "spa_capacity_max_abs_err": "bit/s/Hz",
    "passes": "count",
}


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in the order they are reported."""
    units = {}
    for name in PER_LAYER:
        if name.endswith(("_s", ".s")):
            units[name] = "s"
        elif name.endswith("_frac"):
            units[name] = "fraction"
        elif name.endswith(("_per_solve", "_per_ccdf")):
            units[name] = "ratio"
        elif name.endswith("ns_per_sample"):
            units[name] = "ns"
        elif name.startswith("accuracy.spa_capacity"):
            units[name] = "bit/s/Hz"
        elif name.startswith("accuracy."):
            units[name] = "probability"
        else:
            units[name] = "count"
    return units


PER_LAYER = [
    "cli.invocations", "cli.retried_curves", "cli.write_s",
    "config.load_config.calls", "config.load_config.s",
    "import.numpy_s", "import.scipy_s", "import.jsonschema_s", "import.sirspa_s",
    "import.total_s",
    "analysis.outage_curve.calls", "analysis.outage_curve.points", "analysis.outage_curve.s",
    "analysis.ergodic_capacity.calls", "analysis.ergodic_capacity.s",
    "analysis.ergodic_capacity.integrand_evals",
    "analysis.monte_carlo_capacity.calls", "analysis.monte_carlo_capacity.s",
    "composite.build_composite.calls", "composite.build_composite.s",
    "composite.cgf_evals", "composite.cgf_terms", "composite.cgf_eval.s",
    "composite.cf.calls", "composite.cf.nodes", "composite.cf.s",
    "saddlepoint.solve_saddle.calls", "saddlepoint.solve_saddle.s",
    "saddlepoint.iterations", "saddlepoint.iterations_per_solve",
    "saddlepoint.cgf_evals_per_solve", "saddlepoint.ccdf.calls", "saddlepoint.ccdf.s",
    "saddlepoint.solves_per_ccdf", "saddlepoint.near_mean_frac",
    "saddlepoint.clamped_frac", "saddlepoint.errors",
    "oracles.gil_pelaez_ccdf.calls", "oracles.gil_pelaez_ccdf.s",
    "oracles.gil_pelaez_ccdf.errors", "oracles.gp.panels", "oracles.gp.panels_per_call_max",
    "oracles.monte_carlo_outage.calls", "oracles.monte_carlo_outage.s",
    "oracles.mc.samples", "oracles.mc.ns_per_sample",
    "oracles.exponential_signal_closed_form.calls",
    "oracles.exponential_signal_closed_form.s",
    "fading.sample.calls", "fading.sample.draws", "fading.sample.s",
    "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s", "trace.spans",
    "accuracy.spa_outage_max_abs_err", "accuracy.spa_capacity_max_abs_err",
]


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def start_worker(root: Path, plan_path: Path, mode: str, extra: list[str]):
    """Start a worker; return it with its set-up time (spawn to ``ready``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
           "--mode", mode] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        _, err = finish(proc)
        raise BenchError(f"worker did not start: {line.strip()} {err.strip()[-2000:]}")
    return proc, setup


def setup_probe(root: Path, plan_path: Path) -> float:
    proc, setup = start_worker(root, plan_path, "setup", [])
    finish(proc)
    if proc.returncode != 0:
        raise BenchError("set-up interpreter failed")
    return setup


def finish(proc) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded its time limit") from None


def import_times(root: Path) -> dict[str, float]:
    """Median over three fresh interpreters of ``-X importtime`` per package."""
    samples = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sirspa.cli"],
                              cwd=root, env=child_env(root), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"importing sirspa.cli failed: {proc.stderr[-2000:]}")
        samples.append(tracing.import_breakdown(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def write_plan(invs, workdir: Path) -> Path:
    plan = []
    for inv in invs:
        cfg = workdir / f"{inv.name}.json"
        csv = workdir / f"{inv.name}.csv"
        cfg.write_text(json.dumps(inv.config, indent=1))
        plan.append({"name": inv.name, "config": str(cfg), "csv": str(csv),
                     "argv": inv.argv(str(cfg), str(csv))})
    path = workdir / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def bench(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (root / "src" / "sirspa" / "cli.py").is_file():
        raise BenchError(f"no sirspa sources under {root / 'src'}")
    invs = workloads.generate(workload, seed)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=out_dir))
    try:
        plan_path = write_plan(invs, workdir)
        setups = [setup_probe(root, plan_path) for _ in range(SETUP_PROBES)]
        extra = ["--seconds", str(seconds)]
        if trace:
            extra += ["--spans", str(out_dir / f"spans-{workload}-{seed}.csv")]
        proc, setup = start_worker(root, plan_path, "trace" if trace else "run", extra)
        setups.append(setup)
        stdout, stderr = finish(proc)
        if proc.returncode != 0:
            raise BenchError(f"worker failed: {stderr.strip()[-2000:]}")
        setups += [setup_probe(root, plan_path) for _ in range(SETUP_PROBES)]
        result = json.loads(stdout.strip().splitlines()[-1])
        if not Path(result["sirspa"]).resolve().is_relative_to(root / "src"):
            raise BenchError(f"imported sirspa from {result['sirspa']}, not {root / 'src'}")
        res = checks.CheckResult()
        for inv, code, entry in zip(invs, result["codes"], json.loads(plan_path.read_text())):
            checks.check_invocation(inv, entry["csv"], code, res)
        if not result["deterministic"]:
            res.fail(0, "CSV bytes differ between passes")
        imports = import_times(root) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "failed_frac": res.failed / res.attempted,
        "spa_outage_max_abs_err": res.spa_outage_max_abs_err,
        "spa_capacity_max_abs_err": res.spa_capacity_max_abs_err,
        "passes": len(result["pass_s"]),
    }
    correct = res.failed == 0 and result["deterministic"]
    if trace:
        layers = dict(result["layers"])
        layers.update({f"import.{k}_s": v for k, v in imports.items()})
        layers["trace.untraced_wall_s"] = result["pass_s"][0]
        layers["trace.traced_wall_s"] = result["traced_s"]
        layers["trace.overhead_s"] = result["traced_s"] - result["pass_s"][0]
        layers["trace.spans"] = result["spans"]
        layers["accuracy.spa_outage_max_abs_err"] = res.spa_outage_max_abs_err or 0.0
        layers["accuracy.spa_capacity_max_abs_err"] = res.spa_capacity_max_abs_err or 0.0
        if result["traced_rows"] != result["untraced_rows"]:
            res.fail(0, f"traced rows {result['traced_rows']} != "
                        f"untraced CSV rows {result['untraced_rows']}")
            correct = False
        if not result["exact_counts_repeat"]:
            res.fail(0, "exact counts differ between traced passes")
            correct = False
        units = layer_units()
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(result["pass_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - info["failed_frac"],
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    return {"correct": correct, "attempted": res.attempted, "failed": res.failed,
            "metrics": metrics, "info": info, "problems": res.problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    try:
        out = bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for why in out["problems"]:
        print(f"CHECK FAILED: {why}", file=sys.stderr)
    for name, m in out["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in out["info"].items():
        if value is not None:
            print(f"{name} {value!r} {INFO_UNITS[name]}")
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
