"""Tests of the benchmark itself: generator, output checks, tracing and report.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sirspa.config import load_config  # noqa: E402

# every per-layer metric the benchmark promises
PER_LAYER_NAMED = """
cli.invocations cli.retried_curves cli.write_s
config.load_config.calls config.load_config.s import.numpy_s import.scipy_s
import.jsonschema_s import.sirspa_s
analysis.outage_curve.calls analysis.outage_curve.points analysis.outage_curve.s
analysis.ergodic_capacity.calls analysis.ergodic_capacity.s
analysis.ergodic_capacity.integrand_evals analysis.monte_carlo_capacity.calls
analysis.monte_carlo_capacity.s
composite.build_composite.calls composite.build_composite.s composite.cgf_evals
composite.cgf_terms composite.cgf_eval.s composite.cf.calls composite.cf.nodes composite.cf.s
saddlepoint.solve_saddle.calls saddlepoint.solve_saddle.s saddlepoint.iterations
saddlepoint.iterations_per_solve saddlepoint.cgf_evals_per_solve saddlepoint.ccdf.calls
saddlepoint.ccdf.s saddlepoint.solves_per_ccdf saddlepoint.near_mean_frac
saddlepoint.clamped_frac saddlepoint.errors
oracles.gil_pelaez_ccdf.calls oracles.gil_pelaez_ccdf.s oracles.gil_pelaez_ccdf.errors
oracles.gp.panels oracles.gp.panels_per_call_max oracles.monte_carlo_outage.calls
oracles.monte_carlo_outage.s oracles.mc.samples oracles.mc.ns_per_sample
oracles.exponential_signal_closed_form.calls oracles.exponential_signal_closed_form.s
fading.sample.calls fading.sample.draws fading.sample.s
trace.overhead_s accuracy.spa_outage_max_abs_err accuracy.spa_capacity_max_abs_err
""".split()


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --- generator -------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_deterministic_and_seeded(workload):
    a = workloads.generate(workload, 7)
    b = workloads.generate(workload, 7)
    c = workloads.generate(workload, 8)
    assert [i.config for i in a] == [i.config for i in b]
    assert [i.config for i in a] != [i.config for i in c]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generated_configs_pass_strict_schema(workload, seed, tmp_path):
    for inv in workloads.generate(workload, seed):
        path = tmp_path / f"{inv.name}.json"
        path.write_text(json.dumps(inv.config))
        cfg = load_config(path)
        assert len(cfg.curves) == len(inv.config["curves"])
        g = inv.config["grid"]
        if inv.command == "outage":
            lo, hi = workloads.DOMAIN_DB
            assert lo <= g["start_db"] <= g["stop_db"] <= hi
            assert len(cfg.grid.values_db()) * len(cfg.curves) * len(inv.methods) \
                == workloads.expected_rows(inv)


def test_spa_figures_cover_the_declared_mix():
    invs = workloads.generate("spa-figures", 3)
    curves = [c for inv in invs for c in inv.config["curves"]]
    assert {c["desired"]["family"] for c in curves} == set(workloads.SPA_DESIRED)
    assert sorted({len(c["interferers"]) for c in curves}) == list(workloads.SPA_LS)
    assert any("noise_power_dbm" in c for c in curves)
    assert any(workloads.closed_form_eligible(c) for c in curves)
    inter = {i["family"] for c in curves for i in c["interferers"]}
    assert {"nakagami_m", "rician", "hoyt"} <= inter


def test_oracle_and_capacity_mix():
    oracle = workloads.generate("oracle-figures", 3)
    assert all(inv.methods[:2] == ("gil_pelaez", "monte_carlo") for inv in oracle)
    for inv in oracle:
        eligible = all(workloads.closed_form_eligible(c) for c in inv.config["curves"])
        assert ("closed_form" in inv.methods) == eligible
    assert any("closed_form" in inv.methods for inv in oracle)
    (cap,) = workloads.generate("capacity", 3)
    ls = [len(c["interferers"]) for c in cap.config["curves"]]
    assert ls.count(1) == 1 and ls.count(workloads.CAPACITY_LIGHT_L) == workloads.CAPACITY_LIGHT


# --- references and output checks ------------------------------------------

PAIR = {"label": "p", "desired": {"family": "nakagami_m", "m": 1.0, "mean_power_dbm": 3.0},
        "interferers": [{"family": "nakagami_m", "m": 1.0, "mean_power_dbm": 0.0}]}


def test_capacity_exact_matches_closed_forms():
    a = 10 ** 0.3
    assert checks.capacity_exact(PAIR) == pytest.approx(
        a * math.log(a) / ((a - 1) * math.log(2)), abs=1e-12)
    equal = dict(PAIR, desired=dict(PAIR["desired"], mean_power_dbm=0.0))
    assert checks.capacity_exact(equal) == pytest.approx(1 / math.log(2), abs=1e-12)


def _outage_rows(inv):
    """Rows as the CLI would write them, with exact values for every method."""
    g = inv.config["grid"]
    n = workloads.expected_rows(inv) // (len(inv.config["curves"]) * len(inv.methods))
    rows = []
    for c in inv.config["curves"]:
        for method in inv.methods:
            for k in range(n):
                q_db = g["start_db"] + k * g["step_db"]
                q = 10 ** (q_db / 10)
                p = checks.outage_exact(c, q)
                err = "1e-4" if method == "monte_carlo" else ("0.0" if method == "gil_pelaez" else "")
                rows.append({"curve": c["label"], "q_db": repr(q_db), "q_linear": repr(q),
                             "method": method, "p_out": repr(p), "error_estimate": err})
    return rows


def _check(inv, rows, tmp_path, code=0):
    path = tmp_path / "out.csv"
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else ["curve"])
        w.writeheader()
        w.writerows(rows)
    res = checks.CheckResult()
    checks.check_invocation(inv, str(path), code, res)
    return res


def _eligible_oracle():
    inv = workloads.generate("oracle-figures", 5)[0]
    assert "closed_form" in inv.methods
    return inv


def test_exact_rows_pass(tmp_path):
    inv = _eligible_oracle()
    res = _check(inv, _outage_rows(inv), tmp_path)
    assert (res.failed, res.attempted) == (0, workloads.expected_rows(inv)), res.problems


def test_planted_wrong_gil_pelaez_row_fails(tmp_path):
    inv = _eligible_oracle()
    rows = _outage_rows(inv)
    gp = [i for i, r in enumerate(rows) if r["method"] == "gil_pelaez"]
    # the last grid point has p near 1; plant p = 0.5 there
    assert float(rows[gp[-1]]["p_out"]) > 0.9
    rows[gp[-1]]["p_out"] = "0.5"
    assert _check(inv, rows, tmp_path).failed == 1
    # a deviation far above the quadrature tolerance, without breaking monotonicity
    rows = _outage_rows(inv)
    rows[gp[0]]["p_out"] = repr(float(rows[gp[0]]["p_out"]) * 0.5)
    res = _check(inv, rows, tmp_path)
    assert res.failed == 1 and "gp - exact" in res.problems[0]


@pytest.mark.parametrize("method,value", [("monte_carlo", 0.2), ("closed_form", 1e-3),
                                          ("gil_pelaez", 1.5), ("gil_pelaez", "nan")])
def test_planted_wrong_rows_fail(tmp_path, method, value):
    inv = _eligible_oracle()
    rows = _outage_rows(inv)
    i = [k for k, r in enumerate(rows) if r["method"] == method][8]
    rows[i]["p_out"] = str(value)
    assert _check(inv, rows, tmp_path).failed >= 1


def test_non_monotone_row_fails(tmp_path):
    inv = _eligible_oracle()
    rows = _outage_rows(inv)
    mc = [r for r in rows if r["method"] == "monte_carlo"]
    mc[10]["p_out"] = repr(float(mc[9]["p_out"]) - 1e-9)
    res = _check(inv, rows, tmp_path)
    assert res.failed == 1 and "below previous" in res.problems[0]


def test_exit_code_and_missing_rows_fail_every_row(tmp_path):
    inv = _eligible_oracle()
    rows = _outage_rows(inv)
    assert _check(inv, rows, tmp_path, code=2).failed == workloads.expected_rows(inv)
    assert _check(inv, rows[:-1], tmp_path).failed >= 1


def test_capacity_checks(tmp_path):
    (inv,) = workloads.generate("capacity", 1)
    rows = []
    for c in inv.config["curves"]:
        exact = checks.capacity_exact(c) if workloads.closed_form_eligible(c) else 1.0
        for method in inv.methods:
            err = "1e-3" if method == "monte_carlo" else "1e-10"
            rows.append({"curve": c["label"], "capacity_bits": repr(exact),
                         "method": method, "error_estimate": err})
    assert _check(inv, rows, tmp_path).failed == 0
    rows[1]["capacity_bits"] = repr(float(rows[1]["capacity_bits"]) + 1e-3)  # heavy, gil_pelaez
    res = _check(inv, rows, tmp_path)
    assert res.failed == 1 and "gp - exact" in res.problems[0]


# --- tracing ---------------------------------------------------------------

def test_layer_metrics_self_time_and_ratios():
    ms = 1_000_000
    spans = [  # (id, parent, name, start, end, note); children close first
        (3, 2, "composite.cgf_eval", 1 * ms, 2 * ms, 3),
        (4, 2, "composite.cgf_eval", 2 * ms, 4 * ms, 3),
        (2, 1, "saddlepoint.solve_saddle", 0, 5 * ms, 4),
        (1, 0, "saddlepoint.ccdf", 0, 6 * ms, 1),
    ]
    m = tracing.layer_metrics(spans)
    assert m["saddlepoint.solve_saddle.s"] == pytest.approx(2e-3)
    assert m["saddlepoint.ccdf.s"] == pytest.approx(1e-3)
    assert m["composite.cgf_eval.s"] == pytest.approx(3e-3)
    assert m["composite.cgf_terms"] == 6
    assert m["saddlepoint.cgf_evals_per_solve"] == 2
    assert m["saddlepoint.iterations_per_solve"] == 4
    assert m["saddlepoint.near_mean_frac"] == 1.0


def test_tracer_restores_originals():
    import sirspa.analysis
    import sirspa.composite

    before = (sirspa.analysis.ccdf, vars(sirspa.composite.CompositeCgf)["k1"])
    tracer = tracing.Tracer()
    tracer.install()
    assert sirspa.analysis.ccdf is not before[0]
    tracer.uninstall()
    assert (sirspa.analysis.ccdf, vars(sirspa.composite.CompositeCgf)["k1"]) == before


def test_import_breakdown_parses_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |        350 |   sirspa.composite",
        "import time:        10 |         10 |       scipy",
        "import time:        40 |         50 |     scipy.integrate",
        "import time:        20 |         70 |   sirspa.analysis",
        "import time:         5 |        425 | sirspa",
    ])
    out = tracing.import_breakdown(text)
    assert out["numpy"] == pytest.approx(300e-6)
    assert out["scipy"] == pytest.approx(50e-6)
    assert out["sirspa"] == pytest.approx(75e-6)
    assert out["total"] == pytest.approx(425e-6)


# --- the command ------------------------------------------------------------

def test_benchmark_json_matches_the_report():
    spec = bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in spec["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    units = run.layer_units()
    assert all(m["unit"] == units[m["name"]] for m in spec["per_layer"])
    assert set(PER_LAYER_NAMED) <= set(run.PER_LAYER)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_unit(trace):
    proc = _run("--workload", "spa-figures", "--seed", "4", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = bench_json()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    if trace == "0":
        for name in ("failed_frac", "spa_outage_max_abs_err"):
            assert name in printed


def test_exact_counts_repeat_across_runs():
    counts = []
    for _ in range(2):
        proc = _run("--workload", "spa-figures", "--seed", "9", "--seconds", "1",
                    "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: metrics[k]["value"] for k in tracing.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["saddlepoint.iterations"] > 0


def test_fails_with_only_the_benchmark(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "capacity",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 2
    assert proc.stdout == ""
