"""CLI behavior: config validation, CSV output, exit codes, determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sirspa import (
    GaussianTest,
    Hoyt,
    MonteCarloConfig,
    NakagamiM,
    OutageResult,
    Rician,
    SirScenario,
    analysis,
    cli,
    oracles,
    outage_point,
    saddlepoint,
)
from sirspa.analysis import db_to_linear, error_result
from sirspa.cli import (
    CAPACITY_HEADER,
    EXIT_COMPARE,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    OUTAGE_HEADER,
    main,
)
from sirspa.config import load_config
from sirspa.exceptions import ConfigError, DivergedSolver, InvalidScenario, SirspaError
from sirspa.saddlepoint import ccdf_block

from conftest import CONFIG_DIR


def nakagami(m, dbm):
    return {"family": "nakagami_m", "m": m, "mean_power_dbm": dbm}


def base_config(**overrides):
    cfg = {
        "curves": [{
            "label": "pair",
            "desired": nakagami(1.0, 0.0),
            "interferers": [nakagami(1.0, 0.0)],
        }],
        "grid": {"start_db": -4.0, "stop_db": 4.0, "step_db": 2.0},
        "methods": ["spa", "gil_pelaez", "closed_form"],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigLoading:
    def test_dbm_conversion_full_precision(self):
        assert db_to_linear(5.0) == 3.1622776601683795
        assert db_to_linear(0.0) == 1.0

    def test_shipped_configs_parse(self):
        for name in ("fig1.json", "fig2.json", "fig3.json", "fig4.json",
                     "rayleigh_pair.json"):
            cfg = load_config(CONFIG_DIR / name)
            assert len(cfg.curves) >= 1
            assert len(cfg.methods) >= 1

    def test_desired_power_materialized(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert cfg.curves[0].template.desired.mean_power == 1.0
        cfg2 = base_config()
        cfg2["curves"][0]["desired"] = nakagami(1.0, 5.0)
        loaded = load_config(write_config(tmp_path, cfg2, "run2.json"))
        assert loaded.curves[0].template.desired.mean_power == 3.1622776601683795

    def test_unknown_field_rejected(self, tmp_path):
        cfg = base_config(extra_field=1)
        with pytest.raises(ConfigError, match="extra_field"):
            load_config(write_config(tmp_path, cfg))

    def test_invalid_m_rejected(self, tmp_path):
        cfg = base_config()
        cfg["curves"][0]["desired"] = nakagami(0.3, 0.0)
        with pytest.raises(ConfigError, match="0.5"):
            load_config(write_config(tmp_path, cfg))

    def test_invalid_hoyt_b_rejected(self, tmp_path):
        cfg = base_config()
        cfg["curves"][0]["desired"] = {"family": "hoyt", "b": 2.0,
                                       "mean_power_dbm": 0.0}
        with pytest.raises(ConfigError, match="< 1"):
            load_config(write_config(tmp_path, cfg))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    @pytest.mark.parametrize("edit,where", [
        (lambda c: c.update(extra_field=1), "<root>"),
        (lambda c: c["curves"][0]["desired"].update(family="lognormal"),
         "curves/0/desired/family"),
        (lambda c: c["grid"].update(step_db="1"), "grid/step_db"),
        (lambda c: c.update(curves=[]), "curves"),
        (lambda c: c["grid"].pop("step_db"), "grid"),
        (lambda c: c.update(methods=["spa", "newton"]), "methods/1"),
        (lambda c: c["curves"][0].update(interferers=[]), "curves/0/interferers"),
        (lambda c: c["curves"][0]["desired"].update(m=True), "curves/0/desired/m"),
        (lambda c: c.update(output={"format": "xml"}), "output"),
        (lambda c: c.update(monte_carlo={"samples": 2000.5}), "monte_carlo/samples"),
        (lambda c: c.update(solver={"near_mean_method": "skewness"}), "<root>"),
        (lambda c: c.update(solver={"interpolation_delta": 1e-3}), "<root>"),
        (lambda c: c.update(solver={"near_mean_w_threshold": 1e-4}), "<root>"),
        (lambda c: c.update(solver={"tol": 1e-8}), "<root>"),
        (lambda c: c.update(solver={"max_iter": 50}), "<root>"),
        (lambda c: c.update(quadrature={"rel_tol": 1e-9}), "<root>"),
        (lambda c: c.update(compare={"default_bound": 1e-2}), "<root>"),
    ], ids=["extra_field", "unknown_family", "string_step", "no_curves", "missing_step",
            "unknown_method", "no_interferers", "bool_m", "xml_format",
            "fractional_samples", "removed_near_mean_method",
            "removed_interpolation_delta", "removed_near_mean_w_threshold", "removed_tol",
            "removed_solver", "removed_quadrature", "removed_compare"])
    def test_messages_name_the_field(self, tmp_path, edit, where):
        raw = base_config()
        edit(raw)
        with pytest.raises(ConfigError) as got:
            load_config(write_config(tmp_path, raw))
        assert str(got.value).startswith(f"config field {where}: ")

    @pytest.mark.parametrize("edit,where", [
        (lambda c: c["grid"].update(stop_db="1e400"), "grid/stop_db"),
        (lambda c: c["curves"][0]["desired"].update(m="1e400"), "curves/0/desired/m"),
        (lambda c: c["curves"][0].update(
            desired={"family": "rician", "r": "Infinity", "mean_power_dbm": 0.0}),
         "curves/0/desired/r"),
        (lambda c: c["curves"][0].update(noise_power_dbm="NaN"),
         "curves/0/noise_power_dbm"),
        (lambda c: c["curves"][0].update(noise_power_dbm="Infinity"),
         "curves/0/noise_power_dbm"),
        (lambda c: c["curves"][0]["desired"].update(mean_power_dbm="4000"),
         "curves/0/desired/mean_power_dbm"),
    ], ids=["overflow_stop_db", "inf_m", "inf_r", "nan_noise", "inf_noise",
            "overflow_mean_power"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, edit, where):
        # the edit puts a JSON number literal in a string; it is spliced in
        # unquoted, since json.dumps writes no such literal itself
        raw = base_config()
        edit(raw)
        text = re.sub(r'"(1e400|Infinity|NaN|4000)"', r"\1", json.dumps(raw))
        path = tmp_path / "run.json"
        path.write_text(text)
        assert main(["outage", str(path), "--output", str(tmp_path / "out.csv")]) \
            == EXIT_CONFIG
        assert f"config error: config field {where}: " in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_repeated_label_rejected(self, tmp_path, capsys):
        cfg = base_config(methods=["spa", "gil_pelaez"])
        cfg["curves"] = [dict(cfg["curves"][0], label="a"),
                         dict(cfg["curves"][0], label="a",
                              desired=nakagami(2.0, 3.0))]
        out = tmp_path / "out.csv"
        assert main(["outage", write_config(tmp_path, cfg),
                     "--output", str(out)]) == EXIT_CONFIG
        assert "config field curves/1/label: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,key", [
        ("monte_carlo", "samples"), ("monte_carlo", "batches"), ("monte_carlo", "seed")])
    def test_whole_float_counts(self, tmp_path, section, key):
        # json reads 2000.0 (or 2e3) as a float; a count takes it as the int
        cfg = base_config(methods=["spa", "gil_pelaez", "monte_carlo"],
                          monte_carlo={"samples": 2000, "batches": 4, "seed": 1})
        ints = tmp_path / "ints.csv"
        assert main(["outage", write_config(tmp_path, cfg, "ints.json"),
                     "--output", str(ints)]) == EXIT_OK
        cfg[section][key] = float(cfg[section][key])
        floats = tmp_path / "floats.csv"
        path = write_config(tmp_path, cfg, "floats.json")
        assert type(getattr(getattr(load_config(path), section), key)) is int
        assert main(["outage", path, "--output", str(floats)]) == EXIT_OK
        assert floats.read_bytes() == ints.read_bytes()


class TestOutageCommand:
    def test_clamped_rows(self, tmp_path, monkeypatch):
        # synthetic solves whose Lugannani-Rice value lies above 1 or below 0
        # are clamped to 1.0 or 0.0 and marked so, in the rows and in the CSV;
        # the last row's value, 0.159, stands as it is
        ws, us = [-1.0, 1.0, 2.0, -2.0, 1.0], [1.0, -1.0, 0.01, -0.01, 1.0]
        raw = [0.5 * math.erfc(w / math.sqrt(2.0))
               + math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi) * (1.0 / u - 1.0 / w)
               for w, u in zip(ws, us)]
        assert [p > 1.0 for p in raw] == [True, False, True, False, False]
        assert [p < 0.0 for p in raw] == [False, True, False, True, False]

        def synthetic(blk, x):
            n = len(x)
            w, no = np.array(ws[:n]), np.zeros(n, dtype=bool)
            return w, w, np.array(us[:n]), np.ones(n, dtype=int), ~no, no, no, no

        monkeypatch.setattr(saddlepoint, "_solutions", synthetic)
        cfg_path = write_config(tmp_path, base_config())
        template = load_config(cfg_path).curves[0].template
        rows = ccdf_block(template, [1.0] * 5, [0.0] * 5)
        assert [r[0] for r in rows] == [1.0, 0.0, 1.0, 0.0, raw[4]]
        assert [r[6] for r in rows] == [True, True, True, True, False]
        out = tmp_path / "out.csv"
        assert main(["outage", cfg_path, "--method", "spa", "--output", str(out)]) == EXIT_OK
        with open(out) as fh:
            csv_rows = list(csv.DictReader(fh))
        assert [r["p_out"] for r in csv_rows] == ["1.0", "0.0", "1.0", "0.0", repr(raw[4])]
        assert [r["clamped"] for r in csv_rows] == ["true"] * 4 + ["false"]

    def test_zero_scale_interferer(self, tmp_path, capsys):
        # a -2000 dBm interferer at q = -1500 dB: its scale q * s underflows
        # to 0, an atom without a pole that adds nothing, and the outage is ~0.
        # K' < 0 = x on the whole strip (-1, inf), so spa has no saddle point
        cfg = base_config(grid={"start_db": -1500.0, "stop_db": -1500.0, "step_db": 1.0},
                          methods=["spa", "gil_pelaez", "closed_form", "monte_carlo"],
                          monte_carlo={"samples": 10000, "seed": 1, "batches": 2})
        cfg["curves"][0]["interferers"] = [nakagami(1.0, -2000.0)]
        out = tmp_path / "out.csv"
        assert main(["outage", write_config(tmp_path, cfg),
                     "--output", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.splitlines() == [
            "FAILED pair spa q_db=-1500: NoSaddleInStrip: K' does not cross x=-0.0 inside "
            "the strip"]
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["spa", "gil_pelaez", "closed_form", "monte_carlo"]
        assert all(abs(float(r["p_out"])) <= 1e-9 for r in rows[1:])

    def test_linear_atom_at_a_huge_scale(self, tmp_path):
        # a Gaussian signal of variance 1e-208 at its mean: its skewness
        # term scales the linear atom by 1/sigma = 1e104, whose cube overflows
        cfg = base_config(grid={"start_db": 0.0, "stop_db": 0.0, "step_db": 1.0},
                          methods=["spa", "gil_pelaez"])
        cfg["curves"][0].update(
            desired={"family": "gaussian", "mean_mw": 1e-90, "variance_mw2": 1e-208},
            interferers=[nakagami(1.0, -2000.0)], noise_power_dbm=-900.0)
        out = tmp_path / "out.csv"
        assert main(["outage", write_config(tmp_path, cfg), "--output", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method"], r["near_mean"]) for r in rows] == [
            ("spa", "true"), ("gil_pelaez", "false")]
        assert all(float(r["p_out"]) == pytest.approx(0.5, abs=1e-9) for r in rows)

    def test_gil_pelaez_rows_do_not_depend_on_interferer_order(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "fig4.json").read_text())
        cfg.pop("output")
        outputs = []
        for name in ("fig4", "reversed"):
            out = tmp_path / f"{name}.csv"
            assert main(["outage", write_config(tmp_path, cfg, f"{name}.json"),
                         "--method", "gil_pelaez", "--output", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
            for curve in cfg["curves"]:
                curve["interferers"].reverse()
        assert outputs[0] == outputs[1]

    def test_csv_output(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out.csv"
        assert main(["outage", cfg_path, "--output", str(out)]) == EXIT_OK
        lines = out.read_text().split("\n")
        assert lines[0] == OUTAGE_HEADER
        assert lines[-1] == ""  # trailing LF
        rows = [l.split(",") for l in lines[1:-1]]
        # 5 grid points x 3 methods
        assert len(rows) == 15
        for row in rows:
            assert row[0] == "pair"
            p_out = float(row[4])
            assert 0.0 <= p_out <= 1.0
            # repr round-trip: the text is the shortest form of the double
            assert repr(p_out) == row[4]
        assert "max cross-method deviation" in capsys.readouterr().out

    def test_exit_config_error(self, tmp_path, capsys):
        cfg = base_config()
        cfg["curves"][0]["desired"] = nakagami(0.3, 0.0)
        assert main(["outage", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "0.5" in capsys.readouterr().err

    def test_exit_config_error_hoyt(self, tmp_path, capsys):
        cfg = base_config()
        cfg["curves"][0]["interferers"] = [{"family": "hoyt", "b": 2.0,
                                            "mean_power_dbm": 0.0}]
        assert main(["outage", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "< 1" in err

    @pytest.mark.parametrize("start_db,stop_db", [(3080.0, 3090.0), (-3300.0, -3200.0)])
    def test_exit_config_error_grid_range(self, tmp_path, capsys, start_db, stop_db):
        cfg = base_config(grid={"start_db": start_db, "stop_db": stop_db, "step_db": 10.0})
        assert main(["outage", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "dB" in capsys.readouterr().err

    def test_cumulant_overflow_fails_points(self, tmp_path, capsys):
        cfg = base_config(grid={"start_db": 1600.0, "stop_db": 1600.0, "step_db": 1.0},
                          methods=["spa", "gil_pelaez"])
        assert main(["outage", write_config(tmp_path, cfg)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "FAILED pair spa q_db=1600: InvalidScenario" in err
        assert "FAILED pair gil_pelaez q_db=1600: InvalidScenario" in err

    def test_variance_underflow_fails_points(self, tmp_path, capsys):
        # both powers at -1700 dBm: the variance underflows to 0, a numerical
        # failure per point rather than a traceback that exits as a config error
        cfg = base_config(methods=["spa", "gil_pelaez"])
        cfg["curves"][0].update(desired=nakagami(1.0, -1700.0),
                                interferers=[nakagami(1.0, -1700.0)])
        assert main(["outage", write_config(tmp_path, cfg),
                     "--output", str(tmp_path / "out.csv")]) == EXIT_NUMERICAL
        failed = [l for l in capsys.readouterr().err.splitlines() if l.startswith("FAILED")]
        assert len(failed) == 10
        assert all("InvalidScenario: threshold q=" in l and "underflows the variance" in l
                   for l in failed)

    def test_curvature_underflow_fails_point(self, tmp_path, capsys):
        # a -1700 dBm signal under a -1000 dBm interferer: the saddle point
        # t = -5e169 is right, but every atom's w * s**2 underflows there,
        # so K'' = 0 and the tail formula has u = 0
        cfg = base_config(grid={"start_db": 0.0, "stop_db": 0.0, "step_db": 1.0},
                          methods=["spa", "gil_pelaez"])
        cfg["curves"][0].update(desired=nakagami(1.0, -1700.0),
                                interferers=[nakagami(1.0, -1000.0)])
        out = tmp_path / "out.csv"
        assert main(["outage", write_config(tmp_path, cfg),
                     "--output", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.splitlines() == [
            "FAILED pair spa q_db=0: InvalidScenario: K'' underflows to 0 at the "
            "saddle point t=-5e+169 of x=-0.0"]
        assert out.read_text().splitlines()[2].split(",")[3:5] == ["gil_pelaez", "1.0"]

    def test_noise_overflow_fails_points(self, tmp_path, capsys):
        # x = -q * N0 overflows from 3075 dB on: spa fails each point with a
        # typed error, and the run goes on to the other methods. Gil-Pelaez's
        # NaN integrals stop after one pass, and the Chernoff bound gives 1.0,
        # as closed_form does
        cfg = base_config(grid={"start_db": 3070.0, "stop_db": 3080.0, "step_db": 5.0},
                          methods=["spa", "gil_pelaez", "closed_form"])
        cfg["curves"][0].update(interferers=[nakagami(1.0, -3000.0)], noise_power_dbm=10.0)
        out = tmp_path / "out.csv"
        start = time.perf_counter()
        assert main(["outage", write_config(tmp_path, cfg),
                     "--output", str(out)]) == EXIT_NUMERICAL
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        failed = [l for l in err.splitlines() if l.startswith("FAILED")]
        assert [l.split(": ")[:2] for l in failed] == [
            [f"FAILED pair spa q_db={q_db}", "NoSaddleInStrip"] for q_db in (3070, 3075, 3080)]
        rows = list(csv.DictReader(out.open()))
        assert [r["p_out"] for r in rows if r["method"] != "spa"] == ["1.0"] * 6

    def test_unknown_method_override(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["outage", cfg_path, "--method", "magic"]) == EXIT_CONFIG

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["outage", cfg_path, "--seed", "-1"]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("methods", [",", "spa,spa"], ids=["empty", "repeated"])
    def test_method_override_schema(self, tmp_path, capsys, methods):
        # the method list the schema requires in a file: non-empty, no repeats
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out.csv"
        assert main(["outage", cfg_path, "--method", methods,
                     "--output", str(out)]) == EXIT_CONFIG
        assert "method" in capsys.readouterr().err
        assert not out.exists()

    def test_determinism(self, tmp_path):
        cfg = base_config(methods=["spa", "monte_carlo"],
                          monte_carlo={"samples": 20000, "seed": 7, "batches": 10})
        cfg_path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["outage", cfg_path, "--output", str(out1)]) == EXIT_OK
        assert main(["outage", cfg_path, "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_monte_carlo(self, tmp_path):
        cfg = base_config(methods=["monte_carlo"],
                          monte_carlo={"samples": 20000, "seed": 7, "batches": 10})
        cfg_path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["outage", cfg_path, "--output", str(out1)]) == EXIT_OK
        assert main(["outage", cfg_path, "--output", str(out2),
                     "--seed", "8"]) == EXIT_OK
        assert out1.read_bytes() != out2.read_bytes()


class TestCapacityCommand:
    def test_rayleigh_pair(self, tmp_path, capsys):
        cfg = base_config(methods=["spa", "monte_carlo"],
                          monte_carlo={"samples": 100000, "seed": 3, "batches": 100})
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "cap.csv"
        assert main(["capacity", cfg_path, "--output", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CAPACITY_HEADER
        by_method = {l.split(",")[2]: float(l.split(",")[1]) for l in lines[1:]}
        # true value for the symmetric Rayleigh pair is 1/ln 2 = 1.4427;
        # the saddlepoint value carries ~1e-2 method error
        assert abs(by_method["monte_carlo"] - 1.0 / math.log(2.0)) <= 2e-2
        assert abs(by_method["spa"] - by_method["monte_carlo"]) <= 3e-2

    def test_zero_signal(self, tmp_path):
        cfg = base_config(methods=["spa"])
        cfg["curves"][0]["desired"] = nakagami(1.0, -100.0)
        out = tmp_path / "cap.csv"
        assert main(["capacity", write_config(tmp_path, cfg),
                     "--output", str(out)]) == EXIT_OK
        cap = float(out.read_text().strip().split("\n")[1].split(",")[1])
        assert cap < 1e-3

    def test_spa_vs_gil_pelaez(self, tmp_path):
        # five-interferer scenario; the symmetric pair is the saddlepoint
        # worst case (~1.06e-2 capacity error) and is covered by the
        # acceptance suite instead
        cfg = base_config(methods=["spa", "gil_pelaez"])
        cfg["curves"][0]["desired"] = nakagami(1.0, 5.0)
        cfg["curves"][0]["interferers"] = [nakagami(0.5, 0.0)] * 5
        out = tmp_path / "cap.csv"
        assert main(["capacity", write_config(tmp_path, cfg),
                     "--output", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")[1:]
        caps = {l.split(",")[2]: float(l.split(",")[1]) for l in lines}
        assert abs(caps["spa"] - caps["gil_pelaez"]) <= 1e-2

    def test_closed_form_fails_typed(self, tmp_path, capsys):
        # closed_form has no capacity: a typed failure, not a silent skip
        out = tmp_path / "cap.csv"
        assert main(["capacity", str(CONFIG_DIR / "rayleigh_pair.json"), "--output", str(out),
                     "--method", "spa,closed_form"]) == EXIT_NUMERICAL
        assert [l.split(",")[2] for l in out.read_text().splitlines()[1:]] == ["spa"]
        captured = capsys.readouterr()
        assert captured.out.startswith("rayleigh-pair spa: ")
        assert captured.err.splitlines() == [
            "FAILED rayleigh-pair closed_form: UnsupportedScenario: capacity supports "
            "methods 'spa'/'gil_pelaez', got 'closed_form'"]


def _fmt(value) -> str:
    """A CSV field: None empty, bools true/false, ints str and floats repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rayleigh_at(q_db):
    template = load_config(CONFIG_DIR / "rayleigh_pair.json").curves[0].template
    return replace(template, threshold_q=db_to_linear(q_db))


# one outage row of each kind; at 0 dB the Rayleigh pair's spa row is near the mean
OUTAGE_ROWS = {
    "spa": lambda: outage_point(_rayleigh_at(0.0), "spa", q_db=0.0),
    "gil_pelaez": lambda: outage_point(_rayleigh_at(3.0), "gil_pelaez", q_db=3.0),
    "monte_carlo": lambda: outage_point(_rayleigh_at(3.0), "monte_carlo", q_db=3.0,
                                        monte_carlo=MonteCarloConfig(2000, 1, 4)),
    "closed_form": lambda: outage_point(_rayleigh_at(3.0), "closed_form", q_db=3.0),
    "failed": lambda: error_result(1550.0, db_to_linear(1550.0), "spa",
                                   InvalidScenario("overflow")),
    "special_floats": lambda: OutageResult(-0.0, 5e-324, math.nan, "spa", math.inf, 0,
                                           True, True, 1e300),
    "more_special_floats": lambda: OutageResult(1e300, math.inf, -0.0, "gil_pelaez",
                                                -math.inf, None, False, True, 5e-324),
}


class TestCsvFields:
    # floats are written as their repr, and under numpy 2 the repr of a
    # numpy scalar is its constructor, np.float64(...): every number must
    # reach the CSV as a plain Python float or int
    def check(self, path, floats, ints=()):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert not any("np." in v for v in row.values()), row
            for key in floats:
                if row[key]:
                    float(row[key])
            for key in ints:
                if row[key]:
                    int(row[key])

    def test_outage_fig4(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["outage", str(CONFIG_DIR / "fig4.json"), "--output", str(out)]) == EXIT_OK
        self.check(out, ("q_db", "q_linear", "p_out", "t_hat", "error_estimate"),
                   ("iterations",))

    def test_capacity_rayleigh_pair(self, tmp_path):
        out = tmp_path / "cap.csv"
        assert main(["capacity", str(CONFIG_DIR / "rayleigh_pair.json"), "--output", str(out),
                     "--method", "spa,gil_pelaez"]) == EXIT_OK
        self.check(out, ("capacity_bits", "error_estimate"))

    @pytest.mark.parametrize("kind", OUTAGE_ROWS)
    def test_outage_row_bytes(self, kind):
        # each field of an outage row is written by the rules of _fmt above
        r = OUTAGE_ROWS[kind]()
        expected = ",".join(["c0-L1", _fmt(r.q_db), _fmt(r.q_linear), r.method,
                             _fmt(r.p_out), _fmt(r.t_hat), _fmt(r.iterations),
                             _fmt(r.near_mean), _fmt(r.clamped), _fmt(r.error_estimate)])
        assert cli._outage_row("c0-L1", r) == expected
        assert len(expected.split(",")) == len(OUTAGE_HEADER.split(","))


class TestCompareCommand:
    def test_agreement_exit_ok(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["compare", cfg_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "max_abs_dev" in out

    def test_tight_bound_exit_compare(self, capsys):
        # fig3's b0 = 0.6 and 0.9 curves deviate from Gil-Pelaez by more than
        # the fixed bound 1e-2 outside the breakdown band: the first-order
        # Lugannani-Rice error that criterion 4 reports
        assert main(["compare", str(CONFIG_DIR / "fig3.json"),
                     "--method", "spa,gil_pelaez"]) == EXIT_COMPARE
        rows = [l.split(",") for l in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[0], r[5], r[6]) for r in rows] == [
            ("b0=0", "0.01", "true"), ("b0=0.3", "0.01", "true"),
            ("b0=0.6", "0.01", "false"), ("b0=0.9", "0.01", "false")]

    def test_every_failed_point_is_labelled(self, tmp_path, capsys):
        # the second curve's variance underflows at every point: each failed
        # point is listed with its curve label, and no table is printed
        cfg = base_config(methods=["spa", "gil_pelaez"])
        cfg["curves"].append(dict(cfg["curves"][0], label="tiny",
                                  desired=nakagami(1.0, -1700.0),
                                  interferers=[nakagami(1.0, -1700.0)]))
        assert main(["compare", write_config(tmp_path, cfg)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        failed = captured.err.splitlines()
        assert [l.split(":")[0] for l in failed] == [
            f"FAILED tiny {method} q_db={q_db}" for method in ("spa", "gil_pelaez")
            for q_db in (-4, -2, 0, 2, 4)]
        assert all("InvalidScenario: threshold q=" in l for l in failed)

    def test_point_without_composite_is_outside_the_band(self, tmp_path, capsys):
        # at 1550 dB the cumulants of q * I - S overflow, so no composite is
        # built there for the breakdown band; both methods succeed with p = 1
        cfg = base_config(grid={"start_db": 1550.0, "stop_db": 1550.0, "step_db": 1.0},
                          monte_carlo={"samples": 2000, "seed": 1, "batches": 4})
        assert main(["compare", write_config(tmp_path, cfg),
                     "--method", "monte_carlo,closed_form"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == ["pair,monte_carlo,closed_form,0.0,0.0,0.01,true"]

    def test_points_past_the_last_composite_are_outside_the_band(self, tmp_path, capsys):
        # the Rayleigh pair's cumulants overflow from 1545 dB on, so the
        # curve's block has two rows that cannot be placed; both methods
        # succeed at every point
        cfg = base_config(grid={"start_db": 1525.0, "stop_db": 1550.0, "step_db": 5.0},
                          monte_carlo={"samples": 2000, "seed": 1, "batches": 4})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", write_config(tmp_path, cfg),
                         "--method", "monte_carlo,closed_form"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "curve,method_a,method_b,max_abs_dev,mean_abs_dev,bound,ok",
            "pair,monte_carlo,closed_form,0.0,0.0,0.01,true"]
        template = load_config(write_config(tmp_path, cfg)).curves[0].template
        qs = [10.0 ** (q_db / 10.0) for q_db in (0.0, 1525.0, 1545.0, 1550.0)]
        assert cli._in_breakdown(template, qs) == [True, False, False, False]

    def test_single_method_exit_config(self, tmp_path, capsys):
        cfg = base_config(methods=["spa"])
        assert main(["compare", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "2 methods" in capsys.readouterr().err


class TestRetry:
    def test_certain_tail_mends_a_real_point(self, tmp_path, capsys):
        # a weak signal 15 dB under the noise: from 25 dB on the default
        # 32 768 panels end with the error above tolerance (at 40 and 50 dB
        # 131 072 do too), but the lower tail is far below the double range,
        # about 1e-9541 at 25 dB, and its Chernoff bound proves p = 1
        cfg = base_config(grid={"start_db": 25.0, "stop_db": 50.0, "step_db": 25.0},
                          methods=["gil_pelaez"])
        cfg["curves"][0].update(
            label="weak", desired=nakagami(2.25, -5.2), noise_power_dbm=9.7,
            interferers=[{"family": "hoyt", "b": -0.73, "mean_power_dbm": -14.0}])
        path = write_config(tmp_path, cfg)
        template = load_config(path).curves[0].template
        for q_db in (25.0, 40.0, 50.0):
            s = replace(template, threshold_q=db_to_linear(q_db))
            r = outage_point(s, "gil_pelaez")
            assert r.p_out == 1.0 and r.error_estimate <= 1e-9
            p, bound = oracles._certain_tail(s.at(s.threshold_q), -s.threshold_q * s.noise_power)
            assert (p, bound) == (1.0, r.error_estimate)
        out = tmp_path / "out.csv"
        assert main(["outage", path, "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert [r[3:5] for r in rows] == [["gil_pelaez", "1.0"]] * 2

    @pytest.mark.parametrize("method", ["closed_form", "monte_carlo"])
    def test_no_retry_for_methods_without_budgets(self, tmp_path, monkeypatch, capsys,
                                                   method):
        # neither takes the quadrature's budget, so a retry would compute the
        # same error again
        def fail(template, qs, mc):
            raise SirspaError("sampler broke")

        monkeypatch.setattr(analysis, "monte_carlo_curve", fail)
        cfg = base_config(methods=[method])
        cfg["curves"][0]["desired"] = {"family": "rician", "r": 2.0, "mean_power_dbm": 0.0}
        assert main(["outage", write_config(tmp_path, cfg),
                     "--output", str(tmp_path / "out.csv")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 5 and all(l.startswith(f"FAILED pair {method} q_db=") for l in err)

    def test_spa_divergence_is_not_retried(self, tmp_path, monkeypatch, capsys):
        # the curve's solve reports a DivergedSolver at 2 dB: the solve has
        # one fixed budget, which a retry would only spend again
        real_block = analysis.ccdf_block

        def diverging(c, qs, x):
            out = real_block(c, qs, x)
            if len(qs) == 5:
                out[3] = DivergedSolver("forced")
            return out

        monkeypatch.setattr(analysis, "ccdf_block", diverging)
        out = tmp_path / "out.csv"
        assert main(["outage", write_config(tmp_path, base_config(methods=["spa"])),
                     "--output", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.splitlines() == [
            "FAILED pair spa q_db=2: DivergedSolver: forced"]
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["-4.0", "-2.0", "0.0", "2.0", "4.0"]
        assert rows[3][4] == "nan"
        assert all(0.0 <= float(r[4]) <= 1.0 for r in rows[:3] + rows[4:])

    def test_no_retry_for_a_non_finite_integral(self, tmp_path, capsys):
        # x = -q * N0 overflows from 3075 dB on, and Gil-Pelaez's integral is
        # NaN at every point: no panel budget mends that, but the Chernoff
        # bound on the lower tail is 0 there, so every point is certain
        cfg = base_config(grid={"start_db": 3070.0, "stop_db": 3080.0, "step_db": 5.0},
                          methods=["gil_pelaez"])
        cfg["curves"][0].update(interferers=[nakagami(1.0, -3000.0)], noise_power_dbm=10.0)
        out = tmp_path / "out.csv"
        assert main(["outage", write_config(tmp_path, cfg), "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(out.open()))
        assert [(r["p_out"], r["error_estimate"]) for r in rows] == [("1.0", "0.0")] * 3

    def test_no_retry_for_an_invalid_scenario(self, tmp_path, capsys):
        # at 1550 dB the cumulants overflow: no larger budget mends that
        cfg = base_config(grid={"start_db": 1550.0, "stop_db": 1550.0, "step_db": 1.0},
                          methods=["spa", "gil_pelaez"])
        assert main(["outage", write_config(tmp_path, cfg),
                     "--output", str(tmp_path / "out.csv")]) == EXIT_NUMERICAL
        assert [l.split(":")[:2] for l in capsys.readouterr().err.splitlines()] == [
            ["FAILED pair spa q_db=1550", " InvalidScenario"],
            ["FAILED pair gil_pelaez q_db=1550", " InvalidScenario"]]

    def test_no_retry_line_without_failure(self, tmp_path, capsys):
        assert main(["outage", write_config(tmp_path, base_config()),
                     "--output", str(tmp_path / "out.csv")]) == EXIT_OK
        assert "retry" not in capsys.readouterr().err


class TestMonteCarloSampling:
    def test_each_batch_drawn_once_per_curve(self, tmp_path, monkeypatch):
        calls = Counter()
        for family in (NakagamiM, Rician, Hoyt, GaussianTest):
            def counted(self, rng, size=None, _real=family.sample):
                calls[type(self).__name__] += 1
                return _real(self, rng, size)

            monkeypatch.setattr(family, "sample", counted)
        hoyt = {"family": "hoyt", "b": 0.6, "mean_power_dbm": 0.0}
        cfg = base_config(methods=["monte_carlo"],
                          monte_carlo={"samples": 2000, "seed": 3, "batches": 10})
        cfg["curves"].append({
            "label": "rice",
            "desired": {"family": "rician", "r": 2.0, "mean_power_dbm": 3.0},
            "interferers": [hoyt, hoyt],
        })
        assert main(["outage", write_config(tmp_path, cfg), "--output",
                     str(tmp_path / "out.csv")]) == EXIT_OK
        # batches x (L + 1) per curve, however many grid points (5 here)
        assert calls == {"NakagamiM": 10 * 2, "Rician": 10 * 1, "Hoyt": 10 * 2}


class TestCompareBound:
    def test_bound_is_the_failing_points(self, tmp_path, monkeypatch, capsys):
        # the 0 dB point of the Rayleigh pair is in breakdown, so its bound is
        # the wider breakdown bound, not the smallest bound of the curve
        def fake_curve(template, grid, method, monte_carlo):
            return [OutageResult(q_db=float(q_db), q_linear=10.0 ** (q_db / 10.0),
                                 p_out=0.5 + (0.2 if method == "spa" and q_db == 0.0 else 0.0),
                                 method=method)
                    for q_db in grid.values_db()]

        monkeypatch.setattr(cli, "outage_curve", fake_curve)
        cfg = base_config(methods=["spa", "gil_pelaez"])
        assert main(["compare", write_config(tmp_path, cfg)]) == EXIT_COMPARE
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:3] == ["pair", "spa", "gil_pelaez"]
        assert float(row[3]) == pytest.approx(0.2)
        assert row[5] == "0.05" and row[6] == "false"

    def test_one_block_per_curve(self, tmp_path, monkeypatch, capsys):
        # the breakdown flags of a curve's points come from one block, once
        # per curve, not once per method pair, and no composite is moved to
        # a point; the curves are stubbed, so every block is compare's
        def fake_curve(template, grid, method, monte_carlo):
            return [OutageResult(q_db=float(q_db), q_linear=10.0 ** (q_db / 10.0),
                                 p_out=0.5, method=method) for q_db in grid.values_db()]

        blocks, moves = [], []
        block, at = SirScenario.block, SirScenario.at

        def counting_block(self, qs):
            blocks.append(len(qs))
            return block(self, qs)

        def counting_at(self, q):
            moves.append(q)
            return at(self, q)

        monkeypatch.setattr(cli, "outage_curve", fake_curve)
        monkeypatch.setattr(SirScenario, "block", counting_block)
        monkeypatch.setattr(SirScenario, "at", counting_at)
        cfg = base_config()  # three methods, so three pairs, and five points
        cfg["curves"].append(dict(cfg["curves"][0], label="other"))
        assert main(["compare", write_config(tmp_path, cfg)]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 3
        assert blocks == [5, 5] and moves == []


def test_import_leaves_numpy_polynomial_out():
    # the Gauss-Kronrod rule is a table of literals, so not even a run that
    # integrates imports numpy.polynomial
    code = ("import sys, sirspa.cli\n"
            "from sirspa import NakagamiM, SirScenario, build_composite, gil_pelaez_ccdf\n"
            "d = NakagamiM(m=1.0, mean_power=1.0)\n"
            "gil_pelaez_ccdf(build_composite(SirScenario(d, (d,), 1.0)), 0.0)\n"
            "print('numpy.polynomial' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_runtime_imports_no_scipy(tmp_path):
    # every command and method loads nothing from a file but numpy and the
    # standard library (Cython's runtime modules have no file): scipy is a
    # test-only oracle, and no schema library is needed
    cfg = base_config(grid={"start_db": -2.0, "stop_db": 2.0, "step_db": 2.0},
                      monte_carlo={"samples": 2000, "seed": 1, "batches": 4})
    cfg_path = write_config(tmp_path, cfg)
    runs = [["capacity", cfg_path, "--method", "spa,gil_pelaez,monte_carlo",
             "--output", str(tmp_path / "capacity.csv")],
            ["outage", cfg_path, "--method", "spa,gil_pelaez,monte_carlo,closed_form",
             "--output", str(tmp_path / "outage.csv")]]
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "from sirspa.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "loaded = {m.split('.')[0] for m in set(sys.modules) - before\n"
            "          if getattr(sys.modules[m], '__file__', None)}\n"
            "print(json.dumps([codes, sorted(loaded - sys.stdlib_module_names"
            " - {'numpy', 'sirspa'})]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [[EXIT_OK, EXIT_OK], []]
    if sys.version_info >= (3, 11):
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
        assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]
