"""High-level metrics: outage curves, SINR outage, ergodic capacity."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from sirspa import (
    GaussianTest,
    MonteCarloConfig,
    NakagamiM,
    OutageResult,
    monte_carlo_outage,
    SirScenario,
    ThresholdGrid,
    ergodic_capacity,
    monte_carlo_capacity,
    outage_curve,
    outage_point,
)
from sirspa import analysis, build_composite, composite, saddlepoint
from sirspa.analysis import METHODS, db_to_linear
from sirspa.config import load_config
from sirspa.exceptions import (
    InvalidScenario,
    QuadratureNotConverged,
    SirspaError,
    UnsupportedScenario,
)
from sirspa.fading import AtomBlock

from conftest import CONFIG_DIR, random_distribution, random_scenario, serial_batches


def fig1_template(m0: float = 1.0, noise_power: float = 0.0) -> SirScenario:
    return SirScenario(
        desired=NakagamiM(m=m0, mean_power=10.0 ** 0.5),
        interferers=tuple(NakagamiM(m=0.5, mean_power=1.0) for _ in range(5)),
        threshold_q=1.0, noise_power=noise_power)


def fig3_template(label: str = "b0=0.3") -> SirScenario:
    """A fig3 curve: a Hoyt signal under five b = 0.9 Hoyt interferers, whose
    K' the two-pole start does not give exactly."""
    return next(cv.template for cv in load_config(CONFIG_DIR / "fig3.json").curves
                if cv.label == label)


def rayleigh_pair_template() -> SirScenario:
    d = NakagamiM(m=1.0, mean_power=1.0)
    return SirScenario(desired=d, interferers=(d,), threshold_q=1.0)


class TestThresholdGrid:
    def test_values(self):
        grid = ThresholdGrid(-10.0, 20.0, 0.5)
        vals = grid.values_db()
        assert len(vals) == 61
        assert vals[0] == -10.0
        assert vals[-1] == 20.0

    def test_single_point(self):
        assert list(ThresholdGrid(3.0, 3.0, 1.0).values_db()) == [3.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdGrid(5.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            ThresholdGrid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ThresholdGrid(0.0, 2e6, 1e-3)

    @pytest.mark.parametrize("start_db,stop_db", [
        (3000.0, 3090.0),    # 10**309 overflows
        (-3300.0, -3200.0),  # 10**-330 underflows to 0
    ])
    def test_end_points_outside_float_range(self, start_db, stop_db):
        with pytest.raises(ValueError, match="dB"):
            ThresholdGrid(start_db, stop_db, 10.0)

    def test_end_points_inside_float_range(self):
        vals = ThresholdGrid(-3000.0, 3000.0, 1000.0).values_db()
        assert all(0.0 < db_to_linear(float(db)) < math.inf for db in vals)


class TestOutagePoint:
    def test_methods_agree_symmetric_pair(self):
        s = rayleigh_pair_template()
        results = {m: outage_point(s, m) for m in METHODS}
        assert results["closed_form"].p_out == pytest.approx(0.5)
        assert results["gil_pelaez"].p_out == pytest.approx(0.5, abs=1e-9)
        assert results["spa"].p_out == pytest.approx(0.5, abs=1e-3)
        se = results["monte_carlo"].error_estimate
        assert abs(results["monte_carlo"].p_out - 0.5) <= 4.0 * se

    def test_result_fields(self):
        r = outage_point(fig1_template(), "spa")
        assert r.method == "spa"
        assert r.q_linear == pytest.approx(db_to_linear(r.q_db))
        assert 0.0 <= r.p_out <= 1.0
        assert r.t_hat is not None and r.iterations is not None

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            outage_point(rayleigh_pair_template(), "bisection")

    def test_result_is_an_immutable_value(self):
        # fields, defaults, immutability and == of a frozen dataclass: equal
        # only to a result of equal fields, never to a plain tuple
        r = outage_point(fig1_template(), "spa")
        with pytest.raises(AttributeError):
            r.p_out = 0.5
        same = OutageResult(r.q_db, r.q_linear, r.p_out, "spa", r.t_hat, r.iterations,
                            r.near_mean, r.clamped)
        assert r == same and not r != same and hash(r) == hash(same)
        values = (r.q_db, r.q_linear, r.p_out, "spa", r.t_hat, r.iterations, r.near_mean,
                  r.clamped, None, None)
        assert r != values and not r == values
        assert r != OutageResult(r.q_db, r.q_linear, r.p_out + 1.0, "spa", r.t_hat)
        assert OutageResult(0.0, 1.0, 0.5, "gil_pelaez") == OutageResult(
            0.0, 1.0, 0.5, "gil_pelaez", None, None, False, False, None, None)


class TestOutageCurve:
    def test_monotone_in_threshold(self):
        grid = ThresholdGrid(-10.0, 20.0, 1.0)
        results = outage_curve(fig1_template(m0=1.0), grid, "spa")
        ps = [r.p_out for r in results]
        assert all(b >= a - 1e-6 for a, b in zip(ps, ps[1:]))
        assert all(r.error is None for r in results)

    def test_grid_db_values_passed_through(self):
        grid = ThresholdGrid(-5.0, 5.0, 2.5)
        results = outage_curve(fig1_template(), grid, "spa")
        assert [r.q_db for r in results] == [-5.0, -2.5, 0.0, 2.5, 5.0]

    def test_nonincreasing_in_signal_power(self):
        grid = ThresholdGrid(0.0, 0.0, 1.0)
        previous = 1.0
        for p0_dbm in (0.0, 5.0, 10.0):
            t = replace(fig1_template(), desired=NakagamiM(
                m=1.0, mean_power=10.0 ** (p0_dbm / 10.0)))
            p = outage_curve(t, grid, "spa")[0].p_out
            assert p <= previous + 1e-12
            previous = p

    def test_vanishing_threshold(self):
        grid = ThresholdGrid(-60.0, -60.0, 1.0)
        for m0 in (0.5, 1.0, 1.75):
            r = outage_curve(fig1_template(m0=m0), grid, "gil_pelaez")[0]
            assert r.p_out < 1e-3

    def test_failed_point_carries_error_marker(self, monkeypatch):
        # fig3: fig1's start is its root, which one iteration meets
        grid = ThresholdGrid(-3.0, 3.0, 3.0)
        monkeypatch.setattr(saddlepoint, "_MAX_ITER", 1)
        results = outage_curve(fig3_template(), grid, "spa")
        assert len(results) == 3
        for r in results:
            assert r.error is not None and "DivergedSolver" in r.error
            assert math.isnan(r.p_out)


    def test_monte_carlo_curve_matches_points(self):
        grid = ThresholdGrid(-4.0, 8.0, 2.0)
        mc = MonteCarloConfig(samples=3000, seed=11, batches=10)
        template = fig1_template(m0=0.75, noise_power=0.2)
        assert_curve_matches_points(template, grid, method="monte_carlo", monte_carlo=mc)

    def test_closed_form_curve_matches_points(self):
        # an exponential signal under Nakagami-m interferers, with noise
        results = assert_curve_matches_points(fig1_template(m0=1.0, noise_power=0.2),
                                              ThresholdGrid(-10.0, 20.0, 5.0),
                                              method="closed_form")
        assert all(r.error is None and 0.0 < r.p_out < 1.0 for r in results)
        assert [r.p_out for r in results] == sorted(r.p_out for r in results)

    def test_closed_form_curve_outside_its_scope(self):
        results = assert_curve_matches_points(fig1_template(m0=0.5),
                                              ThresholdGrid(-10.0, 20.0, 5.0),
                                              method="closed_form")
        assert [r.error.split(":")[0] for r in results] == ["UnsupportedScenario"] * 7

    @pytest.mark.parametrize("method", ["spa", "gil_pelaez"])
    def test_variance_underflow_marks_every_point(self, method):
        # both powers at -1700 dBm: the variance underflows to 0 at every
        # threshold, which fails each point with a typed error
        d = NakagamiM(m=1.0, mean_power=1e-170)
        template = SirScenario(desired=d, interferers=(d,), threshold_q=1.0)
        results = assert_curve_matches_points(template, ThresholdGrid(-3.0, 3.0, 3.0),
                                              method=method)
        assert [r.error for r in results] == [
            f"InvalidScenario: threshold q={r.q_linear!r} underflows the variance of "
            "q * I - S to 0" for r in results]

    def test_monte_carlo_failure_marks_every_point(self, monkeypatch):
        def fail(template, qs, mc):
            raise SirspaError("sampler broke")

        monkeypatch.setattr(analysis, "monte_carlo_curve", fail)
        grid = ThresholdGrid(-3.0, 3.0, 3.0)
        results = outage_curve(fig1_template(), grid, "monte_carlo")
        assert [r.q_db for r in results] == [-3.0, 0.0, 3.0]
        assert [r.q_linear for r in results] == [db_to_linear(q) for q in (-3.0, 0.0, 3.0)]
        for r in results:
            assert r.error == "SirspaError: sampler broke"
            assert math.isnan(r.p_out) and r.method == "monte_carlo"


def count_builds(monkeypatch) -> list[int]:
    """Count the layouts built from a scenario (``composite._layout_of``)."""
    builds = [0]
    layout_of = composite._layout_of

    def counting(atoms):
        builds[0] += 1
        return layout_of(atoms)

    monkeypatch.setattr(composite, "_layout_of", counting)
    return builds


class TestOneCompositePerCall:
    @pytest.mark.parametrize("method", ["spa", "gil_pelaez"])
    def test_outage_curve(self, method, monkeypatch):
        template = fig1_template(m0=1.5, noise_power=0.2)
        grid = ThresholdGrid(-10.0, 10.0, 2.0)
        builds = count_builds(monkeypatch)
        results = outage_curve(template, grid, method)
        assert builds == [1]
        assert len(results) == 11 and all(r.error is None for r in results)
        monkeypatch.undo()
        assert results == assert_curve_matches_points(template, grid, method=method)

    def test_outage_curve_without_a_composite(self):
        # no threshold has finite cumulants: every point carries the error
        template = replace(fig1_template(), interferers=(NakagamiM(1.0, 1e300),))
        results = outage_curve(template, ThresholdGrid(0.0, 4.0, 2.0), "spa")
        assert [r.error.split(":")[0] for r in results] == ["InvalidScenario"] * 3
        # nor where x = -q * N0 overflows too, at 4 dB: no unplaced row reads its x
        results = outage_curve(replace(template, noise_power=1e308),
                               ThresholdGrid(0.0, 4.0, 2.0), "spa")
        assert [r.error.split(":")[0] for r in results] == ["InvalidScenario"] * 3

    def test_spa_curve_past_the_cumulant_range(self):
        # built at 1530 dB, the curve's composite overflows from about 1542 dB
        # on: those points carry the error a build there raises
        results = assert_curve_matches_points(rayleigh_pair_template(),
                                              ThresholdGrid(1530.0, 1560.0, 5.0))
        assert [r.error is None for r in results] == [True] * 3 + [False] * 4
        assert all(r.error.startswith("InvalidScenario: threshold q=") for r in results[3:])

    @pytest.mark.parametrize("method", ["spa", "gil_pelaez", "closed_form"])
    def test_curve_from_unplaceable_to_placed(self, method):
        # the variance of q * I - S underflows to 0 below about -117 dB, where
        # no composite can be placed, and not above it
        template = SirScenario(desired=NakagamiM(1.0, 1e-170),
                               interferers=(NakagamiM(1.0, 1e-150),), threshold_q=1.0)
        results = assert_curve_matches_points(template, ThresholdGrid(-130.0, -100.0, 10.0),
                                              method=method)
        placed = [True] * 4 if method == "closed_form" else [False] * 2 + [True] * 2
        assert [r.error is None for r in results] == placed
        assert all("underflows the variance" in r.error for r in results if r.error)

    def test_noise_overflow_fails_points(self):
        # a -3000 dBm interferer with N0 = 10 mW: x = -q * N0 is -1e308 at
        # 3070 dB and overflows to -inf from 3075 dB on. Each row fails
        # alone, as an x beyond K''s range does
        template = SirScenario(desired=NakagamiM(1.0, 1.0),
                               interferers=(NakagamiM(1.0, 1e-300),), threshold_q=1.0,
                               noise_power=10.0)
        results = assert_curve_matches_points(template, ThresholdGrid(3070.0, 3080.0, 5.0))
        assert [r.error for r in results] == [
            f"NoSaddleInStrip: K' does not cross x={x} inside the strip"
            for x in (-1e308, -math.inf, -math.inf)]

    @pytest.mark.parametrize("method", ["spa", "gil_pelaez"])
    def test_ergodic_capacity(self, method, monkeypatch):
        builds = count_builds(monkeypatch)
        ergodic_capacity(fig1_template(m0=1.5), method)
        assert builds == [1]


def assert_curve_matches_points(template, grid, method="spa", monte_carlo=MonteCarloConfig()):
    """The curve of ``method`` against one-point results at its grid's
    thresholds: equal, bit for bit, errors included. For spa both run one
    solve, and a threshold's row of the block does not depend on the other
    rows."""
    results = outage_curve(template, grid, method, monte_carlo=monte_carlo)
    assert [(r.q_db, r.q_linear) for r in results] == [
        (float(q_db), db_to_linear(float(q_db))) for q_db in grid.values_db()]
    for r in results:
        try:
            ref = outage_point(replace(template, threshold_q=r.q_linear), method,
                               monte_carlo=monte_carlo, q_db=r.q_db)
        except SirspaError as exc:
            ref = analysis.error_result(r.q_db, r.q_linear, method, exc)
        assert repr(r) == repr(ref)
    return results


# Tail and near-mean points of fig1-fig4 (the first and last curve of each,
# at both ends of the grid and, for the first, at the point nearest the
# mean), as the warm-started solver of the first implementation gave them.
PINNED = [
    ("fig1", "m0=0.5", -10.0, 0.3035688706979602),  # 0.59 sd from the mean
    ("fig1", "m0=0.5", -2.0, 0.6368363916549988),  # 0.0015 sd
    ("fig1", "m0=0.5", 20.0, 0.9999367938738835),  # 1.6 sd
    ("fig1", "m0=1.75", -10.0, 0.06257661988496717),  # 1.1 sd
    ("fig1", "m0=1.75", 20.0, 0.9999787498321624),  # 1.6 sd
    ("fig2", "r0=0", -10.0, 0.14655998532249695),  # 0.84 sd
    ("fig2", "r0=0", -2.0, 0.6001594632041027),  # 0.0022 sd
    ("fig2", "r0=0", 20.0, 0.9999999814215763),  # 2.4 sd
    ("fig2", "r0=4", -10.0, 0.034843952069596326),  # 1.4 sd
    ("fig2", "r0=4", 20.0, 0.9999999983415344),  # 2.4 sd
    ("fig3", "b0=0", -10.0, 0.14408532770032767),  # 0.84 sd
    ("fig3", "b0=0", -2.0, 0.5714443786572576),  # 0.002 sd
    ("fig3", "b0=0", 20.0, 0.999998959596481),  # 1.7 sd
    ("fig3", "b0=0.9", -10.0, 0.2573236912611362),  # 0.62 sd
    ("fig3", "b0=0.9", 20.0, 0.999995490442802),  # 1.7 sd
    ("fig4", "m0=1", -10.0, 0.14768821810311497),  # 0.84 sd
    ("fig4", "m0=1", -2.0, 0.6177927422233278),  # 0.0023 sd
    ("fig4", "m0=1", 20.0, 0.9999999999999998),  # 3.6 sd
    ("fig4", "m0=4", -10.0, 0.005341153548787461),  # 1.7 sd
    ("fig4", "m0=4", 20.0, 1.0),  # 3.6 sd
]


class TestWarmStart:
    """The spa curve against its one-point results. A curve once started each
    point's solve from the previous point's saddle point; it now solves every
    point at once, each from the root of its own two-pole model of K', and
    must give what each point gives alone."""

    @pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3", "fig4"])
    def test_curve_matches_points_on_figures(self, fig):
        cfg = load_config(CONFIG_DIR / f"{fig}.json")
        iterations = []
        for curve in cfg.curves:
            results = assert_curve_matches_points(curve.template, cfg.grid)
            iterations += [r.iterations for r in results]
        assert max(iterations) <= 25

    def test_curve_matches_points_random(self, rng):
        # mixed families with and without noise, the Gaussian test family,
        # and the noise-free symmetric pair, whose 0 dB point sits on the mean
        grid = ThresholdGrid(-20.0, 30.0, 2.5)
        near_mean = 0
        iterations = []
        for i in range(100):
            if i % 10 == 8:
                d = random_distribution(rng)
                s = SirScenario(desired=d, interferers=(d,), threshold_q=1.0)
            elif i % 10 == 9:
                s = SirScenario(
                    desired=GaussianTest(mu=float(rng.uniform(1.0, 4.0)), sigma2=0.5),
                    interferers=tuple(GaussianTest(mu=float(rng.uniform(0.1, 1.0)),
                                                   sigma2=float(rng.uniform(0.01, 0.1)))
                                      for _ in range(int(rng.integers(1, 4)))),
                    threshold_q=1.0)
            else:
                s = random_scenario(rng)
            if i % 2:
                s = replace(s, noise_power=float(rng.uniform(0.0, 0.5)) * s.desired.mean)
            results = assert_curve_matches_points(s, grid)
            near_mean += sum(r.near_mean for r in results)
            iterations += [r.iterations for r in results if r.error is None]
        assert near_mean >= 5
        # 5.3 iterations per point from the two-pole start, 9.4 from t = 0
        assert np.mean(iterations) <= 7

    def test_heavy_interferer_start_beyond_next_strip(self):
        # t > 0 near the interferer pole 1/(q * s): a point's saddle point lies
        # outside the next point's strip, so the rows of one block are
        # bracketed by strips that do not overlap
        template = SirScenario(desired=NakagamiM(m=2.0, mean_power=10.0),
                               interferers=(NakagamiM(m=0.5, mean_power=1.0),) * 2,
                               threshold_q=1.0)
        grid = ThresholdGrid(-40.0, 20.0, 2.0)
        results = assert_curve_matches_points(template, grid)
        beyond = [b for a, b in zip(results, results[1:])
                  if a.t_hat > build_composite(replace(template, threshold_q=b.q_linear)).strip.upper]
        assert len(beyond) >= 10
        assert all(b.error is None and b.iterations <= 25 for b in beyond)

    def test_failed_point_restarts_cold(self, monkeypatch):
        # a point that fails leaves the others as they are alone: forced at
        # the fourth point, then from a budget that two points of a fig3
        # curve exceed (fig1's points all meet it from their exact start)
        grid = ThresholdGrid(-6.0, 6.0, 1.5)
        solves = []
        solutions = saddlepoint._solutions

        def fail_fourth(blk, x):
            solves.append(len(x))
            t, w, u, iterations, converged, *flags = solutions(blk, x)
            converged[3] = False
            return (t, w, u, iterations, converged, *flags)

        monkeypatch.setattr(saddlepoint, "_solutions", fail_fourth)
        results = outage_curve(fig1_template(), grid, "spa")
        monkeypatch.undo()
        assert solves == [9]
        assert results[3].error.startswith("DivergedSolver: saddle solver did not converge")
        assert [r.error for r in results].count(None) == 8
        for r in results[:3] + results[4:]:
            assert r == outage_point(replace(fig1_template(), threshold_q=r.q_linear), "spa",
                                     q_db=r.q_db)
        monkeypatch.setattr(saddlepoint, "_MAX_ITER", 3)
        results = assert_curve_matches_points(fig3_template(), grid)
        assert [r.error is None for r in results].count(False) == 2
        assert all(r.error.startswith("DivergedSolver") for r in results if r.error)

    def test_pinned_values(self):
        configs = {fig: load_config(CONFIG_DIR / f"{fig}.json")
                   for fig in ("fig1", "fig2", "fig3", "fig4")}
        for fig, label, q_db, p in PINNED:
            cfg = configs[fig]
            template = next(cv.template for cv in cfg.curves if cv.label == label)
            r = next(r for r in outage_curve(template, cfg.grid, "spa")
                     if r.q_db == q_db)
            assert abs(r.p_out - p) <= 1e-12, (fig, label, q_db)

    def test_one_solve_per_curve(self, monkeypatch):
        # the block's K' and K'' are evaluated once per lockstep round, not per
        # point: the count is the largest iteration count of the curve
        evals = [0]
        k12 = AtomBlock.k12

        def counting(self, t):
            evals[0] += 1
            return k12(self, t)

        monkeypatch.setattr(AtomBlock, "k12", counting)
        for points in (11, 51):
            evals[0] = 0
            grid = ThresholdGrid(-10.0, 15.0, 25.0 / (points - 1))
            results = outage_curve(fig1_template(m0=1.5, noise_power=0.2), grid, "spa")
            assert len(results) == points
            assert not any(r.error or r.near_mean for r in results)
            assert evals[0] == max(r.iterations for r in results) <= saddlepoint._MAX_ITER

    # lockstep rounds (``k12`` calls) per curve on the shipped grids: the
    # largest count over each figure's curves as measured, plus 2. From
    # t = 0 they were 11, 11, 15 and 14.
    ROUNDS = {"fig1": 2 + 2, "fig2": 7 + 2, "fig3": 8 + 2, "fig4": 7 + 2}

    @pytest.mark.parametrize("fig", sorted(ROUNDS))
    def test_rounds_per_curve(self, fig, monkeypatch):
        evals = [0]
        k12 = AtomBlock.k12

        def counting(self, t):
            evals[0] += 1
            return k12(self, t)

        monkeypatch.setattr(AtomBlock, "k12", counting)
        cfg = load_config(CONFIG_DIR / f"{fig}.json")
        for curve in cfg.curves:
            evals[0] = 0
            results = outage_curve(curve.template, cfg.grid, "spa")
            assert not any(r.error for r in results)
            assert evals[0] <= self.ROUNDS[fig], curve.label


class TestSinrOutage:
    def test_noise_free_limit(self):
        s0 = fig1_template(noise_power=0.0)
        s_eps = replace(s0, noise_power=1e-12)
        assert abs(outage_point(s_eps, "spa").p_out - outage_point(s0, "spa").p_out) <= 1e-9

    def test_noise_dominates(self):
        s = replace(fig1_template(), noise_power=1e6)
        assert outage_point(s, "spa").p_out >= 1.0 - 1e-6

    def test_matches_monte_carlo(self):
        # Monte Carlo counts q*(I + N0) > S; the analytic methods evaluate
        # the composite tail at x = -q*N0. Gil-Pelaez checks the convention
        # exactly; the saddlepoint value carries its usual method error.
        s = fig1_template(noise_power=1.0)
        r_gp = outage_point(s, "gil_pelaez")
        p_mc, se = monte_carlo_outage(s, MonteCarloConfig(samples=10 ** 6, seed=9))
        assert abs(r_gp.p_out - p_mc) <= 3.0 * max(se, 1e-4)
        assert abs(outage_point(s, "spa").p_out - r_gp.p_out) <= 1e-2


class TestErgodicCapacity:
    def test_zero_signal(self):
        t = replace(fig1_template(), desired=NakagamiM(m=1.0, mean_power=1e-10))
        cap, _ = ergodic_capacity(t, "spa")
        assert cap < 1e-3

    def test_monotone_in_signal_power(self):
        caps = []
        for p0_dbm in (0.0, 5.0, 10.0):
            t = replace(fig1_template(), desired=NakagamiM(
                m=1.0, mean_power=10.0 ** (p0_dbm / 10.0)))
            caps.append(ergodic_capacity(t, "spa")[0])
        assert caps[0] < caps[1] < caps[2]

    def test_spa_vs_gil_pelaez(self):
        t = fig1_template(m0=1.0)
        cap_spa, _ = ergodic_capacity(t, "spa")
        cap_gp, _ = ergodic_capacity(t, "gil_pelaez")
        assert abs(cap_spa - cap_gp) <= 1e-2

    def test_method_validation(self):
        with pytest.raises(ValueError):
            ergodic_capacity(fig1_template(), "monte_carlo")

    def test_closed_form_capacity_is_unsupported(self):
        # a known method without a capacity is a typed failure; an unknown
        # name is still a caller's error
        with pytest.raises(UnsupportedScenario, match="'closed_form'"):
            ergodic_capacity(fig1_template(), "closed_form")
        with pytest.raises(ValueError, match="'magic'"):
            ergodic_capacity(fig1_template(), "magic")

    def test_heavy_tail_gil_pelaez(self, cf_nodes):
        # one m=0.5 interferer: success (1 + lam*q)**-0.5 decays like
        # 2**(-c/2), so the integral runs to c = 64 and q ~ 2e19. Exact value
        # 2*atanh(r) / (r ln 2) with r = sqrt(1 - lam).
        t = SirScenario(desired=NakagamiM(m=1.0, mean_power=10.0 ** 0.5),
                        interferers=(NakagamiM(m=0.5, mean_power=1.0),),
                        threshold_q=1.0)
        r = math.sqrt(1.0 - 10.0 ** -0.5 / 0.5)
        exact = 2.0 * math.atanh(r) / (r * math.log(2.0))
        cap, err = ergodic_capacity(t, "gil_pelaez")
        # quadrature tolerance plus the tail beyond the 1e-8 truncation
        assert abs(cap - exact) <= 1e-9 + 1e-8 * exact
        # the error estimate covers the dropped tail
        assert err >= abs(cap - exact)
        assert cf_nodes[0] < 2_000_000

    def test_dropped_tail_covers_a_decay_that_slows_beyond_the_cap(self, monkeypatch):
        # success exp(-psi(c)): rate 0.5, a faster drop of 5 nepers centred at
        # c = 24, then rate 0.5 again. The probes stop at c_max = 32, and the
        # rate between 16 and 32 (0.81) is faster than the rate beyond; the
        # rate between 8 and 16 (0.50) is not
        def psi(c):
            return 0.5 * c + 2.5 * (1.0 + math.tanh((c - 24.0) / 2.0))

        def success(c):
            return math.exp(-psi(c))

        monkeypatch.setattr(analysis, "gil_pelaez_ccdf", lambda c, x: (
            -math.expm1(-psi(math.log2(1.0 + c.q))), 0.0))
        cap, err = ergodic_capacity(rayleigh_pair_template(), "gil_pelaez")
        tail = quad(success, 32.0, math.inf, epsabs=1e-18, epsrel=1e-12)[0]
        exact = quad(success, 0.0, 32.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0] + tail
        assert err >= abs(cap - exact) >= 1.5e-9
        # at the rate between the last two probes the tail would be 0.94e-9
        assert success(32.0) * 16.0 / (psi(32.0) - psi(16.0)) < 0.95e-9 < 0.99 * tail

    @pytest.mark.parametrize("template", [rayleigh_pair_template(),
                                          fig1_template(m0=1.5, noise_power=0.3)],
                             ids=["rayleigh-pair", "fig1-noise"])
    def test_spa_integrand_warm_start(self, template, monkeypatch):
        # in place of a warm start from the previous node's saddle point: one
        # block solve for the truncation probes c = 1, 2, ..., 64 and one per
        # batch of quadrature nodes; the capacity equals that of one solve per
        # node, bit for bit
        calls = []
        ccdf_block = analysis.ccdf_block

        def counting(s, qs, x):
            calls.append(len(qs))
            return ccdf_block(s, qs, x)

        monkeypatch.setattr(analysis, "ccdf_block", counting)
        batched = ergodic_capacity(template, "spa")
        assert calls[0] == 7 and len(calls) < 10 and max(calls[1:]) >= 40
        monkeypatch.setattr(analysis, "ccdf_block", lambda s, qs, x: [
            r for qi, xi in zip(qs, x) for r in ccdf_block(s, [qi], [xi])])
        assert ergodic_capacity(template, "spa") == batched

    @pytest.mark.parametrize("method", ["spa", "gil_pelaez"])
    def test_exhausted_budget_raises(self, method, monkeypatch):
        # m0 = 0.75 halves its first panel once; a budget of one panel stops before that
        monkeypatch.setattr(analysis, "_CAPACITY_PANELS", 1)
        with pytest.raises(QuadratureNotConverged, match="panels") as exc_info:
            ergodic_capacity(fig1_template(m0=0.75), method)
        assert math.isfinite(exc_info.value.value)
        assert math.isfinite(exc_info.value.error_estimate)
        assert exc_info.value.error_estimate > 1e-9

    @pytest.mark.parametrize("template", [rayleigh_pair_template(), fig1_template(m0=0.5),
                                          fig1_template(m0=0.75)],
                             ids=["rayleigh-pair", "fig1-m0.5", "fig1-m0.75"])
    @pytest.mark.parametrize("method", ["spa", "gil_pelaez"])
    def test_integrand_calls(self, template, method, monkeypatch):
        # the success probability 1 - O(c**m0) is smooth at 0 on s = sqrt(c);
        # on the c axis the halving refines towards c = 0 (Rayleigh pair: 706
        # calls)
        calls = [0]

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return wrapped

        def counting_points(fn):
            def wrapped(s, qs, *args):
                calls[0] += len(qs)
                return fn(s, qs, *args)
            return wrapped

        monkeypatch.setattr(analysis, "ccdf_block", counting_points(analysis.ccdf_block))
        monkeypatch.setattr(analysis, "gil_pelaez_ccdf",
                            counting(analysis.gil_pelaez_ccdf))
        ergodic_capacity(template, method)
        assert calls[0] <= 135

    @pytest.mark.parametrize("nan_at, message", [
        (lambda q: q >= 3.0, "at the probe c = 2 is not finite"),
        (lambda q: 1.5 < q < 2.5, "capacity nan with error estimate nan is not finite"),
    ], ids=["probe", "integrand"])
    @pytest.mark.parametrize("method", ["spa", "gil_pelaez"])
    def test_non_finite_success_raises(self, method, nan_at, message, monkeypatch):
        # a NaN success probability from the probe c = 2 (q = 3) on, where no
        # node of the integral up to c = 2 reads it, once gave a capacity
        # truncated at c = 2 with no error; one between the probes gave
        # (nan, nan)
        tails = analysis._tails

        def nan_tails(s, qs, *args):
            for q, tail in zip(qs, tails(s, qs, *args)):
                yield (math.nan, None) if nan_at(q) else tail

        monkeypatch.setattr(analysis, "_tails", nan_tails)
        with pytest.raises(InvalidScenario, match=message):
            ergodic_capacity(rayleigh_pair_template(), method)

    @pytest.mark.parametrize("method", ["spa", "gil_pelaez"])
    def test_truncation_at_the_cap_raises(self, method):
        # a strong signal over one m=0.5 interferer: success is still ~1e-7
        # at c = 64
        t = SirScenario(desired=NakagamiM(m=1.0, mean_power=1e6),
                        interferers=(NakagamiM(m=0.5, mean_power=1.0),),
                        threshold_q=1.0)
        with pytest.raises(QuadratureNotConverged, match="truncated") as exc_info:
            ergodic_capacity(t, method)
        # the exact integral up to c = 64 is 20.9316 (scipy quad of the
        # closed form); the saddlepoint value carries its method error
        assert exc_info.value.value == pytest.approx(20.931587583187124, rel=1e-2)
        if method == "gil_pelaez":
            assert exc_info.value.value == pytest.approx(20.931587583187124, abs=1e-8)

    def test_monte_carlo_capacity_oracle(self):
        cap, se = monte_carlo_capacity(rayleigh_pair_template(),
                                       MonteCarloConfig(samples=10 ** 6, seed=8))
        # exact value for the symmetric Rayleigh pair is 1/ln(2)
        assert abs(cap - 1.0 / math.log(2.0)) <= 4.0 * se

    def test_monte_carlo_capacity_reproducible(self):
        mc = MonteCarloConfig(samples=10 ** 5, seed=12)
        assert (monte_carlo_capacity(rayleigh_pair_template(), mc)
                == monte_carlo_capacity(rayleigh_pair_template(), mc))

    @pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
    @pytest.mark.parametrize("mc", [MonteCarloConfig(samples=20001, seed=13, batches=30),
                                    MonteCarloConfig(samples=5000, seed=14, batches=1)],
                             ids=["30-batches", "one-batch"])
    def test_monte_carlo_capacity_independent_of_workers(self, workers, mc):
        # the serial loop the thread pool replaces, kept as the reference
        template = fig1_template(m0=0.75, noise_power=0.2)
        caps = [np.log2(1.0 + p0 / (interference + template.noise_power))
                for p0, interference in serial_batches(template, mc)]
        weights = np.array([len(cap) / mc.samples for cap in caps])
        batch_means = np.array([float(np.mean(cap)) for cap in caps])
        if mc.batches > 1:
            se = float(np.std(batch_means, ddof=1)) / math.sqrt(mc.batches)
        else:
            se = float(np.std(caps[0], ddof=1)) / math.sqrt(mc.samples)
        expected = (float(np.dot(weights, batch_means)), se)
        assert monte_carlo_capacity(template, mc) == expected

    def test_monte_carlo_capacity_one_batch_error(self):
        # one batch: the within-batch spread, not a NaN
        cap, se = monte_carlo_capacity(rayleigh_pair_template(),
                                       MonteCarloConfig(samples=1000, seed=15, batches=1))
        assert 0.0 < se < 0.1
        assert abs(cap - 1.0 / math.log(2.0)) <= 4.0 * se
        # one sample: no estimate
        cap, se = monte_carlo_capacity(rayleigh_pair_template(),
                                       MonteCarloConfig(samples=1, seed=15, batches=1))
        assert math.isfinite(cap) and se == math.inf
