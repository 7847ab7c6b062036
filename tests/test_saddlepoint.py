"""Saddle solver and Lugannani-Rice tail: roots, branches, exactness."""

import itertools
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr

from sirspa import (
    DivergedSolver,
    GaussianTest,
    Hoyt,
    NakagamiM,
    Rician,
    SirScenario,
    ThresholdGrid,
    build_composite,
    ccdf,
    ccdf_at_mean,
    gil_pelaez_ccdf,
    outage_curve,
    solve_saddle,
)
from sirspa import saddlepoint
from sirspa.config import load_config
from sirspa.exceptions import InvalidScenario, NoSaddleInStrip
from sirspa.fading import AtomBlock, gamma, linear, quadratic
from sirspa.saddlepoint import ccdf_block

from conftest import CONFIG_DIR, layout_atoms, random_scenario


def nakagami_saddle_closed_form(m0, lam0, m, lam, L, q):
    """Root of q*L*m/(lam - q*t) = m0/(lam0 + t) for identical interferers."""
    return (m0 * lam / q - L * m * lam0) / (L * m + m0)


def identical_nakagami_scenario(rng):
    m0 = float(rng.uniform(0.5, 4.0))
    m = float(rng.uniform(0.5, 4.0))
    p0 = float(10.0 ** (rng.uniform(0.0, 8.0) / 10.0))
    p = float(10.0 ** (rng.uniform(-4.0, 4.0) / 10.0))
    L = int(rng.integers(1, 9))
    q = float(10.0 ** (rng.uniform(-10.0, 20.0) / 10.0))
    s = SirScenario(
        desired=NakagamiM(m=m0, mean_power=p0),
        interferers=tuple(NakagamiM(m=m, mean_power=p) for _ in range(L)),
        threshold_q=q)
    return s, nakagami_saddle_closed_form(m0, m0 / p0, m, m / p, L, q)


def gaussian_composite(mu=0.0, sigma2=1.0):
    # interference term carries the mean and half the variance; the rest
    # sits in the desired signal so the composite is exactly N(mu, sigma2)
    s = SirScenario(
        desired=GaussianTest(mu=1.0, sigma2=0.5 * sigma2),
        interferers=(GaussianTest(mu=mu + 1.0, sigma2=0.5 * sigma2),),
        threshold_q=1.0)
    return build_composite(s)


class TestSolveSaddle:
    def test_closed_form_example(self):
        s = SirScenario(desired=NakagamiM(m=2.0, mean_power=2.0),
                        interferers=(NakagamiM(m=1.0, mean_power=1.0),),
                        threshold_q=1.0)
        sol = solve_saddle(build_composite(s), 0.0)
        assert sol.converged
        assert sol.t_hat == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_gaussian_one_newton_step(self):
        # composite K'(t) = 1 + 4t, so the first Newton step lands exactly
        s = SirScenario(desired=GaussianTest(mu=1.0, sigma2=2.0),
                        interferers=(GaussianTest(mu=2.0, sigma2=2.0),),
                        threshold_q=1.0)
        c = build_composite(s)
        sol = solve_saddle(c, 3.0)
        assert sol.t_hat == pytest.approx(0.5, abs=1e-15)
        assert sol.iterations <= 2

    def test_symmetric_pair_near_mean(self):
        d = NakagamiM(m=1.0, mean_power=1.0)
        c = build_composite(SirScenario(desired=d, interferers=(d,), threshold_q=1.0))
        sol = solve_saddle(c, 0.0)
        assert sol.t_hat == 0.0
        assert sol.near_mean

    def test_fig2_scenario_budget(self):
        s = SirScenario(
            desired=Rician(r=2.0, mean_power=10.0 ** 0.5),
            interferers=tuple(Rician(r=0.5, mean_power=1.0) for _ in range(5)),
            threshold_q=1.0)
        c = build_composite(s)
        sol = solve_saddle(c, 0.0)
        assert sol.converged
        assert sol.iterations <= 10
        scale = 1e-8 * max(1.0, math.sqrt(c.variance))
        assert abs(c.k1(sol.t_hat)) <= scale

    @pytest.mark.parametrize("desired, interferers, q_db", [
        (NakagamiM(m=1.5, mean_power=10.0 ** 0.5), (NakagamiM(m=0.5, mean_power=1.0),) * 5, 5.0),
        (NakagamiM(m=1.0, mean_power=1.0), (NakagamiM(m=1.0, mean_power=1.0),), 0.0),
    ], ids=["fig1_m0=1.5_5dB", "rayleigh_pair"])
    def test_root_one_ulp_inside_bracket_edge(self, desired, interferers, q_db):
        # the bracket probe at strip.lower / 2 lands one ulp past the root,
        # so every Newton step from 0 overshoots that bracket edge
        s = SirScenario(desired=desired, interferers=interferers,
                        threshold_q=10.0 ** (q_db / 10.0))
        c = build_composite(s)
        x = math.nextafter(c.k1(c.strip.lower / 2), math.inf)
        sol = solve_saddle(c, x)
        assert sol.converged
        assert sol.iterations <= 10

    def test_closed_form_randomized(self, rng):
        for _ in range(200):
            s, t_exact = identical_nakagami_scenario(rng)
            c = build_composite(s)
            sol = solve_saddle(c, 0.0)
            assert sol.converged
            assert abs(sol.t_hat - t_exact) <= 1e-8
            assert sol.iterations <= 25

    def test_against_bisection_oracle(self, rng):
        for _ in range(1000):
            s = random_scenario(rng)
            c = build_composite(s)
            sol = solve_saddle(c, 0.0)
            assert sol.converged
            if sol.near_mean:
                continue
            # independent bracketing (geometric approach to the edges) + Brent
            lo_b, hi_b = sorted((0.0, sol.t_hat))
            while c.k1(lo_b) > 0.0:
                lo_b = 0.5 * (lo_b + c.strip.lower)
            while c.k1(hi_b) < 0.0:
                hi_b = 0.5 * (hi_b + c.strip.upper)
            t_bisect = brentq(c.k1, lo_b, hi_b, xtol=1e-13, rtol=8.9e-16)
            assert abs(sol.t_hat - t_bisect) <= 1e-7 * (1.0 + abs(t_bisect))

    def test_validity_conditions_at_zero(self, rng):
        for _ in range(100):
            s = random_scenario(rng)
            c = build_composite(s)
            sol = solve_saddle(c, 0.0)
            if sol.near_mean:
                continue
            k, k2 = c.k(sol.t_hat), c.k2(sol.t_hat)
            assert k < 0.0
            assert k2 > 0.0
            assert math.copysign(1.0, sol.w) == math.copysign(1.0, sol.t_hat)
            assert math.copysign(1.0, sol.u) == math.copysign(1.0, sol.t_hat)
            assert 2.0 * (0.0 * sol.t_hat - k) >= 0.0

    def test_iteration_budget_on_shipped_configs(self):
        for name in ("fig1.json", "fig2.json", "fig3.json", "fig4.json"):
            cfg = load_config(CONFIG_DIR / name)
            for curve in cfg.curves:
                for q_db in cfg.grid.values_db()[::4]:
                    q = 10.0 ** (float(q_db) / 10.0)
                    c = build_composite(replace(curve.template, threshold_q=q))
                    sol = solve_saddle(c, 0.0)
                    assert sol.converged
                    assert sol.iterations <= 25

    def test_rounds_stay_within_the_old_budget(self, rng):
        # the fixed budget, _MAX_ITER = 200, was 50 before the one retry at 4x
        # went: a row that converges in at most 50 rounds gives the same
        # numbers under either, so the change moved no output on this
        # traffic. All four families as signal and interferers, Rician r up
        # to 50, 1-64 interferers at -40 to 40 dBm, half with noise; the
        # slowest rows, about 40 rounds, are a weak Rician signal far below
        # N0 (this sweep peaks at 24)
        def distribution():
            family = int(rng.integers(4))
            power = float(10.0 ** (rng.uniform(-40.0, 40.0) / 10.0))
            if family == 0:
                return NakagamiM(m=float(rng.uniform(0.5, 8.0)), mean_power=power)
            if family == 1:
                return Rician(r=float(rng.uniform(0.0, 50.0)), mean_power=power)
            if family == 2:
                return Hoyt(b=float(rng.uniform(-0.99, 0.99)), mean_power=power)
            return GaussianTest(mu=power, sigma2=float((power * rng.uniform(0.05, 1.0)) ** 2))

        curves = [(cv.template, cfg.grid) for cfg in (
            load_config(CONFIG_DIR / f"fig{i}.json") for i in range(1, 5)) for cv in cfg.curves]
        grid = ThresholdGrid(-40.0, 60.0, 2.5)
        for i in range(200):
            noise = float(10.0 ** (rng.uniform(-40.0, 40.0) / 10.0)) if i % 2 else 0.0
            curves.append((SirScenario(
                desired=distribution(),
                interferers=tuple(distribution() for _ in range(int(rng.integers(1, 65)))),
                threshold_q=1.0, noise_power=noise), grid))
        rounds = []
        for template, grid in curves:
            results = outage_curve(template, grid, "spa")
            assert not any((r.error or "").startswith("DivergedSolver") for r in results)
            rounds += [r.iterations for r in results if r.error is None]
        assert len(rounds) >= 9000
        assert max(rounds) <= 50

    def test_nonfinite_x_rejected(self):
        # K' crosses no infinite or NaN x: the solve fails as for any x
        # beyond K''s range
        c = gaussian_composite()
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(NoSaddleInStrip):
                solve_saddle(c, x)

    @pytest.mark.parametrize("desired, interferer, q, x_inside, t_inside", [
        # q * s of the interferer rounds to 0: the strip is (-1, inf)
        (NakagamiM(1.0, 1.0), NakagamiM(1.0, 1e-200), 1e-150, -2.0, -0.5),
        # the signal's scale rounds to 0: the strip is (-inf, 1)
        (NakagamiM(2.0, 5e-324), NakagamiM(1.0, 1.0), 1.0, 2.0, 0.5),
    ], ids=["upper", "lower"])
    def test_no_root_beyond_the_linear_limit(self, desired, interferer, q, x_inside, t_inside):
        # with neither a pole nor a quadratic atom on one side, K' tends there
        # to the linear atoms' slope, 0 here, so x = 0 has no root. The solve
        # used to stop at t = +-536870911 after 29 iterations, where
        # |K'| = 1.9e-9 met tol, and report p = 4.5e-10 or 1 - 4.5e-10
        c = build_composite(SirScenario(desired, (interferer,), q))
        with pytest.raises(NoSaddleInStrip, match="does not cross x=0.0"):
            solve_saddle(c, 0.0)
        (row,) = ccdf_block(c.scenario, [q], [0.0])
        assert isinstance(row, NoSaddleInStrip)
        sol = solve_saddle(c, x_inside)
        assert sol.converged and sol.t_hat == pytest.approx(t_inside, rel=1e-12)

    def test_bracket_probe_far_below_interferer_scale(self):
        # q = 2**60 on the Rayleigh pair: the probe at t = -0.5 evaluates K at
        # u = q * t ~ -5.8e17 for the interferer atom
        d = NakagamiM(m=1.0, mean_power=1.0)
        c = build_composite(SirScenario(desired=d, interferers=(d,), threshold_q=2.0 ** 60))
        assert math.isfinite(c.k(-0.5))
        p, sol = ccdf(c, 0.0)
        assert 0.0 <= p <= 1.0 and sol.converged


class TestWarmStart:
    """Evaluation counts of a solve. Solves once could start from a previous
    saddle point; every solve now starts from the root of its own two-pole
    model of K', and the counts still hold."""

    def test_one_k_pass_per_solve(self, rng, monkeypatch):
        # the Newton loop reads K' and K'' only; K, whose gamma shape costs a
        # series or an atanh, is summed once, at the root
        passes = [0]
        k = AtomBlock.k

        def counting(self, t):
            passes[0] += 1
            return k(self, t)

        monkeypatch.setattr(AtomBlock, "k", counting)
        iterations = 0
        for _ in range(50):
            c = build_composite(random_scenario(rng))
            passes[0] = 0
            sol = solve_saddle(c, 0.0)
            assert sol.converged and passes == [1]
            iterations += sol.iterations
        assert iterations >= 150

    def test_one_evaluation_per_iteration(self, rng, monkeypatch):
        # the first evaluation is at the start, and is the first iteration;
        # the round that stops needs no new evaluation
        evals = [0]
        k12 = AtomBlock.k12

        def counting(self, t):
            evals[0] += 1
            return k12(self, t)

        monkeypatch.setattr(AtomBlock, "k12", counting)
        for _ in range(50):
            c = build_composite(random_scenario(rng))
            evals[0] = 0
            sol = solve_saddle(c, 0.0)
            assert sol.converged and evals[0] == sol.iterations
        # out of iterations: the last iterate is evaluated once, for its
        # residual and for w and u
        c = build_composite(random_scenario(rng))
        evals[0] = 0
        monkeypatch.setattr(saddlepoint, "_MAX_ITER", 1)
        sol = solve_saddle(c, 0.0)
        assert not sol.converged and evals[0] == 2


class TestTwoPoleStart:
    """The start is the root of A+/(1 - t/p+) - A-/(1 - t/p-) = x, which is
    K'(t) = x itself when each side of q * I - S is one gamma atom."""

    @pytest.mark.parametrize("q", [2.0 ** k for k in range(61)] + [1e150])
    def test_rayleigh_pair(self, q):
        # at the old start, 0, the root was 28% off at 2**30 and 100% off at
        # 2**40, with converged=True. At 2**53 the start is the root, but K'
        # with its linear parts in the mean rounds to -1 there (its terms
        # are +-(2**53 - 1)), so the polish moved t by 4% until such rows
        # summed whole atoms
        d = NakagamiM(m=1.0, mean_power=1.0)
        c = build_composite(SirScenario(desired=d, interferers=(d,), threshold_q=q))
        sol = solve_saddle(c, 0.0)
        exact = (1.0 - q) / (2.0 * q)
        assert sol.converged and sol.iterations <= 2
        assert abs(sol.t_hat - exact) <= 1e-12 * abs(exact)

    def test_rayleigh_pair_far_tail(self):
        # at the exact root t = -1/2 the interferer atom sits at u = -q/2, and
        # K with its linear part in the mean, -q/2 + (q/2 - log(1 + q/2)),
        # rounds the log away from 2**61 on: w came out 0, and p 0.73 from
        # the near-mean branch, until such rows summed whole atoms.
        # Lugannani-Rice's own error here is 1.1e-10.
        d = NakagamiM(m=1.0, mean_power=1.0)
        for q in [2.0 ** k for k in range(30, 65)] + [1e150]:
            c = build_composite(SirScenario(desired=d, interferers=(d,), threshold_q=q))
            p, sol = ccdf(c, 0.0)
            assert not sol.near_mean and abs(p - q / (1.0 + q)) <= 2e-10, q

    def test_fig1_merged_interferers(self):
        # five m = 0.5 interferers of one scale merge into one gamma atom
        cfg = load_config(CONFIG_DIR / "fig1.json")
        for curve in cfg.curves:
            s = curve.template
            m0, p0 = s.desired.m, s.desired.mean_power
            ((m, p),), L = {(d.m, d.mean_power) for d in s.interferers}, len(s.interferers)
            for q_db in cfg.grid.values_db():
                q = 10.0 ** (float(q_db) / 10.0)
                sol = solve_saddle(build_composite(replace(s, threshold_q=q)), 0.0)
                exact = nakagami_saddle_closed_form(m0, m0 / p0, m, m / p, L, q)
                assert sol.converged and sol.iterations <= 2
                assert abs(sol.t_hat - exact) <= 1e-12 * abs(exact), (curve.label, q_db)

    def test_gaussian_interferers_beside_gamma_ones(self):
        # a Gaussian-family interferer's slope counts in A+ once a gamma or
        # noncentral interferer bounds the strip above. Counted in A-, it
        # put the start far from the root: at 10 dB the solve took 73 Newton
        # steps, past the default budget of 50
        def mw(dbm):
            return 10.0 ** (dbm / 10.0)
        c = build_composite(SirScenario(
            desired=Rician(r=2.415, mean_power=mw(8.08)),
            interferers=(GaussianTest(mu=0.5638, sigma2=0.03572),
                         NakagamiM(m=0.6348, mean_power=mw(-3.517)),
                         Rician(r=1.2254, mean_power=mw(-8.516)),
                         GaussianTest(mu=0.14388, sigma2=0.09993)),
            threshold_q=1.0))
        qs = 10.0 ** (np.arange(-10.0, 10.5, 0.5) / 10.0)
        for q, row in zip(qs.tolist(), ccdf_block(c.scenario, qs, np.zeros(len(qs)))):
            assert isinstance(row, tuple) and row[4] <= 5, q

    @pytest.mark.parametrize("noise_power", [1e9, 1e12])
    def test_heavy_noise_resolved_to_float_precision(self, noise_power):
        # x = -N0 puts the root within 1/N0 of the signal pole, where one ulp
        # of t moves K' by ~N0**2 * 1e-16, more than tol * |x|: the solve
        # stops once its Newton correction is within a few ulps of t
        d = NakagamiM(m=1.0, mean_power=1.0)
        c = build_composite(SirScenario(desired=d, interferers=(d,), threshold_q=1.0))
        p, sol = ccdf(c, -noise_power)
        assert sol.converged
        assert abs(p - (1.0 - 0.5 * math.exp(-noise_power))) <= 1e-9

    def test_final_step_stays_in_the_strip(self, monkeypatch):
        # without whole-atom sums K' is rounding noise at these roots, and
        # the last Newton step, -g/K'', took 205 of these rows out of the
        # strip (t = -202.9 at q = 1.83e19, strip (-1, 2.7e-20)) with
        # converged=True
        monkeypatch.setattr(AtomBlock, "sum_whole", lambda self, t: None)
        d = NakagamiM(m=1.0, mean_power=1.0)
        c = build_composite(SirScenario(desired=d, interferers=(NakagamiM(m=0.5, mean_power=1.0),),
                                        threshold_q=1.0))
        qs = 2.0 ** np.linspace(54.8, 64.0, 2000) - 1.0
        # a row that did not converge would be a DivergedSolver, not a tuple
        for q, row in zip(qs.tolist(), ccdf_block(c.scenario, qs, np.zeros(len(qs)))):
            assert isinstance(row, tuple) and c.scenario.at(q).strip.contains(row[1]), q


class TestLugannaniRice:
    def test_gaussian_exactness_spot(self):
        c = gaussian_composite(mu=0.0, sigma2=1.0)
        x = 1.6448536269514722  # standard normal 95% quantile
        p, sol = ccdf(c, x)
        assert not sol.near_mean
        assert p == pytest.approx(1.0 - ndtr(x), abs=1e-13)
        assert p == pytest.approx(0.05, abs=1e-10)

    @pytest.mark.parametrize("fig, label", [("fig1.json", "m0=1.75"), ("fig2.json", "r0=0")])
    def test_near_mean_matches_high_precision(self, fig, label):
        # at -2 dB the saddle point is ~7e-4: the interferer and signal terms
        # of K and K' nearly cancel, so their rounding shows in the tail value
        mp = pytest.importorskip("mpmath")
        template = next(cv.template for cv in load_config(CONFIG_DIR / fig).curves
                        if cv.label == label)
        c = build_composite(replace(template, threshold_q=10.0 ** -0.2))
        p, sol = ccdf(c, 0.0)
        shapes = {"gamma": lambda u: -mp.log1p(-u), "noncentral": lambda u: u / (1 - u)}
        atoms = layout_atoms(c._layout)
        with mp.workdps(40):
            def k(t):
                return mp.fsum(w * shapes[f.__name__](s * t) for f, w, s in atoms)
            t = mp.findroot(lambda t: mp.diff(k, t), mp.mpf(sol.t_hat))
            w = mp.sign(t) * mp.sqrt(-2 * k(t))
            u = t * mp.sqrt(mp.diff(k, t, 2))
            ref = mp.ncdf(-w) + mp.npdf(w) * (1 / u - 1 / w)
        assert abs(p - ref) <= 1e-12

    def test_gaussian_exactness_grid(self):
        mu, sigma2 = 2.0, 4.0
        c = gaussian_composite(mu=mu, sigma2=sigma2)
        sigma = math.sqrt(sigma2)
        for x in np.linspace(mu - 6 * sigma, mu + 6 * sigma, 101):
            p, _ = ccdf(c, float(x))
            # the interpolation anchors at mean +- delta suffer a benign
            # floating-point cancellation in x*t - K(t) when mu != 0
            tol = 1e-9 if abs(x - mu) < 0.01 * sigma else 1e-12
            assert abs(p - ndtr((mu - x) / sigma)) <= tol

    def test_diverged_solver_raises(self, monkeypatch):
        # fig3's start is not its root (several atoms per side), so one
        # iteration does not meet it; with one gamma atom per side it would
        monkeypatch.setattr(saddlepoint, "_MAX_ITER", 1)
        for curve in load_config(CONFIG_DIR / "fig3.json").curves:
            c = build_composite(replace(curve.template, threshold_q=1.0))
            assert not solve_saddle(c, 0.0).converged
            with pytest.raises(DivergedSolver, match="did not converge at x=0.0"):
                ccdf(c, 0.0)


class TestBreakdownBranch:
    def test_gaussian_mean_value(self):
        assert ccdf_at_mean(gaussian_composite(mu=3.0, sigma2=2.0)) == 0.5

    def test_symmetric_pair_mean_value(self):
        d = NakagamiM(m=1.0, mean_power=1.0)
        c = build_composite(SirScenario(desired=d, interferers=(d,), threshold_q=1.0))
        assert ccdf_at_mean(c) == pytest.approx(0.5, abs=1e-13)

    def test_skewness_branch_vs_gil_pelaez(self):
        # q chosen so E[gamma] = 0: q = p0_bar / (sum of interferer means)
        s = SirScenario(desired=NakagamiM(m=1.0, mean_power=2.0),
                        interferers=(NakagamiM(m=2.0, mean_power=1.0),),
                        threshold_q=2.0)
        c = build_composite(s)
        assert abs(c.mean) < 1e-14
        p_gp, _ = gil_pelaez_ccdf(c, 0.0)
        assert abs(ccdf_at_mean(c) - p_gp) <= 5e-3

    def test_interpolate_and_skewness_agree_near_mean(self):
        s = SirScenario(desired=NakagamiM(m=1.0, mean_power=2.0),
                        interferers=(NakagamiM(m=2.0, mean_power=1.0),),
                        threshold_q=2.0)
        c = build_composite(s)
        p, sol = ccdf(c, 0.0)
        assert sol.near_mean
        assert abs(p - ccdf_at_mean(c)) <= 1e-3

    def test_skewness_is_scale_free(self):
        # at 1e110 mW, kappa2**1.5 and the cube of a scale overflow a float
        c = build_composite(SirScenario(desired=NakagamiM(m=1.0, mean_power=1e110),
                                        interferers=(NakagamiM(m=2.0, mean_power=1e110),),
                                        threshold_q=1.0))
        assert abs(ccdf_at_mean(c) - 0.5542891679892133) <= 1e-15  # its value at 1e100 mW

    def test_linear_atom_at_a_huge_scale(self):
        # a signal of mean 1e-90 and variance 1e-208 over an interferer that
        # adds nothing: scaled by 1/sigma = 1e104, the Gaussian's atoms have
        # a scale**3 beyond the float range, but they add 0 to kappa3
        c = build_composite(SirScenario(desired=GaussianTest(mu=1e-90, sigma2=1e-208),
                                        interferers=(NakagamiM(m=1.0, mean_power=1e-200),),
                                        threshold_q=1.0))
        assert ccdf_at_mean(c) == 0.5

    def test_anchors_round_to_the_mean_at_huge_variance(self):
        # both anchors round to the mean, whose skewness term raised an
        # OverflowError from kappa2**1.5
        c = build_composite(SirScenario(desired=GaussianTest(mu=1.0, sigma2=0.5),
                                        interferers=(GaussianTest(mu=1e124, sigma2=1e220),),
                                        threshold_q=1.0))
        p, sol = ccdf(c, c.mean)
        assert sol.near_mean and 0.0 <= p <= 1.0

    def test_near_mean_values_pinned(self):
        # interpolated between mean -+ 1e-3 standard deviations; the values
        # are those of the first implementation, to the last bit
        c = build_composite(SirScenario(desired=NakagamiM(m=1.0, mean_power=2.0),
                                        interferers=(NakagamiM(m=2.0, mean_power=1.0),),
                                        threshold_q=2.0))
        assert ccdf(c, 0.0)[0] == 0.5542890144214521
        d = NakagamiM(m=1.0, mean_power=1.0)
        c = build_composite(SirScenario(desired=d, interferers=(d,), threshold_q=1.0))
        assert ccdf(c, 0.0)[0] == 0.5
        c = gaussian_composite(mu=5.0, sigma2=2.0)
        p, sol = ccdf(c, 5.0 + 1e-9)
        assert sol.near_mean and p == 0.4999999997179052

    def test_gaussian_breakdown_limit(self):
        c = gaussian_composite(mu=5.0, sigma2=2.0)
        p, sol = ccdf(c, 5.0 + 1e-9)
        assert sol.near_mean
        assert p == pytest.approx(0.5, abs=1e-6)

    def test_anchors_round_to_the_mean(self):
        # |mean| / sigma = 1e14: mean -+ 1e-3 sigma both round to the mean, and
        # the branch returns their common value instead of dividing by 0
        c = build_composite(SirScenario(desired=GaussianTest(mu=1.0, sigma2=0.5),
                                        interferers=(GaussianTest(mu=1e14, sigma2=0.5),),
                                        threshold_q=1.0))
        delta = 1e-3 * math.sqrt(c.variance)
        assert c.mean - delta == c.mean + delta == c.mean
        p, sol = ccdf(c, c.mean)
        assert sol.near_mean and p == ccdf_at_mean(c) == 0.5

    def test_continuity_across_mean(self):
        s_template = SirScenario(
            desired=NakagamiM(m=1.0, mean_power=10.0 ** 0.5),
            interferers=tuple(NakagamiM(m=0.5, mean_power=1.0) for _ in range(5)),
            threshold_q=1.0)
        # sweep x through E[gamma] in small steps; no jump at the branch switch
        c = build_composite(s_template)
        sd = math.sqrt(c.variance)
        xs = c.mean + sd * np.linspace(-5e-3, 5e-3, 201)
        ps = [ccdf(c, float(x))[0] for x in xs]
        diffs = np.abs(np.diff(ps))
        assert float(diffs.max()) <= 1e-4


class TestCcdf:
    def test_rows_do_not_depend_on_interferer_order(self):
        # a Gaussian-family interferer beside gamma and noncentral ones: the
        # shapes of every order are laid out alike, so the rows are the same
        ints = (GaussianTest(mu=0.92, sigma2=0.05), NakagamiM(m=0.67, mean_power=0.41),
                Rician(r=1.57, mean_power=0.44))
        rows = [ccdf_block(SirScenario(Rician(r=2.38, mean_power=9.17), order, threshold_q=1.0),
                           [0.1, 0.3, 1.0, 3.0], [0.0] * 4)
                for order in itertools.permutations(ints)]
        assert all(r == rows[0] for r in rows)

    def test_monotone_and_limits(self):
        c = gaussian_composite(mu=0.0, sigma2=1.0)
        xs = np.linspace(-8.0, 8.0, 100)
        ps = [ccdf(c, float(x))[0] for x in xs]
        assert ps[0] >= 1.0 - 1e-12
        assert ps[-1] <= 1e-12
        assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))

    def test_probability_range_randomized(self, rng):
        for _ in range(100):
            s = random_scenario(rng)
            c = build_composite(s)
            p, sol = ccdf(c, 0.0)
            assert 0.0 <= p <= 1.0
            assert sol.converged

    def test_block_marks_a_variance_underflow(self):
        # the signal's variance underflows to 0, and at q = 1e-30 the
        # interferer's too: that row carries a typed error, and the other
        # row is solved
        c = build_composite(SirScenario(desired=NakagamiM(1.0, 1e-170),
                                        interferers=(GaussianTest(1e-160, 1e-300),),
                                        threshold_q=1.0))
        ok, underflow = ccdf_block(c.scenario, [1.0, 1e-30], [0.0, 0.0])
        assert isinstance(ok, tuple) and ok[0] == pytest.approx(0.5)
        assert isinstance(underflow, InvalidScenario)
        assert str(underflow) == "threshold q=1e-30 underflows the variance of q * I - S to 0"

    def test_nonfinite_x_rows(self):
        # an infinite or NaN x fails its own row, as an x beyond K''s range
        # does; the finite row beside them is its one-point solve
        s = SirScenario(desired=Rician(r=2.0, mean_power=4.0),
                        interferers=(NakagamiM(0.7, 1.0), NakagamiM(2.5, 0.5)), threshold_q=1.0)
        xs = [math.nan, math.inf, 0.3, -math.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = ccdf_block(s, [1.0] * len(xs), xs)
        for x, row in zip(xs, rows):
            if math.isfinite(x):
                p, sol = ccdf(s.at(1.0), x)
                assert row == (p, sol.t_hat, sol.w, sol.u, sol.iterations, sol.near_mean,
                               sol.clamped)
                assert sol.iterations > 1
            else:
                assert isinstance(row, NoSaddleInStrip)
                assert str(row) == f"K' does not cross x={x} inside the strip"

    def test_unplaceable_rows_are_rows_of_the_one_block(self, monkeypatch):
        # the signal's variance underflows on its own: below q ~ 1e-12 the
        # variance of q * I - S underflows to 0, and from q ~ 1e304 its
        # cumulants overflow. Those rows stay in the one block, unsolved;
        # every other row is its one-point solve, the K'' underflow at 1e-3
        # included
        c = build_composite(SirScenario(desired=NakagamiM(1.0, 1e-170),
                                        interferers=(GaussianTest(1e-160, 1e-321),
                                                     NakagamiM(1.0, 1e-150)),
                                        threshold_q=1.0))
        qs = [1e-30, 1e-12, 1e-11, 1e-6, 1e-3, 1e100, 1e300, 1e306]
        blocks = []
        block = SirScenario.block

        def counting(self, qs):
            blocks.append(qs)
            return block(self, qs)

        monkeypatch.setattr(SirScenario, "block", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = ccdf_block(c.scenario, qs, [0.0] * len(qs))
        assert len(blocks) == 1
        monkeypatch.undo()
        assert [type(r).__name__ for r in rows] == ["InvalidScenario"] * 2 + ["tuple"] * 2 + [
            "InvalidScenario", "tuple", "InvalidScenario", "InvalidScenario"]
        for q, row in zip(qs, rows):
            try:
                p, sol = ccdf(c.scenario.at(q), 0.0)
            except InvalidScenario as exc:
                assert str(row) == str(exc), q
                continue
            assert row == (p, sol.t_hat, sol.w, sol.u, sol.iterations, sol.near_mean,
                           sol.clamped), q

    def test_quadratic_atom_far_out(self):
        # at the root t = -1.09e161 the Gaussian interferer's (s*t)**2 =
        # 1.2e322 overflows, although w * (s*t)**2 / 2 is about 6: K was inf,
        # w rounded to 0, and the point was taken as near-mean, p = 0.7327
        s = SirScenario(desired=NakagamiM(1.0, 1e-170),
                        interferers=(GaussianTest(1e-160, 1e-321), NakagamiM(1.0, 1e-150)),
                        threshold_q=1.0)
        c = build_composite(s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, sol = ccdf(c, 0.0)
            blk, t = s.block([1.0]), np.array([sol.t_hat])
            blk.sum_whole(t)  # as the solve sums K there
            k = blk.k(t).item()
        exact_f = {gamma: lambda z: -mpmath.log(1 - z), linear: lambda z: z,
                   quadratic: lambda z: z * z / 2}
        with mpmath.workdps(50):
            exact = float(mpmath.fsum(w * exact_f[f](mpmath.mpf(sc) * mpmath.mpf(sol.t_hat))
                                      for f, w, sc in layout_atoms(c._layout)))
        assert abs(k - exact) <= 1e-12 * abs(exact)
        assert not sol.near_mean
        assert abs(p - gil_pelaez_ccdf(c, 0.0)[0]) < 1e-3

    def test_curvature_underflow_is_typed(self):
        # the signal is 1e70 times weaker than the interferer at tiny powers:
        # the root t = -5e169 is right, but K'' there underflows to 0, so
        # u = t * sqrt(K'') = 0 and the tail formula cannot be evaluated
        c = build_composite(SirScenario(desired=NakagamiM(1.0, 1e-170),
                                        interferers=(NakagamiM(1.0, 1e-100),),
                                        threshold_q=1.0))
        with pytest.raises(InvalidScenario, match="K'' underflows to 0 at the saddle point"):
            ccdf(c, 0.0)
        (row,) = ccdf_block(c.scenario, [1.0], [0.0])
        assert isinstance(row, InvalidScenario)
