"""Reference methods: Gil-Pelaez inversion, Monte Carlo, closed form."""

import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from sirspa import (
    CompositeCgf,
    GaussianTest,
    Hoyt,
    InvalidScenario,
    MonteCarloConfig,
    NakagamiM,
    QuadratureNotConverged,
    Rician,
    SirScenario,
    UnsupportedScenario,
    build_composite,
    ccdf,
    ergodic_capacity,
    exponential_signal_closed_form,
    gil_pelaez_ccdf,
    monte_carlo_curve,
    monte_carlo_outage,
    outage_curve,
    solve_saddle,
)
from sirspa import oracles
from sirspa.config import load_config
from sirspa.oracles import RNG_ALGORITHM, map_batches

from conftest import CONFIG_DIR, complex_log_cf, layout_atoms, random_scenario, serial_batches


def rayleigh_pair(q: float = 1.0) -> SirScenario:
    d = NakagamiM(m=1.0, mean_power=1.0)
    return SirScenario(desired=d, interferers=(d,), threshold_q=q)


def fig1_scenario(m0: float, q: float) -> SirScenario:
    return SirScenario(
        desired=NakagamiM(m=m0, mean_power=10.0 ** 0.5),
        interferers=tuple(NakagamiM(m=0.5, mean_power=1.0) for _ in range(5)),
        threshold_q=q)


class TestGilPelaez:
    def test_integrand_limit_where_u_overflows(self):
        # a -1540 dBm signal under a -10 dBm interferer at 1525 dB: the
        # far-scale ladder runs to u ~ 1e307, and the last panel's nodes sit
        # at v ~ -5e-309, where u is inf. There z.imag * (u + 1/u) was
        # 0 * inf = nan, and the nan integral came back as p = 0.0
        s = SirScenario(desired=NakagamiM(m=1.0, mean_power=1e-154),
                        interferers=(NakagamiM(m=2.0, mean_power=0.1),),
                        threshold_q=10.0 ** 152.5)
        p, err = gil_pelaez_ccdf(build_composite(s), 0.0)
        assert abs(p - exponential_signal_closed_form(s)) <= 1e-9
        assert 0.0 <= err <= 1e-9

    def test_non_finite_integral_raises(self, monkeypatch):
        # a nan integral is no probability; it is never clamped into [0, 1],
        # and no panel budget mends it, so it is no QuadratureNotConverged.
        # It is known after the first pass, which once went on to spend the
        # whole panel budget
        c = build_composite(rayleigh_pair())
        calls = []

        def nan_cf(self, t):
            calls.append(np.size(t))
            return np.full(np.shape(t), complex("nan"))

        monkeypatch.setattr(CompositeCgf, "characteristic_function", nan_cf)
        with pytest.raises(InvalidScenario, match="not finite"):
            gil_pelaez_ccdf(c, 0.0)
        first_panels = len(oracles._initial_edges(c._layout, math.sqrt(c.variance))) - 1
        assert calls == [41 * first_panels]

    def test_gaussian_at_mean(self):
        s = SirScenario(desired=GaussianTest(mu=1.0, sigma2=0.5),
                        interferers=(GaussianTest(mu=1.0, sigma2=0.5),),
                        threshold_q=1.0)
        p, err = gil_pelaez_ccdf(build_composite(s), 0.0)
        assert p == pytest.approx(0.5, abs=1e-9)

    def test_degenerate_exponential(self, gp_budget):
        # a bare distribution exposes characteristic_function and mean,
        # which is all the inversion needs. The single-exponential CF decays
        # like 1/t, the slowest of all supported cases, so the oscillatory
        # tail needs a larger panel budget than the composite default.
        gp_budget(rel_tol=1e-6, max_panels=2 ** 17)
        p, err = gil_pelaez_ccdf(NakagamiM(m=1.0, mean_power=1.0), 1.0)
        assert p == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert err >= 0.0

    def test_matches_closed_form(self):
        for q_db in (-10.0, -3.0, 0.0, 5.0, 12.0, 20.0):
            s = fig1_scenario(m0=1.0, q=10.0 ** (q_db / 10.0))
            p_gp, _ = gil_pelaez_ccdf(build_composite(s), 0.0)
            assert abs(p_gp - exponential_signal_closed_form(s)) <= 1e-8

    def test_self_consistency(self, gp_budget):
        s = fig1_scenario(m0=1.5, q=2.0)
        c = build_composite(s)
        p1, err1 = gil_pelaez_ccdf(c, 0.0)
        gp_budget(rel_tol=oracles._REL_TOL / 2.0, abs_tol=oracles._ABS_TOL / 2.0)
        p2, _ = gil_pelaez_ccdf(c, 0.0)
        assert abs(p1 - p2) <= max(err1, 1e-12)

    def test_exhausted_budget_raises(self, gp_budget):
        # slowest-decaying case with a tiny panel budget
        gp_budget(rel_tol=1e-12, max_panels=16)
        with pytest.raises(QuadratureNotConverged) as exc_info:
            gil_pelaez_ccdf(NakagamiM(m=1.0, mean_power=1.0), 1.0)
        assert exc_info.value.error_estimate > 0.0
        assert 0.0 <= exc_info.value.value <= 1.0

    def test_certain_tail_past_the_budget(self, gp_budget):
        # a single exponential far above its mean: 16 panels cannot resolve
        # the integral, but the Chernoff bound e^(K(t) - t*x) at the saddle
        # point t = 1 - 1/x, 40 e^-39 at x = 40, proves P(X > x) = 0 within
        # the tolerance 1e-12. Near the mean the bound is about 1
        gp_budget(max_panels=16)
        d = NakagamiM(m=1.0, mean_power=1.0)
        p, bound = gil_pelaez_ccdf(d, 40.0)
        assert p == 0.0 and bound == pytest.approx(40.0 * math.exp(-39.0), rel=1e-12)
        assert math.exp(-40.0) <= bound <= oracles._ABS_TOL
        p, bound = gil_pelaez_ccdf(d, 200.0)
        assert p == 0.0 and bound == pytest.approx(200.0 * math.exp(-199.0), rel=1e-12)
        with pytest.raises(QuadratureNotConverged):
            gil_pelaez_ccdf(d, 1.0)
        assert oracles._certain_tail(d, 1.0)[1] > 0.5

    def test_shipped_traffic_fits_a_small_budget(self, gp_budget):
        # every Gil-Pelaez integral of the shipped configs is accepted on its
        # first pass, of at most 35 panels, so on a budget of 64 each curve,
        # and the Rayleigh pair's capacity, gives the same bits as on the
        # default 32 768
        def run():
            points = []
            for path in sorted(CONFIG_DIR.glob("*.json")):
                config = load_config(path)
                for curve in config.curves:
                    points += [(r.p_out, r.error_estimate, r.error) for r in
                               outage_curve(curve.template, config.grid, "gil_pelaez")]
            return repr(points), ergodic_capacity(rayleigh_pair(), "gil_pelaez")

        default = run()
        gp_budget(max_panels=64)
        assert run() == default

    @pytest.mark.parametrize("q_db", [-10.0, 0.0, 10.0, 20.0])
    def test_chernoff_bound_holds(self, q_db):
        # the Rayleigh pair with N0 > 0 at x = -q * N0: e^(K(t) - t*x) bounds
        # the lower tail 1 - p for t < 0 and the upper tail p for t > 0, at
        # the saddle point (which _certain_tail takes) and at half of either
        # strip edge
        q = 10.0 ** (q_db / 10.0)
        s = replace(rayleigh_pair(q), noise_power=0.3)
        c, x = build_composite(s), -q * s.noise_power
        p = exponential_signal_closed_form(s)
        t_hat = solve_saddle(c, x).t_hat
        certain, bound = oracles._certain_tail(c, x)
        assert certain == (1.0 if t_hat < 0.0 else 0.0)
        assert bound == pytest.approx(math.exp(c.k(t_hat) - t_hat * x), rel=1e-12)
        for t in (t_hat, 0.5 * c.strip.lower, 0.5 * c.strip.upper):
            tail = 1.0 - p if t < 0.0 else p
            assert math.exp(c.k(t) - t * x) >= tail

    def test_monte_carlo_agreement_hoyt(self):
        # Hoyt-family scenario at a 5 dB threshold
        q = 10.0 ** 0.5
        s = SirScenario(
            desired=Hoyt(b=0.3, mean_power=10.0 ** 0.5),
            interferers=tuple(Hoyt(b=0.9, mean_power=1.0) for _ in range(5)),
            threshold_q=q)
        p_gp, _ = gil_pelaez_ccdf(build_composite(s), 0.0)
        p_mc, se = monte_carlo_outage(s, MonteCarloConfig(samples=10 ** 6, seed=5))
        binom_se = math.sqrt(p_gp * (1.0 - p_gp) / 10 ** 6)
        assert abs(p_gp - p_mc) <= 3.0 * max(se, binom_se)


def gauss_kronrod_41(dps: int = 60):
    """The G20/K41 rule on [-1, 1] in mpmath at ``dps`` digits: the 21 nodes
    from the largest down to 0, their K41 weights, and their G20 weights
    (0 at a Kronrod node)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        legendre = mpmath.taylor(lambda x: mpmath.legendre(20, x), 0, 20)

        def moment(k):  # the integral of x**k over [-1, 1]
            return mpmath.mpf(2) / (k + 1) if k % 2 == 0 else mpmath.mpf(0)

        def p20_moment(k):  # the integral of P20(x) * x**k
            return mpmath.fsum(c * moment(i + k) for i, c in enumerate(legendre))

        # E21 = x**21 + sum of c_j x**j over odd j < 21; P20 * E21 is odd, so
        # it is orthogonal to every even x**k, and the odd k <= 19 fix the c_j
        odd = range(1, 21, 2)
        c = mpmath.lu_solve(mpmath.matrix([[p20_moment(j + k) for j in odd] for k in odd]),
                            mpmath.matrix([-p20_moment(21 + k) for k in odd]))
        e21 = [mpmath.mpf(0)] * 22
        e21[21] = mpmath.mpf(1)
        for j, cj in zip(odd, c):
            e21[j] = cj

        def nonnegative_roots(coeffs):
            roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=2 * dps)
            return [mpmath.re(r) for r in roots if mpmath.re(r) >= 0]

        kronrod, gauss = nonnegative_roots(e21), nonnegative_roots(legendre)
        nodes = sorted(kronrod + gauss, reverse=True)
        # the moment equations of the even powers, for the weights of +x and -x
        factor = [1 if x == 0 else 2 for x in nodes]
        w_k = mpmath.lu_solve(
            mpmath.matrix([[f * x ** (2 * k) for x, f in zip(nodes, factor)] for k in range(21)]),
            mpmath.matrix([moment(2 * k) for k in range(21)]))
        gauss = sorted(gauss, reverse=True)
        w_g = mpmath.lu_solve(
            mpmath.matrix([[2 * x ** (2 * k) for x in gauss] for k in range(10)]),
            mpmath.matrix([moment(2 * k) for k in range(10)]))
        w_g = {x: w for x, w in zip(gauss, w_g)}
        return ([float(x) for x in nodes], [float(w) for w in w_k],
                [float(w_g.get(x, 0)) for x in nodes])


class TestGaussKronrod:
    def test_exact_to_degree_61(self):
        for a, b in ((-1.0, 1.0), (0.5, 1.75)):
            for k in range(62):
                value, _ = oracles._gl_batch(lambda x: x ** k, np.array([a]), np.array([b]))
                exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                assert abs(value[0] - exact) <= 1e-14 * max(1.0, abs(exact)), (a, b, k)

    def test_gauss_nodes_are_leggauss(self):
        # numpy's leggauss(20) weights are within 1.3e-15 of the 60-digit ones
        nodes, weights = np.polynomial.legendre.leggauss(20)
        np.testing.assert_allclose(oracles._GK_NODES[1::2], nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(oracles._GK_WEIGHTS[1::2, 1], weights, rtol=0, atol=2e-15)
        assert not oracles._GK_WEIGHTS[::2, 1].any()

    def test_weights_positive(self):
        assert oracles._GK_WEIGHTS[:, 0].min() > 3e-3
        assert oracles._GK_WEIGHTS[1::2, 1].min() > 0.0

    def test_literals_are_the_mpmath_values(self):
        nodes, k41, g20 = gauss_kronrod_41()
        assert nodes == oracles._GK_X.tolist()
        assert k41 == oracles._K41_W.tolist()
        assert g20 == oracles._G20_W.tolist()

    @pytest.mark.parametrize("coeffs, a, b", [
        (np.random.default_rng(3).normal(size=40), 0.5, 1.75),  # degree 39: G20 is exact
        ([1.0] + [0.0] * 21 + [1.0] + [0.0] * 38 + [1.0], -1.0, 1.0),  # x**61 + x**39 + 1
    ], ids=["degree-39", "degree-61"])
    def test_one_panel_of_a_polynomial(self, coeffs, a, b):
        calls = []

        def f(x):
            calls.append(np.size(x))
            return np.polynomial.polynomial.polyval(x, coeffs)

        value, err, exhausted = oracles.adaptive_gl(f, np.array([a, b]), lambda e: 1e-12, 2 ** 15)
        antiderivative = np.polynomial.polynomial.polyint(coeffs)
        exact = (np.polynomial.polynomial.polyval(b, antiderivative)
                 - np.polynomial.polynomial.polyval(a, antiderivative))
        assert calls == [41]
        assert abs(value - exact) <= 1e-14 * max(1.0, abs(exact))
        # G20 agrees with K41 to their rounding level
        assert err <= max(1e-12, oracles._ROUNDOFF * abs(value)) and not exhausted

    @pytest.mark.parametrize("nan_from", [0.0, 0.5], ids=["all", "half"])
    def test_nan_integrand_costs_one_pass(self, nan_from):
        # where only part of the first pass is NaN, the tolerance it gives is
        # NaN too, and no finite panel would ever meet it
        calls = []

        def f(x):
            calls.append(np.size(x))
            return np.where(x >= nan_from, np.nan, np.cos(40.0 * x))

        value, err, exhausted = oracles.adaptive_gl(f, np.linspace(0.0, 1.0, 17),
                                                    lambda e: 1e-9 * abs(e), 2 ** 15)
        assert calls == [16 * 41]
        assert math.isnan(value) and math.isnan(err) and not exhausted

    def test_non_finite_panels_are_accepted(self):
        # cos(40x) refines [-1, 1] into its halves; one node of each is +inf
        # and -inf there, and both halves are accepted as they stand
        left, right = -0.5 + 0.5 * oracles._GK_NODES[5], 0.5 + 0.5 * oracles._GK_NODES[5]
        calls = []

        def f(x):
            calls.append(np.size(x))
            return np.where(x == left, np.inf, np.where(x == right, -np.inf, np.cos(40.0 * x)))

        value, err, _ = oracles.adaptive_gl(f, np.array([-1.0, 1.0]), lambda e: 1e-9, 2 ** 15)
        assert calls == [41, 82]
        assert math.isnan(value) and math.isnan(err)


# Characteristic-function nodes of one Rayleigh-pair Gil-Pelaez capacity
# with the unscaled substitution t = tan(theta), which this count replaced
UNSCALED_CAPACITY_NODES = 51_512_960


class ComplexLogCf:
    """A composite whose characteristic function is ``complex_log_cf``, the
    complex-arithmetic reference; counts the nodes it is evaluated at."""

    def __init__(self, c):
        self.mean, self.variance, self._layout = c.mean, c.variance, c._layout
        self.atoms = layout_atoms(c._layout)
        self.nodes = 0

    def characteristic_function(self, t):
        self.nodes += np.size(t)
        return complex_log_cf(self.atoms, t)


class TestRealArithmeticParity:
    """Gil-Pelaez with the real-arithmetic M(jt) against the complex-log form."""

    @pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3", "fig4"])
    def test_same_p_from_the_same_nodes(self, fig, cf_nodes):
        for curve in load_config(CONFIG_DIR / f"{fig}.json").curves:
            for q_db in (-10.0, 5.0, 20.0):
                q = 10.0 ** (q_db / 10.0)
                c = build_composite(replace(curve.template, threshold_q=q))
                # without noise, and with noise power 0.1 mW (x = -q * N0)
                for x in (0.0, -0.1 * q):
                    before = cf_nodes[0]
                    p, err = gil_pelaez_ccdf(c, x)
                    ref = ComplexLogCf(c)
                    p_ref, err_ref = gil_pelaez_ccdf(ref, x)
                    assert abs(p - p_ref) <= 1e-14, (curve.label, q_db, x)
                    assert cf_nodes[0] - before == ref.nodes
                    assert err == pytest.approx(err_ref, rel=1e-6, abs=1e-15)


class TestGilPelaezScale:
    """The inversion follows the scale of q * I - S, which grows with q."""

    @pytest.mark.parametrize("q", [1e6, 1e8, 4e9])
    def test_rayleigh_pair_success_at_large_q(self, q):
        # the success probability 1/(1+q) is a feature of the signal's CF
        # far below the scale sigma ~ q of the composite
        p, err = gil_pelaez_ccdf(build_composite(rayleigh_pair(q)), 0.0)
        tol = max(oracles._ABS_TOL, oracles._REL_TOL * p) + err
        assert abs((1.0 - p) - 1.0 / (1.0 + q)) <= tol

    @pytest.mark.parametrize("q", [1e8, 4e9, 1e12])
    def test_rayleigh_pair_success_tight_tolerance(self, q, gp_budget):
        # a tolerance well below the success probability: the signal's
        # feature must be resolved, not just stay under the default budget
        gp_budget(rel_tol=1e-14, abs_tol=1e-16)
        p, err = gil_pelaez_ccdf(build_composite(rayleigh_pair(q)), 0.0)
        tol = max(oracles._ABS_TOL, oracles._REL_TOL * p) + err
        assert abs((1.0 - p) - 1.0 / (1.0 + q)) <= tol

    @pytest.mark.parametrize("q_db", [76.0, 80.0, 90.0])
    def test_fig1_far_above_breakdown(self, q_db):
        # the unscaled substitution returned p = 0.5 here
        s = fig1_scenario(m0=1.0, q=10.0 ** (q_db / 10.0))
        p, _ = gil_pelaez_ccdf(build_composite(s), 0.0)
        assert abs(p - exponential_signal_closed_form(s)) <= 1e-9

    def test_rayleigh_pair_capacity_nodes(self, cf_nodes):
        cap, err = ergodic_capacity(rayleigh_pair(), "gil_pelaez")
        assert cf_nodes[0] < UNSCALED_CAPACITY_NODES / 20
        # within the capacity quadrature's epsabs + epsrel * C of 1/ln 2
        assert abs(cap - 1.0 / math.log(2.0)) <= 1e-9 + 1e-8 * cap
        # the error estimate covers the tail dropped beyond the last probe
        assert err >= abs(cap - 1.0 / math.log(2.0))

    def test_no_cuts_when_every_scale_is_near_sigma(self):
        c = build_composite(fig1_scenario(m0=1.0, q=1.0))
        edges = oracles._initial_edges(c._layout, math.sqrt(c.variance))
        assert len(edges) == 17

    def test_far_scale_ladder_reaches_the_bulk(self):
        # signal scale 1 against sigma ~ 1e8: cuts from 16 * u_s down to the
        # bulk, each a factor 4 apart in u
        c = build_composite(rayleigh_pair(1e8))
        sigma = math.sqrt(c.variance)
        v = oracles._initial_edges(c._layout, sigma)
        u = oracles._u_of_v(v[v < 0.0])
        far = np.sort(u[u > 16.0])
        assert far[-1] == pytest.approx(16.0 * sigma, rel=1e-12)
        assert far[0] <= 64.0
        assert np.all(far[1:] / far[:-1] <= 4.0 * (1.0 + 1e-12))


class TestMonteCarlo:
    def test_symmetric_pair(self):
        p, se = monte_carlo_outage(rayleigh_pair(), MonteCarloConfig(seed=1))
        assert abs(p - 0.5) <= 3.0 * se

    def test_vanishing_threshold(self):
        s = fig1_scenario(m0=1.0, q=1e-6)
        p, _ = monte_carlo_outage(s, MonteCarloConfig(samples=10 ** 5, seed=2))
        assert p <= 1e-4

    def test_matches_gil_pelaez(self):
        s = fig1_scenario(m0=1.5, q=1.0)
        p_mc, se = monte_carlo_outage(s, MonteCarloConfig(seed=3))
        p_gp, _ = gil_pelaez_ccdf(build_composite(s), 0.0)
        assert abs(p_mc - p_gp) <= 3.0 * se

    def test_reproducibility(self):
        s = fig1_scenario(m0=0.75, q=2.0)
        mc = MonteCarloConfig(samples=10 ** 5, seed=42)
        r1 = monte_carlo_outage(s, mc)
        r2 = monte_carlo_outage(s, mc)
        assert r1 == r2

    def test_seed_changes_estimate(self):
        s = fig1_scenario(m0=0.75, q=2.0)
        p1, _ = monte_carlo_outage(s, MonteCarloConfig(samples=10 ** 5, seed=1))
        p2, _ = monte_carlo_outage(s, MonteCarloConfig(samples=10 ** 5, seed=2))
        assert p1 != p2

    def test_noise_is_scaled_by_threshold(self):
        # with huge noise the outage saturates
        s = SirScenario(desired=NakagamiM(m=1.0, mean_power=1.0),
                        interferers=(NakagamiM(m=1.0, mean_power=1.0),),
                        threshold_q=1.0, noise_power=1e6)
        p, _ = monte_carlo_outage(s, MonteCarloConfig(samples=10 ** 4, seed=4))
        assert p == 1.0

    def test_rng_algorithm_recorded(self):
        assert RNG_ALGORITHM == "numpy-pcg64-seedseq"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(samples=0)
        with pytest.raises(ValueError):
            MonteCarloConfig(samples=10, batches=11)


def per_point_reference(template: SirScenario, qs, mc: MonteCarloConfig):
    """One full pass over the samples per threshold: the loop the shared-sample
    curve replaces, kept here as its reference."""
    out = []
    for q in qs:
        s = replace(template, threshold_q=q)
        hits = 0
        batch_means = np.empty(mc.batches)
        for i, (p0, interference) in enumerate(map_batches(s, mc, lambda a, b: (a, b))):
            count = int(np.count_nonzero(q * (interference + s.noise_power) > p0))
            hits += count
            batch_means[i] = count / len(p0)
        p = hits / mc.samples
        if mc.batches > 1:
            std_error = float(np.std(batch_means, ddof=1)) / math.sqrt(mc.batches)
        else:
            std_error = math.sqrt(max(p * (1.0 - p), 1.0 / mc.samples) / mc.samples)
        out.append((p, std_error))
    return out


def interferer_scenario(*interferers, noise_power=0.0) -> SirScenario:
    return SirScenario(desired=NakagamiM(m=1.0, mean_power=10.0 ** 0.5),
                       interferers=interferers, threshold_q=1.0,
                       noise_power=noise_power)


QS = [10.0 ** (db / 10.0) for db in range(-10, 21, 3)]


class TestMonteCarloCurve:
    @pytest.mark.parametrize("template,mc", [
        (fig1_scenario(m0=1.0, q=1.0), MonteCarloConfig(samples=4000, seed=1, batches=20)),
        (interferer_scenario(*(NakagamiM(m=1.5, mean_power=1.0),) * 3),
         MonteCarloConfig(samples=4000, seed=2, batches=20)),
        (interferer_scenario(Rician(r=2.0, mean_power=1.0), Rician(r=0.5, mean_power=0.5)),
         MonteCarloConfig(samples=4000, seed=3, batches=20)),
        (interferer_scenario(Hoyt(b=0.9, mean_power=1.0), Hoyt(b=-0.3, mean_power=2.0)),
         MonteCarloConfig(samples=4000, seed=4, batches=20)),
        (interferer_scenario(NakagamiM(m=0.5, mean_power=1.0), noise_power=0.3),
         MonteCarloConfig(samples=4000, seed=5, batches=20)),
        (fig1_scenario(m0=1.5, q=1.0), MonteCarloConfig(samples=4001, seed=6, batches=7)),
        (fig1_scenario(m0=0.75, q=1.0), MonteCarloConfig(samples=3000, seed=7, batches=1)),
    ], ids=["nakagami-m0.5", "nakagami-m1.5", "rician", "hoyt", "noise",
            "uneven-batches", "one-batch"])
    def test_matches_per_point_loop(self, template, mc):
        curve = monte_carlo_curve(template, QS, mc)
        assert curve == per_point_reference(template, QS, mc)
        ps = [p for p, _ in curve]
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_block_boundary(self, monkeypatch):
        # 3 thresholds per pass: the 11-point grid takes four passes
        monkeypatch.setattr(oracles, "_MAX_BLOCK_COUNTS", 30)
        mc = MonteCarloConfig(samples=2000, seed=8, batches=10)
        template = fig1_scenario(m0=0.5, q=1.0)
        curve = monte_carlo_curve(template, QS, mc)
        assert curve == per_point_reference(template, QS, mc)
        ps = [p for p, _ in curve]
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_outage_is_one_point_of_the_curve(self):
        s = fig1_scenario(m0=1.25, q=3.0)
        mc = MonteCarloConfig(samples=5000, seed=9, batches=10)
        assert monte_carlo_outage(s, mc) == monte_carlo_curve(s, [3.0], mc)[0]
        assert monte_carlo_curve(s, [], mc) == []


class Boom(Exception):
    pass


class FailingSignal(NakagamiM):
    """A Nakagami signal whose draw for batch 3 raises; it records which
    batches it drew, and each draw takes a little time."""

    def __init__(self, drawn: set, lock: threading.Lock):
        super().__init__(m=1.0, mean_power=1.0)
        object.__setattr__(self, "drawn", drawn)
        object.__setattr__(self, "lock", lock)

    def sample(self, rng, size=None):
        (batch,) = rng.bit_generator.seed_seq.spawn_key
        with self.lock:
            self.drawn.add(batch)
        if batch == 3:
            raise Boom("batch 3")
        time.sleep(0.005)
        return super().sample(rng, size)


POOL_CASES = [
    (fig1_scenario(m0=0.75, q=1.0), MonteCarloConfig(samples=4001, seed=21, batches=7)),
    (interferer_scenario(Rician(r=2.0, mean_power=1.0), Hoyt(b=0.5, mean_power=0.5),
                         noise_power=0.1),
     MonteCarloConfig(samples=3000, seed=22, batches=30)),
    (fig1_scenario(m0=1.5, q=1.0), MonteCarloConfig(samples=500, seed=23, batches=1)),
]


class TestMapBatches:
    @pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
    @pytest.mark.parametrize("template,mc", POOL_CASES, ids=["fig1", "mixed-noise", "one-batch"])
    def test_matches_serial_loop(self, workers, template, mc):
        pooled = map_batches(template, mc, lambda a, b: (a, b))
        serial = list(serial_batches(template, mc))
        assert len(pooled) == len(serial) == mc.batches
        for (p0, i0), (p1, i1) in zip(pooled, serial):
            assert np.array_equal(p0, p1) and np.array_equal(i0, i1)

    @pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
    @pytest.mark.parametrize("template,mc", POOL_CASES, ids=["fig1", "mixed-noise", "one-batch"])
    def test_curve_independent_of_workers(self, workers, template, mc):
        curve = monte_carlo_curve(template, QS, mc)
        serial = []
        for q in QS:
            counts = [int(np.count_nonzero(q * (i + template.noise_power) > p0))
                      for p0, i in serial_batches(template, mc)]
            serial.append(sum(counts))
        assert [round(p * mc.samples) for p, _ in curve] == serial
        assert curve == per_point_reference(template, QS, mc)

    @pytest.mark.parametrize("workers", [2, 3], indirect=True)
    def test_at_most_workers_batches_at_once(self, workers):
        lock = threading.Lock()
        active = [0, 0]  # now, most seen

        def reduce(p0, interference):
            with lock:
                active[0] += 1
                active[1] = max(active[1], active[0])
            time.sleep(0.002)
            with lock:
                active[0] -= 1
            return len(p0)

        mc = MonteCarloConfig(samples=2000, seed=24, batches=40)
        sizes = map_batches(fig1_scenario(m0=1.0, q=1.0), mc, reduce)
        assert sizes == [50] * 40
        assert active == [0, active[1]] and 1 <= active[1] <= workers

    @pytest.mark.parametrize("workers,batches", [(1, 30), (2, 1), (3, 1)],
                             indirect=["workers"])
    def test_no_thread_starts_for_a_one_thread_pool(self, workers, batches, monkeypatch):
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        template = fig1_scenario(m0=0.75, q=1.0)
        mc = MonteCarloConfig(samples=3000, seed=26, batches=batches)
        assert map_batches(template, mc, lambda a, b: len(a)) == [3000 // batches] * batches
        assert started == []

    @pytest.mark.parametrize("workers", [1, 2], indirect=True)
    def test_error_cancels_later_batches(self, workers):
        # drawing all 1000 batches would take at least 5 s / workers
        drawn: set = set()
        s = SirScenario(desired=FailingSignal(drawn, threading.Lock()),
                        interferers=(NakagamiM(m=1.0, mean_power=1.0),),
                        threshold_q=1.0)
        mc = MonteCarloConfig(samples=1000, seed=25, batches=1000)
        start = time.perf_counter()
        with pytest.raises(Boom, match="batch 3"):
            monte_carlo_curve(s, [1.0], mc)
        assert time.perf_counter() - start < 1.0
        assert {0, 1, 2, 3} <= drawn
        assert len(drawn) < 50


class TestClosedForm:
    def test_vanishing_threshold(self):
        s = fig1_scenario(m0=1.0, q=1e-12)
        assert exponential_signal_closed_form(s) == pytest.approx(0.0, abs=1e-10)

    def test_symmetric_pair(self):
        assert exponential_signal_closed_form(rayleigh_pair()) == pytest.approx(0.5)

    def test_fig1_powers(self):
        p0 = 10.0 ** 0.5
        s = SirScenario(
            desired=NakagamiM(m=1.0, mean_power=p0),
            interferers=tuple(NakagamiM(m=1.0, mean_power=1.0) for _ in range(5)),
            threshold_q=1.0)
        expected = 1.0 - (1.0 + 1.0 / p0) ** -5
        assert exponential_signal_closed_form(s) == pytest.approx(expected, rel=1e-14)
        p_mc, se = monte_carlo_outage(s, MonteCarloConfig(samples=10 ** 7, seed=6))
        assert abs(p_mc - expected) <= 3.0 * se

    def test_noise_term(self):
        s = SirScenario(desired=NakagamiM(m=1.0, mean_power=2.0),
                        interferers=(NakagamiM(m=3.0, mean_power=1.0),),
                        threshold_q=1.5, noise_power=0.5)
        lam0 = 0.5
        expected = 1.0 - math.exp(-lam0 * 1.5 * 0.5) * (1.0 + 1.5 * lam0 / 3.0) ** -3.0
        assert exponential_signal_closed_form(s) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("q_db", [1545.0, 1550.0])
    def test_rate_times_threshold_overflows(self, q_db):
        # a -1540 dBm signal: q * L0 overflows, and with N0 = 0 the noise
        # exponent -L0 * q * N0 was -inf * 0 = nan, where the outage is 1
        s = SirScenario(desired=NakagamiM(m=1.0, mean_power=1e-154),
                        interferers=(NakagamiM(m=2.0, mean_power=0.1),),
                        threshold_q=10.0 ** (q_db / 10.0))
        assert exponential_signal_closed_form(s) == 1.0

    def test_unsupported_scenarios(self):
        d = NakagamiM(m=2.0, mean_power=1.0)
        e = NakagamiM(m=1.0, mean_power=1.0)
        with pytest.raises(UnsupportedScenario):
            exponential_signal_closed_form(
                SirScenario(desired=d, interferers=(e,), threshold_q=1.0))
        with pytest.raises(UnsupportedScenario):
            exponential_signal_closed_form(
                SirScenario(desired=e, interferers=(Rician(r=1.0, mean_power=1.0),),
                            threshold_q=1.0))


class TestThreeWayAgreement:
    def test_randomized_scenarios(self, rng):
        # moderate-skew parameter ranges; extreme desired-signal skew
        # (small m0, |b0| near 1) exceeds the LR error budget and is
        # covered by the figure-level acceptance checks instead
        checked = 0
        while checked < 12:
            s = random_scenario(rng)
            d = s.desired
            if isinstance(d, NakagamiM) and d.m < 0.75:
                continue
            if isinstance(d, Hoyt) and abs(d.b) > 0.5:
                continue
            c = build_composite(s)
            if abs(c.mean) < 0.05 * math.sqrt(c.variance):  # the breakdown band
                continue
            checked += 1
            p_spa, _ = ccdf(c, 0.0)
            p_gp, _ = gil_pelaez_ccdf(c, 0.0)
            assert abs(p_spa - p_gp) <= 1e-2
            p_mc, se = monte_carlo_outage(s, MonteCarloConfig(samples=10 ** 6,
                                                              seed=checked))
            binom_se = math.sqrt(max(p_gp * (1.0 - p_gp), 1e-6) / 10 ** 6)
            assert abs(p_gp - p_mc) <= 4.0 * max(se, binom_se)

    def test_closed_form_branch(self, rng):
        for seed in range(5):
            gen = np.random.default_rng(100 + seed)
            n = int(gen.integers(1, 9))
            s = SirScenario(
                desired=NakagamiM(m=1.0, mean_power=float(10.0 ** gen.uniform(0, 0.8))),
                interferers=tuple(
                    NakagamiM(m=float(gen.uniform(0.5, 4.0)),
                              mean_power=float(10.0 ** gen.uniform(-0.3, 0.3)))
                    for _ in range(n)),
                threshold_q=float(10.0 ** gen.uniform(-1.0, 2.0)))
            p_cf = exponential_signal_closed_form(s)
            p_gp, _ = gil_pelaez_ccdf(build_composite(s), 0.0)
            assert abs(p_gp - p_cf) <= 1e-8
