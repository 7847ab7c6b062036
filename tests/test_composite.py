"""Composite CGF of q * interference - signal: assembly, strips, derivatives."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sirspa import (
    CompositeCgf,
    GaussianTest,
    Hoyt,
    InvalidScenario,
    NakagamiM,
    Rician,
    SirScenario,
    StripViolation,
    build_composite,
)
from sirspa.fading import Atom, _characteristic_function

from conftest import (
    central_diff,
    cumulant,
    dist_to_edge,
    fd_step,
    layout_atoms,
    random_scenario,
    shape_derivative,
    strip_points,
)


def d3(c: CompositeCgf, t: float) -> float:
    """The third derivative of a composite's CGF at t, from its one-row block."""
    return c.scenario.block([c.q]).derivative(3, np.array([t])).item()


def rayleigh_pair(q: float = 1.0) -> SirScenario:
    d = NakagamiM(m=1.0, mean_power=1.0)
    return SirScenario(desired=d, interferers=(d,), threshold_q=q)


def fig4_scenario(q: float = 1.0) -> SirScenario:
    return SirScenario(
        desired=NakagamiM(m=2.0, mean_power=10.0 ** 0.5),
        interferers=tuple(NakagamiM(m=m, mean_power=1.0)
                          for m in (3.7, 3.5, 4.1, 1.7, 2.1)),
        threshold_q=q,
    )


class TestScenarioValidation:
    def test_needs_interferer(self):
        d = NakagamiM(m=1.0, mean_power=1.0)
        with pytest.raises(InvalidScenario):
            SirScenario(desired=d, interferers=(), threshold_q=1.0)

    def test_threshold_positive(self):
        d = NakagamiM(m=1.0, mean_power=1.0)
        with pytest.raises(InvalidScenario):
            SirScenario(desired=d, interferers=(d,), threshold_q=0.0)

    def test_noise_nonnegative(self):
        d = NakagamiM(m=1.0, mean_power=1.0)
        with pytest.raises(InvalidScenario):
            SirScenario(desired=d, interferers=(d,), threshold_q=1.0,
                        noise_power=-0.1)

    @pytest.mark.parametrize("q", [1e155, 1e300, 1.7e308])
    def test_cumulant_overflow_is_typed(self, q):
        # the variance q**2 * ... leaves the float range: a typed error, not
        # a bare OverflowError or a NaN mean
        with pytest.raises(InvalidScenario, match="overflows"):
            build_composite(replace(fig4_scenario(), threshold_q=q))
        with pytest.raises(InvalidScenario, match="overflows"):
            fig4_scenario().at(q)

    def test_variance_underflow_is_typed(self):
        # both powers at -1700 dBm: the variance underflows to 0, and the
        # build fails with a typed error, not later at 1 / sigma
        d = NakagamiM(m=1.0, mean_power=1e-170)
        with pytest.raises(InvalidScenario, match="underflows the variance"):
            build_composite(SirScenario(desired=d, interferers=(d,), threshold_q=1.0))
        with pytest.raises(InvalidScenario, match="underflows the variance"):
            SirScenario(desired=d, interferers=(NakagamiM(1.0, 1e-100),),
                        threshold_q=1.0).at(1e-70)


class TestLayout:
    def test_read_layout_leaves_equality_and_hash(self):
        # the layout is cached on the scenario it was read from, and only there
        s, fresh = fig4_scenario(), fig4_scenario()
        s.at(2.0)
        assert "_shapes" in vars(s) and "_shapes" not in vars(fresh)
        assert s == fresh and hash(s) == hash(fresh)
        moved = replace(s, threshold_q=2.0)
        assert "_shapes" not in vars(moved)
        assert moved._shapes is not s._shapes
        assert layout_atoms(moved._shapes) == layout_atoms(s._shapes)


class TestAt:
    def test_matches_a_fresh_build(self, rng):
        # the composite moved to q has the atoms, strip, mean and variance of
        # one built at q, and bit-identical K, K' and K''
        for _ in range(40):
            s = random_scenario(rng)
            for q in [1e-4, 2.0 ** 60] + [float(q) for q in 10.0 ** rng.uniform(-4, 18, 4)]:
                c, fresh = s.at(q), build_composite(replace(s, threshold_q=q))
                assert (c.q, layout_atoms(c._layout), c.strip) == (
                    fresh.q, layout_atoms(fresh._layout), fresh.strip)
                assert (c.mean, c.variance) == (fresh.mean, fresh.variance)
                for t in list(strip_points(c.strip, rng, 4)) + [0.0]:
                    e = (c.k(t), *c.eval(t))
                    assert e == (fresh.k(t), *fresh.eval(t))
                    assert (c.k(t), c.k1(t), c.k2(t)) == e

    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan])
    def test_threshold_positive(self, q):
        with pytest.raises(InvalidScenario, match="must be > 0"):
            fig4_scenario().at(q)

    def test_chains(self):
        # a composite moved twice is the one moved once: every move starts
        # from the layout at q = 1
        s = fig4_scenario()
        twice = s.at(3.0).scenario.at(0.25)
        assert layout_atoms(twice._layout) == layout_atoms(s.at(0.25)._layout)


class TestBlock:
    def test_rows_match_the_composite(self, rng):
        # row i of block(qs) is at(qs[i]): the same exactly rounded mean, the
        # same variance and strip, and K, K', K'' that differ from the
        # exactly rounded sums only by numpy's summation order
        for i in range(40):
            s = random_scenario(rng) if i % 4 else replace(
                fig1_scenario(), desired=GaussianTest(mu=2.0, sigma2=0.3),
                interferers=(GaussianTest(mu=0.4, sigma2=0.1), NakagamiM(0.7, 1.3)))
            qs = [float(q) for q in 10.0 ** rng.uniform(-4, 6, 5)]
            blk = s.block(qs)
            assert blk.finite.all()
            composites = [s.at(q) for q in qs]
            for row, c in enumerate(composites):
                assert (blk.mean[row], blk.variance[row], blk.lower[row], blk.upper[row]) == (
                    c.mean, c.variance, c.strip.lower, c.strip.upper)
            for _ in range(3):  # each row at a point of its own strip
                ts = np.array([strip_points(c.strip, rng, 1)[0] for c in composites])
                k1, k2 = blk.k12(ts)
                k = blk.k(ts)
                for row, (c, t) in enumerate(zip(composites, ts.tolist())):
                    atoms = layout_atoms(c._layout)
                    for value, n in ((k[row], 0), (k1[row], 1), (k2[row], 2)):
                        size = sum(abs(w * sc ** n * shape_derivative(f, n, sc * t))
                                   for f, w, sc in atoms)
                        size += abs(c.mean * t ** (1 - n)) if n < 2 else 0.0
                        exact = cumulant(atoms, n, t)
                        assert abs(value - exact) <= 1e-14 * size

    def test_whole_sums(self, rng):
        # rows switched to whole atoms keep K, K' and K'' within rounding of
        # the exactly rounded sums
        for _ in range(40):
            s = random_scenario(rng)
            qs = [float(q) for q in 10.0 ** rng.uniform(-4, 6, 5)]
            blk = s.block(qs)
            composites = [s.at(q) for q in qs]
            ts = np.array([strip_points(c.strip, rng, 1)[0] for c in composites])
            blk.sum_whole(ts)
            k1, k2 = blk.k12(ts)
            k = blk.k(ts)
            for row, (c, t) in enumerate(zip(composites, ts.tolist())):
                atoms = layout_atoms(c._layout)
                for value, n in ((k[row], 0), (k1[row], 1), (k2[row], 2)):
                    size = sum(abs(w * sc ** n * shape_derivative(f, n, sc * t))
                               for f, w, sc in atoms)
                    size += abs(c.mean * t ** (1 - n)) if n < 2 else 0.0
                    assert abs(value - cumulant(atoms, n, t)) <= 1e-14 * size
        # the Rayleigh pair at q = 2**53, at its root t = (1 - q) / (2q): the
        # interferer atom sits at u = -2**52, and with the linear parts in
        # the mean K' rounds to -1 and K to -36 (exact: 0 and -35.3505...)
        q = 2.0 ** 53
        blk = rayleigh_pair(q).block([q])
        t = np.array([(1.0 - q) / (2.0 * q)])
        assert blk.k12(t)[0][0] == -1.0
        blk.sum_whole(t)
        assert blk.k12(t)[0][0] == 0.0
        assert blk.k(t)[0] == pytest.approx(-35.350506208557211, rel=1e-15)


class TestStripAssembly:
    def test_rayleigh_pair_strip(self):
        c = build_composite(rayleigh_pair())
        assert c.strip.lower == pytest.approx(-1.0)
        assert c.strip.upper == pytest.approx(1.0)

    def test_five_interferer_strip(self):
        p0 = 10.0 ** 0.5  # 5 dBm
        s = SirScenario(
            desired=NakagamiM(m=1.0, mean_power=p0),
            interferers=tuple(NakagamiM(m=1.0, mean_power=1.0) for _ in range(5)),
            threshold_q=1.0)
        c = build_composite(s)
        assert c.strip.lower == pytest.approx(-1.0 / p0)
        assert c.strip.upper == pytest.approx(1.0)

    def test_threshold_scales_upper(self):
        c = build_composite(rayleigh_pair(q=4.0))
        assert c.strip.upper == pytest.approx(0.25)
        assert c.strip.lower == pytest.approx(-1.0)

    def test_mixed_families_strip(self):
        s = SirScenario(
            desired=NakagamiM(m=2.0, mean_power=2.0),
            interferers=(NakagamiM(m=1.0, mean_power=1.0),
                         Rician(r=1.0, mean_power=4.0),
                         Hoyt(b=0.5, mean_power=1.0)),
            threshold_q=2.0)
        c = build_composite(s)
        # binding interferer: min(1.0, 0.5, 2/3) / q
        assert c.strip.upper == pytest.approx(0.25)
        assert c.strip.lower == pytest.approx(-1.0)

    def test_strip_edges(self):
        c = build_composite(rayleigh_pair())
        width = c.strip.width
        t = c.strip.upper - 1e-9 * width
        assert all(math.isfinite(v) for v in (c.k(t), *c.eval(t)))
        with pytest.raises(StripViolation):
            c.eval(c.strip.upper)
        with pytest.raises(StripViolation):
            c.eval(c.strip.upper + 1e-12)
        with pytest.raises(StripViolation):
            c.k(c.strip.lower)


class TestEval:
    def test_zero_point_cumulants(self, rng):
        for _ in range(50):
            s = random_scenario(rng)
            c = build_composite(s)
            k, k1, k2 = c.k(0.0), *c.eval(0.0)
            mean = s.threshold_q * sum(d.mean for d in s.interferers) - s.desired.mean
            var = (s.threshold_q ** 2 * sum(d.variance for d in s.interferers)
                   + s.desired.variance)
            assert k == 0.0
            assert k1 == pytest.approx(mean, rel=1e-12, abs=1e-12)
            assert k2 == pytest.approx(var, rel=1e-12)
            assert c.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
            assert c.variance == pytest.approx(var, rel=1e-12)

    def test_rayleigh_pair_point(self):
        k = build_composite(rayleigh_pair()).k(0.5)
        assert k == pytest.approx(-math.log(0.5) - math.log(1.5), abs=1e-14)

    def test_fig4_point_term_recomputation(self):
        s = fig4_scenario()
        c = build_composite(s)
        t = 0.1
        k = sum(float(d.cgf(s.threshold_q * t)) for d in s.interferers)
        k += float(s.desired.cgf(-t))
        assert c.k(t) == pytest.approx(k, rel=1e-14)

    def test_finite_difference_consistency(self, rng):
        for _ in range(10):
            s = random_scenario(rng)
            c = build_composite(s)
            for t in strip_points(c.strip, rng, 100):
                h = fd_step(t, dist_to_edge(c.strip, t))
                k1, k2 = c.eval(t)
                assert abs(central_diff(c.k, t, h) - k1) <= 1e-6 * max(1.0, abs(k1))
                assert abs(central_diff(c.k1, t, h) - k2) <= 1e-6 * max(1.0, abs(k2))
                assert k2 > 0.0

    def test_scalar_methods_are_the_block_row(self, rng):
        # each scalar method returns the row of block([q]) bit for bit
        for i in range(20):
            s = random_scenario(rng) if i % 4 else SirScenario(
                desired=GaussianTest(mu=2.0, sigma2=0.3),
                interferers=(GaussianTest(mu=0.4, sigma2=0.1), NakagamiM(0.7, 1.3)),
                threshold_q=float(10.0 ** rng.uniform(-2, 2)))
            c = build_composite(s)
            blk = s.block([c.q])
            for t in list(strip_points(c.strip, rng, 5)) + [0.0]:
                ts = np.array([t])
                k1, k2 = blk.k12(ts)
                assert c.k(t) == blk.k(ts)[0]
                assert c.eval(t) == (c.k1(t), c.k2(t)) == (k1[0], k2[0])
                assert c._row.derivative(3, ts)[0] == blk.derivative(3, ts)[0]

    def test_eval_matches_split_methods(self, rng):
        s = random_scenario(rng)
        c = build_composite(s)
        for t in strip_points(c.strip, rng, 20):
            assert c.eval(t) == (c.k1(t), c.k2(t))

    def test_permutation_bit_identity(self):
        s = fig4_scenario()
        c1 = CompositeCgf(s, s.threshold_q)
        c2 = CompositeCgf(replace(s, interferers=tuple(reversed(s.interferers))), s.threshold_q)
        for t in (-0.2, 0.0, 0.1, 0.3):
            assert (c1.k(t), *c1.eval(t)) == (c2.k(t), *c2.eval(t))
        # and through the curve-level constructor
        for q in (1e-3, 0.7, 2.0 ** 20):
            m1, m2 = c1.scenario.at(q), c2.scenario.at(q)
            assert (m1.mean, m1.variance) == (m2.mean, m2.variance)
            for t in (-0.2, 0.0, 0.1 / q, 0.3 / q):
                assert (m1.k(t), *m1.eval(t)) == (m2.k(t), *m2.eval(t))

    def test_monte_carlo_moments(self, rng):
        for _ in range(5):
            s = random_scenario(rng, max_interferers=4)
            c = build_composite(s)
            n = 10 ** 6
            gen = np.random.default_rng(rng.integers(2 ** 32))
            gamma = s.threshold_q * sum(d.sample(gen, n) for d in s.interferers)
            gamma -= s.desired.sample(gen, n)
            se_mean = np.std(gamma, ddof=1) / math.sqrt(n)
            assert abs(np.mean(gamma) - c.mean) <= 4.0 * se_mean
            centered = gamma - np.mean(gamma)
            m2 = np.mean(centered ** 2)
            m4 = np.mean(centered ** 4)
            se_var = math.sqrt(max(m4 - m2 ** 2, 0.0) / n)
            assert abs(np.var(gamma) - c.variance) <= 4.0 * se_var


class TestThirdDerivative:
    def test_all_gaussian(self):
        s = SirScenario(desired=GaussianTest(mu=1.0, sigma2=1.0),
                        interferers=(GaussianTest(mu=2.0, sigma2=0.5),),
                        threshold_q=1.0)
        assert d3(build_composite(s), 0.3) == 0.0

    def test_symmetric_pair_cancels(self):
        assert d3(build_composite(rayleigh_pair()), 0.0) == pytest.approx(0.0, abs=1e-13)

    def test_fig4_matches_fd_of_k2(self):
        c = build_composite(fig4_scenario())
        h = 1e-5
        fd = central_diff(c.k2, 0.0, h)
        assert d3(c, 0.0) == pytest.approx(fd, rel=1e-5)


class TestCharacteristicFunction:
    def test_zero(self):
        c = build_composite(fig4_scenario())
        assert complex(c.characteristic_function(0.0)) == pytest.approx(1.0 + 0.0j)

    def test_rayleigh_pair_point(self):
        c = build_composite(rayleigh_pair())
        assert complex(c.characteristic_function(1.0)) == pytest.approx(
            0.5 + 0.0j, abs=1e-15)

    def test_modulus_and_symmetry(self, rng):
        s = random_scenario(rng)
        c = build_composite(s)
        ts = np.linspace(-30.0, 30.0, 101)
        cf = c.characteristic_function(ts)
        assert np.all(np.abs(cf) <= 1.0 + 1e-12)
        assert np.allclose(c.characteristic_function(-ts), np.conj(cf), atol=1e-14)

    def test_empirical_cf_fig2_style(self):
        s = SirScenario(
            desired=Rician(r=2.0, mean_power=10.0 ** 0.5),
            interferers=tuple(Rician(r=0.5, mean_power=1.0) for _ in range(5)),
            threshold_q=1.0)
        c = build_composite(s)
        t = 3.0
        n = 10 ** 7
        gen = np.random.default_rng(13)
        gamma = s.threshold_q * sum(d.sample(gen, n) for d in s.interferers)
        gamma -= s.desired.sample(gen, n)
        emp = np.mean(np.exp(1j * t * gamma))
        assert abs(emp - complex(c.characteristic_function(t))) <= 1e-3


def fig1_scenario(q: float = 1.0) -> SirScenario:
    return SirScenario(desired=NakagamiM(m=1.0, mean_power=10.0 ** 0.5),
                       interferers=(NakagamiM(m=0.5, mean_power=1.0),) * 5,
                       threshold_q=q)


def unmerged_atoms(s: SirScenario) -> tuple:
    return (tuple(Atom(f, w, sc * s.threshold_q) for d in s.interferers for f, w, sc in d.atoms())
            + tuple(Atom(f, w, -sc) for f, w, sc in s.desired.atoms()))


def unmerged_layout(atoms) -> dict:
    """``atoms`` as a one-row layout in which each atom stays on its own."""
    return {f: (np.array([w for g, w, _ in atoms if g is f]),
                np.array([[sc for g, _, sc in atoms if g is f]]))
            for f in dict.fromkeys(a.shape for a in atoms)}


class TestMergedAtoms:
    def test_fig1_merges_to_two_atoms(self):
        c = build_composite(fig1_scenario())
        atoms = layout_atoms(c._layout)
        assert len(atoms) == 2
        assert sorted(a.weight for a in atoms) == [1.0, 2.5]
        assert len(c.interferers) == 5

    @pytest.mark.parametrize("s", [
        fig1_scenario(q=10.0 ** 0.35),
        SirScenario(desired=Rician(r=2.0, mean_power=10.0 ** 0.5),
                    interferers=(Rician(r=0.5, mean_power=1.0),) * 5, threshold_q=1.7),
        SirScenario(desired=Hoyt(b=0.3, mean_power=2.0),
                    interferers=(NakagamiM(m=1.15, mean_power=0.7),) * 3
                    + (Hoyt(b=0.3, mean_power=0.9),) * 4, threshold_q=0.31),
        SirScenario(desired=GaussianTest(mu=1.3, sigma2=0.7),
                    interferers=(GaussianTest(mu=0.3, sigma2=0.11),) * 3, threshold_q=2.9),
    ], ids=["fig1", "fig2_style", "mixed", "gaussian"])
    def test_merged_matches_unmerged_sum(self, s, rng):
        c = build_composite(s)
        atoms = unmerged_atoms(s)
        assert len(layout_atoms(c._layout)) < len(atoms)
        # relative to the magnitude of the summed terms: the sums cancel
        # near the mean, and both sides round each term once
        for t in strip_points(c.strip, rng, 20):
            for n, value in enumerate((c.k(t), *c.eval(t))):
                size = sum(abs(w * s ** n * shape_derivative(f, n, s * t)) for f, w, s in atoms)
                size += sum(abs(w * s) for f, w, s in atoms) * abs(t) ** (1 - n) if n < 2 else 0.0
                assert abs(value - cumulant(atoms, n, t)) <= 1e-15 * size
        # relative to |M| times |log M|: M is the exp of the summed log terms
        ts = np.linspace(-20.0, 20.0, 81) / math.sqrt(c.variance)
        merged = c.characteristic_function(ts)
        unmerged = _characteristic_function(unmerged_layout(atoms), ts)
        size = np.abs(unmerged) * np.maximum(1.0, np.abs(np.log(unmerged)))
        assert np.all(np.abs(merged - unmerged) <= 1e-15 * size)

    def test_distinct_atoms_kept_as_they_are(self):
        s = fig4_scenario(q=2.0)
        assert Counter(layout_atoms(build_composite(s)._layout)) == Counter(unmerged_atoms(s))
