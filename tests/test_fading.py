"""Fading-family CGF machinery: values, derivatives, strips, CFs, samplers."""

import math

import mpmath
import numpy as np
import pytest

from sirspa import (GaussianTest, Hoyt, NakagamiM, QuadratureConfig, QuadratureNotConverged,
                    Rician, Strip, StripViolation, build_composite, gil_pelaez_ccdf)
from sirspa import fading
from sirspa.fading import (
    Atom,
    AtomBlock,
    gamma,
    linear,
    noncentral,
    quadratic,
)

from conftest import (
    central_diff,
    cumulant,
    dist_to_edge,
    fd_step,
    layout_atoms,
    random_distribution,
    random_scenario,
    strip_points,
)


def d3(d, t: float) -> float:
    """The third derivative of a family's CGF at t, from its one-row block."""
    return AtomBlock(d._layout).derivative(3, np.array([t])).item()


ALL_FAMILIES = [
    NakagamiM(m=1.0, mean_power=1.0),
    NakagamiM(m=2.5, mean_power=4.0),
    Rician(r=0.0, mean_power=2.0),
    Rician(r=3.0, mean_power=1.0),
    Hoyt(b=0.0, mean_power=1.0),
    Hoyt(b=0.6, mean_power=2.0),
    GaussianTest(mu=0.5, sigma2=1.5),
]


class TestCgfValues:
    def test_nakagami_exponential_point(self):
        assert NakagamiM(m=1.0, mean_power=1.0).cgf(0.5) == pytest.approx(
            -math.log(0.5), abs=1e-15)

    def test_rician_rayleigh_point(self):
        assert Rician(r=0.0, mean_power=2.0).cgf(0.25) == pytest.approx(
            -math.log(0.5), abs=1e-15)

    def test_hoyt_rayleigh_point(self):
        assert Hoyt(b=0.0, mean_power=1.0).cgf(0.5) == pytest.approx(
            -math.log(0.5), abs=1e-15)

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_cgf_zero(self, d):
        assert d.cgf(0.0) == 0.0

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_cumulants_at_zero(self, d):
        assert d.cgf_d1(0.0) == pytest.approx(d.mean, rel=1e-14)
        assert d.cgf_d2(0.0) == pytest.approx(d.variance, rel=1e-14)

    def test_cumulants_at_zero_randomized(self, rng):
        for _ in range(200):
            d = random_distribution(rng)
            assert d.cgf(0.0) == 0.0
            assert d.cgf_d1(0.0) == pytest.approx(d.mean, rel=1e-12)
            assert d.cgf_d2(0.0) == pytest.approx(d.variance, rel=1e-12)

    def test_mean_examples(self):
        assert NakagamiM(m=2.0, mean_power=4.0).cgf_d1(0.0) == pytest.approx(4.0)
        assert Rician(r=3.0, mean_power=1.0).cgf_d1(0.0) == pytest.approx(1.0)

    def test_hoyt_variance_example(self):
        d = Hoyt(b=0.6, mean_power=2.0)
        assert d.cgf_d2(0.0) == pytest.approx(4.0 * 1.36, rel=1e-13)
        h = fd_step(0.0, d.strip().upper)
        fd = central_diff(d.cgf_d1, 0.0, h)
        assert d.cgf_d2(0.0) == pytest.approx(fd, rel=1e-6)


class TestDerivatives:
    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_finite_difference_consistency(self, d, rng):
        strip = d.strip()
        for t in strip_points(strip, rng, 100):
            h = fd_step(t, dist_to_edge(strip, t))
            fd1 = central_diff(d.cgf, t, h)
            fd2 = central_diff(d.cgf_d1, t, h)
            exact1, exact2 = d.cgf_d1(t), d.cgf_d2(t)
            assert abs(fd1 - exact1) <= 1e-6 * max(1.0, abs(exact1))
            assert abs(fd2 - exact2) <= 1e-6 * max(1.0, abs(exact2))

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_convexity(self, d, rng):
        strip = d.strip()
        for t in strip_points(strip, rng, 100):
            assert d.cgf_d2(t) > 0.0

    def test_d3_gaussian_zero(self):
        d = GaussianTest(mu=0.0, sigma2=1.0)
        for t in (-3.0, 0.0, 5.0):
            assert d3(d, t) == 0.0

    def test_d3_exponential_third_cumulant(self):
        assert d3(NakagamiM(m=1.0, mean_power=1.0), 0.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("d", [Rician(r=1.0, mean_power=1.0),
                                   Hoyt(b=0.5, mean_power=2.0)], ids=lambda d: type(d).__name__)
    def test_d3_matches_independent_fd(self, d):
        # 4th-order central difference of the exact second derivative
        # against the closed-form third derivative
        strip = d.strip()
        for t in (0.0, 0.3 * strip.upper, -1.0):
            h = 3e-4 * max(1.0, dist_to_edge(strip, t))
            f = d.cgf_d2
            fd = (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)
            assert d3(d, t) == pytest.approx(fd, rel=1e-5, abs=1e-8)


# one atom per shape and scale sign; the signal enters the composite with scale < 0
ATOMS = [
    Atom(gamma, 2.5, 0.8),
    Atom(gamma, 0.5, -1.7),
    Atom(noncentral, 3.0, 0.4),
    Atom(noncentral, 0.7, -2.0),
    Atom(linear, 1.3, -1.0),
    Atom(quadratic, 0.9, 2.0),
]


class TestAtoms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("atom", ATOMS,
                             ids=lambda a: f"{a.shape.__name__}{a.scale:+g}")
    def test_derivative_matches_fd_of_order_below(self, atom, n, rng):
        # the exact reference and the one-row block, each against itself
        atoms = (atom,)
        blk = AtomBlock({atom.shape: (np.array([atom.weight]), np.array([[atom.scale]]))})
        strip = Strip(blk.lower.item(), blk.upper.item())
        evaluators = (lambda n, t: cumulant(atoms, n, t),
                      lambda n, t: blk.derivative(n, np.array([t]))[0])
        for t in strip_points(strip, rng, 20):
            h = fd_step(t, dist_to_edge(strip, t))
            for derivative in evaluators:
                fd = central_diff(lambda s: derivative(n - 1, s), t, h)
                exact = derivative(n, t)
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    @pytest.mark.parametrize("u", [-1e3, -1e15, -2.0 ** 54, -5.8e17, -1e154, -1e300])
    def test_gamma_far_below_zero(self, u):
        # an interferer atom at q ~ 1e18 and t ~ -0.5: u / (2 - u) rounds to -1
        with np.errstate(all="ignore"):  # branches np.where drops
            assert fading._gamma_k(u) == pytest.approx(-math.log1p(-u) - u, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cumulants_at_zero_are_the_reference(self, n, rng):
        # bit for bit the exactly rounded derivative at 0
        layouts = [d._layout for d in ALL_FAMILIES] + [fading._layout_of(ATOMS)]
        layouts += [build_composite(random_scenario(rng))._layout for _ in range(100)]
        for layout in layouts:
            assert fading._cumulant(layout, n) == cumulant(layout_atoms(layout), n, 0.0)


class TestStrips:
    def test_strip_examples(self):
        assert NakagamiM(m=2.0, mean_power=4.0).strip() == Strip(-math.inf, 0.5)
        assert Rician(r=1.0, mean_power=2.0).strip() == Strip(-math.inf, 1.0)
        assert Hoyt(b=0.5, mean_power=1.0).strip().upper == pytest.approx(2.0 / 3.0)
        assert GaussianTest(mu=0.0, sigma2=1.0).strip() == Strip(-math.inf, math.inf)

    def test_zero_scale_has_no_pole(self):
        # m = 50 at -3220 dBm: the scale 1e-322 / 50 rounds to 0, whose pole
        # 1/0 lies at infinity
        assert NakagamiM(m=50.0, mean_power=1e-322).strip() == Strip(-math.inf, math.inf)

    def test_strip_must_contain_zero(self):
        with pytest.raises(ValueError):
            Strip(0.5, 1.0)

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_strip_violation(self, d):
        upper = d.strip().upper
        if not math.isfinite(upper):
            pytest.skip("unbounded strip")
        with pytest.raises(StripViolation):
            d.cgf(upper)
        with pytest.raises(StripViolation):
            d.cgf_d1(upper * 1.001)
        assert math.isfinite(d.cgf(upper * (1.0 - 1e-9)))


def gil_pelaez(d, x: float) -> tuple[float, float]:
    """Gil-Pelaez (p, error estimate) of one family at x, on a budget of 256
    panels: a single exponential's CF decays like 1/t, and the default
    tolerance would take 2**17 panels."""
    try:
        return gil_pelaez_ccdf(d, x, QuadratureConfig(max_panels=256))
    except QuadratureNotConverged as e:
        return e.value, e.error_estimate


class TestFamilyCollapse:
    def test_rayleigh_equivalence(self, rng):
        for p in (0.5, 1.0, 3.1622776601683795):
            nak = NakagamiM(m=1.0, mean_power=p)
            ric = Rician(r=0.0, mean_power=p)
            hoyt = Hoyt(b=0.0, mean_power=p)
            for t in strip_points(nak.strip(), rng, 50):
                ref = nak.cgf(t)
                assert abs(ric.cgf(t) - ref) <= 1e-12
                assert abs(hoyt.cgf(t) - ref) <= 1e-12

    def test_hoyt_b0_merges_to_nakagami_m1(self, rng):
        # Hoyt's two half-weight gamma atoms of one scale are one atom of
        # weight 1: NakagamiM(1)'s layout, so the same bits from every reader
        for p in (0.5, 1.0, 3.1622776601683795):
            nak, hoyt = NakagamiM(m=1.0, mean_power=p), Hoyt(b=0.0, mean_power=p)
            assert list(hoyt._layout) == list(nak._layout) == [gamma]
            for (w, s), (w_ref, s_ref) in zip(hoyt._layout.values(), nak._layout.values()):
                assert w.tolist() == w_ref.tolist() and s.tolist() == s_ref.tolist()
            for t in strip_points(nak.strip(), rng, 20):
                assert hoyt.cgf(t) == nak.cgf(t)
            ts = np.logspace(-6.0, 12.0, 181) / p
            cf = hoyt.characteristic_function(ts)
            assert cf.tolist() == nak.characteristic_function(ts).tolist()
            for x in (0.1 * p, p, 5.0 * p):
                assert gil_pelaez(hoyt, x) == gil_pelaez(nak, x)


def textbook_cf(d, t):
    """Each family's characteristic function in its textbook closed form."""
    t = np.asarray(t)
    if isinstance(d, NakagamiM):
        return np.exp(-d.m * np.log(1.0 - 1j * t / d.rate))
    if isinstance(d, Rician):
        a = 1.0 + d.r
        denom = a - 1j * t * d.mean_power
        return (a / denom) * np.exp(d.r * 1j * t * d.mean_power / denom)
    if isinstance(d, Hoyt):
        lo, hi = d.mean_power * (1.0 - d.b), d.mean_power * (1.0 + d.b)
        return np.exp(-0.5 * (np.log(1.0 - 1j * t * lo) + np.log(1.0 - 1j * t * hi)))
    return np.exp(1j * d.mu * t - 0.5 * d.sigma2 * t * t)


class TestCharacteristicFunction:
    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_matches_textbook_form(self, d):
        ts = np.logspace(-6.0, 12.0, 181)
        ts = np.concatenate([-ts[::-1], ts])
        assert np.max(np.abs(d.characteristic_function(ts) - textbook_cf(d, ts))) <= 1e-14

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_basic_properties(self, d):
        assert d.characteristic_function(0.0) == pytest.approx(1.0 + 0.0j)
        ts = np.linspace(-40.0, 40.0, 201)
        cf = d.characteristic_function(ts)
        assert np.all(np.abs(cf) <= 1.0 + 1e-12)
        cf_neg = d.characteristic_function(-ts)
        assert np.allclose(cf_neg, np.conj(cf), atol=1e-14)

    def test_exponential_cf_point(self):
        cf = NakagamiM(m=1.0, mean_power=1.0).characteristic_function(1.0)
        assert cf == pytest.approx(0.5 + 0.5j, abs=1e-15)

    def test_hoyt_empirical_cf(self):
        d = Hoyt(b=0.3, mean_power=1.0)
        t = 2.0
        gen = np.random.default_rng(7)
        x = d.sample(gen, 10 ** 7)
        emp = np.mean(np.exp(1j * t * x))
        cf = complex(d.characteristic_function(t))
        assert abs(cf) <= 1.0
        assert abs(emp - cf) <= 1e-3


# |u| at which each shape's (real, imaginary) pair is checked; 1e-6 and 1e-8
# are where numpy's complex log1p loses the gamma real part
KERNEL_U = [0.0, 1e-8, 1e-6, 1e-3, 0.5, 1.0, 1e3, 1e150, 1e200]
EXACT_F = {gamma: lambda z: -mpmath.log(1 - z), noncentral: lambda z: z / (1 - z),
           linear: lambda z: z, quadratic: lambda z: z * z / 2}


class TestCfKernels:
    """Each shape's f(j*u) as the real and imaginary parts that
    ``characteristic_function`` adds up."""

    @pytest.mark.parametrize("shape", [gamma, noncentral, linear, quadratic],
                             ids=lambda f: f.__name__)
    def test_parts_match_mpmath(self, shape):
        u = np.array([x for v in KERNEL_U for x in (v, -v)])
        with np.errstate(all="raise"):
            re, im = fading._JT[shape](u)
        assert re.shape == im.shape == u.shape
        for x, got_re, got_im in zip(u.tolist(), re.tolist(), im.tolist()):
            with mpmath.workdps(50):
                exact = EXACT_F[shape](mpmath.mpc(0, x))
            for got, want in ((got_re, exact.real), (got_im, exact.imag)):
                if want == 0:
                    assert got == 0.0, (x, got)
                elif abs(want) > np.finfo(float).max:
                    # -u**2 / 2 beyond the float range
                    assert got == -math.inf, (x, got)
                else:
                    assert abs((got - want) / want) <= 1e-15, (x, got, want)

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_no_nan_or_warning_at_extreme_t(self, d):
        # at 1.7e308, s*t overflows for every atom scale above ~1.06, and each
        # kernel takes its limit at |u| = inf
        ts = np.array([0.0, 5e-324, 1e-200, 1e-8, 1.0, 1e8, 1e150, 1e200, 1e300, 1.7e308])
        ts = np.concatenate([-ts[::-1], ts])
        with np.errstate(all="raise"):
            cf = d.characteristic_function(ts)
        assert np.all(np.isfinite(cf))
        assert np.all(np.abs(cf) <= 1.0 + 1e-15)
        assert cf[len(ts) // 2] == 1.0

    def test_shape_and_dtype_follow_t(self):
        d = Rician(r=3.0, mean_power=1.0)
        ts = np.linspace(-3.0, 3.0, 6)
        flat = d.characteristic_function(ts)
        assert flat.dtype == np.complex128 and flat.shape == (6,)
        grid = d.characteristic_function(ts.reshape(2, 3))
        assert grid.dtype == np.complex128 and grid.shape == (2, 3)
        assert np.array_equal(grid.ravel(), flat)
        for t in (ts[1], float(ts[1]), np.array(ts[1])):
            cf = d.characteristic_function(t)
            assert type(cf) is np.complex128
            assert cf == flat[1]


class TestSamplers:
    def test_nakagami_mean(self):
        gen = np.random.default_rng(1)
        x = NakagamiM(m=1.0, mean_power=1.0).sample(gen, 10 ** 6)
        assert abs(np.mean(x) - 1.0) <= 4e-3

    def test_rician_mean(self):
        d = Rician(r=2.0, mean_power=3.0)
        gen = np.random.default_rng(2)
        x = d.sample(gen, 10 ** 6)
        assert abs(np.mean(x) - 3.0) <= 4.0 * math.sqrt(d.variance / 10 ** 6)

    def test_hoyt_variance(self):
        d = Hoyt(b=0.8, mean_power=1.0)
        gen = np.random.default_rng(3)
        x = d.sample(gen, 10 ** 6)
        assert abs(np.var(x) - 1.64) <= 0.05 * 1.64

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_empirical_cgf(self, d):
        strip = d.strip()
        t = 0.5 * strip.upper if math.isfinite(strip.upper) else 0.5
        gen = np.random.default_rng(11)
        x = d.sample(gen, 10 ** 6)
        emp = math.log(np.mean(np.exp(t * x)))
        assert abs(emp - float(d.cgf(t))) <= 1e-2

    @pytest.mark.parametrize("d", ALL_FAMILIES[:-1], ids=lambda d: type(d).__name__)
    def test_nonnegative_samples(self, d):
        gen = np.random.default_rng(4)
        assert np.all(d.sample(gen, 10 ** 4) >= 0.0)


class TestValidation:
    def test_nakagami_m_domain(self):
        with pytest.raises(ValueError, match="0.5"):
            NakagamiM(m=0.3, mean_power=1.0)
        with pytest.raises(ValueError):
            NakagamiM(m=1.0, mean_power=0.0)

    def test_rician_domain(self):
        with pytest.raises(ValueError):
            Rician(r=-0.1, mean_power=1.0)

    def test_hoyt_domain(self):
        with pytest.raises(ValueError, match="1"):
            Hoyt(b=2.0, mean_power=1.0)
        with pytest.raises(ValueError):
            Hoyt(b=-1.0, mean_power=1.0)
        # the extreme valid value is accepted
        Hoyt(b=1.0 - 1e-9, mean_power=1.0)

    def test_gaussian_domain(self):
        with pytest.raises(ValueError):
            GaussianTest(mu=0.0, sigma2=0.0)
