"""Radial measures: moment quadrature against scipy.integrate.quad, closed
forms for ball measures, and the two moment identities."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.integrate import quad

import bmstab.measures as measures_module
from bmstab.measures import (MomentTriple, ball_growth_derivatives,
                             ball_measure, make_measure, measure_from_spec,
                             moment_identities, moments, radial_profile)
from bmstab.oracles import central_derivative

ALL_KINDS = [
    {"kind": "lebesgue"},
    {"kind": "gaussian"},
    {"kind": "exp_power", "p": 1},
    {"kind": "exp_power", "p": 3},
]


def quad_moment(measure, D, n, power):
    """Independent oracle: 1-d adaptive quadrature of the moment integrand."""
    deriv = {0: measure.f, 1: measure.fprime, 2: measure.fsecond}[power]
    val, err = quad(lambda t: t ** (n - 1 + power) * float(deriv(t * D)),
                    0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s["kind"] + str(s.get("p", "")))
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("D", [0.5, 1.0, 2.0])
def test_moments_match_scipy_quad(spec, n, D):
    mu = make_measure(**spec)
    t = moments(mu, D, n)
    assert isinstance(t, MomentTriple)
    assert t.A == pytest.approx(quad_moment(mu, D, n, 0), rel=1e-9)
    assert t.B == pytest.approx(quad_moment(mu, D, n, 1), rel=1e-9, abs=1e-12)
    assert t.C == pytest.approx(quad_moment(mu, D, n, 2), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s["kind"] + str(s.get("p", "")))
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_moment_identity_residuals(spec, n, R):
    mu = make_measure(**spec)
    r1, r2 = moment_identities(mu, R, n)
    assert r1 < 1e-10
    assert r2 < 1e-10


def test_radial_profile_matches_pointwise(gaussian):
    D = np.array([0.3, 0.3, 1.0, 1.7, 1.0])
    prof = radial_profile(gaussian, D, 3, powers=(0, 1, 2))
    assert prof.shape == (3, 5)
    for j, d in enumerate(D):
        t = moments(gaussian, float(d), 3)
        assert prof[0, j] == pytest.approx(t.A, rel=1e-12)
        assert prof[1, j] == pytest.approx(t.B, rel=1e-12)
        assert prof[2, j] == pytest.approx(t.C, rel=1e-12)
    # repeated scales share the same value exactly
    assert prof[0, 0] == prof[0, 1]
    assert prof[0, 2] == prof[0, 4]


def _direct_profile(measure, D, n, powers):
    # every scale integrated by adaptive_gk, bypassing the interpolant
    return measures_module._integrate_profile(
        measure, np.asarray(D, dtype=float), n, powers)


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s["kind"] + str(s.get("p", "")))
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("lo,hi", [(0.95, 1.05), (0.7, 1.3), (0.3, 2.0)])
def test_radial_profile_interpolant_matches_direct(spec, n, lo, hi):
    # accepted or not, the profile over 300 scales agrees with integrating
    # every scale, for all three moments
    mu = make_measure(**spec)
    D = lo + (hi - lo) * (0.5 + 0.5 * np.sin(np.arange(300)))
    got = radial_profile(mu, D, n, powers=(0, 1, 2))
    assert got.shape == (3, 300)
    assert np.max(np.abs(got - _direct_profile(mu, D, n, (0, 1, 2)))) < 1e-14


def _kinked_measure():
    # f(r) = exp(-max(r - 1, 0)) is log-concave with a kink at r = 1, so A(D)
    # has a kink in its second derivative
    def f(r):
        return np.exp(-np.maximum(np.asarray(r, dtype=float) - 1.0, 0.0))

    def fprime(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 1.0, -f(r), 0.0)

    def fsecond(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 1.0, f(r), 0.0)

    return make_measure("custom", f=f, fprime=fprime, fsecond=fsecond,
                        name="kinked")


def test_radial_profile_kinked_profile_falls_back_to_direct(gk_widths):
    # across the kink of _kinked_measure the interpolant's tail test must
    # reject the fit, and the result is the direct route's, bit for bit
    kinked = _kinked_measure()
    D = np.linspace(0.8, 1.2, 25)
    got = radial_profile(kinked, D, 3)
    assert gk_widths == [measures_module._CHEB_POINTS, D.size]
    assert np.array_equal(got, _direct_profile(kinked, D, 3, (0,)))


@pytest.mark.parametrize("size", [0, 1, 2, 14, 15, 300])
def test_radial_profile_route_does_not_depend_on_repeats(monkeypatch, size,
                                                         gaussian):
    # a batch and the same batch with each scale repeated 5 times agree bit
    # for bit, scale by scale: the route reads the distinct scales alone.
    # One scale is integrated once, the Gaussian over [0.95, 1.05] is
    # interpolated, and the kinked profile across its kink is integrated
    # scale by scale after its tail test fails (up to 15 scales: 300 take
    # 4 s on that route)
    routes, real = [], measures_module._profile_fit

    def recording(measure, D, n, powers):
        fit, direct = real(measure, D, n, powers)
        routes.append("interpolated" if fit else "direct"
                      if D.size and D.min() < D.max() else "one scale")
        return fit, direct

    monkeypatch.setattr(measures_module, "_profile_fit", recording)
    cases = [(gaussian, 0.95, 1.05, ((0,), (0, 1, 2)))]
    if size <= 15:
        cases.append((_kinked_measure(), 0.8, 1.2, ((0,),)))
    for mu, lo, hi, moments_of in cases:
        D = np.linspace(lo, hi, size)
        for powers in moments_of:
            got = radial_profile(mu, D, 3, powers)
            assert got.shape == (len(powers), size)
            repeated = radial_profile(mu, np.repeat(D, 5), 3, powers)
            assert np.array_equal(repeated, np.repeat(got, 5, axis=1)), (
                mu.kind, powers)
    assert set(routes) == ({"one scale"} if size <= 1 else
                           {"interpolated"} if size > 15 else
                           {"interpolated", "direct"})


def test_adaptive_gk_column_does_not_depend_on_batch_width():
    # polynomials of degree 10, on which both rules are exact, take one
    # panel: a column's sums are bitwise the same alone as in a batch of 40
    rng = np.random.default_rng(5)
    C = rng.normal(size=(11, 40)) * 10.0 ** rng.uniform(-3, 0, size=(1, 40))

    def batch(cols):
        return lambda t: np.polynomial.polynomial.polyval(t[:, None], cols,
                                                          tensor=False)

    wide = measures_module.adaptive_gk(batch(C), 0.0, 1.0)
    for j in range(C.shape[1]):
        one = measures_module.adaptive_gk(batch(C[:, j:j + 1]), 0.0, 1.0)
        assert one[0] == wide[j], j


def test_radial_profile_zero_width_range_is_integrated(gk_widths, gaussian):
    # no interpolant over a single scale: it is integrated directly, as a
    # batch of one, and repeated, bitwise as if every scale were integrated
    D = np.full(40, 1.3)
    got = radial_profile(gaussian, D, 3, powers=(0, 1))
    assert gk_widths == [2]
    assert np.array_equal(got, _direct_profile(gaussian, D, 3, (0, 1)))
    assert np.all(got == got[:, :1])
    for spec in ALL_KINDS:
        mu = make_measure(**spec)
        for n in (2, 3, 4):
            for R in (0.3, 1.0, 1.7, 3.0):
                for m in (3, 15, 16, 160, 1000):
                    D = np.full(m, R)
                    for powers in ((0,), (0, 1, 2)):
                        assert np.array_equal(
                            radial_profile(mu, D, n, powers),
                            _direct_profile(mu, D, n, powers)), \
                            (spec, n, R, m, powers)


@pytest.mark.parametrize("powers", [(0,), (0, 1, 2)])
@pytest.mark.parametrize("size", [1000, 262_144 + 5])
def test_radial_profile_blocks_match_one_pass(gaussian, size, powers):
    # the interpolant runs tile by tile (the last one partial when size is
    # not a multiple of the tile) in an in-place Clenshaw recurrence; the
    # values are bitwise those of numpy's chebval in one pass over every
    # scale, with the coefficients of the fit
    D = 0.8 + 0.5 * (0.5 + 0.5 * np.sin(np.arange(size)))
    got = radial_profile(gaussian, D, 3, powers)
    (mid, half, coef), direct = measures_module._profile_fit(gaussian, D, 3,
                                                             powers)
    assert direct is None
    want = chebyshev.chebval((D - mid) / half, coef)
    assert got.shape == want.shape == (len(powers), size)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("R", [0.4, 1.0, 1.9])
def test_ball_measure_closed_forms(R, lebesgue, gaussian, exp1):
    assert ball_measure(lebesgue, R, 2) == pytest.approx(math.pi * R * R,
                                                         rel=1e-12)
    assert ball_measure(lebesgue, R, 3) == pytest.approx(
        4.0 / 3.0 * math.pi * R ** 3, rel=1e-12)
    assert ball_measure(gaussian, R, 2) == pytest.approx(
        2 * math.pi * (1.0 - math.exp(-R * R / 2)), rel=1e-10)
    # exp(-r): 2 pi integral_0^R r e^{-r} dr = 2 pi (1 - e^{-R}(1+R))
    assert ball_measure(exp1, R, 2) == pytest.approx(
        2 * math.pi * (1.0 - math.exp(-R) * (1.0 + R)), rel=1e-10)


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s["kind"] + str(s.get("p", "")))
@pytest.mark.parametrize("n", [2, 3])
def test_ball_growth_derivatives_match_fd(spec, n):
    mu = make_measure(**spec)
    R = 1.1
    G, G1, G2 = ball_growth_derivatives(mu, R, n)
    assert G == pytest.approx(ball_measure(mu, R, n), rel=1e-12)
    fd1 = central_derivative(lambda rs: [ball_measure(mu, r, n) for r in rs],
                             R, order=1, step=1e-3)
    fd2 = central_derivative(lambda rs: [ball_measure(mu, r, n) for r in rs],
                             R, order=2, step=1e-3)
    assert G1 == pytest.approx(fd1, rel=1e-7)
    assert G2 == pytest.approx(fd2, rel=1e-5, abs=1e-7)


def test_gaussian_growth_flat_at_one():
    # the gaussian surface term (n-1)f(R)/R + f'(R) vanishes at R = sqrt(n-1)
    mu = make_measure(kind="gaussian")
    _, _, G2 = ball_growth_derivatives(mu, 1.0, 2)
    assert abs(G2) < 1e-14


def test_measure_describe_and_spec_roundtrip():
    for spec in ALL_KINDS:
        mu = measure_from_spec(dict(spec))
        desc = mu.describe()
        assert desc["kind"] == spec["kind"]
        if "p" in spec:
            assert desc["p"] == spec["p"]
        again = measure_from_spec(dict(desc))  # describe() is a valid spec
        r = np.linspace(0.1, 2.0, 7)
        assert np.allclose(again.f(r), mu.f(r), rtol=1e-14)


def test_custom_measure_profile():
    # f(r) = exp(-r^2/2 - 0.3 r): log-concave, decreasing, smooth
    def f(r):
        return np.exp(-0.5 * r * r - 0.3 * r)

    mu = make_measure(kind="custom",
                      f=f,
                      fprime=lambda r: -(r + 0.3) * f(r),
                      fsecond=lambda r: ((r + 0.3) ** 2 - 1.0) * f(r))
    r1, r2 = moment_identities(mu, 1.3, 3)
    assert r1 < 1e-10 and r2 < 1e-10


def test_make_measure_rejects_bad_profiles():
    with pytest.raises(ValueError):
        make_measure(kind="cauchy")
    with pytest.raises(ValueError):
        make_measure(kind="exp_power", p=0)  # p must be >= 1
    # not log-concave: (log f)'' = 4/(1+r)^2 > 0
    with pytest.raises(ValueError):
        make_measure(kind="custom",
                     f=lambda r: (1.0 + r) ** -4.0,
                     fprime=lambda r: -4.0 * (1.0 + r) ** -5.0,
                     fsecond=lambda r: 20.0 * (1.0 + r) ** -6.0)
    # increasing density
    with pytest.raises(ValueError):
        make_measure(kind="custom",
                     f=lambda r: np.exp(+0.1 * r - 0.5 * r * r),
                     fprime=lambda r: (0.1 - r) * np.exp(0.1 * r - 0.5 * r * r),
                     fsecond=lambda r: ((0.1 - r) ** 2 - 1.0)
                     * np.exp(0.1 * r - 0.5 * r * r))
