"""Tests for the closed-form price laws and the mixture quadrature."""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.special import ndtr, roots_legendre

from dispersim import laws
from dispersim.errors import QuadratureError
from dispersim.laws import (
    LaplaceParams,
    LognormalParams,
    _legendre_rule,
    laplace_cdf,
    laplace_density,
    laplace_eval,
    lognormal_cdf,
    lognormal_density,
    mixture_density,
)

laplace_params = st.builds(
    LaplaceParams,
    mu=st.floats(min_value=0.5, max_value=10.0),
    sigma=st.floats(min_value=0.05, max_value=2.0),
)


def test_laplace_params_validation():
    with pytest.raises(ValueError):
        LaplaceParams(mu=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        LaplaceParams(mu=1.0, sigma=0.2, mu_m=-0.1)
    with pytest.raises(ValueError):
        LaplaceParams(mu=0.5, sigma=0.2, mu_m=0.6)


def test_laplace_laws_at_the_smallest_scale_are_right_or_refused():
    # below the smallest normal float, 1 / (2 sigma) overflows
    with pytest.raises(ValueError, match="^sigma must be finite and at least "):
        LaplaceParams(mu=1.0, sigma=1e-310)
    # at it, |p - mu| / sigma passes the float range a little off the mode;
    # the laws take the limits there, without a warning
    params = LaplaceParams(mu=1.0, sigma=np.finfo(float).tiny)
    prices = np.array([-1e10, 0.0, 1.0, 3.0, 1e10])
    density = np.array([0.0, 0.0, 0.5 / np.finfo(float).tiny, 0.0, 0.0])
    cumulative = np.array([0.0, 0.0, 0.5, 1.0, 1.0])
    np.testing.assert_array_equal(laplace_density(prices, params), density)
    np.testing.assert_array_equal(laplace_cdf(prices, params), cumulative)
    truncated = laplace_eval(prices, params, truncated=True)
    np.testing.assert_array_equal(truncated[0], density)
    np.testing.assert_array_equal(truncated[1], cumulative)


def test_laplace_density_peak_and_symmetry():
    params = LaplaceParams(mu=1.0, sigma=0.25)
    assert laplace_density(1.0, params) == pytest.approx(2.0)
    assert laplace_density(0.7, params) == laplace_density(1.3, params)
    # one scale out, the density has fallen by exactly 1/e
    ratio = laplace_density(1.25, params) / laplace_density(1.0, params)
    assert ratio == pytest.approx(np.exp(-1.0), rel=1e-14)


def test_laplace_cdf_is_exactly_half_at_center():
    params = LaplaceParams(mu=3.0, sigma=0.7)
    assert laplace_cdf(3.0, params) == 0.5
    below = laplace_cdf(3.0 - 0.7 * np.log(2.0), params)
    above = laplace_cdf(3.0 + 0.7 * np.log(2.0), params)
    assert below == pytest.approx(0.25, rel=1e-13)
    assert above == pytest.approx(0.75, rel=1e-13)


@given(laplace_params, st.floats(min_value=-5.0, max_value=25.0))
def test_laplace_cdf_derivative_matches_density(params, p):
    h = 1e-6
    num = (laplace_cdf(p + h, params) - laplace_cdf(p - h, params)) / (2 * h)
    assert num == pytest.approx(laplace_density(p, params), rel=1e-3, abs=1e-9)


def test_laplace_eval_without_floor_matches_plain_forms():
    params = LaplaceParams(mu=2.0, sigma=0.4)
    p = np.linspace(0.0, 5.0, 11)
    dens, cum = laplace_eval(p, params)
    np.testing.assert_allclose(dens, laplace_density(p, params), rtol=1e-14)
    np.testing.assert_allclose(cum, laplace_cdf(p, params), rtol=1e-14)


def test_laplace_eval_truncated_renormalizes():
    params = LaplaceParams(mu=1.0, sigma=0.3, mu_m=0.4)
    below, _ = laplace_eval(np.array([0.0, 0.2, 0.39]), params, truncated=True)
    assert np.all(below == 0.0)
    # integrate on a grid that starts exactly at the floor, so the only
    # nonsmooth point inside the domain is the kink at the center
    p = np.linspace(0.4, 6.0, 56001)
    dens, cum = laplace_eval(p, params, truncated=True)
    assert simpson(dens, x=p) == pytest.approx(1.0, abs=1e-6)
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.diff(cum) >= 0.0)
    # mass below the floor is folded back in by a uniform rescaling
    plain = laplace_density(p, params)
    np.testing.assert_allclose(dens / plain, dens[0] / plain[0], rtol=1e-12)


@given(laplace_params)
def test_laplace_normalization_and_variance_by_quadrature(params):
    half_width = 40.0 * params.sigma
    p = np.linspace(params.mu - half_width, params.mu + half_width, 4001)
    dens = laplace_density(p, params)
    norm = simpson(dens, x=p)
    var = simpson(dens * (p - params.mu) ** 2, x=p)
    assert norm == pytest.approx(1.0, abs=1e-7)
    assert var == pytest.approx(2 * params.sigma**2, rel=1e-6)



def test_lognormal_params_validation():
    with pytest.raises(ValueError):
        LognormalParams(gamma=0.0, omega=0.2)
    with pytest.raises(ValueError):
        LognormalParams(gamma=1.0, omega=0.0)
    with pytest.raises(ValueError):
        LognormalParams(gamma=1.0, omega=0.2, shift=-0.1)


def test_lognormal_density_normalizes_and_vanishes_below_shift():
    params = LognormalParams(gamma=0.41, omega=0.245, shift=0.0245)
    x = np.linspace(0.0, 20.0, 400001)
    dens = lognormal_density(x, params)
    assert np.all(dens[x <= 0.0245] == 0.0)
    assert simpson(dens, x=x) == pytest.approx(1.0, abs=1e-6)


def test_lognormal_cdf_median_and_monotonicity():
    params = LognormalParams(gamma=0.5, omega=0.3, shift=0.1)
    # the median of the unshifted part sits at gamma, so the shifted median
    # is shift + gamma
    assert lognormal_cdf(0.6, params) == pytest.approx(0.5, abs=1e-14)
    x = np.linspace(0.0, 5.0, 1001)
    cum = lognormal_cdf(x, params)
    assert np.all(np.diff(cum) >= 0.0)
    assert cum[0] == 0.0


@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_lognormal_cdf_matches_scipy_ndtr(shift):
    params = LognormalParams(gamma=0.7, omega=0.4, shift=shift)
    z = np.linspace(-38.0, 9.0, 20001)
    w = shift + params.gamma * np.exp(params.omega * z)
    ref = ndtr(np.log((w - shift) / params.gamma) / params.omega)
    got = lognormal_cdf(w, params)
    assert np.max(np.abs(got - ref)) <= 2.3e-16
    normal = ref >= 2.3e-308
    assert np.max(np.abs(got[normal] - ref[normal]) / ref[normal]) <= 1e-12
    # At and below the shift the cumulative is exactly zero.
    below = np.array([shift, shift - 1e-9, shift - 1.0, -np.inf])
    assert np.all(lognormal_cdf(below, params) == 0.0)
    # A scalar gives a scalar, the same as the array entry.
    one = lognormal_cdf(float(w[15000]), params)
    assert np.ndim(one) == 0 and one == got[15000]
    assert lognormal_cdf(shift, params) == 0.0


def test_lognormal_moments_against_quadrature():
    params = LognormalParams(gamma=1.3, omega=0.4, shift=0.2)
    mean = 0.2 + 1.3 * np.exp(0.4**2 / 2.0)
    var = 1.3**2 * np.exp(0.4**2) * (np.exp(0.4**2) - 1.0)

    def integrand_mean(x):
        return x * lognormal_density(x, params)

    num_mean = quad(integrand_mean, 0.2, np.inf)[0]
    assert mean == pytest.approx(num_mean, rel=1e-9)

    def integrand_sq(x):
        return (x - mean) ** 2 * lognormal_density(x, params)

    num_var = quad(integrand_sq, 0.2, np.inf)[0]
    assert var == pytest.approx(num_var, rel=1e-8)


TINY = np.finfo(float).tiny
positive_floats = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


def _lognormal_oracle(x: float, gamma: float, omega: float) -> tuple[float, float]:
    """Density and cumulative at ``x > 0`` in log space, from Python floats.

    ``log(x / gamma)`` is the quotient's log where that quotient is a normal
    float and ``log(x) - log(gamma)`` elsewhere; Python's float division
    and products give inf on overflow without a warning.
    """
    ratio = x / gamma
    log_ratio = math.log(ratio) if TINY <= ratio < math.inf else math.log(x) - math.log(gamma)
    z = log_ratio / omega
    log_density = -0.5 * z * z - math.log(omega) - 0.5 * math.log(2.0 * math.pi) - math.log(x)
    density = math.exp(log_density) if log_density < 709.0 else math.inf
    return density, 0.5 * math.erfc(-z / math.sqrt(2.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
       positive_floats, positive_floats, st.floats(min_value=0.0, max_value=1e308))
@example([1e308, 1.7e308], 1.0, 1.5, 0.0)  # sqrt(2 pi) * omega * x overflows
@example([1.0, 1e300], 1e-300, 3.0, 0.0)  # x / gamma overflows
@example([1e-300], 1e10, 300.0, 0.0)  # x / gamma underflows to a subnormal
@example([1e-291], 1.1548224173015787e-308, 1.0, 0.0)  # exp underflows, 1 / scale is huge
@example([1e200], 1e200, 1e-170, 0.0)  # 2 omega**2 underflows to 0 at x = gamma
@example([1.0], 1.0, 1e200, 0.0)  # omega**2 overflows
@example([-1.7e308, 1.7e308], 1.0, 1.0, 1.7e308)  # values - shift overflows below the shift
def test_lognormal_laws_are_right_over_the_float_range(values, gamma, omega, shift):
    params = LognormalParams(gamma=gamma, omega=omega, shift=shift)
    density = lognormal_density(np.array(values), params)
    cumulative = lognormal_cdf(np.array(values), params)
    for v, d, c in zip(values, density.tolist(), cumulative.tolist()):
        if not v > shift:
            assert d == 0.0 and c == 0.0
            continue
        want_d, want_c = _lognormal_oracle(v - shift, gamma, omega)
        assert math.isclose(d, want_d, rel_tol=1e-9, abs_tol=2 * TINY), (v, d, want_d)
        assert math.isclose(c, want_c, rel_tol=1e-9, abs_tol=TINY), (v, c, want_c)


@pytest.mark.parametrize("params", [LognormalParams(1.0, 0.3), LognormalParams(2.5, 1.7, 0.5)])
def test_lognormal_laws_keep_the_plain_formulas_bits_inside_the_float_range(params):
    values = np.linspace(params.shift + 1e-3, 60.0, 20001)
    x = values - params.shift
    log_term = np.log(x / params.gamma)
    density = np.exp(-(log_term**2) / (2.0 * params.omega**2)) / (
        np.sqrt(2.0 * np.pi) * params.omega * x)
    z = log_term / params.omega
    cumulative = 0.5 * np.array([math.erfc(v) for v in (-z / np.sqrt(2.0)).tolist()])
    assert lognormal_density(values, params).tobytes() == density.tobytes()
    assert lognormal_cdf(values, params).tobytes() == cumulative.tobytes()


def test_lognormal_density_scalar_in_scalar_out():
    params = LognormalParams(gamma=1.0, omega=0.3)
    out = lognormal_density(1.0, params)
    assert np.isscalar(out) or np.ndim(out) == 0


def test_mixture_collapses_to_conditional_when_spread_is_tiny():
    # a nearly-deterministic center makes the blend indistinguishable from
    # a single two-sided exponential with mean m + g and scale g
    law = LognormalParams(gamma=1.0, omega=0.01)
    p = np.linspace(0.2, 3.0, 57)
    mixed = mixture_density(p, law)
    target = laplace_density(p, LaplaceParams(mu=1.0, sigma=1.0))
    rel = np.abs(mixed - target) / target
    assert rel.max() < 0.01


def test_mixture_collapses_to_center_law_when_conditional_is_sharp():
    law = LognormalParams(gamma=1.0, omega=0.245)
    p = np.linspace(0.5, 2.0, 31)
    # the collapse error scales with conditional_scale squared and peaks at
    # the range edges, so the scale must be this small for 1% out to p=0.5
    mixed = mixture_density(
        p, law, conditional_scale=0.005, n_nodes=65537, rel_tol=1e-3
    )
    target = lognormal_density(p, law)
    rel = np.abs(mixed - target) / target
    assert rel.max() < 0.01


def test_mixture_single_point_against_independent_quadrature():
    law = LognormalParams(gamma=1.0, omega=0.245)

    def integrand(w):
        cond = np.exp(-abs(1.0 - w) / w) / (2.0 * w)
        center = np.exp(-0.5 * (np.log(w) / 0.245) ** 2) / (
            w * 0.245 * np.sqrt(2.0 * np.pi)
        )
        return cond * center

    expected = quad(integrand, 1e-12, np.inf, limit=200)[0]
    got = mixture_density(1.0, law, n_nodes=65537, rel_tol=1e-9)
    assert float(got) == pytest.approx(expected, rel=1e-6)


def test_mixture_normalizes_over_the_whole_line():
    law = LognormalParams(gamma=1.0, omega=0.245)
    # conditional scale grows with the gap, so components a few log-sigmas
    # above the center are several units wide; the interval must cover
    # their absolute tails or ~1e-4 of mass is left outside
    p = np.linspace(-40.0, 42.0, 40001)
    dens = mixture_density(p, law)
    assert simpson(dens, x=p) == pytest.approx(1.0, abs=1e-6)


def test_mixture_does_not_depend_on_the_stopping_tolerance():
    law = LognormalParams(gamma=1.0, omega=0.3)
    p = np.linspace(0.2, 3.0, 401)
    loose = mixture_density(p, law, rel_tol=1e-6)
    tight = mixture_density(p, law, rel_tol=1e-10)
    assert np.max(np.abs(tight - loose)) <= 1e-6 * np.max(tight)


def test_mixture_grids_agree_where_they_share_prices():
    # each price is integrated on its own panels, so refining the price grid
    # must not move the values at the prices both grids contain
    law = LognormalParams(gamma=1.0, omega=0.3)
    coarse = mixture_density(np.linspace(0.2, 3.0, 401), law)
    fine = mixture_density(np.linspace(0.2, 3.0, 4001), law)
    assert np.max(np.abs(fine[::10] - coarse)) <= 1e-9 * np.max(fine)


@pytest.mark.parametrize("offset", [-0.3, 0.0, 0.05, 1.0, 12.0])
def test_mixture_matches_independent_quadrature_wherever_the_kink_falls(offset):
    # prices at or below floor + shift have no kink; offsets 0.05 and 12 put
    # the kink below and above the eight-log-sigma range of the gap law, and
    # 1.0 puts it inside, where the panels must split exactly at it
    law = LognormalParams(gamma=1.0, omega=0.245, shift=0.2)
    floor = 0.3
    price = floor + law.shift + offset

    def integrand(w):
        return np.exp(-abs(price - floor - w) / w) / (2.0 * w) * lognormal_density(w, law)

    kink = price - floor
    pieces = [(law.shift, kink), (kink, np.inf)] if kink > law.shift else [(law.shift, np.inf)]
    expected = sum(quad(integrand, a, b, limit=200, epsabs=0.0)[0] for a, b in pieces)
    got = mixture_density(price, law, floor=floor)
    assert float(got) == pytest.approx(expected, rel=1e-10)


def test_mixture_node_ceiling_builds_no_rule_of_that_size():
    # n_nodes caps the Gauss nodes per panel; the sharp limit converges long
    # before it, so a 65537 ceiling must stay cheap
    law = LognormalParams(gamma=1.0, omega=0.245)
    p = np.linspace(0.5, 2.0, 31)
    start = time.perf_counter()
    mixture_density(p, law, conditional_scale=0.005, n_nodes=65537, rel_tol=1e-3)
    assert time.perf_counter() - start < 0.5


def test_mixture_reports_achieved_error_when_refinement_stalls():
    law = LognormalParams(gamma=1.0, omega=0.245)
    with pytest.raises(QuadratureError) as exc:
        mixture_density(np.array([1.0]), law, conditional_scale=0.01, n_nodes=17)
    assert exc.value.achieved > 1e-6


def test_mixture_blocks_of_prices_keep_every_bit(monkeypatch):
    law = LognormalParams(gamma=1.0, omega=0.3)
    p = np.linspace(0.2, 3.0, 401)
    whole = mixture_density(p, law, rel_tol=1e-10)
    # seven prices a block at 64 nodes, one a block from 512 nodes on
    monkeypatch.setattr(laws, "_MIXTURE_BLOCK", 2 * 64 * 7)
    assert mixture_density(p, law, rel_tol=1e-10).tobytes() == whole.tobytes()


def test_mixture_that_does_not_converge_needs_memory_bounded_in_the_prices():
    # unblocked, each (prices, 2, 2048) temporary of this run takes 33 MB
    # and the run peaks near 190 MB
    law = LognormalParams(gamma=1.0, omega=0.3)
    p = np.linspace(0.2, 3.0, 1001)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError) as exc:
            mixture_density(p, law, n_nodes=2048, rel_tol=1e-15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.achieved == pytest.approx(2.5145624650773517e-15, rel=1e-9)
    assert peak < 64e6


def test_mixture_on_the_bench_grid_peaks_under_14_mb():
    # three reused block buffers of a rule in place of a dozen (prices, 2, m)
    # temporaries of 4 MB each; with those temporaries the run peaks near 25 MB
    law = LognormalParams(gamma=1.0, omega=0.3)
    p = np.linspace(0.2, 3.0, 4001)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mixture_density(p, law)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 14e6


def test_mixture_argument_validation():
    law = LognormalParams(gamma=1.0, omega=0.245)
    with pytest.raises(ValueError):
        mixture_density(1.0, law, conditional_scale=0.0)
    with pytest.raises(ValueError):
        mixture_density(1.0, law, floor=-0.5)
    with pytest.raises(ValueError, match="floor"):
        mixture_density(1.0, law, floor=float("nan"))
    with pytest.raises(ValueError, match="conditional_scale"):
        mixture_density(1.0, law, conditional_scale=float("nan"))
    with pytest.raises(ValueError):
        mixture_density(1.0, law, n_nodes=5)
    for rel_tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="rel_tol"):
            mixture_density(1.0, law, rel_tol=rel_tol)


def test_mixture_floor_shifts_support():
    law = LognormalParams(gamma=1.0, omega=0.1)
    lo = mixture_density(0.05, law, floor=0.0)
    hi = mixture_density(0.55, law, floor=0.5)
    # shifting the floor translates the whole blend
    assert float(hi) == pytest.approx(float(lo), rel=1e-9)


# ---------------------------------------------------------------------------
# Gauss-Legendre rule, against scipy's as the reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 5, 32, 33, 64, 128, 256, 512, 1024, 2048, 4096])
def test_legendre_rule_matches_scipy_and_integrates_polynomials_exactly(m):
    x, w = _legendre_rule(m)
    ref_x, _ = roots_legendre(m)
    assert np.all(np.diff(x) > 0.0)
    assert np.max(np.abs(x - ref_x)) <= 2.0 * np.finfo(float).eps
    assert abs(w.sum() - 2.0) <= 1e-14
    # an m-node rule integrates x^k exactly for every k <= 2m - 1; with the
    # nodes fixed, the first m of these moments determine the weights
    power, worst = np.ones_like(x), 0.0
    for k in range(2 * m):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        worst = max(worst, abs(float(w @ power) - exact))
        power = power * x
    assert worst <= 1e-14


# The sharp limit resolves a kink of width 0.005 to rel_tol 1e-3, so its
# result carries the rules' own rounding further than the smooth grids do.
@pytest.mark.parametrize("prices, options, bound", [
    (np.linspace(0.2, 3.0, 401), {}, 1e-13),
    (np.linspace(0.2, 3.0, 4001), {}, 1e-13),
    (np.linspace(0.5, 2.0, 31),
     {"conditional_scale": 0.005, "n_nodes": 65537, "rel_tol": 1e-3}, 1e-10),
])
def test_mixture_density_barely_moves_from_the_scipy_rule(prices, options, bound,
                                                          monkeypatch):
    law = LognormalParams(gamma=1.0, omega=0.3)
    ours = mixture_density(prices, law, **options)
    monkeypatch.setattr(laws, "_legendre_rule", roots_legendre)
    ref = mixture_density(prices, law, **options)
    assert np.max(np.abs(ours - ref)) <= bound * np.max(ref)
