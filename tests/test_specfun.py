"""Special-function tests against scipy/mpmath references and the
identities the rest of the library leans on."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi_bounds.errors import DomainError
from renyi_bounds.specfun import (
    LOG_2PI,
    _fixed_point_v,
    beta,
    beta_tilde,
    kappa,
    ln_gamma,
    log_beta,
    log_beta_tilde,
    theta,
)
from renyi_bounds.verify import _kappa_via_lambert, _lambert_w0

# mpmath references, 20 significant digits
THETA_HALF = 0.15342640972002734529
THETA_TWO = 0.041340695955409294094
LN_GAMMA_03 = 1.0957979948180755217
KAPPA_HALF = 0.80474234254941181121
U_STAR_HALF = 3.9215536345675050925


def _kappa_fixed_point(t: float) -> float:
    """The maximizer u*_t of log(1 + u) / u^t, for t in (0, 1).

    Solves u = t (1 + u) log(1 + u).  Returns inf when u*_t ~ e^(1/t)
    exceeds double range (t below roughly 1.4e-3); kappa(t) itself stays
    finite and is computed from log(1 + u*) instead.
    """
    if t == 1.0:
        raise DomainError("the fixed point diverges to 0/0 at t = 1")
    v = _fixed_point_v(t)
    return math.expm1(v) if v < 709.0 else math.inf


class TestLnGamma:
    def test_exact_points(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
        assert ln_gamma(0.3) == pytest.approx(LN_GAMMA_03, rel=1e-13)

    def test_against_scipy_wide_range(self):
        xs = np.geomspace(1e-6, 1e8, 200)
        for x in xs:
            ref = sp.gammaln(x)
            assert abs(ln_gamma(float(x)) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_reflection_example(self):
        lhs = ln_gamma(0.3) + ln_gamma(0.7)
        rhs = math.log(math.pi / math.sin(0.3 * math.pi))
        assert lhs == pytest.approx(rhs, abs=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            ln_gamma(x)

    def test_subnormal_is_finite(self):
        # the reflection formula gave log(pi / sin(pi x)) = log(inf) = inf here
        assert ln_gamma(1e-310) == pytest.approx(713.8013788281542, rel=1e-15)

    @pytest.mark.parametrize("x", [2.6e305, 3e305, 1e308])
    def test_value_beyond_the_float_range_is_refused(self, x):
        # the Stirling branch returned inf
        with pytest.raises(DomainError, match="leaves the float range"):
            ln_gamma(x)


@given(st.floats(min_value=0.01, max_value=0.99))
def test_reflection_property(x):
    lhs = ln_gamma(x) + ln_gamma(1.0 - x)
    rhs = math.log(math.pi / math.sin(math.pi * x))
    assert abs(lhs - rhs) <= 1e-10


class TestTheta:
    def test_known_values(self):
        assert theta(0.5) == pytest.approx(THETA_HALF, rel=1e-13)
        assert theta(2.0) == pytest.approx(THETA_TWO, rel=1e-13)

    def test_decreasing(self):
        assert theta(1.0) > theta(2.0)

    def test_large_argument_no_cancellation(self):
        # Direct subtraction at x = 1e6 would only retain ~2 digits;
        # the series value must match the leading term 1/(12x) closely.
        t = theta(1e6)
        assert t < 1e-6
        assert abs(t - 1.0 / 12e6) < 2.0 / (360.0 * 1e18)

    def test_matches_direct_binet_formula(self):
        # Independent route through scipy's gammaln.
        for x in (0.5, 1.3, 4.0, 9.5):
            direct = sp.gammaln(x) - (x - 0.5) * math.log(x) + x - 0.5 * math.log(2 * math.pi)
            assert theta(x) == pytest.approx(direct, abs=1e-12)

    def test_convexity_on_doubling_grid(self):
        xs = [0.1 * 2.0**k for k in range(0, 20)]
        ts = [theta(x) for x in xs]
        slopes = [(ts[i + 1] - ts[i]) / (xs[i + 1] - xs[i]) for i in range(len(ts) - 1)]
        for i in range(len(slopes) - 1):
            assert slopes[i + 1] - slopes[i] >= -1e-8
        for i in range(len(ts) - 1):
            assert ts[i + 1] <= ts[i] + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            theta(-2.0)

    @pytest.mark.parametrize("x", [0.0, math.inf, math.nan])
    def test_domain_zero_and_non_finite(self, x):
        with pytest.raises(DomainError):
            theta(x)

    def test_subnormal_is_finite(self):
        assert theta(1e-310) == pytest.approx(355.9817508808724, rel=1e-15)


class TestBeta:
    def test_beta_one_one(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_beta_tilde_one_one(self):
        assert beta_tilde(1.0, 1.0) == pytest.approx(4.0, rel=1e-13)

    def test_beta_tilde_grenie_bound(self):
        assert beta_tilde(2.0, 3.0) >= (2.0 + 3.0) / (2.0 * 3.0)

    def test_binet_identity(self):
        # log_beta_tilde is the Binet form; check it against the definition
        # with scipy's log B, on arguments where the definition does not cancel
        grid = [0.3, 1.0, 2.7, 10.5, 100.0]
        for x in grid:
            for y in grid:
                direct = (float(sp.betaln(x, y)) + (x + y) * math.log(x + y)
                          - x * math.log(x) - y * math.log(y))
                assert abs(log_beta_tilde(x, y) - direct) <= 1e-10

    def test_against_scipy(self):
        for x, y in ((0.5, 0.5), (2.0, 3.0), (7.5, 0.25)):
            assert beta(x, y) == pytest.approx(float(sp.beta(x, y)), rel=1e-12)

    def test_log_beta_domain(self):
        with pytest.raises(DomainError):
            log_beta(-1.0, 1.0)

    @pytest.mark.parametrize("a", [499999.5, 1e7, 3e8])
    def test_log_beta_tilde_large_equal_arguments(self, a):
        # B~(a, a) = 2 sqrt(pi) G(a) / G(a + 1/2); near r = 1 the terms of
        # log B + 2a log(2a) - 2a log a are 1e7 and cancel to a few units
        expect = math.log(2.0 * math.sqrt(math.pi)) - math.log(sp.poch(a, 0.5))
        assert log_beta_tilde(a, a) == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize(
        "x, y", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
                 (0.0, 1.0), (1.0, -1.0), (1e308, 1e308)]
    )
    def test_log_beta_tilde_domain(self, x, y):
        # checked once on entry: unchecked, (inf, 1), (nan, 1) and
        # (1e308, 1e308) (a sum that overflows) gave nan, nan and inf
        with pytest.raises(DomainError):
            log_beta_tilde(x, y)


@pytest.mark.parametrize("fn, args", [
    (beta, (5e-324, 5e-324)), (beta, (1e-310, 1.0)), (beta_tilde, (1e-320, 1e-320)),
], ids=["beta-subnormals", "beta-1e-310", "beta_tilde-subnormals"])
def test_value_beyond_the_float_range_is_a_domain_error(fn, args):
    # the log is finite, but its exp raised a bare OverflowError
    with pytest.raises(DomainError, match="leaves the float range"):
        fn(*args)


_HUGE = 10**400  # a Python int that float() refuses with OverflowError
_HUGER = 10**5000  # one whose repr raises ValueError as well (over 4,300 digits)


_HUGE_CALLS = [
    (ln_gamma, (_HUGE,)), (theta, (_HUGE,)), (log_beta, (_HUGE, 1)), (beta, (1, _HUGE)),
    (log_beta_tilde, (_HUGE, 1)), (beta_tilde, (1, _HUGE)), (kappa, (_HUGE,)),
]
_HUGER_CALLS = [(fn, tuple(_HUGER if a is _HUGE else a for a in args)) for fn, args in _HUGE_CALLS]


@pytest.mark.parametrize(
    "fn, args", _HUGE_CALLS + _HUGER_CALLS,
    ids=[fn.__name__ for fn, _ in _HUGE_CALLS]
    + [f"{fn.__name__}-5000-digits" for fn, _ in _HUGE_CALLS],
)
def test_int_beyond_the_float_range_is_a_domain_error(fn, args):
    # each used to raise a bare OverflowError from float() or int division
    with pytest.raises(DomainError, match="beyond the float range"):
        fn(*args)


# Error maps against mpmath at 50 digits: the largest
# |err| / max(1, |exact|) over a seeded log-uniform sample and the edges.
def _mp_theta(x):
    return mpmath.loggamma(x) - (x - 0.5) * mpmath.log(x) + x - mpmath.log(2 * mpmath.pi) / 2


def _mp_log_beta_tilde(x, y):
    return (mpmath.loggamma(x) + mpmath.loggamma(y) - mpmath.loggamma(x + y)
            + (x + y) * mpmath.log(x + y) - x * mpmath.log(x) - y * mpmath.log(y))


def _worst(fn, exact, args):
    worst = 0.0
    with mpmath.workdps(50):
        for a in args:
            want = exact(*map(mpmath.mpf, a))
            worst = max(worst, float(abs(fn(*a) - want) / max(1, abs(want))))
    return worst


def _log_uniform(seed, lo, hi, shape):
    return (10.0 ** np.random.default_rng(seed).uniform(lo, hi, shape)).tolist()


_SUBNORMALS = [5e-324, 1e-310]


def test_log_gamma_error_map():
    xs = _log_uniform(1702, -8.0, 8.0, 2000) + _SUBNORMALS + [2.5e305]
    assert _worst(ln_gamma, mpmath.loggamma, [(x,) for x in xs]) <= 3e-15


def test_theta_error_map():
    # below 10, log Gamma less the Stirling main term cancels to a few 1e-15
    xs = _log_uniform(1703, -8.0, 4.0, 2000) + _SUBNORMALS
    assert _worst(theta, _mp_theta, [(x,) for x in xs]) <= 1e-14


def test_log_beta_tilde_error_map():
    xys = _log_uniform(1704, -6.0, 6.0, (1000, 2))
    assert _worst(log_beta_tilde, _mp_log_beta_tilde, xys) <= 1e-14


# arguments on both sides of the series switch at x = 10
_BIT_GRID = (
    np.linspace(1e-3, 0.499, 40).tolist()
    + np.random.default_rng(20170825).uniform(0.5, 10.0, 400).tolist()
    + [0.5, 1.0, 2.0, 9.999999999999998, 10.0]
    + np.geomspace(10.0, 1e7, 40).tolist()
)


def test_log_beta_tilde_unchecked_thetas_keep_the_bits():
    # log_beta_tilde checks once and calls the unchecked theta three times
    def log_beta_tilde_checked(x, y):  # the Binet form through the checked theta
        half_log = 0.5 * (LOG_2PI + math.log(x + y) - math.log(x) - math.log(y))
        return half_log + theta(x) + theta(y) - theta(x + y)

    pairs = list(zip(_BIT_GRID, reversed(_BIT_GRID))) + [(x, x) for x in _BIT_GRID[::7]]
    expect = [log_beta_tilde_checked(x, y) for x, y in pairs]
    assert [log_beta_tilde(x, y) for x, y in pairs] == expect


@given(
    st.floats(min_value=0.05, max_value=50.0),
    st.floats(min_value=0.05, max_value=50.0),
)
def test_beta_tilde_lower_bound_property(x, y):
    assert beta_tilde(x, y) >= (x + y) / (x * y) * (1.0 - 1e-12)


class TestLambertW:
    def test_branch_values(self):
        assert _lambert_w0(0.0) == 0.0
        assert _lambert_w0(math.e) == pytest.approx(1.0, abs=1e-13)
        assert _lambert_w0(-1.0 / math.e) == -1.0

    def test_against_scipy(self):
        for z in (-0.36, -0.1, 0.1, 1.0, 5.0, 123.0, 1e6):
            assert _lambert_w0(z) == pytest.approx(float(sp.lambertw(z).real), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            _lambert_w0(-0.4)

    @given(st.floats(min_value=-0.3678, max_value=1e8))
    @settings(max_examples=200)
    def test_residual_property(self, z):
        w = _lambert_w0(z)
        assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))


class TestKappa:
    def test_exact_at_one(self):
        assert kappa(1.0) == 1.0

    def test_half_reference(self):
        assert kappa(0.5) == pytest.approx(KAPPA_HALF, rel=1e-13)
        assert _kappa_fixed_point(0.5) == pytest.approx(U_STAR_HALF, rel=1e-12)

    def test_half_in_bounds(self):
        k = kappa(0.5)
        assert 1.0 / (math.e * 0.5) < k <= 1.0 / 0.5

    def test_two_solvers_agree(self):
        for t in np.arange(0.05, 0.96, 0.05):
            assert abs(kappa(float(t)) - _kappa_via_lambert(float(t))) <= 1e-9

    def test_fixed_point_residual(self):
        for t in np.arange(0.05, 0.96, 0.05):
            u = _kappa_fixed_point(float(t))
            resid = abs(u - t * (1.0 + u) * math.log1p(u))
            assert resid <= 1e-12 * max(1.0, u)

    def test_g_monotone_with_small_t_limit(self):
        ts = np.geomspace(1e-3, 1.0, 60)
        gs = [float(t) * kappa(float(t)) for t in ts]
        for i in range(len(gs) - 1):
            assert gs[i + 1] >= gs[i] - 1e-10
        assert gs[-1] == 1.0
        assert abs(gs[0] - 1.0 / math.e) <= 2e-2

    def test_bounds_on_grid(self):
        for t in np.geomspace(1e-3, 1.0, 25):
            k = kappa(float(t))
            assert k <= 1.0 / t
            assert k >= 1.0 / (math.e * t) - 1e-9

    def test_tiny_t_does_not_overflow(self):
        k = kappa(1e-3)
        assert math.isfinite(k)
        # u* itself exceeds double range here, by design reported as inf
        assert _kappa_fixed_point(1.2e-3) == math.inf

    def test_domain(self):
        for t in (0.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                kappa(t)
        with pytest.raises(DomainError):
            _kappa_fixed_point(1.0)
