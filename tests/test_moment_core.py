"""Moment-inequality layer: lambda, psi_r, c_r, omega, and the bounds
checked against quadrature oracles and each other."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as st

from renyi_bounds.errors import DomainError, InvalidMomentOrder
from renyi_bounds.moment_core import (
    MomentVector,
    Support,
    TwoMomentParams,
    c_r_numeric,
    k_moment_bound,
    lambda_of,
    log_omega,
    omega,
    psi_r,
    two_moment_bound,
)
from renyi_bounds.quadrature import Domain, integrate



def psi_half_closed(p, q):
    """psi_{1/2}(p, q) = pi lam^-lam (1-lam)^-(1-lam) / ((q-p) sin(pi lam)),
    lam = (q-1)/(q-p): psi_r at r = 1/2 reduced by Euler's reflection
    formula, the independent route for the r = 1/2 checks."""
    lam = (q - 1.0) / (q - p)
    log_val = (
        math.log(math.pi)
        - lam * math.log(lam)
        - (1.0 - lam) * math.log1p(-lam)
        - math.log(q - p)
        - math.log(math.sin(math.pi * lam))
    )
    return math.exp(log_val)


class TestLambda:
    def test_examples(self):
        assert lambda_of(0.5, 0.0, 2.0) == pytest.approx(0.5, rel=1e-14)
        assert lambda_of(0.5, -1.0, 3.0) == pytest.approx(0.5, rel=1e-14)
        assert lambda_of(0.9, 0.0, 1.0) == pytest.approx(2.0 - 10.0 / 9.0, rel=1e-12)

    def test_invalid_orders(self):
        with pytest.raises(InvalidMomentOrder):
            lambda_of(0.5, 1.0, 2.0)  # p >= pivot
        with pytest.raises(InvalidMomentOrder):
            lambda_of(0.5, 0.0, 0.5)  # q <= pivot
        with pytest.raises(InvalidMomentOrder):
            lambda_of(1.2, 0.0, 2.0)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.01, max_value=5.0),
    )
    def test_in_unit_interval_iff_straddling(self, r, below, above):
        pivot = 1.0 / r - 1.0
        lam = lambda_of(r, pivot - below, pivot + above)
        assert 0.0 < lam < 1.0


class TestPsi:
    def test_half_zero_two_is_pi(self):
        params = TwoMomentParams(0.5, 0.0, 2.0)
        assert psi_r(params) == pytest.approx(math.pi, rel=1e-12)
        assert psi_half_closed(0.0, 2.0) == pytest.approx(math.pi, rel=1e-12)

    def test_half_closed_form_matches_general(self):
        for p, q in ((-0.5, 1.5), (0.0, 3.0), (0.7, 1.2), (-2.0, 8.0)):
            general = psi_r(TwoMomentParams(0.5, p, q))
            assert psi_half_closed(p, q) == pytest.approx(general, rel=1e-10)

    def test_r_to_one_limit(self):
        # lim_{r->1} psi_r(0, q) = (e q)^(1/q) Gamma(1/q + 1); q = 2 value
        target = 2.0663656770612464692
        assert psi_r(TwoMomentParams(0.999, 0.0, 2.0)) == pytest.approx(target, abs=1e-2)


class TestCr:
    def test_arctan_value(self):
        mv = MomentVector((0.0, 2.0), (1.0, 1.0))
        assert c_r_numeric(0.5, mv) == pytest.approx(math.pi / 2.0, rel=1e-9)

    def test_single_moment_diverges(self):
        assert c_r_numeric(0.5, MomentVector((0.0, 2.0), (1.0, 0.0))) == math.inf
        assert c_r_numeric(0.5, MomentVector((2.0,), (1.0,))) == math.inf

    def test_no_straddle_diverges(self):
        # both exponents above the pivot (1-r)/r = 1
        assert c_r_numeric(0.5, MomentVector((1.5, 3.0), (1.0, 1.0))) == math.inf

    def test_gamma_invariance_and_beta_form(self):
        # c_r with nu = (g^(1-lam), g^-lam) is independent of g and equals
        # (B(a, b)/(q - p))^((1-r)/r); scipy's Beta is the reference.
        r, p, q = 0.5, 0.0, 2.0
        lam = lambda_of(r, p, q)
        a = r * lam / (1.0 - r)
        b = r * (1.0 - lam) / (1.0 - r)
        ref = (float(sp.beta(a, b)) / (q - p)) ** ((1.0 - r) / r)
        vals = []
        for g in (0.25, 1.0, 4.0):
            mv = MomentVector((p, q), (g ** (1.0 - lam), g**-lam))
            vals.append(c_r_numeric(r, mv))
        for v in vals:
            assert v == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("r", [0.5, 0.7, 0.9])
    @pytest.mark.parametrize("a", [1e-300, 1e-150, 1e50, 1e100])
    def test_scale_of_the_weights(self, r, a):
        # c_r(a nu) = c_r(nu) / a exactly; far from max nu = 1 the integral
        # used to underflow to a silent 0 or plateau into a false +inf
        mv, scaled = MomentVector((0.0, 2.0), (1.0, 1.0)), MomentVector((0.0, 2.0), (a, a))
        c = c_r_numeric(r, mv)
        assert a * c_r_numeric(r, scaled) == pytest.approx(c, rel=1e-13)
        assert k_moment_bound(scaled, [1.0, 1.0], r) == pytest.approx(2.0 * c, rel=1e-13)

    def test_near_pivot_exponent_converges(self):
        # s_j r/(1-r) barely above one: a slow power tail the log
        # substitution must integrate accurately.
        r = 0.7
        pivot = 1.0 / r - 1.0
        mv = MomentVector((0.0, pivot * 1.5), (1.0, 1.0))
        v = c_r_numeric(r, mv)
        assert math.isfinite(v) and v > 0.0


class TestOmega:
    def test_standard_values(self):
        assert omega(Support.positive_half_line()) == 1.0
        assert omega(Support.real_line()) == 2.0
        assert omega(Support.euclidean(2)) == pytest.approx(math.pi, rel=1e-14)
        assert omega(Support.euclidean(3)) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)

    def test_custom_capped_by_full_space(self):
        cap = omega(Support.euclidean(2))
        assert omega(Support.custom(1.5, n=2)) == pytest.approx(1.5)
        with pytest.raises(DomainError):
            Support.custom(cap * 1.01, n=2)
        with pytest.raises(DomainError):
            Support.custom(0.0, n=1)

    @pytest.mark.parametrize("n", [0, 1.5, 2.0, True, math.nan])
    def test_dimension_must_be_a_positive_integer(self, n):
        with pytest.raises(DomainError):
            Support.euclidean(n)
        assert Support.euclidean(np.int64(2)).n == 2

    def test_unknown_kind_refused(self):
        with pytest.raises(DomainError):
            Support("cube")

    def test_log_omega_consistency(self):
        for sup in (Support.positive_half_line(), Support.real_line(),
                    Support.euclidean(5), Support.custom(0.7, n=1)):
            assert math.exp(log_omega(sup)) == pytest.approx(omega(sup), rel=1e-14)


class TestTwoMomentBound:
    def test_zero_moments_give_zero(self):
        params = TwoMomentParams(0.5, 0.0, 2.0)
        assert two_moment_bound(0.0, 0.0, params) == 0.0

    def test_exponential_density_bound(self):
        # f = e^-x on R+: ||f||_{1/2} = 4 exactly, mu_0 = 1, mu_2 = 2.
        params = TwoMomentParams(0.5, 0.0, 2.0)
        bound = two_moment_bound(1.0, 2.0, params)
        assert bound == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-12)
        assert bound >= 4.0

    def test_scaling_homogeneity(self):
        # f(x) -> f(x/a) multiplies mu_s by a^(s+1), the bound by a^(1/r).
        r, p, q = 0.4, 0.5, 3.0
        params = TwoMomentParams(r, p, q)
        mu_p, mu_q, a = 0.8, 2.5, 2.0
        direct = two_moment_bound(mu_p * a ** (p + 1), mu_q * a ** (q + 1), params)
        scaled = a ** (1.0 / r) * two_moment_bound(mu_p, mu_q, params)
        assert direct == pytest.approx(scaled, rel=1e-11)

    def test_validity_on_gamma_density(self):
        # quadrature r-norm never exceeds the bound
        pdf = lambda x: x * np.exp(-x)
        half = Domain.half_line(0.0)
        for r, p, q in ((0.4, 0.0, 2.5), (0.6, 0.2, 1.4), (0.5, -0.4, 3.0)):
            mu_p = integrate(lambda x: x**p * pdf(x), half).value
            mu_q = integrate(lambda x: x**q * pdf(x), half).value
            norm_r = integrate(lambda x: pdf(x) ** r, half).value ** (1.0 / r)
            bound = two_moment_bound(mu_p, mu_q, TwoMomentParams(r, p, q))
            assert bound - norm_r >= -1e-9

    def test_bound_beyond_the_float_range_refused(self):
        # the bound is e^759 at r = 0.01: 99 log psi_r(0, 200) = 68.3 plus log 1e300
        with pytest.raises(DomainError):
            two_moment_bound(1e300, 1e300, TwoMomentParams(0.01, 0.0, 200.0))


class TestKMomentBound:
    def test_zero_moments(self):
        mv = MomentVector((0.0, 2.0), (1.0, 1.0))
        assert k_moment_bound(mv, [0.0, 0.0], 0.5) == 0.0

    def test_optimal_gamma_reproduces_two_moment(self):
        r, p, q = 0.5, 0.0, 2.0
        mu_p, mu_q = 1.0, 2.0
        lam = lambda_of(r, p, q)
        gamma = lam * mu_q / ((1.0 - lam) * mu_p)
        mv = MomentVector((p, q), (gamma ** (1.0 - lam), gamma**-lam))
        kb = k_moment_bound(mv, [mu_p, mu_q], r)
        tb = two_moment_bound(mu_p, mu_q, TwoMomentParams(r, p, q))
        assert kb == pytest.approx(tb, rel=1e-9)

    def test_degenerate_third_weight_matches_two_moment(self):
        r = 0.5
        mv2 = MomentVector((0.0, 2.0), (1.0, 1.0))
        mv3 = MomentVector((0.0, 1.0, 2.0), (1.0, 0.0, 1.0))
        b2 = k_moment_bound(mv2, [1.0, 2.0], r)
        b3 = k_moment_bound(mv3, [1.0, 99.0, 2.0], r)
        assert b3 == pytest.approx(b2, rel=1e-12)

    def test_infinite_when_cr_diverges(self):
        mv = MomentVector((0.0,), (1.0,))
        assert k_moment_bound(mv, [1.0], 0.5) == math.inf

    def test_moments_of_the_wrong_length_refused(self):
        with pytest.raises(DomainError):
            k_moment_bound(MomentVector((0.0, 2.0), (1.0, 1.0)), [1.0], 0.5)

    def test_bound_beyond_the_float_range_refused(self):
        # c_r * (1e308 + 1e308) overflows
        with pytest.raises(DomainError):
            k_moment_bound(MomentVector((0.0, 2.0), (1.0, 1.0)), [1e308, 1e308], 0.5)


class TestMomentVector:
    def test_validation(self):
        with pytest.raises(DomainError):
            MomentVector((0.0, 2.0), (1.0,))
        with pytest.raises(DomainError):
            MomentVector((0.0,), (-1.0,))
        with pytest.raises(DomainError):
            MomentVector((), ())

    def test_two_moment_params_carries_lambda(self):
        params = TwoMomentParams(0.5, 0.0, 2.0)
        assert params.lam == pytest.approx(0.5)
        with pytest.raises(InvalidMomentOrder):
            TwoMomentParams(0.5, 2.0, 3.0)

    def test_two_moment_params_store_floats(self):
        # they stored the arguments as given: an int, a numpy scalar, a str
        params = TwoMomentParams(np.float64(0.5), 0, "3")
        assert [type(v) for v in (params.r, params.p, params.q, params.lam)] == [float] * 4
        assert (params.r, params.p, params.q) == (0.5, 0.0, 3.0)

    @pytest.mark.parametrize("p,q", [(0.0, 1.0 + 2.0**-52), (1.0 - 2.0**-53, 2.0)],
                             ids=["lam-rounds-to-0", "lam-rounds-to-1"])
    def test_lambda_rounding_to_an_edge_refused(self, p, q):
        # p < 1/r - 1 < q holds, but lam rounds to 0 or 1; log_beta_tilde then
        # refused a zero argument with a message that did not name the cause
        with pytest.raises(InvalidMomentOrder, match="lam = "):
            TwoMomentParams(0.5, p, q)
