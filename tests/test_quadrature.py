"""Oracle infrastructure tests: Gauss-Kronrod panels and transforms,
divergence detection, and seeded Monte Carlo."""

import math

import numpy as np
import pytest
import scipy.integrate as si

from renyi_bounds.errors import DivergenceDetected, DomainError, MaxSubdivisionsExceeded
from renyi_bounds.quadrature import (
    Domain,
    NumericsConfig,
    integrate,
    mc_expect,
    rng_for,
)

CFG = NumericsConfig()


class TestDomains:
    def test_finite_validation(self):
        with pytest.raises(DomainError):
            Domain.finite(2.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            Domain("circle")


class TestIntegrate:
    def test_exponential_half_line(self):
        res = integrate(lambda x: np.exp(-x), Domain.half_line(0.0), CFG)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.error <= max(CFG.rel_tol * res.value, CFG.abs_tol)

    def test_normal_density_full_line(self):
        res = integrate(
            lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), Domain.full_line(), CFG
        )
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_cr_integrand_arctan(self):
        # (1 + x^2)^-1 on (0, inf): the closed-form arctan integral pi/2.
        res = integrate(lambda x: 1.0 / (1.0 + x * x), Domain.half_line(0.0), CFG)
        assert res.value == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_kronrod_polynomial_exactness(self):
        # The 15-point rule is exact for polynomials of degree <= 22.
        res = integrate(lambda x: x**13, Domain.finite(0.0, 1.0), CFG)
        assert res.value == pytest.approx(1.0 / 14.0, rel=1e-14)

    def test_shifted_half_line(self):
        res = integrate(lambda x: np.exp(-(x - 3.0)), Domain.half_line(3.0), CFG)
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_against_scipy_oscillatory(self):
        f = lambda x: np.sin(x) ** 2 * np.exp(-0.3 * x)
        mine = integrate(f, Domain.half_line(0.0), CFG).value
        ref = si.quad(f, 0, np.inf, limit=300)[0]
        assert mine == pytest.approx(ref, rel=1e-8)

    def test_endpoint_singularity(self):
        # Integrable inverse-sqrt singularity at the finite endpoint.
        res = integrate(lambda x: 1.0 / np.sqrt(x), Domain.finite(0.0, 1.0), CFG)
        assert res.value == pytest.approx(2.0, rel=1e-8)


class TestDivergence:
    def test_one_over_x_tail(self):
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: 1.0 / (1.0 + x), Domain.half_line(0.0), CFG)

    def test_constant_tail(self):
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: np.ones_like(x), Domain.half_line(0.0), CFG)

    def test_zero_end_divergence(self):
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: 1.0 / x**2, Domain.half_line(0.0), CFG)

    def test_full_line_linear_growth(self):
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: np.abs(x), Domain.full_line(), CFG)

    def test_peaked_but_convergent_not_flagged(self):
        # Mass grows through several doubling windows before the peak at
        # x = 40; growth toward a peak must not be mistaken for divergence.
        f = lambda x: x**2 * np.exp(-0.5 * ((x - 40.0) / 3.0) ** 2)
        res = integrate(f, Domain.half_line(0.0), CFG)
        ref = si.quad(f, 0, np.inf, limit=300)[0]
        assert res.value == pytest.approx(ref, rel=1e-8)

    def test_max_subdivisions(self):
        tight = NumericsConfig(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=3)
        with pytest.raises(MaxSubdivisionsExceeded):
            integrate(
                lambda x: np.exp(-x) * np.sin(7.0 * x) ** 2, Domain.half_line(0.0), tight
            )


class TestMonteCarlo:
    def test_constant(self):
        res = mc_expect(lambda x: np.ones_like(x), lambda rng, n: rng.random(n), CFG)
        assert res.value == 1.0
        assert res.standard_error == 0.0

    def test_normal_second_moment(self):
        res = mc_expect(lambda x: x * x, lambda rng, n: rng.standard_normal(n), CFG)
        assert abs(res.value - 1.0) <= 3.0 * res.standard_error

    def test_gaussian_pair_identity(self):
        # Same expectation as the 2-D quadrature test above: 1/sqrt(2).
        def sampler(rng, n):
            return rng.standard_normal(n), rng.standard_normal(n)

        res = mc_expect(lambda p: np.exp(-0.25 * (p[0] - p[1]) ** 2), sampler, CFG)
        assert abs(res.value - 1.0 / math.sqrt(2.0)) <= 3.0 * res.standard_error

    def test_bit_identical_reruns(self):
        sampler = lambda rng, n: rng.standard_normal(n)
        a = mc_expect(lambda x: np.sin(x), sampler, CFG)
        b = mc_expect(lambda x: np.sin(x), sampler, CFG)
        assert a.value == b.value and a.standard_error == b.standard_error

    def test_streams_differ_but_are_stable(self):
        cfg = NumericsConfig(rng_seed=7)
        s0 = rng_for(cfg, 0).standard_normal(8)
        s1 = rng_for(cfg, 1).standard_normal(8)
        assert not np.array_equal(s0, s1)
        assert np.array_equal(s0, rng_for(cfg, 0).standard_normal(8))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            NumericsConfig(mc_samples=10)
        with pytest.raises(DomainError):
            NumericsConfig(rel_tol=0.0)
