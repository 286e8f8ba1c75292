"""Distribution families: closed-form log-moments and entropies against
quadrature and sampling oracles."""

import math

import numpy as np
import pytest

from renyi_bounds.distributions import (
    GaussianMagnitude,
    GenericPdf,
    Lognormal,
    PointMass,
    TwoPoint,
    L_r,
)
from renyi_bounds.entropy_bounds import optimal_gap
from renyi_bounds.errors import DomainError, MomentDiverges, UnsupportedOperation
from renyi_bounds.moment_core import Support
from renyi_bounds.quadrature import Domain, NumericsConfig, integrate, mc_expect, rng_for

CFG = NumericsConfig()


def _lomax(a, near):
    return (
        lambda x: a * (1.0 + x) ** (-(a + 1.0)),
        Domain.half_line(0.0),
        lambda s: math.lgamma(s + 1.0) + math.lgamma(a - s) - math.lgamma(a),
        # up to alpha - 0.55: closer to alpha a K15 node rounds to u = 1 and
        # the moment reads +inf (CHANGES.md, FOUND).  `near` is where a graded
        # split toward u = 1 gave a false +inf.
        list(np.linspace(-0.9, a - 0.55, 25)) + [near],
    )


def _weibull(k):
    return (
        lambda x: k * x ** (k - 1.0) * np.exp(-(x**k)),
        Domain.half_line(0.0),
        lambda s: math.lgamma(1.0 + s / k),
        np.linspace(-0.9, 10.0, 25),
    )


# name -> (pdf, domain, closed-form log E X^s, orders s checked)
_CLOSED_FORM = {
    "lognormal": (
        Lognormal(0.0, 1.0).pdf, Domain.half_line(0.0), lambda s: 0.5 * s * s,
        list(np.linspace(-0.9, 4.0, 25)) + [2.0],
    ),
    "half-normal": (
        lambda x: math.sqrt(2.0 / math.pi) * np.exp(-0.5 * x * x),
        Domain.half_line(0.0),
        lambda s: 0.5 * s * math.log(2.0) + math.lgamma(0.5 * (s + 1.0)) - 0.5 * math.log(math.pi),
        np.linspace(-0.9, 10.0, 25),
    ),
    "weibull1.8": _weibull(1.8),
    "weibull3": _weibull(3.0),
    "lomax4": _lomax(4.0, 3.4242),
    "lomax6": _lomax(6.0, 5.4071),
    "beta22": (
        lambda x: 6.0 * x * (1.0 - x),
        Domain.finite(0.0, 1.0),
        lambda s: math.log(6.0 / ((s + 2.0) * (s + 3.0))),
        np.linspace(-0.9, 10.0, 25),
    ),
}
HALF_LOG_8PI = 1.6120857137646180512   # h_{1/2} of a standard normal
HALF_LOG_2PIE = 1.4189385332046727418  # Shannon entropy of N(0,1) / lognormal(0,1)


class TestLogMoments:
    def test_lognormal(self):
        assert Lognormal(0.0, 1.0).log_moment(2.0) == pytest.approx(2.0, rel=1e-14)
        assert Lognormal(0.5, 2.0).log_moment(3.0) == pytest.approx(0.5 * 3 + 9.0, rel=1e-14)

    def test_gaussian_magnitude(self):
        assert GaussianMagnitude(1).log_moment(2.0) == pytest.approx(0.0, abs=1e-14)
        assert GaussianMagnitude(3).log_moment(2.0) == pytest.approx(math.log(3.0), rel=1e-13)
        # finiteness boundary s > -n
        assert GaussianMagnitude(2).log_moment(-2.0) == math.inf
        assert math.isfinite(GaussianMagnitude(2).log_moment(-1.9))

    def test_two_point_and_point_mass(self):
        d = TwoPoint(0.5, 3.0)
        assert d.log_moment(1.0) == pytest.approx(math.log(2.0), rel=1e-13)
        assert PointMass(2.0).log_moment(3.0) == pytest.approx(3.0 * math.log(2.0), rel=1e-14)

    @pytest.mark.parametrize("name", list(_CLOSED_FORM), ids=list(_CLOSED_FORM))
    def test_generic_matches_closed_form(self, name):
        pdf, domain, exact, orders = _CLOSED_FORM[name]
        d = GenericPdf(pdf, domain, CFG)
        for s in orders:
            # E|X|^s itself at rel 1e-8: a log-moment near 0 has no relative scale
            got = d.log_moment(s)
            assert math.exp(got - exact(s)) == pytest.approx(1.0, rel=1e-8), (s, got, exact(s))

    @pytest.mark.parametrize("name,s", [
        ("half-normal", -1.0), ("half-normal", -1.5), ("lomax4", -1.0), ("lomax6", -1.5),
        ("lomax4", 4.0), ("lomax4", 5.0), ("lomax6", 6.0), ("lomax6", 6.5),
    ])
    def test_generic_divergent_moment_is_inf(self, name, s):
        pdf, domain, *_ = _CLOSED_FORM[name]
        assert GenericPdf(pdf, domain, CFG).log_moment(s) == math.inf

    def test_generic_moment_ignores_call_history(self):
        # each log-moment starts from the panels cached at construction and
        # drops its own refinements, so it cannot depend on earlier calls
        pdf, domain, *_ = _CLOSED_FORM["lomax4"]
        used, fresh = GenericPdf(pdf, domain, CFG), GenericPdf(pdf, domain, CFG)
        optimal_gap(used, Support.positive_half_line(), 1, 0.6)
        for s in (-0.9, -0.3, 0.0, 0.7, 2.0, 3.4242, 4.0):
            assert used.log_moment(s) == fresh.log_moment(s)
        cache = used._panels
        arrays = [cache.lo, cache.hi, cache.x, cache.v] + [a for scan in cache.scans for a in scan]
        assert len(arrays) == 10
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_generic_heavy_tail_returns_inf(self):
        # standard Cauchy on the half line (doubled): no first moment
        pdf = lambda x: 2.0 / (math.pi * (1.0 + x * x))
        d = GenericPdf(pdf, Domain.half_line(0.0), CFG)
        assert d.log_moment(1.0) == math.inf


class TestRenyiEntropy:
    def test_gaussian_vector_half(self):
        assert GaussianMagnitude(1).renyi_entropy(0.5) == pytest.approx(
            HALF_LOG_8PI, rel=1e-13
        )

    def test_lognormal_r_to_one_vs_shannon(self):
        d = Lognormal(0.0, 1.0)
        assert d.shannon_entropy() == pytest.approx(HALF_LOG_2PIE, rel=1e-13)
        assert d.renyi_entropy(0.9999) == pytest.approx(d.shannon_entropy(), abs=1e-3)
        # quadrature oracle for the Shannon value
        h = integrate(
            lambda x: np.where(x > 0, -d.pdf(x) * d.log_pdf(x), 0.0),
            Domain.half_line(0.0),
            CFG,
        ).value
        assert h == pytest.approx(HALF_LOG_2PIE, abs=1e-9)

    def test_lognormal_closed_vs_quadrature(self):
        d = Lognormal(0.3, 0.7)
        r = 0.45
        val = integrate(lambda x: d.pdf(x) ** r, Domain.half_line(0.0), CFG).value
        assert d.renyi_entropy(r) == pytest.approx(math.log(val) / (1.0 - r), abs=1e-9)

    def test_generic_normal_matches_gaussian(self):
        pdf = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        d = GenericPdf(pdf, Domain.full_line(), CFG)
        assert d.renyi_entropy(0.5) == pytest.approx(
            GaussianMagnitude(1).renyi_entropy(0.5), abs=1e-8
        )

    def test_monotone_in_r(self):
        grid = [0.2, 0.4, 0.6, 0.8]
        generic = GenericPdf(lambda x: np.exp(-x), Domain.half_line(0.0), CFG)
        for d in (Lognormal(0.0, 1.0), Lognormal(1.0, 3.0), GaussianMagnitude(2), generic):
            hs = [d.renyi_entropy(r) for r in grid]
            for i in range(len(hs) - 1):
                assert hs[i + 1] <= hs[i] + 1e-9

    def test_atomic_families_unsupported(self):
        with pytest.raises(UnsupportedOperation):
            TwoPoint(0.5, 3.0).renyi_entropy(0.5)
        with pytest.raises(UnsupportedOperation):
            PointMass(1.0).renyi_entropy(0.5)


class TestLr:
    def test_point_mass_gives_log_c(self):
        for p, q in ((0.5, 2.0), (-1.0, 3.0)):
            assert L_r(PointMass(2.0), 0.5, p, q) == pytest.approx(math.log(2.0), rel=1e-13)

    def test_p_zero_reduces_to_single_moment(self):
        d = Lognormal(0.2, 1.3)
        q = 2.5
        assert L_r(d, 0.5, 0.0, q) == pytest.approx(d.log_moment(q) / q, rel=1e-13)

    def test_lognormal_box_parametrization_value(self):
        # at (lam, u) the lognormal L_r equals mu + ((1-r)/r) s2/2 + u s2/2,
        # independently of lam
        from renyi_bounds.entropy_bounds import two_moment_parametrization

        mu, s2, r, u = 0.0, 1.0, 0.4, 1.0
        d = Lognormal(mu, s2)
        for lam in (0.3, 0.5, 0.8):
            p, q = two_moment_parametrization(r, lam, u)
            expect = mu + 0.5 * ((1.0 - r) / r) * s2 + 0.5 * u * s2
            assert L_r(d, r, p, q) == pytest.approx(expect, rel=1e-12)

    def test_upper_bound_at_p_zero(self):
        d = Lognormal(0.0, 2.0)
        r, q = 0.5, 2.0
        top = L_r(d, r, 0.0, q)
        for p in (0.2, 0.5, 0.9):
            assert L_r(d, r, p, q) <= top + 1e-12

    def test_additive_for_independent_products(self):
        # X ~ LN(m1, v1), Y ~ LN(m2, v2)  =>  XY ~ LN(m1 + m2, v1 + v2)
        a, b = Lognormal(0.3, 0.5), Lognormal(-0.2, 1.5)
        prod = Lognormal(a.mu + b.mu, a.sigma2 + b.sigma2)
        r, p, q = 0.5, 0.4, 1.7
        assert L_r(prod, r, p, q) == pytest.approx(
            L_r(a, r, p, q) + L_r(b, r, p, q), rel=1e-12
        )

    def test_diverging_moment_raises(self):
        with pytest.raises(MomentDiverges):
            L_r(GaussianMagnitude(1), 0.5, -1.5, 2.0)


class TestLyapunov:
    def test_normalized_log_moment_nondecreasing(self):
        grid = [0.5, 1.0, 2.0, 4.0]
        families = [
            Lognormal(0.0, 1.0),
            GaussianMagnitude(3),
            TwoPoint(0.3, 5.0),
            PointMass(2.0),
            GenericPdf(lambda x: np.exp(-x), Domain.half_line(0.0), CFG),
        ]
        for d in families:
            vals = [d.log_moment(s) / s for s in grid]
            for i in range(len(vals) - 1):
                assert vals[i + 1] >= vals[i] - 1e-9


class TestSampling:
    def test_point_mass(self):
        rng = rng_for()
        assert np.all(PointMass(2.0).sample(rng, 100) == 2.0)

    def test_two_point_mean(self):
        res = mc_expect(lambda x: x, TwoPoint(0.5, 3.0).sample)
        assert abs(res.value - 2.0) <= 3.0 * res.standard_error

    def test_lognormal_log_mean(self):
        res = mc_expect(lambda x: np.log(x), Lognormal(0.0, 1.0).sample)
        assert abs(res.value - 0.0) <= 3.0 * res.standard_error

    def test_magnitude_moments_match(self):
        d = GaussianMagnitude(3)
        res = mc_expect(lambda x: x**2, d.sample)
        assert abs(res.value - math.exp(d.log_moment(2.0))) <= 4.0 * res.standard_error

    def test_generic_not_samplable(self):
        d = GenericPdf(lambda x: np.exp(-x), Domain.half_line(0.0), CFG)
        with pytest.raises(UnsupportedOperation):
            d.sample(rng_for(), 10)


class TestValidation:
    def test_parameter_domains(self):
        with pytest.raises(DomainError):
            Lognormal(0.0, 0.0)
        with pytest.raises(DomainError):
            GaussianMagnitude(0)
        with pytest.raises(DomainError):
            GaussianMagnitude(True)
        with pytest.raises(DomainError):
            GaussianMagnitude(2.0)
        with pytest.raises(DomainError):
            TwoPoint(0.0, 2.0)
        with pytest.raises(DomainError):
            TwoPoint(0.5, -1.0)
        with pytest.raises(DomainError):
            PointMass(0.0)

    @pytest.mark.parametrize("make", [
        lambda: Lognormal(math.nan, 1.0),
        lambda: Lognormal(math.inf, 1.0),
        lambda: Lognormal(0.0, math.nan),
        lambda: Lognormal(0.0, math.inf),
        lambda: TwoPoint(0.5, math.inf),
        lambda: TwoPoint(0.5, math.nan),
        lambda: PointMass(math.inf),
        lambda: PointMass(math.nan),
    ], ids=["lognormal-mu-nan", "lognormal-mu-inf", "lognormal-sigma2-nan",
            "lognormal-sigma2-inf", "two-point-a-inf", "two-point-a-nan",
            "point-mass-inf", "point-mass-nan"])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize("call", [
        lambda: Lognormal(1.7e308, 1.7e308).renyi_entropy(0.5),
        lambda: Lognormal(1.7e308, 1.7e308).log_moment(2.0),
        lambda: Lognormal(1e308, 1.0).log_moment(2.0),
        lambda: Lognormal(0.0, 1e300).log_moment(np.float64(-1e5)),
        lambda: Lognormal(0.0, 1.0).log_moment(math.nan),
    ], ids=["entropy", "moment", "mu-moment", "numpy-order", "nan-order"])
    def test_lognormal_overflow_refused(self, call):
        # these returned inf, which the bound code reads as a divergent moment
        with pytest.raises(DomainError, match="float range"):
            call()

    def test_coinciding_atoms_are_one_atom(self):
        atoms, probs = TwoPoint(0.1, 1.0).atoms_and_probs()
        assert atoms.tolist() == [1.0] and probs.tolist() == [1.0]

    @pytest.mark.parametrize("domain,kind", [
        (Domain.half_line(-1.0), "real_line"),
        (Domain.finite(-1.0, 3.0), "real_line"),
        (Domain.full_line(), "real_line"),
        (Domain.half_line(0.0), "positive_half_line"),
        (Domain.finite(0.5, 3.0), "positive_half_line"),
    ], ids=["half-line-below-0", "finite-below-0", "full-line", "half-line", "finite"])
    def test_generic_pdf_support_follows_the_lower_end(self, domain, kind):
        # a half-line from -1 used to report the positive half-line
        mass = integrate(lambda x: np.exp(-np.abs(x)), domain, CFG).value
        d = GenericPdf(lambda x: np.exp(-np.abs(x)) / mass, domain, CFG)
        assert d.support().kind == kind

    def test_generic_pdf_must_normalize(self):
        with pytest.raises(DomainError):
            GenericPdf(lambda x: 2.0 * np.exp(-x), Domain.half_line(0.0), CFG)

    @pytest.mark.parametrize("pdf", [
        lambda x: 1.0 + 2.0 * np.sin(2.0 * np.pi * x),  # integrates to 1, dips below 0
        lambda x: np.where(x < 0.5, np.nan, 2.0),
        lambda x: np.where(x < 0.5, np.inf, 2.0),
    ], ids=["signed", "nan", "inf"])
    def test_generic_pdf_must_be_finite_and_nonnegative(self, pdf):
        # a signed "density" passed the mass check and gave a negative MI
        with pytest.raises(DomainError, match="finite and nonnegative"):
            GenericPdf(pdf, Domain.finite(0.0, 1.0), CFG)
