"""Entropy-bound layer: the bound itself, closed-form gaps for the
lognormal and Gaussian families, the optimizer, the large-n limit, the
multiplication bound, and the differential-entropy corollaries."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from renyi_bounds.distributions import (
    GaussianMagnitude,
    GenericPdf,
    L_r,
    Lognormal,
    PointMass,
    ScalarDistribution,
    TwoPoint,
)
from renyi_bounds import entropy_bounds, sweeps
from renyi_bounds.entropy_bounds import (
    diff_entropy_bounds,
    entropy_bound,
    lognormal_gap_closed,
    mult_bound_check,
    optimal_gap,
)
from renyi_bounds.errors import (
    DomainError,
    Infeasible,
    InvalidMomentOrder,
    MomentDiverges,
    OptimizerNoConverge,
    RenyiBoundsError,
    UnsupportedOperation,
)
from renyi_bounds.mi_bounds import (
    ScaleMixtureChannel, V_s, kernel_Ks, marginal_renyi_entropy, prop7_bound, prop8_bound,
    prop9_bound, vs_upper_bound_check,
)
from renyi_bounds.moment_core import (
    MomentVector, Support, TwoMomentParams, c_r_numeric, k_moment_bound, lambda_of, omega,
    psi_r, two_moment_bound,
)
from renyi_bounds.quadrature import Domain
from renyi_bounds.specfun import theta
from renyi_bounds.sweeps import (
    DEFAULT_R_GRID, DEFAULT_SIGMA2_GRID, fig1_rows, fig2_rows, fig3_rows,
)
from renyi_bounds.verify import (
    _GaussGapParams,
    _gaussian_Q,
    _gaussian_Q_lower_bound,
)

SUP_POS = Support.positive_half_line()
HALF_LOG_8PI = 1.6120857137646180512
SQRT_2PI = 2.5066282746310005024
LOG_GAP_HALF = 0.032644172084782122946  # lognormal optimal gap at r = 1/2 (mpmath)


# Closed forms of the gap at a box point: oracles for the entropy_bound route.


def _box_pq(r: float, lam: float, u: float):
    """(p, q) at the box coordinates (lam, u) of the lognormal form:
    lam = (q - m)/(q - p) and u = r lam (1-lam) (q - p)^2 / (1-r), m = (1-r)/r."""
    m, d = (1.0 - r) / r, math.sqrt((1.0 - r) * u / (r * lam * (1.0 - lam)))
    return m - (1.0 - lam) * d, m + lam * d


def _lognormal_gap_at(r: float, lam: float, u: float, sigma2: float) -> float:
    """Lognormal gap at box coordinates (lam, u); depends on u sigma2 only
    and not on mu.  Minimized at lam = 1/2, u = 1/sigma2."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    if not (0.0 < lam < 1.0 and u > 0.0 and sigma2 > 0.0):
        raise DomainError("need lam in (0,1), u > 0, sigma2 > 0")
    c = r / (1.0 - r)
    us = u * sigma2
    return (
        theta(c * lam)
        + theta(c * (1.0 - lam))
        - theta(c)
        + 0.5 * us
        - 0.5 * math.log(us)
        + 0.5 * math.log(r) / (1.0 - r)
    )


def _lognormal_gap_p0(r: float, q: float, sigma2: float) -> float:
    """One-moment slice: gap at (0, q), from the simplified expansion

    gap(0, q) = gap_opt + phi((q - (1-r)/r) sigma2) / 2
                + theta(r/(1-r) - 1/q) + theta(1/q) - 2 theta(r/(2(1-r)))

    with phi(x) = x - log x - 1."""
    m = (1.0 - r) / r
    if not q > m:
        raise InvalidMomentOrder(f"q must exceed 1/r - 1 = {m!r}, got {q!r}")
    x = (q - m) * sigma2
    phi = x - math.log(x) - 1.0
    c = r / (1.0 - r)
    return (
        lognormal_gap_closed(r)
        + 0.5 * phi
        + theta(c - 1.0 / q)
        + theta(1.0 / q)
        - 2.0 * theta(0.5 * c)
    )


def _gaussian_gap(gp: _GaussGapParams) -> float:
    """Gap for Y ~ N(0, I_n) at (lam, z):

    theta(r lam/(1-r)) + theta(r(1-lam)/(1-r)) - theta(r/(1-r))
      + Q_{r,n}(lam, z) - (log z)/2 + log(r)/(2(1-r))
      + (r/(1-r)) theta(n/(2r)) - (1/(1-r)) theta(n/2).
    """
    r, n, lam, z = gp.r, gp.n, gp.lam, gp.z
    c = r / (1.0 - r)
    return (
        theta(c * lam)
        + theta(c * (1.0 - lam))
        - theta(c)
        + _gaussian_Q(gp)
        - 0.5 * math.log(z)
        + 0.5 * math.log(r) / (1.0 - r)
        + c * theta(0.5 * n / r)
        - theta(0.5 * n) / (1.0 - r)
    )


class TestEntropyBound:
    def test_lognormal_at_box_optimum(self):
        # (lam, u) = (1/2, 1) is the optimizer for sigma2 = 1: the gap of
        # the evaluated bound must equal the closed-form optimal gap.
        p, q = _box_pq(0.5, 0.5, 1.0)
        rep = entropy_bound(Lognormal(0.0, 1.0), SUP_POS, 1, 0.5, p, q)
        assert rep.gap == pytest.approx(lognormal_gap_closed(0.5), abs=1e-8)
        assert rep.bound == pytest.approx(rep.entropy + rep.gap, rel=1e-12)

    def test_gaussian_scalar_bound_is_valid(self):
        rep = entropy_bound(GaussianMagnitude(1), Support.real_line(), 1, 0.5, 0.0, 2.0)
        assert rep.entropy == pytest.approx(HALF_LOG_8PI, rel=1e-12)
        assert rep.bound >= HALF_LOG_8PI
        assert rep.gap >= 0.0

    def test_point_mass_reports_bound_only(self):
        rep = entropy_bound(PointMass(3.0), SUP_POS, 1, 0.5, 0.0, 2.0)
        assert math.isfinite(rep.bound)
        assert rep.entropy is None and rep.gap is None

    def test_diverging_moment_raises(self):
        with pytest.raises(MomentDiverges):
            entropy_bound(GaussianMagnitude(1), Support.real_line(), 1, 0.5, -1.2, 2.0)

    def test_gap_against_lognormal_at_general_box_point(self):
        r, lam, u, s2 = 0.35, 0.3, 2.5, 1.7
        p, q = _box_pq(r, lam, u)
        rep = entropy_bound(Lognormal(1.1, s2), SUP_POS, 1, r, p, q)
        assert rep.gap == pytest.approx(_lognormal_gap_at(r, lam, u, s2), abs=1e-10)

    @pytest.mark.parametrize("d,sup,n", [
        (Lognormal(0.3, 2.0), SUP_POS, 1),
        (GaussianMagnitude(1), Support.euclidean(1), 1),
        (GaussianMagnitude(3), Support.euclidean(3), 3),
    ], ids=["lognormal", "gaussian-1", "gaussian-3"])
    def test_is_the_two_moment_inequality_on_the_density(self, d, sup, n):
        # h_r = (r/(1-r)) log ||f||_r, with the two-moment bound on ||f||_r
        for r, p, q in ((0.5, 0.0, 2.0), (0.4, 0.1, 2.0), (0.7, -0.2, 1.5)):
            mu_p, mu_q = math.exp(d.log_moment(n * p)), math.exp(d.log_moment(n * q))
            tm = two_moment_bound(mu_p, mu_q, TwoMomentParams(r, p, q), sup)
            rep = entropy_bound(d, sup, n, r, p, q)
            assert rep.bound == pytest.approx((r / (1.0 - r)) * math.log(tm), rel=1e-13)


class TestLognormalGap:
    def test_two_published_forms_agree(self):
        from renyi_bounds.specfun import LOG_2PI, log_beta_tilde

        for r in np.arange(0.1, 0.95, 0.1):
            r = float(r)
            a = 0.5 * r / (1.0 - r)
            btilde = (
                log_beta_tilde(a, a)
                + 0.5 * math.log(r / (4.0 * (1.0 - r)))
                + 0.5
                - 0.5 * (LOG_2PI + math.log(r) / (r - 1.0))
            )
            assert abs(lognormal_gap_closed(r) - btilde) <= 1e-10

    def test_reference_value(self):
        assert lognormal_gap_closed(0.5) == pytest.approx(LOG_GAP_HALF, rel=1e-12)

    def test_vanishes_as_r_to_one(self):
        assert lognormal_gap_closed(0.999) < 1e-2

    def test_decreasing_in_r(self):
        assert lognormal_gap_closed(0.1) > lognormal_gap_closed(0.9)

    def test_gap_at_box_optimum_matches_closed(self):
        for r in (0.2, 0.5, 0.8):
            for s2 in (0.25, 1.0, 4.0):
                val = _lognormal_gap_at(r, 0.5, 1.0 / s2, s2)
                assert val == pytest.approx(lognormal_gap_closed(r), abs=1e-12)

    def test_gap_at_depends_on_u_sigma2_product_only(self):
        a = _lognormal_gap_at(0.5, 0.5, 1.0, 1.0)
        b = _lognormal_gap_at(0.5, 0.5, 0.25, 4.0)
        assert a == pytest.approx(b, rel=1e-14)

    def test_stationarity_in_lambda_and_u(self):
        r, s2 = 0.4, 1.3
        centre = _lognormal_gap_at(r, 0.5, 1.0 / s2, s2)
        for lam in np.arange(0.1, 0.95, 0.1):
            assert _lognormal_gap_at(r, float(lam), 1.0 / s2, s2) >= centre - 1e-12
        for w in np.linspace(-3.0, 3.0, 13):
            assert _lognormal_gap_at(r, 0.5, math.exp(w) / s2, s2) >= centre - 1e-12

    def test_p0_slice_matches_direct_gap(self):
        # the simplified p = 0 expansion against the bound evaluated at (0, q)
        r, s2 = 0.45, 2.2
        for q in (1.5, 2.4, 6.0):
            direct = entropy_bound(Lognormal(0.0, s2), SUP_POS, 1, r, 0.0, q).gap
            assert _lognormal_gap_p0(r, q, s2) == pytest.approx(direct, abs=1e-10)
        with pytest.raises(InvalidMomentOrder):
            _lognormal_gap_p0(r, 1.0 / r - 1.0, s2)


class TestOptimalGap:
    def test_lognormal_parameter_free(self):
        gaps = [
            optimal_gap(Lognormal(mu, s2), SUP_POS, 1, 0.5).gap
            for mu, s2 in ((0.0, 1.0), (3.0, 2.0), (-1.0, 0.25))
        ]
        for g in gaps:
            assert g == pytest.approx(lognormal_gap_closed(0.5), abs=1e-4)
        assert max(gaps) - min(gaps) <= 2e-4

    def test_one_moment_dominates_two_moment(self):
        for r in (0.1, 0.5):
            d = GaussianMagnitude(1)
            sup = Support.euclidean(1)
            two = optimal_gap(d, sup, 1, r).gap
            one = optimal_gap(d, sup, 1, r, constrain_p_zero=True).gap
            assert one >= two - 1e-9
            assert two >= 0.0

    def test_one_moment_gap_matches_explicit_display(self):
        # Independent oracle for Delta~: scipy-minimized explicit form
        # inf_q [log(B~(r/(1-r) - 1/q, 1/q)/q) + q s2/2]
        #   - ((1-r)/r) s2/2 - (1/2) log(2 pi r^(1/(r-1)) s2).
        from scipy.optimize import minimize_scalar

        from renyi_bounds.specfun import log_beta_tilde

        for r, s2 in ((0.3, 0.5), (0.5, 2.0), (0.7, 1.0)):
            c = r / (1.0 - r)

            def display(lq):
                q = (1.0 / c) + math.exp(lq)  # q > 1/r - 1
                return (
                    log_beta_tilde(c - 1.0 / q, 1.0 / q)
                    - math.log(q)
                    + 0.5 * q * s2
                    - 0.5 * s2 / c
                    - 0.5 * (math.log(2.0 * math.pi * s2) + math.log(r) / (r - 1.0))
                )

            ref = minimize_scalar(display, bounds=(-12, 12), method="bounded",
                                  options={"xatol": 1e-12}).fun
            mine = optimal_gap(Lognormal(0.0, s2), SUP_POS, 1, r,
                               constrain_p_zero=True).gap
            assert mine == pytest.approx(ref, abs=1e-6)

    def test_one_moment_grows_toward_sigma_extremes(self):
        r = 0.5
        gaps = {
            s2: optimal_gap(Lognormal(0.0, s2), SUP_POS, 1, r, constrain_p_zero=True).gap
            for s2 in (0.01, 0.1, 1.0, 10.0, 100.0)
        }
        assert gaps[0.1] > gaps[1.0] and gaps[0.01] > gaps[0.1]
        assert gaps[10.0] > gaps[1.0] and gaps[100.0] > gaps[10.0]
        for s2 in (0.1, 10.0):
            assert gaps[s2] > lognormal_gap_closed(r)

    def test_report_is_consistent(self):
        rep = optimal_gap(Lognormal(0.0, 1.0), SUP_POS, 1, 0.5)
        assert rep.bound == pytest.approx(rep.entropy + rep.gap, rel=1e-12)
        assert len(rep.optimizer_trace) >= 1
        # the optimizer visited valid (p, q) pairs
        TwoMomentParams(rep.r, rep.p, rep.q)

    def test_no_finite_moments_raises(self):
        # Stub law with a density but not a single finite positive moment;
        # no (p, q) pair is feasible so the search must report failure.
        from renyi_bounds.distributions import ScalarDistribution
        from renyi_bounds.errors import OptimizerNoConverge

        class NoMoments(ScalarDistribution):
            def log_moment(self, s):
                return 0.0 if s == 0.0 else math.inf

            def renyi_entropy(self, r):
                return 1.0

        with pytest.raises(OptimizerNoConverge):
            optimal_gap(NoMoments(), SUP_POS, 1, 0.5)
        with pytest.raises(OptimizerNoConverge):
            optimal_gap(NoMoments(), SUP_POS, 1, 0.5, constrain_p_zero=True)

    def test_heavy_tail_with_finite_entropy_is_feasible(self):
        # half-Cauchy: moments of order >= 1 diverge, yet whenever h_r is
        # finite (r > 1/2) the window (1/r - 1, 1) of finite moments is
        # nonempty, so the bound still applies -- no regularity needed
        # beyond the density itself.
        from renyi_bounds.distributions import GenericPdf
        from renyi_bounds.quadrature import Domain

        heavy = GenericPdf(
            lambda x: 2.0 / (math.pi * (1.0 + x * x)), Domain.half_line(0.0)
        )
        rep = optimal_gap(heavy, SUP_POS, 1, 0.75, constrain_p_zero=True)
        assert math.isfinite(rep.gap)
        assert rep.gap >= -1e-9
        assert (1.0 / 0.75 - 1.0) < rep.q < 1.0

    def test_undersized_support_refused(self):
        # an omega(S) below that of the law's support gave gaps of -0.66 and -1.04
        with pytest.raises(DomainError):
            optimal_gap(Lognormal(), Support.custom(0.5), 1, 0.5)
        with pytest.raises(DomainError):
            entropy_bound(GaussianMagnitude(2), Support.custom(1.0, 2), 2, 0.5, 0.0, 2.0)
        # a larger support is a valid, looser bound; R stands for R^1
        on_r = entropy_bound(GaussianMagnitude(1), Support.real_line(), 1, 0.5, 0.0, 2.0)
        own = entropy_bound(GaussianMagnitude(1), Support.euclidean(1), 1, 0.5, 0.0, 2.0)
        assert on_r.bound == pytest.approx(own.bound, abs=1e-14)
        wide = entropy_bound(Lognormal(), Support.real_line(), 1, 0.5, 0.0, 2.0)
        assert wide.gap == pytest.approx(_entropy(0.0, 1.0, 1, 0.5, 0.0, 2.0).gap + math.log(2))

    def test_generic_pdf_below_zero_gets_the_real_line(self):
        # X = E - 1, E ~ Exp(1): |X| has mass from both sides of 0, so
        # omega = 2; the positive half-line gave gaps of -0.24 and -0.05 here
        d = GenericPdf(lambda x: np.exp(-(x + 1.0)), Domain.half_line(-1.0))
        for r, p, q in ((0.5, 0.0, 2.0), (0.3, 0.5, 4.0)):
            assert entropy_bound(d, d.support(), 1, r, p, q).gap >= 0.0

    def test_gap_never_negative(self):
        for r in (0.15, 0.5, 0.85):
            for d, sup, n in (
                (Lognormal(0.0, 2.0), SUP_POS, 1),
                (GaussianMagnitude(4), Support.euclidean(4), 4),
            ):
                assert optimal_gap(d, sup, n, r).gap >= -1e-9


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.02, max_value=0.98),
    st.floats(min_value=-6.0, max_value=6.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-4.0, max_value=4.0),
)
@settings(max_examples=300)
def test_lognormal_bound_valid_everywhere(r, lam, log_u, mu, log_s2):
    """Master validity property: the gap is nonnegative at every valid
    (r, p, q) for every lognormal input (all closed forms, no quadrature)."""
    s2 = math.exp(log_s2)
    gap = _lognormal_gap_at(r, lam, math.exp(log_u), s2)
    assert gap >= -1e-9
    # and the bound route agrees with the closed form
    p, q = _box_pq(r, lam, math.exp(log_u))
    rep = entropy_bound(Lognormal(mu, s2), SUP_POS, 1, r, p, q)
    assert rep.gap == pytest.approx(gap, abs=1e-8)


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-4.0, max_value=2.0),
)
@settings(max_examples=300)
def test_gaussian_bound_valid_on_feasible_points(r, n, lam, log_z):
    from renyi_bounds.errors import Infeasible as _Infeasible

    try:
        gp = _GaussGapParams(r, n, lam, math.exp(log_z))
    except _Infeasible:
        return
    assert _gaussian_gap(gp) >= -1e-9


class TestGaussianGap:
    def test_feasibility_guard(self):
        with pytest.raises(Infeasible):
            _GaussGapParams(0.1, 1, 0.3, 2.0)
        _GaussGapParams(0.1, 4, 0.6, 0.5)  # feasible

    def test_q_lower_bound_on_grid(self):
        for r in (0.1, 0.5, 0.9):
            for n in (1, 4, 16, 64):
                for lam in (0.25, 0.5, 0.75):
                    for z in (0.25, 1.0, 4.0):
                        try:
                            gp = _GaussGapParams(r, n, lam, z)
                        except Infeasible:
                            continue
                        assert _gaussian_Q(gp) >= _gaussian_Q_lower_bound(gp) - 1e-12

    def test_q_large_n_limit(self):
        gp = _GaussGapParams(0.5, 10**4, 0.5, 1.0)
        assert abs(_gaussian_Q(gp) - 0.5) <= 2e-2

    def test_closed_form_equals_generic_bound_route(self):
        # Eq-level identity: the (lam, z) closed form is the generic bound
        # evaluated at the corresponding (p, q).
        for (r, n, lam, z) in ((0.1, 4, 0.6, 0.5), (0.5, 16, 0.4, 1.2), (0.3, 2, 0.7, 0.8)):
            gp = _GaussGapParams(r, n, lam, z)
            u = 2.0 * z / (r * n)
            p, q = _box_pq(r, lam, u)
            rep = entropy_bound(GaussianMagnitude(n), Support.euclidean(n), n, r, p, q)
            assert _gaussian_gap(gp) == pytest.approx(rep.gap, abs=1e-10)

    def test_optimized_gap_nondecreasing_in_n(self):
        _, rows = fig2_rows(0.1, 256)
        gaps = [row[1] for row in rows]
        for i in range(len(gaps) - 1):
            assert gaps[i + 1] >= gaps[i] - 1e-9

    def test_prop6_desk_scale_limit(self):
        _, rows = fig2_rows(0.1, 256)
        n, gap_y, _, gap_x = rows[-1]
        assert n == 256
        assert abs(gap_y - gap_x) < 0.05

    def test_prop6_sanity_envelope(self):
        rep = optimal_gap(GaussianMagnitude(1), Support.euclidean(1), 1, 0.5)
        assert rep.gap <= lognormal_gap_closed(0.5) + 1.0

    def test_both_gaps_vanish_as_r_to_one(self):
        d = GaussianMagnitude(1)
        sup = Support.euclidean(1)
        assert optimal_gap(d, sup, 1, 0.99).gap < 0.05
        assert optimal_gap(d, sup, 1, 0.99, constrain_p_zero=True).gap < 0.05


class TestMultiplicationBound:
    def test_point_mass_residual_is_minus_gap(self):
        gap = entropy_bound(Lognormal(0.0, 1.0), SUP_POS, 1, 0.5, 0.3, 2.0).gap
        res = mult_bound_check(Lognormal(0.0, 1.0), PointMass(2.0), 2.0, 0.5, 0.3, 2.0)
        assert res == pytest.approx(-gap, abs=1e-9)
        assert res <= 0.0

    def test_two_point_mixture_residual(self):
        # X on {t/2, t}: the product density is a two-component lognormal
        # mixture with closed-form pdf, integrated by quadrature.
        res = mult_bound_check(Lognormal(0.0, 1.0), TwoPoint(0.5, 2.0), 2.0, 0.5, 0.3, 2.0)
        assert res <= 1e-3

    def test_far_product_density_found_or_refused(self):
        # lognormal Y far from 1 and X = 1: the residual is -gap, or the
        # call refuses; never a bare ValueError or a garbage entropy
        gap = entropy_bound(Lognormal(60.0, 0.01), SUP_POS, 1, 0.5, 0.5, 2.0).gap
        try:
            res = mult_bound_check(Lognormal(60.0, 0.01), PointMass(1.0), 1.0, 0.5, 0.5, 2.0)
        except RenyiBoundsError:
            return
        assert res == pytest.approx(-gap, abs=1e-9)

    def test_preconditions(self):
        with pytest.raises(InvalidMomentOrder):
            mult_bound_check(Lognormal(0.0, 1.0), PointMass(1.0), 1.0, 0.5, 0.0, 2.0)
        with pytest.raises(DomainError):
            # atom above t violates X <= t
            mult_bound_check(Lognormal(0.0, 1.0), PointMass(3.0), 2.0, 0.5, 0.3, 2.0)

    def test_orders_refused_before_any_quadrature(self, monkeypatch):
        # lambda_of refuses q one ulp above 1/r - 1 = 1, where lam rounds to 0,
        # before h_r(XY) is integrated
        def fail(*args, **kwargs):
            raise AssertionError("integrate ran before the orders were checked")

        monkeypatch.setattr(entropy_bounds, "integrate", fail)
        with pytest.raises(InvalidMomentOrder):
            mult_bound_check(Lognormal(), PointMass(1.0), 1.0, 0.5, 0.5, 1.0000000000000002)

    def test_non_lognormal_y_refused(self):
        with pytest.raises(UnsupportedOperation):
            mult_bound_check(GaussianMagnitude(1), PointMass(1.0), 1.0, 0.5, 0.3, 2.0)

    def test_non_atomic_x_refused(self):
        with pytest.raises(UnsupportedOperation):
            mult_bound_check(Lognormal(), Lognormal(), 1.0, 0.5, 0.3, 2.0)


class TestDiffEntropyBounds:
    def test_moment_bound_s2_unit_normal(self):
        moment_bound, _ = diff_entropy_bounds(GaussianMagnitude(1), 1, 2.0)
        assert moment_bound == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-8)

    def test_moment_bound_dominates_entropy_other_s(self):
        d = GaussianMagnitude(1)
        h = 0.5 * math.log(2 * math.pi * math.e)
        for s in (1.0, 2.0, 4.0):
            moment_bound, _ = diff_entropy_bounds(d, 1, s)
            assert moment_bound >= h - 1e-10

    def test_log_moment_bound_tight_for_lognormal(self):
        for mu, s2 in ((0.0, 1.0), (0.7, 2.3), (-1.0, 0.2)):
            d = Lognormal(mu, s2)
            _, log_bound = diff_entropy_bounds(d, 1, 2.0)
            assert log_bound == pytest.approx(d.shannon_entropy(), abs=1e-6)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_log_moment_bound_holds_for_gaussian_vectors(self, n):
        # it ignored omega(S) and n, and gave 0.889, 1.057 and 1.071 here
        d = GaussianMagnitude(n)
        h = 0.5 * n * math.log(2 * math.pi * math.e)
        moment_bound, log_bound = diff_entropy_bounds(d, n, 2.0)
        assert moment_bound == pytest.approx(h, abs=1e-8)  # s = 2 is tight for Gaussians
        assert log_bound >= h

    def test_wrong_dimension_refused(self):
        # n = 1 against the 3-D law gave a moment bound of 1.968 < h = 4.257
        with pytest.raises(DomainError):
            diff_entropy_bounds(GaussianMagnitude(3), 1, 2.0)
        with pytest.raises(DomainError):
            diff_entropy_bounds(Lognormal(0.0, 1.0), 2, 2.0)

    def test_psi_limit_at_p0(self):
        # lim_{r->1} psi_r(0, q) = (e q)^(1/q) Gamma(1/q + 1), q = 2
        target = 2.0663656770612464692
        assert psi_r(TwoMomentParams(0.999, 0.0, 2.0)) == pytest.approx(target, abs=1e-2)

    def test_psi_limit_along_box_path(self):
        # psi_r(p(r), q(r)) -> sqrt(2 pi / u) as r -> 1 along the box path
        for lam in (0.3, 0.5, 0.7):
            p, q = _box_pq(0.999, lam, 1.0)
            assert psi_r(TwoMomentParams(0.999, p, q)) == pytest.approx(SQRT_2PI, abs=1e-2)

    def test_validation(self):
        with pytest.raises(DomainError):
            diff_entropy_bounds(Lognormal(0.0, 1.0), 1, -1.0)
        # a heavy-tailed density with no second moment
        from renyi_bounds.distributions import GenericPdf
        from renyi_bounds.quadrature import Domain

        heavy = GenericPdf(
            lambda x: 2.0 / (math.pi * (1.0 + x * x)), Domain.half_line(0.0)
        )
        with pytest.raises(MomentDiverges):
            diff_entropy_bounds(heavy, 1, 2.0)

    def test_infinite_log_moment_near_zero_refused(self):
        class NoNegativeMoments(ScalarDistribution):
            def log_moment(self, s):
                return 0.5 * s * s if s >= 0.0 else math.inf

        with pytest.raises(MomentDiverges):
            diff_entropy_bounds(NoNegativeMoments(), 1, 2.0)

    @pytest.mark.parametrize("n", [1, 3])
    def test_moment_bound_at_small_orders_stays_above_entropy(self, n):
        # log Gamma(n/s + 1) and (n/s)(1 + log s - log n) cancelled: n = 1 gave
        # 12.48980712890625 at s = 1e-10 and 0.0 at every s <= 1e-20, below h
        d = GaussianMagnitude(n)
        h = 0.5 * n * math.log(2 * math.pi * math.e)
        grid = np.geomspace(2.0, 1e-300, 61).tolist() + [1e-10, 1e-15, 1e-306]
        for s in grid:
            moment_bound, _ = diff_entropy_bounds(d, n, s)
            assert math.isfinite(moment_bound) and moment_bound >= h, s

    def test_order_whose_n_over_s_overflows_refused(self):
        # n/s = 1e309 is inf; log Gamma(n/s + 1) at 1e306 was inf too, and the
        # pair came back (nan, 1.58)
        with pytest.raises(DomainError, match="float range"):
            diff_entropy_bounds(GaussianMagnitude(1), 1, 1e-309)

    def test_zero_log_variance_refused(self):
        # log X of a point mass is constant
        with pytest.raises(DomainError):
            diff_entropy_bounds(PointMass(2.0), 1, 2.0)


def _beta22_on(b):
    """GenericPdf of b X for X ~ Beta(2, 2): 6 y (b - y) / b^3 on [0, b]."""
    from renyi_bounds.distributions import GenericPdf
    from renyi_bounds.quadrature import Domain

    return GenericPdf(lambda y: 6.0 * y * (b - y) / b**3, Domain.finite(0.0, b))


def test_optimal_gaps_scale_invariant():
    # The gap at (p, q) of aX equals that of X: h_r and log E|X|^s shift by
    # log a and s log a, which cancel in the bound.  So both optimal gaps of
    # Beta(2,2) on [0, 1] and on [0, 2] agree, with no closed form needed.
    r = 0.6
    base, scaled = _beta22_on(1.0), _beta22_on(2.0)
    two = [optimal_gap(d, SUP_POS, 1, r).gap for d in (base, scaled)]
    one = [optimal_gap(d, SUP_POS, 1, r, constrain_p_zero=True).gap for d in (base, scaled)]
    assert two[1] == pytest.approx(two[0], abs=1e-8)
    assert one[1] == pytest.approx(one[0], abs=1e-12)


def test_each_scan_is_one_log_moments_call(monkeypatch):
    # the objective asks for the log-moments of all its points at once: one
    # log_moments call per Newton stencil (3^k - 1 points around the current
    # one) and per trial point, and no single-order log_moment call
    d = _beta22_on(1.0)
    batches = []
    log_moments = d.log_moments

    def counted(orders):
        batches.append(len(orders))
        return log_moments(orders)

    def refused(s):
        raise AssertionError("the search asked for one log-moment on its own")

    d.log_moments, d.log_moment = counted, refused
    newton = entropy_bounds._newton
    scans = []

    def spied(fun, x, fx):
        def objective(xs):
            before = len(batches)
            out = fun(xs)
            assert len(batches) == before + 1
            scans.append((len(x), len(xs), batches[-1]))
            return out

        return newton(objective, x, fx)

    monkeypatch.setattr(entropy_bounds, "_newton", spied)
    optimal_gap(d, SUP_POS, 1, 0.6)
    optimal_gap(d, SUP_POS, 1, 0.6, constrain_p_zero=True)
    # every point lies inside the wedge, so each asks for its two orders
    assert {(k, n) for k, n, _ in scans} == {(1, 2), (1, 1), (2, 8), (2, 1)}
    assert all(orders == 2 * n for _, n, orders in scans)


def _newton_path(f, x0):
    """_newton on the scalar function f of a tuple, from x0, and every
    value it evaluated."""
    seen = []

    def fun(xs):
        out = [f(x) for x in xs]
        seen.extend(out)
        return out

    return entropy_bounds._newton(fun, x0, f(x0)), seen


def _valley(x):
    # a quadratic with Hessian eigenvalues 1 and 4e4 along the diagonals:
    # the conditioning of Beta(2,2) at r = 0.3 that stalled coordinate passes
    u, v = x[0] - 0.3 + (x[1] + 1.2), x[0] - 0.3 - (x[1] + 1.2)
    return 0.25 * u * u + 1e4 * v * v


def _barrier(x):
    # log cosh, minimal at 0.5, and +inf from 0.55 on: the full Newton step
    # from -0.5 lands at 1.31, inside the +inf region
    return math.inf if x[0] >= 0.55 else math.log(math.cosh(x[0] - 0.5))


@pytest.mark.parametrize("f, x0, x_min, most", [
    (_valley, (1.0, -2.0), (0.3, -1.2), 2),
    (lambda x: (x[0] - 7.0) ** 2 + 3.0 * (x[1] + 9.5) ** 2, (0.0, 0.0), (7.0, -9.5), 6),
    (_barrier, (-0.5,), (0.5,), 8),
], ids=["condition-4e4", "far-minimum", "inf-next-to-minimum"])
def test_newton(f, x0, x_min, most):
    # damped Newton reaches the minimum within `most` steps, each at most 2
    # in every coordinate; the path starts at x0, its values fall strictly,
    # and each is the value of its point
    path, seen = _newton_path(f, x0)
    assert path[0] == (x0, f(x0)) and len(path) - 1 <= most
    for (x, fx), (y, fy) in zip(path, path[1:]):
        assert fy < fx and max(abs(b - a) for a, b in zip(x, y)) <= 2.0 + 1e-12
    x, fx = path[-1]
    assert fx == f(x) and fx == min(seen)
    assert max(abs(a - b) for a, b in zip(x, x_min)) <= 1e-6


@pytest.mark.parametrize("f, x0", [
    (lambda x: -x[0], (0.0,)),
    (lambda x: 1.0 + 0.0 * x[0], (0.0,)),
    (lambda x: (x[0] - 3.0) ** 2 + 0.0 * x[1], (0.0, 0.0)),
    (lambda x: 1e300 * (x[0] ** 2 + x[0] * x[1] + x[1] ** 2), (1.0, 1.0)),
    (lambda x: 1e308 * (1.0 + x[0] ** 2), (0.5,)),
], ids=["no-minimum", "flat", "flat-coordinate", "step-overflow", "difference-overflow"])
def test_newton_refuses_where_it_cannot_converge(f, x0):
    # 100 capped steps down a line, a stencil flat along a coordinate (the
    # gap of a (p, q) the spacing no longer moves) and differences that
    # overflow are refused, not reported as a minimum
    with pytest.raises(OptimizerNoConverge):
        _newton_path(f, x0)


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
def test_unresolvable_lognormal_gap_refused(r):
    # at sigma2 = 1e300 the p = 0 optimum q - m is far below the spacing of
    # the floats near m, and the two-moment search printed gaps of 1e285 to
    # 4e286 as optima
    with pytest.raises(OptimizerNoConverge):
        optimal_gap(Lognormal(0.0, 1e300), SUP_POS, 1, r)


def _no_search(*args):
    raise AssertionError("a gap search ran")


@pytest.mark.parametrize("d, r", [
    # the p = 0 search returned 0.2265625, where the gap at mu = 0 is 0.0362169
    (Lognormal(9392365700694.0, 1.0), 0.75),
    # the searches returned 1.74e6 (two-moment) and 1.30e7 (p = 0); the optimum is 0.0326
    (Lognormal(0.0, 1e20), 0.5),
], ids=["mu-9.4e12", "sigma2-1e20"])
@pytest.mark.parametrize("p_zero", [False, True], ids=["two-moment", "p0"])
def test_gap_below_the_entropy_rounding_refused(monkeypatch, d, r, p_zero):
    # 2^-52 |h_r| exceeds the 1e-4 target, so the gap bound - h_r cannot be
    # resolved to it: refused before any search
    assert 2.0**-52 * abs(d.renyi_entropy(r)) > 1e-4
    monkeypatch.setattr(entropy_bounds, "_newton", _no_search)
    with pytest.raises(OptimizerNoConverge, match="gap target"):
        optimal_gap(d, SUP_POS, 1, r, constrain_p_zero=p_zero)


def test_refused_p0_gap_resolves_at_mu_zero():
    # the lognormal gap does not depend on mu: the p = 0 gap that the
    # refused Lognormal(9392365700694, 1) above should have had
    p0 = optimal_gap(Lognormal(0.0, 1.0), SUP_POS, 1, 0.75, constrain_p_zero=True)
    assert p0.gap == pytest.approx(0.0362169, abs=1e-7)


def _weibull(k):
    return GenericPdf(lambda x: k * x ** (k - 1.0) * np.exp(-(x**k)), Domain.half_line(0.0))


def _lomax(a):
    return GenericPdf(lambda x: a * (1.0 + x) ** (-(a + 1.0)), Domain.half_line(0.0))


def _half_normal(c=1.0):
    """GenericPdf of |Z|, Z ~ N(0, 1), with its density scaled by c."""
    return GenericPdf(lambda x: c * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * x * x),
                      Domain.half_line(0.0))


_TARGET_LAWS = {
    "halfnormal": (_half_normal(), SUP_POS, 1), "weibull1.8": (_weibull(1.8), SUP_POS, 1),
    "lomax5": (_lomax(5.0), SUP_POS, 1), "beta22": (_beta22_on(1.0), SUP_POS, 1),
    "gauss1": (GaussianMagnitude(1), Support.euclidean(1), 1),
}
# r = 0.6 of Weibull(1.8), Lomax(5) and Beta(2,2) is the first three ids; at
# r = 0.2 the Lomax(5) entropy raises a false DivergenceDetected (ROADMAP
# item 1); Beta(2,2) at 0.3, 0.48 and 0.790666 are the pockets where the
# coordinate search stalled
_FIRST = {"weibull1.8": ("weibull1.8", 0.6), "lomax5": ("lomax5", 0.6), "beta22": ("beta22", 0.6)}
_TARGETS = {
    **_FIRST,
    **{f"{name}-r{r}": (name, r) for r in (0.2, 0.4, 0.6, 0.8) for name in _TARGET_LAWS
       if (name, r) not in [*_FIRST.values(), ("lomax5", 0.2)]},
    **{f"beta22-r{r}": ("beta22", r) for r in (0.3, 0.48, 0.790666)},
}


@pytest.mark.parametrize("d, sup, n, r", [
    *(_TARGET_LAWS[name] + (r,) for name, r in _TARGETS.values()),
    (GaussianMagnitude(1), Support.euclidean(1), 1, 0.1),
    (GaussianMagnitude(8), Support.euclidean(8), 8, 0.1),
    (GaussianMagnitude(64), Support.euclidean(64), 64, 0.1),
], ids=[*_TARGETS, "gauss1", "gauss8", "gauss64"])
def test_optimal_gap_meets_its_target(d, sup, n, r):
    # a Nelder-Mead polish of the same objective in the wedge coordinates
    # (log(m - p), log(q - m)), from the reported optimum and from the p = 0
    # search's start (0, 2m), finds no gap more than 1e-9 max(1, |h_r|)
    # below the reported one, which is at most the p = 0 optimum
    from scipy.optimize import minimize

    lw, h, m = entropy_bounds.log_omega(sup), d.renyi_entropy(r), (1.0 - r) / r

    def gap(x):
        pq = (m - math.exp(x[0]), m + math.exp(x[1]))
        return entropy_bounds._gaps_at(d, lw, n, r, [pq], h)[0]

    rep = optimal_gap(d, sup, n, r)
    polished = min(
        minimize(gap, x0, method="Nelder-Mead",
                 options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000}).fun
        for x0 in ((math.log(m - rep.p), math.log(rep.q - m)), (math.log(m), math.log(m)))
    )
    assert rep.gap - polished <= 1e-9 * max(1.0, abs(h))
    assert rep.gap <= optimal_gap(d, sup, n, r, constrain_p_zero=True).gap


@pytest.mark.parametrize("d, sup, n, r, p_zero, most", [
    (Lognormal(0.0, 1.0), SUP_POS, 1, 0.5, False, 120),
    (GaussianMagnitude(8), Support.euclidean(8), 8, 0.3, False, 120),
    (Lognormal(0.0, 1.0), SUP_POS, 1, 0.5, True, 40),
    (GaussianMagnitude(8), Support.euclidean(8), 8, 0.3, True, 40),
], ids=["lognormal", "gauss8", "lognormal-p0", "gauss8-p0"])
def test_gap_evaluations_per_search(monkeypatch, d, sup, n, r, p_zero, most):
    # every gap evaluation checks its (p, q) with one lambda_of call.  A
    # Newton step takes a stencil of 2 points (p = 0) or 8, and one or more
    # trial points; the two-moment search counts its p = 0 stage too.
    calls = []

    def counted(*args):
        calls.append(args)
        return lambda_of(*args)

    monkeypatch.setattr(entropy_bounds, "lambda_of", counted)
    optimal_gap(d, sup, n, r, constrain_p_zero=p_zero)
    assert 0 < len(calls) <= most


@pytest.mark.parametrize(
    "d, sup, n",
    [(Lognormal(0.3, 1.7), SUP_POS, 1), (GaussianMagnitude(8), Support.euclidean(8), 8),
     (_half_normal(), SUP_POS, 1)],
    ids=["lognormal", "gaussian8", "generic"],
)
def test_objective_is_the_public_gap(d, sup, n):
    # the optimizer's objective and entropy_bound compute the gap by one
    # formula: bit for bit the same number at every valid (p, q)
    r = 0.4
    lw, h = entropy_bounds.log_omega(sup), d.renyi_entropy(r)
    pts = [(0.0, 2.0), (-0.5, 1.6), (1.2, 3.0), (0.3, 12.0)]
    gaps = entropy_bounds._gaps_at(d, lw, n, r, pts, h)
    assert gaps == [entropy_bound(d, sup, n, r, p, q).gap for p, q in pts]


def test_objective_is_inf_where_no_bound(monkeypatch):
    d, sup, n, r = GaussianMagnitude(8), Support.euclidean(8), 8, 0.5
    lw, h = entropy_bounds.log_omega(sup), d.renyi_entropy(r)
    # an infinite q, where lam = (q + 1 - 1/r)/(q - p) is nan; q one ulp
    # above 1/r - 1, where lam rounds to 0; q below 1/r - 1; and
    # n p = -12 <= -n, where E||X||^(n p) diverges; around one valid point
    pts = [(0.0, math.inf), (0.0, math.nextafter(1.0, 2.0)), (0.0, 2.0), (0.5, 0.9), (-1.5, 2.0)]
    gaps = entropy_bounds._gaps_at(d, lw, n, r, pts, h)
    assert gaps[:2] + gaps[3:] == [math.inf] * 4
    assert math.isfinite(gaps[2])
    # optimal_gap's objective, in the wedge coordinates (b,) and (a, b):
    # a point whose e^a or e^b overflows reads +inf
    objectives = []

    def first_step(fun, x, fx):
        objectives.append(fun)
        return [(x, fx)]

    monkeypatch.setattr(entropy_bounds, "_newton", first_step)
    optimal_gap(d, sup, n, r)
    gaps = objectives[0]([(800.0,), (0.0, 0.0), (0.0, 800.0), (800.0, 0.0)])
    assert gaps[:1] + gaps[2:] == [math.inf] * 3
    assert math.isfinite(gaps[1])


@pytest.mark.parametrize("c", [1.0 - 2e-9, 1.0 + 2e-9, 1.0 - 5e-7])
def test_log_moment_bound_ignores_the_mass_error(c):
    # Var(log ||X||) is K(h) - 2 K(0) + K(-h) over h^2, K(s) = log E||X||^s:
    # taking K(0) = 0 turned a mass of 1 - 2e-9 into 0.6928, below h(X) =
    # 0.7258.  Closed form for |Z|: E log|Z| = (psi(1/2) + log 2)/2 and
    # Var log|Z| = psi'(1/2)/4.
    from scipy.special import digamma, polygamma

    mean, var = 0.5 * (digamma(0.5) + math.log(2.0)), 0.25 * polygamma(1, 0.5)
    closed = mean + 0.5 * math.log(2.0 * math.pi * math.e * var)
    _, log_bound = diff_entropy_bounds(_half_normal(c), 1, 2.0)
    assert log_bound == pytest.approx(closed, abs=1e-6)


def test_two_moment_gap_at_most_p0_gap():
    # p = 0 lies inside the two-moment family, so Delta_r <= Delta~_r
    d, r = _beta22_on(1.0), 0.3
    two = optimal_gap(d, SUP_POS, 1, r).gap
    assert two <= optimal_gap(d, SUP_POS, 1, r, constrain_p_zero=True).gap


def test_two_moment_gaps_at_most_p0_gaps_on_the_figure_grids():
    # the two-moment search starts from the p = 0 optimum and accepts only
    # strict decreases, on every default fig1 and fig2 row
    for two, one in [row[2:4] for row in fig1_rows()[1]] + [row[1:3] for row in fig2_rows()[1]]:
        assert two <= one


def test_figure_sweeps_search_once_per_point(monkeypatch):
    # fig1 and fig2 read Delta~_r from the two-moment report's p_zero: one
    # optimal_gap call per grid point, none of them constrained to p = 0
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return optimal_gap(*args, **kwargs)

    monkeypatch.setattr(sweeps, "optimal_gap", counted)
    for rows, points in [(fig1_rows, 27), (fig2_rows, 9)]:
        calls.clear()
        assert len(rows()[1]) == len(calls) == points
        assert calls == [{}] * points


def _search_points():
    """The default fig1 and fig2 grid points and two GenericPdf laws."""
    points = [(Lognormal(0.0, s2), SUP_POS, 1, r)
              for r in DEFAULT_R_GRID for s2 in DEFAULT_SIGMA2_GRID]
    points += [(GaussianMagnitude(2**k), Support.euclidean(2**k), 2**k, 0.1) for k in range(9)]
    return points + [(_half_normal(), SUP_POS, 1, 0.5), (_weibull(1.8), SUP_POS, 1, 0.35)]


def test_p_zero_report_is_the_p0_search():
    # the two-moment report carries the p = 0 report its search started
    # from, equal field for field (optimizer_trace included) to the report
    # of the constrained call, which carries none; nor does entropy_bound
    for d, sup, n, r in _search_points():
        p0 = optimal_gap(d, sup, n, r, constrain_p_zero=True)
        assert optimal_gap(d, sup, n, r).p_zero == p0 and p0.p_zero is None
    assert entropy_bound(Lognormal(), SUP_POS, 1, 0.5, 0.0, 2.0).p_zero is None


def test_two_moment_trace_starts_with_the_p0_trace():
    # the (a, b) search starts at the p = 0 optimum, so its trace continues
    # the p = 0 trace, every later entry strictly lower
    for d, sup, n, r in _search_points():
        rep = optimal_gap(d, sup, n, r)
        head = rep.p_zero.optimizer_trace
        assert rep.optimizer_trace[:len(head)] == head
        assert all(p == 0.0 for p, _, _ in head)
        gaps = [g for _, _, g in rep.optimizer_trace[len(head) - 1:]]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class _ExactUniform(ScalarDistribution):
    """The uniform law on [0, 1] with exact moments E X^s = 1/(1 + s)."""

    def log_moment(self, s):
        return -math.log1p(s)

    def renyi_entropy(self, r):
        return 0.0


@pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("p_zero", [True, False], ids=["p0", "two"])
def test_uniform_gap_is_exact_where_reported(r, p_zero):
    # the uniform gap falls toward 0 as q grows, while the GenericPdf moments
    # of high order read low (ROADMAP item 1): the p = 0 search once ended at
    # q ~ 1.4e6 with a gap of -5.2e-4, a bound below h_r = 0.  A point whose
    # gap reads below 0 is infeasible to the search, so the reported gap is
    # the exact gap at the reported (p, q)
    d = GenericPdf(lambda x: np.ones_like(x), Domain.finite(0.0, 1.0))
    rep = optimal_gap(d, SUP_POS, 1, r, constrain_p_zero=p_zero)
    exact = entropy_bound(_ExactUniform(), SUP_POS, 1, r, rep.p, rep.q).gap
    assert rep.gap >= 0.0 and abs(rep.gap - exact) <= 1e-9


@pytest.mark.parametrize("s2", [1e-7, 1.0, 1e7, 1e8])
def test_optimal_gap_has_no_box_edge(s2):
    # the lognormal optimum sits at u = 1/sigma2 of the box coordinates,
    # which a search over |log u| <= 16 cut off: 3.949 at sigma2 = 1e8
    rep = optimal_gap(Lognormal(0.0, s2), SUP_POS, 1, 0.5)
    assert rep.gap == pytest.approx(lognormal_gap_closed(0.5), abs=1e-6)


def test_wide_gaussian_gap_below_its_limit():
    # fig2 at n = 2^26 met the same edge, with a gap of 0.1589 against the
    # lognormal limit 0.0326 that the Gaussian gap approaches from below
    n = 2**26
    gap = optimal_gap(GaussianMagnitude(n), Support.euclidean(n), n, 0.5).gap
    assert gap <= lognormal_gap_closed(0.5) + 1e-4


def _gaussian_gap_mpmath(n, r, p, q):
    """The gap of N(0, I_n) at (r, p, q) at 50 digits: log omega(R^n) + log psi_r
    + the moment term of ||Y|| (chi law), minus h_r(Y)."""
    with mpmath.workdps(50):
        n, r, p, q = (mpmath.mpf(v) for v in (n, r, p, q))
        lam = (q + 1 - 1 / r) / (q - p)
        c = r / (1 - r)
        a, b = c * lam, c * (1 - lam)
        log_bt = mpmath.log(mpmath.beta(a, b)) + (a + b) * mpmath.log(a + b) \
            - a * mpmath.log(a) - b * mpmath.log(b)

        def log_mu(s):
            return s / 2 * mpmath.log(2) + mpmath.loggamma((n + s) / 2) - mpmath.loggamma(n / 2)

        bound = n / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(n / 2 + 1) + log_bt \
            - mpmath.log(q - p) + c * lam * log_mu(n * p) + c * (1 - lam) * log_mu(n * q)
        return float(bound - n / 2 * (mpmath.log(2 * mpmath.pi) + mpmath.log(r) / (r - 1)))


_NEAR_ONE = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="ROADMAP item 15: lam and GaussianMagnitude.log_moment cancel at small "
           "orders, and r/(1 - r) ~ 1e5 multiplies the lost digits")


@pytest.mark.parametrize("r", [0.5, pytest.param(0.9999, marks=_NEAR_ONE),
                               pytest.param(0.99999, marks=_NEAR_ONE)])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_gaussian_gap_digits_near_r_one(n, r):
    # fig2's gaps at its reported (p, q) against mpmath: 1-2% off at r = 0.9999;
    # at 0.99999, 7.37e-13 against 3.21e-12 for n = 1, and 1.95e-11 for n = 8,
    # above the lognormal limit 8.33e-12 that Prop 6 has the gap rise toward
    rep = optimal_gap(GaussianMagnitude(n), Support.euclidean(n), n, r)
    assert rep.gap == pytest.approx(_gaussian_gap_mpmath(n, r, rep.p, rep.q), rel=1e-9)


# Fuzzing the public contract of the entropy layer, moment_core and the
# constructors they take (laws, supports): every call returns finite
# numbers (and a gap that is not below 0) or raises a RenyiBoundsError;
# never a bare ValueError, TypeError, nan or inf.
_WILD = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 1e-300, 1e300, -1e300, 1.7e308, 1.0 - 2.0**-53,
                     1.0 + 2.0**-52, math.nan, math.inf, -math.inf, 10**400, 10**5000,
                     "abc", None]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_DIM = st.one_of(st.integers(-2, 6), st.sampled_from([1.5, 0.0, True, math.nan, math.inf]))
_FLAG = st.booleans()
_LAWS = {
    "lognormal": lambda a, b, n: Lognormal(a, b),
    "gaussian": lambda a, b, n: GaussianMagnitude(n),
    "two_point": lambda a, b, n: TwoPoint(a, b),
    "point_mass": lambda a, b, n: PointMass(b),
}
_SUPPORTS = {
    "positive_half_line": lambda n, w: Support.positive_half_line(),
    "real_line": lambda n, w: Support.real_line(),
    "euclidean": lambda n, w: Support.euclidean(n),
    "custom": lambda n, w: Support.custom(w, n),
}
_LAW = st.sampled_from(sorted(_LAWS))
_SUP = st.sampled_from(sorted(_SUPPORTS))
_NOT_FLOAT = (_DIM, _FLAG, _LAW, _SUP)


def _call(fn, **plausible):
    """(fn, kwargs) with every argument drawn where fn can succeed, then up
    to two of the float arguments replaced by any float at all."""
    floats = sorted(k for k, v in plausible.items() if all(v is not s for s in _NOT_FLOAT))
    wild = st.lists(st.tuples(st.sampled_from(floats), _WILD), max_size=2)

    def build(values, overrides):
        values.update(overrides)
        return fn, values

    return st.builds(build, st.fixed_dictionaries(plausible), wild)


def _open(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


def _k_moment(s1, s2, nu1, nu2, m1, m2, r):
    mv = MomentVector((s1, s2), (nu1, nu2))
    bound = k_moment_bound(mv, [m1, m2], r)
    if bound == math.inf and c_r_numeric(r, mv) == math.inf:
        return 0.0  # a vacuous bound: no pair of exponents straddles (1-r)/r
    return bound


def _two_moment(mu_p, mu_q, r, p, q):
    from renyi_bounds.moment_core import two_moment_bound

    return two_moment_bound(mu_p, mu_q, TwoMomentParams(r, p, q))


def _psi(r, p, q):
    return psi_r(TwoMomentParams(r, p, q))


def _entropy(mu, s2, n, r, p, q):
    return entropy_bound(Lognormal(mu, s2), SUP_POS, n, r, p, q)


def _gap(mu, s2, n, r, p0):
    return optimal_gap(Lognormal(mu, s2), SUP_POS, n, r, constrain_p_zero=p0)


def _diff(mu, s2, n, s):
    return diff_entropy_bounds(Lognormal(mu, s2), n, s)


def _mult(mu, s2, x, t, r, p, q):
    return mult_bound_check(Lognormal(mu, s2), PointMass(x), t, r, p, q)


def _law(law, a, b, n):
    d = _LAWS[law](a, b, n)
    return (d.log_moment(0.5), omega(d.support()))


def _support(sup, n, w):
    s = _SUPPORTS[sup](n, w)
    return (s.n, omega(s))


def _pair(law, a, b, sup, w, n, r, p, q):
    """entropy_bound on a random (law, support) pair; a support that does
    not fit the law must be refused, not give a bound below the entropy."""
    return entropy_bound(_LAWS[law](a, b, n), _SUPPORTS[sup](n, w), n, r, p, q)


_API_CALLS = st.one_of(
    _call(_psi, r=_open(0.05, 0.95), p=_open(-1.0, 0.05), q=_open(1.0, 20.0)),
    _call(_two_moment, mu_p=_open(0.0, 10.0), mu_q=_open(0.0, 10.0), r=_open(0.05, 0.95),
          p=_open(-1.0, 0.05), q=_open(1.0, 20.0)),
    _call(_k_moment, s1=_open(-0.5, 0.5), s2=_open(1.0, 6.0), nu1=_open(0.0, 2.0),
          nu2=_open(0.0, 2.0), m1=_open(0.0, 5.0), m2=_open(0.0, 5.0), r=_open(0.2, 0.8)),
    _call(_entropy, mu=_open(-3.0, 3.0), s2=_open(0.1, 4.0), n=_DIM, r=_open(0.05, 0.95),
          p=_open(-1.0, 0.05), q=_open(1.0, 20.0)),
    _call(_gap, mu=_open(-3.0, 3.0), s2=_open(0.1, 4.0), n=_DIM, r=_open(0.1, 0.9),
          p0=_FLAG),
    _call(_diff, mu=_open(-3.0, 3.0), s2=_open(0.1, 4.0), n=_DIM, s=_open(0.5, 4.0)),
    _call(_mult, mu=_open(-1.0, 1.0), s2=_open(0.5, 2.0), x=_open(0.5, 1.0), t=_open(1.0, 2.0),
          r=_open(0.3, 0.6), p=_open(0.0, 0.5), q=_open(2.5, 6.0)),
    _call(_law, law=_LAW, a=_open(0.0, 1.0), b=_open(0.0, 10.0), n=_DIM),
    _call(_support, sup=_SUP, n=_DIM, w=_open(0.0, 4.0)),
    _call(_pair, law=_LAW, a=_open(0.0, 1.0), b=_open(0.0, 10.0), sup=_SUP, w=_open(0.0, 4.0),
          n=_DIM, r=_open(0.05, 0.95), p=_open(-1.0, 0.05), q=_open(1.0, 20.0)),
)


def _numbers(out):
    """The floats of a result, and its gap when it reports one."""
    if hasattr(out, "bound"):
        vals = [out.r, out.p, out.q, out.bound]
        gap = getattr(out, "gap", None)
        return vals + ([out.entropy, gap] if gap is not None else []), gap
    return (list(out) if isinstance(out, tuple) else [out]), None


_LN = dict(mu=0.0, s2=1.0)


@given(_API_CALLS)
@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
# the cases that escaped the contract before they were refused
@example((_gap, dict(_LN, n=0, r=0.5, p0=False)))  # a gap of -8.97
@example((_entropy, dict(_LN, n=0, r=0.5, p=0.0, q=2.0)))
@example((_entropy, dict(_LN, n=1.5, r=0.5, p=0.0, q=2.0)))
@example((_diff, dict(_LN, n=0, s=2.0)))
@example((_mult, dict(_LN, x=1.0, t=math.nan, r=0.5, p=0.3, q=2.0)))
@example((_mult, dict(_LN, x=1.0, t=math.inf, r=0.5, p=0.3, q=2.0)))
@example((_k_moment, dict(s1=0.0, s2=2.0, nu1=math.nan, nu2=1.0, m1=1.0, m2=1.0, r=0.5)))
@example((_k_moment, dict(s1=0.0, s2=2.0, nu1=1.0, nu2=1.0, m1=math.inf, m2=1.0, r=0.5)))
@example((_psi, dict(r=0.5, p=1.0 - 2.0**-53, q=2.0)))  # lam rounds to 1
@example((_psi, dict(r=0.5, p=0.0, q=1.0 + 2.0**-52)))  # lam rounds to 0
@example((_entropy, dict(mu=-1.0, s2=0.125, n=2, r=0.5, p=0.0, q=3.0)))  # n-D bound, 1-D law
@example((_diff, dict(_LN, n=1, s=math.inf)))  # nan
@example((_k_moment, dict(s1=0.0, s2=4.0, nu1=1e-323, nu2=1e-323, m1=1.0, m2=1.0, r=0.25)))
@example((_pair, dict(law="lognormal", a=0.0, b=1.0, sup="custom", w=0.5, n=1, r=0.5,
                      p=0.0, q=2.0)))  # omega(S) below the law's: a gap below 0
@example((_pair, dict(law="gaussian", a=0.0, b=1.0, sup="custom", w=1.0, n=2, r=0.5,
                      p=0.0, q=2.0)))
def test_api_contract_fuzz(call):
    fn, kwargs = call
    try:
        out = fn(**kwargs)
    except RenyiBoundsError:
        return
    vals, gap = _numbers(out)
    assert all(math.isfinite(float(v)) for v in vals), (fn.__name__, kwargs, out)
    if gap is not None:
        # a bound below the entropy; the gap is a difference of terms of the
        # entropy's size (mu = 1e13 leaves it a few 1e-3 of rounding)
        assert gap >= -1e-9 * max(1.0, abs(out.entropy)), (fn.__name__, kwargs, out)


_BEYOND = 10**400  # a Python int that float() refuses with OverflowError
_FAR_BEYOND = 10**5000  # one whose repr raises ValueError as well (over 4,300 digits)
_MIX = ScaleMixtureChannel(TwoPoint(0.3, 2.0))
_MV = MomentVector((0.0, 2.0), (1.0, 1.0))


def _minus(b):
    """-b for an int, any other value as it is."""
    return -b if type(b) is int else b


_BEYOND_CALLS = {
    "Lognormal-mu": (DomainError, lambda b: Lognormal(b, 1.0)),
    "Lognormal-sigma2": (DomainError, lambda b: Lognormal(0.0, b)),
    "GaussianMagnitude": (DomainError, lambda b: GaussianMagnitude(b)),
    "TwoPoint": (DomainError, lambda b: TwoPoint(0.3, b)),
    "PointMass": (DomainError, lambda b: PointMass(b)),
    "lambda_of-q": (InvalidMomentOrder, lambda b: lambda_of(0.5, 0.5, b)),
    "lambda_of-p": (InvalidMomentOrder, lambda b: lambda_of(0.5, _minus(b), 2.0)),
    "TwoMomentParams": (InvalidMomentOrder, lambda b: TwoMomentParams(0.5, 0.5, b)),
    "entropy_bound": (InvalidMomentOrder,
                      lambda b: entropy_bound(Lognormal(), SUP_POS, 1, 0.5, 0.0, b)),
    "kernel_Ks": (DomainError, lambda b: kernel_Ks(1.0, 1.0, b)),
    "V_s-atomic": (DomainError, lambda b: V_s(_MIX, b)),
    "V_s-monte-carlo": (DomainError, lambda b: V_s(ScaleMixtureChannel(Lognormal()), b)),
    "Domain.finite": (DomainError, lambda b: Domain.finite(0, b)),
    "Domain.half_line": (DomainError, lambda b: Domain.half_line(b)),
    "omega": (DomainError, lambda b: omega(Support.euclidean(b))),
    "Lognormal.log_moment": (DomainError, lambda b: Lognormal().log_moment(b)),
    "GaussianMagnitude.log_moment": (DomainError, lambda b: GaussianMagnitude(2).log_moment(b)),
    "TwoPoint.log_moment": (DomainError, lambda b: TwoPoint(0.3, 2.0).log_moment(b)),
    "PointMass.log_moment": (DomainError, lambda b: PointMass(2.0).log_moment(b)),
    "GenericPdf.log_moment": (DomainError, lambda b: _half_normal().log_moment(b)),
    # each of these raised a bare ValueError at 10**5000, from its refusal message
    "lambda_of-r": (InvalidMomentOrder, lambda b: lambda_of(b, 0.0, 2.0)),
    "lambda_of-p-above": (InvalidMomentOrder, lambda b: lambda_of(0.5, b, 2.0)),
    "TwoMomentParams-r": (InvalidMomentOrder, lambda b: TwoMomentParams(b, 0.0, 2.0)),
    "Support.euclidean": (DomainError, lambda b: Support.euclidean(b)),
    "Support.custom": (DomainError, lambda b: Support.custom(1.0, b)),
    "c_r_numeric": (InvalidMomentOrder, lambda b: c_r_numeric(b, _MV)),
    "k_moment_bound": (InvalidMomentOrder, lambda b: k_moment_bound(_MV, (1.0, 1.0), b)),
    "L_r": (InvalidMomentOrder, lambda b: L_r(Lognormal(), b, 0.0, 2.0)),
    "Lognormal.renyi_entropy": (DomainError, lambda b: Lognormal().renyi_entropy(b)),
    "GaussianMagnitude.renyi_entropy": (DomainError,
                                        lambda b: GaussianMagnitude(2).renyi_entropy(b)),
    "GenericPdf.renyi_entropy": (DomainError, lambda b: _half_normal().renyi_entropy(b)),
    "entropy_bound-r": (InvalidMomentOrder,
                        lambda b: entropy_bound(Lognormal(), SUP_POS, 1, b, 0.0, 2.0)),
    "entropy_bound-p": (InvalidMomentOrder,
                        lambda b: entropy_bound(Lognormal(), SUP_POS, 1, 0.5, b, 2.0)),
    "entropy_bound-n": (DomainError,
                        lambda b: entropy_bound(Lognormal(), SUP_POS, b, 0.5, 0.0, 2.0)),
    "lognormal_gap_closed": (DomainError, lambda b: lognormal_gap_closed(b)),
    "optimal_gap-r": (DomainError, lambda b: optimal_gap(Lognormal(), SUP_POS, 1, b)),
    "optimal_gap-n": (DomainError, lambda b: optimal_gap(Lognormal(), SUP_POS, b, 0.5)),
    "mult_bound_check-r": (DomainError,
                           lambda b: mult_bound_check(Lognormal(), PointMass(1.0), 1, b, 0.5, 2)),
    "mult_bound_check-p": (InvalidMomentOrder,
                           lambda b: mult_bound_check(Lognormal(), PointMass(1.0), 1, 0.5, b, 2)),
    "diff_entropy_bounds": (DomainError, lambda b: diff_entropy_bounds(Lognormal(), b, 2.0)),
    "prop7_bound": (DomainError, lambda b: prop7_bound(_MIX, b)),
    "prop8_bound": (DomainError, lambda b: prop8_bound(_MIX, b)),
    "prop9_bound": (InvalidMomentOrder, lambda b: prop9_bound(_MIX, b, 2.0)),
    "marginal_renyi_entropy": (DomainError, lambda b: marginal_renyi_entropy(_MIX, b)),
    "fig1_rows-r": (DomainError, lambda b: fig1_rows([b], [1.0])),
    "fig1_rows-sigma2": (DomainError, lambda b: fig1_rows([0.5], [b])),
    "fig2_rows": (DomainError, lambda b: fig2_rows(0.5, _minus(b))),
    "fig3_rows": (DomainError, lambda b: fig3_rows([b])),
    # choice arguments, whose refusals formatted the argument with !r
    "V_s-given": (DomainError, lambda b: V_s(_MIX, 1.0, given=b)),
    "Domain-kind": (DomainError, lambda b: Domain(b)),
    "Support-kind": (DomainError, lambda b: Support(b)),
}
_BEYOND_NAMES = sorted(_BEYOND_CALLS)


@pytest.mark.parametrize(
    "name, big",
    [(name, _BEYOND) for name in _BEYOND_NAMES] + [(name, _FAR_BEYOND) for name in _BEYOND_NAMES],
    ids=_BEYOND_NAMES + [f"{name}-5000-digits" for name in _BEYOND_NAMES],
)
def test_int_beyond_the_float_range_is_refused(name, big):
    # each raised a bare OverflowError, or (TwoPoint, PointMass) took the
    # number and failed later; at 10**5000 many raised a bare ValueError
    error, call = _BEYOND_CALLS[name]
    with pytest.raises(error):
        call(big)


@pytest.mark.parametrize(
    "name, value",
    [(name, "abc") for name in _BEYOND_NAMES] + [(name, None) for name in _BEYOND_NAMES],
    ids=[f"{name}-str" for name in _BEYOND_NAMES] + [f"{name}-None" for name in _BEYOND_NAMES],
)
def test_a_non_number_is_refused(name, value):
    # a hot-path check compared it before converting it, and raised a bare
    # TypeError; an order was converted without a check, a bare ValueError
    error, call = _BEYOND_CALLS[name]
    with pytest.raises(error):
        call(value)


_TWO = TwoMomentParams(0.5, 0.0, 2.0)


@pytest.mark.parametrize("call, args", [
    (lambda_of, ("0.5", "0", "2")),
    (lognormal_gap_closed, ("0.3",)),
    (lambda r: optimal_gap(Lognormal(), SUP_POS, 1, r).gap, ("0.5",)),
    (lambda p, q: prop9_bound(_MIX, p, q, "U"), ("0", "2")),
    (lambda mu_p, mu_q: two_moment_bound(mu_p, mu_q, _TWO), ("1.5", "2")),
    (lambda m1, m2: k_moment_bound(_MV, (m1, m2), 0.5), ("1.5", "2")),
    (kernel_Ks, ("0.5", "1", "2")),
    (lambda s: vs_upper_bound_check(_MIX, s), ("0.5",)),
    (lambda n_max: fig2_rows(0.5, n_max), ("2",)),
    (lambda r, s2: fig1_rows([r], [s2]), ("0.5", "1")),
    (lambda eps: fig3_rows([eps]), ("0.25",)),
], ids=["lambda_of", "lognormal_gap_closed", "optimal_gap", "prop9_bound", "two_moment_bound",
        "k_moment_bound", "kernel_Ks", "vs_upper_bound_check", "fig2_rows", "fig1_rows",
        "fig3_rows"])
def test_a_numeric_str_is_its_float(call, args):
    # the hot-path checks raised a bare TypeError for a str the cold ones
    # took, and so did callers that checked an argument but kept the str
    assert call(*args) == call(*map(float, args))


def test_reports_store_floats():
    report = entropy_bound(Lognormal(), SUP_POS, 1, np.float64(0.5), 0, "2")
    assert [type(v) for v in (report.r, report.p, report.q)] == [float] * 3
