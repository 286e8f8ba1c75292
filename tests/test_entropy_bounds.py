"""Entropy-bound layer: the bound itself, closed-form gaps for the
lognormal and Gaussian families, the optimizer, the large-n limit, the
multiplication bound, and the differential-entropy corollaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi_bounds.distributions import (
    GaussianMagnitude,
    Lognormal,
    PointMass,
    TwoPoint,
)
from renyi_bounds.entropy_bounds import (
    GaussGapParams,
    diff_entropy_bounds,
    entropy_bound,
    gaussian_Q,
    gaussian_Q_lower_bound,
    gaussian_gap,
    lognormal_gap_at,
    lognormal_gap_closed,
    lognormal_gap_p0,
    mult_bound_check,
    optimal_gap,
    prop6_limit_check,
    two_moment_parametrization,
)
from renyi_bounds.errors import (
    DomainError,
    Infeasible,
    InvalidMomentOrder,
    MomentDiverges,
    RenyiBoundsError,
)
from renyi_bounds.moment_core import Support, TwoMomentParams, psi_r
from renyi_bounds.quadrature import NumericsConfig

CFG = NumericsConfig()
SUP_POS = Support.positive_half_line()
HALF_LOG_8PI = 1.6120857137646180512
SQRT_2PI = 2.5066282746310005024
LOG_GAP_HALF = 0.032644172084782122946  # lognormal optimal gap at r = 1/2 (mpmath)


class TestEntropyBound:
    def test_lognormal_at_box_optimum(self):
        # (lam, u) = (1/2, 1) is the optimizer for sigma2 = 1: the gap of
        # the evaluated bound must equal the closed-form optimal gap.
        p, q = two_moment_parametrization(0.5, 0.5, 1.0)
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
        p, q = two_moment_parametrization(r, lam, u)
        rep = entropy_bound(Lognormal(1.1, s2), SUP_POS, 1, r, p, q)
        assert rep.gap == pytest.approx(lognormal_gap_at(r, lam, u, s2), abs=1e-10)


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
                val = lognormal_gap_at(r, 0.5, 1.0 / s2, s2)
                assert val == pytest.approx(lognormal_gap_closed(r), abs=1e-12)

    def test_gap_at_depends_on_u_sigma2_product_only(self):
        a = lognormal_gap_at(0.5, 0.5, 1.0, 1.0)
        b = lognormal_gap_at(0.5, 0.5, 0.25, 4.0)
        assert a == pytest.approx(b, rel=1e-14)

    def test_stationarity_in_lambda_and_u(self):
        r, s2 = 0.4, 1.3
        centre = lognormal_gap_at(r, 0.5, 1.0 / s2, s2)
        for lam in np.arange(0.1, 0.95, 0.1):
            assert lognormal_gap_at(r, float(lam), 1.0 / s2, s2) >= centre - 1e-12
        for w in np.linspace(-3.0, 3.0, 13):
            assert lognormal_gap_at(r, 0.5, math.exp(w) / s2, s2) >= centre - 1e-12

    def test_p0_slice_matches_direct_gap(self):
        # the simplified p = 0 expansion against the bound evaluated at (0, q)
        r, s2 = 0.45, 2.2
        for q in (1.5, 2.4, 6.0):
            direct = entropy_bound(Lognormal(0.0, s2), SUP_POS, 1, r, 0.0, q).gap
            assert lognormal_gap_p0(r, q, s2) == pytest.approx(direct, abs=1e-10)
        with pytest.raises(InvalidMomentOrder):
            lognormal_gap_p0(r, 1.0 / r - 1.0, s2)


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
            lambda x: 2.0 / (math.pi * (1.0 + x * x)), Domain.half_line(0.0), CFG
        )
        rep = optimal_gap(heavy, SUP_POS, 1, 0.75, constrain_p_zero=True)
        assert math.isfinite(rep.gap)
        assert rep.gap >= -1e-9
        assert (1.0 / 0.75 - 1.0) < rep.q < 1.0

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
    gap = lognormal_gap_at(r, lam, math.exp(log_u), s2)
    assert gap >= -1e-9
    # and the bound route agrees with the closed form
    p, q = two_moment_parametrization(r, lam, math.exp(log_u))
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
        gp = GaussGapParams(r, n, lam, math.exp(log_z))
    except _Infeasible:
        return
    assert gaussian_gap(gp) >= -1e-9


class TestGaussianGap:
    def test_feasibility_guard(self):
        with pytest.raises(Infeasible):
            GaussGapParams(0.1, 1, 0.3, 2.0)
        GaussGapParams(0.1, 4, 0.6, 0.5)  # feasible

    def test_q_lower_bound_on_grid(self):
        for r in (0.1, 0.5, 0.9):
            for n in (1, 4, 16, 64):
                for lam in (0.25, 0.5, 0.75):
                    for z in (0.25, 1.0, 4.0):
                        try:
                            gp = GaussGapParams(r, n, lam, z)
                        except Infeasible:
                            continue
                        assert gaussian_Q(gp) >= gaussian_Q_lower_bound(gp) - 1e-12

    def test_q_large_n_limit(self):
        gp = GaussGapParams(0.5, 10**4, 0.5, 1.0)
        assert abs(gaussian_Q(gp) - 0.5) <= 2e-2

    def test_closed_form_equals_generic_bound_route(self):
        # Eq-level identity: the (lam, z) closed form is the generic bound
        # evaluated at the corresponding (p, q).
        for (r, n, lam, z) in ((0.1, 4, 0.6, 0.5), (0.5, 16, 0.4, 1.2), (0.3, 2, 0.7, 0.8)):
            gp = GaussGapParams(r, n, lam, z)
            u = 2.0 * z / (r * n)
            p, q = two_moment_parametrization(r, lam, u)
            rep = entropy_bound(GaussianMagnitude(n), Support.euclidean(n), n, r, p, q)
            assert gaussian_gap(gp) == pytest.approx(rep.gap, abs=1e-10)

    def test_optimized_gap_nondecreasing_in_n(self):
        rows = prop6_limit_check(0.1, 256)
        gaps = [g for _, g, _ in rows]
        for i in range(len(gaps) - 1):
            assert gaps[i + 1] >= gaps[i] - 1e-9

    def test_prop6_desk_scale_limit(self):
        rows = prop6_limit_check(0.1, 256)
        n, gap_y, gap_x = rows[-1]
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

    def test_n_max_validation(self):
        with pytest.raises(DomainError):
            prop6_limit_check(0.1, 8)


class TestMultiplicationBound:
    def test_point_mass_residual_is_minus_gap(self):
        gap = entropy_bound(Lognormal(0.0, 1.0), SUP_POS, 1, 0.5, 0.3, 2.0).gap
        res = mult_bound_check(Lognormal(0.0, 1.0), PointMass(2.0), 2.0, 0.5, 0.3, 2.0, CFG)
        assert res == pytest.approx(-gap, abs=1e-9)
        assert res <= 0.0

    def test_two_point_mixture_residual(self):
        # X on {t/2, t}: the product density is a two-component lognormal
        # mixture with closed-form pdf, integrated by quadrature.
        res = mult_bound_check(Lognormal(0.0, 1.0), TwoPoint(0.5, 2.0), 2.0, 0.5, 0.3, 2.0, CFG)
        assert res <= 1e-3

    def test_far_product_density_found_or_refused(self):
        # lognormal Y far from 1 and X = 1: the residual is -gap, or the
        # call refuses; never a bare ValueError or a garbage entropy
        gap = entropy_bound(Lognormal(60.0, 0.01), SUP_POS, 1, 0.5, 0.5, 2.0).gap
        try:
            res = mult_bound_check(Lognormal(60.0, 0.01), PointMass(1.0), 1.0, 0.5, 0.5, 2.0, CFG)
        except RenyiBoundsError:
            return
        assert res == pytest.approx(-gap, abs=1e-9)

    def test_scale_shift_identity(self):
        d = Lognormal(0.4, 1.5)
        t, r = 3.0, 0.5
        assert d.scaled(t).renyi_entropy(r) == pytest.approx(
            d.renyi_entropy(r) + math.log(t), rel=1e-12
        )

    def test_preconditions(self):
        with pytest.raises(InvalidMomentOrder):
            mult_bound_check(Lognormal(0.0, 1.0), PointMass(1.0), 1.0, 0.5, 0.0, 2.0, CFG)
        with pytest.raises(DomainError):
            # atom above t violates X <= t
            mult_bound_check(Lognormal(0.0, 1.0), PointMass(3.0), 2.0, 0.5, 0.3, 2.0, CFG)


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

    def test_psi_limit_at_p0(self):
        # lim_{r->1} psi_r(0, q) = (e q)^(1/q) Gamma(1/q + 1), q = 2
        target = 2.0663656770612464692
        assert psi_r(TwoMomentParams(0.999, 0.0, 2.0)) == pytest.approx(target, abs=1e-2)

    def test_psi_limit_along_box_path(self):
        # psi_r(p(r), q(r)) -> sqrt(2 pi / u) as r -> 1 along the box path
        for lam in (0.3, 0.5, 0.7):
            p, q = two_moment_parametrization(0.999, lam, 1.0)
            assert psi_r(TwoMomentParams(0.999, p, q)) == pytest.approx(SQRT_2PI, abs=1e-2)

    def test_validation(self):
        with pytest.raises(DomainError):
            diff_entropy_bounds(Lognormal(0.0, 1.0), 1, -1.0)
        # a heavy-tailed density with no second moment
        from renyi_bounds.distributions import GenericPdf
        from renyi_bounds.quadrature import Domain

        heavy = GenericPdf(
            lambda x: 2.0 / (math.pi * (1.0 + x * x)), Domain.half_line(0.0), CFG
        )
        with pytest.raises(MomentDiverges):
            diff_entropy_bounds(heavy, 1, 2.0)
