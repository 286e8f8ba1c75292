"""Mutual-information layer: the kernel, V_s identities, the bound
ordering against the exact-mixture oracle, and the scale-mixture
phenomenology."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi_bounds.distributions import (
    GenericPdf,
    Lognormal,
    PointMass,
    TwoPoint,
    iid_pair_sampler,
)
from renyi_bounds.errors import (
    DomainError,
    InvalidMomentOrder,
    RenyiBoundsError,
    UnsupportedOperation,
)
from renyi_bounds import mi_bounds
from renyi_bounds.mi_bounds import (
    AwgnChannel,
    ScaleMixtureChannel,
    V_s,
    chi2_divergence,
    chi2_mi_bound,
    kernel_Ks,
    marginal_renyi_entropy,
    mi_oracle,
    prop7_bound,
    prop8_bound,
    prop9_bound,
    variance_model,
    vs_upper_bound_check,
)
from renyi_bounds.quadrature import Domain, NumericsConfig, integrate, mc_expect
from renyi_bounds.specfun import kappa
from renyi_bounds.verify import _V_s_quadrature

CFG = NumericsConfig()
INV_2SQRTPI = 1.0 / (2.0 * math.sqrt(math.pi))
V2_POINT_U1 = 0.22367104746010087624  # V_2(Y|X) at U = 1 (mpmath exact sums)


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _abs_moment_exact(s, m):
    # E|W + m|^s = 2^(s/2) G((s+1)/2) / sqrt(pi) 1F1(-s/2; 1/2; -m^2/2)
    return 2.0 ** (0.5 * s) * math.gamma(0.5 * (s + 1.0)) / math.sqrt(math.pi) * sp.hyp1f1(
        -0.5 * s, 0.5, -0.5 * m * m
    )


def _awgn_vs_exact_s2(d):
    # V_2 from the kernel sums with E|W + m|^2 = 1 + m^2
    def k2(x1, x2):
        m = (x1 + x2) / math.sqrt(2.0)
        return 2.0**-1.5 * (1.0 + m * m) * _phi((x1 - x2) / math.sqrt(2.0))

    xs, ps = d.atoms_and_probs()
    diag = sum(p * k2(x, x) for x, p in zip(xs, ps))
    return diag - sum(p1 * p2 * k2(x1, x2) for x1, p1 in zip(xs, ps) for x2, p2 in zip(xs, ps))


class TestKernel:
    def test_diagonal_s0(self):
        ch = AwgnChannel(TwoPoint(0.5, 2.0))
        assert kernel_Ks(ch, 1.0, 1.0, 0.0, CFG) == pytest.approx(INV_2SQRTPI, rel=1e-10)

    def test_offdiagonal_s0(self):
        ch = AwgnChannel(TwoPoint(0.5, 2.0))
        expect = 2.0**-0.5 * _phi(2.0 / math.sqrt(2.0))
        assert kernel_Ks(ch, 2.0, 0.0, 0.0, CFG) == pytest.approx(expect, rel=1e-10)

    def test_s0_equals_product_density_integral(self):
        # K_0(x1, x2) = int f(y|x1) f(y|x2) dy, checked by quadrature
        ch = AwgnChannel(PointMass(1.0))
        x1, x2 = 0.7, -0.4
        direct = integrate(
            lambda y: np.exp(-0.5 * ((y - x1) ** 2 + (y - x2) ** 2)) / (2 * math.pi),
            Domain.full_line(),
            CFG,
        ).value
        assert kernel_Ks(ch, x1, x2, 0.0, CFG) == pytest.approx(direct, rel=1e-9)

    def test_s2_shifted_second_moment(self):
        # E|W + m|^2 = 1 + m^2 makes K_2 elementary.
        ch = AwgnChannel(PointMass(1.0))
        x1, x2 = 1.2, 0.4
        m = (x1 + x2) / math.sqrt(2.0)
        expect = 2.0 ** (-1.5) * (1.0 + m * m) * _phi((x1 - x2) / math.sqrt(2.0))
        assert kernel_Ks(ch, x1, x2, 2.0, CFG) == pytest.approx(expect, rel=1e-9)

    def test_gram_matrix_positive_semidefinite(self):
        ch = AwgnChannel(PointMass(1.0))
        xs = [-1.0, 0.0, 1.0]
        gram = np.array([[kernel_Ks(ch, a, b, 0.0, CFG) for b in xs] for a in xs])
        assert np.linalg.eigvalsh(gram).min() >= -1e-12

    def test_far_peak_found_or_refused(self):
        # E|W + m|^2 = 1 + m^2; at m = 113 the answer is this or a refusal,
        # never a silent underflow or a bare ValueError
        m = 160.0 / math.sqrt(2.0)
        try:
            k = kernel_Ks(AwgnChannel(TwoPoint(0.3, 80.0)), 80.0, 80.0, 2.0, CFG)
        except RenyiBoundsError:
            return
        assert k == pytest.approx(2.0**-1.5 * (1.0 + m * m) * _phi(0.0), rel=1e-8)

    @pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("m", [0.0, 0.5, 3.0, 40.0, 141.0])
    def test_abs_moment_matches_hypergeometric_form(self, s, m):
        # the far shifts are where a quadrature around t = 0 missed the peak at m
        got = mi_bounds._abs_moment_shifted_normal(s, m, CFG)
        assert got == pytest.approx(_abs_moment_exact(s, m), rel=4e-10)

    def test_s0_moment_is_exactly_one(self):
        assert mi_bounds._abs_moment_shifted_normal(0.0, 7.0, CFG) == 1.0

    def test_symmetric_bit_for_bit(self):
        ch = AwgnChannel(PointMass(1.0))
        for x1, x2, s in ((0.3, 2.5, 0.5), (1.0, 28.0, 2.0), (-1.2, 4.0, 3.0), (1.0, 2.5, 0.0)):
            assert kernel_Ks(ch, x1, x2, s, CFG) == kernel_Ks(ch, x2, x1, s, CFG)

    def test_mixture_channel_rejected(self):
        with pytest.raises(UnsupportedOperation):
            kernel_Ks(ScaleMixtureChannel(PointMass(1.0)), 0.0, 1.0, 0.0, CFG)
        ch = AwgnChannel(PointMass(1.0))
        with pytest.raises(DomainError):
            kernel_Ks(ch, 0.0, 1.0, -1.0, CFG)


class TestVs:
    def test_point_input_is_zero(self):
        ch = AwgnChannel(PointMass(2.0))
        for s in (0.0, 2.0):
            assert V_s(ch, s, "X", CFG).value == 0.0

    def test_constant_mixing_given_u_is_zero(self):
        ch = ScaleMixtureChannel(PointMass(2.0))
        for s in (0.0, 1.0, 2.0):
            assert V_s(ch, s, "U", CFG).value == pytest.approx(0.0, abs=1e-15)

    def test_constant_mixing_given_x_matches_awgn_closed_form(self):
        # two code paths: the scale-mixture pair expectation vs the
        # Gaussian identity E exp(-(X1-X2)^2/4) = (1+c)^(-1/2), X ~ N(0,c)
        for c in (0.5, 1.0, 4.0):
            ch = ScaleMixtureChannel(PointMass(c))
            closed = V_s(ch, 0.0, "X", CFG)
            expect = INV_2SQRTPI * (1.0 - (1.0 + c) ** -0.5)
            assert closed.method == "closed_form"
            assert closed.value == pytest.approx(expect, abs=1e-9)

    def test_reference_value_v2(self):
        ch = ScaleMixtureChannel(PointMass(1.0))
        assert V_s(ch, 2.0, "X", CFG).value == pytest.approx(V2_POINT_U1, rel=1e-12)

    def test_kernel_decomposition_exact_sums(self):
        # direct integral of |y|^s var(f(y|X)) vs E[K_s(X,X) - K_s(X1,X2)]
        ch = AwgnChannel(TwoPoint(0.3, 2.5))
        for s in (0.0, 2.0):
            kernel_route = V_s(ch, s, "X", CFG).value
            direct = _V_s_quadrature(ch, s, "X", CFG)
            assert kernel_route == pytest.approx(direct, rel=1e-6)

    @pytest.mark.parametrize("a", [28.0, 50.0, 100.0])
    def test_far_atom_matches_s2_closed_form(self, a):
        # from a = 28 on, a kernel quadrature around t = 0 missed the peak at m
        d = TwoPoint(0.3, a)
        got = V_s(AwgnChannel(d), 2.0, "X", CFG).value
        assert got == pytest.approx(_awgn_vs_exact_s2(d), rel=1e-9)

    def test_one_kernel_per_unordered_atom_pair(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        kernel = mi_bounds.kernel_Ks
        monkeypatch.setattr(mi_bounds, "kernel_Ks", counting)
        for s in (0.0, 0.5, 2.0):
            calls.clear()
            V_s(AwgnChannel(TwoPoint(0.3, 2.5)), s, "X", CFG)
            assert len(calls) == 3

    @pytest.mark.parametrize("d", [TwoPoint(0.3, 2.5), TwoPoint(0.1, 20.0), TwoPoint(0.5, 1.5)])
    def test_kernel_sum_in_pairwise_order(self, d):
        # the earlier route: N diagonal and N^2 ordered-pair kernels, summed in this order
        ch = AwgnChannel(d)
        xs, ps = d.atoms_and_probs()
        for s in (0.5, 2.0, 3.0):
            k_diag = sum(p * kernel_Ks(ch, x, x, s, CFG) for x, p in zip(xs, ps))
            k_cross = sum(
                p1 * p2 * kernel_Ks(ch, x1, x2, s, CFG)
                for x1, p1 in zip(xs, ps)
                for x2, p2 in zip(xs, ps)
            )
            assert V_s(ch, s, "X", CFG).value == k_diag - k_cross

    @pytest.mark.parametrize("d", [TwoPoint(0.3, 2.5), TwoPoint(0.1, 20.0), TwoPoint(0.5, 1.5)])
    def test_v0_from_kernels_matches_pairwise_closed_form(self, d):
        xs, ps = d.atoms_and_probs()
        e = float(ps @ (np.exp(-0.25 * (xs[:, None] - xs[None, :]) ** 2) @ ps))
        got = V_s(AwgnChannel(d), 0.0, "X", CFG)
        assert got.method == "closed_form"
        assert got.value == pytest.approx(INV_2SQRTPI * (1.0 - e), rel=1e-14)

    def test_kernel_decomposition_monte_carlo(self):
        ch = AwgnChannel(TwoPoint(0.3, 2.5))
        direct = _V_s_quadrature(ch, 0.0, "X", CFG)

        def g(pair):
            x1, x2 = pair
            return INV_2SQRTPI * (1.0 - np.exp(-0.25 * (x1 - x2) ** 2))

        res = mc_expect(g, iid_pair_sampler(TwoPoint(0.3, 2.5)), CFG)
        assert abs(direct - res.value) <= 4.0 * res.standard_error

    def test_scaling_law(self):
        ch = ScaleMixtureChannel(TwoPoint(0.4, 3.0))
        for s in (0.0, 2.0):
            base = _V_s_quadrature(ch, s, "U", CFG)
            for a in (0.5, 2.0, 3.0):
                scaled = _V_s_quadrature(ch, s, "U", CFG, scale=a)
                assert scaled == pytest.approx(a ** (s - 1.0) * base, rel=1e-8)

    def test_monte_carlo_mixing(self):
        ch = ScaleMixtureChannel(Lognormal(0.0, 0.25))
        res = V_s(ch, 0.0, "U", CFG)
        assert res.method == "monte_carlo"
        assert res.standard_error > 0.0
        assert res.value > 0.0

    def test_given_u_upper_bound_residuals(self):
        for eps, a in ((0.5, 3.0), (0.1, 11.0)):
            ch = ScaleMixtureChannel(TwoPoint(eps, a))
            for s in (0.0, 2.0):
                assert vs_upper_bound_check(ch, s, CFG) >= -1e-12

    def test_given_u_upper_bound_degenerate(self):
        ch = ScaleMixtureChannel(PointMass(1.5))
        assert vs_upper_bound_check(ch, 0.0, CFG) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("q", [250.0, 300.0, 400.0])
    @pytest.mark.parametrize("ch,given", [
        (ScaleMixtureChannel(TwoPoint(0.01, 11.0)), "U"),
        (ScaleMixtureChannel(PointMass(9.0)), "X"),
        (AwgnChannel(TwoPoint(0.3, 2.5)), "X"),
    ], ids=["two-point-mixture", "awgn-gaussian", "awgn-two-point"])
    def test_large_orders_finite_or_refused(self, ch, given, q):
        # at these orders the scale-mixture terms overflow; they gave inf, a silent 0
        # or an OverflowError
        for f in (lambda: V_s(ch, q, given, CFG).value, lambda: prop9_bound(ch, 0.0, q, given, CFG)):
            try:
                v = f()
            except RenyiBoundsError:
                continue
            assert math.isfinite(v) and v > 0.0

    def test_overflowing_terms_refused(self):
        ch = ScaleMixtureChannel(TwoPoint(0.33, 1e300))
        with pytest.raises(DomainError):
            V_s(ch, 4.9, "U", CFG)
        mc = ScaleMixtureChannel(Lognormal(0.0, 1.0))
        with pytest.raises(DomainError, match="terms of V_s"):  # the Monte Carlo mean
            V_s(mc, 250.0, "U", CFG)
        with pytest.raises(DomainError, match="G"):  # the constant G((1+s)/2)
            V_s(mc, 1000.0, "U", CFG)

    def test_unsupported_combinations(self):
        with pytest.raises(UnsupportedOperation):
            V_s(AwgnChannel(PointMass(1.0)), 0.0, "U", CFG)
        with pytest.raises(UnsupportedOperation):
            V_s(AwgnChannel(Lognormal(0.0, 1.0)), 2.0, "X", CFG)  # s>0 needs atoms
        with pytest.raises(DomainError):
            V_s(AwgnChannel(PointMass(1.0)), -0.5, "X", CFG)


@given(
    st.floats(min_value=0.001, max_value=0.999),
    st.floats(min_value=0.01, max_value=200.0),
    st.floats(min_value=0.0, max_value=4.0),
)
@settings(max_examples=300)
def test_vs_nonnegative_property(eps, a, s):
    """V_s(Y|U) >= 0 for random two-point mixing laws (exact sums)."""
    ch = ScaleMixtureChannel(TwoPoint(eps, a))
    assert V_s(ch, s, "U", CFG).value >= 0.0


@given(
    st.floats(min_value=0.001, max_value=0.5),
    st.floats(min_value=1.0, max_value=200.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300)
def test_vs_upper_bound_property_in_its_regime(eps, a, s):
    """The product-form upper bound on V_s(Y|U) holds whenever the atom
    weights and (1+u)^((s-1)/2) are similarly ordered: here the heavy
    atom is the rare one (eps <= 1/2, a >= 1) and s <= 1 makes the weight
    function nonincreasing.  Outside this regime the bound can genuinely
    fail, e.g. (eps, a, s) = (0.4, 100, 2) gives a residual of -0.021."""
    ch = ScaleMixtureChannel(TwoPoint(eps, a))
    assert vs_upper_bound_check(ch, s, CFG) >= -1e-12


class TestChiSquare:
    def test_degenerate_is_zero(self):
        assert chi2_mi_bound(AwgnChannel(PointMass(2.0)), "X", CFG) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_input_identity(self):
        # bivariate-normal identity: chi^2 = rho^2/(1 - rho^2) = sigma^2
        for s2 in (0.5, 1.0, 4.0):
            ch = ScaleMixtureChannel(PointMass(s2))
            assert chi2_divergence(ch, "X", CFG) == pytest.approx(s2, rel=1e-8)

    @pytest.mark.parametrize("ch,given", [
        (ScaleMixtureChannel(TwoPoint(0.1, 2.0)), "U"),
        (ScaleMixtureChannel(TwoPoint(0.3, 4.0)), "X"),
        (AwgnChannel(TwoPoint(0.3, 2.5)), "X"),
    ])
    def test_chi2_is_prop7_at_t1_bitwise(self, ch, given):
        assert chi2_divergence(ch, given, CFG) == prop7_bound(ch, 1.0, given, CFG)

    def test_prop7_at_t1_equals_chi2_integral(self):
        ch = ScaleMixtureChannel(TwoPoint(0.1, 2.0))
        assert prop7_bound(ch, 1.0, "U", CFG) == pytest.approx(
            chi2_divergence(ch, "U", CFG), rel=1e-9
        )

    def test_fig3_channel_chi2_bounded_below(self):
        vals = []
        for eps in (0.01, 0.001):
            ch = ScaleMixtureChannel(TwoPoint(eps, 1.0 + 1.0 / math.sqrt(eps)))
            vals.append(chi2_mi_bound(ch, "U", CFG))
        assert min(vals) > 0.1  # stays away from zero as eps -> 0


class TestProp7:
    def test_degenerate(self):
        ch = AwgnChannel(PointMass(1.0))
        for t in (0.3, 0.5, 1.0):
            assert prop7_bound(ch, t, "X", CFG) == pytest.approx(0.0, abs=1e-12)

    def test_half_t_is_kappa_times_sqrt_var_integral(self):
        ch = ScaleMixtureChannel(TwoPoint(0.2, 3.0))
        model = variance_model(ch, "U", CFG)

        def sqrt_var(y):
            return np.exp(0.5 * model.log_var(y))

        direct = kappa(0.5) * integrate(sqrt_var, Domain.full_line(), CFG).value
        assert prop7_bound(ch, 0.5, "U", CFG) == pytest.approx(direct, rel=1e-9)

    def test_t_validation(self):
        ch = AwgnChannel(PointMass(1.0))
        for t in (0.0, 1.2):
            with pytest.raises(DomainError):
                prop7_bound(ch, t, "X", CFG)


class TestProp8:
    def test_degenerate(self):
        assert prop8_bound(AwgnChannel(PointMass(1.0)), 0.5, "X", CFG) == 0.0

    def test_dominates_gaussian_capacity(self):
        ch = ScaleMixtureChannel(PointMass(1.0))
        assert prop8_bound(ch, 0.5, "X", CFG) >= 0.5 * math.log(2.0)

    def test_composite_criterion_scale_invariant(self):
        # e^{h_r(aY)} V_0(aY|X) is invariant in a: h_r shifts by log a
        # while V_0 scales by 1/a.
        ch = ScaleMixtureChannel(TwoPoint(0.3, 2.0))
        r = 0.5
        hr = marginal_renyi_entropy(ch, r, CFG)
        v0 = _V_s_quadrature(ch, 0.0, "X", CFG)
        base = math.exp(hr) * v0
        for a in (0.5, 2.0, 3.0):
            scaled = math.exp(hr + math.log(a)) * _V_s_quadrature(ch, 0.0, "X", CFG, scale=a)
            assert scaled == pytest.approx(base, rel=1e-9)


class TestProp9:
    def test_degenerate(self):
        assert prop9_bound(AwgnChannel(PointMass(1.0)), 0.0, 2.0, "X", CFG) == 0.0

    def test_constant_matches_reflection_form(self):
        # C(lam) = kappa(1/2) sqrt(pi lam^-lam (1-lam)^-(1-lam) / sin(pi lam))
        ch = ScaleMixtureChannel(TwoPoint(0.2, 3.0))
        for p, q in ((0.0, 2.0), (0.5, 3.0), (0.2, 1.5)):
            lam = (q - 1.0) / (q - p)
            c = kappa(0.5) * math.sqrt(
                math.pi * lam**-lam * (1.0 - lam) ** (lam - 1.0) / math.sin(math.pi * lam)
            )
            vp = V_s(ch, p, "U", CFG).value
            vq = V_s(ch, q, "U", CFG).value
            expected = c * math.sqrt(2.0 * vp**lam * vq ** (1.0 - lam) / (q - p))
            assert prop9_bound(ch, p, q, "U", CFG) == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        ch = ScaleMixtureChannel(PointMass(1.0))
        with pytest.raises(InvalidMomentOrder):
            prop9_bound(ch, 0.0, 0.9, "X", CFG)
        with pytest.raises(InvalidMomentOrder):
            prop9_bound(ch, -0.5, 2.0, "X", CFG)
        # q one ulp above 1: lam = (q-1)/(q-p) rounds to 0
        with pytest.raises(InvalidMomentOrder, match="lam = 0.0"):
            prop9_bound(ch, 0.0, 1.0000000000000002)


class TestOracle:
    def test_degenerate(self):
        assert mi_oracle(AwgnChannel(PointMass(1.0)), "X", CFG) == pytest.approx(0.0, abs=1e-12)

    def test_coinciding_atoms_give_exact_zero(self):
        # both atoms of TwoPoint(eps, 1) sit at 1: the input is constant and
        # every quantity is exactly 0, not a rounding residue of either sign
        ch = AwgnChannel(TwoPoint(0.1, 1.0))
        assert mi_oracle(ch, "X", CFG) == 0.0
        assert chi2_mi_bound(ch, "X", CFG) == 0.0
        assert prop8_bound(ch, 0.5, "X", CFG) == 0.0
        assert prop9_bound(ch, 0.0, 2.0, "X", CFG) == 0.0

    @pytest.mark.parametrize("mixing", [PointMass(2.0), TwoPoint(0.1, 1.0)])
    def test_one_atom_mixing_given_u_is_exact_zero(self, mixing):
        # a constant U leaves f(y|U) fixed: V_s(Y|U) and every bound built
        # on it are exactly 0, not an ulp residue raised to a power
        ch = ScaleMixtureChannel(mixing)
        for s in (0.0, 0.5, 2.0):
            assert V_s(ch, s, "U", CFG).value == 0.0
        assert mi_oracle(ch, "U", CFG) == 0.0
        assert chi2_mi_bound(ch, "U", CFG) == 0.0
        assert prop8_bound(ch, 0.5, "U", CFG) == 0.0
        assert prop9_bound(ch, 0.0, 2.0, "U", CFG) == 0.0

    def test_gaussian_capacity(self):
        for s2 in (0.5, 1.0, 4.0):
            ch = ScaleMixtureChannel(PointMass(s2))
            assert mi_oracle(ch, "X", CFG) == pytest.approx(
                0.5 * math.log1p(s2), abs=1e-6
            )

    def test_all_bounds_dominate_oracle(self):
        ch = ScaleMixtureChannel(TwoPoint(0.1, 1.0 + 1.0 / math.sqrt(0.1)))
        val = mi_oracle(ch, "U", CFG)
        bounds = [prop7_bound(ch, t, "U", CFG) for t in (0.3, 0.5, 0.8, 1.0)]
        bounds += [prop8_bound(ch, r, "U", CFG) for r in (0.3, 0.5, 0.8)]
        bounds.append(prop9_bound(ch, 0.0, 2.0, "U", CFG))
        bounds.append(chi2_mi_bound(ch, "U", CFG))
        assert val <= min(bounds) + 1e-9

    def test_data_processing(self):
        ch = ScaleMixtureChannel(TwoPoint(0.4, 3.0))
        assert mi_oracle(ch, "U", CFG) <= mi_oracle(ch, "X", CFG) + 1e-8

    def test_generic_input_matches_mixture_route(self):
        # AWGN with X ~ N(0,1) two ways: nested quadrature over a generic
        # density vs the exact point-mass mixture marginal.
        loose = NumericsConfig(rel_tol=1e-7)
        gauss = GenericPdf(
            lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
            Domain.full_line(),
            loose,
        )
        via_generic = mi_oracle(AwgnChannel(gauss), "X", loose)
        via_mixture = mi_oracle(ScaleMixtureChannel(PointMass(1.0)), "X", CFG)
        assert via_generic == pytest.approx(via_mixture, abs=1e-5)


class TestMarginals:
    def test_normalization(self):
        channels = [
            (AwgnChannel(TwoPoint(0.25, 4.0)), "X"),
            (ScaleMixtureChannel(TwoPoint(0.01, 11.0)), "U"),
            (ScaleMixtureChannel(PointMass(2.0)), "X"),
        ]
        for ch, given in channels:
            model = variance_model(ch, given, CFG)
            mass = integrate(
                lambda y: np.exp(model.log_marginal(y)), Domain.full_line(), CFG
            ).value
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_far_output_entropy_found_or_refused(self):
        # Y ~ N(1e4, 1): h_r(Y) = h_r(N(0, 1)), or the call refuses
        r = 0.5
        try:
            h = marginal_renyi_entropy(AwgnChannel(PointMass(1e4)), r, CFG)
        except RenyiBoundsError:
            return
        assert h == pytest.approx(0.5 * (math.log(2.0 * math.pi) + math.log(r) / (r - 1.0)),
                                  abs=1e-8)

    def test_small_variation_uniform_bound(self):
        # 1 - E exp(-(X1-X2)^2/4) <= eps^2 + 2 P(|X - x0| >= eps)
        for w, atom in ((0.05, 1.3), (0.2, 2.0)):
            d = TwoPoint(w, atom)
            xs, ps = d.atoms_and_probs()
            e = float(ps @ (np.exp(-0.25 * (xs[:, None] - xs[None, :]) ** 2) @ ps))
            lhs = 1.0 - e
            x0 = 1.0
            for eps in (0.05, 0.1, 0.5, 1.0):
                tail = float(ps[np.abs(xs - x0) >= eps].sum())
                assert lhs <= eps * eps + 2.0 * tail + 1e-12


class TestVarianceModels:
    def test_continuous_mixing_pointwise_unsupported(self):
        ch = ScaleMixtureChannel(Lognormal(0.0, 1.0))
        with pytest.raises(UnsupportedOperation):
            variance_model(ch, "U", CFG)

    def test_given_validation(self):
        ch = AwgnChannel(PointMass(1.0))
        with pytest.raises(UnsupportedOperation):
            variance_model(ch, "U", CFG)
        with pytest.raises(DomainError):
            variance_model(ch, "Z", CFG)
