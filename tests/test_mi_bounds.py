"""Mutual-information layer: the kernel, V_s identities, the bound
ordering against the exact-mixture oracle, and the scale-mixture
phenomenology."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi_bounds.distributions import (
    GaussianMagnitude,
    GenericPdf,
    Lognormal,
    PointMass,
    TwoPoint,
)
from renyi_bounds.errors import (
    DomainError,
    InvalidMomentOrder,
    MaxSubdivisionsExceeded,
    RenyiBoundsError,
    UnsupportedOperation,
)
from renyi_bounds import mi_bounds, quadrature
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
from renyi_bounds.moment_core import Support, TwoMomentParams, two_moment_bound
from renyi_bounds.quadrature import Domain, integrate, mc_expect, rng_for
from renyi_bounds.specfun import kappa
from renyi_bounds.sweeps import DEFAULT_EPS_GRID, _two_point_mixture, fig3_rows
from renyi_bounds.verify import _log_abs_pow, _V_s_quadrature

INV_2SQRTPI = 1.0 / (2.0 * math.sqrt(math.pi))
V2_POINT_U1 = 0.22367104746010087624  # V_2(Y|X) at U = 1 (mpmath exact sums)


def _vs_lognormal_mixing(mu, s2, s, given):
    """V_s of ScaleMixtureChannel(Lognormal(mu, s2)) as a 120-node
    Gauss-Hermite double sum in log u (equal to 180 nodes within 1e-12)."""
    z, w = np.polynomial.hermite_e.hermegauss(120)
    w = w / math.sqrt(2.0 * math.pi)
    u = np.exp(mu + math.sqrt(s2) * z)
    first = (1.0 + u) ** (0.5 * (s - 1.0)) if given == "U" else (1.0 + 2.0 * u) ** (0.5 * s)
    u1, u2 = u[:, None], u[None, :]
    cross = ((1.0 + u1) * (1.0 + u2)) ** (0.5 * s) / (1.0 + 0.5 * (u1 + u2)) ** (0.5 * (s + 1.0))
    return math.gamma(0.5 * (1.0 + s)) / (2.0 * math.pi) * (w @ first - w @ cross @ w)


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _abs_moment_exact(s, m):
    # E|W + m|^s = 2^(s/2) G((s+1)/2) / sqrt(pi) 1F1(-s/2; 1/2; -m^2/2)
    return 2.0 ** (0.5 * s) * math.gamma(0.5 * (s + 1.0)) / math.sqrt(math.pi) * sp.hyp1f1(
        -0.5 * s, 0.5, -0.5 * m * m
    )


def _abs_moment_quadrature(s, m):
    """E|W + m|^s for W ~ N(0,1): exactly 1 at s = 0, otherwise with M = |m|

        int_0^M (M - w)^s phi(w) dw + int_0^inf [(w + M)^s phi(w) + w^s phi(w + M)] dw,

    which puts the normal peak and both kinks at endpoints, however far M is."""
    if s == 0.0:
        return 1.0
    m = abs(m)

    def near(w):
        return np.exp(_log_abs_pow(m - w, s) + _log_npdf(w, 1.0))

    def tail(w):
        return near(-w) + np.exp(_log_abs_pow(w, s) + _log_npdf(w + m, 1.0))

    mom = integrate(tail, Domain.half_line()).value
    if m > 0.0:
        mom += integrate(near, Domain.finite(0.0, m)).value
    return mom


def _log_even_abs_moment(k, m):
    """log E(W + m)^(2k) = log sum_j C(2k, 2j) m^(2k-2j) (2j-1)!!, exact at
    every integer k >= 0, summed in log space."""
    terms = [
        math.lgamma(2 * k + 1) - math.lgamma(2 * k - 2 * j + 1) - j * math.log(2.0)
        - math.lgamma(j + 1) + (2 * k - 2 * j) * math.log(abs(m))
        for j in range(k + 1) if m != 0.0 or j == k
    ]
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def _awgn_vs_exact_even(d, k):
    # V_2k from the kernel sums, K_s = 2^(-(1+s)/2) E|W + m|^s phi((x1-x2)/sqrt(2))
    # with m = (x1+x2)/sqrt(2), in log space with the largest term factored out
    xs, ps = d.atoms_and_probs()

    def log_k(x1, x2):
        return (-(k + 0.5) * math.log(2.0) + _log_even_abs_moment(k, (x1 + x2) / math.sqrt(2.0))
                + _log_npdf((x1 - x2) / math.sqrt(2.0), 1.0))

    own = [math.log(p) + log_k(x, x) for x, p in zip(xs, ps)]
    cross = [math.log(p1 * p2) + log_k(x1, x2) for x1, p1 in zip(xs, ps) for x2, p2 in zip(xs, ps)]
    top = max(own + cross)
    return math.exp(top) * (sum(math.exp(t - top) for t in own)
                            - sum(math.exp(t - top) for t in cross))


def _mi_per_atom(ch, given):
    # I(W; Y) atom by atom, sum_i p_i int f(y|w_i) log(f(y|w_i)/f(y)) dy, with
    # one quadrature per atom (mi_oracle folds the sum into one integrand)
    model = variance_model(ch, given)
    total = 0.0
    for i, p in enumerate(model.probs):
        def integrand(y, i=i):
            lcs = model.log_cond(y)
            lc, lm = lcs[i], model.marginal_of(lcs)
            return np.where(lc > -745.0, np.exp(lc) * (lc - lm), 0.0)

        total += p * integrate(integrand, Domain.full_line()).value
    return total


class TestKernel:
    def test_diagonal_s0(self):
        assert kernel_Ks(1.0, 1.0, 0.0) == pytest.approx(INV_2SQRTPI, rel=1e-10)

    def test_offdiagonal_s0(self):
        expect = 2.0**-0.5 * _phi(2.0 / math.sqrt(2.0))
        assert kernel_Ks(2.0, 0.0, 0.0) == pytest.approx(expect, rel=1e-10)

    def test_s0_equals_product_density_integral(self):
        # K_0(x1, x2) = int f(y|x1) f(y|x2) dy, checked by quadrature
        x1, x2 = 0.7, -0.4
        direct = integrate(
            lambda y: np.exp(-0.5 * ((y - x1) ** 2 + (y - x2) ** 2)) / (2 * math.pi),
            Domain.full_line(),
        ).value
        assert kernel_Ks(x1, x2, 0.0) == pytest.approx(direct, rel=1e-9)

    def test_s2_shifted_second_moment(self):
        # E|W + m|^2 = 1 + m^2 makes K_2 elementary.
        x1, x2 = 1.2, 0.4
        m = (x1 + x2) / math.sqrt(2.0)
        expect = 2.0 ** (-1.5) * (1.0 + m * m) * _phi((x1 - x2) / math.sqrt(2.0))
        assert kernel_Ks(x1, x2, 2.0) == pytest.approx(expect, rel=1e-9)

    def test_gram_matrix_positive_semidefinite(self):
        xs = [-1.0, 0.0, 1.0]
        gram = np.array([[kernel_Ks(a, b, 0.0) for b in xs] for a in xs])
        assert np.linalg.eigvalsh(gram).min() >= -1e-12

    def test_far_peak_found_or_refused(self):
        # E|W + m|^2 = 1 + m^2; at m = 113 the answer is this or a refusal,
        # never a silent underflow or a bare ValueError
        m = 160.0 / math.sqrt(2.0)
        try:
            k = kernel_Ks(80.0, 80.0, 2.0)
        except RenyiBoundsError:
            return
        assert k == pytest.approx(2.0**-1.5 * (1.0 + m * m) * _phi(0.0), rel=1e-8)

    @pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("m", [0.0, 0.5, 3.0, 40.0, 141.0])
    def test_abs_moment_matches_hypergeometric_form(self, s, m):
        # E|W + m|^s, W ~ N(0, 1): the series against scipy's 1F1 and against
        # quadrature; the far shifts are where a quadrature around t = 0
        # missed the peak at m
        got = math.exp(mi_bounds._log_abs_moment(m, 1.0, s))
        assert got == pytest.approx(_abs_moment_exact(s, m), rel=1e-13)
        assert got == pytest.approx(_abs_moment_quadrature(s, m), rel=4e-10)

    def test_s0_moment_is_exactly_one(self):
        assert mi_bounds._log_abs_moment(7.0, 1.0, 0.0) == 0.0
        assert _abs_moment_quadrature(0.0, 7.0) == 1.0

    def test_symmetric_bit_for_bit(self):
        for x1, x2, s in ((0.3, 2.5, 0.5), (1.0, 28.0, 2.0), (-1.2, 4.0, 3.0), (1.0, 2.5, 0.0)):
            assert kernel_Ks(x1, x2, s) == kernel_Ks(x2, x1, s)

    def test_negative_order_rejected(self):
        for s in (-1.0, math.nan):
            with pytest.raises(DomainError, match="nonnegative"):
                kernel_Ks(0.0, 1.0, s)

    def test_overflowing_kernel_refused(self):
        # K_400(0, 0) = G(200.5)/(2 pi) is about e^858
        with pytest.raises(DomainError):
            kernel_Ks(0.0, 0.0, 400.0)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0, 7.5, 60.0])
    def test_scale_mixture_constant_is_the_kernel_at_the_origin(self, s):
        # the constant of the scale-mixture V_s, K_s(0, 0) = G((1+s)/2)/(2 pi)
        expect = math.gamma(0.5 * (1.0 + s)) / (2.0 * math.pi)
        assert kernel_Ks(0.0, 0.0, s) == pytest.approx(expect, rel=1e-14)


class TestVs:
    def test_point_input_is_zero(self):
        ch = AwgnChannel(PointMass(2.0))
        for s in (0.0, 2.0):
            assert V_s(ch, s, "X").value == 0.0

    def test_constant_mixing_given_u_is_zero(self):
        ch = ScaleMixtureChannel(PointMass(2.0))
        for s in (0.0, 1.0, 2.0):
            assert V_s(ch, s, "U").value == 0.0

    def test_constant_mixing_given_x_matches_awgn_closed_form(self):
        # two code paths: the scale-mixture pair expectation vs the
        # Gaussian identity E exp(-(X1-X2)^2/4) = (1+c)^(-1/2), X ~ N(0,c)
        for c in (0.5, 1.0, 4.0):
            ch = ScaleMixtureChannel(PointMass(c))
            closed = V_s(ch, 0.0, "X")
            expect = INV_2SQRTPI * (1.0 - (1.0 + c) ** -0.5)
            assert closed.method == "closed_form"
            assert closed.value == pytest.approx(expect, abs=1e-9)

    def test_reference_value_v2(self):
        ch = ScaleMixtureChannel(PointMass(1.0))
        assert V_s(ch, 2.0, "X").value == pytest.approx(V2_POINT_U1, rel=1e-12)

    def test_kernel_decomposition_exact_sums(self):
        # direct integral of |y|^s var(f(y|X)) vs E[K_s(X,X) - K_s(X1,X2)]
        ch = AwgnChannel(TwoPoint(0.3, 2.5))
        for s in (0.0, 2.0):
            kernel_route = V_s(ch, s, "X").value
            direct = _V_s_quadrature(ch, s, "X")
            assert kernel_route == pytest.approx(direct, rel=1e-6)

    @pytest.mark.parametrize("a", [28.0, 50.0, 100.0])
    def test_far_atom_matches_s2_closed_form(self, a):
        # from a = 28 on, a kernel quadrature around t = 0 missed the peak at m
        d = TwoPoint(0.3, a)
        got = V_s(AwgnChannel(d), 2.0, "X").value
        assert got == pytest.approx(_awgn_vs_exact_even(d, 1), rel=1e-9)

    def test_one_kernel_per_unordered_atom_pair(self, monkeypatch):
        sizes = []

        def counting(*args):
            out = log_kernel(*args)
            sizes.append(np.size(out))
            return out

        log_kernel = mi_bounds._log_kernel
        monkeypatch.setattr(mi_bounds, "_log_kernel", counting)
        for s in (0.0, 0.5, 2.0):
            sizes.clear()
            V_s(AwgnChannel(TwoPoint(0.3, 2.5)), s, "X")
            assert sum(sizes) == 3

    @pytest.mark.parametrize("d", [TwoPoint(0.3, 2.5), TwoPoint(0.1, 20.0), TwoPoint(0.5, 1.5)])
    def test_kernel_sum_in_pairwise_order(self, d):
        # V_s = p . diag(K) - p' K p with K the matrix of kernel_Ks over atom pairs
        xs, ps = d.atoms_and_probs()
        for s in (0.0, 0.5, 2.0, 3.0):
            k = np.array([[kernel_Ks(x1, x2, s) for x2 in xs] for x1 in xs])
            assert V_s(AwgnChannel(d), s, "X").value == pytest.approx(
                ps @ np.diag(k) - ps @ k @ ps, rel=1e-14
            )

    @pytest.mark.parametrize("a,s", [(100.0, 150.0), (2.5, 280.0)])
    def test_far_atoms_at_large_orders(self, a, s):
        # E|W + m|^s alone overflows (141^150) or defeats quadrature before the
        # Gaussian factor of K_s brings it back: these were refused
        d = TwoPoint(0.3, a)
        assert V_s(AwgnChannel(d), s, "X").value == pytest.approx(
            _awgn_vs_exact_even(d, int(s) // 2), rel=1e-10
        )

    def test_prop9_at_far_atoms_and_large_order(self):
        # atoms 99 noise sds apart: I(X; Y) = H_b(0.3) up to e^-1000
        h_b = -0.3 * math.log(0.3) - 0.7 * math.log(0.7)
        bound = prop9_bound(AwgnChannel(TwoPoint(0.3, 100.0)), 0.5, 150.0, "X")
        assert math.isfinite(bound) and bound >= h_b

    @pytest.mark.parametrize("d", [TwoPoint(0.3, 2.5), TwoPoint(0.1, 20.0), TwoPoint(0.5, 1.5)])
    def test_v0_from_kernels_matches_pairwise_closed_form(self, d):
        xs, ps = d.atoms_and_probs()
        e = float(ps @ (np.exp(-0.25 * (xs[:, None] - xs[None, :]) ** 2) @ ps))
        got = V_s(AwgnChannel(d), 0.0, "X")
        assert got.method == "closed_form"
        assert got.value == pytest.approx(INV_2SQRTPI * (1.0 - e), rel=1e-14)

    def test_kernel_decomposition_monte_carlo(self):
        ch = AwgnChannel(TwoPoint(0.3, 2.5))
        direct = _V_s_quadrature(ch, 0.0, "X")

        def g(x1, x2):
            return INV_2SQRTPI * (1.0 - np.exp(-0.25 * (x1 - x2) ** 2))

        d = TwoPoint(0.3, 2.5)
        res = mc_expect(g, d.sample, 2)
        assert abs(direct - res.value) <= 4.0 * res.standard_error

    def test_scaling_law(self):
        ch = ScaleMixtureChannel(TwoPoint(0.4, 3.0))
        for s in (0.0, 2.0):
            base = _V_s_quadrature(ch, s, "U")
            for a in (0.5, 2.0, 3.0):
                scaled = _V_s_quadrature(ch, s, "U", scale=a)
                assert scaled == pytest.approx(a ** (s - 1.0) * base, rel=1e-8)

    def test_monte_carlo_mixing(self):
        # every lognormal mixing law of the benchmark's ranges, against a
        # deterministic double sum: within 4 reported standard errors
        worst = 0.0
        for given, mu, s2, s in itertools.product("UX", (-0.5, 0.5), (0.2, 1.0), (0.0, 1.0, 2.5)):
            res = V_s(ScaleMixtureChannel(Lognormal(mu, s2)), s, given)
            assert res.method == "monte_carlo" and res.standard_error > 0.0
            want = _vs_lognormal_mixing(mu, s2, s, given)
            worst = max(worst, abs(res.value - want) / res.standard_error)
        assert worst <= 4.0

    @pytest.mark.parametrize("given", ["U", "X"])
    def test_monte_carlo_terms_beyond_the_float_range_refused(self, given):
        # (1 + U1)^100 (1 + U2)^100 overflows on the first block
        with pytest.raises(DomainError, match="at s = 200 leave the float range"):
            V_s(ScaleMixtureChannel(Lognormal(0.0, 1.0)), 200.0, given)

    @pytest.mark.parametrize("given", ["U", "X"])
    def test_monte_carlo_memory_peak(self, given):
        # 9.16 MiB when both arrays of 200,000 draws and the temporaries of g
        # over them were alive at once; blocks of X_2 keep it near 3.8 MiB
        ch = ScaleMixtureChannel(Lognormal(0.0, 1.0))
        V_s(ch, 1.0, given)  # imports and caches before tracing
        tracemalloc.start()
        try:
            V_s(ch, 1.0, given)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("mixing", [Lognormal(0.0, 1.0), TwoPoint(0.3, 2.0)],
                             ids=["monte-carlo", "atomic"])
    @pytest.mark.parametrize("stream", ["abc", -1, 1.5, None, True])
    def test_stream_not_a_nonnegative_int_refused(self, mixing, stream):
        # refused on entry, also where the exact atomic sum draws nothing
        with pytest.raises(DomainError, match="stream must be a nonnegative int"):
            V_s(ScaleMixtureChannel(mixing), 1.0, "U", stream=stream)

    def test_given_u_upper_bound_residuals(self):
        for eps, a in ((0.5, 3.0), (0.1, 11.0)):
            ch = ScaleMixtureChannel(TwoPoint(eps, a))
            for s in (0.0, 2.0):
                assert vs_upper_bound_check(ch, s) >= -1e-12

    def test_given_u_upper_bound_degenerate(self):
        ch = ScaleMixtureChannel(PointMass(1.5))
        assert vs_upper_bound_check(ch, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_upper_bound_check_refuses_an_awgn_channel(self):
        with pytest.raises(UnsupportedOperation):
            vs_upper_bound_check(AwgnChannel(TwoPoint(0.3, 2.5)), 0.0)

    @pytest.mark.parametrize("q", [250.0, 300.0, 400.0])
    @pytest.mark.parametrize("ch,given", [
        (ScaleMixtureChannel(TwoPoint(0.01, 11.0)), "U"),
        (ScaleMixtureChannel(PointMass(9.0)), "X"),
        (AwgnChannel(TwoPoint(0.3, 2.5)), "X"),
    ], ids=["two-point-mixture", "awgn-gaussian", "awgn-two-point"])
    def test_large_orders_finite_or_refused(self, ch, given, q):
        # at these orders the scale-mixture terms overflow; they gave inf, a silent 0
        # or an OverflowError
        for f in (lambda: V_s(ch, q, given).value, lambda: prop9_bound(ch, 0.0, q, given)):
            try:
                v = f()
            except RenyiBoundsError:
                continue
            assert math.isfinite(v) and v > 0.0

    def test_overflowing_terms_refused(self):
        ch = ScaleMixtureChannel(TwoPoint(0.33, 1e300))
        with pytest.raises(DomainError):
            V_s(ch, 4.9, "U")
        mc = ScaleMixtureChannel(Lognormal(0.0, 1.0))
        with pytest.raises(DomainError, match="terms of V_s"):  # the Monte Carlo mean
            V_s(mc, 250.0, "U")
        with pytest.raises(DomainError, match="K_s"):  # the constant K_s(0, 0) = G((1+s)/2)/(2 pi)
            V_s(mc, 1000.0, "U")

    def test_unsupported_combinations(self):
        with pytest.raises(UnsupportedOperation):
            V_s(AwgnChannel(PointMass(1.0)), 0.0, "U")
        with pytest.raises(UnsupportedOperation):
            V_s(AwgnChannel(Lognormal(0.0, 1.0)), 2.0, "X")
        with pytest.raises(UnsupportedOperation, match="atomic input"):
            V_s(AwgnChannel(Lognormal(0.0, 1.0)), 0.0, "X")
        for s in (-0.5, math.nan):
            with pytest.raises(DomainError, match="nonnegative"):
                V_s(AwgnChannel(PointMass(1.0)), s, "X")


@given(
    st.floats(min_value=0.001, max_value=0.999),
    st.floats(min_value=0.01, max_value=200.0),
    st.floats(min_value=0.0, max_value=4.0),
)
@settings(max_examples=300)
def test_vs_nonnegative_property(eps, a, s):
    """V_s(Y|U) >= 0 for random two-point mixing laws (exact sums)."""
    ch = ScaleMixtureChannel(TwoPoint(eps, a))
    assert V_s(ch, s, "U").value >= 0.0


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
    assert vs_upper_bound_check(ch, s) >= -1e-12


def _vs_g(s, given):
    """The Monte Carlo integrand of V_s over a continuous mixing law, as the
    V_s docstring states it: first(U1) - cross(U1, U2)."""

    def g(u1, u2):
        first = (1.0 + u1) ** (0.5 * (s - 1.0)) if given == "U" else (1.0 + 2.0 * u1) ** (0.5 * s)
        num = (1.0 + u1) ** (0.5 * s) * (1.0 + u2) ** (0.5 * s)
        return first - num / (1.0 + 0.5 * (u1 + u2)) ** (0.5 * (s + 1.0))

    return g


def _whole_batch(g, sample, stream):
    """mc_expect as it was before blocks: both arrays drawn whole, g once over
    them, the mean and std(ddof=1) / sqrt(n) of all values."""
    n, rng = quadrature._MC_SAMPLES, rng_for(stream)
    x1, x2 = sample(rng, n), sample(rng, n)
    vals = np.asarray(g(x1, x2), dtype=float)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


class TestMonteCarloBlocks:
    """Blocks of X_2 change no bit of mc_expect or of V_s."""

    @pytest.mark.parametrize("stream", [0, 1, 2])
    @pytest.mark.parametrize("d", [Lognormal(0.0, 1.0), TwoPoint(0.3, 2.5), GaussianMagnitude(3),
                                   PointMass(2.0)], ids=repr)
    def test_mc_expect_pairs_equal_the_whole_batch(self, d, stream):
        g = _vs_g(1.5, "X")
        assert mc_expect(g, d.sample, 2, stream=stream) == _whole_batch(g, d.sample, stream)

    @pytest.mark.parametrize("stream", [0, 1, 2])
    @pytest.mark.parametrize("given", ["U", "X"])
    @pytest.mark.parametrize("mixing", [Lognormal(0.0, 1.0), Lognormal(0.5, 0.2),
                                        GaussianMagnitude(1)], ids=repr)
    def test_v_s_equals_the_whole_batch(self, mixing, given, stream):
        for s in (0.0, 2.5):
            coef = kernel_Ks(0.0, 0.0, s)
            value, se = _whole_batch(_vs_g(s, given), mixing.sample, stream)
            got = V_s(ScaleMixtureChannel(mixing), s, given, stream=stream)
            assert (got.value, got.standard_error) == (coef * value, coef * se)


class TestChiSquare:
    def test_degenerate_is_zero(self):
        assert chi2_mi_bound(AwgnChannel(PointMass(2.0)), "X") == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_input_identity(self):
        # bivariate-normal identity: chi^2 = rho^2/(1 - rho^2) = sigma^2
        for s2 in (0.5, 1.0, 4.0):
            ch = ScaleMixtureChannel(PointMass(s2))
            assert chi2_divergence(ch, "X") == pytest.approx(s2, rel=1e-8)

    @pytest.mark.parametrize("ch,given", [
        (ScaleMixtureChannel(TwoPoint(0.1, 2.0)), "U"),
        (ScaleMixtureChannel(TwoPoint(0.3, 4.0)), "X"),
        (AwgnChannel(TwoPoint(0.3, 2.5)), "X"),
    ])
    def test_chi2_is_prop7_at_t1_bitwise(self, ch, given):
        assert chi2_divergence(ch, given) == prop7_bound(ch, 1.0, given)

    def test_prop7_at_t1_equals_chi2_integral(self):
        ch = ScaleMixtureChannel(TwoPoint(0.1, 2.0))
        assert prop7_bound(ch, 1.0, "U") == pytest.approx(
            chi2_divergence(ch, "U"), rel=1e-9
        )

    def test_generic_input(self):
        # the continuous-input route, a Gaussian mixture over the density's
        # quadrature rule: chi^2 of AWGN with X ~ N(0, 1) is
        # rho^2 / (1 - rho^2) = 1
        gauss = GenericPdf(
            lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), Domain.full_line()
        )
        assert chi2_divergence(AwgnChannel(gauss), "X") == pytest.approx(1.0, rel=1e-9)

    def test_fig3_channel_chi2_bounded_below(self):
        vals = []
        for eps in (0.01, 0.001):
            ch = ScaleMixtureChannel(TwoPoint(eps, 1.0 + 1.0 / math.sqrt(eps)))
            vals.append(chi2_mi_bound(ch, "U"))
        assert min(vals) > 0.1  # stays away from zero as eps -> 0


class TestProp7:
    def test_degenerate(self):
        ch = AwgnChannel(PointMass(1.0))
        for t in (0.3, 0.5, 1.0):
            assert prop7_bound(ch, t, "X") == pytest.approx(0.0, abs=1e-12)

    def test_half_t_is_kappa_times_sqrt_var_integral(self):
        ch = ScaleMixtureChannel(TwoPoint(0.2, 3.0))
        model = variance_model(ch, "U")

        def sqrt_var(y):
            return np.exp(0.5 * model.log_var(y))

        direct = kappa(0.5) * integrate(sqrt_var, Domain.full_line()).value
        assert prop7_bound(ch, 0.5, "U") == pytest.approx(direct, rel=1e-9)

    def test_t_validation(self):
        ch = AwgnChannel(PointMass(1.0))
        for t in (0.0, 1.2):
            with pytest.raises(DomainError):
                prop7_bound(ch, t, "X")


class TestProp8:
    def test_degenerate(self):
        assert prop8_bound(AwgnChannel(PointMass(1.0)), 0.5, "X") == 0.0

    @pytest.mark.parametrize("sigma2", [1e-8, 1e-10])
    def test_monte_carlo_v0_within_noise_of_zero_refused(self, sigma2):
        # V_0 came out within 4 standard errors of 0, was clipped to 0, and the
        # bound reported 0 on a positive I(U; Y)
        ch = ScaleMixtureChannel(Lognormal(0.0, sigma2))
        with pytest.raises(RenyiBoundsError, match="standard error"):
            V_s(ch, 0.0, "U")
        with pytest.raises(RenyiBoundsError):
            prop8_bound(ch, 0.5, "U")

    @pytest.mark.parametrize("given", ["U", "X"])
    def test_continuous_mixing_refused_before_monte_carlo(self, given, monkeypatch):
        # h_r(Y) needs an atomic mixing law; a Monte Carlo V_0 of 200,000
        # draws used to run first and be thrown away
        def no_draws(*args, **kwargs):
            raise AssertionError("Monte Carlo ran before the refusal")

        monkeypatch.setattr(mi_bounds, "mc_expect", no_draws)
        with pytest.raises(UnsupportedOperation):
            prop8_bound(ScaleMixtureChannel(Lognormal(0.0, 1.0)), 0.5, given)

    def test_far_point_mass_input_is_zero(self):
        # V_0 = 0 returns before h_r, whose quadrature misses the far peak
        assert prop8_bound(AwgnChannel(PointMass(200.0)), 0.5, "X") == 0.0

    def test_dominates_gaussian_capacity(self):
        ch = ScaleMixtureChannel(PointMass(1.0))
        assert prop8_bound(ch, 0.5, "X") >= 0.5 * math.log(2.0)

    def test_composite_criterion_scale_invariant(self):
        # e^{h_r(aY)} V_0(aY|X) is invariant in a: h_r shifts by log a
        # while V_0 scales by 1/a.
        ch = ScaleMixtureChannel(TwoPoint(0.3, 2.0))
        r = 0.5
        hr = marginal_renyi_entropy(ch, r)
        v0 = _V_s_quadrature(ch, 0.0, "X")
        base = math.exp(hr) * v0
        for a in (0.5, 2.0, 3.0):
            scaled = math.exp(hr + math.log(a)) * _V_s_quadrature(ch, 0.0, "X", scale=a)
            assert scaled == pytest.approx(base, rel=1e-9)


class TestProp9:
    def test_degenerate(self):
        assert prop9_bound(AwgnChannel(PointMass(1.0)), 0.0, 2.0, "X") == 0.0

    def test_constant_matches_reflection_form(self):
        # C(lam) = kappa(1/2) sqrt(pi lam^-lam (1-lam)^-(1-lam) / sin(pi lam))
        ch = ScaleMixtureChannel(TwoPoint(0.2, 3.0))
        for p, q in ((0.0, 2.0), (0.5, 3.0), (0.2, 1.5)):
            lam = (q - 1.0) / (q - p)
            c = kappa(0.5) * math.sqrt(
                math.pi * lam**-lam * (1.0 - lam) ** (lam - 1.0) / math.sin(math.pi * lam)
            )
            vp = V_s(ch, p, "U").value
            vq = V_s(ch, q, "U").value
            expected = c * math.sqrt(2.0 * vp**lam * vq ** (1.0 - lam) / (q - p))
            assert prop9_bound(ch, p, q, "U") == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ch,given", [
        (ScaleMixtureChannel(PointMass(1.0)), "X"),
        (ScaleMixtureChannel(TwoPoint(0.1, 1.0 + 0.1**-0.5)), "U"),
    ], ids=["awgn-gaussian", "two-point-mixture"])
    @pytest.mark.parametrize("p,q", [(0.0, 2.0), (0.5, 3.0)])
    def test_is_the_two_moment_inequality_at_half(self, ch, given, p, q):
        # Prop 9 is kappa(1/2) (int sqrt(var))  with the two-moment bound on
        # ||var||_{1/2} = (int sqrt(var))^2 over S = R
        vp = V_s(ch, p, given, stream=1).value
        vq = V_s(ch, q, given, stream=2).value
        tm = two_moment_bound(vp, vq, TwoMomentParams(0.5, p, q), Support.real_line())
        assert prop9_bound(ch, p, q, given) == pytest.approx(
            kappa(0.5) * math.sqrt(tm), rel=1e-14
        )

    def test_validation(self):
        ch = ScaleMixtureChannel(PointMass(1.0))
        with pytest.raises(InvalidMomentOrder):
            prop9_bound(ch, 0.0, 0.9, "X")
        with pytest.raises(InvalidMomentOrder):
            prop9_bound(ch, -0.5, 2.0, "X")
        # q one ulp above 1: lam = (q-1)/(q-p) rounds to 0
        with pytest.raises(InvalidMomentOrder, match="lam = 0.0"):
            prop9_bound(ch, 0.0, 1.0000000000000002)

    def test_orders_refused_before_any_v_s(self, monkeypatch):
        # lambda_of refuses the orders before the two Monte Carlo V_s are drawn
        def fail(*args, **kwargs):
            raise AssertionError("V_s ran before the orders were checked")

        monkeypatch.setattr(mi_bounds, "V_s", fail)
        ch = ScaleMixtureChannel(Lognormal(0.0, 1.0))
        for p, q in ((0.0, 1.0000000000000002), (0.0, 0.9), (-0.5, 2.0), (math.nan, 2.0)):
            with pytest.raises(InvalidMomentOrder):
                prop9_bound(ch, p, q, "U")


class TestOracle:
    def test_degenerate(self):
        assert mi_oracle(AwgnChannel(PointMass(1.0)), "X") == pytest.approx(0.0, abs=1e-12)

    def test_input_without_a_variance_model_refused(self):
        with pytest.raises(UnsupportedOperation):
            mi_oracle(AwgnChannel(Lognormal()))

    def test_coinciding_atoms_give_exact_zero(self):
        # both atoms of TwoPoint(eps, 1) sit at 1: the input is constant and
        # every quantity is exactly 0, not a rounding residue of either sign
        ch = AwgnChannel(TwoPoint(0.1, 1.0))
        assert mi_oracle(ch, "X") == 0.0
        assert chi2_mi_bound(ch, "X") == 0.0
        assert prop8_bound(ch, 0.5, "X") == 0.0
        assert prop9_bound(ch, 0.0, 2.0, "X") == 0.0

    @pytest.mark.parametrize("mixing", [PointMass(2.0), TwoPoint(0.1, 1.0)])
    def test_one_atom_mixing_given_u_is_exact_zero(self, mixing):
        # a constant U leaves f(y|U) fixed: V_s(Y|U) and every bound built
        # on it are exactly 0, not an ulp residue raised to a power
        ch = ScaleMixtureChannel(mixing)
        for s in (0.0, 0.5, 2.0):
            assert V_s(ch, s, "U").value == 0.0
        assert mi_oracle(ch, "U") == 0.0
        assert chi2_mi_bound(ch, "U") == 0.0
        assert prop8_bound(ch, 0.5, "U") == 0.0
        assert prop9_bound(ch, 0.0, 2.0, "U") == 0.0

    def test_gaussian_capacity(self):
        for s2 in (0.5, 1.0, 4.0):
            ch = ScaleMixtureChannel(PointMass(s2))
            assert mi_oracle(ch, "X") == pytest.approx(
                0.5 * math.log1p(s2), abs=1e-6
            )

    @pytest.mark.parametrize("c", [3e-15, 1e-15, 1e-16])
    def test_tiny_gaussian_input_is_not_negative(self, c):
        # h(Y) - h(W) came out at about -4e-15 against an exact (1/2) log1p(c) > 0,
        # within the quadrature's error estimate on h(Y)
        val = mi_oracle(ScaleMixtureChannel(PointMass(c)), "X")
        assert val >= 0.0 and val == pytest.approx(0.5 * math.log1p(c), abs=1e-9)

    def test_negative_beyond_the_error_estimate_refused(self, monkeypatch):
        # an h(Y) 1e-3 below h(W) with an error estimate of 1e-10 is a fault, not rounding
        h_w = 0.5 * (math.log(2.0 * math.pi) + 1.0)
        monkeypatch.setattr(mi_bounds, "integrate",
                            lambda *a, **k: quadrature.QuadratureResult(h_w - 1e-3, 1e-10))
        with pytest.raises(RenyiBoundsError, match="mi_oracle"):
            mi_oracle(ScaleMixtureChannel(PointMass(1.0)), "X")

    def test_all_bounds_dominate_oracle(self):
        ch = ScaleMixtureChannel(TwoPoint(0.1, 1.0 + 1.0 / math.sqrt(0.1)))
        val = mi_oracle(ch, "U")
        bounds = [prop7_bound(ch, t, "U") for t in (0.3, 0.5, 0.8, 1.0)]
        bounds += [prop8_bound(ch, r, "U") for r in (0.3, 0.5, 0.8)]
        bounds.append(prop9_bound(ch, 0.0, 2.0, "U"))
        bounds.append(chi2_mi_bound(ch, "U"))
        assert val <= min(bounds) + 1e-9

    def test_data_processing(self):
        ch = ScaleMixtureChannel(TwoPoint(0.4, 3.0))
        assert mi_oracle(ch, "U") <= mi_oracle(ch, "X") + 1e-8

    def test_fig3_grid_matches_per_atom_route(self):
        for eps in DEFAULT_EPS_GRID:
            ch = _two_point_mixture(eps)
            assert mi_oracle(ch, "U") == pytest.approx(_mi_per_atom(ch, "U"), rel=1e-9)

    @pytest.mark.parametrize("eps,a", itertools.product((0.05, 0.3, 0.5), (0.5, 3.0, 12.0, 20.0)))
    def test_awgn_two_point_matches_per_atom_route(self, eps, a):
        ch = AwgnChannel(TwoPoint(eps, a))
        assert mi_oracle(ch, "X") == pytest.approx(_mi_per_atom(ch, "X"), rel=1e-9)

    @pytest.mark.parametrize("ch,given", [
        (AwgnChannel(TwoPoint(0.3, 4.0)), "X"),
        (ScaleMixtureChannel(TwoPoint(0.1, 5.0)), "U"),
        (ScaleMixtureChannel(TwoPoint(0.1, 5.0)), "X"),
    ])
    def test_one_quadrature_per_call(self, ch, given, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(mi_bounds, "integrate", counted)
        mi_oracle(ch, given)
        assert len(calls) == 1

    def test_generic_input_matches_mixture_route(self):
        # AWGN with X ~ N(0,1) two ways: the mixture over a generic
        # density's quadrature rule vs the exact point-mass mixture marginal.
        gauss = GenericPdf(
            lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), Domain.full_line()
        )
        via_generic = mi_oracle(AwgnChannel(gauss), "X")
        via_mixture = mi_oracle(ScaleMixtureChannel(PointMass(1.0)), "X")
        assert via_generic == pytest.approx(via_mixture, rel=1e-9)

    def test_every_result_is_a_float(self):
        # mi_oracle, chi2_divergence and prop7_bound returned numpy.float64
        ch = AwgnChannel(TwoPoint(0.3, 2.5))
        values = [mi_oracle(ch, "X"), chi2_divergence(ch, "X"), chi2_mi_bound(ch, "X"),
                  prop7_bound(ch, 0.5, "X"), prop8_bound(ch, 0.5, "X"),
                  prop9_bound(ch, 0.0, 2.0, "X"), marginal_renyi_entropy(ch, 0.5)]
        assert [type(v) for v in values] == [float] * 7

    def test_fig3_rows_hold_floats(self):
        _, rows = fig3_rows([0.25])
        assert [type(v) for v in rows[0]] == [float] * 4


class TestMarginals:
    def test_normalization(self):
        channels = [
            (AwgnChannel(TwoPoint(0.25, 4.0)), "X"),
            (ScaleMixtureChannel(TwoPoint(0.01, 11.0)), "U"),
            (ScaleMixtureChannel(PointMass(2.0)), "X"),
        ]
        for ch, given in channels:
            model = variance_model(ch, given)
            mass = integrate(
                lambda y: np.exp(model.log_marginal(y)), Domain.full_line()
            ).value
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_far_output_entropy_found_or_refused(self):
        # Y ~ N(1e4, 1): h_r(Y) = h_r(N(0, 1)), or the call refuses
        r = 0.5
        try:
            h = marginal_renyi_entropy(AwgnChannel(PointMass(1e4)), r)
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


def _log_smooth_uniform(y, v, a=0.0, b=1.0):
    """log E_X N(y; X, v) for X ~ U(a, b):
    (Phi((y - a) / sqrt v) - Phi((y - b) / sqrt v)) / (b - a), taken on the
    side of the midpoint where it does not cancel."""
    z, s = min(y - a, b - y), math.sqrt(v)
    p, q = sp.log_ndtr(z / s), sp.log_ndtr((z - (b - a)) / s)
    return p + math.log1p(-math.exp(q - p)) - math.log(b - a)


def _log_npdf(y, var):
    return -0.5 * y * y / var - 0.5 * math.log(2.0 * math.pi * var)


def _normal_input(sd):
    return (
        lambda x: np.exp(-0.5 * x * x / sd**2) / (sd * math.sqrt(2.0 * math.pi)),
        Domain.full_line(),
        lambda y, v: _log_npdf(y, sd**2 + v),
        tuple(sd * c for c in _UNIT_CUTS),
    )


# The breakpoints of the scipy references; for unit-scale inputs the mass
# beyond |y| = 60 is below e^-800.
_UNIT_CUTS = (-60.0, -10.0, 0.0, 1.0, 10.0, 60.0)

# GenericPdf inputs with closed-form smoothings log E_X N(y; X, v):
# (pdf, domain, smoothing, breakpoints).  The half-normal one is a skew
# normal.  The wide inputs have mass integrals that converge on panels far
# wider than the noise.
_SMOOTHED_INPUTS = {
    "normal": _normal_input(1.0),
    "normal-sd3": _normal_input(3.0),
    "normal-sd30": _normal_input(30.0),
    "uniform": (lambda x: np.ones_like(x), Domain.finite(0.0, 1.0), _log_smooth_uniform,
                _UNIT_CUTS),
    "uniform-0-100": (
        lambda x: np.full_like(x, 0.01),
        Domain.finite(0.0, 100.0),
        lambda y, v: _log_smooth_uniform(y, v, 0.0, 100.0),
        (-60.0, -10.0, 0.0, 50.0, 100.0, 110.0, 160.0),
    ),
    "half-normal": (
        lambda x: 2.0 * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
        Domain.half_line(),
        lambda y, v: (math.log(2.0) + _log_npdf(y, 1.0 + v)
                      + sp.log_ndtr(y / math.sqrt(v * (1.0 + v)))),
        _UNIT_CUTS,
    ),
}


def _smoothing_oracle(log_smooth, cuts, quantity):
    """chi^2, h_{1/2}(Y), Prop 7 at t = 1/2 or I(X; Y) by scipy quadrature
    of the closed-form f(y) = E_X N(y; X, 1) and
    E[f(y|X)^2] = E_X N(y; X, 1/2) / (2 sqrt(pi)), over the given breakpoints."""

    def lf(y):
        return log_smooth(y, 1.0)

    def lvar(y):
        l2 = log_smooth(y, 0.5) - math.log(2.0 * math.sqrt(math.pi))
        return l2 + math.log1p(-math.exp(2.0 * lf(y) - l2))

    integrand = {
        "chi2": lambda y: math.exp(lvar(y) - lf(y)),
        "h_half": lambda y: math.exp(0.5 * lf(y)),
        "prop7_half": lambda y: math.exp(0.5 * lvar(y)),
        "mi": lambda y: -math.exp(lf(y)) * lf(y),
    }[quantity]
    total = sum(
        si.quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )
    return {
        "chi2": total,
        "h_half": 2.0 * math.log(total),
        "prop7_half": kappa(0.5) * total,
        "mi": total - 0.5 * (math.log(2.0 * math.pi) + 1.0),
    }[quantity]


class TestContinuousInput:
    """The AWGN model over a GenericPdf input, a Gaussian mixture over the
    density's own quadrature rule, against closed-form smoothings."""

    QUANTITIES = {
        "chi2": lambda ch: chi2_divergence(ch, "X"),
        "h_half": lambda ch: marginal_renyi_entropy(ch, 0.5),
        "prop7_half": lambda ch: prop7_bound(ch, 0.5, "X"),
        "mi": lambda ch: mi_oracle(ch, "X"),
    }

    @pytest.mark.parametrize("name,quantity", [
        case for case in itertools.product(sorted(_SMOOTHED_INPUTS), sorted(QUANTITIES))
        if case != ("normal-sd30", "chi2")  # test_chi2_of_wide_normal_input
    ])
    def test_matches_closed_form_smoothing(self, name, quantity):
        pdf, domain, log_smooth, cuts = _SMOOTHED_INPUTS[name]
        ch = AwgnChannel(GenericPdf(pdf, domain))
        expected = _smoothing_oracle(log_smooth, cuts, quantity)
        assert self.QUANTITIES[quantity](ch) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.xfail(strict=True, reason="the pdf underflows near |x| = 1150, where "
                       "the integrand E[f(y|X)^2] / f(y) is still 2/3 of its peak")
    def test_chi2_of_wide_normal_input(self):
        # rho^2 / (1 - rho^2) = sd^2 for X ~ N(0, sd^2)
        ch = AwgnChannel(GenericPdf(*_SMOOTHED_INPUTS["normal-sd30"][:2]))
        assert chi2_divergence(ch, "X") == pytest.approx(900.0, rel=1e-9)

    def test_rule_starts_from_cached_panels(self, monkeypatch):
        # the model runs no second mass integral: its rule starts from the
        # panels the GenericPdf cached at construction
        ch = AwgnChannel(GenericPdf(*_SMOOTHED_INPUTS["normal-sd30"][:2]))

        def refused(*args):
            raise AssertionError("the mass integral ran again")

        monkeypatch.setattr(quadrature, "_converged_panels", refused)
        model = variance_model(ch, "X")
        assert np.isfinite(model.log_marginal(np.array([0.0]))).all()

    def test_power_law_input_refused(self):
        # a Lomax(3) tail never underflows, so no rule resolves it at the
        # noise scale; the mixture over a coarser one would be a comb
        ch = AwgnChannel(GenericPdf(lambda x: 3.0 * (1.0 + x) ** -4.0, Domain.half_line()))
        with pytest.raises(MaxSubdivisionsExceeded):
            marginal_renyi_entropy(ch, 0.5)


class TestInvariants:
    """Invariances of the channel quantities that need no exact value."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: integrate misses a far peak")
    def test_output_entropy_is_location_invariant(self):
        # Y ~ N(c, 1): h_{1/2}(Y) does not depend on c
        h = [marginal_renyi_entropy(AwgnChannel(PointMass(c)), 0.5) for c in (1.0, 200.0)]
        assert h[1] == pytest.approx(h[0], abs=1e-9)

    def test_mi_does_not_fall_as_atoms_separate(self):
        mi = [mi_oracle(AwgnChannel(TwoPoint(0.3, a)), "X") for a in (20.0, 40.0)]
        assert mi[1] >= mi[0] - 1e-9

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: integrate misses a far peak")
    def test_chi2_bound_above_input_entropy_for_far_atoms(self):
        # atoms 99 noise sds apart: I(X; Y) = H(X) = H_b(0.3) up to e^-1000,
        # and log(1 + chi^2) bounds it from above
        h_b = -0.3 * math.log(0.3) - 0.7 * math.log(0.7)
        assert chi2_mi_bound(AwgnChannel(TwoPoint(0.3, 100.0)), "X") >= h_b - 1e-9


class TestVarianceModels:
    def test_continuous_mixing_pointwise_unsupported(self):
        ch = ScaleMixtureChannel(Lognormal(0.0, 1.0))
        with pytest.raises(UnsupportedOperation):
            variance_model(ch, "U")

    def test_given_validation(self):
        ch = AwgnChannel(PointMass(1.0))
        with pytest.raises(UnsupportedOperation):
            variance_model(ch, "U")
        with pytest.raises(DomainError):
            variance_model(ch, "Z")
