"""Mutual-information upper bounds from the variance of the conditional
density.

For a pair (X, Y) whose conditional law has density f(y|x), the bounds
are driven by

    var(f(y|X)) = E[(f(y|X) - f(y))^2],
    V_s(Y|X)    = int |y|^s var(f(y|X)) dy,

and the kernel K_s(x1, x2) = int |y|^s f(y|x1) f(y|x2) dy, through which
V_s(Y|X) = E[K_s(X, X) - K_s(X1, X2)] for independent copies X1, X2.

Two channel shapes are implemented, both with unit Gaussian noise W:

    AwgnChannel:          Y = X + W
    ScaleMixtureChannel:  X = A sqrt(U), A ~ N(0,1), U >= 0,  Y = X + W

Every pointwise model of f(y) and var(f(y|W)) is made of finite Gaussian
mixtures with explicit means and variances: over the atoms of an atomic
input or mixing law, and over the nodes and weights of the density's own
quadrature rule for a GenericPdf input, so no integrand runs a quadrature.
The rule's panels are no wider than _RULE_WIDTH wherever the density has
not underflowed, so the mixture is no comb on the noise scale; a power-law
tail, which no such rule covers, is refused.
V_s over an atomic W is an exact sum of closed-form kernels between the
mixtures' components -- no quadrature, no Monte Carlo noise in the
figure-3 sweep -- and Monte Carlo under a fixed seed over a continuous
mixing law; V_s of a non-atomic AWGN input is refused.  Each quantity
has one route; its oracles live in verify and the tests.  Densities enter
the integrands only through their logarithms, and np.where masks keep the
-inf log of a vanishing conditional variance out of every ratio, so the
heavy-tailed ratios in the chi-square and small-t bounds cannot produce
NaNs.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    GenericPdf,
    ScalarDistribution,
    _entropy_from_integral,
    _GaussianMixture,
    _log_npdf,
)
from .errors import DomainError, InvalidMomentOrder, RenyiBoundsError, UnsupportedOperation
from .moment_core import Support, TwoMomentParams, _check_r, _log_two_moment, _logsumexp, log_omega
from .quadrature import Domain, integrate, mc_expect
from .specfun import LOG_2PI, _choice, _float, kappa, ln_gamma

__all__ = [
    "AwgnChannel",
    "ScaleMixtureChannel",
    "VsValue",
    "kernel_Ks",
    "V_s",
    "chi2_divergence",
    "chi2_mi_bound",
    "prop7_bound",
    "prop8_bound",
    "prop9_bound",
    "mi_oracle",
    "vs_upper_bound_check",
    "variance_model",
    "marginal_renyi_entropy",
]

_FULL = Domain.full_line()
_EXP_CLIP = -745.0  # exp() underflows to 0 below this
_LOG_2SQRTPI = math.log(2.0) + 0.5 * math.log(math.pi)
_MAX_TERMS = 2**22  # of one E|N|^s series: z to ~4e6, AWGN atoms ~2,000 sds out
# The widest panel of a GenericPdf input's rule: 4 sds of the narrower
# smoothing kernel N(0, 1/2).  The K15 sums of a Gaussian over a panel this
# wide are exact to ~1e-14; they reach 1e-9 near 12 sds.
_RULE_WIDTH = 4.0 * math.sqrt(0.5)


@dataclass(frozen=True)
class AwgnChannel:
    """Y = X + W with W ~ N(0, 1) independent of the input X."""

    input: ScalarDistribution


@dataclass(frozen=True)
class ScaleMixtureChannel:
    """Y = X + W with X = A sqrt(U): a Gaussian scalar mixture input.

    U -> X -> Y is a Markov chain, so bounds can target either I(X; Y)
    (given="X") or I(U; Y) (given="U")."""

    mixing: ScalarDistribution


@dataclass(frozen=True)
class VsValue:
    """One V_s evaluation; standard_error only for Monte Carlo results."""

    s: float
    value: float
    method: str  # closed_form | monte_carlo
    standard_error: Optional[float] = None


# ---------------------------------------------------------------------------
# Conditional-variance models: log f(y), log var(f(y|W)) pointwise
# ---------------------------------------------------------------------------


class _AwgnOverContinuousInput:
    """f(y) and var(f(y|X)) for Y = X + W and X ~ sum_i p_i N(mean_i, var_i),
    from E_X N(y; X, v) = sum_i p_i N(y; mean_i, var_i + v) at two variances:

        f(y)          = E_X N(y; X, 1)
        E[f(y|X)^2]   = (2 sqrt(pi))^-1 E_X N(y; X, 1/2).
    """

    def __init__(self, probs, means, variances):
        self.mix = {v: _GaussianMixture(probs, means, variances + v) for v in (1.0, 0.5)}

    def log_marginal(self, y):
        return self.mix[1.0].log_marginal(y)

    def log_var(self, y):
        """log(E[f(y|X)^2] - f(y)^2); -inf where the difference cancels to
        within 1e-15 relative (2 log f <= log E[f^2] by Jensen) or E[f^2]
        underflows."""
        lm, lm2 = self.log_marginal(y), self.mix[0.5].log_marginal(y) - _LOG_2SQRTPI
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = 2.0 * lm - lm2
            out = lm2 + np.log1p(-np.exp(np.minimum(diff, 0.0)))
            return np.where(np.isfinite(lm2) & (diff < -1e-15), out, -np.inf)


def _given(ch, given: str) -> str:
    _choice(given, "given", ("X", "U"))
    if isinstance(ch, AwgnChannel) and given != "X":
        raise UnsupportedOperation("an AWGN channel has no mixing variable U")
    return given


def variance_model(ch, given: str = "X"):
    """Pointwise model of (log f(y), log var(f(y|W))) for W = X or U.

    No adaptive quadrature runs here: a GenericPdf input's rule starts
    from the panels its mass integral converged on."""
    given = _given(ch, given)
    if isinstance(ch, AwgnChannel):
        if ch.input.is_discrete:
            atoms, probs = ch.input.atoms_and_probs()
            return _GaussianMixture(probs, atoms, np.ones_like(atoms))
        if isinstance(ch.input, GenericPdf):
            # X ~ sum_k w_k delta(x_k), the rule on the density's own cached panels
            xs, ws = ch.input._panels.rule(_RULE_WIDTH)
            return _AwgnOverContinuousInput(ws, xs, np.zeros_like(xs))
        raise UnsupportedOperation(
            f"AWGN input family {type(ch.input).__name__} has no variance model"
        )
    if not ch.mixing.is_discrete:
        raise UnsupportedOperation(
            "pointwise variance needs an atomic mixing law; "
            "use V_s with Monte Carlo for continuous U"
        )
    us, probs = ch.mixing.atoms_and_probs()
    if given == "U":  # f(y|U) = N(y; 0, 1 + U)
        return _GaussianMixture(probs, np.zeros_like(us), 1.0 + us)
    # X | U ~ N(0, U), so E_X N(y; X, v) = E_U N(y; 0, U + v)
    return _AwgnOverContinuousInput(probs, np.zeros_like(us), us)


# ---------------------------------------------------------------------------
# Kernel and V_s
# ---------------------------------------------------------------------------


def _log_abs_moment(mean, var, s: float):
    """log E|N(mean, var)|^s, broadcasting; exactly 0 at s = 0.  With
    a = (1+s)/2, z = mean^2/(2 var) it is (2 var)^(s/2) G(a)/sqrt(pi) times
    e^-z 1F1(a; 1/2; z) = sum_k Pois(k; z) (a)_k/(1/2)_k, summed in log space
    over k in z +- 20 sqrt(z) (+ 60 + 2s) and divided by the Poisson mass
    there, so the rounding of the cumulative log ratios cancels."""
    if s == 0.0:
        return np.zeros(np.broadcast(mean, var).shape)
    a = 0.5 * (1.0 + s)
    with np.errstate(over="ignore", divide="ignore"):
        z = np.asarray(mean * mean / (2.0 * var), dtype=float)
        log_z, log_2var = np.log(z), np.log(2.0 * var)
    z_max = float(np.max(z))
    if not z_max + 20.0 * math.sqrt(z_max) + 60.0 + 2.0 * s <= _MAX_TERMS:
        raise DomainError(f"E|N(m, v)|^s needs over {_MAX_TERMS} series terms at s = {s:g}")
    width = 20.0 * np.sqrt(z)
    lo = np.floor(np.maximum(z - width, 0.0))
    n = int(np.max(z + width - lo)) + 60 + 2 * math.ceil(s)
    j = np.arange(int(np.max(lo)) + n - 1)  # log (a)_k / (1/2)_k, one row for all
    log_rising = np.concatenate(([0.0], np.cumsum(np.log((a + j) / (0.5 + j)))))
    k = lo + np.arange(n).reshape((n,) + (1,) * z.ndim)
    log_pois = np.concatenate((np.zeros((1,) + z.shape), np.cumsum(log_z - np.log(k[1:]), axis=0)))
    log_series = _logsumexp(log_pois + log_rising[k.astype(int)]) - _logsumexp(log_pois)
    return 0.5 * s * log_2var + ln_gamma(a) - 0.5 * math.log(math.pi) + log_series


def _log_kernel(m1, v1, m2, v2, s: float):
    """log int |y|^s N(y; m1, v1) N(y; m2, v2) dy = log N(m1 - m2; 0, v1 + v2)
    + log E|N(mu, v)|^s, v = 1/(1/v1 + 1/v2) (v1 v2/(v1 + v2) overflows),
    mu = v (m1/v1 + m2/v2); symmetric bit for bit."""
    v = 1.0 / (1.0 / v1 + 1.0 / v2)
    with np.errstate(over="ignore"):
        return _log_npdf(m1 - m2, v1 + v2) + _log_abs_moment(v * (m1 / v1 + m2 / v2), v, s)


def kernel_Ks(x1: float, x2: float, s: float) -> float:
    """Expected-likelihood-style kernel K_s(x1, x2) = int |y|^s f(y|x1) f(y|x2) dy
    for the AWGN channel, N(x1 - x2; 0, 2) E|N((x1 + x2)/2, 1/2)|^s with the
    absolute moment in confluent-hypergeometric closed form; symmetric bit
    for bit."""
    x1, x2 = _float(x1, "x1"), _float(x2, "x2")
    s = _float(s, "s", lambda v: v >= 0.0, "be nonnegative")
    try:
        return math.exp(_log_kernel(x1, 1.0, x2, 1.0, s))
    except OverflowError:
        raise DomainError(f"K_s leaves the float range at s = {s:g}") from None


def _vs_value(s, value, scale) -> VsValue:
    """Exact V_s from a difference of terms of size scale: refused out of
    float range, clipped to 0 when negative within rounding."""
    if not (math.isfinite(value) and math.isfinite(scale)):
        raise DomainError(f"the terms of V_s at s = {s:g} leave the float range")
    if value < 0.0:
        if -value > 1e-13 * max(scale, 1e-300):
            raise RenyiBoundsError(f"V_s produced a negative value {value!r} beyond rounding")
        value = 0.0
    return VsValue(s, value, "closed_form")


def _vs_atomic(model, s) -> VsValue:
    """E K_s(W, W) - E K_s(W1, W2) = p.S - p'Kp over the model's mixture
    sum_i p_i N(m_i, v_i), as p.(S - diag K) + p'Dp/2, D_ij = K_ii + K_jj - 2K_ij,
    so no rare atom's share is a difference of terms of size 1.  S = diag K
    for a _GaussianMixture, so one atom gives exactly 0.  K is symmetric, so
    one kernel is evaluated per unordered pair and mirrored."""
    mix = model.mix[1.0] if isinstance(model, _AwgnOverContinuousInput) else model
    m, v, p = mix.means, mix.vars, mix.probs
    i, j = np.triu_indices(len(p))
    log_k = np.empty((len(p), len(p)))
    log_k[i, j] = log_k[j, i] = _log_kernel(m[i], v[i], m[j], v[j], s)
    if mix is model:
        log_self = np.diag(log_k)
    else:  # E f(y|X)^2 = (2 sqrt(pi))^-1 E_X N(y; X, 1/2)
        log_self = _log_abs_moment(model.mix[0.5].means, model.mix[0.5].vars, s) - _LOG_2SQRTPI
    top = max(log_k.max(), log_self.max())
    with np.errstate(over="ignore", invalid="ignore"):  # top = inf is refused below
        k, own = np.exp(log_k - top), np.exp(log_self - top)
        d = np.diag(k)
        rel = p @ (own - d) + 0.5 * (p @ (d[:, None] + d[None, :] - 2.0 * k) @ p)
        value, scale = np.exp(top) * rel, np.exp(top) * (p @ own)
    return _vs_value(s, float(value), float(scale))


def _vs_monte_carlo(mixing, s, given, stream) -> VsValue:
    """V_s over a continuous mixing law: G((1+s)/2)/(2 pi) E[first(U1) -
    cross(U1, U2)] over i.i.d. pairs drawn from it.  An estimate that is not
    above 0 is refused: it says only that V_s is within noise of 0."""
    coef = kernel_Ks(0.0, 0.0, s)  # G((1+s)/2)/(2 pi)

    def g(uu):
        u1, u2 = uu
        first = ((1.0 + u1) ** (0.5 * (s - 1.0)) if given == "U"
                 else (1.0 + 2.0 * u1) ** (0.5 * s))
        num = (1.0 + u1) ** (0.5 * s) * (1.0 + u2) ** (0.5 * s)
        return first - num / (1.0 + 0.5 * (u1 + u2)) ** (0.5 * (s + 1.0))

    def pairs(rng, n):
        return mixing.sample(rng, n), mixing.sample(rng, n)

    with np.errstate(over="ignore", invalid="ignore"):
        res = mc_expect(g, pairs, stream=stream)
    value, se = coef * res.value, coef * res.standard_error
    if not (math.isfinite(value) and math.isfinite(se)):
        raise DomainError(f"the terms of V_s at s = {s:g} leave the float range")
    if not value > 0.0:
        raise RenyiBoundsError(
            f"Monte Carlo V_s at s = {s:g} is {value!r} with standard error {se!r}, not above 0"
        )
    return VsValue(s, value, "monte_carlo", se)


def V_s(ch, s: float, given: str = "X", *, stream: int = 0) -> VsValue:
    """The s-th moment of the variance of the conditional density.

    Over an atomic W it is E K_s(W, W) - E K_s(W1, W2), an exact sum over
    the Gaussian mixtures of variance_model with every kernel in closed
    form.  A continuous mixing law uses Monte Carlo (with standard error,
    on substream `stream` of the fixed seed) of

      given X: G((1+s)/2)/(2 pi) E[(1+2U)^(s/2) - cross(U1, U2)]
      given U: G((1+s)/2)/(2 pi) E[(1+U)^((s-1)/2) - cross(U1, U2)]
      cross   = (1+U1)^(s/2) (1+U2)^(s/2) / (1 + (U1+U2)/2)^((s+1)/2).

    A non-atomic AWGN input raises UnsupportedOperation.  Terms that leave
    the float range (large s) raise DomainError."""
    s = _float(s, "s", lambda v: v >= 0.0, "be nonnegative")
    given = _given(ch, given)
    if isinstance(ch, ScaleMixtureChannel) and not ch.mixing.is_discrete:
        return _vs_monte_carlo(ch.mixing, s, given, stream)
    if isinstance(ch, AwgnChannel) and not ch.input.is_discrete:
        raise UnsupportedOperation("AWGN V_s needs an atomic input law")
    return _vs_atomic(variance_model(ch, given), s)


# ---------------------------------------------------------------------------
# Bounds and the oracle
# ---------------------------------------------------------------------------


def _prop7_integral(ch, t, given) -> float:
    """int f(y)^(1-2t) var(f(y|W))^t dy, in log space: f(y)^(1-2t) alone
    overflows in the tails for t > 1/2 while var^t vanishes faster."""
    model = variance_model(ch, given)

    def integrand(y):
        lv = model.log_var(y)
        with np.errstate(invalid="ignore"):
            z = np.where(
                lv == -np.inf, -np.inf, (1.0 - 2.0 * t) * model.log_marginal(y) + t * lv
            )
        return np.exp(z)

    return integrate(integrand, _FULL).value


def chi2_divergence(ch, given: str = "X") -> float:
    """chi^2(P_{W,Y}, P_W x P_Y) = int var(f(y|W)) / f(y) dy: the integral
    of Prop 7 at t = 1, where kappa(1) = 1."""
    return _prop7_integral(ch, 1.0, given)


def chi2_mi_bound(ch, given: str = "X") -> float:
    """I(W; Y) <= log(1 + chi^2): the baseline every other bound competes with."""
    return math.log1p(chi2_divergence(ch, given))


def prop7_bound(ch, t: float, given: str = "X") -> float:
    """kappa(t) int f(y)^(1-2t) var(f(y|W))^t dy for t in (0, 1].

    t = 1 is the chi-square divergence (kappa(1) = 1); t = 1/2 is the
    integral of sqrt(var) that feeds the two-moment MI bound.
    """
    t = _float(t, "t", lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
    return kappa(t) * _prop7_integral(ch, t, given)


def marginal_renyi_entropy(ch, r: float) -> float:
    """h_r(Y) of the channel output, by quadrature of f(y)^r."""
    r = _check_r(r)
    model = variance_model(ch, "X")

    def integrand(y):
        return np.exp(r * model.log_marginal(y))

    return _entropy_from_integral(integrate(integrand, _FULL).value, r)


def prop8_bound(ch, r: float, given: str = "X") -> float:
    """kappa(t) (e^{h_r(Y)} V_0(Y|W))^t with t = (1-r)/(2-r), r in (0, 1).

    h_r(Y) needs an atomic mixing law (see variance_model), so a continuous
    one is refused before V_0 is drawn by Monte Carlo."""
    r = _check_r(r)
    if isinstance(ch, ScaleMixtureChannel) and not ch.mixing.is_discrete:
        raise UnsupportedOperation("h_r(Y) in prop8_bound needs an atomic mixing law")
    t = (1.0 - r) / (2.0 - r)
    v0 = V_s(ch, 0.0, given).value
    if v0 == 0.0:
        return 0.0
    hr = marginal_renyi_entropy(ch, r)
    return kappa(t) * math.exp(t * (hr + math.log(v0)))


def prop9_bound(ch, p: float, q: float, given: str = "X") -> float:
    """Two-moment MI bound: Prop 7 at t = 1/2 with the two-moment
    inequality of moment_core at r = 1/2 applied to var(f(y|W)),

        I(W; Y) <= kappa(1/2) (int sqrt(var(f(y|W))) dy)
                <= kappa(1/2) sqrt(two_moment_bound(V_p, V_q, (1/2, p, q), R))
                 = C(lam) sqrt(omega(R) V_p^lam V_q^(1-lam) / (q - p)),

    for the scalar output Y (n = 1, so omega(S_Y) = omega(R) = 2),
    lam = (q-1)/(q-p), built from two V_s evaluations, with
    C(lam) = kappa(1/2) sqrt((q - p) psi_{1/2}(p, q)).  Requires
    0 <= p < 1 < q (the V_s orders must be nonnegative).
    """
    params = TwoMomentParams(0.5, p, q)
    if params.p < 0.0:
        raise InvalidMomentOrder("p must be nonnegative (V_s orders are)")
    vp = V_s(ch, params.p, given, stream=1).value
    vq = V_s(ch, params.q, given, stream=2).value
    if vp == 0.0 or vq == 0.0:
        return 0.0
    inner = _log_two_moment(log_omega(Support.real_line()), params, math.log(vp), math.log(vq))
    return kappa(0.5) * math.exp(0.5 * inner)


def mi_oracle(ch, given: str = "X") -> float:
    """I(W; Y) computed from the definition, by one quadrature over y.

    Over an atomic conditioning law the integrand is the exact sum over
    the atoms, sum_w p_w f(y|w) log(f(y|w)/f(y)) = f(y) KL(P(W|y) || P(W)),
    which is nonnegative pointwise.  Continuous X reduces to h(Y) - h(W),
    valid because the noise is additive: h(Y|X) = h(W) = (1/2) log(2 pi e).
    """
    model = variance_model(ch, given)
    if isinstance(model, _GaussianMixture):
        def integrand(y):
            lcs = model.log_cond(y)
            lm = model.marginal_of(lcs)
            return model.probs @ np.where(lcs > _EXP_CLIP, np.exp(lcs) * (lcs - lm), 0.0)

        return integrate(integrand, _FULL).value

    def integrand(y):
        lm = model.log_marginal(y)
        with np.errstate(invalid="ignore"):
            return np.where(lm > _EXP_CLIP, -np.exp(lm) * lm, 0.0)

    h_y = integrate(integrand, _FULL).value
    return h_y - 0.5 * (LOG_2PI + 1.0)


def vs_upper_bound_check(ch, s: float) -> float:
    """Residual of V_s(Y|U) <= G((1+s)/2)/(2 pi) P(U1 != U2) E(1+U)^((s-1)/2),
    both sides as exact sums over an atomic mixing law.

    The product-form bound holds when the weight profile and
    (1+u)^((s-1)/2) are similarly ordered across the atoms (in
    particular: heavy atom rare and s <= 1, the regime of the vanishing-
    mixture experiments); the residual can be negative outside it, so it
    is returned rather than asserted.
    """
    if not isinstance(ch, ScaleMixtureChannel) or not ch.mixing.is_discrete:
        raise UnsupportedOperation("the V_s upper bound check needs atomic mixing")
    # V_s first: it refuses the orders s at which these terms leave the float range
    vs = V_s(ch, s, "U")
    us, probs = ch.mixing.atoms_and_probs()
    p_neq = 1.0 - float(probs @ probs)
    bound = kernel_Ks(0.0, 0.0, vs.s) * p_neq * float(probs @ (1.0 + us) ** (0.5 * (vs.s - 1.0)))
    return bound - vs.value
