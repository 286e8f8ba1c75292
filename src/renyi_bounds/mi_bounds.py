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

For the scale mixture everything reduces to expectations over U (or
pairs U1, U2), evaluated as exact finite sums for atomic mixing laws --
the figure-3 sweep is therefore free of Monte Carlo noise -- and by
seeded Monte Carlo otherwise.  The AWGN channel uses the kernel sums at
every s over atomic inputs, and the same Monte Carlo route at s = 0
otherwise.  Each quantity has one route; the independent oracles, such
as the direct integral of |y|^s var(f(y|W)), live in verify and the
tests.  Densities enter the quadrature integrands only through their
logarithms, and np.where masks keep the -inf log of a vanishing
conditional variance out of every ratio, so the heavy-tailed ratios in
the chi-square and small-t bounds cannot produce NaNs.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import GenericPdf, ScalarDistribution, iid_pair_sampler
from .errors import DomainError, InvalidMomentOrder, RenyiBoundsError, UnsupportedOperation
from .moment_core import Support, TwoMomentParams, log_omega, log_psi_r
from .quadrature import Domain, NumericsConfig, integrate, mc_expect
from .specfun import LOG_2PI, kappa, ln_gamma

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


def _log_npdf(y, var):
    return -0.5 * y * y / var - 0.5 * (LOG_2PI + np.log(var))


@dataclass(frozen=True)
class AwgnChannel:
    """Y = X + W with W ~ N(0, 1) independent of the input X."""

    input: ScalarDistribution
    kind = "awgn"


@dataclass(frozen=True)
class ScaleMixtureChannel:
    """Y = X + W with X = A sqrt(U): a Gaussian scalar mixture input.

    U -> X -> Y is a Markov chain, so bounds can target either I(X; Y)
    (given="X") or I(U; Y) (given="U")."""

    mixing: ScalarDistribution
    kind = "scale_mixture"


@dataclass(frozen=True)
class VsValue:
    """One V_s evaluation; standard_error only for Monte Carlo results."""

    s: float
    value: float
    method: str  # closed_form | quadrature | monte_carlo
    standard_error: Optional[float] = None


# ---------------------------------------------------------------------------
# Conditional-variance models: log f(y), log var(f(y|W)) pointwise
# ---------------------------------------------------------------------------


class _AtomicConditionals:
    """Finite mixture of Gaussian conditionals N(mu_i, var_i) with weights."""

    def __init__(self, probs, means, variances):
        self.probs = np.asarray(probs, dtype=float)
        self.means = np.asarray(means, dtype=float)
        self.vars = np.asarray(variances, dtype=float)
        self.log_probs = np.log(self.probs)

    def log_cond(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return _log_npdf(y[None, :] - self.means[:, None], self.vars[:, None])

    def marginal_of(self, lc):
        """log f(y) from the conditionals lc = log_cond(y) at the same y."""
        lc = lc + self.log_probs[:, None]
        m = lc.max(axis=0)
        return m + np.log(np.exp(lc - m).sum(axis=0))

    def log_marginal(self, y):
        return self.marginal_of(self.log_cond(y))

    def log_var(self, y):
        # Scaled mixture variance: factor out the largest conditional so
        # the squared deviations never underflow prematurely.
        lc = self.log_cond(y)
        m = lc.max(axis=0)
        scaled = np.exp(lc - m)
        mean = self.probs @ scaled
        var = self.probs @ (scaled - mean) ** 2
        with np.errstate(divide="ignore"):
            return 2.0 * m + np.log(var)


class _ScaleMixtureGivenX:
    """var(f(y|X)) for X = A sqrt(U) with atomic U, from two centred
    Gaussian mixtures over the atoms of U:

        f(y)          = E_U N(y; 0, 1 + U)
        E[f(y|X)^2]   = (2 sqrt(pi))^-1 E_U N(y; 0, 1/2 + U).
    """

    def __init__(self, probs, us):
        self.marginal = _AtomicConditionals(probs, np.zeros_like(us), 1.0 + us)
        self.second = _AtomicConditionals(probs, np.zeros_like(us), 0.5 + us)

    def log_marginal(self, y):
        return self.marginal.log_marginal(y)

    def log_var(self, y):
        lm2 = self.second.log_marginal(y) - _LOG_2SQRTPI
        diff = 2.0 * self.log_marginal(y) - lm2  # <= 0 by Jensen
        with np.errstate(divide="ignore", invalid="ignore"):
            out = lm2 + np.log1p(-np.exp(np.minimum(diff, 0.0)))
        return np.where(diff >= -1e-15, -np.inf, out)


class _GenericAwgnConditionals:
    """Marginal and second moment of f(y|X) by inner quadrature, for a
    generic (non-atomic) input density.  Slow path: one adaptive inner
    integral per requested y, so an outer integrand call costs one inner
    quadrature per abscissa (240 for the outer seed grid, 120 per block of
    the tail pre-scan)."""

    def __init__(self, pdf_dist: GenericPdf, cfg: NumericsConfig):
        self.dist = pdf_dist
        self.cfg = cfg

    def _log_inner(self, y, power):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.empty_like(y)
        for i, yi in enumerate(y):
            def f(x):
                return np.exp(power * _log_npdf(yi - x, 1.0)) * self.dist.pdf(x)

            val = integrate(f, self.dist.domain, self.cfg).value
            out[i] = math.log(val) if val > 0.0 else -math.inf
        return out

    def log_marginal(self, y):
        return self._log_inner(y, 1.0)

    def log_var(self, y):
        lm2 = self._log_inner(y, 2.0)
        lm = self.log_marginal(y)
        out = np.full_like(lm2, -np.inf)
        with np.errstate(invalid="ignore"):
            diff = 2.0 * lm - lm2
            ok = np.isfinite(lm2) & (diff < -1e-13)
        out[ok] = lm2[ok] + np.log1p(-np.exp(diff[ok]))
        return out


def _given(ch, given: str) -> str:
    if given not in ("X", "U"):
        raise DomainError(f"given must be 'X' or 'U', got {given!r}")
    if ch.kind == "awgn" and given != "X":
        raise UnsupportedOperation("an AWGN channel has no mixing variable U")
    return given


def variance_model(ch, given: str = "X", cfg: NumericsConfig = NumericsConfig()):
    """Pointwise model of (log f(y), log var(f(y|W))) for W = X or U."""
    given = _given(ch, given)
    if ch.kind == "awgn":
        if ch.input.is_discrete:
            atoms, probs = ch.input.atoms_and_probs()
            return _AtomicConditionals(probs, atoms, np.ones_like(atoms))
        if isinstance(ch.input, GenericPdf):
            return _GenericAwgnConditionals(ch.input, cfg)
        raise UnsupportedOperation(
            f"AWGN input family {type(ch.input).__name__} has no variance model"
        )
    if not ch.mixing.is_discrete:
        raise UnsupportedOperation(
            "pointwise variance needs an atomic mixing law; "
            "use V_s with Monte Carlo for continuous U"
        )
    us, probs = ch.mixing.atoms_and_probs()
    model = _ScaleMixtureGivenX(probs, us)
    # f(y|U) = N(y; 0, 1 + U) is the mixture that gives f(y)
    return model.marginal if given == "U" else model


# ---------------------------------------------------------------------------
# Kernel and V_s
# ---------------------------------------------------------------------------


def _log_abs_pow(y, s: float):
    """s log|y|, the log of the weight |y|^s (-inf at y = 0 when s > 0)."""
    if s == 0.0:
        return 0.0
    with np.errstate(divide="ignore"):
        return np.where(y != 0.0, s * np.log(np.abs(y)), -np.inf)


def _abs_moment_shifted_normal(s: float, m: float, cfg: NumericsConfig) -> float:
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

    mom = integrate(tail, Domain.half_line(), cfg).value
    if m > 0.0:
        mom += integrate(near, Domain.finite(0.0, m), cfg).value
    return mom


def kernel_Ks(ch, x1: float, x2: float, s: float, cfg: NumericsConfig = NumericsConfig()) -> float:
    """Expected-likelihood-style kernel K_s(x1, x2) = int |y|^s f(y|x1) f(y|x2) dy
    for the AWGN channel, via the factorization

        K_s = 2^(-(1+s)/2) E|W + (x1+x2)/sqrt(2)|^s * phi((x1-x2)/sqrt(2)),

    the absolute moment by quadrature, not by a confluent-hypergeometric
    closed form.  K_s(x1, x2) and K_s(x2, x1) agree bit for bit.
    """
    if ch.kind != "awgn":
        raise UnsupportedOperation("K_s applies to the AWGN channel")
    if s < 0.0:
        raise DomainError(f"s must be nonnegative, got {s!r}")
    m = (x1 + x2) / math.sqrt(2.0)
    mom = _abs_moment_shifted_normal(s, m, cfg)
    if not mom > 0.0:  # the integrand is positive: a zero is a missed peak
        raise RenyiBoundsError(f"E|W + m|^s came out {mom:g} at m = {float(m):.6g}, s = {s:g}")
    log_phi = _log_npdf((x1 - x2) / math.sqrt(2.0), 1.0)
    return math.exp(-0.5 * (1.0 + s) * math.log(2.0) + math.log(mom) + log_phi)


def _vs_value(s, value, scale, method, se=None) -> VsValue:
    """V_s from a difference of terms of size scale: refused out of float
    range, clipped to 0 when negative within rounding (or 4 standard errors)."""
    if not all(math.isfinite(v) for v in (value, scale, se or 0.0)):
        raise DomainError(f"the terms of V_s at s = {s:g} leave the float range")
    if value < 0.0:
        tol = 4.0 * se if se else 1e-13 * max(scale, 1e-300)
        if -value > tol:
            raise RenyiBoundsError(f"V_s produced a negative value {value!r} beyond noise")
        value = 0.0
    return VsValue(s, value, method, se)


def _vs_monte_carlo(g, dist, coef, s, cfg, stream) -> VsValue:
    """coef E[g(S1, S2)] over i.i.d. pairs drawn from dist."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = mc_expect(g, iid_pair_sampler(dist), cfg, stream=stream)
    se = coef * res.standard_error
    return _vs_value(s, coef * res.value, coef, "monte_carlo", se)


def _vs_coef(s: float) -> float:
    """G((1+s)/2)/(2 pi), the constant of the scale-mixture V_s."""
    try:
        return math.exp(ln_gamma(0.5 * (1.0 + s))) / (2.0 * math.pi)
    except OverflowError:
        raise DomainError(f"G((1+s)/2) leaves the float range at s = {s:g}") from None


def _vs_scale_mixture(mixing, s, given, cfg, stream):
    coef = _vs_coef(s)

    def first(u):
        if given == "U":
            return (1.0 + u) ** (0.5 * (s - 1.0))
        return (1.0 + 2.0 * u) ** (0.5 * s)

    def cross(u1, u2):
        num = (1.0 + u1) ** (0.5 * s) * (1.0 + u2) ** (0.5 * s)
        return num / (1.0 + 0.5 * (u1 + u2)) ** (0.5 * (s + 1.0))

    if not mixing.is_discrete:
        return _vs_monte_carlo(
            lambda uu: first(uu[0]) - cross(uu[0], uu[1]), mixing, coef, s, cfg, stream
        )
    us, probs = mixing.atoms_and_probs()
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = float(probs @ first(us))
        t2 = float(probs @ (cross(us[:, None], us[None, :]) @ probs))
    value = coef * (t1 - t2)
    if given == "U" and us.size == 1:
        # f(y|U) is one fixed density: no variance.  first(u) and
        # cross(u, u) agree only to an ulp, and the residue, raised to
        # a power, would make prop8/prop9 nonzero.
        value = 0.0
    return _vs_value(s, value, coef * t1, "closed_form")


def _vs_awgn(ch, s, cfg, stream):
    if not ch.input.is_discrete:
        if s > 0.0:
            raise UnsupportedOperation("AWGN V_s with s > 0 needs an atomic input law")
        return _vs_monte_carlo(
            lambda xx: 1.0 - np.exp(-0.25 * (xx[0] - xx[1]) ** 2),
            ch.input, 1.0 / (2.0 * math.sqrt(math.pi)), s, cfg, stream,
        )
    xs, probs = ch.input.atoms_and_probs()
    idx = range(xs.size)
    k = {}
    for i in idx:  # K_s is symmetric: one kernel per unordered pair
        for j in idx[i:]:
            k[i, j] = k[j, i] = kernel_Ks(ch, xs[i], xs[j], s, cfg)
    k_diag = sum(probs[i] * k[i, i] for i in idx)
    k_cross = sum(probs[i] * probs[j] * k[i, j] for i in idx for j in idx)
    return _vs_value(s, k_diag - k_cross, k_diag, "quadrature" if s > 0.0 else "closed_form")


def V_s(
    ch, s: float, given: str = "X", cfg: NumericsConfig = NumericsConfig(), stream: int = 0
) -> VsValue:
    """The s-th moment of the variance of the conditional density.

    Scale mixtures use the explicit U-expectations

      given X: G((1+s)/2)/(2 pi) E[(1+2U)^(s/2) - cross(U1, U2)]
      given U: G((1+s)/2)/(2 pi) E[(1+U)^((s-1)/2) - cross(U1, U2)]
      cross   = (1+U1)^(s/2) (1+U2)^(s/2) / (1 + (U1+U2)/2)^((s+1)/2),

    exactly for atomic U and by seeded Monte Carlo (with standard error)
    otherwise.  The AWGN channel over an atomic input uses, for every
    s >= 0, the kernel sums E K_s(X, X) - E K_s(X1, X2), one kernel_Ks per
    unordered atom pair; over a non-atomic input only s = 0 is available,
    by seeded Monte Carlo of (2 sqrt(pi))^-1 [1 - E exp(-(X1-X2)^2 / 4)].
    Terms that leave the float range (large s) raise DomainError.
    """
    if s < 0.0:
        raise DomainError(f"s must be nonnegative, got {s!r}")
    given = _given(ch, given)
    if ch.kind == "scale_mixture":
        return _vs_scale_mixture(ch.mixing, s, given, cfg, stream)
    return _vs_awgn(ch, s, cfg, stream)


# ---------------------------------------------------------------------------
# Bounds and the oracle
# ---------------------------------------------------------------------------


def _prop7_integral(ch, t, given, cfg) -> float:
    """int f(y)^(1-2t) var(f(y|W))^t dy, in log space: f(y)^(1-2t) alone
    overflows in the tails for t > 1/2 while var^t vanishes faster."""
    model = variance_model(ch, given, cfg)

    def integrand(y):
        lv = model.log_var(y)
        with np.errstate(invalid="ignore"):
            z = np.where(
                lv == -np.inf, -np.inf, (1.0 - 2.0 * t) * model.log_marginal(y) + t * lv
            )
        return np.exp(z)

    return integrate(integrand, _FULL, cfg).value


def chi2_divergence(ch, given: str = "X", cfg: NumericsConfig = NumericsConfig()) -> float:
    """chi^2(P_{W,Y}, P_W x P_Y) = int var(f(y|W)) / f(y) dy: the integral
    of Prop 7 at t = 1, where kappa(1) = 1."""
    return _prop7_integral(ch, 1.0, given, cfg)


def chi2_mi_bound(ch, given: str = "X", cfg: NumericsConfig = NumericsConfig()) -> float:
    """I(W; Y) <= log(1 + chi^2): the baseline every other bound competes with."""
    return math.log1p(chi2_divergence(ch, given, cfg))


def prop7_bound(
    ch, t: float, given: str = "X", cfg: NumericsConfig = NumericsConfig()
) -> float:
    """kappa(t) int f(y)^(1-2t) var(f(y|W))^t dy for t in (0, 1].

    t = 1 is the chi-square divergence (kappa(1) = 1); t = 1/2 is the
    integral of sqrt(var) that feeds the two-moment MI bound.
    """
    if not 0.0 < t <= 1.0:
        raise DomainError(f"t must lie in (0, 1], got {t!r}")
    return kappa(t) * _prop7_integral(ch, t, given, cfg)


def marginal_renyi_entropy(ch, r: float, cfg: NumericsConfig = NumericsConfig()) -> float:
    """h_r(Y) of the channel output, by quadrature of f(y)^r."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    model = variance_model(ch, "X", cfg)

    def integrand(y):
        return np.exp(r * model.log_marginal(y))

    val = integrate(integrand, _FULL, cfg).value
    if not val > 0.0:
        raise RenyiBoundsError(
            "int f(y)^r dy came out 0: the quadrature missed the output density"
        )
    return math.log(val) / (1.0 - r)


def prop8_bound(
    ch, r: float, given: str = "X", cfg: NumericsConfig = NumericsConfig()
) -> float:
    """kappa(t) (e^{h_r(Y)} V_0(Y|W))^t with t = (1-r)/(2-r), r in (0, 1)."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    t = (1.0 - r) / (2.0 - r)
    v0 = V_s(ch, 0.0, given, cfg).value
    if v0 == 0.0:
        return 0.0
    hr = marginal_renyi_entropy(ch, r, cfg)
    return kappa(t) * math.exp(t * (hr + math.log(v0)))


def prop9_bound(
    ch, p: float, q: float, given: str = "X", cfg: NumericsConfig = NumericsConfig()
) -> float:
    """Two-moment MI bound

        I(W; Y) <= C(lam) sqrt(omega(R) V_p^lam V_q^(1-lam) / (q - p)),

    for the scalar output Y (n = 1, so omega(S_Y) = omega(R) = 2),
    lam = (q-1)/(q-p), built from two V_s evaluations.  The constant is
    C(lam) = kappa(1/2) sqrt((q - p) psi_{1/2}(p, q)): psi_r of the entropy
    bound at r = 1/2, where its lam is this one.  Requires 0 <= p < 1 < q
    (the V_s orders must be nonnegative).
    """
    if not p < 1.0 < q:
        raise InvalidMomentOrder(f"need p < 1 < q, got ({p!r}, {q!r})")
    if p < 0.0:
        raise InvalidMomentOrder("p must be nonnegative (V_s orders are)")
    vp = V_s(ch, p, given, cfg, stream=1).value
    vq = V_s(ch, q, given, cfg, stream=2).value
    if vp == 0.0 or vq == 0.0:
        return 0.0
    params = TwoMomentParams(0.5, p, q)
    inner = (
        log_omega(Support.real_line())
        + log_psi_r(params)
        + params.lam * math.log(vp)
        + (1.0 - params.lam) * math.log(vq)
    )
    return kappa(0.5) * math.exp(0.5 * inner)


def _mi_discrete(model, cfg):
    """Sum over conditioning atoms of int f(y|w) log(f(y|w)/f(y)) dy."""
    total = 0.0
    for i, w in enumerate(model.probs):
        def integrand(y, i=i):
            lcs = model.log_cond(y)
            lc, lm = lcs[i], model.marginal_of(lcs)
            return np.where(lc > _EXP_CLIP, np.exp(lc) * (lc - lm), 0.0)

        total += w * integrate(integrand, _FULL, cfg).value
    return total


def mi_oracle(ch, given: str = "X", cfg: NumericsConfig = NumericsConfig()) -> float:
    """I(W; Y) computed from the definition.

    Atomic conditioning variables use the exact outer sum with a y-
    quadrature per atom.  Continuous X reduces to h(Y) - h(W), valid
    because the noise is additive: h(Y|X) = h(W) = (1/2) log(2 pi e).
    """
    model = variance_model(ch, given, cfg)
    if isinstance(model, _AtomicConditionals):
        return _mi_discrete(model, cfg)

    def integrand(y):
        lm = model.log_marginal(y)
        with np.errstate(invalid="ignore"):
            return np.where(lm > _EXP_CLIP, -np.exp(lm) * lm, 0.0)

    h_y = integrate(integrand, _FULL, cfg).value
    return h_y - 0.5 * (LOG_2PI + 1.0)


def vs_upper_bound_check(ch, s: float, cfg: NumericsConfig = NumericsConfig()) -> float:
    """Residual of V_s(Y|U) <= G((1+s)/2)/(2 pi) P(U1 != U2) E(1+U)^((s-1)/2),
    both sides as exact sums over an atomic mixing law.

    The product-form bound holds when the weight profile and
    (1+u)^((s-1)/2) are similarly ordered across the atoms (in
    particular: heavy atom rare and s <= 1, the regime of the vanishing-
    mixture experiments); the residual can be negative outside it, so it
    is returned rather than asserted.
    """
    if ch.kind != "scale_mixture" or not ch.mixing.is_discrete:
        raise UnsupportedOperation("the V_s upper bound check needs atomic mixing")
    # V_s first: it refuses the orders s at which these terms leave the float range
    vs = V_s(ch, s, "U", cfg).value
    us, probs = ch.mixing.atoms_and_probs()
    p_neq = 1.0 - float(probs @ probs)
    bound = _vs_coef(s) * p_neq * float(probs @ (1.0 + us) ** (0.5 * (s - 1.0)))
    return bound - vs
