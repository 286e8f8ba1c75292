"""Reference values for the benchmark's output checks, computed apart from
the program under test.

Nothing here imports renyi_bounds.  Every reference comes from
scipy.special, scipy.integrate.quad, scipy.optimize, numpy's
Gauss-Hermite rules or a textbook closed form, so a fault in the
program's quadrature, optimiser or special functions cannot hide in its
own check.  This module imports scipy, so the benchmark imports it only
after the timed part of a run and after peak memory has been read.
"""

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize, special

LOG_2PI = math.log(2.0 * math.pi)

# The gap optimiser's accuracy target (ROADMAP: the 1e-4 optimizer target).
OPT_TOL = 1e-4

warnings.simplefilter("ignore", integrate.IntegrationWarning)


def _quad(f, lo, hi, points=None):
    kw = {"limit": 500, "epsabs": 1e-14, "epsrel": 1e-11}
    if points is not None:
        pts = sorted({float(p) for p in points if lo < p < hi})
        if pts:
            kw["points"] = pts
    return integrate.quad(f, lo, hi, **kw)[0]


# ---------------------------------------------------------------------------
# Special functions and constants of the two-moment inequality
# ---------------------------------------------------------------------------


def theta(x):
    """Binet remainder log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2."""
    return float(special.gammaln(x)) - (x - 0.5) * math.log(x) + x - 0.5 * LOG_2PI


def log_beta_tilde(a, b):
    s = a + b
    return float(special.betaln(a, b)) + s * math.log(s) - a * math.log(a) - b * math.log(b)


def lam_of(r, p, q):
    return (q + 1.0 - 1.0 / r) / (q - p)


def log_psi(r, p, q):
    lam = lam_of(r, p, q)
    a = r * lam / (1.0 - r)
    b = r * (1.0 - lam) / (1.0 - r)
    return log_beta_tilde(a, b) - math.log(q - p)


@lru_cache(maxsize=None)
def kappa(t):
    """sup_{u > 0} log(1 + u) / u^t by bounded scalar search in v = log u."""
    if t == 1.0:
        return 1.0

    def neg(v):
        return -(math.log(math.log1p(math.exp(v))) - t * v)

    res = optimize.minimize_scalar(
        neg, bounds=(-20.0, 3.0 / t + 20.0), method="bounded", options={"xatol": 1e-10}
    )
    return math.exp(-res.fun)


def lognormal_gap(r):
    """Optimal two-moment gap of any lognormal law."""
    a = 0.5 * r / (1.0 - r)
    return 2.0 * theta(a) - theta(2.0 * a) + 0.5 * (1.0 + math.log(r) / (1.0 - r))


def two_moment_bound(log_omega, r, p, q, lp, lq):
    """log omega + log psi_r(p, q) + L_r from the log-moments at n p and n q."""
    lam = lam_of(r, p, q)
    c = r / (1.0 - r)
    return log_omega + log_psi(r, p, q) + c * lam * lp + c * (1.0 - lam) * lq


# ---------------------------------------------------------------------------
# Closed-form families of the entropy-bound command
# ---------------------------------------------------------------------------


def lognormal_entropy_bound(mu, sigma2, r, p, q):
    """(bound, entropy) for exp(N(mu, sigma2)) on the positive half line."""

    def lm(s):
        return mu * s + 0.5 * sigma2 * s * s

    bound = two_moment_bound(0.0, r, p, q, lm(p), lm(q))
    h = mu + 0.5 * ((1.0 - r) / r) * sigma2 + 0.5 * (
        LOG_2PI + math.log(r) / (r - 1.0) + math.log(sigma2)
    )
    return bound, h


def gaussian_entropy_bound(n, r, p, q):
    """(bound, entropy) for Y ~ N(0, I_n), through the chi law of ||Y||."""

    def lm(s):
        return (
            0.5 * s * math.log(2.0)
            + float(special.gammaln(0.5 * (n + s)))
            - float(special.gammaln(0.5 * n))
        )

    log_omega = 0.5 * n * math.log(math.pi) - float(special.gammaln(0.5 * n + 1.0))
    bound = two_moment_bound(log_omega, r, p, q, lm(n * p), lm(n * q))
    h = 0.5 * n * (LOG_2PI + math.log(r) / (r - 1.0))
    return bound, h


# ---------------------------------------------------------------------------
# Densities of the generic-gaps workload
# ---------------------------------------------------------------------------


class Density:
    """A density on (0, hi) with its pdf and the log of its s-th moment.

    log_moment integrates by scipy quadrature; exact_log_moment is the
    closed form, used by the p = 0 reference search and by the tests that
    validate the quadrature.
    """

    def __init__(self, name, pdf, hi, exact_log_moment, moment_limit=math.inf):
        self.name = name
        self.pdf = pdf
        self.hi = hi
        self.exact_log_moment = exact_log_moment
        self.moment_limit = moment_limit  # E X^s is finite iff -1 < s < moment_limit

    def _integral(self, g):
        if math.isinf(self.hi):
            return _quad(g, 0.0, 1.0) + _quad(g, 1.0, math.inf)
        return _quad(g, 0.0, self.hi)

    def log_moment(self, s):
        return math.log(self._integral(lambda x: x**s * self.pdf(x)))

    def renyi_entropy(self, r):
        return math.log(self._integral(lambda x: self.pdf(x) ** r)) / (1.0 - r)


def half_normal():
    c = math.sqrt(2.0 / math.pi)
    return Density(
        "half-normal",
        lambda x: c * math.exp(-0.5 * x * x),
        math.inf,
        lambda s: 0.5 * s * math.log(2.0) + float(special.gammaln(0.5 * (s + 1.0))) - 0.5 * math.log(math.pi),
    )


def weibull(k):
    return Density(
        f"weibull(k={k:.6g})",
        lambda x: k * x ** (k - 1.0) * math.exp(-(x**k)),
        math.inf,
        lambda s: float(special.gammaln(1.0 + s / k)),
    )


def lomax(alpha):
    return Density(
        f"lomax(alpha={alpha:.6g})",
        lambda x: alpha * (1.0 + x) ** (-(alpha + 1.0)),
        math.inf,
        lambda s: float(special.gammaln(s + 1.0) + special.gammaln(alpha - s) - special.gammaln(alpha)),
        moment_limit=alpha,
    )


def beta22():
    return Density(
        "beta(2,2)",
        lambda x: 6.0 * x * (1.0 - x),
        1.0,
        lambda s: math.log(6.0 / ((s + 2.0) * (s + 3.0))),
    )


def generic_gap_at(dens, r, p, q, h=None):
    """Gap of the two-moment bound at (p, q) on the positive half line,
    with moments and h_r by scipy quadrature."""
    if h is None:
        h = dens.renyi_entropy(r)
    return two_moment_bound(0.0, r, p, q, dens.log_moment(p), dens.log_moment(q)) - h


def generic_p0_gap(dens, r):
    """Best gap over q with p = 0: a grid over log(q - m) and a bounded
    search in the best bracket, on closed-form moments."""
    m = (1.0 - r) / r
    h = dens.renyi_entropy(r)
    hi = 8.0
    if math.isfinite(dens.moment_limit):
        hi = min(hi, math.log(dens.moment_limit - m) - 1e-9)

    def gap(w):
        q = m + math.exp(w)
        return two_moment_bound(0.0, r, 0.0, q, 0.0, dens.exact_log_moment(q)) - h

    ws = np.linspace(-10.0, hi, 73)
    gs = [gap(w) for w in ws]
    i = int(np.argmin(gs))
    lo_w, hi_w = ws[max(i - 1, 0)], ws[min(i + 1, len(ws) - 1)]
    res = optimize.minimize_scalar(gap, bounds=(lo_w, hi_w), method="bounded", options={"xatol": 1e-9})
    return min(float(res.fun), gs[i])


# ---------------------------------------------------------------------------
# Channels whose conditional laws are finite Gaussian mixtures
# ---------------------------------------------------------------------------


class GaussianMixtureChannel:
    """Conditioning variable W with atoms w_i (probabilities p_i) and
    Y | W = w_i ~ N(m_i, v_i).

    AwgnChannel(TwoPoint(eps, a)) given X has m = (1, a), v = (1, 1); the
    scale mixture given U has m = (0, 0), v = (2, 1 + a).
    """

    def __init__(self, probs, means, variances):
        self.p = np.asarray(probs, dtype=float)
        self.m = np.asarray(means, dtype=float)
        self.v = np.asarray(variances, dtype=float)
        self.sd = np.sqrt(self.v)
        self.logp = np.log(self.p)
        self.breaks = sorted({0.0, *self.m, *(self.m - 3 * self.sd), *(self.m + 3 * self.sd)})

    def _range(self, widen=1.0):
        lo = float(np.min(self.m - 40.0 * widen * self.sd))
        hi = float(np.max(self.m + 40.0 * widen * self.sd))
        return lo, hi

    def _logs(self, y):
        lc = -0.5 * (y - self.m) ** 2 / self.v - 0.5 * (LOG_2PI + np.log(self.v))
        x = lc + self.logp
        top = float(x.max())
        return lc, top + math.log(float(np.exp(x - top).sum()))

    def _var_over_f(self, y):
        # var(f(y|W)) / f(y) = f(y) sum_i p_i (f(y|w_i) / f(y) - 1)^2
        lc, lf = self._logs(y)
        return math.exp(lf) * float(self.p @ np.expm1(lc - lf) ** 2)

    def _var(self, y):
        lc, lf = self._logs(y)
        return math.exp(2.0 * lf) * float(self.p @ np.expm1(lc - lf) ** 2)

    def mi(self):
        """I(W; Y) = sum_i p_i int f(y|w_i) log(f(y|w_i) / f(y)) dy."""
        total = 0.0
        for i in range(len(self.p)):
            def g(y, i=i):
                lc, lf = self._logs(y)
                return math.exp(lc[i]) * (lc[i] - lf)

            lo = self.m[i] - 40.0 * self.sd[i]
            hi = self.m[i] + 40.0 * self.sd[i]
            total += float(self.p[i]) * _quad(g, lo, hi, self.breaks)
        return total

    def chi2(self):
        lo, hi = self._range()
        return _quad(self._var_over_f, lo, hi, self.breaks)

    def V(self, s):
        lo, hi = self._range()
        return _quad(lambda y: abs(y) ** s * self._var(y), lo, hi, self.breaks)

    def renyi_entropy_y(self, r):
        lo, hi = self._range(1.0 / math.sqrt(r))
        val = _quad(lambda y: math.exp(r * self._logs(y)[1]), lo, hi, self.breaks)
        return math.log(val) / (1.0 - r)

    def chi2_bound(self):
        return math.log1p(self.chi2())

    def prop8(self, r):
        t = (1.0 - r) / (2.0 - r)
        return kappa(t) * math.exp(t * (self.renyi_entropy_y(r) + math.log(self.V(0.0))))

    def prop9(self, p, q):
        return prop9_from(self.V(p), self.V(q), p, q)


def prop9_from(vp, vq, p, q):
    """kappa(1/2) sqrt(omega(R) psi_{1/2}(p, q) V_p^lam V_q^(1-lam)), lam = (q-1)/(q-p)."""
    lam = (q - 1.0) / (q - p)
    inner = math.log(2.0) + log_psi(0.5, p, q) + lam * math.log(vp) + (1.0 - lam) * math.log(vq)
    return kappa(0.5) * math.exp(0.5 * inner)


def awgn_two_point(eps, a):
    return GaussianMixtureChannel([1.0 - eps, eps], [1.0, a], [1.0, 1.0])


def scale_mixture_given_u(eps, a):
    return GaussianMixtureChannel([1.0 - eps, eps], [0.0, 0.0], [2.0, 1.0 + a])


# ---------------------------------------------------------------------------
# Scale mixture with lognormal U (the Monte Carlo route of the program)
# ---------------------------------------------------------------------------


class LognormalScaleMixture:
    """Y | U ~ N(0, 1 + U) with U = exp(N(mu, sigma2)); expectations over U
    by a 120-node Gauss-Hermite rule, integrals over y by scipy quadrature."""

    def __init__(self, mu, sigma2, nodes=120):
        z, w = np.polynomial.hermite_e.hermegauss(nodes)
        self.u = np.exp(mu + math.sqrt(sigma2) * z)
        self.w = w / w.sum()
        self.var_y = 1.0 + self.u

    def _cond(self, y):
        return np.exp(-0.5 * y * y / self.var_y) / np.sqrt(2.0 * math.pi * self.var_y)

    def _half_line(self, g):
        return 2.0 * (_quad(g, 0.0, 1.0) + _quad(g, 1.0, 50.0) + _quad(g, 50.0, math.inf))

    def V(self, s):
        """V_s(Y|U) = int |y|^s var_U(f(y|U)) dy."""

        def g(y):
            c = self._cond(y)
            f = float(self.w @ c)
            return y**s * float(self.w @ (c - f) ** 2)

        return self._half_line(g)

    def mi_given_u(self):
        def g(y):
            f = float(self.w @ self._cond(y))
            return -f * math.log(f) if f > 0.0 else 0.0

        h_y = self._half_line(g)
        h_y_given_u = float(self.w @ (0.5 * (LOG_2PI + 1.0 + np.log(self.var_y))))
        return h_y - h_y_given_u
