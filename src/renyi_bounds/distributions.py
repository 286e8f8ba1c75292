"""Distribution families with closed-form log-moments and Renyi entropies.

Each family descriptor is immutable and exposes the pieces the bound
machinery needs:

* log_moment(s)      log E|X|^s, with +inf (returned, never raised) outside
                     the finiteness region, and DomainError for an s that
                     is not finite or a value that leaves the float range;
* renyi_entropy(r)   closed form where one exists, a sum over the cached
                     panels of a generic density (as its log-moments are),
                     UnsupportedOperation for purely atomic laws;
* sample(rng, size)  for every family except generic densities.

GaussianMagnitude(n) describes an n-dimensional standard Gaussian vector
through the law of its Euclidean norm: the moments are those of ||Y||
while renyi_entropy reports the entropy of the vector itself, which is
all the n-dimensional bounds require.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DivergenceDetected,
    DomainError,
    MomentDiverges,
    RenyiBoundsError,
    UnsupportedOperation,
)
from .moment_core import Support, TwoMomentParams, _check_n, _check_r, _logsumexp, _moment_term
from .quadrature import Domain, _converged_panels, _DensityPanels
from .specfun import LOG_2PI, _float, _positive_finite, ln_gamma

__all__ = [
    "ScalarDistribution",
    "Lognormal",
    "GaussianMagnitude",
    "TwoPoint",
    "PointMass",
    "GenericPdf",
    "L_r",
]


class ScalarDistribution:
    """Common interface; families override what they support."""

    def log_moment(self, s: float) -> float:
        raise NotImplementedError

    def log_moments(self, orders) -> list:
        """[log_moment(s) for s in orders]; GenericPdf sums all orders over
        its cached nodes at once."""
        return [self.log_moment(s) for s in orders]

    def renyi_entropy(self, r: float) -> float:
        raise UnsupportedOperation(
            f"{type(self).__name__} has no density; Renyi entropy undefined"
        )

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        raise UnsupportedOperation(f"{type(self).__name__} is not samplable")

    def support(self) -> Support:
        return Support.positive_half_line()

    # Discrete families override these two.
    is_discrete = False

    def atoms_and_probs(self):
        raise UnsupportedOperation(f"{type(self).__name__} is not atomic")


def _order(s) -> float:
    """A moment order s as a finite float; DomainError otherwise."""
    if type(s) is float and -math.inf < s < math.inf:
        return s
    return _float(s, "a moment order", math.isfinite, "be finite")


def _log_npdf(y, var):
    """log N(y; 0, var), elementwise."""
    return -0.5 * y * y / var - 0.5 * (LOG_2PI + np.log(var))


class _GaussianMixture:
    """The finite mixture f = sum_i p_i N(mu_i, var_i), with its components
    kept apart: in the MI layer the conditional densities f(y|w_i) of an
    atomic W and the output density f(y) they make, in the
    multiplication bound the density of log XY."""

    def __init__(self, probs, means, variances):
        self.probs = np.asarray(probs, dtype=float)
        self.means = np.asarray(means, dtype=float)
        self.vars = np.asarray(variances, dtype=float)
        self.log_probs = np.log(self.probs)

    def log_cond(self, y):
        """log N(y; mu_i, var_i), one row per component."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return _log_npdf(y[None, :] - self.means[:, None], self.vars[:, None])

    def marginal_of(self, lc):
        """log f(y) from the components lc = log_cond(y) at the same y."""
        return _logsumexp(lc + self.log_probs[:, None])

    def log_marginal(self, y):
        return self.marginal_of(self.log_cond(y))

    def log_var(self, y):
        """log var(f(y|W)), with the largest component factored out so the
        squared deviations never underflow prematurely."""
        lc = self.log_cond(y)
        m = lc.max(axis=0)
        scaled = np.exp(lc - m)
        mean = self.probs @ scaled
        var = self.probs @ (scaled - mean) ** 2
        with np.errstate(divide="ignore"):
            return 2.0 * m + np.log(var)


def _entropy_from_integral(integral: float, r: float) -> float:
    """h_r = log(int f^r) / (1-r).  The integrand is positive, so a zero
    integral is a quadrature that missed the density, and is refused; so
    is an infinite one."""
    if integral == math.inf:
        raise DivergenceDetected(f"int f^{r!r} diverges")
    if not integral > 0.0:
        raise RenyiBoundsError(
            f"int f^r came out {integral!r}: the quadrature missed the density"
        )
    return math.log(integral) / (1.0 - r)


@dataclass(frozen=True)
class Lognormal(ScalarDistribution):
    """exp(N(mu, sigma2)): log E X^s = mu s + sigma2 s^2 / 2, all s real.

    h_r(X) = mu + (1/2)((1-r)/r) sigma2 + (1/2) log(2 pi r^(1/(r-1)) sigma2).
    """

    mu: float = 0.0
    sigma2: float = 1.0

    def __post_init__(self):
        # Python floats: an overflow below is an inf to refuse, not a numpy warning
        object.__setattr__(self, "mu", _float(self.mu, "mu", math.isfinite, "be finite"))
        object.__setattr__(self, "sigma2", _float(self.sigma2, "sigma2", _positive_finite,
                                                  "be positive and finite"))

    def log_moment(self, s: float) -> float:
        if type(s) is not float:
            s = _order(s)  # a float nan or inf makes the value below not finite
        value = self.mu * s + 0.5 * self.sigma2 * s * s
        if not math.isfinite(value):
            raise DomainError(f"log E X^{s!r} of {self} leaves the float range")
        return value

    def renyi_entropy(self, r: float) -> float:
        r = _check_r(r)
        h = (
            self.mu
            + 0.5 * ((1.0 - r) / r) * self.sigma2
            + 0.5 * (LOG_2PI + math.log(r) / (r - 1.0) + math.log(self.sigma2))
        )
        if not math.isfinite(h):
            raise DomainError(f"h_{r!r} of {self} leaves the float range")
        return h

    def shannon_entropy(self) -> float:
        """r -> 1 limit: mu + (1/2) log(2 pi e sigma2)."""
        return self.mu + 0.5 * (LOG_2PI + 1.0 + math.log(self.sigma2))

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        lx = np.log(np.asarray(x, dtype=float))
        return _log_npdf(lx - self.mu, self.sigma2) - lx

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.log_pdf(x))

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu, math.sqrt(self.sigma2), size)


@dataclass(frozen=True)
class GaussianMagnitude(ScalarDistribution):
    """Norm ||Y|| of Y ~ N(0, I_n), i.e. a chi law with n degrees of freedom.

    log E ||Y||^s = (s/2) log 2 + lnGamma((n+s)/2) - lnGamma(n/2), finite
    iff s > -n.  renyi_entropy gives the entropy of the vector Y itself,
    h_r(Y) = (n/2) log(2 pi r^(1/(r-1))).
    """

    n: int = 1
    _lgamma_half_n: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_n(self.n)
        object.__setattr__(self, "_lgamma_half_n", ln_gamma(0.5 * self.n))

    def log_moment(self, s: float) -> float:
        if type(s) is not float or s <= -self.n:  # a float nan or +inf: ln_gamma refuses it
            s = _order(s)
            if s <= -self.n:
                return math.inf
        value = 0.5 * s * math.log(2.0) + ln_gamma(0.5 * (self.n + s)) - self._lgamma_half_n
        if not math.isfinite(value):  # three finite terms whose sum overflows
            raise DomainError(f"log E X^{s!r} of {self} leaves the float range")
        return value

    def renyi_entropy(self, r: float) -> float:
        r = _check_r(r)
        return 0.5 * self.n * (LOG_2PI + math.log(r) / (r - 1.0))

    def sample(self, rng, size=None):
        return np.sqrt(rng.chisquare(self.n, size))

    def support(self) -> Support:
        return Support.euclidean(self.n)


@dataclass(frozen=True)
class TwoPoint(ScalarDistribution):
    """Atoms {1, a} with weights {1 - eps, eps}; the mixing law of the
    two-point Gaussian mixture experiments."""

    eps: float
    a: float

    is_discrete = True

    def __post_init__(self):
        object.__setattr__(self, "eps", _float(self.eps, "eps", lambda v: 0.0 < v < 1.0,
                                               "lie in (0, 1)"))
        object.__setattr__(self, "a", _float(self.a, "atom a", _positive_finite,
                                             "be positive and finite"))

    def log_moment(self, s: float) -> float:
        s = _order(s)
        log_a = s * math.log(self.a)  # -inf is fine: a^s underflows beside 1 - eps
        if log_a == math.inf:
            raise DomainError(f"log E X^{s!r} of {self} leaves the float range")
        return float(np.logaddexp(math.log1p(-self.eps), math.log(self.eps) + log_a))

    def sample(self, rng, size=None):
        return np.where(rng.random(size) < self.eps, self.a, 1.0)

    def atoms_and_probs(self):
        if self.a == 1.0:  # both atoms coincide: a point mass at 1
            return np.array([1.0]), np.array([1.0])
        return np.array([1.0, self.a]), np.array([1.0 - self.eps, self.eps])


@dataclass(frozen=True)
class PointMass(ScalarDistribution):
    """Degenerate law at c > 0; every log-moment is s log c."""

    c: float

    is_discrete = True

    def __post_init__(self):
        object.__setattr__(self, "c", _float(self.c, "point mass location", _positive_finite,
                                             "be positive and finite"))

    def log_moment(self, s: float) -> float:
        s = _order(s)
        value = s * math.log(self.c)
        if not math.isfinite(value):
            raise DomainError(f"log E X^{s!r} of {self} leaves the float range")
        return value

    def sample(self, rng, size=None):
        if size is None:
            return self.c
        return np.full(size, self.c, dtype=float)

    def atoms_and_probs(self):
        return np.array([self.c]), np.array([1.0])


def _moment_integrand(ax, fx, s):
    return ax ** s * fx


class GenericPdf(ScalarDistribution):
    """Numeric density on a Domain; every quantity is a sum over its panels.

    Validated at construction: finite, nonnegative and of mass one (within
    1e-6) on the nodes of the mass integral.  The panels that integral
    converged on, with the lower-end one split as |x|^s needs near x = 0,
    and the pdf on their nodes and on every tail pre-scan window are
    cached then (quadrature._DensityPanels, read-only).  log_moments takes
    |x|^s f over those nodes for all its orders at once, renyi_entropy
    f^r, and each integral gets its own tail verdict and tolerance test;
    it is refined alone, and only where it needs more panels.  So a value
    depends neither on earlier calls nor on the other orders of its call,
    and log_moment(s) is log_moments([s])[0].  An r at which f^r may carry
    more than the tolerance where the pdf underflows to 0 is refused (r
    below about 0.035 for a half-normal).  The pdf is evaluated once on
    every pre-scan window, also past where the mass scan stops.  Not
    samplable.
    """

    def __init__(self, pdf: Callable[[np.ndarray], np.ndarray], domain: Domain):
        self._pdf = pdf
        self.domain = domain

        def checked(x):  # here only: log_moment is the optimiser's hot path
            y = np.asarray(pdf(x), dtype=float)
            if not ((y >= 0.0) & (y < math.inf)).all():
                raise DomainError(f"pdf must be finite and nonnegative on {domain}")
            return y

        lo, hi, mass, _ = _converged_panels(checked, domain)
        if abs(mass - 1.0) > 1e-6:
            raise DomainError(f"pdf integrates to {mass!r}, expected 1 within 1e-6")
        self._panels = _DensityPanels(pdf, domain, lo, hi)

    def pdf(self, x):
        return self._pdf(x)

    def log_moment(self, s: float) -> float:
        return self.log_moments([s])[0]

    def log_moments(self, orders) -> list:
        """[log E|X|^s for s in orders]: +inf where the moment diverges.
        Each distinct order is summed once, and all of them share one power
        of |x| over the cached nodes."""
        keys = [_order(s) for s in orders]
        distinct = list(dict.fromkeys(keys))
        values = {}
        for s, res in zip(distinct, self._panels.integrals(_moment_integrand, np.array(distinct))):
            values[s] = math.log(res.value) if res.value > 0.0 else -math.inf
        return [values[s] for s in keys]

    def renyi_entropy(self, r: float) -> float:
        r = _check_r(r)
        res = self._panels.integrals(lambda ax, fx, r: fx ** r, np.array([r]))[0]
        return _entropy_from_integral(res.value, r)

    def support(self) -> Support:
        """The real line when the domain reaches below 0 (|X| then has mass
        from both sides of the origin), else the positive half-line."""
        if self.domain.kind == "full_line" or self.domain.a < 0.0:
            return Support.real_line()
        return Support.positive_half_line()


def L_r(d: ScalarDistribution, r: float, p: float, q: float) -> float:
    """Moment mixture L_r(X; p, q) =
    (r lam / (1-r)) log E|X|^p + (r (1-lam) / (1-r)) log E|X|^q."""
    params = TwoMomentParams(r, p, q)
    L = _moment_term(params, d.log_moment(params.p), d.log_moment(params.q))
    if math.isinf(L):
        raise MomentDiverges(f"log-moment infinite at p={params.p!r} or q={params.q!r}")
    return L
