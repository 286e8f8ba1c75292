"""Distribution families with closed-form log-moments and Renyi entropies.

Each family descriptor is immutable and exposes the pieces the bound
machinery needs:

* log_moment(s)      log E|X|^s, with +inf (returned, never raised) outside
                     the finiteness region;
* renyi_entropy(r)   closed form where one exists, quadrature for generic
                     densities, UnsupportedOperation for purely atomic laws;
* sample(rng, size)  for every family except generic densities.

GaussianMagnitude(n) describes an n-dimensional standard Gaussian vector
through the law of its Euclidean norm: the moments are those of ||Y||
while renyi_entropy reports the entropy of the vector itself, which is
all the n-dimensional bounds require.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DivergenceDetected,
    DomainError,
    MomentDiverges,
    RenyiBoundsError,
    UnsupportedOperation,
)
from .moment_core import Support, TwoMomentParams, _check_n, _check_r, _moment_term
from .quadrature import Domain, NumericsConfig, integrate
from .specfun import LOG_2PI, ln_gamma

__all__ = [
    "ScalarDistribution",
    "Lognormal",
    "GaussianMagnitude",
    "TwoPoint",
    "PointMass",
    "GenericPdf",
    "L_r",
    "iid_pair_sampler",
]


class ScalarDistribution:
    """Common interface; families override what they support."""

    def log_moment(self, s: float) -> float:
        raise NotImplementedError

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


def _entropy_from_integral(integral: float, r: float) -> float:
    """h_r = log(int f^r) / (1-r).  The integrand is positive, so a zero
    integral is a quadrature that missed the density, and is refused."""
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
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu!r}")
        if not 0.0 < self.sigma2 < math.inf:
            raise DomainError(f"sigma2 must be positive and finite, got {self.sigma2!r}")

    def log_moment(self, s: float) -> float:
        return self.mu * s + 0.5 * self.sigma2 * s * s

    def renyi_entropy(self, r: float) -> float:
        r = _check_r(r)
        return (
            self.mu
            + 0.5 * ((1.0 - r) / r) * self.sigma2
            + 0.5 * (LOG_2PI + math.log(r) / (r - 1.0) + math.log(self.sigma2))
        )

    def shannon_entropy(self) -> float:
        """r -> 1 limit: mu + (1/2) log(2 pi e sigma2)."""
        return self.mu + 0.5 * (LOG_2PI + 1.0 + math.log(self.sigma2))

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lx = np.log(x)
        return -lx - 0.5 * (LOG_2PI + math.log(self.sigma2)) - (lx - self.mu) ** 2 / (
            2.0 * self.sigma2
        )

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.log_pdf(x))

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu, math.sqrt(self.sigma2), size)

    def scaled(self, factor: float) -> "Lognormal":
        """Law of factor * X, again lognormal (log-location shift)."""
        if not factor > 0.0:
            raise DomainError("scaling factor must be positive")
        return Lognormal(self.mu + math.log(factor), self.sigma2)


@dataclass(frozen=True)
class GaussianMagnitude(ScalarDistribution):
    """Norm ||Y|| of Y ~ N(0, I_n), i.e. a chi law with n degrees of freedom.

    log E ||Y||^s = (s/2) log 2 + lnGamma((n+s)/2) - lnGamma(n/2), finite
    iff s > -n.  renyi_entropy gives the entropy of the vector Y itself,
    h_r(Y) = (n/2) log(2 pi r^(1/(r-1))).
    """

    n: int = 1

    def __post_init__(self):
        _check_n(self.n)

    def log_moment(self, s: float) -> float:
        if s <= -self.n:
            return math.inf
        return 0.5 * s * math.log(2.0) + ln_gamma(0.5 * (self.n + s)) - ln_gamma(0.5 * self.n)

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
        if not 0.0 < self.eps < 1.0:
            raise DomainError(f"eps must lie in (0, 1), got {self.eps!r}")
        if not 0.0 < self.a < math.inf:
            raise DomainError(f"atom a must be positive and finite, got {self.a!r}")

    def log_moment(self, s: float) -> float:
        return float(
            np.logaddexp(math.log1p(-self.eps), math.log(self.eps) + s * math.log(self.a))
        )

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
        if not 0.0 < self.c < math.inf:
            raise DomainError(
                f"point mass location must be positive and finite, got {self.c!r}"
            )

    def log_moment(self, s: float) -> float:
        return s * math.log(self.c)

    def sample(self, rng, size=None):
        if size is None:
            return self.c
        return np.full(size, self.c, dtype=float)

    def atoms_and_probs(self):
        return np.array([self.c]), np.array([1.0])


class GenericPdf(ScalarDistribution):
    """Numeric density on a Domain; all quantities come from quadrature.

    The density is validated to integrate to one (within 1e-6) at
    construction.  Not samplable.
    """

    def __init__(
        self,
        pdf: Callable[[np.ndarray], np.ndarray],
        domain: Domain,
        cfg: NumericsConfig = NumericsConfig(),
    ):
        self._pdf = pdf
        self.domain = domain
        self._cfg = cfg
        mass = integrate(pdf, domain, cfg).value
        if abs(mass - 1.0) > 1e-6:
            raise DomainError(f"pdf integrates to {mass!r}, expected 1 within 1e-6")

    def pdf(self, x):
        return self._pdf(x)

    def log_moment(self, s: float) -> float:
        def integrand(x):
            return np.abs(x) ** s * self._pdf(x)

        try:
            val = integrate(integrand, self.domain, self._cfg).value
        except DivergenceDetected:
            return math.inf
        return math.log(val) if val > 0.0 else -math.inf

    def renyi_entropy(self, r: float) -> float:
        r = _check_r(r)
        val = integrate(lambda x: self._pdf(x) ** r, self.domain, self._cfg).value
        return _entropy_from_integral(val, r)

    def support(self) -> Support:
        """The real line when the domain reaches below 0 (|X| then has mass
        from both sides of the origin), else the positive half-line."""
        if self.domain.kind == "full_line" or self.domain.a < 0.0:
            return Support.real_line()
        return Support.positive_half_line()


def L_r(d: ScalarDistribution, r: float, p: float, q: float) -> float:
    """Moment mixture L_r(X; p, q) =
    (r lam / (1-r)) log E|X|^p + (r (1-lam) / (1-r)) log E|X|^q."""
    L = _moment_term(TwoMomentParams(r, p, q), d.log_moment(p), d.log_moment(q))
    if math.isinf(L):
        raise MomentDiverges(f"log-moment infinite at p={p!r} or q={q!r}")
    return L


def iid_pair_sampler(d: ScalarDistribution):
    """Sampler producing two independent copies, for pair expectations."""

    def pair(rng, size):
        return d.sample(rng, size), d.sample(rng, size)

    return pair
