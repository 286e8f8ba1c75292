"""Two-moment and k-moment integral inequalities for nonnegative functions.

For 0 < r < 1 and moment orders p < 1/r - 1 < q, the r-quasinorm of any
nonnegative f obeys

    ||f||_r <= [omega(S) psi_r(p, q)]^((1-r)/r) * mu_np(f)^lam * mu_nq(f)^(1-lam)

with lam = (q + 1 - 1/r) / (q - p) and

    psi_r(p, q) = B~(r lam / (1-r), r (1-lam) / (1-r)) / (q - p).

The constant is the optimized form of the k-moment bound
||f||_r <= c_r(nu, s) * sum_i nu_i mu_{s_i}(f), where

    c_r(nu, s) = ( int_0^inf (sum_i nu_i x^(s_i))^(-r/(1-r)) dx )^((1-r)/r)

and c_r is defined as +inf when the integral diverges, which happens
exactly when no pair of active exponents straddles (1-r)/r.  Both routes
are implemented so each can check the other.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DivergenceDetected, DomainError, InvalidMomentOrder
from .quadrature import Domain, NumericsConfig, integrate
from .specfun import ln_gamma, log_beta_tilde

__all__ = [
    "TwoMomentParams",
    "MomentVector",
    "Support",
    "lambda_of",
    "psi_r",
    "log_psi_r",
    "c_r_numeric",
    "omega",
    "log_omega",
    "two_moment_bound",
    "k_moment_bound",
]


def lambda_of(r: float, p: float, q: float) -> float:
    """lam = (q + 1 - 1/r) / (q - p), in (0, 1) iff p < 1/r - 1 < q.

    Refuses (p, q) whose lam rounds to 0 or 1 (or is nan): p or q within
    rounding of 1/r - 1, or an infinite order, where the Beta constant
    would be evaluated at a zero argument."""
    if not 0.0 < r < 1.0:
        raise InvalidMomentOrder(f"r must lie in (0, 1), got {r!r}")
    pivot = 1.0 / r - 1.0
    if not (p < pivot < q):
        raise InvalidMomentOrder(
            f"need p < 1/r - 1 < q, got p={p!r}, 1/r-1={pivot!r}, q={q!r}"
        )
    lam = (q + 1.0 - 1.0 / r) / (q - p)
    if not 0.0 < lam < 1.0:
        raise InvalidMomentOrder(
            f"lam = {lam!r} rounds out of (0, 1) at r={r!r}, p={p!r}, q={q!r}: "
            f"p or q is within rounding of 1/r - 1, or infinite"
        )
    return lam


@dataclass(frozen=True)
class TwoMomentParams:
    """Validated (r, p, q) triple with the derived mixing weight lam."""

    r: float
    p: float
    q: float
    lam: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", lambda_of(self.r, self.p, self.q))


@dataclass(frozen=True)
class MomentVector:
    """Exponents s_i with nonnegative weights nu_i for the k-moment bound."""

    s: tuple
    nu: tuple

    def __post_init__(self):
        s = tuple(float(v) for v in self.s)
        nu = tuple(float(v) for v in self.nu)
        if len(s) == 0 or len(s) != len(nu):
            raise DomainError("s and nu must be nonempty and of equal length")
        if not all(math.isfinite(v) for v in s + nu):
            raise DomainError(f"exponents and weights must be finite, got s={s!r}, nu={nu!r}")
        if any(w < 0.0 for w in nu):
            raise DomainError("weights nu must be nonnegative")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "nu", nu)

    def active(self):
        """(s_i, nu_i) pairs with strictly positive weight."""
        return [(si, wi) for si, wi in zip(self.s, self.nu) if wi > 0.0]


@dataclass(frozen=True)
class Support:
    """Support descriptor carrying the angular size omega(S).

    omega(S) is the volume of the unit ball intersected with cone(S).
    Only the standard cases are computed; arbitrary sets would need
    spherical-measure geometry, so custom supports carry a user-supplied
    value instead, capped by omega(R^n).
    """

    kind: str
    n: int = 1
    omega_value: Optional[float] = None

    _KINDS = ("positive_half_line", "real_line", "euclidean_n", "custom")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DomainError(f"unknown support kind {self.kind!r}")
        if self.n < 1:
            raise DomainError("dimension n must be >= 1")
        if self.kind == "custom":
            cap = omega(Support.euclidean(self.n))
            if self.omega_value is None or not 0.0 < self.omega_value <= cap:
                raise DomainError(
                    f"custom omega must lie in (0, {cap!r}] for n={self.n}"
                )

    @staticmethod
    def positive_half_line() -> "Support":
        return Support("positive_half_line", 1)

    @staticmethod
    def real_line() -> "Support":
        return Support("real_line", 1)

    @staticmethod
    def euclidean(n: int) -> "Support":
        return Support("euclidean_n", n)

    @staticmethod
    def custom(omega_value: float, n: int = 1) -> "Support":
        return Support("custom", n, omega_value)


def log_omega(sup: Support) -> float:
    if sup.kind == "positive_half_line":
        return 0.0
    if sup.kind == "real_line":
        return math.log(2.0)
    if sup.kind == "euclidean_n":
        return 0.5 * sup.n * math.log(math.pi) - ln_gamma(0.5 * sup.n + 1.0)
    return math.log(sup.omega_value)


def omega(sup: Support) -> float:
    """omega(R+) = 1, omega(R) = 2, omega(R^n) = pi^(n/2) / Gamma(n/2 + 1)."""
    return math.exp(log_omega(sup))


def log_psi_r(params: TwoMomentParams) -> float:
    r, lam = params.r, params.lam
    a = r * lam / (1.0 - r)
    b = r * (1.0 - lam) / (1.0 - r)
    return log_beta_tilde(a, b) - math.log(params.q - params.p)


def psi_r(params: TwoMomentParams) -> float:
    """The two-moment constant psi_r(p, q) = B~(r lam/(1-r), r(1-lam)/(1-r)) / (q-p)."""
    return math.exp(log_psi_r(params))


def c_r_numeric(
    r: float,
    mv: MomentVector,
    cfg: NumericsConfig = NumericsConfig(),
) -> float:
    """c_r(nu, s) by quadrature; +inf when the defining integral diverges.

    Evaluated after the substitution x = e^t, which turns every power
    tail into an exponential one: the log-integrand is

        -r/(1-r) * logsumexp_i(log nu_i + s_i t) + t,

    linear in t at both ends with negative slope exactly when some
    active pair of exponents straddles (1-r)/r.  Power tails with decay
    rate barely above one (valid parameters near the pivot) would
    otherwise exhaust float resolution under the rational half-line map.
    Divergent cases decay nowhere and are caught by the tail test.
    """
    if not 0.0 < r < 1.0:
        raise InvalidMomentOrder(f"r must lie in (0, 1), got {r!r}")
    terms = mv.active()
    if not terms:
        return math.inf
    expo = -r / (1.0 - r)
    log_nu = np.array([math.log(w) for _, w in terms])
    ss = np.array([si for si, _ in terms])

    def integrand(t):
        logs = log_nu[None, :] + t[:, None] * ss[None, :]
        m = logs.max(axis=1)
        log_g = m + np.log(np.exp(logs - m[:, None]).sum(axis=1))
        return np.exp(np.minimum(expo * log_g + t, 700.0))

    try:
        val = integrate(integrand, Domain.full_line(), cfg).value
    except DivergenceDetected:
        return math.inf
    try:
        return float(val) ** ((1.0 - r) / r)
    except OverflowError:
        raise DomainError(f"c_r = {val!r}^((1-r)/r) leaves the float range at r={r!r}") from None


def _log_or_ninf(x: float) -> float:
    if not 0.0 <= x < math.inf:
        raise DomainError(f"moments must be finite and nonnegative, got {x!r}")
    return math.log(x) if x > 0.0 else -math.inf


def two_moment_bound(
    mu_p: float,
    mu_q: float,
    params: TwoMomentParams,
    sup: Support = Support.positive_half_line(),
    n: int = 1,
) -> float:
    """Upper bound on ||f||_r from the moments mu_np(f), mu_nq(f).

    mu_p and mu_q are the moments of order n*p and n*q of the Euclidean
    norm, matching the n-dimensional statement; for n = 1 they are plain
    moments.  Assembled in log space and exponentiated once, since the
    exponent (1-r)/r is unbounded as r -> 0.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    log_bound = (
        ((1.0 - params.r) / params.r) * (log_omega(sup) + log_psi_r(params))
        + params.lam * _log_or_ninf(mu_p)
        + (1.0 - params.lam) * _log_or_ninf(mu_q)
    )
    try:
        return math.exp(log_bound)
    except OverflowError:
        raise DomainError(f"the bound exp({log_bound:.6g}) leaves the float range") from None


def k_moment_bound(
    mv: MomentVector,
    moments: Sequence[float],
    r: float,
    cfg: NumericsConfig = NumericsConfig(),
) -> float:
    """Prop-1-style bound c_r(nu, s) * sum_i nu_i mu_{s_i}(f); +inf if c_r is
    (no active pair of exponents straddles (1-r)/r: the bound is vacuous)."""
    if len(moments) != len(mv.s):
        raise DomainError("moments must match the moment vector length")
    for m in moments:
        if not 0.0 <= m < math.inf:
            raise DomainError(f"moments must be finite and nonnegative, got {m!r}")
    c = c_r_numeric(r, mv, cfg)
    if math.isinf(c):
        return math.inf
    bound = c * sum(w * m for w, m in zip(mv.nu, moments))
    if not math.isfinite(bound):
        raise DomainError(f"the k-moment bound leaves the float range (c_r = {c!r})")
    return bound
