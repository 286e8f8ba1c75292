"""The two-moment inequality, used by the entropy bound and Prop 9, and
the k-moment inequality it is the optimized case of.

For 0 < r < 1 and moment orders p < 1/r - 1 < q, the r-quasinorm of any
nonnegative f obeys

    ||f||_r <= [omega(S) psi_r(p, q)]^((1-r)/r) * mu_np(f)^lam * mu_nq(f)^(1-lam)

with lam = (q + 1 - 1/r) / (q - p) and

    psi_r(p, q) = B~(r lam / (1-r), r (1-lam) / (1-r)) / (q - p).

Raised to r/(1-r) and logged, the right side is log omega(S) +
log psi_r(p, q) + L_r with L_r = (r/(1-r)) (lam log mu_np + (1-lam)
log mu_nq), written once, in _log_two_moment: on the density of X it
bounds h_r(X), and at r = 1/2 on var(f(y|W)) it is Prop 9.  The checks
on r, on a dimension n and on p < 1/r - 1 < q live here too, worded by
specfun._float.

The constant is the optimized form of the k-moment bound
||f||_r <= c_r(nu, s) * sum_i nu_i mu_{s_i}(f), where

    c_r(nu, s) = ( int_0^inf (sum_i nu_i x^(s_i))^(-r/(1-r)) dx )^((1-r)/r)

and c_r is defined as +inf when the integral diverges, which happens
exactly when no pair of active exponents straddles (1-r)/r.  Both routes
are implemented so each can check the other.
"""

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DivergenceDetected, DomainError, InvalidMomentOrder
from .quadrature import Domain, integrate
from .specfun import _choice, _exp, _float, ln_gamma, log_beta_tilde

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

_MAX_FLOAT = sys.float_info.max


def _check_r(r: float, error: type = DomainError) -> float:
    """The Renyi order r as a float in (0, 1); error is raised otherwise."""
    if type(r) is float and 0.0 < r < 1.0:
        return r
    return _float(r, "r", lambda v: 0.0 < v < 1.0, "lie in (0, 1)", error)


def _check_n(n: int) -> None:
    """n is a dimension, a positive integer (not a bool, not 1.5) that
    converts to a float."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 1 <= n <= _MAX_FLOAT:
        # no float passes: the test above is on the type of n
        _float(n, "n", lambda v: False, "be a positive int (not a bool) within the float range")


def lambda_of(r: float, p: float, q: float) -> float:
    """lam = (q + 1 - 1/r) / (q - p), in (0, 1) iff p < 1/r - 1 < q.

    Refuses (p, q) whose lam rounds to 0 or 1 (or is nan): p or q within
    rounding of 1/r - 1, or an infinite order, where the Beta constant
    would be evaluated at a zero argument."""
    r = _check_r(r, InvalidMomentOrder)
    pivot = 1.0 / r - 1.0
    if not (type(p) is float and type(q) is float and p < pivot < q):
        p = _float(p, "p", lambda v: v < pivot, f"lie below 1/r - 1 = {pivot!r}",
                   InvalidMomentOrder)
        q = _float(q, "q", lambda v: v > pivot, f"lie above 1/r - 1 = {pivot!r}",
                   InvalidMomentOrder)
    lam = (q + 1.0 - 1.0 / r) / (q - p)
    if not 0.0 < lam < 1.0:
        raise InvalidMomentOrder(
            f"lam = {lam!r} rounds out of (0, 1) at r={r!r}, p={p!r}, q={q!r}: "
            f"p or q is within rounding of 1/r - 1, or infinite"
        )
    return lam


class TwoMomentParams(namedtuple("TwoMomentParams", "r p q lam")):
    """Validated (r, p, q) triple of floats with the derived mixing weight lam.

    TwoMomentParams(r, p, q) converts and checks; _make((r, p, q, lam))
    checks nothing, for values that lambda_of has just checked."""

    __slots__ = ()

    def __new__(cls, r: float, p: float, q: float) -> "TwoMomentParams":
        if type(r) is not float or type(p) is not float or type(q) is not float:
            r = _check_r(r, InvalidMomentOrder)
            p = _float(p, "p", error=InvalidMomentOrder)
            q = _float(q, "q", error=InvalidMomentOrder)
        return tuple.__new__(cls, (r, p, q, lambda_of(r, p, q)))

    def _replace(self, **changes) -> "TwoMomentParams":
        """A copy with r, p or q changed, checked again; lam follows."""
        return TwoMomentParams(**{"r": self.r, "p": self.p, "q": self.q, **changes})


@dataclass(frozen=True)
class MomentVector:
    """Exponents s_i with nonnegative weights nu_i for the k-moment bound."""

    s: tuple
    nu: tuple

    def __post_init__(self):
        s = tuple(_float(v, "an exponent s", math.isfinite, "be finite") for v in self.s)
        nu = tuple(_float(v, "a weight nu", lambda w: 0.0 <= w < math.inf,
                          "be finite and nonnegative") for v in self.nu)
        if len(s) == 0 or len(s) != len(nu):
            raise DomainError("s and nu must be nonempty and of equal length")
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
        _choice(self.kind, "a support kind", self._KINDS)
        _check_n(self.n)
        if self.kind == "custom":
            cap = omega(Support.euclidean(self.n))
            w = _float(self.omega_value, "a custom omega", lambda v: 0.0 < v <= cap,
                       f"lie in (0, {cap!r}] for n = {self.n}")
            object.__setattr__(self, "omega_value", w)
        elif self.omega_value is not None:
            raise DomainError(f"a {self.kind} support computes its omega, so takes none")
        if self.kind in ("positive_half_line", "real_line") and self.n != 1:
            raise DomainError(f"a {self.kind} support is one-dimensional, got n = {self.n}")

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


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum_i exp(a[i]) over the first axis, the largest term factored out."""
    m = a.max(axis=0)
    return m + np.log(np.exp(a - m).sum(axis=0))


def c_r_numeric(r: float, mv: MomentVector) -> float:
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
    r = _check_r(r, InvalidMomentOrder)
    terms = mv.active()
    if not terms:
        return math.inf
    expo = -r / (1.0 - r)
    top = max(w for _, w in terms)  # c_r(a nu) = c_r(nu) / a: integrate at max nu = 1
    log_nu = np.array([math.log(w) for _, w in terms]) - math.log(top)
    ss = np.array([si for si, _ in terms])

    def integrand(t):
        log_g = _logsumexp((log_nu[None, :] + t[:, None] * ss[None, :]).T)
        return np.exp(np.minimum(expo * log_g + t, 700.0))

    try:
        val = integrate(integrand, Domain.full_line()).value
    except DivergenceDetected:
        return math.inf
    with np.errstate(over="ignore"):
        c = float(np.float64(val) ** ((1.0 - r) / r)) / top
    if math.isinf(c):
        raise DomainError(f"c_r = {val!r}^((1-r)/r) / {top!r} leaves the float range at r={r!r}")
    return c


def _check_moments(moments: Sequence[float]) -> list:
    return [_float(m, "a moment", lambda v: 0.0 <= v < math.inf, "be finite and nonnegative")
            for m in moments]


def _moment_term(params: TwoMomentParams, log_mu_p: float, log_mu_q: float) -> float:
    """L_r = (r lam / (1-r)) log mu_p + (r (1-lam) / (1-r)) log mu_q from two
    log-moments; +inf when either is infinite."""
    if math.isinf(log_mu_p) or math.isinf(log_mu_q):
        return math.inf
    c = params.r / (1.0 - params.r)
    return c * params.lam * log_mu_p + c * (1.0 - params.lam) * log_mu_q


def _log_two_moment(
    log_omega_s: float, params: TwoMomentParams, log_mu_p: float, log_mu_q: float
) -> float:
    """log omega(S) + log psi_r(p, q) + L_r, the log of the two-moment bound
    raised to r/(1-r): every two-moment bound of the package is this
    number.  +inf when either log-moment is infinite."""
    L = _moment_term(params, log_mu_p, log_mu_q)
    if math.isinf(L):
        return math.inf
    return log_omega_s + log_psi_r(params) + L


def two_moment_bound(
    mu_p: float,
    mu_q: float,
    params: TwoMomentParams,
    sup: Support = Support.positive_half_line(),
) -> float:
    """Upper bound on ||f||_r from the moments mu_np(f), mu_nq(f) of the
    Euclidean norm on the n-dimensional support sup (plain moments for
    n = 1): exp(((1-r)/r) _log_two_moment), exponentiated once since the
    exponent is unbounded as r -> 0.  A zero moment means f = 0 almost
    everywhere, and the bound is 0."""
    mu_p, mu_q = _check_moments((mu_p, mu_q))
    if mu_p == 0.0 or mu_q == 0.0:
        return 0.0
    log_h = _log_two_moment(log_omega(sup), params, math.log(mu_p), math.log(mu_q))
    return _exp(((1.0 - params.r) / params.r) * log_h, "the bound")


def k_moment_bound(mv: MomentVector, moments: Sequence[float], r: float) -> float:
    """Prop-1-style bound c_r(nu, s) * sum_i nu_i mu_{s_i}(f); +inf if c_r is
    (no active pair of exponents straddles (1-r)/r: the bound is vacuous)."""
    if len(moments) != len(mv.s):
        raise DomainError("moments must match the moment vector length")
    moments = _check_moments(moments)
    c = c_r_numeric(r, mv)
    if math.isinf(c):
        return math.inf
    bound = c * sum(w * m for w, m in zip(mv.nu, moments))
    if not math.isfinite(bound):
        raise DomainError(f"the k-moment bound leaves the float range (c_r = {c!r})")
    return bound
