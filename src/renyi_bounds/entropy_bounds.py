"""Renyi-entropy upper bounds and their optimality gaps.

The basic bound, for a random vector X with a density on S and any
0 < r < 1, p < 1/r - 1 < q, is

    h_r(X) <= log omega(S) + log psi_r(p, q) + L_r(||X||^n; p, q),

and the gap of the bound at (p, q) is the right side minus h_r(X).
Optimal gaps are searched in the (lam, u) coordinates

    p = m - (1-lam) sqrt((1-r) u / (r lam (1-lam))),   m = (1-r)/r,
    q = m +    lam  sqrt((1-r) u / (r lam (1-lam))),

under which the valid (p, q) wedge becomes the box (0,1) x (0,inf),
the lognormal objective separates, and closed forms exist for the
lognormal and Gaussian families:

    lognormal:  gap(lam, u) = theta(r lam/(1-r)) + theta(r(1-lam)/(1-r))
                              - theta(r/(1-r)) + (u s2 - log(u s2)) / 2
                              + log(r) / (2 (1-r))         [s2 = sigma^2]
    optimum at lam = 1/2, u = 1/s2.

For Y ~ N(0, I_n) the analogous closed form uses z = r n u / 2 and the
second-difference of log-gamma Q_{r,n}(lam, z), which tends to z/2 as
n grows; the optimal Gaussian gap then converges to the lognormal one.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .distributions import GaussianMagnitude, Lognormal, ScalarDistribution, _moment_term
from .errors import (
    DomainError,
    Infeasible,
    InvalidMomentOrder,
    MomentDiverges,
    OptimizerNoConverge,
    RenyiBoundsError,
    UnsupportedOperation,
)
from .moment_core import Support, TwoMomentParams, log_omega, log_psi_r
from .quadrature import Domain, NumericsConfig, integrate
from .specfun import LOG_2PI, ln_gamma, theta

__all__ = [
    "BoundReport",
    "GapReport",
    "GaussGapParams",
    "two_moment_parametrization",
    "entropy_bound",
    "lognormal_gap_closed",
    "lognormal_gap_at",
    "lognormal_gap_p0",
    "optimal_gap",
    "gaussian_Q",
    "gaussian_Q_lower_bound",
    "gaussian_gap",
    "prop6_limit_check",
    "mult_bound_check",
    "diff_entropy_bounds",
]


@dataclass(frozen=True)
class BoundReport:
    """A single evaluation of the entropy bound (all values in nats)."""

    r: float
    p: float
    q: float
    n: int
    bound: float
    entropy: Optional[float]  # None when the family has no density
    gap: Optional[float]


@dataclass(frozen=True)
class GapReport:
    """Result of gap optimization; trace holds one (lam, u, value) entry
    per pass ((q, value) when p is pinned at zero)."""

    r: float
    p: float
    q: float
    bound: float
    entropy: float
    gap: float
    optimizer_trace: Tuple[tuple, ...]


def two_moment_parametrization(r: float, lam: float, u: float) -> Tuple[float, float]:
    """(p, q) from the box coordinates (lam, u); inverse of the gap search."""
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lam must lie in (0, 1), got {lam!r}")
    if not u > 0.0:
        raise DomainError(f"u must be positive, got {u!r}")
    m = (1.0 - r) / r
    d = math.sqrt((1.0 - r) * u / (r * lam * (1.0 - lam)))
    return m - (1.0 - lam) * d, m + lam * d


def _gap_at(
    d: ScalarDistribution,
    log_omega_s: float,
    n: int,
    r: float,
    p: float,
    q: float,
    entropy: float,
) -> float:
    """Gap of the bound at explicit (p, q); +inf when invalid or divergent."""
    try:
        params = TwoMomentParams(r, p, q)
    except InvalidMomentOrder:
        return math.inf
    L = _moment_term(d, params, n)
    if math.isinf(L):
        return math.inf
    return log_omega_s + log_psi_r(params) + L - entropy


def entropy_bound(
    d: ScalarDistribution,
    sup: Support,
    n: int,
    r: float,
    p: float,
    q: float,
) -> BoundReport:
    """Evaluate h_r(X) <= log omega(S) + log psi_r + L_r(||X||^n; p, q).

    d is the law of the norm ||X|| (equal to X itself for positive scalar
    X).  The report carries the exact entropy and gap whenever the family
    has a density; otherwise only the bound.
    """
    params = TwoMomentParams(r, p, q)
    L = _moment_term(d, params, n)
    if math.isinf(L):
        raise MomentDiverges(
            f"moment of order n*p={n * p!r} or n*q={n * q!r} diverges"
        )
    bound = log_omega(sup) + log_psi_r(params) + L
    try:
        h = d.renyi_entropy(r)
    except UnsupportedOperation:
        return BoundReport(r, p, q, n, bound, None, None)
    return BoundReport(r, p, q, n, bound, h, bound - h)


# ---------------------------------------------------------------------------
# Lognormal gaps (closed forms)
# ---------------------------------------------------------------------------


def lognormal_gap_closed(r: float) -> float:
    """Optimal two-moment gap for the lognormal family; (mu, sigma2)-free:

        2 theta(r/(2(1-r))) - theta(r/(1-r)) + (1 + log r/(1-r)) / 2.

    verify checks it against the published B~ form of the same constant.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    a = 0.5 * r / (1.0 - r)
    return 2.0 * theta(a) - theta(2.0 * a) + 0.5 * (1.0 + math.log(r) / (1.0 - r))


def lognormal_gap_at(r: float, lam: float, u: float, sigma2: float) -> float:
    """Lognormal gap at box coordinates (lam, u); depends on u sigma2 only
    and not on mu.  Minimized at lam = 1/2, u = 1/sigma2."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    if not (0.0 < lam < 1.0 and u > 0.0 and sigma2 > 0.0):
        raise DomainError("need lam in (0,1), u > 0, sigma2 > 0")
    c = r / (1.0 - r)
    us = u * sigma2
    return (
        theta(c * lam)
        + theta(c * (1.0 - lam))
        - theta(c)
        + 0.5 * us
        - 0.5 * math.log(us)
        + 0.5 * math.log(r) / (1.0 - r)
    )


def lognormal_gap_p0(r: float, q: float, sigma2: float) -> float:
    """One-moment slice: gap at (0, q), from the simplified expansion

    gap(0, q) = gap_opt + phi((q - (1-r)/r) sigma2) / 2
                + theta(r/(1-r) - 1/q) + theta(1/q) - 2 theta(r/(2(1-r)))

    with phi(x) = x - log x - 1."""
    m = (1.0 - r) / r
    if not q > m:
        raise InvalidMomentOrder(f"q must exceed 1/r - 1 = {m!r}, got {q!r}")
    x = (q - m) * sigma2
    phi = x - math.log(x) - 1.0
    c = r / (1.0 - r)
    return (
        lognormal_gap_closed(r)
        + 0.5 * phi
        + theta(c - 1.0 / q)
        + theta(1.0 / q)
        - 2.0 * theta(0.5 * c)
    )


# ---------------------------------------------------------------------------
# Gap optimization (generic families)
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(fun, lo: float, hi: float, iters: int = 48) -> Tuple[float, float]:
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = fun(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _grid_golden(fun, lo: float, hi: float, ngrid: int = 25, iters: int = 48):
    """Coarse scan then golden refinement inside the best bracket.

    The scan makes the search robust to the +inf plateaus that infeasible
    parameters produce, where plain golden section can stall.
    """
    xs = np.linspace(lo, hi, ngrid)
    fs = [fun(x) for x in xs]
    i = int(np.argmin(fs))
    if math.isinf(fs[i]):
        return xs[i], fs[i]
    blo = xs[max(i - 1, 0)]
    bhi = xs[min(i + 1, ngrid - 1)]
    x, f = _golden(fun, blo, bhi, iters)
    return (x, f) if f <= fs[i] else (xs[i], fs[i])


_LAM_EDGE = 1e-3
_LOG_U_RANGE = 16.0
_PASSES = 3  # coordinate cycles of the two-moment search


def optimal_gap(
    d: ScalarDistribution,
    sup: Support,
    n: int,
    r: float,
    constrain_p_zero: bool = False,
) -> GapReport:
    """Optimized gap Delta_r (over p, q) or Delta~_r (over q at p = 0).

    Derivative-free: cyclic golden-section over (lam, log u) in the box
    parametrization -- the objective is smooth and low-dimensional, and
    infeasible points simply evaluate to +inf.  Each cycle ends with a
    golden search along the displacement direction of the whole pass
    (Powell's acceleration); without it the low-dimension Gaussian
    objective zigzags along a diagonal valley and three plain coordinate
    passes stall an order of magnitude short of the 1e-4 target.  With
    constrain_p_zero the search is one-dimensional over q > 1/r - 1.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    h = d.renyi_entropy(r)
    lw = log_omega(sup)

    trace: List[tuple] = []
    if constrain_p_zero:
        m = (1.0 - r) / r

        def obj(w):
            return _gap_at(d, lw, n, r, 0.0, m + math.exp(w), h)

        w, best = _grid_golden(obj, -_LOG_U_RANGE, _LOG_U_RANGE, ngrid=65, iters=60)
        q = m + math.exp(w)
        trace.append((q, best))
        if math.isinf(best):
            raise OptimizerNoConverge("no feasible q found for the p = 0 bound")
        p_opt, q_opt = 0.0, q
    else:

        def obj2(lam, w):
            p, q = two_moment_parametrization(r, lam, math.exp(w))
            return _gap_at(d, lw, n, r, p, q, h)

        def obj_box(lam, w):
            if not (_LAM_EDGE <= lam <= 1.0 - _LAM_EDGE) or abs(w) > _LOG_U_RANGE:
                return math.inf
            return obj2(lam, w)

        lam, w = 0.5, 0.0
        best = obj_box(lam, w)
        for _ in range(_PASSES):
            lam0, w0 = lam, w
            lam, best = _grid_golden(lambda L: obj_box(L, w), _LAM_EDGE, 1.0 - _LAM_EDGE)
            w, best = _grid_golden(lambda W: obj_box(lam, W), -_LOG_U_RANGE, _LOG_U_RANGE)
            dl, dw = lam - lam0, w - w0
            if dl != 0.0 or dw != 0.0:
                t, ft = _grid_golden(
                    lambda T: obj_box(lam + T * dl, w + T * dw), -1.0, 4.0, ngrid=17, iters=40
                )
                if ft < best:
                    lam, w, best = lam + t * dl, w + t * dw, ft
            trace.append((lam, math.exp(w), best))
        if math.isinf(best):
            raise OptimizerNoConverge("no feasible (lam, u) found")
        p_opt, q_opt = two_moment_parametrization(r, lam, math.exp(w))

    return GapReport(
        r=r,
        p=p_opt,
        q=q_opt,
        bound=h + best,
        entropy=h,
        gap=best,
        optimizer_trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# Multivariate Gaussian gap, (lam, z) parametrization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussGapParams:
    """(r, n, lam, z) with the finiteness condition
    (1 - lam) sqrt(2 (1-r) z / (lam (1-lam) n)) < 1, i.e. the lower
    log-gamma argument in Q stays positive."""

    r: float
    n: int
    lam: float
    z: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise DomainError(f"r must lie in (0, 1), got {self.r!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not (0.0 < self.lam < 1.0 and self.z > 0.0):
            raise DomainError("need lam in (0, 1) and z > 0")
        guard = (1.0 - self.lam) * math.sqrt(
            2.0 * (1.0 - self.r) * self.z / (self.lam * (1.0 - self.lam) * self.n)
        )
        if not guard < 1.0:
            raise Infeasible(
                f"(1-lam) sqrt(2 (1-r) z / (lam (1-lam) n)) = {guard!r} >= 1"
            )


def gaussian_Q(gp: GaussGapParams) -> float:
    """Q_{r,n}(lam, z), the weighted second difference of log Gamma around
    n/(2r) that carries the moment contribution of ||Y||."""
    r, n, lam, z = gp.r, gp.n, gp.lam, gp.z
    c = r / (1.0 - r)
    s = math.sqrt((1.0 - r) * n * z / (2.0 * lam * (1.0 - lam)))
    x0 = 0.5 * n / r
    return c * (
        lam * ln_gamma(x0 - (1.0 - lam) / r * s)
        + (1.0 - lam) * ln_gamma(x0 + lam / r * s)
        - ln_gamma(x0)
    )


def gaussian_Q_lower_bound(gp: GaussGapParams) -> float:
    """(z/2) / (1 + sqrt(lam/(1-lam) * b z)), b = 2(1-r)/(9n); the convexity
    lower bound on Q whose large-n limit z/2 matches Q's."""
    b = 2.0 * (1.0 - gp.r) / (9.0 * gp.n)
    return 0.5 * gp.z / (1.0 + math.sqrt(gp.lam / (1.0 - gp.lam) * b * gp.z))


def gaussian_gap(gp: GaussGapParams) -> float:
    """Gap for Y ~ N(0, I_n) at (lam, z):

    theta(r lam/(1-r)) + theta(r(1-lam)/(1-r)) - theta(r/(1-r))
      + Q_{r,n}(lam, z) - (log z)/2 + log(r)/(2(1-r))
      + (r/(1-r)) theta(n/(2r)) - (1/(1-r)) theta(n/2).
    """
    r, n, lam, z = gp.r, gp.n, gp.lam, gp.z
    c = r / (1.0 - r)
    return (
        theta(c * lam)
        + theta(c * (1.0 - lam))
        - theta(c)
        + gaussian_Q(gp)
        - 0.5 * math.log(z)
        + 0.5 * math.log(r) / (1.0 - r)
        + c * theta(0.5 * n / r)
        - theta(0.5 * n) / (1.0 - r)
    )


def prop6_limit_check(r: float, n_max: int) -> List[Tuple[int, float, float]]:
    """Rows (n, optimal Gaussian gap, lognormal gap) over doubling n.

    The Gaussian column increases with n and converges to the lognormal
    constant, which the last row should approach at O(1/n) speed.
    """
    if n_max < 16:
        raise DomainError(f"n_max must be at least 16, got {n_max!r}")
    target = lognormal_gap_closed(r)
    rows = []
    n = 1
    while n <= n_max:
        rep = optimal_gap(GaussianMagnitude(n), Support.euclidean(n), n, r)
        rows.append((n, rep.gap, target))
        n *= 2
    return rows


# ---------------------------------------------------------------------------
# Multiplication bound (Prop 5 shape) and differential-entropy corollaries
# ---------------------------------------------------------------------------


def mult_bound_check(
    dY: Lognormal,
    dX: ScalarDistribution,
    t: float,
    r: float,
    p: float,
    q: float,
    cfg: NumericsConfig = NumericsConfig(),
) -> float:
    """Residual h_r(XY) - h_r(tY) - gap_r(Y; p, q) for 0 < X <= t a.s.

    Nonpositive up to quadrature error when the preconditions hold.  X
    must be atomic (the product density is then an exact lognormal
    mixture, integrated by quadrature) and Y lognormal.
    """
    if not isinstance(dY, Lognormal):
        raise UnsupportedOperation("mult_bound_check requires lognormal Y")
    if not dX.is_discrete:
        raise UnsupportedOperation("mult_bound_check requires atomic X")
    if not (0.0 < p < 1.0 / r - 1.0 < q):
        raise InvalidMomentOrder(f"need 0 < p < 1/r - 1 < q, got ({p!r}, {q!r})")
    atoms, probs = dX.atoms_and_probs()
    if np.any(atoms <= 0.0) or np.any(atoms > t * (1.0 + 1e-12)):
        raise DomainError("X must satisfy 0 < X <= t almost surely")

    components = [dY.scaled(float(x)) for x in atoms]
    log_w = np.log(probs)

    def integrand(z):
        logs = np.stack([lw + comp.log_pdf(z) for lw, comp in zip(log_w, components)])
        m = logs.max(axis=0)
        log_mix = m + np.log(np.exp(logs - m).sum(axis=0))
        return np.exp(r * log_mix)

    val = integrate(integrand, Domain.half_line(0.0), cfg).value
    if not val > 0.0:
        raise RenyiBoundsError(
            "int f_XY^r came out 0: the quadrature missed the product density"
        )
    h_xy = math.log(val) / (1.0 - r)
    gap = entropy_bound(dY, dY.support(), 1, r, p, q).gap
    h_ty = dY.renyi_entropy(r) + math.log(t)
    return h_xy - h_ty - gap


_FD_STEP = 1e-4  # central-difference step for the log-moment cumulants


def diff_entropy_bounds(
    d: ScalarDistribution,
    n: int,
    s: float,
) -> Tuple[float, float]:
    """The two r -> 1 corollaries, as upper bounds on Shannon entropy h(X).

    Returns (moment_bound, log_moment_bound):

      moment_bound     = log Gamma(n/s + 1) - log Gamma(n/2 + 1)
                         + (n/2) log pi + (n/s) log(e s E[||X||^s] / n),
                         valid for any s > 0 (s = 2 is the Gaussian case);

      log_moment_bound = E[log ||X||] + (1/2) log(2 pi e Var(log ||X||)),
                         with equality exactly for lognormal laws.

    The log-moments' mean and variance come from central differences of
    s -> log E||X||^s at zero, exact for lognormal inputs because their
    cumulant function is quadratic.
    """
    if not s > 0.0:
        raise DomainError(f"moment order s must be positive, got {s!r}")
    ls = d.log_moment(s)
    if math.isinf(ls):
        raise MomentDiverges(f"E||X||^{s!r} diverges")
    moment_bound = (
        ln_gamma(n / s + 1.0)
        - ln_gamma(0.5 * n + 1.0)
        + 0.5 * n * math.log(math.pi)
        + (n / s) * (1.0 + math.log(s) + ls - math.log(n))
    )

    lp = d.log_moment(_FD_STEP)
    lm = d.log_moment(-_FD_STEP)
    if math.isinf(lp) or math.isinf(lm):
        raise MomentDiverges("log-moments must be finite near zero")
    mean_log = (lp - lm) / (2.0 * _FD_STEP)
    var_log = (lp + lm) / (_FD_STEP * _FD_STEP)
    if not var_log > 0.0:
        raise DomainError("Var(log ||X||) must be positive for the log-moment bound")
    log_moment_bound = mean_log + 0.5 * (LOG_2PI + 1.0 + math.log(var_log))
    return moment_bound, log_moment_bound
