"""Renyi-entropy upper bounds and their optimality gaps.

The basic bound, for a random vector X with a density on S and any
0 < r < 1, p < 1/r - 1 < q, is

    h_r(X) <= log omega(S) + log psi_r(p, q) + L_r(||X||^n; p, q),

and the gap of the bound at (p, q) is the right side minus h_r(X).
Optimal gaps are searched in the (lam, u) coordinates

    p = m - (1-lam) sqrt((1-r) u / (r lam (1-lam))),   m = (1-r)/r,
    q = m +    lam  sqrt((1-r) u / (r lam (1-lam))),

under which the valid (p, q) wedge becomes the box (0,1) x (0,inf) and
the lognormal objective separates:

    lognormal:  gap(lam, u) = theta(r lam/(1-r)) + theta(r(1-lam)/(1-r))
                              - theta(r/(1-r)) + (u s2 - log(u s2)) / 2
                              + log(r) / (2 (1-r))         [s2 = sigma^2]

with its optimum at lam = 1/2, u = 1/s2, kept here in closed form as
lognormal_gap_closed.  Every other gap has one route: the bound at
(p, q) minus the entropy, as entropy_bound and optimal_gap compute it.
The closed forms of the gap at a box point (lognormal, and the Gaussian
one through Q_{r,n}(lam, z)) are oracles for that route and live in
verify and the tests.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .distributions import Lognormal, ScalarDistribution, _entropy_from_integral, _GaussianMixture
from .errors import (
    DomainError,
    InvalidMomentOrder,
    MomentDiverges,
    OptimizerNoConverge,
    UnsupportedOperation,
)
from .moment_core import (
    Support, TwoMomentParams, _check_n, _check_r, _log_two_moment, lambda_of, log_omega,
)
from .quadrature import Domain, integrate
from .specfun import LOG_2PI, _float, _positive_finite, ln_gamma, theta

__all__ = [
    "BoundReport",
    "GapReport",
    "two_moment_parametrization",
    "entropy_bound",
    "lognormal_gap_closed",
    "optimal_gap",
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


def _check_dimension(d: ScalarDistribution, sup: Support, n: int) -> float:
    """log omega(sup), once sup fits the law d of ||X||: both n-dimensional
    (a 1-D entropy against an n = 2 bound gives a gap below 0), and omega(S)
    at least that of d.support() (a smaller one gives a bound below the
    entropy; the 1e-12 slack lets R stand for R^1, a last bit apart)."""
    _check_n(n)
    own = d.support()
    if not sup.n == own.n == n:
        raise DomainError(
            f"n = {n} must be the dimension of the support ({sup.n}) "
            f"and of the law of ||X|| ({own.n})"
        )
    lw, lw_own = log_omega(sup), log_omega(own)
    if lw < lw_own - 1e-12:
        raise DomainError(
            f"S ({sup.kind}, omega {math.exp(lw):.6g}) must cover the support "
            f"of the law of ||X|| ({own.kind}, omega {math.exp(lw_own):.6g})"
        )
    return lw


def two_moment_parametrization(r: float, lam: float, u: float) -> Tuple[float, float]:
    """(p, q) from the box coordinates (lam, u); inverse of the gap search."""
    r = _check_r(r)
    if not (type(lam) is float and type(u) is float and 0.0 < lam < 1.0 and 0.0 < u < math.inf):
        lam = _float(lam, "lam", lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
        u = _float(u, "u", _positive_finite, "be positive and finite")
    m = (1.0 - r) / r
    denom = r * lam * (1.0 - lam)  # 0 when lam underflows it
    d = math.sqrt((1.0 - r) * u / denom) if denom > 0.0 else math.inf
    if d == math.inf:
        raise DomainError(f"(p, q) at r={r!r}, lam={lam!r}, u={u!r} leave the float range")
    return m - (1.0 - lam) * d, m + lam * d


# (r, p, q) of one gap evaluation with lam = lambda_of(r, p, q): the fields
# _log_two_moment reads of a TwoMomentParams, in a tuple, not a frozen dataclass
_Point = namedtuple("_Point", "r p q lam")


def _gaps_at(
    d: ScalarDistribution,
    log_omega_s: float,
    n: int,
    r: float,
    points: List[Optional[Tuple[float, float]]],
    entropy: float,
) -> List[float]:
    """Gaps of the bound at explicit (p, q) points; +inf at a point that is
    None, invalid or divergent.  The log-moments of all points come from one
    d.log_moments call."""
    params, orders = [], []
    for pq in points:
        prm = None
        if pq is not None:
            p, q = pq
            try:
                prm = _Point(r, p, q, lambda_of(r, p, q))
            except InvalidMomentOrder:
                pass
            else:
                orders += (n * p, n * q)
        params.append(prm)
    logs = d.log_moments(orders)
    gaps, k = [], 0
    for prm in params:
        if prm is None:
            gaps.append(math.inf)
        else:
            gaps.append(_log_two_moment(log_omega_s, prm, logs[k], logs[k + 1]) - entropy)
            k += 2
    return gaps


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
    X), and n the dimension of X, of sup and of d.support().  The report
    carries the exact entropy and gap whenever the family has a density;
    otherwise only the bound.
    """
    lw = _check_dimension(d, sup, n)
    params = TwoMomentParams(r, p, q)
    r, p, q = params.r, params.p, params.q
    bound = _log_two_moment(lw, params, *d.log_moments([n * p, n * q]))
    if math.isinf(bound):
        raise MomentDiverges(
            f"moment of order n*p={n * p!r} or n*q={n * q!r} diverges"
        )
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
    r = _check_r(r)
    a = 0.5 * r / (1.0 - r)
    return 2.0 * theta(a) - theta(2.0 * a) + 0.5 * (1.0 + math.log(r) / (1.0 - r))


# ---------------------------------------------------------------------------
# Gap optimization (generic families)
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(fun, lo: float, hi: float, iters: int = 48) -> Tuple[float, float]:
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = fun([x1, x2])
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            (f1,) = fun([x1])
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            (f2,) = fun([x2])
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _grid_golden(fun, lo: float, hi: float, ngrid: int = 25, iters: int = 48):
    """Coarse scan then golden refinement inside the best bracket.  fun maps
    a list of points to their values, so the scan is one call.

    The scan makes the search robust to the +inf plateaus that infeasible
    parameters produce, where plain golden section can stall.
    """
    xs = np.linspace(lo, hi, ngrid).tolist()  # Python floats: overflow is inf, not a warning
    fs = fun(xs)
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
    r = _check_r(r)
    lw = _check_dimension(d, sup, n)
    h = d.renyi_entropy(r)

    trace: List[tuple] = []
    if constrain_p_zero:
        m = (1.0 - r) / r

        def obj(ws):
            return _gaps_at(d, lw, n, r, [(0.0, m + math.exp(w)) for w in ws], h)

        w, best = _grid_golden(obj, -_LOG_U_RANGE, _LOG_U_RANGE, ngrid=65, iters=60)
        q = m + math.exp(w)
        trace.append((q, best))
        if math.isinf(best):
            raise OptimizerNoConverge("no feasible q found for the p = 0 bound")
        p_opt, q_opt = 0.0, q
    else:

        def obj_box(lams, ws):
            return _gaps_at(d, lw, n, r, [
                None if not (_LAM_EDGE <= lam <= 1.0 - _LAM_EDGE) or abs(w) > _LOG_U_RANGE
                else two_moment_parametrization(r, lam, math.exp(w))
                for lam, w in zip(lams, ws)
            ], h)

        lam, w = 0.5, 0.0
        (best,) = obj_box([lam], [w])
        for _ in range(_PASSES):
            lam0, w0 = lam, w
            lam, best = _grid_golden(lambda Ls: obj_box(Ls, [w] * len(Ls)),
                                     _LAM_EDGE, 1.0 - _LAM_EDGE)
            w, best = _grid_golden(lambda Ws: obj_box([lam] * len(Ws), Ws),
                                   -_LOG_U_RANGE, _LOG_U_RANGE)
            dl, dw = lam - lam0, w - w0
            if dl != 0.0 or dw != 0.0:
                t, ft = _grid_golden(
                    lambda Ts: obj_box([lam + T * dl for T in Ts], [w + T * dw for T in Ts]),
                    -1.0, 4.0, ngrid=17, iters=40,
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
# Multiplication bound (Prop 5 shape) and differential-entropy corollaries
# ---------------------------------------------------------------------------


def mult_bound_check(
    dY: Lognormal,
    dX: ScalarDistribution,
    t: float,
    r: float,
    p: float,
    q: float,
) -> float:
    """Residual h_r(XY) - h_r(tY) - gap_r(Y; p, q) for 0 < X <= t a.s.

    Nonpositive up to quadrature error when the preconditions hold.  X
    must be atomic and Y lognormal: T = log XY is then a Gaussian mixture,
    and h_r(XY) is the quadrature of f_XY(z)^r = (f_T(log z) / z)^r.
    """
    if not isinstance(dY, Lognormal):
        raise UnsupportedOperation("mult_bound_check requires lognormal Y")
    if not dX.is_discrete:
        raise UnsupportedOperation("mult_bound_check requires atomic X")
    r = _check_r(r)
    t = _float(t, "t", _positive_finite, "be positive and finite")
    lambda_of(r, p, q)
    p = _float(p, "p", lambda v: v > 0.0, "be > 0", InvalidMomentOrder)
    atoms, probs = dX.atoms_and_probs()
    if np.any(atoms <= 0.0) or np.any(atoms > t * (1.0 + 1e-12)):
        raise DomainError("X must satisfy 0 < X <= t almost surely")

    log_xy = _GaussianMixture(probs, dY.mu + np.log(atoms), np.full_like(atoms, dY.sigma2))

    def integrand(z):
        lz = np.log(z)
        return np.exp(r * (log_xy.log_marginal(lz) - lz))

    h_xy = _entropy_from_integral(integrate(integrand, Domain.half_line(0.0)).value, r)
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

      moment_bound     = log Gamma(n/s + 1) + log omega(R^n)
                         + (n/s) log(e s E[||X||^s] / n),
                         valid for any s > 0 (s = 2 is the Gaussian case);

      log_moment_bound = log omega(S) + n E[log ||X||]
                         + (1/2) log(2 pi e n^2 Var(log ||X||)) on S =
                         d.support(), the r -> 1 limit of entropy_bound,
                         with equality exactly for lognormal laws.

    The log-moments' mean and variance come from central differences of
    K(s) = log E||X||^s at zero, exact for lognormal inputs because their
    cumulant function is quadratic.
    """
    lw = _check_dimension(d, d.support(), n)
    s = _float(s, "moment order s", _positive_finite, "be positive and finite")
    ls, lp, l0, lm = d.log_moments([s, _FD_STEP, 0.0, -_FD_STEP])
    if math.isinf(ls):
        raise MomentDiverges(f"E||X||^{s!r} diverges")
    moment_bound = (
        ln_gamma(n / s + 1.0)
        + log_omega(Support.euclidean(n))
        + (n / s) * (1.0 + math.log(s) + ls - math.log(n))
    )

    if math.isinf(lp) or math.isinf(l0) or math.isinf(lm):
        raise MomentDiverges("log-moments must be finite near zero")
    mean_log = (lp - lm) / (2.0 * _FD_STEP)
    # K(0) = log of the mass, which a GenericPdf has only to within 1e-6 of 0
    var_log = (lp - 2.0 * l0 + lm) / (_FD_STEP * _FD_STEP)
    if not var_log > 0.0:
        raise DomainError("Var(log ||X||) must be positive for the log-moment bound")
    log_moment_bound = lw + n * mean_log + 0.5 * (LOG_2PI + 1.0 + math.log(n * n * var_log))
    return moment_bound, log_moment_bound
