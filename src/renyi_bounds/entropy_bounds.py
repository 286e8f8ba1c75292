"""Renyi-entropy upper bounds and their optimality gaps.

The basic bound, for a random vector X with a density on S and any
0 < r < 1, p < 1/r - 1 < q, is

    h_r(X) <= log omega(S) + log psi_r(p, q) + L_r(||X||^n; p, q),

and the gap of the bound at (p, q) is the right side minus h_r(X).
Optimal gaps are searched by Newton's method in the wedge coordinates

    (a, b) = (log(m - p), log(q - m)),   m = (1-r)/r,

which map the valid wedge p < m < q onto the whole plane: the p = 0
search runs in b alone, the two-moment search in (a, b) from the p = 0
optimum.  Every gap has one route: the bound at (p, q) minus the
entropy, as entropy_bound and optimal_gap compute it.  The optimal
lognormal gap is kept in closed form, as lognormal_gap_closed with its
derivation; the closed forms of the gap at any (p, q) (lognormal, and
Gaussian through Q_{r,n}(lam, z)) are oracles for that route and live in
verify and the tests.
"""

import itertools
import math
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
from .specfun import LOG_2PI, _float, _positive_finite, theta

__all__ = [
    "BoundReport",
    "entropy_bound",
    "lognormal_gap_closed",
    "optimal_gap",
    "mult_bound_check",
    "diff_entropy_bounds",
]


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the entropy bound (all values in nats), at given
    (p, q) or at the optimum optimal_gap found; its optimizer_trace holds
    one (p, q, gap) entry per accepted Newton step, the start first and
    the optimum last, and is empty for a bound at given (p, q)."""

    r: float
    p: float
    q: float
    n: int
    bound: float
    entropy: Optional[float]  # None when the family has no density
    gap: Optional[float]
    optimizer_trace: Tuple[tuple, ...] = ()


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


def _gaps_at(
    d: ScalarDistribution,
    log_omega_s: float,
    n: int,
    r: float,
    points: List[Tuple[float, float]],
    entropy: float,
) -> List[float]:
    """Gaps of the bound at explicit (p, q) points; +inf at a point that is
    invalid or divergent, or whose gap reads below 0: the theorem makes
    every gap at least 0, so such a point has wrong moments.  The
    log-moments of all points come from one d.log_moments call."""
    params, orders, refused = [], [], []
    for p, q in points:
        try:
            params.append(TwoMomentParams._make((r, p, q, lambda_of(r, p, q))))
        except InvalidMomentOrder:
            refused.append(len(params) + len(refused))  # the index of (p, q)
        else:
            orders += (n * p, n * q)
    logs = iter(d.log_moments(orders))
    gaps = []
    for prm in params:
        gap = _log_two_moment(log_omega_s, prm, next(logs), next(logs)) - entropy
        gaps.append(gap if gap >= 0.0 else math.inf)
    for i in refused:  # in ascending order, so each lands at its own index
        gaps.insert(i, math.inf)
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
    """Optimal two-moment gap for the lognormal family; (mu, sigma2)-free.

    With m = (1-r)/r, lam = (q - m)/(q - p) and
    u = r lam (1-lam) (q - p)^2 / (1-r), the gap of Lognormal(mu, s2) at
    (p, q) separates:

        gap = theta(r lam/(1-r)) + theta(r(1-lam)/(1-r)) - theta(r/(1-r))
              + (u s2 - log(u s2)) / 2 + log(r) / (2 (1-r)),

    least at lam = 1/2, u = 1/s2:

        2 theta(r/(2(1-r))) - theta(r/(1-r)) + (1 + log r/(1-r)) / 2.

    verify checks it against the published B~ form of the same constant.
    """
    r = _check_r(r)
    a = 0.5 * r / (1.0 - r)
    return 2.0 * theta(a) - theta(2.0 * a) + 0.5 * (1.0 + math.log(r) / (1.0 - r))


# ---------------------------------------------------------------------------
# Gap optimization (generic families)
# ---------------------------------------------------------------------------

def _newton(fun, x: tuple, fx: float) -> List[Tuple[tuple, float]]:
    """Damped Newton descent of fun from x, fx = fun([x])[0]: the path of
    accepted points, x first and the least value last.

    fun maps a list of points (tuples of k = 1 or 2 floats) to their
    values, +inf where infeasible.  Each step takes the gradient g and
    Hessian H from central differences over the 3^k stencil of spacing
    1e-3 around x, in one fun call.  A Hessian that is not positive
    definite is shifted to least eigenvalue max|g_i| / 2; the step solves
    H s = -g in closed form, is scaled to at most 2 in every coordinate,
    and is halved until the value strictly falls, down to 1e-6 of it
    (Nocedal and Wright, Numerical Optimization, 2nd ed., ch. 3).  The
    search stops when g.H^-1.g < 2e-13, at a zero gradient, at a stencil
    point that is +inf, or at a step that does not fall (the values'
    rounding noise).  It raises OptimizerNoConverge where the stencil is
    flat along a coordinate (the spacing no longer moves (p, q), or the
    rounding of the values hides the move), where the differences or the
    step overflow, and after 100 steps.  Every accepted value is strictly
    below the one before.
    """
    k, h = len(x), 1e-3
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=k) if any(o)]
    axes = [((1,), (-1,))] if k == 1 else [((1, 0), (-1, 0)), ((0, 1), (0, -1))]
    path = [(x, fx)]
    for _ in range(100):
        f = dict(zip(offsets, fun([tuple(xi + h * oi for xi, oi in zip(x, o)) for o in offsets])))
        if not all(v < math.inf for v in f.values()):
            return path
        if any(f[e] == fx == f[ne] for e, ne in axes):
            raise OptimizerNoConverge(f"the gap is flat to rounding along a coordinate at {x!r}")
        g = [(f[e] - f[ne]) / (2.0 * h) for e, ne in axes]
        hd = [(f[e] - 2.0 * fx + f[ne]) / (h * h) for e, ne in axes]
        if k == 1:
            h12, least = 0.0, hd[0]
        else:
            h12 = (f[(1, 1)] - f[(1, -1)] - f[(-1, 1)] + f[(-1, -1)]) / (4.0 * h * h)
            least = 0.5 * (hd[0] + hd[1]) - math.hypot(0.5 * (hd[0] - hd[1]), h12)
        if not all(abs(v) < math.inf for v in (*g, *hd, h12, least)):  # inf, or nan
            raise OptimizerNoConverge(f"the gap's differences overflow at {x!r}")
        gmax = max(map(abs, g))
        if gmax == 0.0:
            return path
        if least <= 0.0:
            hd = [v + 0.5 * gmax - least for v in hd]
        if k == 1:
            s = [-g[0] / hd[0]]
        else:
            det = hd[0] * hd[1] - h12 * h12
            if not 0.0 < det < math.inf:
                raise OptimizerNoConverge(f"the Newton step overflows at {x!r}")
            s = [(h12 * g[1] - hd[1] * g[0]) / det, (h12 * g[0] - hd[0] * g[1]) / det]
        decrement = -sum(gi * si for gi, si in zip(g, s))
        if not decrement < math.inf:
            raise OptimizerNoConverge(f"the Newton step overflows at {x!r}")
        if decrement < 2e-13:
            return path
        cap = max(1.0, 0.5 * max(map(abs, s)))
        t = 1.0
        while t >= 1e-6:
            y = tuple(xi + t * si / cap for xi, si in zip(x, s))
            (fy,) = fun([y])
            if fy < fx:
                break
            t *= 0.5
        else:
            return path
        x, fx = y, fy
        path.append((x, fx))
    raise OptimizerNoConverge(f"the gap search took 100 Newton steps and stopped at {x!r}")


def optimal_gap(
    d: ScalarDistribution,
    sup: Support,
    n: int,
    r: float,
    constrain_p_zero: bool = False,
) -> BoundReport:
    """Optimized gap Delta_r (over p, q) or Delta~_r (over q at p = 0).

    Both searches are _newton in the wedge coordinates
    (a, b) = (log(m - p), log(q - m)), m = (1-r)/r, which map the valid
    wedge p < m < q onto the whole plane.  The p = 0 search runs in b
    alone from q = 2m, stepping b down by 1 (up to 60 times) while that
    moment diverges.  The two-moment search runs in (a, b) from the p = 0
    optimum and accepts only strict decreases, so Delta_r <= Delta~_r.
    A search that cannot converge raises OptimizerNoConverge.
    """
    r = _check_r(r)
    lw = _check_dimension(d, sup, n)
    h = d.renyi_entropy(r)
    m = (1.0 - r) / r

    def pq(x):  # x = (b,) at p = 0, or (a, b); q = inf where e^a or e^b overflows
        try:
            return m - math.exp(x[0]) if len(x) == 2 else 0.0, m + math.exp(x[-1])
        except OverflowError:
            return 0.0, math.inf

    def gaps(points):
        return _gaps_at(d, lw, n, r, [pq(x) for x in points], h)

    x = (math.log(m),)
    for _ in range(60):
        (best,) = gaps([x])
        if best < math.inf:
            break
        x = (x[0] - 1.0,)
    else:
        raise OptimizerNoConverge("no feasible q found for the p = 0 bound")
    path = _newton(gaps, x, best)
    if not constrain_p_zero:
        (b,), best = path[-1]
        path += _newton(gaps, (math.log(m), b), best)[1:]
    trace = [pq(x) + (f,) for x, f in path]
    p, q, best = trace[-1]
    return BoundReport(r, p, q, n, h + best, h, best, tuple(trace))


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

      moment_bound     = log Gamma(N + 1) + log omega(R^n)
                         + N log(e E[||X||^s] / N) with N = n/s,
                         valid for any s > 0 (s = 2 is the Gaussian case),
                         summed in Binet's form N log E[||X||^s]
                         + (1/2) log(2 pi N) + theta(N) + log omega(R^n),
                         where the N log N terms have cancelled;

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
    N = n / s
    if N == math.inf:
        raise DomainError(f"n/s leaves the float range at s={s!r}")
    moment_bound = (
        N * ls + 0.5 * (LOG_2PI + math.log(N)) + theta(N) + log_omega(Support.euclidean(n))
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
