"""Self-verification suite: every closed form against an independent route.

Each check returns rows of one shape, `CheckResult(name, worst, tol,
note)`: one row per comparison, with the worst deviation seen and the
tolerance it is held to, and `passed` is `worst <= tol`.  A strict
`worst < bound` is the row's `tol = _below(bound)`, the float next to bound
on the left.  A check made of several comparisons gives one row for each,
named `<check>.<criterion>`.  The CLI `verify` command prints the rows as
data and exits nonzero if any fails; the acceptance tests assert them one
by one.

The library keeps one route per quantity.  The second routes that only
serve as oracles live here, private: the Lambert W closed form of kappa,
the Gaussian gap term Q_{r,n}(lam, z) with its lower bound, and the
direct integral of |y|^s var(f(y|W)).  The test suite imports them from
here.
"""

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import entropy_bounds as eb
from . import mi_bounds as mi
from .distributions import GaussianMagnitude, Lognormal, PointMass, TwoPoint
from .errors import DomainError, Infeasible
from .moment_core import (
    MomentVector,
    Support,
    TwoMomentParams,
    _check_n,
    _check_r,
    c_r_numeric,
    lambda_of,
    psi_r,
    two_moment_bound,
)
from .quadrature import Domain, integrate, mc_expect, rng_for
from .specfun import (
    LOG_2PI,
    _fixed_point_v,
    _float,
    beta_tilde,
    kappa,
    ln_gamma,
    log_beta,
    log_beta_tilde,
    theta,
)

__all__ = ["CheckResult", "run_verification"]


@dataclass(frozen=True)
class CheckResult:
    """One comparison: the worst deviation seen against its tolerance."""

    name: str
    worst: float
    tol: float
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "worst", float(self.worst))  # a numpy scalar, a count

    @property
    def passed(self) -> bool:
        return bool(self.worst <= self.tol)


def _below(bound: float) -> float:
    """The tol of a strict worst < bound: the float next to bound on the left."""
    return math.nextafter(bound, -math.inf)


# The note of a Monte Carlo row: worst is |deviation| / standard error, so
# its tol is a fixed number of standard errors.
_IN_SE = "|deviation| in standard errors"


# ---------------------------------------------------------------------------
# 1. Special functions
# ---------------------------------------------------------------------------


def check_reflection() -> List[CheckResult]:
    worst = max(
        abs(ln_gamma(x) + ln_gamma(1.0 - x) - math.log(math.pi / math.sin(math.pi * x)))
        for x in np.arange(0.1, 0.95, 0.1)
    )
    return [CheckResult("specfun.reflection_identity", worst, 1e-10)]


def check_theta_shape() -> List[CheckResult]:
    xs = [0.1 * 2.0**k for k in range(0, 24)]
    ts = [theta(x) for x in xs]
    worst_mono = max(ts[i + 1] - ts[i] for i in range(len(ts) - 1))
    slopes = [(ts[i + 1] - ts[i]) / (xs[i + 1] - xs[i]) for i in range(len(ts) - 1)]
    worst_conv = max(slopes[i] - slopes[i + 1] for i in range(len(slopes) - 1))
    return [CheckResult("specfun.theta_monotone_convex", max(worst_mono, worst_conv), 1e-8)]


def check_theta_asymptotic() -> List[CheckResult]:
    x = 1e6
    t = theta(x)
    # leading term 1/(12x); the next series term bounds the remainder
    return [
        CheckResult("specfun.theta_large_x.small", t, _below(1e-6), "theta(1e6) strict"),
        CheckResult("specfun.theta_large_x.leading_term", abs(t - 1.0 / (12.0 * x)),
                    10.0 / (360.0 * x**3), "|theta(1e6) - 1/(12x)|"),
    ]


def check_beta_tilde_identity() -> List[CheckResult]:
    # the library's Binet form against the definition B(x, y) (x+y)^(x+y) x^-x y^-y,
    # term by term, on arguments too moderate for those terms to cancel badly
    grid = [0.3, 1.0, 2.7, 10.5, 100.0]
    worst = max(
        abs(log_beta_tilde(x, y) - log_beta(x, y) - (x + y) * math.log(x + y)
            + x * math.log(x) + y * math.log(y))
        for x in grid for y in grid
    )
    return [CheckResult("specfun.beta_tilde_binet_identity", worst, 1e-10)]


def check_beta_tilde_lower_bound() -> List[CheckResult]:
    grid = [0.2, 0.7, 1.0, 3.0, 12.0]
    worst = max((x + y) / (x * y) - beta_tilde(x, y) for x in grid for y in grid)
    return [CheckResult("specfun.beta_tilde_lower_bound", worst, 1e-12)]


# Lambert W, principal branch: the independent route to kappa.

# Taylor coefficients of W around the branch point in p = sqrt(2 (1 + e z)).
_BRANCH_SERIES = (-1.0, 1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0,
                  769.0 / 17280.0, -221.0 / 8505.0)


def _lambert_w0(z: float) -> float:
    """Principal branch W_0 of the Lambert W function for z >= -1/e.

    Returns the solution w >= -1 of w exp(w) = z.  Halley iteration from a
    piecewise initial guess; near the branch point the series in
    p = sqrt(2 (1 + e z)) is used, both as the guess and (for tiny p) as
    the result, since the iteration loses its footing where W'(z) blows up.

    The residual satisfies |w exp(w) - z| <= 1e-12 * max(1, |z|).
    """
    z = _float(z, "the z of lambert_w0", lambda v: not math.isnan(v), "be >= -1/e")
    ez1 = 1.0 + math.e * z        # >= 0 on the domain, up to rounding
    if ez1 < 0.0:
        if ez1 > -1e-12:
            ez1 = 0.0
        else:
            raise DomainError(f"lambert_w0 requires z >= -1/e, got {z!r}")
    if ez1 == 0.0:
        return -1.0

    p = math.sqrt(2.0 * ez1)
    if p < 1e-4:
        # So close to the branch point that the series is already at
        # full double precision.
        w = 0.0
        for c in reversed(_BRANCH_SERIES):
            w = w * p + c
        return w

    # Initial guess.
    if z < -0.25:
        w = 0.0
        for c in reversed(_BRANCH_SERIES):
            w = w * p + c
    elif z < 1.0:
        # Pade-flavoured guess, good to a few percent on (-0.25, 1).
        w = z * (1.0 - z * (1.0 - 1.5 * z) / (1.0 + z))
    else:
        lz = math.log(z)
        llz = math.log(lz) if lz > 1.0 else 0.0
        w = lz - llz

    for _ in range(64):
        ew = math.exp(w)
        f = w * ew - z
        w1 = w + 1.0
        # Halley step: f / (f' - f f'' / (2 f'))
        denom = ew * w1 - (w + 2.0) * f / (2.0 * w1)
        step = f / denom
        w -= step
        if abs(step) <= 1e-14 * max(1.0, abs(w)):
            break
    return w


def _kappa_via_lambert(t: float) -> float:
    """kappa(t) through the closed form u*_t = exp(W(-(1/t) e^(-1/t)) + 1/t) - 1.

    Independent of the Newton route in kappa(); used as a cross-check.
    Loses accuracy as t -> 1 (the W argument approaches the branch point)
    and overflows for t small enough that u*_t does; prefer kappa().
    """
    t = _float(t, "t", lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
    if t == 1.0:
        return 1.0
    arg = -(1.0 / t) * math.exp(-1.0 / t)
    u = math.expm1(_lambert_w0(arg) + 1.0 / t)
    return math.log1p(u) / u**t


def check_lambert_residuals() -> List[CheckResult]:
    zs = [-1.0 / math.e, -0.367, -0.2, -1e-6, 0.0, 1e-6, 0.5, math.e, 10.0, 1e4, 1e8]
    worst = 0.0
    for z in zs:
        w = _lambert_w0(z)
        worst = max(worst, abs(w * math.exp(w) - z) / max(1.0, abs(z)))
    return [CheckResult("specfun.lambert_w_residuals", worst, 1e-12)]


def check_kappa_properties() -> List[CheckResult]:
    ts = np.geomspace(1e-3, 1.0, 40)
    worst_bounds = -math.inf
    for t in ts:
        k = kappa(t)
        worst_bounds = max(worst_bounds, 1.0 / (math.e * t) - k, k - 1.0 / t)
    gs = [t * kappa(t) for t in ts]
    name = "specfun.kappa_bounds_and_monotone_g"
    # The strict lower bound closes to within rounding as t -> 0 (the
    # limit is equality), so it is verified up to 1e-9 absolute.
    return [
        CheckResult(f"{name}.exact_at_one", abs(kappa(1.0) - 1.0), 0.0),
        CheckResult(f"{name}.bounds", worst_bounds, 1e-9, "1/(e t) <= kappa(t) <= 1/t"),
        CheckResult(f"{name}.g_monotone", max(gs[i] - gs[i + 1] for i in range(len(gs) - 1)),
                    1e-10, "g(t) = t kappa(t)"),
        CheckResult(f"{name}.g_limit", abs(0.001 * kappa(0.001) - 1.0 / math.e), 2e-2,
                    "|g(1e-3) - 1/e|"),
    ]


def check_kappa_two_solvers() -> List[CheckResult]:
    worst_agree = 0.0
    worst_resid = 0.0
    for t in np.arange(0.05, 0.96, 0.05):
        worst_agree = max(worst_agree, abs(kappa(t) - _kappa_via_lambert(t)))
        u = math.expm1(_fixed_point_v(float(t)))  # u*_t from the solver kappa uses
        resid = abs(u - t * (1.0 + u) * math.log1p(u)) / max(1.0, u)
        worst_resid = max(worst_resid, resid)
    return [
        CheckResult("specfun.kappa_newton_vs_lambert.agreement", worst_agree, 1e-9),
        CheckResult("specfun.kappa_newton_vs_lambert.newton_residual", worst_resid, 1e-12),
    ]


# ---------------------------------------------------------------------------
# 2. Two-moment inequality validity and the psi oracle
# ---------------------------------------------------------------------------


def _test_densities():
    ln = Lognormal(0.0, 1.0)
    return [
        ("exp", lambda x: np.exp(-x)),
        ("gamma2", lambda x: x * np.exp(-x)),
        ("lognormal", ln.pdf),
        ("halfnormal", lambda x: math.sqrt(2.0 / math.pi) * np.exp(-0.5 * x * x)),
    ]


def _rpq_grid():
    out = []
    for r in (0.3, 0.5, 0.7):
        pivot = 1.0 / r - 1.0
        for pf in (-0.3, 0.0, 0.5):
            for qf in (1.5, 2.0, 3.0):
                out.append((r, pivot * pf, pivot * qf))
    return out


def check_prop2_validity() -> List[CheckResult]:
    half = Domain.half_line(0.0)
    sup = Support.positive_half_line()
    worst = -math.inf
    cases = 0
    for _, pdf in _test_densities():
        for r, p, q in _rpq_grid():
            mu_p = integrate(lambda x: x**p * pdf(x), half).value
            mu_q = integrate(lambda x: x**q * pdf(x), half).value
            norm_r = integrate(lambda x: pdf(x) ** r, half).value ** (1.0 / r)
            bound = two_moment_bound(mu_p, mu_q, TwoMomentParams(r, p, q), sup)
            worst = max(worst, norm_r - bound)
            cases += 1
    return [CheckResult("moment_core.prop2_validity", worst, 1e-9, f"{cases} cases")]


def check_psi_vs_cr_oracle() -> List[CheckResult]:
    worst = 0.0
    for r, p, q in _rpq_grid():
        lam = lambda_of(r, p, q)
        c = c_r_numeric(r, MomentVector((p, q), (1.0, 1.0)))
        oracle = (c * lam**-lam * (1.0 - lam) ** (lam - 1.0)) ** (r / (1.0 - r))
        closed = psi_r(TwoMomentParams(r, p, q))
        worst = max(worst, abs(oracle - closed) / closed)
    return [CheckResult("moment_core.psi_matches_cr_quadrature", worst, 1e-6, "27 cases")]


# ---------------------------------------------------------------------------
# 3. Lognormal gap
# ---------------------------------------------------------------------------


def _lognormal_gap_btilde(r: float) -> float:
    """The published B~ form of the optimal lognormal gap,
    log(B~(a, a) sqrt(r / (4(1-r)))) + 1/2 - (1/2) log(2 pi r^(1/(r-1))),
    a = r/(2(1-r)); algebraically equal to eb.lognormal_gap_closed."""
    a = 0.5 * r / (1.0 - r)
    return (
        log_beta_tilde(a, a)
        + 0.5 * math.log(r / (4.0 * (1.0 - r)))
        + 0.5
        - 0.5 * (LOG_2PI + math.log(r) / (r - 1.0))
    )


def check_lognormal_forms() -> List[CheckResult]:
    worst = max(
        abs(eb.lognormal_gap_closed(r) - _lognormal_gap_btilde(r))
        for r in np.arange(0.1, 0.95, 0.1)
    )
    return [CheckResult("entropy.lognormal_gap_two_forms", worst, 1e-10)]


def check_lognormal_optimizer() -> List[CheckResult]:
    r = 0.5
    target = eb.lognormal_gap_closed(r)
    sup = Support.positive_half_line()
    gaps = [
        eb.optimal_gap(Lognormal(mu, s2), sup, 1, r).gap
        for mu, s2 in ((0.0, 1.0), (3.0, 2.0), (-1.0, 0.25))
    ]
    return [
        CheckResult("entropy.lognormal_optimal_gap.vs_closed_form",
                    max(abs(g - target) for g in gaps), 1e-4),
        CheckResult("entropy.lognormal_optimal_gap.parameter_spread",
                    max(gaps) - min(gaps), 2e-4),
    ]


def check_lognormal_r_to_one() -> List[CheckResult]:
    return [CheckResult("entropy.lognormal_gap_vanishes", eb.lognormal_gap_closed(0.999), 1e-2)]


# ---------------------------------------------------------------------------
# 4. Gaussian gap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _GaussGapParams:
    """(r, n, lam, z) with the finiteness condition
    (1 - lam) sqrt(2 (1-r) z / (lam (1-lam) n)) < 1, i.e. the lower
    log-gamma argument in Q stays positive."""

    r: float
    n: int
    lam: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "r", _check_r(self.r))
        _check_n(self.n)
        if not (0.0 < self.lam < 1.0 and self.z > 0.0):
            raise DomainError("need lam in (0, 1) and z > 0")
        guard = (1.0 - self.lam) * math.sqrt(
            2.0 * (1.0 - self.r) * self.z / (self.lam * (1.0 - self.lam) * self.n)
        )
        if not guard < 1.0:
            raise Infeasible(
                f"(1-lam) sqrt(2 (1-r) z / (lam (1-lam) n)) = {guard!r} >= 1"
            )


def _gaussian_Q(gp: _GaussGapParams) -> float:
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


def _gaussian_Q_lower_bound(gp: _GaussGapParams) -> float:
    """(z/2) / (1 + sqrt(lam/(1-lam) * b z)), b = 2(1-r)/(9n); the convexity
    lower bound on Q whose large-n limit z/2 matches Q's."""
    b = 2.0 * (1.0 - gp.r) / (9.0 * gp.n)
    return 0.5 * gp.z / (1.0 + math.sqrt(gp.lam / (1.0 - gp.lam) * b * gp.z))


def check_gaussian_q_lower_bound() -> List[CheckResult]:
    worst = -math.inf
    cases = 0
    for r in (0.1, 0.5, 0.9):
        for n in (1, 4, 16, 64):
            for lam in (0.25, 0.5, 0.75):
                for z in (0.25, 1.0, 4.0):
                    try:
                        gp = _GaussGapParams(r, n, lam, z)
                    except Infeasible:
                        continue
                    worst = max(worst, _gaussian_Q_lower_bound(gp) - _gaussian_Q(gp))
                    cases += 1
    return [CheckResult("entropy.gaussian_Q_lower_bound", worst, 1e-12, f"{cases} feasible")]


def check_gaussian_q_limit() -> List[CheckResult]:
    gp = _GaussGapParams(0.5, 10**4, 0.5, 1.0)
    return [CheckResult("entropy.gaussian_Q_large_n", abs(_gaussian_Q(gp) - 0.5), 2e-2)]


def check_prop6_limit() -> List[CheckResult]:
    from .sweeps import fig2_rows

    _, rows = fig2_rows(0.1, 256)
    gaps = [row[1] for row in rows]
    return [
        CheckResult("entropy.prop6_gaussian_to_lognormal.monotone",
                    max(gaps[i] - gaps[i + 1] for i in range(len(gaps) - 1)), 1e-9),
        CheckResult("entropy.prop6_gaussian_to_lognormal.limit",
                    abs(rows[-1][1] - rows[-1][3]), _below(0.05),
                    "|gap(256) - lognormal| strict"),
    ]


# ---------------------------------------------------------------------------
# 5. Differential-entropy corollaries
# ---------------------------------------------------------------------------


def check_diff_entropy_gaussian() -> List[CheckResult]:
    moment_bound, _ = eb.diff_entropy_bounds(GaussianMagnitude(1), 1, 2.0)
    target = 0.5 * math.log(2.0 * math.pi * math.e)
    return [CheckResult("entropy.h_moment_bound_unit_normal", abs(moment_bound - target), 1e-8)]


def check_diff_entropy_lognormal() -> List[CheckResult]:
    worst = 0.0
    for mu, s2 in ((0.0, 1.0), (0.7, 2.3)):
        d = Lognormal(mu, s2)
        _, log_bound = eb.diff_entropy_bounds(d, 1, 2.0)
        worst = max(worst, abs(log_bound - d.shannon_entropy()))
    return [CheckResult("entropy.h_logmoment_equality_lognormal", worst, 1e-6)]


# ---------------------------------------------------------------------------
# 6. Mutual-information ordering on the AWGN channel
# ---------------------------------------------------------------------------


def check_awgn_oracle() -> List[CheckResult]:
    worst = 0.0
    for s2 in (0.5, 1.0, 4.0):
        ch = mi.ScaleMixtureChannel(PointMass(s2))
        worst = max(worst, abs(mi.mi_oracle(ch, "X") - 0.5 * math.log1p(s2)))
    return [CheckResult("mi.awgn_capacity_identity", worst, 1e-6)]


def check_awgn_ordering() -> List[CheckResult]:
    worst = -math.inf
    for s2 in (0.5, 1.0, 4.0):
        ch = mi.ScaleMixtureChannel(PointMass(s2))
        val = mi.mi_oracle(ch, "X")
        bounds = [mi.prop7_bound(ch, t, "X") for t in (0.3, 0.5, 0.8, 1.0)]
        bounds += [mi.prop8_bound(ch, r, "X") for r in (0.3, 0.5, 0.8)]
        bounds.append(mi.prop9_bound(ch, 0.0, 2.0, "X"))
        bounds.append(mi.chi2_mi_bound(ch, "X"))
        worst = max(worst, val - min(bounds))
    return [CheckResult("mi.awgn_bound_ordering", worst, 1e-9)]


# ---------------------------------------------------------------------------
# 7. V_s identities
# ---------------------------------------------------------------------------


def _log_abs_pow(y, s: float):
    """s log|y|, the log of the weight |y|^s (-inf at y = 0 when s > 0)."""
    if s == 0.0:
        return 0.0
    with np.errstate(divide="ignore"):
        return np.where(y != 0.0, s * np.log(np.abs(y)), -np.inf)


def _V_s_quadrature(ch, s: float, given: str = "X", scale: float = 1.0) -> float:
    """Direct integral int |y|^s var(f(y|W)) dy for the (optionally scaled)
    output scale * Y; the independent route used to validate the kernel
    decomposition and the |a|^(s-n) scaling law."""
    if scale == 0.0:
        raise DomainError("scale must be nonzero")
    model = mi.variance_model(ch, given)
    a = abs(scale)

    def integrand(y):
        lv = model.log_var(np.asarray(y) / a) - 2.0 * math.log(a)
        return np.exp(_log_abs_pow(y, s) + lv)

    return integrate(integrand, Domain.full_line()).value


def check_vs_decomposition() -> List[CheckResult]:
    d = TwoPoint(0.3, 2.5)
    ch = mi.AwgnChannel(d)
    # s = 0: direct integral vs Monte Carlo over the kernel expectation
    # E[K_0(X, X) - K_0(X1, X2)].
    direct0 = _V_s_quadrature(ch, 0.0, "X")
    k_diag = 1.0 / (2.0 * math.sqrt(math.pi))

    def g(x1, x2):
        return k_diag - k_diag * np.exp(-0.25 * (x1 - x2) ** 2)

    res = mc_expect(g, d.sample, 2)
    # s = 2: direct integral vs exact kernel sums.
    kernel2 = mi.V_s(ch, 2.0, "X").value
    return [
        CheckResult("mi.vs_kernel_decomposition.s0_vs_monte_carlo",
                    abs(direct0 - res.value) / res.standard_error, 4.0, _IN_SE),
        CheckResult("mi.vs_kernel_decomposition.s2_vs_kernel_sums",
                    abs(_V_s_quadrature(ch, 2.0, "X") - kernel2) / kernel2, 1e-6, "relative"),
    ]


def check_vs_scaling_law() -> List[CheckResult]:
    ch = mi.ScaleMixtureChannel(TwoPoint(0.4, 3.0))
    worst = 0.0
    for s in (0.0, 2.0):
        base = _V_s_quadrature(ch, s, "U")
        for a in (0.5, 2.0, 3.0):
            scaled = _V_s_quadrature(ch, s, "U", scale=a)
            worst = max(worst, abs(scaled - a ** (s - 1.0) * base) / base)
    return [CheckResult("mi.vs_scaling_law", worst, 1e-8)]


def check_vs_constant_mixture() -> List[CheckResult]:
    worst = 0.0
    for c in (0.5, 1.0, 4.0):
        ch = mi.ScaleMixtureChannel(PointMass(c))
        closed = mi.V_s(ch, 0.0, "X").value
        gauss = (1.0 - 1.0 / math.sqrt(1.0 + c)) / (2.0 * math.sqrt(math.pi))
        worst = max(worst, abs(closed - gauss))
    return [CheckResult("mi.vs_constant_mixture_vs_awgn", worst, 1e-9)]


def check_vs_upper_bound() -> List[CheckResult]:
    worst = -math.inf
    for eps, a in ((0.5, 3.0), (0.1, 11.0)):
        ch = mi.ScaleMixtureChannel(TwoPoint(eps, a))
        for s in (0.0, 2.0):
            worst = max(worst, -mi.vs_upper_bound_check(ch, s))
    return [CheckResult("mi.vs_given_u_upper_bound", worst, 1e-12)]


# ---------------------------------------------------------------------------
# 8. Figure-3 phenomenon
# ---------------------------------------------------------------------------


def check_fig3_phenomenon() -> List[CheckResult]:
    from .sweeps import fig3_rows

    _, rows = fig3_rows()
    eps = np.array([row[0] for row in rows])
    mi_vals = np.array([row[1] for row in rows])
    p9 = np.array([row[2] for row in rows])
    c2 = np.array([row[3] for row in rows])

    low = p9[eps <= 0.25]  # the eps -> 0 regime the limit statement covers
    name = "mi.fig3_two_moment_beats_chi2"
    # b - a < 0 exactly when b < a: float subtraction of unequal values is never 0
    return [
        CheckResult(f"{name}.prop9_increasing", np.max(-np.diff(low)), _below(0.0),
                    "eps <= 0.25 strict"),
        CheckResult(f"{name}.prop9_to_zero", p9[0], _below(0.02), "smallest eps strict"),
        CheckResult(f"{name}.chi2_above", p9[0] - c2.min(), _below(0.0),
                    "prop9 at smallest eps - min chi2 strict"),
        CheckResult(f"{name}.mi_below_prop9", np.max(mi_vals - p9), 1e-9),
        CheckResult(f"{name}.mi_below_chi2", np.max(mi_vals - c2), 1e-9),
    ]


# ---------------------------------------------------------------------------
# 9. Determinism / oracle self-consistency
# ---------------------------------------------------------------------------


def check_mc_determinism() -> List[CheckResult]:
    d = Lognormal(0.0, 1.0)
    a = mc_expect(lambda x: np.log(x), d.sample)
    b = mc_expect(lambda x: np.log(x), d.sample)
    draws = [d.sample(rng_for(), 1000) for _ in range(2)]
    return [
        CheckResult("quadrature.mc_determinism.value", abs(a.value - b.value), 0.0),
        CheckResult("quadrature.mc_determinism.standard_error",
                    abs(a.standard_error - b.standard_error), 0.0),
        CheckResult("quadrature.mc_determinism.draws",
                    np.max(np.abs(draws[0] - draws[1])), 0.0),
    ]


def check_sweep_determinism() -> List[CheckResult]:
    from .sweeps import fig3_rows

    grid = [1e-3, 1e-2, 0.1]
    _, rows1 = fig3_rows(grid)
    _, rows2 = fig3_rows(grid)
    differ = sum(a != b for a, b in zip(rows1, rows2)) + abs(len(rows1) - len(rows2))
    return [CheckResult("sweeps.fig3_repeatable", differ, 0.0, "rows that differ")]


def check_mc_quadrature_agreement() -> List[CheckResult]:
    d = Lognormal(0.0, 0.25)

    def g(x):
        return 1.0 / (1.0 + x)

    res = mc_expect(g, d.sample)
    quad = integrate(lambda x: g(x) * d.pdf(x), Domain.half_line(0.0)).value
    return [CheckResult("quadrature.mc_vs_quadrature",
                        abs(res.value - quad) / res.standard_error, 4.0, _IN_SE)]


_CHECKS: List[Callable] = [
    check_reflection,
    check_theta_shape,
    check_theta_asymptotic,
    check_beta_tilde_identity,
    check_beta_tilde_lower_bound,
    check_lambert_residuals,
    check_kappa_properties,
    check_kappa_two_solvers,
    check_prop2_validity,
    check_psi_vs_cr_oracle,
    check_lognormal_forms,
    check_lognormal_optimizer,
    check_lognormal_r_to_one,
    check_gaussian_q_lower_bound,
    check_gaussian_q_limit,
    check_prop6_limit,
    check_diff_entropy_gaussian,
    check_diff_entropy_lognormal,
    check_awgn_oracle,
    check_awgn_ordering,
    check_vs_decomposition,
    check_vs_scaling_law,
    check_vs_constant_mixture,
    check_vs_upper_bound,
    check_fig3_phenomenon,
    check_mc_determinism,
    check_sweep_determinism,
    check_mc_quadrature_agreement,
]


def run_verification() -> List[CheckResult]:
    """Run every check; failures are reported in the rows, not raised."""
    results = []
    for fn in _CHECKS:
        try:
            results += fn()
        except Exception as exc:  # a crash is one failed row, not a crash of verify
            note = f"raised {exc!r}".replace(",", ";")  # the CSV has no quoting
            results.append(CheckResult(fn.__name__, math.inf, 0.0, note))
    return results
