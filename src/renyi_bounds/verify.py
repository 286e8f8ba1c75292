"""Self-verification suite: every closed form against an independent route.

Each check pins one published identity, inequality or limit at an
explicit tolerance and reports pass/fail with the worst observed
deviation.  The CLI `verify` command prints these results and exits
nonzero if anything fails; the acceptance tests assert them one by one.

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
from .distributions import (
    GaussianMagnitude,
    Lognormal,
    PointMass,
    TwoPoint,
)
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
    name: str
    passed: bool
    detail: str


def _check(name: str, worst: float, tol: float, note: str = "") -> CheckResult:
    """Pass iff worst <= tol; detail records both."""
    passed = bool(worst <= tol)
    detail = f"worst={worst:.3e} tol={tol:.1e}"
    if note:
        detail += f" ({note})"
    return CheckResult(name, passed, detail)


# ---------------------------------------------------------------------------
# 1. Special functions
# ---------------------------------------------------------------------------


def check_reflection() -> CheckResult:
    worst = max(
        abs(ln_gamma(x) + ln_gamma(1.0 - x) - math.log(math.pi / math.sin(math.pi * x)))
        for x in np.arange(0.1, 0.95, 0.1)
    )
    return _check("specfun.reflection_identity", worst, 1e-10)


def check_theta_shape() -> CheckResult:
    xs = [0.1 * 2.0**k for k in range(0, 24)]
    ts = [theta(x) for x in xs]
    worst_mono = max(ts[i + 1] - ts[i] for i in range(len(ts) - 1))
    slopes = [(ts[i + 1] - ts[i]) / (xs[i + 1] - xs[i]) for i in range(len(ts) - 1)]
    worst_conv = max(slopes[i] - slopes[i + 1] for i in range(len(slopes) - 1))
    return _check("specfun.theta_monotone_convex", max(worst_mono, worst_conv), 1e-8)


def check_theta_asymptotic() -> CheckResult:
    x = 1e6
    t = theta(x)
    small_ok = t < 1e-6
    # leading term 1/(12x); the next series term bounds the remainder
    dev = abs(t - 1.0 / (12.0 * x))
    lead_ok = dev <= 10.0 / (360.0 * x**3)
    return CheckResult(
        "specfun.theta_large_x",
        small_ok and lead_ok,
        f"theta(1e6)={t:.6e} |dev from 1/(12x)|={dev:.1e}",
    )


def check_beta_tilde_identity() -> CheckResult:
    # the library's Binet form against the definition B(x, y) (x+y)^(x+y) x^-x y^-y,
    # term by term, on arguments too moderate for those terms to cancel badly
    grid = [0.3, 1.0, 2.7, 10.5, 100.0]
    worst = max(
        abs(log_beta_tilde(x, y) - log_beta(x, y) - (x + y) * math.log(x + y)
            + x * math.log(x) + y * math.log(y))
        for x in grid for y in grid
    )
    return _check("specfun.beta_tilde_binet_identity", worst, 1e-10)


def check_beta_tilde_lower_bound() -> CheckResult:
    grid = [0.2, 0.7, 1.0, 3.0, 12.0]
    worst = max((x + y) / (x * y) - beta_tilde(x, y) for x in grid for y in grid)
    return _check("specfun.beta_tilde_lower_bound", worst, 1e-12)


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


def check_lambert_residuals() -> CheckResult:
    zs = [-1.0 / math.e, -0.367, -0.2, -1e-6, 0.0, 1e-6, 0.5, math.e, 10.0, 1e4, 1e8]
    worst = 0.0
    for z in zs:
        w = _lambert_w0(z)
        worst = max(worst, abs(w * math.exp(w) - z) / max(1.0, abs(z)))
    return _check("specfun.lambert_w_residuals", worst, 1e-12)


def check_kappa_properties() -> CheckResult:
    exact_at_one = kappa(1.0) == 1.0
    ts = np.geomspace(1e-3, 1.0, 40)
    worst_bounds = -math.inf
    for t in ts:
        k = kappa(t)
        worst_bounds = max(worst_bounds, 1.0 / (math.e * t) - k, k - 1.0 / t)
    gs = [t * kappa(t) for t in ts]
    worst_mono = max(gs[i] - gs[i + 1] for i in range(len(gs) - 1))
    g_limit_dev = abs(0.001 * kappa(0.001) - 1.0 / math.e)
    # The strict lower bound closes to within rounding as t -> 0 (the
    # limit is equality), so it is verified up to 1e-9 absolute.
    passed = (
        exact_at_one
        and worst_bounds <= 1e-9
        and worst_mono <= 1e-10
        and g_limit_dev <= 2e-2
    )
    return CheckResult(
        "specfun.kappa_bounds_and_monotone_g",
        passed,
        f"kappa(1)==1:{exact_at_one} bound slack={-worst_bounds:.2e} "
        f"mono={worst_mono:.1e} |g(1e-3)-1/e|={g_limit_dev:.2e}",
    )


def check_kappa_two_solvers() -> CheckResult:
    worst_agree = 0.0
    worst_resid = 0.0
    for t in np.arange(0.05, 0.96, 0.05):
        worst_agree = max(worst_agree, abs(kappa(t) - _kappa_via_lambert(t)))
        u = math.expm1(_fixed_point_v(float(t)))  # u*_t from the solver kappa uses
        resid = abs(u - t * (1.0 + u) * math.log1p(u)) / max(1.0, u)
        worst_resid = max(worst_resid, resid)
    passed = worst_agree <= 1e-9 and worst_resid <= 1e-12
    return CheckResult(
        "specfun.kappa_newton_vs_lambert",
        passed,
        f"agree={worst_agree:.2e} (tol 1e-9), residual={worst_resid:.2e} (tol 1e-12)",
    )


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


def check_prop2_validity() -> CheckResult:
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
    return _check("moment_core.prop2_validity", worst, 1e-9, f"{cases} cases")


def check_psi_vs_cr_oracle() -> CheckResult:
    worst = 0.0
    for r, p, q in _rpq_grid():
        lam = lambda_of(r, p, q)
        c = c_r_numeric(r, MomentVector((p, q), (1.0, 1.0)))
        oracle = (c * lam**-lam * (1.0 - lam) ** (lam - 1.0)) ** (r / (1.0 - r))
        closed = psi_r(TwoMomentParams(r, p, q))
        worst = max(worst, abs(oracle - closed) / closed)
    return _check("moment_core.psi_matches_cr_quadrature", worst, 1e-6, "27 cases")


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


def check_lognormal_forms() -> CheckResult:
    worst = max(
        abs(eb.lognormal_gap_closed(r) - _lognormal_gap_btilde(r))
        for r in np.arange(0.1, 0.95, 0.1)
    )
    return _check("entropy.lognormal_gap_two_forms", worst, 1e-10)


def check_lognormal_optimizer() -> CheckResult:
    r = 0.5
    target = eb.lognormal_gap_closed(r)
    sup = Support.positive_half_line()
    gaps = [
        eb.optimal_gap(Lognormal(mu, s2), sup, 1, r).gap
        for mu, s2 in ((0.0, 1.0), (3.0, 2.0), (-1.0, 0.25))
    ]
    worst = max(abs(g - target) for g in gaps)
    spread = max(gaps) - min(gaps)
    passed = worst <= 1e-4 and spread <= 2e-4
    return CheckResult(
        "entropy.lognormal_optimal_gap",
        passed,
        f"|gap-closed|={worst:.2e} (tol 1e-4), spread={spread:.2e} (tol 2e-4)",
    )


def check_lognormal_r_to_one() -> CheckResult:
    return _check("entropy.lognormal_gap_vanishes", eb.lognormal_gap_closed(0.999), 1e-2)


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


def check_gaussian_q_lower_bound() -> CheckResult:
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
    return _check("entropy.gaussian_Q_lower_bound", worst, 1e-12, f"{cases} feasible")


def check_gaussian_q_limit() -> CheckResult:
    gp = _GaussGapParams(0.5, 10**4, 0.5, 1.0)
    return _check("entropy.gaussian_Q_large_n", abs(_gaussian_Q(gp) - 0.5), 2e-2)


def check_prop6_limit() -> CheckResult:
    from .sweeps import fig2_rows

    _, rows = fig2_rows(0.1, 256)
    gaps = [row[1] for row in rows]
    worst_mono = max(gaps[i] - gaps[i + 1] for i in range(len(gaps) - 1))
    final_dev = abs(rows[-1][1] - rows[-1][3])
    passed = worst_mono <= 1e-9 and final_dev < 0.05
    return CheckResult(
        "entropy.prop6_gaussian_to_lognormal",
        passed,
        f"monotone slack={worst_mono:.1e}, |gap(256)-lognormal|={final_dev:.3e} (tol 0.05)",
    )


# ---------------------------------------------------------------------------
# 5. Differential-entropy corollaries
# ---------------------------------------------------------------------------


def check_diff_entropy_gaussian() -> CheckResult:
    moment_bound, _ = eb.diff_entropy_bounds(GaussianMagnitude(1), 1, 2.0)
    target = 0.5 * math.log(2.0 * math.pi * math.e)
    return _check("entropy.h_moment_bound_unit_normal", abs(moment_bound - target), 1e-8)


def check_diff_entropy_lognormal() -> CheckResult:
    worst = 0.0
    for mu, s2 in ((0.0, 1.0), (0.7, 2.3)):
        d = Lognormal(mu, s2)
        _, log_bound = eb.diff_entropy_bounds(d, 1, 2.0)
        worst = max(worst, abs(log_bound - d.shannon_entropy()))
    return _check("entropy.h_logmoment_equality_lognormal", worst, 1e-6)


# ---------------------------------------------------------------------------
# 6. Mutual-information ordering on the AWGN channel
# ---------------------------------------------------------------------------


def check_awgn_oracle() -> CheckResult:
    worst = 0.0
    for s2 in (0.5, 1.0, 4.0):
        ch = mi.ScaleMixtureChannel(PointMass(s2))
        worst = max(worst, abs(mi.mi_oracle(ch, "X") - 0.5 * math.log1p(s2)))
    return _check("mi.awgn_capacity_identity", worst, 1e-6)


def check_awgn_ordering() -> CheckResult:
    worst = -math.inf
    for s2 in (0.5, 1.0, 4.0):
        ch = mi.ScaleMixtureChannel(PointMass(s2))
        val = mi.mi_oracle(ch, "X")
        bounds = [mi.prop7_bound(ch, t, "X") for t in (0.3, 0.5, 0.8, 1.0)]
        bounds += [mi.prop8_bound(ch, r, "X") for r in (0.3, 0.5, 0.8)]
        bounds.append(mi.prop9_bound(ch, 0.0, 2.0, "X"))
        bounds.append(mi.chi2_mi_bound(ch, "X"))
        worst = max(worst, val - min(bounds))
    return _check("mi.awgn_bound_ordering", worst, 1e-9)


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


def check_vs_decomposition() -> CheckResult:
    d = TwoPoint(0.3, 2.5)
    ch = mi.AwgnChannel(d)
    # s = 0: direct integral vs Monte Carlo over the kernel expectation
    # E[K_0(X, X) - K_0(X1, X2)].
    direct0 = _V_s_quadrature(ch, 0.0, "X")
    k_diag = 1.0 / (2.0 * math.sqrt(math.pi))

    def g(pair):
        x1, x2 = pair
        return k_diag - k_diag * np.exp(-0.25 * (x1 - x2) ** 2)

    res = mc_expect(g, lambda rng, n: (d.sample(rng, n), d.sample(rng, n)))
    dev0 = abs(direct0 - res.value)
    ok0 = dev0 <= 4.0 * res.standard_error
    # s = 2: direct integral vs exact kernel sums.
    direct2 = _V_s_quadrature(ch, 2.0, "X")
    kernel2 = mi.V_s(ch, 2.0, "X").value
    dev2 = abs(direct2 - kernel2) / kernel2
    passed = bool(ok0 and dev2 <= 1e-6)
    return CheckResult(
        "mi.vs_kernel_decomposition",
        passed,
        f"s=0 dev={dev0:.2e} (4SE={4 * res.standard_error:.2e}); s=2 rel dev={dev2:.2e}",
    )


def check_vs_scaling_law() -> CheckResult:
    ch = mi.ScaleMixtureChannel(TwoPoint(0.4, 3.0))
    worst = 0.0
    for s in (0.0, 2.0):
        base = _V_s_quadrature(ch, s, "U")
        for a in (0.5, 2.0, 3.0):
            scaled = _V_s_quadrature(ch, s, "U", scale=a)
            worst = max(worst, abs(scaled - a ** (s - 1.0) * base) / base)
    return _check("mi.vs_scaling_law", worst, 1e-8)


def check_vs_constant_mixture() -> CheckResult:
    worst = 0.0
    for c in (0.5, 1.0, 4.0):
        ch = mi.ScaleMixtureChannel(PointMass(c))
        closed = mi.V_s(ch, 0.0, "X").value
        gauss = (1.0 - 1.0 / math.sqrt(1.0 + c)) / (2.0 * math.sqrt(math.pi))
        worst = max(worst, abs(closed - gauss))
    return _check("mi.vs_constant_mixture_vs_awgn", worst, 1e-9)


def check_vs_upper_bound() -> CheckResult:
    worst = -math.inf
    for eps, a in ((0.5, 3.0), (0.1, 11.0)):
        ch = mi.ScaleMixtureChannel(TwoPoint(eps, a))
        for s in (0.0, 2.0):
            worst = max(worst, -mi.vs_upper_bound_check(ch, s))
    return _check("mi.vs_given_u_upper_bound", worst, 1e-12)


# ---------------------------------------------------------------------------
# 8. Figure-3 phenomenon
# ---------------------------------------------------------------------------


def check_fig3_phenomenon() -> CheckResult:
    from .sweeps import fig3_rows

    _, rows = fig3_rows()
    eps = np.array([row[0] for row in rows])
    mi_vals = np.array([row[1] for row in rows])
    p9 = np.array([row[2] for row in rows])
    c2 = np.array([row[3] for row in rows])

    low = p9[eps <= 0.25]  # the eps -> 0 regime the limit statement covers
    mono_ok = bool(np.all(np.diff(low) > 0.0))
    to_zero_ok = bool(p9[0] < 0.02)
    crossing_ok = bool(c2.min() > p9[0])
    pointwise_ok = bool(np.all(mi_vals <= p9 + 1e-9) and np.all(mi_vals <= c2 + 1e-9))
    passed = mono_ok and to_zero_ok and crossing_ok and pointwise_ok
    return CheckResult(
        "mi.fig3_two_moment_beats_chi2",
        passed,
        f"monotone(eps<=0.25)={mono_ok} p9(min eps)={p9[0]:.3e} "
        f"min chi2={c2.min():.3e} pointwise={pointwise_ok}",
    )


# ---------------------------------------------------------------------------
# 9. Determinism / oracle self-consistency
# ---------------------------------------------------------------------------


def check_mc_determinism() -> CheckResult:
    d = Lognormal(0.0, 1.0)
    a = mc_expect(lambda x: np.log(x), d.sample)
    b = mc_expect(lambda x: np.log(x), d.sample)
    bitwise = a.value == b.value and a.standard_error == b.standard_error
    draws_equal = bool(
        np.array_equal(d.sample(rng_for(), 1000), d.sample(rng_for(), 1000))
    )
    return CheckResult(
        "quadrature.mc_determinism", bool(bitwise and draws_equal), f"bitwise={bitwise}"
    )


def check_sweep_determinism() -> CheckResult:
    from .sweeps import fig3_rows

    grid = [1e-3, 1e-2, 0.1]
    _, rows1 = fig3_rows(grid)
    _, rows2 = fig3_rows(grid)
    return CheckResult("sweeps.fig3_repeatable", rows1 == rows2, f"rows={len(rows1)}")


def check_mc_quadrature_agreement() -> CheckResult:
    d = Lognormal(0.0, 0.25)

    def g(x):
        return 1.0 / (1.0 + x)

    res = mc_expect(g, d.sample)
    quad = integrate(lambda x: g(x) * d.pdf(x), Domain.half_line(0.0)).value
    dev = abs(res.value - quad)
    return CheckResult(
        "quadrature.mc_vs_quadrature",
        bool(dev <= 4.0 * res.standard_error),
        f"dev={dev:.2e} 4SE={4 * res.standard_error:.2e}",
    )


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
    """Run every check; failures are reported in the results, not raised."""
    results = []
    for fn in _CHECKS:
        try:
            results.append(fn())
        except Exception as exc:  # a crash is a failed check, not a crash of verify
            results.append(CheckResult(fn.__name__, False, f"raised {exc!r}"))
    return results
