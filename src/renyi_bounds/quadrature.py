"""Adaptive quadrature and Monte Carlo oracles.

Every closed form in this package is checked against the routines here,
so they are deliberately self-contained (no scipy.integrate) and their
failure modes are explicit:

* integrate() maps half-infinite and infinite domains onto the unit
  interval with the rational transforms

      half line:  x = a + u / (1 - u),        u in (0, 1)
      full line:  x = u / (1 - u^2),          u in (-1, 1)

  and then applies a 7/15-point Gauss-Kronrod pair per panel, refining
  until the error estimate meets the tolerance (see the adaptive loop
  below).  The rational maps keep heavy power-law tails resolvable,
  which matters for integrands like (sum nu_i x^(s_i))^(-r/(1-r)).

* Divergence is detected, not guessed: on unbounded domains the mass on
  geometric windows [T, 2T] is scanned under doubling (and halving,
  toward a finite endpoint).  A tail whose windowed mass never decays to
  the noise floor and fails to shrink across the last three windows is
  flagged as divergent; a borderline tail ~ 1/x gives window ratios of
  exactly one and is flagged.

* Panels are evaluated in batches: the seed grid is one integrand call,
  each refinement step one call for all new panels, and the tail
  pre-scan one call per block of _SCAN_BLOCK windows.  The integrand
  contract that follows from this is in the integrate() docstring.

* One adaptive loop, _refine(), from given seed panels: K15 sums with G7
  error estimates, and while the total error misses the tolerance every
  panel over its share is split in one call of the integrand, with a
  graded split toward a finite lower end and bisection elsewhere.
  integrate() runs it from uniform seed panels.  _DensityPanels keeps a
  density's converged (mass) panels, the same panels with the lower-end
  one already split at _GRADED (the moment panels), and its values on
  the nodes of every tail pre-scan window and moment panel.  Its
  integrals() sums a whole vector of integrands g(|x|, f(x), c) at once
  (one c per order: |x|^s f for a GenericPdf's log-moments, f^r for its
  Renyi entropy): one evaluation of g over the cached nodes for all c,
  then for each c the pre-scan verdict and the tolerance test, and the
  loop from the moment panels only for a c that misses the tolerance.
  An integral that g may still carry where f has underflowed to 0 (f^r
  at small r) is refused.  After construction a GenericPdf is integrated
  only this way.  It evaluates its pdf once on every pre-scan window,
  also past the window where a scan stops; values there never reach a
  verdict.  The cache's rule() turns the mass panels into nodes and
  weights, so that E h(X) over a numeric density is a finite sum
  (mi_bounds smooths a GenericPdf input this way, as a Gaussian mixture
  over the nodes).  The rule bisects its panels down to the scale on
  which h varies, wherever the density has not underflowed; a power-law
  tail, which never does within the panel budget, is refused.

* mc_expect() is a Monte Carlo mean with standard error of an elementwise
  g(X_1, ..., X_k) over k i.i.d. arrays drawn by sample(rng, n), built on
  the counter-based Philox generator under the fixed seed _MC_SEED, so
  every draw is reproducible bit for bit; a stream number selects an
  independent substream.  X_k is drawn and g evaluated in blocks of
  _MC_BLOCK, so no temporary of g spans all _MC_SAMPLES draws; a draw
  split into blocks continues the same stream, bit for bit.
"""

from dataclasses import dataclass
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergenceDetected, DomainError, MaxSubdivisionsExceeded, RenyiBoundsError
from .specfun import _choice, _float

__all__ = [
    "Domain",
    "QuadratureResult",
    "MCResult",
    "integrate",
    "mc_expect",
    "rng_for",
]


@dataclass(frozen=True)
class Domain:
    """Integration region: finite(a, b), half_line(a) = (a, inf), or full_line.
    An endpoint that the kind does not use must be 0, its default."""

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        _choice(self.kind, "a domain kind", ("finite", "half_line", "full_line"))
        a = _float(self.a, "a domain endpoint", math.isfinite, "be finite")
        b = _float(self.b, "a domain endpoint", math.isfinite, "be finite")
        if self.kind == "finite" and not a < b:
            raise DomainError(f"finite domain requires a < b, got [{a}, {b}]")
        if (b != 0.0 and self.kind != "finite") or (a != 0.0 and self.kind == "full_line"):
            raise DomainError(f"an endpoint a {self.kind} domain does not use must be 0, "
                              f"got a={a!r}, b={b!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @staticmethod
    def finite(a: float, b: float) -> "Domain":
        return Domain("finite", a, b)

    @staticmethod
    def half_line(a: float = 0.0) -> "Domain":
        return Domain("half_line", a)

    @staticmethod
    def full_line() -> "Domain":
        return Domain("full_line")


# Fixed numerics: the relative and absolute quadrature tolerances, the
# panel budget of one integrate call, and the Monte Carlo sample count,
# seed and block length (the draws of X_k per evaluation of g).
_REL_TOL = 1e-9
_ABS_TOL = 1e-12
_MAX_SUBDIVISIONS = 2000
_MC_SAMPLES = 200_000
_MC_SEED = 20170825
_MC_BLOCK = 2**14


class QuadratureResult(NamedTuple):
    value: float
    error: float


class MCResult(NamedTuple):
    value: float
    standard_error: float


# 7/15 Gauss-Kronrod pair on [-1, 1] (QUADPACK dqk15 constants).  Kronrod
# nodes are symmetric; the 7 Gauss nodes are the odd-indexed entries.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[:8][::-1]])  # 15 nodes, ascending
_KWEIGHTS = np.concatenate([_WGK[:7], _WGK[:8][::-1]])
# Gauss nodes sit at positions 1,3,5,...,13 of the 15 ascending nodes.
_GAUSS_IDX = np.arange(1, 15, 2)
_GWEIGHTS = np.concatenate([_WG[:3], _WG[3:4], _WG[:3][::-1]])

# Tail pre-scan windows [2^k, 2^(k+1)] outward and [2^-(k+1), 2^-k] inward,
# k = 0..51, shifted by the finite endpoint at call time.
_OUT_LO = np.ldexp(1.0, np.arange(52))
_OUT_HI = 2.0 * _OUT_LO
_IN_HI = 1.0 / _OUT_LO
_IN_LO = 0.5 * _IN_HI
# Windows evaluated per integrand call of the pre-scan, and the window mass
# below which a tail counts as gone.
_SCAN_BLOCK = 8
_SCAN_FLOOR = _ABS_TOL * 1e-3
# Panel edges, as fractions of the panel, of the graded split toward a finite
# lower end: 0, 2^-40, 2^-39, ..., 1/2, 1, laid out like the inward windows.
_GRADED = np.concatenate([[0.0], np.ldexp(1.0, np.arange(-40, 1))])
_LEAST = math.ulp(0.0)  # the least positive double: a density that reads 0 is below it


def _unit_transform(domain: Domain):
    """Return (lo, hi, to_x, jacobian) mapping the unit coordinate onto domain."""
    if domain.kind == "finite":
        a, width = domain.a, domain.b - domain.a

        return 0.0, 1.0, (lambda u: a + width * u), (lambda u: np.full_like(u, width))
    if domain.kind == "half_line":
        a = domain.a

        def to_x(u):
            return a + u / (1.0 - u)

        def jac(u):
            return 1.0 / (1.0 - u) ** 2

        return 0.0, 1.0, to_x, jac

    def to_x(u):
        return u / (1.0 - u * u)

    def jac(u):
        s = 1.0 - u * u
        return (1.0 + u * u) / (s * s)

    return -1.0, 1.0, to_x, jac


def _density_at_nodes(f: Callable, to_x: Callable, lo: np.ndarray, hi: np.ndarray):
    """The K15 nodes u of the unit panels [lo[i], hi[i]], their abscissae
    x = to_x(u) and f(x) from one call of f, one row per panel ->
    (half-widths, u, x, f(x)).  Callers run it, and the sums over its rows,
    inside np.errstate: node values and their sums may overflow."""
    half = 0.5 * (hi - lo)
    u = 0.5 * (hi + lo)[:, None] + half[:, None] * _NODES
    x = to_x(u)
    fx = np.asarray(f(x.ravel()), dtype=float)
    if fx.shape != (x.size,):
        raise DomainError(f"f must map {x.size} abscissae to {x.size} values, got {fx.shape}")
    return half, u, x, fx.reshape(x.shape)


def _window_masses(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Integral magnitudes of f over the windows [lo[i], hi[i]] in scan
    order, each from one non-adaptive K15 panel.  A non-finite node value
    makes its window's mass non-finite.  One call of f covers _SCAN_BLOCK
    windows."""
    for k in range(0, len(lo), _SCAN_BLOCK):
        block = slice(k, k + _SCAN_BLOCK)
        with np.errstate(all="ignore"):
            half, _, _, fx = _density_at_nodes(f, lambda t: t, lo[block], hi[block])
            masses = np.abs(half * (fx @ _KWEIGHTS)).tolist()
        yield from masses


def _scan_windows(domain: Domain):
    """The (lo, hi) window arrays of the tail pre-scan, one pair per
    direction in scan order: none on a finite domain."""
    if domain.kind == "half_line":
        a = domain.a
        return ((a + _OUT_LO, a + _OUT_HI), (a + _IN_LO, a + _IN_HI))
    if domain.kind == "full_line":
        return ((_OUT_LO, _OUT_HI), (-_OUT_HI, -_OUT_LO))
    return ()


def _decay_fails(masses, floor: float) -> bool:
    """The verdict of one scan direction on its window masses, consumed in
    scan order and only up to the window where the scan stops.

    Growth toward an interior peak is normal, so the verdict is taken at
    the end of the scan: divergent iff the mass never decays to the noise
    floor and the last three ratios mass(W_{k+1}) / mass(W_k) all fail to
    drop below one.  A borderline x^-1 tail gives ratios of exactly one and
    is flagged; any window with non-finite mass is flagged outright.
    """
    streak = 0
    prev = None
    for mass in masses:
        if not math.isfinite(mass):
            return True
        if prev is not None:
            if prev > floor and mass >= prev * (1.0 - 1e-10):
                streak += 1
            else:
                streak = 0
        if mass <= floor and (prev is None or prev <= floor):
            return False  # tail is numerically gone; this end is fine
        prev = mass
    return streak >= 3


def _tails_diverge(f: Callable, domain: Domain, floor: float) -> bool:
    """Doubling-window decay test toward every unbounded (or pole-prone) end:
    windows W_k with geometrically growing (or shrinking) extent are
    scanned outward, and each direction is judged by _decay_fails."""
    return any(
        _decay_fails(_window_masses(f, lo, hi), floor) for lo, hi in _scan_windows(domain)
    )


def _k15_g7(y: np.ndarray):
    """The K15 sums of the node rows y and their G7 error estimates, one per
    row (y may stack such tables, one per weight) -> (k15, err)."""
    k15 = y @ _KWEIGHTS
    return k15, np.abs(k15 - y[..., _GAUSS_IDX] @ _GWEIGHTS)


def _lower_end(lo: np.ndarray, domain: Domain) -> np.ndarray:
    """The unit panels with a finite lower end u = 0, which are split at
    _GRADED; none on the full line, where u = 0 is x = 0."""
    return lo == 0.0 if domain.kind != "full_line" else np.zeros(len(lo), dtype=bool)


def _split(lo: np.ndarray, hi: np.ndarray, bisect: np.ndarray, graded: np.ndarray):
    """The unit panels that replace those marked in bisect (halved) and in
    graded (lower end 0, split at _GRADED) -> (new_lo, new_hi)."""
    mid = 0.5 * (lo[bisect] + hi[bisect])
    edges = hi[graded, None] * _GRADED  # lo is 0 there
    new_lo = np.concatenate([lo[bisect], mid, edges[:, :-1].ravel()])
    new_hi = np.concatenate([mid, hi[bisect], edges[:, 1:].ravel()])
    return new_lo, new_hi


def _refine(lo, hi, y, rows: Callable, domain: Domain):
    """The adaptive loop, from the unit panels [lo[i], hi[i]] with K15 node
    rows y (half-width * jacobian * integrand, so that a row times
    _KWEIGHTS is its panel's K15 sum) -> (lo, hi, value, error): the
    converged panels and their summed K15 value and G7 error estimate, as
    np.float64.

    While the total error misses max(_REL_TOL |value|, _ABS_TOL), every
    panel over its share (the tolerance over the panel count) is split,
    and rows(new_lo, new_hi) gives the rows of all new panels in one call:
    the panel at a finite lower end u = 0 at _GRADED, every other one by
    bisection.  The upper end u -> 1 is only bisected: a graded split there
    rounds nodes to u = 1.  Raises DivergenceDetected when a node value or
    a sum is not finite and MaxSubdivisionsExceeded past _MAX_SUBDIVISIONS
    added panels.
    """
    added = 0
    with np.errstate(all="ignore"):
        while True:
            k15, err = _k15_g7(y)
            finite = np.isfinite(err)  # false at a non-finite node value or sum
            if not finite.all():
                i = int(finite.argmin())  # the first non-finite panel
                raise DivergenceDetected(
                    f"integrand not finite on panel [{lo[i]!r}, {hi[i]!r}]"
                )
            total, total_err = k15.sum(), err.sum()
            if not np.isfinite(total + total_err):
                raise DivergenceDetected(f"integral overflows on {domain.kind}")
            tol = max(_REL_TOL * abs(total), _ABS_TOL)
            if total_err <= tol:
                return lo, hi, total, total_err
            bad = err > tol / len(err)
            end = bad & _lower_end(lo, domain)
            new_lo, new_hi = _split(lo, hi, bad & ~end, end)
            added += len(new_lo) - int(bad.sum())
            if added > _MAX_SUBDIVISIONS:
                raise MaxSubdivisionsExceeded(
                    f"error {total_err:.3e} above tolerance after "
                    f"{_MAX_SUBDIVISIONS} subdivisions (value ~ {total:.6e})"
                )
            keep = ~bad
            lo = np.concatenate([lo[keep], new_lo])
            hi = np.concatenate([hi[keep], new_hi])
            y = np.concatenate([y[keep], rows(new_lo, new_hi)])


def _converged_panels(f: Callable, domain: Domain):
    """The adaptive loop of integrate -> (lo, hi, value, error): _refine
    from 8 (finite domain) or 16 uniform seed panels on the unit coordinate,
    after the tail pre-scan."""
    if domain.kind != "finite" and _tails_diverge(f, domain, _SCAN_FLOOR):
        raise DivergenceDetected(f"tail mass fails decay test on {domain.kind}")

    lo, hi, to_x, jac = _unit_transform(domain)
    edges = np.linspace(lo, hi, (8 if domain.kind == "finite" else 16) + 1)

    def rows(lo, hi):
        half, u, _, fx = _density_at_nodes(f, to_x, lo, hi)
        return half[:, None] * jac(u) * fx

    with np.errstate(all="ignore"):
        y = rows(edges[:-1], edges[1:])
    return _refine(edges[:-1], edges[1:], y, rows, domain)


def integrate(f: Callable[[np.ndarray], np.ndarray], domain: Domain) -> QuadratureResult:
    """Adaptive integral of a vectorized integrand over domain.

    f must be elementwise: it receives a 1-D contiguous array of abscissae
    of any length (the nodes of many panels at once) and returns an array
    of the same length, each value depending on its own abscissa only.  It
    must be finite on the interior of the domain (endpoints are never
    sampled); on an unbounded domain it is also evaluated on up to
    _SCAN_BLOCK - 1 tail windows beyond the one where the pre-scan stops.
    Values past that window never affect the verdict.  (A GenericPdf is
    integrated over its _DensityPanels cache instead, after construction.)

    Returns value and an error estimate <= max(_REL_TOL * |value|, _ABS_TOL)
    on success, each an np.float64.  Raises DivergenceDetected when the
    tail decay test fails (or the integrand itself is non-finite),
    MaxSubdivisionsExceeded when the panel budget runs out first.
    """
    *_, total, total_err = _converged_panels(f, domain)
    return QuadratureResult(total, total_err)


class _DensityPanels:
    """The converged panels of a density's mass integral, kept so that every
    later integral of f is a sum over them, not a fresh adaptive quadrature.

    Built from _converged_panels(f)'s (lo, hi), the mass panels, which
    rule() starts from.  Integrals start from the moment panels: the mass
    panels with the one at a finite lower end u = 0 split at _GRADED, the
    split _refine makes there.  A weight such as |x|^s has a branch point
    at x = 0 that the mass integral never had to resolve; without the
    cached split nearly every order would make that same split again.

    Holds, as read-only arrays, the mass panels (lo, hi), the moment panels
    (moment_lo, moment_hi), and three tables of K15 rows: ax = |x|, fx =
    f(x) and w = half-width * jacobian at the nodes, so that a row of
    g(ax, fx, c) * w times _KWEIGHTS is the K15 sum of g over its interval.
    Their rows are the 52 windows of each direction of the tail pre-scan
    (in x, jacobian 1), then the moment panels.  f is evaluated once on
    every window, also past the one where a scan stops; a value there never
    reaches a verdict, so it may be anything.  under_ax and under_w are ax
    and w * _KWEIGHTS on the panel nodes where f is 0.  Nothing here
    changes after construction: integrals() and rule() refine copies.
    """

    def __init__(self, f: Callable, domain: Domain, lo: np.ndarray, hi: np.ndarray):
        self._f = f
        self._domain = domain
        _, _, self._to_x, self._jac = _unit_transform(domain)
        self.lo, self.hi = np.array(lo), np.array(hi)
        end = _lower_end(self.lo, domain)
        graded_lo, graded_hi = _split(self.lo, self.hi, np.zeros_like(end), end)
        self.moment_lo = np.concatenate([self.lo[~end], graded_lo])
        self.moment_hi = np.concatenate([self.hi[~end], graded_hi])
        windows = _scan_windows(domain)
        nw = self._windows = len(windows) * _OUT_LO.size  # the rows before the panels
        with np.errstate(all="ignore"):
            rows = [self._rows(lambda t: t, np.ones_like, wlo, whi) for wlo, whi in windows]
            rows.append(self._rows(self._to_x, self._jac, self.moment_lo, self.moment_hi))
        self.ax, self.fx, self.w = (np.concatenate(a) for a in zip(*rows))
        under = self.fx[nw:] == 0.0
        self.under_ax, self.under_w = self.ax[nw:][under], (self.w[nw:] * _KWEIGHTS)[under]
        for a in (self.lo, self.hi, self.moment_lo, self.moment_hi, self.ax, self.fx, self.w,
                  self.under_ax, self.under_w):
            a.setflags(write=False)

    def _rows(self, to_x: Callable, jac: Callable, lo: np.ndarray, hi: np.ndarray):
        """(|x|, f(x), half-width * jacobian) at the K15 nodes of the unit
        panels [lo[i], hi[i]], one row per panel, from one call of f."""
        half, u, x, fx = _density_at_nodes(self._f, to_x, lo, hi)
        return np.abs(x), fx, half[:, None] * jac(u)

    def integrals(self, g: Callable, params: np.ndarray) -> list:
        """[int g(|x|, f(x), c) dx for c in params], each to the tolerance
        of integrate(), with value and error +inf where that integral
        diverges (where integrate would raise DivergenceDetected).  g must
        be elementwise, nonnegative, nondecreasing in f, and broadcast:
        g(ax, fx, c) with c a column of params gives one table per c.

        g is evaluated once, for all params, on the cached rows.  Each c
        then gets its own tail verdict (_decay_fails on its window masses,
        direction by direction) and its own K15/G7 tolerance test on the
        moment panels.  A c that misses the tolerance runs _refine alone
        from the moment panels, with one call of f per refinement step; its
        refinements are dropped on return.  So the result for one c does
        not depend on the others.  Where f has underflowed to 0, g is at
        most g(|x|, _LEAST, c); a c for which that bound, summed over those
        panel nodes, exceeds the tolerance (f^r at small r) is refused with
        RenyiBoundsError."""
        nw, per = self._windows, _OUT_LO.size
        with np.errstate(all="ignore"):
            y = g(self.ax, self.fx, params[:, None, None]) * self.w
            masses = np.abs(y[:, :nw] @ _KWEIGHTS).tolist()
            y = y[:, nw:]
            k15, err = _k15_g7(y)
            total, total_err = k15.sum(axis=-1), err.sum(axis=-1)
            tol = np.maximum(_REL_TOL * np.abs(total), _ABS_TOL)
            met = np.isfinite(err).all(axis=-1) & np.isfinite(total + total_err)
            met &= total_err <= tol
            lost = np.zeros(len(params))
            if self.under_w.size:  # a cost on every call, so only where f reads 0 somewhere
                lost = (g(self.under_ax, _LEAST, params[:, None]) * self.under_w).sum(axis=-1)
        out = []
        for i, c in enumerate(params):
            if any(_decay_fails(masses[i][k:k + per], _SCAN_FLOOR) for k in range(0, nw, per)):
                out.append(QuadratureResult(math.inf, math.inf))
            elif lost[i] > tol[i]:  # the tolerance on the cached panels, also for a c refined below
                raise RenyiBoundsError(f"f underflows to 0 on {self._domain.kind} where the "
                                       f"integrand may still carry {lost[i]:.3g}")
            elif met[i]:
                out.append(QuadratureResult(total[i], total_err[i]))
            else:
                out.append(self._refined(g, c, y[i]))
        return out

    def _refined(self, g: Callable, c: float, y: np.ndarray):
        """_refine of int g(|x|, f(x), c) dx from the moment panels and their
        node rows y; +inf where it diverges."""

        def rows(lo, hi):
            ax, fx, w = self._rows(self._to_x, self._jac, lo, hi)
            return g(ax, fx, c) * w

        try:
            *_, total, total_err = _refine(self.moment_lo, self.moment_hi, y, rows, self._domain)
        except DivergenceDetected:
            return QuadratureResult(math.inf, math.inf)
        return QuadratureResult(total, total_err)

    def rule(self, width: float):
        """The K15 nodes x_k of the cached panels and weights
        w_k = panel weight * jacobian * f(x_k): sum_k w_k h(x_k) ~ int h f
        for an h that is smooth on the scale of width.  Panels wider than
        width in x are bisected until their weights underflow to 0, within
        _MAX_SUBDIVISIONS bisections.  Zero weights are dropped; negative
        or nan ones are refused."""
        lo, hi, to_x, domain = self.lo, self.hi, self._to_x, self._domain
        xs, ws, budget = [], [], _MAX_SUBDIVISIONS
        with np.errstate(all="ignore"):
            while len(lo):
                half, u, x, fx = _density_at_nodes(self._f, to_x, lo, hi)
                w = half[:, None] * _KWEIGHTS * self._jac(u) * fx
                wide = (to_x(hi) - to_x(lo) > width) & (w != 0.0).any(axis=1)
                xs.append(x[~wide].ravel())
                ws.append(w[~wide].ravel())
                budget -= int(wide.sum())
                if budget < 0:
                    raise MaxSubdivisionsExceeded(f"no panels narrower than {width:g} on {domain}")
                lo, hi = _split(lo, hi, wide, np.zeros_like(wide))
        xs, w = np.concatenate(xs), np.concatenate(ws)
        if not (w >= 0.0).all():
            raise DomainError(f"a density on {domain} is negative or nan at a node of its rule")
        return xs[w > 0.0], w[w > 0.0]


def _count(x, name: str, least: int, need: str) -> int:
    """x as an int: DomainError ("{name} must {need}") unless x is an int
    (a bool is refused) of at least least."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < least:
        _float(x, name, lambda v: False, need)
    return int(x)


def _stream(stream) -> int:
    """A substream number as an int: DomainError unless stream is a
    nonnegative int (a bool is refused)."""
    return _count(stream, "stream", 0, "be a nonnegative int (not a bool)")


def rng_for(stream: int = 0) -> np.random.Generator:
    """Philox generator for the fixed seed _MC_SEED; stream, a nonnegative
    int, selects an independent substream, so a draw does not depend on
    the draws made before it."""
    ss = np.random.SeedSequence(_MC_SEED, spawn_key=(_stream(stream),))
    return np.random.Generator(np.random.Philox(ss))


def _draw(sample: Callable, rng: np.random.Generator, m: int) -> np.ndarray:
    """sample(rng, m), refused with DomainError unless a 1-D array of m values."""
    x = sample(rng, m)
    if not (isinstance(x, np.ndarray) and x.shape == (m,)):
        got = x.shape if isinstance(x, np.ndarray) else f"a {type(x).__name__}"
        raise DomainError(f"sample must draw a 1-D array of {m} values, got {got}")
    return x


def mc_expect(g: Callable, sample: Callable, k: int = 1, *, stream: int = 0) -> MCResult:
    """Monte Carlo estimate of E[g(X_1, ..., X_k)] with standard error, over
    _MC_SAMPLES draws of k i.i.d. arrays X_i = sample(rng, n).

    sample is a callable (rng, m) -> 1-D array of m values, such as a
    distribution's sample method; the X_i are drawn in order from one
    stream of rng_for(stream), so the result is deterministic for a fixed
    stream.  X_1 ... X_{k-1} are drawn whole and X_k in blocks of
    _MC_BLOCK, each block one call of sample, so sample must continue its
    stream across calls (every numpy Generator method does).  g must be
    elementwise: it receives the aligned slices of the k arrays, one block
    long, and returns one value per draw, each depending on its own draws
    only.  g runs under np.errstate(all="ignore"): a value that is not
    finite raises DomainError at its block, before the remaining draws, as
    does a mean or standard error that leaves the float range.  The mean
    and standard error are taken over the whole array of values, so they
    equal those of one evaluation of g over whole draws bit for bit.
    """
    k = _count(k, "k", 1, "be a positive int (not a bool)")
    n, rng = _MC_SAMPLES, rng_for(stream)
    whole = [_draw(sample, rng, n) for _ in range(k - 1)]
    vals = np.empty(n)
    for lo in range(0, n, _MC_BLOCK):
        m = min(_MC_BLOCK, n - lo)
        block = _draw(sample, rng, m)
        with np.errstate(all="ignore"):
            v = np.asarray(g(*(x[lo:lo + m] for x in whole), block), dtype=float)
        if v.shape != (m,):
            raise DomainError(f"g must map a block of {m} draws to {m} values, got {v.shape}")
        finite = np.isfinite(v)
        if not finite.all():
            bad = int(finite.argmin())
            raise DomainError(f"g is not finite at draw {lo + bad}: {float(v[bad])!r}")
        vals[lo:lo + m] = v
    del whole  # the whole draws go before std takes its temporary of n values
    with np.errstate(over="ignore", invalid="ignore"):
        value, se = float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))
    if not (math.isfinite(value) and math.isfinite(se)):
        raise DomainError(f"the mean {value!r} or standard error {se!r} of g "
                          "leaves the float range")
    return MCResult(value, se)
