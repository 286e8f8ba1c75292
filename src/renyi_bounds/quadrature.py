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
  density's converged panels and its values on every tail pre-scan
  window, so that each int h f (a GenericPdf's log-moments) takes the
  pre-scan verdict from the cache and runs the loop from the cached
  panels.  A GenericPdf evaluates its pdf once on every pre-scan window,
  also past the window where a scan stops; values there never reach a
  verdict.  The cache's rule() turns its panels into nodes and weights,
  so that E h(X) over a numeric density is a finite sum (mi_bounds
  smooths a GenericPdf input this way, as a Gaussian mixture over the
  nodes).  The rule bisects its panels down to the scale on which h
  varies, wherever the density has not underflowed; a power-law tail,
  which never does within the panel budget, is refused.

* mc_expect() is a Monte Carlo mean with standard error from a sampler
  (rng, n) -> batch, built on the counter-based Philox generator under the
  fixed seed _MC_SEED, so every draw is reproducible bit for bit; a stream
  number selects an independent substream.
"""

from dataclasses import dataclass
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergenceDetected, DomainError, MaxSubdivisionsExceeded

__all__ = [
    "Domain",
    "NumericsConfig",
    "QuadratureResult",
    "MCResult",
    "integrate",
    "mc_expect",
    "rng_for",
]


@dataclass(frozen=True)
class Domain:
    """Integration region: finite(a, b), half_line(a) = (a, inf), or full_line."""

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("finite", "half_line", "full_line"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"domain endpoints must be finite, got {self.a!r}, {self.b!r}")
        if self.kind == "finite" and not self.a < self.b:
            raise DomainError(f"finite domain requires a < b, got [{self.a}, {self.b}]")

    @staticmethod
    def finite(a: float, b: float) -> "Domain":
        return Domain("finite", float(a), float(b))

    @staticmethod
    def half_line(a: float = 0.0) -> "Domain":
        return Domain("half_line", float(a))

    @staticmethod
    def full_line() -> "Domain":
        return Domain("full_line")


# Fixed numerics: the absolute quadrature tolerance, the panel budget of
# one integrate call, and the Monte Carlo sample count and seed.
_ABS_TOL = 1e-12
_MAX_SUBDIVISIONS = 2000
_MC_SAMPLES = 200_000
_MC_SEED = 20170825


@dataclass(frozen=True)
class NumericsConfig:
    """The relative quadrature tolerance shared by all numeric routines;
    the other settings are the module constants above."""

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")


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
    return half, u, x, np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)


def _weighted_rows(f: Callable, to_x: Callable, jac: Callable, lo: np.ndarray, hi: np.ndarray):
    """The K15 abscissae x of the unit panels [lo[i], hi[i]] and the values
    v = half-width * jacobian * f(x), one row per panel -> (x, v): a row of
    v times _KWEIGHTS is the K15 sum of f over its panel."""
    half, u, x, fx = _density_at_nodes(f, to_x, lo, hi)
    return x, half[:, None] * jac(u) * fx


def _masses(half: np.ndarray, y: np.ndarray) -> list:
    """The K15 integral magnitudes of panels with half-widths half and node
    values y, one row per panel; inf for a row with a non-finite value."""
    mass = np.abs(half * (y @ _KWEIGHTS))
    return np.where(np.isfinite(y).all(axis=1), mass, math.inf).tolist()


def _window_masses(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Integral magnitudes of f over the windows [lo[i], hi[i]] in scan
    order, each from one non-adaptive K15 panel (see _masses).  One call
    of f covers _SCAN_BLOCK windows."""
    for k in range(0, len(lo), _SCAN_BLOCK):
        block = slice(k, k + _SCAN_BLOCK)
        with np.errstate(all="ignore"):
            half, _, _, fx = _density_at_nodes(f, lambda t: t, lo[block], hi[block])
            masses = _masses(half, fx)
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


def _refine(lo, hi, y, rows: Callable, domain: Domain, cfg: NumericsConfig):
    """The adaptive loop, from the unit panels [lo[i], hi[i]] with K15 node
    rows y (half-width * jacobian * integrand, so that a row times
    _KWEIGHTS is its panel's K15 sum) -> (lo, hi, value, error): the
    converged panels and their summed K15 value and G7 error estimate, as
    np.float64.

    While the total error misses max(rel_tol |value|, _ABS_TOL), every
    panel over its share (the tolerance over the panel count) is split,
    and rows(new_lo, new_hi) gives the rows of all new panels in one call:
    the panel at a finite lower end u = 0 at _GRADED, every other one by
    bisection.  The upper end u -> 1 is only bisected: a graded split there
    rounds nodes to u = 1.  Raises DivergenceDetected when a node value or
    a sum is not finite and MaxSubdivisionsExceeded past _MAX_SUBDIVISIONS
    added panels.
    """
    graded = domain.kind != "full_line"  # u = 0 is x = 0 on the full line
    added = 0
    with np.errstate(all="ignore"):
        while True:
            k15 = y @ _KWEIGHTS
            err = np.abs(k15 - y[:, _GAUSS_IDX] @ _GWEIGHTS)
            finite = np.isfinite(err)  # false at a non-finite node value or sum
            if not finite.all():
                i = int(finite.argmin())  # the first non-finite panel
                raise DivergenceDetected(
                    f"integrand not finite on panel [{lo[i]!r}, {hi[i]!r}]"
                )
            total, total_err = k15.sum(), err.sum()
            if not np.isfinite(total + total_err):
                raise DivergenceDetected(f"integral overflows on {domain.kind}")
            tol = max(cfg.rel_tol * abs(total), _ABS_TOL)
            if total_err <= tol:
                return lo, hi, total, total_err
            bad = err > tol / len(err)
            end = bad & (lo == 0.0) if graded else np.zeros_like(bad)
            split = bad & ~end
            mid = 0.5 * (lo[split] + hi[split])
            edges = hi[end, None] * _GRADED  # lo is 0 there
            new_lo = np.concatenate([lo[split], mid, edges[:, :-1].ravel()])
            new_hi = np.concatenate([mid, hi[split], edges[:, 1:].ravel()])
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


def _converged_panels(f: Callable, domain: Domain, cfg: NumericsConfig):
    """The adaptive loop of integrate -> (lo, hi, value, error): _refine
    from 8 (finite domain) or 16 uniform seed panels on the unit coordinate,
    after the tail pre-scan."""
    if domain.kind != "finite" and _tails_diverge(f, domain, _SCAN_FLOOR):
        raise DivergenceDetected(f"tail mass fails decay test on {domain.kind}")

    lo, hi, to_x, jac = _unit_transform(domain)
    edges = np.linspace(lo, hi, (8 if domain.kind == "finite" else 16) + 1)

    def rows(lo, hi):
        return _weighted_rows(f, to_x, jac, lo, hi)[1]

    with np.errstate(all="ignore"):
        y = rows(edges[:-1], edges[1:])
    return _refine(edges[:-1], edges[1:], y, rows, domain, cfg)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    domain: Domain,
    cfg: NumericsConfig = NumericsConfig(),
) -> QuadratureResult:
    """Adaptive integral of a vectorized integrand over domain.

    f must be elementwise: it receives a 1-D contiguous array of abscissae
    of any length (the nodes of many panels at once) and returns an array
    of the same length, each value depending on its own abscissa only.  It
    must be finite on the interior of the domain (endpoints are never
    sampled); on an unbounded domain it is also evaluated on up to
    _SCAN_BLOCK - 1 tail windows beyond the one where the pre-scan stops.
    Values past that window never affect the verdict.  (A GenericPdf
    evaluates its pdf once on all 52 windows of each scan direction, for
    the _DensityPanels cache its log-moments are taken from.)

    Returns value and an error estimate <= max(rel_tol * |value|, _ABS_TOL)
    on success, each an np.float64.  Raises DivergenceDetected when the
    tail decay test fails (or the integrand itself is non-finite),
    MaxSubdivisionsExceeded when the panel budget runs out first.
    """
    *_, total, total_err = _converged_panels(f, domain, cfg)
    return QuadratureResult(total, total_err)


class _DensityPanels:
    """The converged panels of a density's mass integral, kept so that each
    int h f is a sum over them rather than a fresh adaptive quadrature.

    Built from _converged_panels(f)'s (lo, hi).  Holds, as read-only
    arrays, the unit panels, their K15 nodes x with the values
    v = half-width * jacobian * f(x), and, for each direction of the tail
    pre-scan, the nodes of all 52 windows with their half-widths and f
    there.  f is evaluated once on every window, also past the one where a
    scan stops; a value there never reaches a verdict, so it may be
    anything.  Nothing here changes after construction: integral() and
    rule() refine copies.
    """

    def __init__(self, f: Callable, domain: Domain, lo: np.ndarray, hi: np.ndarray):
        self._f = f
        self._domain = domain
        _, _, self._to_x, self._jac = _unit_transform(domain)
        with np.errstate(all="ignore"):
            self.x, self.v = _weighted_rows(f, self._to_x, self._jac, lo, hi)
            self.scans = []
            for wlo, whi in _scan_windows(domain):
                half, _, x, fx = _density_at_nodes(f, lambda t: t, wlo, whi)
                self.scans.append((x, half, fx))
        self.lo, self.hi = np.array(lo), np.array(hi)
        arrays = [self.lo, self.hi, self.x, self.v] + [a for scan in self.scans for a in scan]
        for a in arrays:
            a.setflags(write=False)

    def integral(self, h: Callable, cfg: NumericsConfig) -> QuadratureResult:
        """int h f over the domain, for an elementwise h, to the tolerance
        of integrate(): the same tail pre-scan verdict, on the cached
        windows, then _refine from the cached panels, with one call of f
        per refinement step.  Refinements are dropped on return."""

        def rows(lo, hi):
            x, v = _weighted_rows(self._f, self._to_x, self._jac, lo, hi)
            return h(x) * v

        with np.errstate(all="ignore"):
            for x, half, fx in self.scans:
                if _decay_fails(_masses(half, h(x) * fx), _SCAN_FLOOR):
                    raise DivergenceDetected(f"tail mass fails decay test on {self._domain.kind}")
            y = h(self.x) * self.v
        *_, total, total_err = _refine(self.lo, self.hi, y, rows, self._domain, cfg)
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
                mid = 0.5 * (lo[wide] + hi[wide])
                lo, hi = np.concatenate([lo[wide], mid]), np.concatenate([mid, hi[wide]])
        xs, w = np.concatenate(xs), np.concatenate(ws)
        if not (w >= 0.0).all():
            raise DomainError(f"a density on {domain} is negative or nan at a node of its rule")
        return xs[w > 0.0], w[w > 0.0]


def rng_for(stream: int = 0) -> np.random.Generator:
    """Philox generator for the fixed seed _MC_SEED; stream selects an
    independent substream, so a draw does not depend on the draws made
    before it."""
    ss = np.random.SeedSequence(_MC_SEED, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def mc_expect(g: Callable, sampler: Callable, *, stream: int = 0) -> MCResult:
    """Monte Carlo estimate of E[g(S)] with standard error.

    sampler is a callable (rng, n) -> batch, such as a distribution's
    sample method; g receives the batch exactly as produced (so pair
    samplers can return tuples) and must return an array of per-sample
    values.  Deterministic for a fixed stream.
    """
    n = _MC_SAMPLES
    batch = sampler(rng_for(stream), n)
    vals = np.asarray(g(batch), dtype=float)
    if vals.shape != (n,):
        raise DomainError(f"g must map the batch to {n} values, got {vals.shape}")
    se = float(vals.std(ddof=1) / np.sqrt(n))
    return MCResult(float(vals.mean()), se)
