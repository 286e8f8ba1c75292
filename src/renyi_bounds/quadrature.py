"""Adaptive quadrature and Monte Carlo oracles.

Every closed form in this package is checked against the routines here,
so they are deliberately self-contained (no scipy.integrate) and their
failure modes are explicit:

* integrate() maps half-infinite and infinite domains onto the unit
  interval with the rational transforms

      half line:  x = a + u / (1 - u),        u in (0, 1)
      full line:  x = u / (1 - u^2),          u in (-1, 1)

  and then applies a 7/15-point Gauss-Kronrod pair per panel with
  bisection of the worst panel until the error estimate meets the
  tolerance.  The rational maps keep heavy power-law tails resolvable,
  which matters for integrands like (sum nu_i x^(s_i))^(-r/(1-r)).

* Divergence is detected, not guessed: on unbounded domains the mass on
  geometric windows [T, 2T] is scanned under doubling (and halving,
  toward a finite endpoint).  A tail whose windowed mass never decays to
  the noise floor and fails to shrink across the last three windows is
  flagged as divergent; a borderline tail ~ 1/x gives window ratios of
  exactly one and is flagged.

* Panels are evaluated in batches: the seed grid is one integrand call,
  each bisection one call for both children, and the tail pre-scan one
  call per block of _SCAN_BLOCK windows.  The integrand contract follows
  from this.  An integrand receives a 1-D contiguous array of any length
  and must be elementwise: each value depends on its own abscissa only,
  so batching changes no panel's value.  The pre-scan
  may evaluate it on up to _SCAN_BLOCK - 1 windows beyond the one where
  the scan stops.  Its cost is per point, not per call, when each point
  runs work of its own (mi_bounds._GenericAwgnConditionals runs one inner
  quadrature per abscissa).

* mc_expect() is a seeded Monte Carlo mean with standard error, built on
  the counter-based Philox generator so that results are reproducible
  bit-for-bit for a fixed NumericsConfig.
"""

from dataclasses import dataclass
import math
from typing import Callable, NamedTuple, Union

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
# one integrate call and the Monte Carlo sample count.
_ABS_TOL = 1e-12
_MAX_SUBDIVISIONS = 2000
_MC_SAMPLES = 200_000


@dataclass(frozen=True)
class NumericsConfig:
    """The relative quadrature tolerance and the RNG seed shared by all
    numeric routines; the other settings are the module constants above."""

    rel_tol: float = 1e-9
    rng_seed: int = 20170825

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if self.rng_seed < 0:
            raise DomainError(f"rng_seed must be nonnegative, got {self.rng_seed!r}")


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
# Windows evaluated per integrand call of the pre-scan.
_SCAN_BLOCK = 8


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


def _node_values(fn: Callable, lo: np.ndarray, hi: np.ndarray):
    """fn on the K15 nodes of every panel [lo[i], hi[i]], in one call ->
    (half-widths, one row of 15 values per panel, whether each row is
    finite).  Callers run it, and the sums over its rows, inside
    np.errstate: node values and their dot products may overflow."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    y = np.asarray(fn((mid[:, None] + half[:, None] * _NODES).ravel()), dtype=float)
    y = y.reshape(len(lo), 15)
    return half, y, np.isfinite(y).all(axis=1)


def _panels(g: Callable, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Kronrod evaluations of g on the panels [lo[i], hi[i]], from one
    call of g on all their nodes -> (values, errors) as lists of np.float64.

    Each panel's K15 and G7 sums stay one np.dot on a contiguous 1-D row,
    as for a lone panel: a gemv over the whole batch (or a dot on a strided
    row) adds in another order and moves the last bit.
    """
    with np.errstate(all="ignore"):
        half, y, finite = _node_values(g, lo, hi)
        if not finite.all():
            i = int(finite.argmin())  # the first non-finite panel
            raise DivergenceDetected(
                f"integrand not finite on panel [{lo[i]!r}, {hi[i]!r}]"
            )
        vals, errs = [], []
        for h, row in zip(half, y):
            k15 = h * float(np.dot(_KWEIGHTS, row))
            g7 = h * float(np.dot(_GWEIGHTS, row[_GAUSS_IDX]))
            vals.append(k15)
            errs.append(abs(k15 - g7))
    return vals, errs


def _window_masses(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Integral magnitudes of f over the windows [lo[i], hi[i]] in scan
    order, each from one non-adaptive K15 panel; inf for a window with a
    non-finite node value.  One call of f covers _SCAN_BLOCK windows."""
    for k in range(0, len(lo), _SCAN_BLOCK):
        block = slice(k, k + _SCAN_BLOCK)
        with np.errstate(all="ignore"):
            half, y, finite = _node_values(f, lo[block], hi[block])
            masses = [
                abs(h * float(np.dot(_KWEIGHTS, row))) if ok else math.inf
                for h, row, ok in zip(half, y, finite.tolist())
            ]
        yield from masses


def _tails_diverge(f: Callable, domain: Domain, floor: float) -> bool:
    """Doubling-window decay test toward every unbounded (or pole-prone) end.

    Windows W_k with geometrically growing (or shrinking) extent are
    scanned outward.  Growth toward an interior peak is normal, so the
    verdict is taken at the end of the scan: divergent iff the mass never
    decays to the noise floor and the last three ratios
    mass(W_{k+1}) / mass(W_k) all fail to drop below one.  A borderline
    x^-1 tail gives ratios of exactly one and is flagged; any window with
    non-finite mass is flagged outright.
    """
    if domain.kind == "half_line":
        a = domain.a
        scans = ((a + _OUT_LO, a + _OUT_HI), (a + _IN_LO, a + _IN_HI))
    elif domain.kind == "full_line":
        scans = ((_OUT_LO, _OUT_HI), (-_OUT_HI, -_OUT_LO))
    else:
        scans = ()
    for lo, hi in scans:
        streak = 0
        prev = None
        decayed = False
        for mass in _window_masses(f, lo, hi):
            if not math.isfinite(mass):
                return True
            if prev is not None:
                if prev > floor and mass >= prev * (1.0 - 1e-10):
                    streak += 1
                else:
                    streak = 0
            if mass <= floor and (prev is None or prev <= floor):
                decayed = True  # tail is numerically gone; this end is fine
                break
            prev = mass
        if not decayed and streak >= 3:
            return True
    return False


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

    Returns value and an error estimate <= max(rel_tol * |value|, _ABS_TOL)
    on success.  Raises DivergenceDetected when the tail decay test fails
    (or the integrand itself is non-finite), MaxSubdivisionsExceeded when
    the panel budget runs out first.
    """
    if domain.kind != "finite" and _tails_diverge(f, domain, _ABS_TOL * 1e-3):
        raise DivergenceDetected(f"tail mass fails decay test on {domain.kind}")

    lo, hi, to_x, jac = _unit_transform(domain)

    def g(u):
        return np.asarray(f(to_x(u)), dtype=float) * jac(u)

    nseed = 8 if domain.kind == "finite" else 16
    edges = np.linspace(lo, hi, nseed + 1)
    # The panels as parallel lists in creation order.  The totals are summed
    # afresh in that order on each pass: a running sum would add in another
    # order and move the last bits of the result.
    los, his = list(edges[:-1]), list(edges[1:])
    vals, errs = _panels(g, edges[:-1], edges[1:])

    for _ in range(_MAX_SUBDIVISIONS):
        total = sum(vals)
        total_err = sum(errs)
        if total_err <= max(cfg.rel_tol * abs(total), _ABS_TOL):
            return QuadratureResult(total, total_err)
        worst = errs.index(max(errs))  # the first of equal worst panels
        plo, phi = los.pop(worst), his.pop(worst)
        del vals[worst], errs[worst]
        mid = 0.5 * (plo + phi)
        v, e = _panels(g, np.array([plo, mid]), np.array([mid, phi]))
        los += [plo, mid]
        his += [mid, phi]
        vals += v
        errs += e

    total = sum(vals)
    total_err = sum(errs)
    raise MaxSubdivisionsExceeded(
        f"error {total_err:.3e} above tolerance after "
        f"{_MAX_SUBDIVISIONS} subdivisions (value ~ {total:.6e})"
    )


def rng_for(cfg: NumericsConfig, stream: int = 0) -> np.random.Generator:
    """Philox generator for the configured seed; stream selects an
    independent substream, so a draw does not depend on the draws made
    before it."""
    ss = np.random.SeedSequence(cfg.rng_seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def mc_expect(
    g: Callable,
    sampler: Union["ScalarDistribution", Callable],
    cfg: NumericsConfig = NumericsConfig(),
    stream: int = 0,
) -> MCResult:
    """Monte Carlo estimate of E[g(S)] with standard error.

    sampler is either a distribution object exposing .sample(rng, size)
    or a callable (rng, size) -> batch; g receives the batch exactly as
    produced (so pair samplers can return tuples) and must return an
    array of per-sample values.  Deterministic for fixed cfg and stream.
    """
    rng = rng_for(cfg, stream)
    n = _MC_SAMPLES
    batch = sampler.sample(rng, n) if hasattr(sampler, "sample") else sampler(rng, n)
    vals = np.asarray(g(batch), dtype=float)
    if vals.shape != (n,):
        raise DomainError(f"g must map the batch to {n} values, got {vals.shape}")
    se = float(vals.std(ddof=1) / np.sqrt(n))
    return MCResult(float(vals.mean()), se)
