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


@dataclass(frozen=True)
class NumericsConfig:
    """Tolerances, budgets and the RNG seed shared by all numeric routines."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    mc_samples: int = 200_000
    rng_seed: int = 20170825

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if self.mc_samples < 1000:
            raise DomainError("mc_samples must be at least 1000")


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


def _panel(g: Callable, lo: float, hi: float):
    """One Gauss-Kronrod evaluation of g on [lo, hi] -> (value, error)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    u = mid + half * _NODES
    with np.errstate(all="ignore"):
        y = np.asarray(g(u), dtype=float)
    if not np.all(np.isfinite(y)):
        raise DivergenceDetected(
            f"integrand not finite on panel [{lo!r}, {hi!r}]"
        )
    k15 = half * float(np.dot(_KWEIGHTS, y))
    g7 = half * float(np.dot(_GWEIGHTS, y[_GAUSS_IDX]))
    return k15, abs(k15 - g7)


def _window_mass(f: Callable, lo: float, hi: float) -> float:
    """Integral magnitude of f over [lo, hi] from one non-adaptive K15 panel;
    inf when any node value is non-finite."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    with np.errstate(all="ignore"):
        y = np.asarray(f(mid + half * _NODES), dtype=float)
    if not np.all(np.isfinite(y)):
        return math.inf
    return abs(half * float(np.dot(_KWEIGHTS, y)))


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
    scans = []
    if domain.kind == "half_line":
        a = domain.a
        scans.append([(a + 2.0**k, a + 2.0 ** (k + 1)) for k in range(0, 52)])
        scans.append([(a + 2.0 ** (-k - 1), a + 2.0**-k) for k in range(0, 52)])
    elif domain.kind == "full_line":
        scans.append([(2.0**k, 2.0 ** (k + 1)) for k in range(0, 52)])
        scans.append([(-(2.0 ** (k + 1)), -(2.0**k)) for k in range(0, 52)])
    for windows in scans:
        streak = 0
        prev = None
        decayed = False
        for lo, hi in windows:
            mass = _window_mass(f, lo, hi)
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

    f must accept an ndarray of abscissae and return an ndarray of values,
    finite on the interior of the domain (endpoints are never sampled).

    Returns value and an error estimate <= max(rel_tol * |value|, abs_tol)
    on success.  Raises DivergenceDetected when the tail decay test fails
    (or the integrand itself is non-finite), MaxSubdivisionsExceeded when
    the panel budget runs out first.
    """
    if domain.kind != "finite" and _tails_diverge(f, domain, cfg.abs_tol * 1e-3):
        raise DivergenceDetected(f"tail mass fails decay test on {domain.kind}")

    lo, hi, to_x, jac = _unit_transform(domain)

    def g(u):
        return np.asarray(f(to_x(u)), dtype=float) * jac(u)

    nseed = 8 if domain.kind == "finite" else 16
    edges = np.linspace(lo, hi, nseed + 1)
    panels = []  # entries: [error, lo, hi, value]
    for i in range(nseed):
        val, err = _panel(g, edges[i], edges[i + 1])
        panels.append([err, edges[i], edges[i + 1], val])

    for _ in range(cfg.max_subdivisions):
        total = sum(p[3] for p in panels)
        total_err = sum(p[0] for p in panels)
        if total_err <= max(cfg.rel_tol * abs(total), cfg.abs_tol):
            return QuadratureResult(total, total_err)
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, plo, phi, _ = panels.pop(worst)
        mid = 0.5 * (plo + phi)
        for a, b in ((plo, mid), (mid, phi)):
            val, err = _panel(g, a, b)
            panels.append([err, a, b, val])

    total = sum(p[3] for p in panels)
    total_err = sum(p[0] for p in panels)
    raise MaxSubdivisionsExceeded(
        f"error {total_err:.3e} above tolerance after "
        f"{cfg.max_subdivisions} subdivisions (value ~ {total:.6e})"
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
    n = cfg.mc_samples
    batch = sampler.sample(rng, n) if hasattr(sampler, "sample") else sampler(rng, n)
    vals = np.asarray(g(batch), dtype=float)
    if vals.shape != (n,):
        raise DomainError(f"g must map the batch to {n} values, got {vals.shape}")
    se = float(vals.std(ddof=1) / np.sqrt(n))
    return MCResult(float(vals.mean()), se)
