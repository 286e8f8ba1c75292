"""Parameter sweeps behind the figure commands.

Pure row producers: no I/O here, the CLI owns formatting.  Grid points
are evaluated in grid order, and any Monte Carlo inside a point draws
from its own seed stream, so a row does not depend on the others.
"""

from typing import List, Sequence, Tuple

import numpy as np

from .distributions import GaussianMagnitude, Lognormal, TwoPoint
from .entropy_bounds import lognormal_gap_closed, optimal_gap
from .errors import DomainError
from .mi_bounds import ScaleMixtureChannel, chi2_mi_bound, mi_oracle, prop9_bound
from .moment_core import Support
from .quadrature import NumericsConfig

__all__ = [
    "default_r_grid",
    "default_sigma2_grid",
    "default_eps_grid",
    "fig1_rows",
    "fig2_rows",
    "fig3_rows",
]


def default_r_grid() -> List[float]:
    return [round(0.1 * k, 10) for k in range(1, 10)]


def default_sigma2_grid() -> List[float]:
    return [0.1, 1.0, 10.0]


def default_eps_grid(num: int = 25) -> List[float]:
    return [float(e) for e in np.geomspace(1e-4, 0.5, num)]


def fig1_rows(
    r_grid: Sequence[float] = (),
    sigma2_grid: Sequence[float] = (),
) -> Tuple[List[str], List[tuple]]:
    """Lognormal entropy-bound gaps against the order r, per sigma2.

    The two-moment column is parameter-free in exact arithmetic; the
    one-moment column genuinely depends on sigma2.
    """
    r_grid = list(r_grid) or default_r_grid()
    sigma2_grid = list(sigma2_grid) or default_sigma2_grid()
    sup = Support.positive_half_line()
    rows = []
    for r in r_grid:
        for s2 in sigma2_grid:
            d = Lognormal(0.0, s2)
            two = optimal_gap(d, sup, 1, r).gap
            one_m = optimal_gap(d, sup, 1, r, constrain_p_zero=True).gap
            rows.append((r, s2, two, one_m))
    return ["r", "sigma2", "delta_two_moment", "delta_one_moment"], rows


def fig2_rows(
    r: float = 0.1,
    n_max: int = 256,
) -> Tuple[List[str], List[tuple]]:
    """Gaussian gaps against the dimension (n doubling up to n_max),
    with the lognormal limiting constant alongside."""
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max!r}")
    limit = lognormal_gap_closed(r)
    rows = []
    n = 1
    while n <= n_max:
        d = GaussianMagnitude(n)
        sup = Support.euclidean(n)
        two = optimal_gap(d, sup, n, r).gap
        one_m = optimal_gap(d, sup, n, r, constrain_p_zero=True).gap
        rows.append((n, two, one_m, limit))
        n *= 2
    return ["n", "delta_two_moment", "delta_one_moment", "lognormal_limit"], rows


def fig3_rows(
    eps_grid: Sequence[float] = (),
    p: float = 0.0,
    q: float = 2.0,
    cfg: NumericsConfig = NumericsConfig(),
) -> Tuple[List[str], List[tuple]]:
    """Bounds on I(U; Y) for the two-point Gaussian scalar mixture
    U ~ (1-eps) d_1 + eps d_a, a(eps) = 1 + 1/sqrt(eps).

    Atomic mixing means every column is quadrature/exact-sum based; rows
    carry no Monte Carlo noise.
    """
    rows = []
    for eps in list(eps_grid) or default_eps_grid():
        ch = ScaleMixtureChannel(TwoPoint(eps, 1.0 + 1.0 / np.sqrt(eps)))
        mi = mi_oracle(ch, "U", cfg)
        p9 = prop9_bound(ch, p, q, "U", cfg)
        c2 = chi2_mi_bound(ch, "U", cfg)
        rows.append((eps, mi, p9, c2))
    return ["eps", "mi_oracle", "prop9_bound", "chi2_bound"], rows
