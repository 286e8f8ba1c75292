"""Parameter sweeps behind the figure commands.

Pure row producers: no I/O here, the CLI owns formatting.  Grid points
are evaluated in grid order, and a row depends only on its own point:
no sweep runs Monte Carlo (fig3's mixing law is atomic, so its V_s are
exact sums).
"""

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .distributions import GaussianMagnitude, Lognormal, TwoPoint
from .entropy_bounds import lognormal_gap_closed, optimal_gap
from .mi_bounds import ScaleMixtureChannel, chi2_mi_bound, mi_oracle, prop9_bound
from .moment_core import Support
from .specfun import _float

__all__ = [
    "DEFAULT_R_GRID",
    "DEFAULT_SIGMA2_GRID",
    "DEFAULT_EPS_GRID",
    "fig1_rows",
    "fig2_rows",
    "fig3_rows",
]

DEFAULT_R_GRID = tuple(round(0.1 * k, 10) for k in range(1, 10))
DEFAULT_SIGMA2_GRID = (0.1, 1.0, 10.0)
DEFAULT_EPS_GRID = tuple(float(e) for e in np.geomspace(1e-4, 0.5, 25))


def fig1_rows(
    r_grid: Sequence[float] = (),
    sigma2_grid: Sequence[float] = (),
) -> Tuple[List[str], List[tuple]]:
    """Lognormal entropy-bound gaps against the order r, per sigma2.

    The two-moment column is parameter-free in exact arithmetic; the
    one-moment column genuinely depends on sigma2.
    """
    r_grid = list(r_grid) or DEFAULT_R_GRID
    sigma2_grid = list(sigma2_grid) or DEFAULT_SIGMA2_GRID
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
    n_max = _float(n_max, "n_max", lambda v: not v < 1.0, "be at least 1")
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


def _two_point_mixture(eps: float, a: Optional[float] = None) -> ScaleMixtureChannel:
    """Scale mixture over U ~ (1-eps) d_1 + eps d_a, by default a = 1 + 1/sqrt(eps)."""
    eps = _float(eps, "eps", lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
    if a is None:
        a = 1.0 + 1.0 / math.sqrt(eps)
    return ScaleMixtureChannel(TwoPoint(eps, a))


def fig3_rows(
    eps_grid: Sequence[float] = (),
    p: float = 0.0,
    q: float = 2.0,
) -> Tuple[List[str], List[tuple]]:
    """Bounds on I(U; Y) for the two-point Gaussian scalar mixture
    U ~ (1-eps) d_1 + eps d_a, a(eps) = 1 + 1/sqrt(eps).

    Atomic mixing means every column is quadrature/exact-sum based; rows
    carry no Monte Carlo noise.
    """
    rows = []
    for eps in list(eps_grid) or DEFAULT_EPS_GRID:
        ch = _two_point_mixture(eps)
        mi = mi_oracle(ch, "U")
        p9 = prop9_bound(ch, p, q, "U")
        c2 = chi2_mi_bound(ch, "U")
        rows.append((eps, mi, p9, c2))
    return ["eps", "mi_oracle", "prop9_bound", "chi2_bound"], rows
