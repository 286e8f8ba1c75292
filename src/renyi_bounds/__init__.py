"""Two-moment integral inequalities, Renyi-entropy upper bounds with their
optimality gaps, and mutual-information bounds from the variance of the
conditional density -- with adaptive-quadrature and Monte Carlo oracles
verifying every closed form."""

__version__ = "0.1.0"

from .errors import (
    DivergenceDetected,
    DomainError,
    Infeasible,
    InvalidMomentOrder,
    MaxSubdivisionsExceeded,
    MomentDiverges,
    OptimizerNoConverge,
    RenyiBoundsError,
    UnsupportedOperation,
)
from .quadrature import Domain, MCResult, NumericsConfig, QuadratureResult, integrate, mc_expect
from .specfun import beta, beta_tilde, kappa, ln_gamma, theta
from .moment_core import (
    MomentVector,
    Support,
    TwoMomentParams,
    c_r_numeric,
    k_moment_bound,
    lambda_of,
    omega,
    psi_r,
    two_moment_bound,
)
from .distributions import (
    GaussianMagnitude,
    GenericPdf,
    Lognormal,
    PointMass,
    ScalarDistribution,
    TwoPoint,
    L_r,
)
from .entropy_bounds import (
    BoundReport,
    GapReport,
    diff_entropy_bounds,
    entropy_bound,
    lognormal_gap_closed,
    mult_bound_check,
    optimal_gap,
)
from .mi_bounds import (
    AwgnChannel,
    ScaleMixtureChannel,
    VsValue,
    V_s,
    chi2_mi_bound,
    kernel_Ks,
    mi_oracle,
    prop7_bound,
    prop8_bound,
    prop9_bound,
    vs_upper_bound_check,
)
from .verify import CheckResult, run_verification
