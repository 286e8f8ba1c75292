"""Scalar special functions: log-gamma, the Binet remainder, Beta and its
normalized variant, and the logarithm-power ratio kappa.

All closed-form constants in this package reduce to these primitives,
one route each.  Log-gamma is math.lgamma; ln_gamma refuses an x whose
log Gamma(x) leaves the float range (x above about 2.56e305) instead of
returning inf.  The independent routes that check them (scipy and mpmath
in the test suite; the Lambert W closed form of kappa in verify) live
outside the library.

_float owns the package's checks of a numeric argument, _choice those of
a str choice.  A number is read as float() reads it, a numeric str too,
and anything else raises a RenyiBoundsError.  A check returns the float
it checked, which its caller works on from then on; on a hot path it keeps
one inline test, gated on type(x) is float, and sends the rest to _float.

Conventions
-----------
ln_gamma(x)   log Gamma(x) for x > 0.

theta(x)      remainder in Binet's formula,
                  log Gamma(x) = (x - 1/2) log x - x + (1/2) log(2 pi) + theta(x),
              which is positive, convex and decreasing, with theta(x) -> 0
              as x -> infinity.

beta_tilde    B~(a, b) = B(a, b) (a+b)^(a+b) a^(-a) b^(-b).

kappa(t)      sup_{u > 0} log(1 + u) / u^t for t in (0, 1], attained at the
              unique positive fixed point of u = t (1 + u) log(1 + u).
"""

import math

from .errors import DomainError

LOG_2PI = math.log(2.0 * math.pi)

# Stirling / Binet series coefficients B_{2n} / ((2n)(2n-1)), used as
# theta(x) ~ sum c_n / x^(2n-1).  Nine terms keep the truncation error
# below 1e-17 for x >= 10.
_BINET_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
)


def _theta_series(x: float) -> float:
    """Binet remainder from the asymptotic series; accurate for x >= 10."""
    inv2 = 1.0 / (x * x)
    acc = 0.0
    term = 1.0 / x
    for c in _BINET_COEF:
        acc += c * term
        term *= inv2
    return acc


def _float(x, name: str, ok=None, need: str = "be a float", error: type = DomainError) -> float:
    """x as a float, refused as error unless ok(float(x)) holds: the one
    owner of the numeric-argument checks of this package.

    A refusal reads "{name} must {need}, got ...", worded from the
    converted float, or from what kept x from converting: float() raises
    OverflowError for an int beyond the float range, and TypeError or
    ValueError for a non-number.  x itself, whose repr raises ValueError
    above 4,300 digits, is never formatted.  ok=None tests nothing.
    """
    try:
        v = float(x)
    except OverflowError:
        raise error(f"{name} must {need}, got a number beyond the float range") from None
    except (TypeError, ValueError):
        raise error(f"{name} must {need}, got a {type(x).__name__}") from None
    if ok is not None and not ok(v):
        raise error(f"{name} must {need}, got {v!r}")
    return v


def _choice(x, name: str, choices: tuple) -> None:
    """Refuses x unless it is one of the str choices, showing the repr of a
    str and the type name of anything else."""
    if x not in choices:
        got = repr(x) if isinstance(x, str) else f"a {type(x).__name__}"
        raise DomainError(f"{name} must be one of {', '.join(choices)}, got {got}")


def _positive_finite(v: float) -> bool:
    return 0.0 < v < math.inf


def _exp(v: float, name: str) -> float:
    """exp(v), refused as DomainError where it leaves the float range."""
    try:
        return math.exp(v)
    except OverflowError:
        raise DomainError(f"{name} = exp({v:.6g}) leaves the float range") from None


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0, by math.lgamma.

    Raises DomainError for x <= 0, non-finite x, and x above about
    2.56e305, where log Gamma(x) leaves the float range.
    """
    if not (type(x) is float and 0.0 < x < math.inf):  # GaussianMagnitude.log_moment's hot path
        x = _float(x, "the x of ln_gamma", _positive_finite, "be finite and > 0")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log Gamma({x!r}) leaves the float range") from None


def theta(x: float) -> float:
    """Remainder theta(x) in Binet's formula for log Gamma.

    Below 10 it is math.lgamma less the Stirling main term.  For x >= 10
    the asymptotic series is used directly; that subtraction would cancel
    nearly all significant digits there (theta(1e6) ~ 8e-8 against terms
    of size 1e7).
    """
    return _theta(_float(x, "the x of theta", _positive_finite, "be finite and > 0"))


def _theta(x: float) -> float:
    """theta for a float x that is already known to be finite and > 0."""
    if x >= 10.0:
        return _theta_series(x)
    return math.lgamma(x) - (x - 0.5) * math.log(x) + x - 0.5 * LOG_2PI


def log_beta(x: float, y: float) -> float:
    """log B(x, y) = log Gamma(x) + log Gamma(y) - log Gamma(x + y)."""
    x = _float(x, "the x of log_beta", lambda v: v > 0.0, "be > 0")
    y = _float(y, "the y of log_beta", lambda v: v > 0.0, "be > 0")
    return ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y)


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) for x, y > 0."""
    return _exp(log_beta(x, y), "B(x, y)")


def log_beta_tilde(x: float, y: float) -> float:
    """log of B~(x, y) = B(x, y) (x+y)^(x+y) x^(-x) y^(-y) by Binet's formula,
    (1/2) log(2 pi (x+y)/(x y)) + theta(x) + theta(y) - theta(x+y): no large
    log-gamma and x log x terms that cancel (to a few units near r = 1)."""
    if type(x) is not float or type(y) is not float:
        x, y = _float(x, "the x of log_beta_tilde"), _float(y, "the y of log_beta_tilde")
    s = x + y
    if not (0.0 < x < math.inf and 0.0 < y < math.inf and s < math.inf):
        raise DomainError(f"log_beta_tilde requires finite x, y, x + y > 0, got ({x!r}, {y!r})")
    half_log = 0.5 * (LOG_2PI + math.log(s) - math.log(x) - math.log(y))
    return half_log + _theta(x) + _theta(y) - _theta(s)


def beta_tilde(x: float, y: float) -> float:
    """Normalized Beta function B~(x, y); satisfies B~(x, y) >= (x+y)/(x y)."""
    return _exp(log_beta_tilde(x, y), "B~(x, y)")


# ---------------------------------------------------------------------------
# Logarithm-power ratio kappa(t)
# ---------------------------------------------------------------------------


def _fixed_point_v(t: float) -> float:
    """Solve exp(-v) = 1 - t v for the positive root v in (0, 1/t).

    Substituting v = log(1 + u) turns the maximizer equation
    u = t (1 + u) log(1 + u) into this form, which stays well inside
    double range even as t -> 0 where u itself overflows (u ~ e^(1/t)).

    F(v) = exp(-v) - 1 + t v is convex with F(1/t) > 0, so Newton from
    v = 1/t decreases monotonically to the root; a bisection safeguard
    keeps the iterate inside the bracket regardless.
    """
    lo, hi = 0.0, 1.0 / t
    v = hi
    for _ in range(200):
        f = math.exp(-v) - 1.0 + t * v
        if f > 0.0:
            hi = v
        else:
            lo = v
        df = t - math.exp(-v)
        step = f / df
        v_new = v - step
        if not (lo < v_new < hi):
            v_new = 0.5 * (lo + hi)
        if abs(v_new - v) <= 1e-16 * max(1.0, v):
            v = v_new
            break
        v = v_new
    return v


def kappa(t: float) -> float:
    """kappa(t) = sup_{u > 0} log(1 + u) / u^t on (0, 1]; kappa(1) = 1.

    At the fixed point, with v = log(1 + u*), the value simplifies to
    v exp(-t v) (t v)^(-t) because 1 - exp(-v) = t v there.  Satisfies
    1/(e t) < kappa(t) <= 1/t, and t kappa(t) is nondecreasing from 1/e
    to 1.
    """
    t = _float(t, "the t of kappa", lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
    if t == 1.0:
        return 1.0
    v = _fixed_point_v(t)
    return v * math.exp(-t * v - t * math.log(t * v))

