"""Output checks, one per operation kind.

Each check compares an operation's output with references from oracle.py,
which are computed without the program, or with properties the output must
have (bounds above the mutual information, gaps nonnegative, the Gaussian
gap rising in n).  `check(op, out, rb)` returns (passed, detail).

The tolerances: 1e-4 is the gap optimiser's target; 1e-6 relative is three
orders above the program's quadrature tolerance (1e-9) and above the
12-significant-digit CSV rounding; Monte Carlo values must lie within four
of the program's reported standard errors.
"""

import math
from functools import lru_cache

import oracle as O

OPT = O.OPT_TOL


class Mismatch(Exception):
    pass


def _close(name, got, want, rel=1e-6, abs_=1e-9):
    if not abs(got - want) <= rel * abs(want) + abs_:
        raise Mismatch(f"{name}={got!r}, reference {want!r}")


def _at_least(name, got, floor, slack=1e-9):
    if not got >= floor - slack:
        raise Mismatch(f"{name}={got!r} below {floor!r}")


def _at_most(name, got, ceil, slack=0.0):
    if not got <= ceil + slack:
        raise Mismatch(f"{name}={got!r} above {ceil!r}")


# ---------------------------------------------------------------------------
# References, cached per parameter set: a round repeats its operations
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _lognormal_p0_gap(r, sigma2):
    """Independent p = 0 search on the closed-form lognormal gap."""
    from scipy import optimize

    m = (1.0 - r) / r

    def gap(w):
        bound, h = O.lognormal_entropy_bound(0.0, sigma2, r, 0.0, m + math.exp(w))
        return bound - h

    res = optimize.minimize_scalar(gap, bounds=(-16.0, 16.0), method="bounded",
                                   options={"xatol": 1e-10})
    # a coarse grid guards the bounded search against a missed bracket
    grid = min(gap(w) for w in [x / 4.0 for x in range(-64, 65)])
    return min(res.fun, grid)


@lru_cache(maxsize=None)
def _mixture(kind, eps, a):
    return O.awgn_two_point(eps, a) if kind == "awgn" else O.scale_mixture_given_u(eps, a)


@lru_cache(maxsize=None)
def _mixture_mi(kind, eps, a):
    return _mixture(kind, eps, a).mi()


@lru_cache(maxsize=None)
def _lognormal_mixture(mu, sigma2):
    lm = O.LognormalScaleMixture(mu, sigma2)
    return lm, lm.mi_given_u()


@lru_cache(maxsize=None)
def _density(name, param):
    if name == "half-normal":
        return O.half_normal()
    if name == "weibull":
        return O.weibull(param)
    if name == "lomax":
        return O.lomax(param)
    return O.beta22()


@lru_cache(maxsize=None)
def _generic_refs(name, param, r):
    d = _density(name, param)
    return d, d.renyi_entropy(r), O.generic_p0_gap(d, r)


# ---------------------------------------------------------------------------
# Per-kind checks; each raises Mismatch on the first violated condition
# ---------------------------------------------------------------------------


def _fig1(op, rows):
    p = op.params
    want = [(r, s2) for r in p["r_grid"] for s2 in p["sigma2"]]
    if [(row[0], row[1]) for row in rows] != want:
        raise Mismatch(f"grid {[(row[0], row[1]) for row in rows]} != {want}")
    for r, s2, two, one in rows:
        _at_least("delta_two_moment", two, 0.0, 0.0)
        _close(f"delta_two_moment(r={r})", two, O.lognormal_gap(r), 0.0, OPT)
        _at_least(f"delta_one_moment(r={r}, sigma2={s2})", one, two - OPT, 0.0)
        _close(f"delta_one_moment(r={r}, sigma2={s2})", one, _lognormal_p0_gap(r, s2), 0.0, OPT)


def _fig2(op, rows):
    r, n_max = op.params["r"], op.params["n_max"]
    ns = [row[0] for row in rows]
    if ns != [2.0**k for k in range(int(math.log2(n_max)) + 1)]:
        raise Mismatch(f"n column {ns}")
    limit = O.lognormal_gap(r)
    prev = -math.inf
    for n, two, one, lim in rows:
        _close("lognormal_limit", lim, limit, 1e-9, 1e-11)
        _at_least(f"delta_two_moment(n={n:g})", two, 0.0, 0.0)
        _at_least(f"delta_two_moment(n={n:g}) against n/2", two, prev - OPT, 0.0)
        _at_most(f"delta_two_moment(n={n:g})", two, limit, OPT)
        _at_least(f"delta_one_moment(n={n:g})", one, two - OPT, 0.0)
        prev = two


def _entropy_bound(op, rows):
    p = op.params
    (r, pp, qq, n, bound, h, gap), = rows
    if p["family"] == "lognormal":
        want_b, want_h = O.lognormal_entropy_bound(p["mu"], p["sigma2"], p["r"], p["p"], p["q"])
    else:
        want_b, want_h = O.gaussian_entropy_bound(p["n"], p["r"], p["p"], p["q"])
    _close("bound", bound, want_b, 1e-9)
    _close("entropy", h, want_h, 1e-9)
    _close("gap", gap, want_b - want_h, 1e-9, 1e-9 * max(1.0, abs(want_b)))
    _at_least("gap", gap, 0.0, 0.0)


def _mi_and_bounds(key, mi, named_bounds):
    """The MI against its reference; every bound against its reference and
    against the MI."""
    want_mi = _mixture_mi(*key)
    _close("mi_oracle", mi, want_mi)
    for name, got, want in named_bounds:
        _at_least(name, got, want_mi)
        _close(name, got, want())


def _fig3(op, rows):
    p, q = op.params["p"], op.params["q"]
    if [row[0] for row in rows] != list(op.params["eps_grid"]):
        raise Mismatch("eps column")
    for eps, mi, p9, c2 in rows:
        key = ("mixture", eps, 1.0 + 1.0 / math.sqrt(eps))
        ch = _mixture(*key)
        _mi_and_bounds(key, mi, [("prop9_bound", p9, lambda: ch.prop9(p, q)),
                                 ("chi2_bound", c2, ch.chi2_bound)])


def _mi_bound(op, rows):
    p = op.params
    (mi, p8, p9, c2), = rows
    if p["channel"] == "awgn-gaussian":
        want = 0.5 * math.log1p(p["sigma2"])
        _close("mi_oracle", mi, want)
        for name, v in (("prop8_bound", p8), ("prop9_bound", p9), ("chi2_bound", c2)):
            _at_least(name, v, want)
        return
    key = ("mixture", p["eps"], p["a"])
    ch = _mixture(*key)
    _mi_and_bounds(key, mi, [("prop8_bound", p8, lambda: ch.prop8(p["r"])),
                             ("prop9_bound", p9, lambda: ch.prop9(p["p"], p["q"])),
                             ("chi2_bound", c2, ch.chi2_bound)])


def _awgn_two_point(op, out):
    p = op.params
    mi, c2, p8, p9 = out
    key = ("awgn", p["eps"], p["a"])
    ch = _mixture(*key)
    _mi_and_bounds(key, mi, [("chi2_mi_bound", c2, ch.chi2_bound),
                             ("prop8_bound", p8, lambda: ch.prop8(p["r"])),
                             ("prop9_bound", p9, lambda: ch.prop9(p["p"], p["q"]))])


def _vs_mc(op, out):
    p = op.params
    value, se = out
    want = _lognormal_mixture(p["mu"], p["sigma2"])[0].V(p["s"])
    if not se > 0.0:
        raise Mismatch(f"standard error {se!r}")
    if not abs(value - want) <= 4.0 * se:
        raise Mismatch(f"V_s={value!r}, reference {want!r}, {abs(value - want) / se:.2f} SE off")


def _prop9_mc(op, out, rb):
    p = op.params
    lm, want_mi = _lognormal_mixture(p["mu"], p["sigma2"])
    _at_least("prop9_bound", out, want_mi)
    vp, vq = lm.V(p["p"]), lm.V(p["q"])
    want = O.prop9_from(vp, vq, p["p"], p["q"])
    # prop9_bound draws V_p and V_q on streams 1 and 2; the tolerance is four
    # of the standard errors the program reports for them, carried through
    # the bound's exponents lam / 2 and (1 - lam) / 2.
    se_p = rb.V_s(op.obj, p["p"], "U", stream=1).standard_error
    se_q = rb.V_s(op.obj, p["q"], "U", stream=2).standard_error
    lam = (p["q"] - 1.0) / (p["q"] - p["p"])
    rel = 0.5 * (lam * se_p / vp + (1.0 - lam) * se_q / vq)
    _close("prop9_bound", out, want, 4.0 * rel, 0.0)


def _gap_report(prm, report, which):
    r = prm["r"]
    p, q, gap, bound, h = report
    m = (1.0 - r) / r
    if which == "p = 0" and p != 0.0:
        raise Mismatch(f"p={p!r} with p pinned at 0")
    if not (p < m < q):
        raise Mismatch(f"{which}: (p, q)=({p!r}, {q!r}) outside p < 1/r - 1 < q")
    d, want_h, p0_best = _generic_refs(prm["density"], prm["param"], r)
    _close(f"{which}: h_r", h, want_h)
    _close(f"{which}: bound", bound, h + gap, 1e-12, 1e-12)
    _close(f"{which}: gap at the reported (p, q)", gap, O.generic_gap_at(d, r, p, q, want_h),
           0.0, 1e-6)
    _at_least(f"{which}: gap", gap, 0.0, 0.0)
    # The two-moment optimum is at most the p = 0 optimum, and the p = 0
    # search must reach it.
    _at_most(f"{which}: gap against the best p = 0 gap", gap, p0_best, OPT)


def _gap_row(op, out):
    two, one = out
    _gap_report(op.params, two, "two-moment")
    _gap_report(op.params, one, "p = 0")
    _at_least("one-moment gap", one[2], two[2] - OPT, 0.0)


_CHECKS = {
    "cli.fig1": _fig1,
    "cli.fig2": _fig2,
    "cli.entropy-bound": _entropy_bound,
    "cli.fig3": _fig3,
    "cli.mi-bound": _mi_bound,
    "api.awgn-two-point": _awgn_two_point,
    "api.V_s-mc": _vs_mc,
    "api.gap-row": _gap_row,
}


def check(op, out, rb):
    """(passed, detail) for one output of op."""
    try:
        if op.kind == "api.prop9-mc":
            _prop9_mc(op, out, rb)
        else:
            _CHECKS[op.kind](op, out)
    except Mismatch as exc:
        return False, str(exc)
    return True, ""
