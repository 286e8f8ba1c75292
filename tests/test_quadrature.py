"""Oracle infrastructure tests: Gauss-Kronrod panels and transforms,
divergence detection, and seeded Monte Carlo."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from renyi_bounds.errors import (
    DivergenceDetected,
    DomainError,
    MaxSubdivisionsExceeded,
    RenyiBoundsError,
)
from renyi_bounds import quadrature
from renyi_bounds.distributions import GenericPdf
from renyi_bounds.quadrature import (
    _ABS_TOL,
    _KWEIGHTS,
    _NODES,
    _REL_TOL,
    Domain,
    _converged_panels,
    _DensityPanels,
    _tails_diverge,
    integrate,
    mc_expect,
    rng_for,
)



class TestDomains:
    def test_finite_validation(self):
        with pytest.raises(DomainError):
            Domain.finite(2.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            Domain("circle")

    @pytest.mark.parametrize("a, b, kind", [
        (0.0, 7.0, "half_line"), (3.0, 0.0, "full_line"), (3.0, 7.0, "full_line"),
    ])
    def test_ignored_endpoint_refused(self, a, b, kind):
        # Domain("full_line", 3.0, 7.0) integrated over the whole line, yet
        # compared unequal to Domain.full_line()
        with pytest.raises(DomainError, match="does not use"):
            Domain(kind, a, b)
        assert Domain(kind) == Domain(kind, -0.0, -0.0)

    @pytest.mark.parametrize("make", [
        lambda: Domain.half_line(math.nan),  # "tail mass fails decay test"
        lambda: Domain.half_line(math.inf),
        lambda: Domain.finite(0.0, math.inf),  # "integrand not finite"
        lambda: Domain.finite(-math.inf, 0.0),
        lambda: Domain.finite(math.nan, 1.0),
    ], ids=["half-nan", "half-inf", "finite-inf", "finite-minus-inf", "finite-nan"])
    def test_non_finite_endpoints_refused(self, make):
        with pytest.raises(DomainError):
            make()


class TestIntegrate:
    def test_exponential_half_line(self):
        res = integrate(lambda x: np.exp(-x), Domain.half_line(0.0))
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.error <= max(_REL_TOL * res.value, _ABS_TOL)

    def test_normal_density_full_line(self):
        res = integrate(
            lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), Domain.full_line()
        )
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_cr_integrand_arctan(self):
        # (1 + x^2)^-1 on (0, inf): the closed-form arctan integral pi/2.
        res = integrate(lambda x: 1.0 / (1.0 + x * x), Domain.half_line(0.0))
        assert res.value == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_kronrod_polynomial_exactness(self):
        # The 15-point rule is exact for polynomials of degree <= 22.
        res = integrate(lambda x: x**13, Domain.finite(0.0, 1.0))
        assert res.value == pytest.approx(1.0 / 14.0, rel=1e-14)

    def test_shifted_half_line(self):
        res = integrate(lambda x: np.exp(-(x - 3.0)), Domain.half_line(3.0))
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_against_scipy_oscillatory(self):
        f = lambda x: np.sin(x) ** 2 * np.exp(-0.3 * x)
        mine = integrate(f, Domain.half_line(0.0)).value
        ref = si.quad(f, 0, np.inf, limit=300)[0]
        assert mine == pytest.approx(ref, rel=1e-8)

    def test_endpoint_singularity(self):
        # Integrable inverse-sqrt singularity at the finite endpoint.
        res = integrate(lambda x: 1.0 / np.sqrt(x), Domain.finite(0.0, 1.0))
        assert res.value == pytest.approx(2.0, rel=1e-8)


class TestDivergence:
    def test_one_over_x_tail(self):
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: 1.0 / (1.0 + x), Domain.half_line(0.0))

    def test_constant_tail(self):
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: np.ones_like(x), Domain.half_line(0.0))

    def test_zero_end_divergence(self):
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: 1.0 / x**2, Domain.half_line(0.0))

    def test_full_line_linear_growth(self):
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: np.abs(x), Domain.full_line())

    def test_peaked_but_convergent_not_flagged(self):
        # Mass grows through several doubling windows before the peak at
        # x = 40; growth toward a peak must not be mistaken for divergence.
        f = lambda x: x**2 * np.exp(-0.5 * ((x - 40.0) / 3.0) ** 2)
        res = integrate(f, Domain.half_line(0.0))
        ref = si.quad(f, 0, np.inf, limit=300)[0]
        assert res.value == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("f, domain", [
        (lambda x: np.abs(x + 164.0) ** -1.772, Domain.full_line()),
        (lambda x: np.abs(x - 100.0) ** -1.5 * np.exp(-x / 100.0), Domain.half_line(0.0)),
    ], ids=["|x+164|^-1.772 full line", "|x-100|^-1.5 e^(-x/100) half line"])
    def test_non_integrable_interior_pole_refused(self, f, domain):
        # |x - c|^p with p <= -1 at an interior c has no finite integral
        with pytest.raises(RenyiBoundsError):
            integrate(f, domain)

    @pytest.mark.parametrize("c", [0.9e308, 0.2e308], ids=["panel sum", "total"])
    def test_overflowing_sum_refused(self, c):
        # every node value is finite, but a panel's K15 sum or the total
        # overflows: a refusal, not a value of inf
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: np.full_like(x, c), Domain.finite(0.0, 16.0))

    def test_max_subdivisions(self):
        # sin(1/x) oscillates without end toward 0: no panel budget resolves it
        with pytest.raises(MaxSubdivisionsExceeded):
            integrate(lambda x: np.sin(1.0 / x), Domain.finite(0.0, 1.0))


# ---------------------------------------------------------------------------
# Oracle for the batched tail pre-scan: the one-window-per-call scan it
# replaced, as it was apart from names and comments.
# ---------------------------------------------------------------------------


def _seq_window_mass(f, lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    with np.errstate(all="ignore"):
        y = np.asarray(f(mid + half * _NODES), dtype=float)
    if not np.all(np.isfinite(y)):
        return math.inf
    return abs(half * float(np.dot(_KWEIGHTS, y)))


def _seq_tails_diverge(f, domain, floor):
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
            mass = _seq_window_mass(f, lo, hi)
            if not math.isfinite(mass):
                return True
            if prev is not None:
                if prev > floor and mass >= prev * (1.0 - 1e-10):
                    streak += 1
                else:
                    streak = 0
            if mass <= floor and (prev is None or prev <= floor):
                decayed = True
                break
            prev = mass
        if not decayed and streak >= 3:
            return True
    return False


_HALF = Domain.half_line(0.0)
_EQUIVALENCE_CASES = {
    "normal full line": (
        lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
        Domain.full_line(),
    ),
    "x^-0.9 gaussian": (lambda x: x**-0.9 * np.exp(-0.5 * x * x), _HALF),
    "x^0.1 gaussian": (lambda x: x**0.1 * np.exp(-0.5 * x * x), _HALF),
    "x^2.5 gaussian": (lambda x: x**2.5 * np.exp(-0.5 * x * x), _HALF),
    "lomax": (lambda x: (1.0 + x) ** -6.0, _HALF),
    "x^-0.5 exp": (lambda x: x**-0.5 * np.exp(-x), _HALF),
    "beta(2,2)": (lambda x: 6.0 * x * (1.0 - x), Domain.finite(0.0, 1.0)),
    "1/(1+x) divergent": (lambda x: 1.0 / (1.0 + x), _HALF),
    "(1+x)^-1.05": (lambda x: (1.0 + x) ** -1.05, _HALF),
    "sin(1/x) budget": (lambda x: np.sin(1.0 / x), Domain.finite(0.0, 1.0)),
}


def _outcome(fn, f, domain):
    try:
        value, error = fn(f, domain)
    except (DivergenceDetected, MaxSubdivisionsExceeded) as exc:
        return type(exc), str(exc)
    return float(value).hex(), float(error).hex()


# The exact integrals of the converging cases above.
_EXACT = {
    "normal full line": 1.0,
    "x^-0.9 gaussian": 2.0**-0.95 * math.gamma(0.05),
    "x^0.1 gaussian": 2.0**-0.45 * math.gamma(0.55),
    "x^2.5 gaussian": 2.0**0.75 * math.gamma(1.75),
    "lomax": 1.0 / 5.0,
    "x^-0.5 exp": math.sqrt(math.pi),
    "beta(2,2)": 1.0,
}


class TestBatchedPanels:
    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 1: the estimate is not honest at an x^-0.9 endpoint "
                   "singularity, off by 1.4e-8 while reporting 3.0e-9",
        )) if name == "x^-0.9 gaussian" else name
        for name in _EXACT
    ])
    def test_matches_closed_form(self, name):
        f, domain = _EQUIVALENCE_CASES[name]
        exact = _EXACT[name]
        value = integrate(f, domain).value
        assert abs(value - exact) <= max(_REL_TOL * abs(exact), _ABS_TOL), (value, exact)

    @pytest.mark.parametrize("name", list(_EQUIVALENCE_CASES))
    def test_tail_verdict_matches_one_window_per_call(self, name):
        f, domain = _EQUIVALENCE_CASES[name]
        floor = _ABS_TOL * 1e-3
        assert _tails_diverge(f, domain, floor) == _seq_tails_diverge(f, domain, floor)

    def test_totals_are_numpy_scalars(self):
        # The totals are numpy sums over the panels, and stay np.float64 so
        # that callers keep numpy's scalar arithmetic.
        res = integrate(*_EQUIVALENCE_CASES["normal full line"])
        assert type(res.value) is np.float64
        assert type(res.error) is np.float64

    def test_cases_cover_every_outcome(self):
        # The case list reaches a non-finite panel, a failed decay test and
        # an exhausted budget, and the other seven cases converge, so the
        # equivalence above covers each path.
        outcomes = {name: _outcome(integrate, *c) for name, c in _EQUIVALENCE_CASES.items()}
        assert "not finite on panel" in outcomes.pop("(1+x)^-1.05")[1]
        assert "fails decay test" in outcomes.pop("1/(1+x) divergent")[1]
        assert outcomes.pop("sin(1/x) budget")[0] is MaxSubdivisionsExceeded
        assert all(isinstance(value_hex, str) for value_hex, _ in outcomes.values())

    @pytest.mark.parametrize(
        "f, domain, max_calls",
        [
            (lambda x: 6.0 * x * (1.0 - x), Domain.finite(0.0, 1.0), 1),  # seed grid only
            (lambda x: np.exp(-0.5 * x * x), Domain.full_line(), 6),
            (lambda x: 1.0 / (1.0 + x), _HALF, 8),  # a full 52-window scan
            # a graded split resolves the x^-0.5 pole in one step
            (lambda x: x**-0.5 * np.exp(-x), _HALF, 16),
        ],
        ids=["finite seed grid", "normal full line", "1/(1+x) half line", "x^-0.5 exp half line"],
    )
    def test_integrand_calls(self, f, domain, max_calls):
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return f(x)

        try:
            integrate(counted, domain)
        except DivergenceDetected:
            pass
        assert len(sizes) <= max_calls
        assert all(n % 15 == 0 for n in sizes)


def _density_rule(f, domain, width):
    # the rule on a GenericPdf's cached panels, as mi_bounds builds it
    return GenericPdf(f, domain)._panels.rule(width)


class TestRule:
    def test_weights_integrate_smooth_functions(self):
        # the rule of N(0, 1) integrates x^2 and cos x against it; the pdf
        # underflows to 0 at the far nodes, whose weights are dropped
        xs, ws = _density_rule(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
                               Domain.full_line(), 1.0)
        assert (ws > 0.0).all() and np.isfinite(xs).all()
        assert ws.sum() == pytest.approx(1.0, rel=1e-9)
        assert ws @ xs**2 == pytest.approx(1.0, rel=1e-9)
        assert ws @ np.cos(xs) == pytest.approx(math.exp(-0.5), rel=1e-9)

    @pytest.mark.parametrize("f,domain", [
        (lambda x: np.full_like(x, 0.01), Domain.finite(0.0, 100.0)),
        (lambda x: np.exp(-0.5 * x * x / 900.0) / math.sqrt(1800.0 * math.pi), Domain.full_line()),
        (lambda x: np.exp(-x), Domain.half_line()),
    ])
    def test_nodes_no_farther_apart_than_width(self, f, domain):
        # the mass integrals are easy here (that of U(0, 100) converges on
        # its 8 seed panels of width 12.5), but the rule must resolve h on
        # the scale width: its panels are no wider, and K15 nodes are at
        # most 0.104 panel widths apart
        xs, ws = _density_rule(f, domain, 2.0)
        assert np.diff(np.sort(xs)).max() <= 0.104 * 2.0
        assert ws.sum() == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("name,width,digest", [
        ("half-normal", 1.0, "152e8933a55a54cb88114724ece0b997a0c5648a6aac79ce845e069ac5a67f03"),
        ("half-normal", 2.0, "1a9ec954ccb46adac0b360eac04daf2327f9e5bf80de573c8d2a50bbb6ed921f"),
        ("exp1", 1.0, "52089505637ea122a5688eec17a436bb474c61a065eaf31da71e974e34bdfc91"),
        ("exp1", 2.0, "75d819b4a59f32734135082f180bcb6d8e2af3004768399b5f5464b33492a265"),
    ])
    def test_rule_starts_from_the_mass_panels(self, name, width, digest):
        # integrals start from the moment panels (a graded lower end), the
        # rule from the mass panels: its nodes and weights are those of a
        # cache without moment panels, bit for bit (SHA-256 of their bytes,
        # recorded before the moment panels existed)
        c = math.sqrt(2.0 / math.pi)
        f = {"half-normal": lambda x: c * np.exp(-0.5 * x * x), "exp1": lambda x: np.exp(-x)}[name]
        xs, ws = _density_rule(f, Domain.half_line(), width)
        assert hashlib.sha256(xs.tobytes() + ws.tobytes()).hexdigest() == digest

    def test_power_law_tail_refused(self):
        # a Cauchy tail never underflows within the panel budget
        with pytest.raises(MaxSubdivisionsExceeded):
            _density_rule(lambda x: 1.0 / (math.pi * (1.0 + x * x)), Domain.full_line(), 2.0)

    def test_refuses_negative_weights(self):
        # a GenericPdf refuses this signed density, so its panels come from
        # the mass integral itself
        f, domain = lambda x: 1.0 + 2.0 * np.sin(2.0 * np.pi * x), Domain.finite(0.0, 1.0)
        lo, hi, *_ = _converged_panels(f, domain)
        with pytest.raises(DomainError, match="negative"):
            _DensityPanels(f, domain, lo, hi).rule(2.0)


class TestMonteCarlo:
    def test_constant(self):
        res = mc_expect(lambda x: np.ones_like(x), lambda rng, n: rng.random(n))
        assert res.value == 1.0
        assert res.standard_error == 0.0

    def test_normal_second_moment(self):
        res = mc_expect(lambda x: x * x, lambda rng, n: rng.standard_normal(n))
        assert abs(res.value - 1.0) <= 3.0 * res.standard_error

    def test_gaussian_pair_identity(self):
        # Same expectation as the 2-D quadrature test above: 1/sqrt(2).
        def sampler(rng, n):
            return rng.standard_normal(n), rng.standard_normal(n)

        res = mc_expect(lambda p: np.exp(-0.25 * (p[0] - p[1]) ** 2), sampler)
        assert abs(res.value - 1.0 / math.sqrt(2.0)) <= 3.0 * res.standard_error

    def test_g_of_the_wrong_shape_refused(self):
        with pytest.raises(DomainError):
            mc_expect(lambda x: x[:10], lambda rng, n: rng.random(n))

    def test_bit_identical_reruns(self):
        sampler = lambda rng, n: rng.standard_normal(n)
        a = mc_expect(lambda x: np.sin(x), sampler)
        b = mc_expect(lambda x: np.sin(x), sampler)
        assert a.value == b.value and a.standard_error == b.standard_error

    def test_streams_differ_but_are_stable(self):
        s0 = rng_for(0).standard_normal(8)
        s1 = rng_for(1).standard_normal(8)
        assert not np.array_equal(s0, s1)
        assert np.array_equal(s0, rng_for(0).standard_normal(8))

    def test_one_fixed_seed(self):
        # every stream of every run comes from the seed the CLI header prints
        want = np.random.Generator(np.random.Philox(np.random.SeedSequence(20170825, spawn_key=(3,))))
        assert np.array_equal(rng_for(3).random(4), want.random(4))



class TestRelativeTolerance:
    """The relative tolerance is the constant _REL_TOL, read each time the
    adaptive loop runs: patching it reruns a quadrature tighter."""

    def test_integrate_reads_it_per_call(self):
        f = lambda x: np.exp(-0.5 * x * x)
        default = integrate(f, Domain.full_line())
        with mock.patch.object(quadrature, "_REL_TOL", _REL_TOL / 100):
            tight = integrate(f, Domain.full_line())
        assert tight.error <= _REL_TOL / 100 * tight.value < default.error
        assert tight.value == pytest.approx(default.value, rel=_REL_TOL)
        assert integrate(f, Domain.full_line()) == default

    def test_generic_log_moment_reads_it_per_call(self):
        d = GenericPdf(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), Domain.full_line())
        exact = 0.25 * math.log(2.0) + math.lgamma(0.75) - 0.5 * math.log(math.pi)  # E|Z|^(1/2)
        default = d.log_moment(0.5)
        with mock.patch.object(quadrature, "_REL_TOL", _REL_TOL / 100):
            tight = d.log_moment(0.5)
        assert abs(tight - exact) < 1e-12 < abs(default - exact) < 1e-10
        assert d.log_moment(0.5) == default


# Fuzzing the contract of integrate: a finite value whose error estimate
# meets the stated tolerance, or a RenyiBoundsError.  Whether the value is
# right is checked elsewhere; far peaks that the quadrature misses are a
# known fault, and the ranges below do not avoid them.
_ANY_FLOAT = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _maybe_wild(plausible):
    return st.one_of(plausible, _ANY_FLOAT)


_INTEGRANDS = {
    # shape -> (centre c, width w, exponent k) -> integrand
    "gauss": lambda c, w, k: lambda x: np.exp(-0.5 * ((x - c) / w) ** 2),
    "laplace": lambda c, w, k: lambda x: np.exp(-np.abs(x - c) / w),
    "power": lambda c, w, k: lambda x: (1.0 + np.abs(x - c) / w) ** -k,
    "pole": lambda c, w, k: lambda x: np.abs(x - c) ** (k - 2.0),
    "smooth-pole": lambda c, w, k: lambda x: np.abs(x - c) ** (k - 2.0) * np.exp(-np.abs(x) / w),
}

_DOMAINS = st.one_of(
    st.builds(lambda a, width: ("finite", a, a + width),
              _maybe_wild(st.floats(-50.0, 50.0)), _maybe_wild(st.floats(1e-3, 100.0))),
    st.builds(lambda a: ("half_line", a, 0.0), _maybe_wild(st.floats(-50.0, 50.0))),
    st.just(("full_line", 0.0, 0.0)),
)


@given(
    shape=st.sampled_from(sorted(_INTEGRANDS)),
    centre=_maybe_wild(st.floats(-200.0, 200.0)),
    width=st.floats(1e-3, 1e3),
    k=st.floats(0.0, 5.0),
    domain=_DOMAINS,
    rel_tol=st.floats(1e-12, 1e-3),
)
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_integrate_contract_fuzz(shape, centre, width, k, domain, rel_tol):
    f = _INTEGRANDS[shape](centre, width, k)
    kind, a, b = domain
    try:
        with mock.patch.object(quadrature, "_REL_TOL", rel_tol):
            res = integrate(f, Domain(kind, a, b))
    except RenyiBoundsError:
        return
    assert math.isfinite(res.value) and math.isfinite(res.error), (res, domain)
    assert res.error <= max(rel_tol * abs(res.value), _ABS_TOL), (res, domain)
