"""Oracle infrastructure tests: Gauss-Kronrod panels and transforms,
divergence detection, and seeded Monte Carlo."""

import math

import numpy as np
import pytest
import scipy.integrate as si

from renyi_bounds.errors import DivergenceDetected, DomainError, MaxSubdivisionsExceeded
from renyi_bounds.quadrature import (
    _ABS_TOL,
    _GAUSS_IDX,
    _GWEIGHTS,
    _KWEIGHTS,
    _MAX_SUBDIVISIONS,
    _NODES,
    Domain,
    NumericsConfig,
    _unit_transform,
    integrate,
    mc_expect,
    rng_for,
)

CFG = NumericsConfig()


class TestDomains:
    def test_finite_validation(self):
        with pytest.raises(DomainError):
            Domain.finite(2.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            Domain("circle")


class TestIntegrate:
    def test_exponential_half_line(self):
        res = integrate(lambda x: np.exp(-x), Domain.half_line(0.0), CFG)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.error <= max(CFG.rel_tol * res.value, _ABS_TOL)

    def test_normal_density_full_line(self):
        res = integrate(
            lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), Domain.full_line(), CFG
        )
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_cr_integrand_arctan(self):
        # (1 + x^2)^-1 on (0, inf): the closed-form arctan integral pi/2.
        res = integrate(lambda x: 1.0 / (1.0 + x * x), Domain.half_line(0.0), CFG)
        assert res.value == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_kronrod_polynomial_exactness(self):
        # The 15-point rule is exact for polynomials of degree <= 22.
        res = integrate(lambda x: x**13, Domain.finite(0.0, 1.0), CFG)
        assert res.value == pytest.approx(1.0 / 14.0, rel=1e-14)

    def test_shifted_half_line(self):
        res = integrate(lambda x: np.exp(-(x - 3.0)), Domain.half_line(3.0), CFG)
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_against_scipy_oscillatory(self):
        f = lambda x: np.sin(x) ** 2 * np.exp(-0.3 * x)
        mine = integrate(f, Domain.half_line(0.0), CFG).value
        ref = si.quad(f, 0, np.inf, limit=300)[0]
        assert mine == pytest.approx(ref, rel=1e-8)

    def test_endpoint_singularity(self):
        # Integrable inverse-sqrt singularity at the finite endpoint.
        res = integrate(lambda x: 1.0 / np.sqrt(x), Domain.finite(0.0, 1.0), CFG)
        assert res.value == pytest.approx(2.0, rel=1e-8)


class TestDivergence:
    def test_one_over_x_tail(self):
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: 1.0 / (1.0 + x), Domain.half_line(0.0), CFG)

    def test_constant_tail(self):
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: np.ones_like(x), Domain.half_line(0.0), CFG)

    def test_zero_end_divergence(self):
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: 1.0 / x**2, Domain.half_line(0.0), CFG)

    def test_full_line_linear_growth(self):
        with pytest.raises(DivergenceDetected):
            integrate(lambda x: np.abs(x), Domain.full_line(), CFG)

    def test_peaked_but_convergent_not_flagged(self):
        # Mass grows through several doubling windows before the peak at
        # x = 40; growth toward a peak must not be mistaken for divergence.
        f = lambda x: x**2 * np.exp(-0.5 * ((x - 40.0) / 3.0) ** 2)
        res = integrate(f, Domain.half_line(0.0), CFG)
        ref = si.quad(f, 0, np.inf, limit=300)[0]
        assert res.value == pytest.approx(ref, rel=1e-8)

    def test_max_subdivisions(self):
        # sin(1/x) oscillates without end toward 0: no panel budget resolves it
        with pytest.raises(MaxSubdivisionsExceeded):
            integrate(lambda x: np.sin(1.0 / x), Domain.finite(0.0, 1.0), CFG)


# ---------------------------------------------------------------------------
# Oracle for the batched panels: the one-panel-per-call integrate and tail
# pre-scan they replaced, as they were apart from names and comments.
# ---------------------------------------------------------------------------


def _seq_panel(g, lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    u = mid + half * _NODES
    with np.errstate(all="ignore"):
        y = np.asarray(g(u), dtype=float)
    if not np.all(np.isfinite(y)):
        raise DivergenceDetected(f"integrand not finite on panel [{lo!r}, {hi!r}]")
    k15 = half * float(np.dot(_KWEIGHTS, y))
    g7 = half * float(np.dot(_GWEIGHTS, y[_GAUSS_IDX]))
    return k15, abs(k15 - g7)


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


def _seq_integrate(f, domain, cfg):
    if domain.kind != "finite" and _seq_tails_diverge(f, domain, _ABS_TOL * 1e-3):
        raise DivergenceDetected(f"tail mass fails decay test on {domain.kind}")
    lo, hi, to_x, jac = _unit_transform(domain)

    def g(u):
        return np.asarray(f(to_x(u)), dtype=float) * jac(u)

    nseed = 8 if domain.kind == "finite" else 16
    edges = np.linspace(lo, hi, nseed + 1)
    panels = []
    for i in range(nseed):
        val, err = _seq_panel(g, edges[i], edges[i + 1])
        panels.append([err, edges[i], edges[i + 1], val])
    for _ in range(_MAX_SUBDIVISIONS):
        total = sum(p[3] for p in panels)
        total_err = sum(p[0] for p in panels)
        if total_err <= max(cfg.rel_tol * abs(total), _ABS_TOL):
            return total, total_err
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, plo, phi, _ = panels.pop(worst)
        mid = 0.5 * (plo + phi)
        for a, b in ((plo, mid), (mid, phi)):
            val, err = _seq_panel(g, a, b)
            panels.append([err, a, b, val])
    total = sum(p[3] for p in panels)
    total_err = sum(p[0] for p in panels)
    raise MaxSubdivisionsExceeded(
        f"error {total_err:.3e} above tolerance after "
        f"{_MAX_SUBDIVISIONS} subdivisions (value ~ {total:.6e})"
    )


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
        value, error = fn(f, domain, CFG)
    except (DivergenceDetected, MaxSubdivisionsExceeded) as exc:
        return type(exc), str(exc)
    return float(value).hex(), float(error).hex()


class TestBatchedPanels:
    @pytest.mark.parametrize("name", list(_EQUIVALENCE_CASES))
    def test_bit_identical_to_one_panel_per_call(self, name):
        # Same panels in the same order: the same (value, error) to the
        # bit, or the same exception naming the same panel.
        f, domain = _EQUIVALENCE_CASES[name]
        assert _outcome(integrate, f, domain) == _outcome(_seq_integrate, f, domain)

    def test_totals_are_numpy_scalars(self):
        # Panel values stay np.float64, so builtin sum adds them in plain
        # order on every Python version (its compensated path takes exact
        # floats only), and callers keep numpy's scalar arithmetic.
        res = integrate(*_EQUIVALENCE_CASES["normal full line"], CFG)
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
        ],
        ids=["finite seed grid", "normal full line", "1/(1+x) half line"],
    )
    def test_integrand_calls(self, f, domain, max_calls):
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return f(x)

        try:
            integrate(counted, domain, CFG)
        except DivergenceDetected:
            pass
        assert len(sizes) <= max_calls
        assert all(n % 15 == 0 for n in sizes)


class TestMonteCarlo:
    def test_constant(self):
        res = mc_expect(lambda x: np.ones_like(x), lambda rng, n: rng.random(n), CFG)
        assert res.value == 1.0
        assert res.standard_error == 0.0

    def test_normal_second_moment(self):
        res = mc_expect(lambda x: x * x, lambda rng, n: rng.standard_normal(n), CFG)
        assert abs(res.value - 1.0) <= 3.0 * res.standard_error

    def test_gaussian_pair_identity(self):
        # Same expectation as the 2-D quadrature test above: 1/sqrt(2).
        def sampler(rng, n):
            return rng.standard_normal(n), rng.standard_normal(n)

        res = mc_expect(lambda p: np.exp(-0.25 * (p[0] - p[1]) ** 2), sampler, CFG)
        assert abs(res.value - 1.0 / math.sqrt(2.0)) <= 3.0 * res.standard_error

    def test_bit_identical_reruns(self):
        sampler = lambda rng, n: rng.standard_normal(n)
        a = mc_expect(lambda x: np.sin(x), sampler, CFG)
        b = mc_expect(lambda x: np.sin(x), sampler, CFG)
        assert a.value == b.value and a.standard_error == b.standard_error

    def test_streams_differ_but_are_stable(self):
        cfg = NumericsConfig(rng_seed=7)
        s0 = rng_for(cfg, 0).standard_normal(8)
        s1 = rng_for(cfg, 1).standard_normal(8)
        assert not np.array_equal(s0, s1)
        assert np.array_equal(s0, rng_for(cfg, 0).standard_normal(8))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            NumericsConfig(rel_tol=0.0)

    def test_negative_seed_rejected(self):
        # SeedSequence would raise a bare ValueError at the first draw
        with pytest.raises(DomainError):
            NumericsConfig(rng_seed=-1)
        assert NumericsConfig(rng_seed=0).rng_seed == 0
