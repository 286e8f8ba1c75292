"""Each output check accepts the program's real output and rejects a
deliberately perturbed copy; the references it uses agree with closed
forms.

Run from the root of the repository:  python3 -m pytest perfbench/tests -q
"""

import math

import pytest

import checks
import oracle as O
import renyi_bounds as rb
from workloads import FAULTY_AWGN_ATOMS, FAULTY_AWGN_EPS, Op, Runner, generic_densities
from renyi_bounds import cli

RUNNER = Runner(rb, cli)


def _passes(op, out):
    ok, detail = checks.check(op, out, rb)
    assert ok, detail


def _fails(op, out):
    ok, _ = checks.check(op, out, rb)
    assert not ok


def _bump(rows, i, j, delta):
    rows = [list(row) for row in rows]
    rows[i][j] += delta
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# entropy-gaps
# ---------------------------------------------------------------------------


def test_fig1_check():
    op = Op("cli.fig1", {"r_grid": (0.3, 0.7), "sigma2": (0.5, 4.0)}, 8)
    rows = RUNNER.run(op)
    _passes(op, rows)
    _fails(op, _bump(rows, 0, 2, 2e-4))  # two-moment gap off the closed form
    _fails(op, _bump(rows, 1, 3, -2e-4))  # one-moment gap below its optimum
    _fails(op, _bump(rows, 2, 3, 2e-4))  # one-moment gap above its optimum
    _fails(op, _bump(rows, 3, 1, 1.0))  # wrong grid point


def test_fig2_check():
    op = Op("cli.fig2", {"r": 0.2, "n_max": 64}, 21)
    rows = RUNNER.run(op)
    _passes(op, rows)
    _fails(op, _bump(rows, 4, 1, -(rows[4][1] - rows[3][1]) - 2e-4))  # gap falls with n
    _fails(op, _bump(rows, 6, 1, rows[6][3] - rows[6][1] + 2e-4))  # above the limit
    _fails(op, _bump(rows, 0, 3, 1e-8))  # limit off the closed form
    _fails(op, _bump(rows, 2, 2, rows[2][1] - rows[2][2] - 2e-4))  # one below two


@pytest.mark.parametrize("params", [
    {"family": "lognormal", "mu": 0.7, "sigma2": 2.5, "n": 1, "r": 0.4, "p": 0.3, "q": 3.1},
    {"family": "gaussian", "mu": 0.0, "sigma2": 1.0, "n": 16, "r": 0.6, "p": -0.5, "q": 1.5},
])
def test_entropy_bound_check(params):
    op = Op("cli.entropy-bound", params, 3)
    rows = RUNNER.run(op)
    _passes(op, rows)
    for col in (4, 5, 6):  # bound, entropy, gap
        _fails(op, _bump(rows, 0, col, 1e-6 * max(1.0, abs(rows[0][col]))))


# ---------------------------------------------------------------------------
# mi-channels
# ---------------------------------------------------------------------------


def test_fig3_check():
    op = Op("cli.fig3", {"eps_grid": (0.001, 0.2), "p": 0.0, "q": 2.0}, 6)
    rows = RUNNER.run(op)
    _passes(op, rows)
    for col in (1, 2, 3):  # mi, prop9, chi2
        _fails(op, _bump(rows, 1, col, 1e-5 * rows[1][col]))


@pytest.mark.parametrize("params", [
    {"channel": "two-point-mixture", "eps": 0.05, "a": 30.0, "p": 0.5, "q": 3.0, "r": 0.4},
    {"channel": "awgn-gaussian", "sigma2": 3.0, "p": 0.0, "q": 2.0, "r": 0.5},
])
def test_mi_bound_check(params):
    op = Op("cli.mi-bound", params, 4)
    rows = RUNNER.run(op)
    _passes(op, rows)
    _fails(op, _bump(rows, 0, 0, 1e-5 * rows[0][0]))  # the MI
    if params["channel"] == "awgn-gaussian":
        _fails(op, _bump(rows, 0, 3, rows[0][0] - rows[0][3] - 1e-6))  # a bound below the MI
    else:
        for col in (1, 2, 3):
            _fails(op, _bump(rows, 0, col, 1e-5 * rows[0][col]))


def test_awgn_two_point_check():
    params = {"eps": 0.3, "a": 6.0, "r": 0.5, "p": 0.5, "q": 2.0}
    op = Op("api.awgn-two-point", params, 4, obj=rb.AwgnChannel(rb.TwoPoint(0.3, 6.0)))
    out = RUNNER.run(op)
    _passes(op, out)
    for i in range(4):
        bumped = list(out)
        bumped[i] *= 1.0 + 1e-5
        _fails(op, tuple(bumped))


def test_awgn_two_point_known_fault_is_caught():
    a = FAULTY_AWGN_ATOMS[1]
    params = {"eps": FAULTY_AWGN_EPS, "a": a, "r": 0.5, "p": 0.5, "q": 2.0}
    op = Op("api.awgn-two-point", params, 4, known_fault=True,
            obj=rb.AwgnChannel(rb.TwoPoint(FAULTY_AWGN_EPS, a)))
    _fails(op, RUNNER.run(op))


def test_vs_mc_check():
    ch = rb.ScaleMixtureChannel(rb.Lognormal(0.2, 0.6))
    op = Op("api.V_s-mc", {"mu": 0.2, "sigma2": 0.6, "s": 1.5, "stream": 0}, 1, obj=ch)
    value, se = RUNNER.run(op)
    _passes(op, (value, se))
    _fails(op, (value + 5.0 * se, se))
    _fails(op, (value - 5.0 * se, se))
    _fails(op, (value, 0.0))


def test_prop9_mc_check():
    ch = rb.ScaleMixtureChannel(rb.Lognormal(-0.1, 0.5))
    op = Op("api.prop9-mc", {"mu": -0.1, "sigma2": 0.5, "p": 0.4, "q": 1.8}, 1, obj=ch)
    out = RUNNER.run(op)
    _passes(op, out)
    _fails(op, out * 1.05)
    _fails(op, out * 0.95)


# ---------------------------------------------------------------------------
# generic-gaps
# ---------------------------------------------------------------------------


def _row_op(name, param, r):
    d = generic_densities(rb)[name](param)
    return Op("api.gap-row", {"density": name, "param": param, "r": r}, 6, obj=d)


def _with(row, which, **changes):
    keys = ("p", "q", "gap", "bound", "h")
    reports = [dict(zip(keys, rep)) for rep in row]
    reports[which].update(changes)
    return tuple(tuple(rep[k] for k in keys) for rep in reports)


def test_gap_row_check():
    op = _row_op("weibull", 2.0, 0.6)
    row = RUNNER.run(op)
    _passes(op, row)
    (p2, q2, gap2, bound2, h2), (p1, q1, gap1, bound1, h1) = row
    for which, gap, bound, h in ((0, gap2, bound2, h2), (1, gap1, bound1, h1)):
        _fails(op, _with(row, which, gap=gap + 1e-5, bound=bound + 1e-5))  # gap off its (p, q)
        _fails(op, _with(row, which, bound=bound + 1e-5))  # bound != entropy + gap
        _fails(op, _with(row, which, gap=gap - 1e-5, h=h + 1e-5))  # wrong h_r
        _fails(op, _with(row, which, gap=-1e-3))  # negative gap
    _fails(op, _with(row, 1, p=0.1))  # p not pinned at zero
    _fails(op, _with(row, 0, p=1.0))  # p above 1/r - 1
    worse = O.generic_gap_at(O.weibull(2.0), 0.6, 0.0, 3.0 * q1)
    _fails(op, _with(row, 1, q=3.0 * q1, gap=worse, bound=h1 + worse))  # far from the optimum


def test_gap_row_check_rejects_stalled_search():
    # Beta(2,2) at r = 0.3: the two-moment search stops above the p = 0 optimum.
    op = _row_op("beta22", 0.0, 0.3)
    _fails(op, RUNNER.run(op))


# ---------------------------------------------------------------------------
# The references themselves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dens", [O.half_normal(), O.weibull(1.7), O.lomax(4.5), O.beta22()])
def test_quadrature_moments_match_closed_forms(dens):
    for s in (-0.5, 0.3, 1.0, 2.5):
        assert dens.log_moment(s) == pytest.approx(dens.exact_log_moment(s), abs=1e-9)


def test_lognormal_gap_matches_the_beta_form():
    for r in (0.1, 0.5, 0.9):
        a = 0.5 * r / (1.0 - r)
        btilde = (O.log_beta_tilde(a, a) + 0.5 * math.log(r / (4.0 * (1.0 - r))) + 0.5
                  - 0.5 * (O.LOG_2PI + math.log(r) / (r - 1.0)))
        assert O.lognormal_gap(r) == pytest.approx(btilde, abs=1e-12)


def test_awgn_mi_tends_to_the_input_entropy():
    eps = 0.3
    h_b = -eps * math.log(eps) - (1.0 - eps) * math.log(1.0 - eps)
    assert O.awgn_two_point(eps, 100.0).mi() == pytest.approx(h_b, abs=1e-9)
    assert O.awgn_two_point(eps, 100.0).chi2_bound() == pytest.approx(math.log(2.0), abs=1e-9)


def test_kappa_limits():
    assert O.kappa(1.0) == 1.0
    for t in (0.1, 0.5, 0.9):
        assert 1.0 / (math.e * t) < O.kappa(t) <= 1.0 / t
