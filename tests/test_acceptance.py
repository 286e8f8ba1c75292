"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria are property-based plus desk-scale reproduction of every closed
form against independent oracles; the heavy lifting lives in
renyi_bounds.verify so the CLI `verify` command and this module can never
drift apart.  Criterion 9 additionally exercises byte-level CLI
reproducibility, which only makes sense at the process boundary.
"""

import json
import math

import pytest

from renyi_bounds import cli, verify
from renyi_bounds.cli import main
from renyi_bounds.verify import CheckResult, run_verification


CRITERIA = {
    1: (
        "special functions: reflection, theta shape, Binet/B-tilde identities, "
        "Lambert residuals, kappa bounds and g monotone",
        [
            "specfun.reflection_identity",
            "specfun.theta_monotone_convex",
            "specfun.theta_large_x.small",
            "specfun.theta_large_x.leading_term",
            "specfun.beta_tilde_binet_identity",
            "specfun.beta_tilde_lower_bound",
            "specfun.lambert_w_residuals",
            "specfun.kappa_bounds_and_monotone_g.exact_at_one",
            "specfun.kappa_bounds_and_monotone_g.bounds",
            "specfun.kappa_bounds_and_monotone_g.g_monotone",
            "specfun.kappa_bounds_and_monotone_g.g_limit",
            "specfun.kappa_newton_vs_lambert.agreement",
            "specfun.kappa_newton_vs_lambert.newton_residual",
        ],
    ),
    2: (
        "two-moment validity on 4 densities x 27 (r,p,q), psi vs c_r quadrature",
        [
            "moment_core.prop2_validity",
            "moment_core.psi_matches_cr_quadrature",
        ],
    ),
    3: (
        "lognormal gap: closed forms to 1e-10, optimizer to 1e-4, "
        "parameter invariance to 2e-4, vanishing at r=0.999",
        [
            "entropy.lognormal_gap_two_forms",
            "entropy.lognormal_optimal_gap.vs_closed_form",
            "entropy.lognormal_optimal_gap.parameter_spread",
            "entropy.lognormal_gap_vanishes",
        ],
    ),
    4: (
        "Gaussian gap: Q lower bound, Q(1e4) near 1/2, monotone in n, "
        "large-n limit within 0.05 of the lognormal constant",
        [
            "entropy.gaussian_Q_lower_bound",
            "entropy.gaussian_Q_large_n",
            "entropy.prop6_gaussian_to_lognormal.monotone",
            "entropy.prop6_gaussian_to_lognormal.limit",
        ],
    ),
    5: (
        "differential-entropy corollaries: s=2 Gaussian bound to 1e-8, "
        "log-moment equality for lognormal to 1e-6",
        [
            "entropy.h_moment_bound_unit_normal",
            "entropy.h_logmoment_equality_lognormal",
        ],
    ),
    6: (
        "MI ordering on AWGN: oracle = (1/2)log(1+s2) to 1e-6 and below "
        "every implemented bound",
        [
            "mi.awgn_capacity_identity",
            "mi.awgn_bound_ordering",
        ],
    ),
    7: (
        "V_s identities: kernel decomposition, |a|^(s-n) scaling, "
        "constant-mixture equality, given-U upper bound",
        [
            "mi.vs_kernel_decomposition.s0_vs_monte_carlo",
            "mi.vs_kernel_decomposition.s2_vs_kernel_sums",
            "mi.vs_scaling_law",
            "mi.vs_constant_mixture_vs_awgn",
            "mi.vs_given_u_upper_bound",
        ],
    ),
    8: (
        "figure-3 phenomenon: two-moment MI bound decays to zero while the "
        "chi-square bound stays bounded away",
        [
            "mi.fig3_two_moment_beats_chi2.prop9_increasing",
            "mi.fig3_two_moment_beats_chi2.prop9_to_zero",
            "mi.fig3_two_moment_beats_chi2.chi2_above",
            "mi.fig3_two_moment_beats_chi2.mi_below_prop9",
            "mi.fig3_two_moment_beats_chi2.mi_below_chi2",
        ],
    ),
    9: (
        "determinism: Monte Carlo under the fixed seed and sweeps bit-reproducible",
        [
            "quadrature.mc_determinism.value",
            "quadrature.mc_determinism.standard_error",
            "quadrature.mc_determinism.draws",
            "sweeps.fig3_repeatable",
            "quadrature.mc_vs_quadrature",
        ],
    ),
}


@pytest.fixture(scope="module")
def verification():
    return {res.name: res for res in run_verification()}


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(verification, criterion):
    title, names = CRITERIA[criterion]
    results = [verification[name] for name in names]
    passed = all(r.passed for r in results)
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {title}")
    for r in results:
        print(f"    [{'ok' if r.passed else 'FAIL'}] {r.name}: "
              f"worst={r.worst:.3e} tol={r.tol:.3e} {r.note}")
    assert passed, [r.name for r in results if not r.passed]


def test_criterion_9_cli_byte_reproducible(tmp_path):
    """verify and fig3 outputs byte-identical from run to run: the
    Monte Carlo seed is a constant, and no option or environment variable
    moves it."""
    outputs = []
    for tag in ("a", "b"):
        fig = tmp_path / f"fig3-{tag}.csv"
        ver = tmp_path / f"verify-{tag}.csv"
        assert main(["fig3", "--eps-grid", "0.001,0.01,0.1", "--out", str(fig)]) == 0
        assert main(["verify", "--out", str(ver)]) == 0
        outputs.append((fig.read_bytes(), ver.read_bytes()))
    passed = outputs[0] == outputs[1]
    print(f"criterion 9 (CLI bytes): {'PASS' if passed else 'FAIL'}")
    assert passed


def test_every_verification_check_passes(verification):
    """The CLI `verify` command exits 0: no check in the suite fails."""
    failures = [name for name, res in verification.items() if not res.passed]
    assert failures == []


# Every verify row's tolerance and comparison sense: "<=" rows hold
# worst <= tol, "<" rows worst < bound, with tol the float just below bound.
# Loosening a check, or adding or dropping a row, is an edit here.
ROW_TOLERANCES = {
    "specfun.reflection_identity": ("<=", 1e-10),
    "specfun.theta_monotone_convex": ("<=", 1e-8),
    "specfun.theta_large_x.small": ("<", 1e-6),
    "specfun.theta_large_x.leading_term": ("<=", 10.0 / (360.0 * 1e18)),
    "specfun.beta_tilde_binet_identity": ("<=", 1e-10),
    "specfun.beta_tilde_lower_bound": ("<=", 1e-12),
    "specfun.lambert_w_residuals": ("<=", 1e-12),
    "specfun.kappa_bounds_and_monotone_g.exact_at_one": ("<=", 0.0),
    "specfun.kappa_bounds_and_monotone_g.bounds": ("<=", 1e-9),
    "specfun.kappa_bounds_and_monotone_g.g_monotone": ("<=", 1e-10),
    "specfun.kappa_bounds_and_monotone_g.g_limit": ("<=", 2e-2),
    "specfun.kappa_newton_vs_lambert.agreement": ("<=", 1e-9),
    "specfun.kappa_newton_vs_lambert.newton_residual": ("<=", 1e-12),
    "moment_core.prop2_validity": ("<=", 1e-9),
    "moment_core.psi_matches_cr_quadrature": ("<=", 1e-6),
    "entropy.lognormal_gap_two_forms": ("<=", 1e-10),
    "entropy.lognormal_optimal_gap.vs_closed_form": ("<=", 1e-4),
    "entropy.lognormal_optimal_gap.parameter_spread": ("<=", 2e-4),
    "entropy.lognormal_gap_vanishes": ("<=", 1e-2),
    "entropy.gaussian_Q_lower_bound": ("<=", 1e-12),
    "entropy.gaussian_Q_large_n": ("<=", 2e-2),
    "entropy.prop6_gaussian_to_lognormal.monotone": ("<=", 1e-9),
    "entropy.prop6_gaussian_to_lognormal.limit": ("<", 0.05),
    "entropy.h_moment_bound_unit_normal": ("<=", 1e-8),
    "entropy.h_logmoment_equality_lognormal": ("<=", 1e-6),
    "mi.awgn_capacity_identity": ("<=", 1e-6),
    "mi.awgn_bound_ordering": ("<=", 1e-9),
    "mi.vs_kernel_decomposition.s0_vs_monte_carlo": ("<=", 4.0),  # standard errors
    "mi.vs_kernel_decomposition.s2_vs_kernel_sums": ("<=", 1e-6),
    "mi.vs_scaling_law": ("<=", 1e-8),
    "mi.vs_constant_mixture_vs_awgn": ("<=", 1e-9),
    "mi.vs_given_u_upper_bound": ("<=", 1e-12),
    "mi.fig3_two_moment_beats_chi2.prop9_increasing": ("<", 0.0),
    "mi.fig3_two_moment_beats_chi2.prop9_to_zero": ("<", 0.02),
    "mi.fig3_two_moment_beats_chi2.chi2_above": ("<", 0.0),
    "mi.fig3_two_moment_beats_chi2.mi_below_prop9": ("<=", 1e-9),
    "mi.fig3_two_moment_beats_chi2.mi_below_chi2": ("<=", 1e-9),
    "quadrature.mc_determinism.value": ("<=", 0.0),
    "quadrature.mc_determinism.standard_error": ("<=", 0.0),
    "quadrature.mc_determinism.draws": ("<=", 0.0),
    "sweeps.fig3_repeatable": ("<=", 0.0),
    "quadrature.mc_vs_quadrature": ("<=", 4.0),  # standard errors
}


def test_every_row_tolerance_pinned(verification):
    assert list(verification) == list(ROW_TOLERANCES)
    assert sorted(n for _, names in CRITERIA.values() for n in names) == sorted(ROW_TOLERANCES)
    for name, (sense, bound) in ROW_TOLERANCES.items():
        tol = verification[name].tol
        if sense == "<":
            assert tol < bound and tol == math.nextafter(bound, -math.inf), name
        else:
            assert tol == bound, name


def test_row_passes_iff_worst_within_tol():
    assert CheckResult("a", 1.0, 1.0).passed
    assert not CheckResult("a", math.nextafter(1.0, 2.0), 1.0).passed
    assert not CheckResult("a", math.nan, 1.0).passed


def test_raising_check_is_one_failed_row(monkeypatch):
    def check_boom():
        raise ValueError("no, not this")

    monkeypatch.setattr(verify, "_CHECKS", [check_boom])
    (row,) = run_verification()
    assert (row.name, row.passed) == ("check_boom", False)
    assert "ValueError" in row.note and "," not in row.note


def test_cli_prints_rows_as_data(monkeypatch, tmp_path, capsys):
    rows = [CheckResult("x.ok", 0.5, 1.0, "a note"), CheckResult("x.bad", 2.0, 1.0)]
    monkeypatch.setattr(cli, "run_verification", lambda: rows)
    out = tmp_path / "verify.json"
    assert main(["verify", "--format", "json", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["check", "passed", "worst", "tol", "note"]
    assert doc["rows"] == [["x.ok", True, 0.5, 1.0, "a note"], ["x.bad", False, 2.0, 1.0, ""]]
    assert capsys.readouterr().err == "FAILED x.bad: worst=2 tol=1\n"
    assert main(["verify"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "check,passed,worst,tol,note", "x.ok,true,0.5,1,a note", "x.bad,false,2,1,"]
