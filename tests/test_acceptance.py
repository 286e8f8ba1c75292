"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria are property-based plus desk-scale reproduction of every closed
form against independent oracles; the heavy lifting lives in
renyi_bounds.verify so the CLI `verify` command and this module can never
drift apart.  Criterion 9 additionally exercises byte-level CLI
reproducibility, which only makes sense at the process boundary.
"""

import pytest

from renyi_bounds.cli import main
from renyi_bounds.verify import run_verification


CRITERIA = {
    1: (
        "special functions: reflection, theta shape, Binet/B-tilde identities, "
        "Lambert residuals, kappa bounds and g monotone",
        [
            "specfun.reflection_identity",
            "specfun.theta_monotone_convex",
            "specfun.theta_large_x",
            "specfun.beta_tilde_binet_identity",
            "specfun.beta_tilde_lower_bound",
            "specfun.lambert_w_residuals",
            "specfun.kappa_bounds_and_monotone_g",
            "specfun.kappa_newton_vs_lambert",
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
            "entropy.lognormal_optimal_gap",
            "entropy.lognormal_gap_vanishes",
        ],
    ),
    4: (
        "Gaussian gap: Q lower bound, Q(1e4) near 1/2, monotone in n, "
        "large-n limit within 0.05 of the lognormal constant",
        [
            "entropy.gaussian_Q_lower_bound",
            "entropy.gaussian_Q_large_n",
            "entropy.prop6_gaussian_to_lognormal",
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
            "mi.vs_kernel_decomposition",
            "mi.vs_scaling_law",
            "mi.vs_constant_mixture_vs_awgn",
            "mi.vs_given_u_upper_bound",
        ],
    ),
    8: (
        "figure-3 phenomenon: two-moment MI bound decays to zero while the "
        "chi-square bound stays bounded away",
        [
            "mi.fig3_two_moment_beats_chi2",
        ],
    ),
    9: (
        "determinism: Monte Carlo under the fixed seed and sweeps bit-reproducible",
        [
            "quadrature.mc_determinism",
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
        print(f"    [{'ok' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
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
