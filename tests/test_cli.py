"""Command-line front end: formats, exit codes and reproducibility."""

import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from renyi_bounds.cli import main
from renyi_bounds.distributions import Lognormal
from renyi_bounds.mi_bounds import ScaleMixtureChannel, V_s


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _rows(path):
    lines = _read(path).decode().strip().splitlines()
    assert lines[0].startswith("# renyi-bounds")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestFigureCommands:
    def test_fig1_two_moment_column_sigma_free(self, tmp_path):
        out = tmp_path / "fig1.csv"
        rc = main(["fig1", "--r-grid", "0.2,0.5,0.8", "--sigma2", "0.1,1,10",
                   "--out", str(out)])
        assert rc == 0
        header, rows = _rows(out)
        assert header == ["r", "sigma2", "delta_two_moment", "delta_one_moment"]
        for r_val in ("0.2", "0.5", "0.8"):
            two = [float(row[2]) for row in rows if row[0] == r_val]
            assert len(two) == 3
            assert max(two) - min(two) <= 2e-4

    def test_fig2_monotone_and_near_limit(self, tmp_path):
        out = tmp_path / "fig2.csv"
        rc = main(["fig2", "--r", "0.1", "--n-max", "64", "--out", str(out)])
        assert rc == 0
        header, rows = _rows(out)
        assert header == ["n", "delta_two_moment", "delta_one_moment", "lognormal_limit"]
        two = [float(row[1]) for row in rows]
        assert all(b >= a - 1e-9 for a, b in zip(two, two[1:]))
        assert abs(float(rows[-1][1]) - float(rows[-1][3])) < 0.05

    def test_fig3_ordering(self, tmp_path):
        out = tmp_path / "fig3.csv"
        rc = main(["fig3", "--eps-grid", "0.001,0.01,0.1", "--out", str(out)])
        assert rc == 0
        _, rows = _rows(out)
        for row in rows:
            eps, mi, p9, c2 = (float(v) for v in row)
            assert mi <= p9 + 1e-9 and mi <= c2 + 1e-9
        p9s = [float(row[2]) for row in rows]
        assert p9s == sorted(p9s)  # decreasing toward eps -> 0

    def test_single_shot_commands(self, capsys):
        assert main(["entropy-bound", "--family", "lognormal", "--sigma2", "2",
                     "--r", "0.5", "--p", "0", "--q", "2"]) == 0
        body = capsys.readouterr().out
        assert "bound_nats" in body
        assert main(["mi-bound", "--channel", "awgn-gaussian", "--sigma2", "1"]) == 0
        body = capsys.readouterr().out
        line = body.strip().splitlines()[-1]
        mi = float(line.split(",")[0])
        assert mi == pytest.approx(0.5 * np.log(2.0), abs=1e-6)


class TestReproducibility:
    def test_fig3_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fig3", "--eps-grid", "0.001,0.1"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert _read(a) == _read(b)

    def test_seed_environment_variable_ignored(self, tmp_path, monkeypatch):
        # the Monte Carlo seed is a constant: the variable that once set it moves no
        # byte, and no Monte Carlo bit (fig3's mixing law is atomic: it draws nothing)
        ch = ScaleMixtureChannel(Lognormal(0.0, 0.25))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.delenv("RENYI_BOUNDS_SEED", raising=False)
        assert main(["fig3", "--eps-grid", "0.01", "--out", str(a)]) == 0
        unset = V_s(ch, 1.0, "U")
        monkeypatch.setenv("RENYI_BOUNDS_SEED", "1")
        assert main(["fig3", "--eps-grid", "0.01", "--out", str(b)]) == 0
        assert _read(a) == _read(b) and b" seed=20170825 " in _read(a)
        set_ = V_s(ch, 1.0, "U")
        assert unset.method == "monte_carlo"
        assert (set_.value, set_.standard_error) == (unset.value, unset.standard_error)

    # The header line every CSV starts with, and the SHA-256 of the lines
    # after it under the default seed, pinned apart: a header-only change
    # must not hide whether the payload moved.  A change that moves a
    # payload must fix a numerical bug, or change the columns as a named
    # format change, and say so.
    HEADER = ("# renyi-bounds 0.1.0 command={} seed=20170825 rel_tol=1e-09 "
              "max_subdivisions=2000 mc_samples=200000")
    DEFAULT_CSV_SHA256 = {
        "fig1": "cdede237258c572babe3b6a44c9d2702078c4a73c1e60226934c76bb74cdc8bd",
        "fig2": "2375930b67255c88f6b9ceebfc26735512fc75c5cc9ec63c7407e135536c56da",
        "fig3": "75207cda39cac68636e56d686e4b2e0fbc3adee346e8ce5480673ff29163828a",
        "verify": "bb5d51708fc1076f9ab9913fbfb2be0a642ceffa2eea157472e3e9be683dcfdc",
    }

    def _assert_pinned(self, path, command, digest):
        header, payload = _read(path).split(b"\n", 1)
        assert header.decode() == self.HEADER.format(command)
        assert hashlib.sha256(payload).hexdigest() == digest

    @pytest.mark.parametrize("command", sorted(DEFAULT_CSV_SHA256))
    def test_default_csv_pinned(self, command, tmp_path, monkeypatch):
        monkeypatch.delenv("RENYI_BOUNDS_SEED", raising=False)
        out = tmp_path / f"{command}.csv"
        assert main([command, "--out", str(out)]) == 0
        self._assert_pinned(out, command, self.DEFAULT_CSV_SHA256[command])

    # The same for single-shot queries whose bound goes through the
    # two-moment inequality (Prop 9 and the entropy bound).
    QUERY_CSV_SHA256 = {
        "mi-bound --channel awgn-gaussian":
            "bdda41e19d722e383450ef60b6d2ba869ac85569595500f45c89a9a316606600",
        "mi-bound --channel two-point-mixture":
            "b4f56fed3be685c308516f28b8fe1e426a7c49edd954ed3080a7789831147c8e",
        "entropy-bound --family lognormal --sigma2 2 --r 0.5 --p 0 --q 2":
            "a49cdda44f2a38813504a90003c074241bca05b060cb64e61352d0386dcbeac5",
        "entropy-bound --family gaussian --n 3 --r 0.4 --p 0.1 --q 2":
            "a67b0d834765ef8e1679efb8f5b84878a847152d5f50ad09012ccf9157363c3f",
    }

    @pytest.mark.parametrize("query", sorted(QUERY_CSV_SHA256))
    def test_query_csv_pinned(self, query, tmp_path, monkeypatch):
        monkeypatch.delenv("RENYI_BOUNDS_SEED", raising=False)
        out = tmp_path / "query.csv"
        assert main(query.split() + ["--out", str(out)]) == 0
        self._assert_pinned(out, query.split()[0], self.QUERY_CSV_SHA256[query])

    @pytest.mark.parametrize("sigma2", ["1e-8", "1e-12", "1e-16"])
    def test_low_snr_awgn_gaussian_refused(self, sigma2, capsys):
        # the chi-square integral cannot certify rel_tol there: refused, not
        # printed below I = (1/2) log1p(sigma2)
        assert main(["mi-bound", "--channel", "awgn-gaussian", "--sigma2", sigma2]) == 2
        assert "error" in capsys.readouterr().err

    def test_low_snr_awgn_gaussian_bounds_above_mi(self, tmp_path):
        out = tmp_path / "query.csv"
        assert main(["mi-bound", "--channel", "awgn-gaussian", "--sigma2", "1e-30",
                     "--out", str(out)]) == 0
        header, rows = _rows(out)
        row = dict(zip(header, map(float, rows[0])))
        for name in ("prop8_bound", "prop9_bound", "chi2_bound"):
            assert row[name] >= 0.5 * math.log1p(1e-30), (name, row)

    def test_json_format(self, tmp_path):
        out = tmp_path / "fig3.json"
        assert main(["fig3", "--eps-grid", "0.01,0.1", "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(_read(out))
        assert doc["meta"]["command"] == "fig3"
        assert doc["columns"][0] == "eps"
        assert len(doc["rows"]) == 2


class TestExitCodes:
    def test_unknown_option_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--bogus-flag", "1"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig9"])
        assert exc.value.code == 2

    def test_invalid_parameters_exit_2(self, capsys):
        rc = main(["entropy-bound", "--family", "lognormal", "--sigma2", "-1",
                   "--r", "0.5", "--p", "0", "--q", "2"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--mu", "nan", "--sigma2", "1"],
        ["--mu", "inf", "--sigma2", "1"],
        ["--mu", "0", "--sigma2", "inf"],
    ], ids=["mu-nan", "mu-inf", "sigma2-inf"])
    def test_non_finite_family_parameter_exit_2(self, args, capsys):
        rc = main(["entropy-bound", "--family", "lognormal", *args,
                   "--r", "0.5", "--p", "0", "--q", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv, flag", [
        (["entropy-bound", "--family", "gaussian", "--mu", "5", "--n", "2"], "--mu"),
        (["entropy-bound", "--family", "gaussian", "--sigma2", "9", "--n", "2"], "--sigma2"),
        (["entropy-bound", "--family", "gaussian", "--mu", "nan"], "--mu"),
        (["entropy-bound", "--family", "lognormal", "--n", "7"], "--n"),
        (["mi-bound", "--channel", "awgn-gaussian", "--eps", "0.3"], "--eps"),
        (["mi-bound", "--channel", "awgn-gaussian", "--a", "3"], "--a"),
        (["mi-bound", "--channel", "two-point-mixture", "--sigma2", "2"], "--sigma2"),
    ], ids=["gaussian-mu", "gaussian-sigma2", "gaussian-mu-nan", "lognormal-n", "awgn-eps",
            "awgn-a", "two-point-sigma2"])
    def test_ignored_flag_exit_2(self, argv, flag, capsys):
        # each printed the same row as without the flag
        if argv[0] == "entropy-bound":
            argv = argv + ["--r", "0.5", "--p", "0", "--q", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} ") and captured.out == ""

    @pytest.mark.parametrize("family, fixed, used", [
        ("gaussian", ["--mu", "0.0", "--sigma2", "1.0"], ["--n", "3"]),
        ("lognormal", ["--n", "1"], ["--mu", "0.4", "--sigma2", "2.0"]),
    ], ids=["gaussian", "lognormal"])
    def test_flags_at_the_values_the_family_uses(self, family, fixed, used, capsys):
        # the argv shapes the benchmark sends: the flags a family does not
        # use, at the values it fixes, print the row of the flags it uses
        tail = ["--r", "0.4", "--p", "0.1", "--q", "2"]
        assert main(["entropy-bound", "--family", family, *fixed, *used, *tail]) == 0
        full = capsys.readouterr().out
        assert main(["entropy-bound", "--family", family, *used, *tail]) == 0
        assert capsys.readouterr().out == full

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        rc = main(["entropy-bound", "--family", "lognormal", "--r", "0.5", "--p", "0",
                   "--q", "2", "--out", str(tmp_path / "missing" / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["fig1", "--r-grid", "", "--sigma2", "1"], "--r-grid"),
        (["fig1", "--r-grid", "0.5", "--sigma2", ","], "--sigma2"),
        (["fig3", "--eps-grid", ",,"], "--eps-grid"),
    ], ids=["r-grid", "sigma2", "eps-grid"])
    def test_empty_grid_exit_2(self, argv, flag, capsys):
        # an empty list read as an absent flag: every default row was printed
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}: empty" in captured.err and captured.out == ""

    def test_fig2_empty_dimension_range_exit_2(self, capsys):
        assert main(["fig2", "--n-max", "0"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("eps", ["0", "-1", "1", "nan"])
    def test_mixture_weight_outside_unit_interval_exit_2(self, eps, capsys):
        # the default second atom 1 + 1/sqrt(eps) used to raise before eps was checked
        assert main(["mi-bound", "--channel", "two-point-mixture", f"--eps={eps}"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("args", [
        ["--channel", "two-point-mixture", "--eps", "0.01", "--q", "250"],
        ["--channel", "two-point-mixture", "--eps", "0.01", "--q", "300"],
        ["--channel", "two-point-mixture", "--eps", "0.01", "--q", "400"],
        ["--channel", "awgn-gaussian", "--sigma2", "9", "--q", "340"],
        ["--channel", "two-point-mixture", "--eps", "0.33", "--a", "1e300", "--p", "0.5",
         "--q", "4.9"],
    ], ids=["q250", "q300", "q400", "awgn-q340", "a1e300"])
    def test_out_of_range_moment_orders_exit_2(self, args, capsys):
        # these printed inf or 0 for prop9_bound, or raised OverflowError
        assert main(["mi-bound", *args]) == 2
        captured = capsys.readouterr()
        assert "float range" in captured.err and captured.out == ""

    def test_q_one_ulp_above_one_exit_2(self, capsys):
        # lam = (q-1)/(q-p) rounds to 0: refused by name, not inside log_beta_tilde
        assert main(["mi-bound", "--channel", "two-point-mixture", "--eps", "0.01",
                     "--q", "1.0000000000000002"]) == 2
        captured = capsys.readouterr()
        assert "lam = 0.0" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["fig1"],
        ["fig2"],
        ["fig3"],
        ["entropy-bound", "--family", "lognormal", "--r", "0.5", "--p", "0", "--q", "2"],
        ["mi-bound", "--channel", "two-point-mixture"],
        ["verify"],
    ], ids=["fig1", "fig2", "fig3", "entropy-bound", "mi-bound", "verify"])
    def test_tol_option_exits_2(self, argv, capsys):
        # the quadrature tolerance is fixed; --tol is no option
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-6"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fig1", "fig3", "verify"])
    def test_seed_option_exits_2(self, command):
        # the Monte Carlo seed is fixed; --seed is no option
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1"])
        assert exc.value.code == 2

    def test_lognormal_moment_overflow_exit_2(self, capsys):
        # said the moment "diverges", although every lognormal moment is finite
        assert main(["entropy-bound", "--family", "lognormal", "--mu", "1e308",
                     "--r", "0.5", "--p", "0", "--q", "2"]) == 2
        captured = capsys.readouterr()
        assert "float range" in captured.err and captured.out == ""

    def test_unresolvable_lognormal_gap_exit_2(self, capsys):
        # at sigma2 = 1e300 the gap search cannot resolve (p, q); it printed
        # a gap of 3.55e286 against the optimum 0.0326
        assert main(["fig1", "--r-grid=0.5", "--sigma2=1e+300"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    def test_invalid_moment_order_exit_2(self, capsys):
        rc = main(["entropy-bound", "--family", "lognormal", "--sigma2", "1",
                   "--r", "0.5", "--p", "3", "--q", "4"])
        assert rc == 2

    def test_dimension_whose_log_gamma_overflows_exit_2(self, capsys):
        # log Gamma(n/2) was inf, so every log-moment was nan and exit 0 printed nan
        assert main(["entropy-bound", "--family", "gaussian", "--n", str(10**306),
                     "--r", "0.5", "--p", "0.1", "--q", "2"]) == 2
        captured = capsys.readouterr()
        assert "float range" in captured.err and captured.out == ""

    def test_dimension_beyond_the_float_range_exit_2(self, capsys):
        # a 400-digit --n raised a bare OverflowError and a traceback
        assert main(["entropy-bound", "--family", "gaussian", "--n", str(10**400),
                     "--r", "0.5", "--p", "0", "--q", "2"]) == 2
        captured = capsys.readouterr()
        assert "float range" in captured.err and captured.out == ""


# Fuzzing the command-line contract: any numeric flag value gives exit 0, 1
# or 2, never an escaping exception, and exit 0 prints finite numbers only.
_WILD = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-300, 1e300, -1e300, 1.7e308, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _open(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


def _argv(command, choice, extra=st.just([]), **plausible):
    """argv with every float flag of the choice drawn where the command can
    succeed, then up to two of them replaced by any float at all."""
    wild = st.lists(st.tuples(st.sampled_from(sorted(plausible)), _WILD), max_size=2)

    def build(values, overrides, more):
        values.update(overrides)
        return [command, choice, *(f"--{k}={v!r}" for k, v in values.items()), *more]

    return st.builds(build, st.fixed_dictionaries(plausible), wild, extra)


# each choice draws only the flags it uses: the others are refused (see
# test_ignored_flag_exit_2)
_ENTROPY_ARGV = st.one_of(
    _argv("entropy-bound", "--family=lognormal", mu=_open(-5.0, 5.0), sigma2=_open(0.0, 10.0),
          r=_open(0.05, 0.95), p=_open(-1.0, 0.5), q=_open(1.0, 20.0)),
    _argv("entropy-bound", "--family=gaussian",
          # 10**5000 as digits: str() of an int over 4,300 digits raises ValueError
          extra=st.one_of(st.integers(-3, 10**6).map(str),
                          st.sampled_from([str(10**400), "1" + "0" * 5000])
                          ).map(lambda n: [f"--n={n}"]),
          r=_open(0.05, 0.95), p=_open(-1.0, 0.5), q=_open(1.0, 20.0)),
)
_MI_ARGV = st.one_of(
    _argv("mi-bound", "--channel=awgn-gaussian", sigma2=_open(0.0, 20.0), p=_open(0.0, 1.0),
          q=_open(1.0, 400.0), r=_open(0.0, 1.0)),
    _argv("mi-bound", "--channel=two-point-mixture", eps=_open(0.0, 1.0), a=_open(0.0, 100.0),
          p=_open(0.0, 1.0), q=_open(1.0, 400.0), r=_open(0.0, 1.0)),
)


def _check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refuses an int flag value over 4,300 digits
            assert exc.code == 2 and "error: argument --n" in err.getvalue(), argv[:-1]
            return
    assert rc in (0, 1, 2)
    if rc == 0:
        for line in out.getvalue().strip().splitlines()[2:]:  # header, columns
            row = line.split(",")
            assert all(math.isfinite(float(v)) for v in row), (argv, row)
    else:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())


@given(st.one_of(_ENTROPY_ARGV, _MI_ARGV))
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
# a 400-digit dimension raised a bare OverflowError
@example(["entropy-bound", "--family=gaussian", "--r=0.5", "--p=0.0", "--q=2.0",
          f"--n={10**400}"])
def test_cli_contract_fuzz(argv):
    _check_contract(argv)


def _maybe_wild(plausible):
    return st.one_of(plausible, _WILD)


def _grid(lo, hi, max_size):
    """A grid flag value of 1 to max_size points, each drawn where the
    command can succeed or as any float at all."""
    points = st.lists(_maybe_wild(_open(lo, hi)), min_size=1, max_size=max_size)
    return points.map(lambda xs: ",".join(map(repr, xs)))


_FIG_ARGV = st.one_of(
    st.builds(lambda r, s2: ["fig1", f"--r-grid={r}", f"--sigma2={s2}"],
              _grid(0.0, 1.0, 3), _grid(0.0, 20.0, 3)),
    st.builds(lambda r, n: ["fig2", f"--r={r!r}", f"--n-max={n}"],
              _maybe_wild(_open(0.0, 1.0)), st.integers(-2, 64)),
    st.builds(lambda eps, p, q: ["fig3", f"--eps-grid={eps}", f"--p={p!r}", f"--q={q!r}"],
              _grid(0.0, 1.0, 3), _maybe_wild(_open(0.0, 1.0)),
              _maybe_wild(_open(1.0, 10.0))),
)


@given(_FIG_ARGV)
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
# the grid points that leaked a numpy warning before they were refused
@example(["fig3", "--eps-grid=0.0", "--p=0.0", "--q=2.0"])
@example(["fig3", "--eps-grid=-1.0", "--p=0.0", "--q=2.0"])
@example(["fig1", "--r-grid=0.5", "--sigma2=1e+300"])  # also printed a gap of 5.6e292
def test_figure_flags_contract_fuzz(argv):
    _check_contract(argv)
