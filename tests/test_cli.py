"""Command-line front end: formats, exit codes, seeds and reproducibility."""

import hashlib
import json

import numpy as np
import pytest

from renyi_bounds.cli import main


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
        args = ["fig3", "--eps-grid", "0.001,0.1", "--seed", "42"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert _read(a) == _read(b)

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        out = tmp_path / "o.csv"
        monkeypatch.setenv("RENYI_BOUNDS_SEED", "12345")
        main(["fig3", "--eps-grid", "0.01", "--out", str(out)])
        assert b"seed=12345" in _read(out)
        # explicit flag wins over the environment
        main(["fig3", "--eps-grid", "0.01", "--seed", "99", "--out", str(out)])
        assert b"seed=99" in _read(out)

    # SHA-256 of the default CSVs under the default seed.  A change that
    # moves any of them must fix a numerical bug and say so.
    DEFAULT_CSV_SHA256 = {
        "fig1": "fb928ba28a8b1e506be00c2775b2970b74b2a59a6a9be5e7c80778671fce4391",
        "fig2": "442d03148c971996afe7b687d548e5ba1d96ff451f4d096c2a824df1cc1e2b93",
        "fig3": "0b2402467422c53c999695f9c57f03d2e066c5ec5ed1c5008e771b05366a624c",
        "verify": "955a5ed4c92d0a70c43391be9026cd65f215b6786280d0ec227c03014a1579e0",
    }

    @pytest.mark.parametrize("command", sorted(DEFAULT_CSV_SHA256))
    def test_default_csv_pinned(self, command, tmp_path, monkeypatch):
        monkeypatch.delenv("RENYI_BOUNDS_SEED", raising=False)
        out = tmp_path / f"{command}.csv"
        assert main([command, "--out", str(out)]) == 0
        assert hashlib.sha256(_read(out)).hexdigest() == self.DEFAULT_CSV_SHA256[command]

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

    @pytest.mark.parametrize("argv", [
        ["fig1"],
        ["fig2"],
        ["entropy-bound", "--family", "lognormal", "--r", "0.5", "--p", "0", "--q", "2"],
    ], ids=["fig1", "fig2", "entropy-bound"])
    def test_tol_rejected_where_no_quadrature_runs(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-6"])
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

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        rc = main(["entropy-bound", "--family", "lognormal", "--r", "0.5", "--p", "0",
                   "--q", "2", "--out", str(tmp_path / "missing" / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_fig2_empty_dimension_range_exit_2(self, capsys):
        assert main(["fig2", "--n-max", "0"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    def test_invalid_moment_order_exit_2(self, capsys):
        rc = main(["entropy-bound", "--family", "lognormal", "--sigma2", "1",
                   "--r", "0.5", "--p", "3", "--q", "4"])
        assert rc == 2
