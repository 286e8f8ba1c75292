"""Batch front end: figure sweeps as CSV/JSON, single-shot bound queries,
and the verification command.

Output files are reproducible byte for byte: a single `#` header comment
records tool version, command and the fixed numerics, the quadrature
tolerances and the Monte Carlo seed among them (no timestamps), numbers
are printed with 12 significant digits, newlines are Unix.  Exit codes:
0 success, 1 failed verification, 2 invalid invocation.
"""

import argparse
import functools
import json
import math
import sys
from typing import List, Optional, Sequence

from . import __version__
from .distributions import GaussianMagnitude, Lognormal, PointMass
from .entropy_bounds import entropy_bound
from .errors import DomainError, RenyiBoundsError
from .mi_bounds import (
    ScaleMixtureChannel,
    chi2_mi_bound,
    mi_oracle,
    prop8_bound,
    prop9_bound,
)
from .moment_core import Support
from .quadrature import _ABS_TOL, _MAX_SUBDIVISIONS, _MC_SAMPLES, _MC_SEED, _REL_TOL
from .sweeps import _two_point_mixture, fig1_rows, fig2_rows, fig3_rows
from .verify import run_verification


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write(path: Optional[str], text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _render(command: str, columns: List[str], rows, fmt: str) -> str:
    config = {
        "seed": _MC_SEED,
        "rel_tol": _REL_TOL,
        "abs_tol": _ABS_TOL,
        "max_subdivisions": _MAX_SUBDIVISIONS,
        "mc_samples": _MC_SAMPLES,
    }
    if fmt == "json":
        doc = {
            "meta": {"tool": "renyi-bounds", "version": __version__,
                     "command": command, **config},
            "columns": columns,
            "rows": [list(row) for row in rows],
        }
        return json.dumps(doc, indent=1) + "\n"
    header = f"# renyi-bounds {__version__} command={command} " + " ".join(
        f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in config.items()
    )
    lines = [header, ",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _floats(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="renyi-bounds",
        description="Two-moment Renyi-entropy and mutual-information bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default="-", help="output path ('-' = stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("fig1", help="lognormal gaps vs r for several sigma2")
    sp.add_argument("--r-grid", type=_floats, default=None)
    sp.add_argument("--sigma2", type=_floats, default=None)
    common(sp)

    sp = sub.add_parser("fig2", help="Gaussian gaps vs dimension at fixed r")
    sp.add_argument("--r", type=float, default=0.1)
    sp.add_argument("--n-max", type=int, default=256)
    common(sp)

    sp = sub.add_parser("fig3", help="MI bounds for the two-point scalar mixture")
    sp.add_argument("--eps-grid", type=_floats, default=None)
    sp.add_argument("--p", type=float, default=0.0)
    sp.add_argument("--q", type=float, default=2.0)
    common(sp)

    sp = sub.add_parser("entropy-bound", help="one evaluation of the entropy bound")
    sp.add_argument("--family", choices=("lognormal", "gaussian"), required=True)
    sp.add_argument("--mu", type=float, default=0.0, help="log-scale mean (lognormal)")
    sp.add_argument("--sigma2", type=float, default=1.0, help="log-scale variance (lognormal)")
    sp.add_argument("--n", type=int, default=1, help="dimension (gaussian)")
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    common(sp)

    sp = sub.add_parser("mi-bound", help="MI oracle and upper bounds for one channel")
    sp.add_argument("--channel", choices=("awgn-gaussian", "two-point-mixture"),
                    required=True)
    sp.add_argument("--sigma2", type=float, default=1.0, help="input variance (awgn-gaussian)")
    sp.add_argument("--eps", type=float, default=0.1, help="mixture weight (two-point-mixture)")
    sp.add_argument("--a", type=float, default=None,
                    help="second mixing atom (two-point-mixture; default 1 + 1/sqrt(eps))")
    sp.add_argument("--p", type=float, default=0.0)
    sp.add_argument("--q", type=float, default=2.0)
    sp.add_argument("--r", type=float, default=0.5)
    common(sp)

    sp = sub.add_parser("verify", help="run the oracle cross-check suite")
    common(sp)
    return parser


def _refuse_ignored(args, choice: str, **used) -> None:
    """DomainError naming the first flag that choice would ignore: used maps
    each such flag to the one value it may take (its default, or the value
    the choice fixes)."""
    for flag, value in used.items():
        given = getattr(args, flag)
        if given != value:
            raise DomainError(f"--{flag} {given!r} is ignored by {choice}: leave it out")


def _cmd_entropy_bound(args):
    if args.family == "lognormal":
        _refuse_ignored(args, "--family lognormal", n=1)
        d = Lognormal(args.mu, args.sigma2)
        sup, n = Support.positive_half_line(), 1
    else:
        _refuse_ignored(args, "--family gaussian, which is N(0, I_n)", mu=0.0, sigma2=1.0)
        d = GaussianMagnitude(args.n)
        sup, n = Support.euclidean(args.n), args.n
    rep = entropy_bound(d, sup, n, args.r, args.p, args.q)
    cols = ["r", "p", "q", "n", "bound_nats", "entropy_nats", "gap_nats"]
    rows = [(rep.r, rep.p, rep.q, rep.n, rep.bound,
             math.nan if rep.entropy is None else rep.entropy,
             math.nan if rep.gap is None else rep.gap)]
    return cols, rows


def _cmd_mi_bound(args):
    if args.channel == "awgn-gaussian":
        _refuse_ignored(args, "--channel awgn-gaussian", eps=0.1, a=None)
        ch, given = ScaleMixtureChannel(PointMass(args.sigma2)), "X"
    else:
        _refuse_ignored(args, "--channel two-point-mixture", sigma2=1.0)
        ch, given = _two_point_mixture(args.eps, args.a), "U"
    cols = ["mi_oracle", "prop8_bound", "prop9_bound", "chi2_bound"]
    rows = [(
        mi_oracle(ch, given),
        prop8_bound(ch, args.r, given),
        prop9_bound(ch, args.p, args.q, given),
        chi2_mi_bound(ch, given),
    )]
    return cols, rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    results = []
    try:
        if args.command == "fig1":
            cols, rows = fig1_rows(args.r_grid or (), args.sigma2 or ())
        elif args.command == "fig2":
            cols, rows = fig2_rows(args.r, args.n_max)
        elif args.command == "fig3":
            cols, rows = fig3_rows(args.eps_grid or (), args.p, args.q)
        elif args.command == "entropy-bound":
            cols, rows = _cmd_entropy_bound(args)
        elif args.command == "mi-bound":
            cols, rows = _cmd_mi_bound(args)
        else:  # verify
            results = run_verification()
            cols = ["check", "passed", "detail"]
            rows = [(r.name, bool(r.passed), r.detail.replace(",", ";")) for r in results]
        _write(args.out, _render(args.command, cols, rows, args.format))
    except (RenyiBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(f"FAILED {r.name}: {r.detail}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
