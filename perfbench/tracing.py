"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions of each layer module with
wrappers that record a span per call: its name, its duration and the time
of the spans it caused.  The package's modules import one another by name
(`from .quadrature import integrate`), so a wrapper is rebound in every
module that holds the original.  Private helpers (`_panel`,
`_window_mass`, `_gap_at`, ...) stay unwrapped; the integrand handed to
`integrate` is wrapped, since each call of it is one 15-node batch
(a K15 panel or a tail window).

Spans are aggregated per name as they close (calls, total time, self time,
exceptions by type) in per-thread tables, because `sweeps` fans grid points
out over a thread pool; the tables are merged when the run ends.  Self time
is a span's duration minus that of its child spans on the same thread.
"""

import threading
import time
from collections import defaultdict

LAYERS = ("specfun", "quadrature", "moment_core", "distributions", "entropy_bounds",
          "mi_bounds", "sweeps", "cli")

_DIST_METHODS = ("log_moment", "renyi_entropy", "sample", "atoms_and_probs")
_MI_BOUNDS = ("mi_bounds.mi_oracle", "mi_bounds.chi2_mi_bound", "mi_bounds.prop7_bound",
              "mi_bounds.prop8_bound", "mi_bounds.prop9_bound")


class _ThreadState:
    def __init__(self):
        self.stack = []  # frames [name, start, child_time]
        self.depth = defaultdict(int)  # open spans per name and per group of names
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.errors = defaultdict(int)  # (name, exception type) -> count
        self.counts = defaultdict(float)  # derived counters


class Tracer:
    def __init__(self, rb):
        self.rb = rb
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._saved = []  # (owner, attribute, original)
        self._main = threading.main_thread()

    def _state(self):
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
            return st

    def _wrap(self, name, fn, group=None, on_enter=None, wrap_args=None, on_result=None):
        perf = time.perf_counter
        state = self._state
        main = self._main

        def wrapper(*args, **kwargs):
            st = state()
            if wrap_args is not None:
                args = wrap_args(args)
            depth = st.depth
            depth[name] += 1
            if group:
                depth[group] += 1
            if on_enter is not None:
                on_enter(st)
            stack = st.stack
            frame = [name, perf(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                st.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                dur = perf() - frame[1]
                stack.pop()
                depth[name] -= 1
                if group:
                    depth[group] -= 1
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                    if stack[-1][0].startswith("sweeps.fig"):
                        # a sweep that runs its points inline
                        st.counts["sweeps.point_s"] += dur
                elif threading.current_thread() is not main:
                    # a root span on a pool thread belongs to a sweep's grid point
                    st.counts["sweeps.point_s"] += dur
            if on_result is not None:
                on_result(st, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _rebind(self, original, wrapper):
        """Point every module of the package that holds original at wrapper."""
        rb = self.rb
        for mod in (rb, rb.specfun, rb.quadrature, rb.moment_core, rb.distributions,
                    rb.entropy_bounds, rb.mi_bounds, rb.sweeps, rb.cli, rb.verify):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        rb = self.rb

        def wrap_integrand(args):
            return (self._wrap("quadrature.integrand", args[0]),) + tuple(args[1:])

        def in_optimal_gap(counter):
            def hook(st):
                if st.depth["entropy_bounds.optimal_gap"]:
                    st.counts[counter] += 1
            return hook

        def integrate_enter(st):
            if st.depth["mi_bound"]:
                st.counts["mi_bounds.integrals_in_bounds"] += 1

        def sweep_points(st, out):
            st.counts["sweeps.points"] += len(out[1])

        special = {
            "quadrature.integrate": dict(wrap_args=wrap_integrand, on_enter=integrate_enter),
            # every gap evaluation builds TwoMomentParams, which calls lambda_of
            "moment_core.lambda_of": dict(on_enter=in_optimal_gap("entropy_bounds.objective.calls")),
            "sweeps.fig1_rows": dict(on_result=sweep_points),
            "sweeps.fig2_rows": dict(on_result=sweep_points),
            "sweeps.fig3_rows": dict(on_result=sweep_points),
        }
        for name in _MI_BOUNDS:
            special[name] = dict(group="mi_bound")

        for layer in LAYERS:
            mod = getattr(rb, layer)
            names = ["main"] if layer == "cli" else getattr(mod, "__all__", list(vars(mod)))
            for attr in names:
                fn = getattr(mod, attr)
                if (attr.startswith("_") or not callable(fn) or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                if layer == "distributions" and attr in _DIST_METHODS:
                    continue  # the functional facade; its methods are wrapped below
                span = f"{layer}.{attr}"
                self._rebind(fn, self._wrap(span, fn, **special.get(span, {})))

        for cls in (rb.distributions.ScalarDistribution, rb.Lognormal, rb.GaussianMagnitude,
                    rb.TwoPoint, rb.PointMass, rb.GenericPdf):
            for meth in _DIST_METHODS:
                if meth in vars(cls):
                    fn = vars(cls)[meth]
                    hook = in_optimal_gap("entropy_bounds.log_moment_in_gap") if meth == "log_moment" else None
                    w = self._wrap(f"distributions.{cls.__name__}.{meth}", fn, on_enter=hook)
                    self._saved.append((cls, meth, fn))
                    setattr(cls, meth, w)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def merged(self):
        """(stats, errors, counts) summed over every thread."""
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        errors = defaultdict(int)
        counts = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (c, tot, slf) in st.stats.items():
                rec = stats[name]
                rec[0] += c
                rec[1] += tot
                rec[2] += slf
            for key, v in st.errors.items():
                errors[key] += v
            for key, v in st.counts.items():
                counts[key] += v
        return stats, errors, counts


def layer_metrics(stats, errors, counts, rounds, out_bytes):
    """Per-layer metrics per round, keyed by name -> (value, unit).  stats,
    errors and counts are the defaultdicts of Tracer.merged."""

    def calls(*names):
        return sum(stats[n][0] for n in names)

    def total(*names):
        return sum(stats[n][1] for n in names)

    def self_of(prefix):
        return sum(v[2] for n, v in list(stats.items()) if n.startswith(prefix))

    def methods(name):
        return [n for n in list(stats) if n.startswith("distributions.") and n.endswith(name)]

    objective = counts["entropy_bounds.objective.calls"]
    integ = calls("quadrature.integrate")
    failed = sum(v for (n, _), v in errors.items() if n == "quadrature.integrate")
    bound_calls = calls(*_MI_BOUNDS)
    per = float(rounds)
    return {
        "specfun.ln_gamma.calls": (calls("specfun.ln_gamma") / per, "count"),
        "specfun.theta.calls": (calls("specfun.theta") / per, "count"),
        "specfun.kappa.calls": (calls("specfun.kappa") / per, "count"),
        "specfun.self_s": (self_of("specfun.") / per, "s"),
        "quadrature.integrate.calls": (integ / per, "count"),
        "quadrature.integrate.self_s": (stats["quadrature.integrate"][2] / per, "s"),
        "quadrature.integrand.calls": (calls("quadrature.integrand") / per, "count"),
        "quadrature.integrand.s": (total("quadrature.integrand") / per, "s"),
        "quadrature.integrate.diverged": (
            errors[("quadrature.integrate", "DivergenceDetected")] / per, "count"),
        "quadrature.integrate.ok_ratio": ((integ - failed) / integ if integ else 1.0, "ratio"),
        "quadrature.mc_expect.calls": (calls("quadrature.mc_expect") / per, "count"),
        "quadrature.mc_expect.s": (total("quadrature.mc_expect") / per, "s"),
        "moment_core.log_psi_r.calls": (calls("moment_core.log_psi_r") / per, "count"),
        "moment_core.self_s": (self_of("moment_core.") / per, "s"),
        "distributions.log_moment.calls": (calls(*methods(".log_moment")) / per, "count"),
        "distributions.log_moment.s": (total(*methods(".log_moment")) / per, "s"),
        "distributions.renyi_entropy.calls": (calls(*methods(".renyi_entropy")) / per, "count"),
        "entropy_bounds.optimal_gap.calls": (calls("entropy_bounds.optimal_gap") / per, "count"),
        "entropy_bounds.optimal_gap.self_s": (stats["entropy_bounds.optimal_gap"][2] / per, "s"),
        "entropy_bounds.objective.calls": (objective / per, "count"),
        "entropy_bounds.log_moment_per_objective": (
            counts["entropy_bounds.log_moment_in_gap"] / objective if objective else 0.0, "ratio"),
        "mi_bounds.mi_oracle.s": (total("mi_bounds.mi_oracle") / per, "s"),
        "mi_bounds.chi2_mi_bound.s": (total("mi_bounds.chi2_mi_bound") / per, "s"),
        "mi_bounds.prop8_bound.s": (total("mi_bounds.prop8_bound") / per, "s"),
        "mi_bounds.prop9_bound.s": (total("mi_bounds.prop9_bound") / per, "s"),
        "mi_bounds.V_s.calls": (calls("mi_bounds.V_s") / per, "count"),
        "mi_bounds.kernel_Ks.calls": (calls("mi_bounds.kernel_Ks") / per, "count"),
        "mi_bounds.integrals_per_bound": (
            counts["mi_bounds.integrals_in_bounds"] / bound_calls if bound_calls else 0.0, "ratio"),
        "sweeps.points": (counts["sweeps.points"] / per, "count"),
        "sweeps.s": (total("sweeps.fig1_rows", "sweeps.fig2_rows", "sweeps.fig3_rows") / per, "s"),
        "sweeps.point_s": (counts["sweeps.point_s"] / per, "s"),
        "cli.main.s": (total("cli.main") / per, "s"),
        "cli.self_s": (self_of("cli.") / per, "s"),
        "cli.output_bytes": (out_bytes / per, "bytes"),
    }
