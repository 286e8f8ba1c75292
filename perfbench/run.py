"""Benchmark of renyi-bounds: three seeded workloads, output checks against
independent references, and a traced run for per-layer numbers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload entropy-gaps --seed 1 --seconds 30 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, their timings scaled to a nominal core speed measured
in the same run (README, "Host speed"); with --trace 1 it carries the
per-layer metrics.  Lines before it are a readable report.  A fuller
record of the run goes to .perfbench/<workload>-seed<seed>-trace<trace>.json.
See perfbench/README.md.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is measured this many times per run (this process plus fresh
# interpreters), and its median is reported.
SETUP_SAMPLES = 5
TAIL_MIN_SAMPLES = 40
# The reference loop is timed once per this many seconds of run.
REF_EVERY_S = 0.25
# ref_loop's time at the fastest host speed seen on the machine the bounds
# were set on (Python 3.11.7): timings are reported at this speed.
REF_NOMINAL_S = 0.0065


def _use_checkout_source():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "renyi_bounds" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'renyi_bounds'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _setup_sample(workload, seed):
    """Set-up time of a fresh interpreter, which imports everything anew."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def ref_loop():
    """A fixed piece of pure-Python work that calls nothing of the program:
    its time measures the speed of the host's core at that moment."""
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return s


class Recorder:
    """Outputs per operation (distinct value -> times seen) and per-call wall
    times."""

    def __init__(self, n_ops):
        self.outputs = [dict() for _ in range(n_ops)]
        self.op_times = [[] for _ in range(n_ops)]
        self.times = []
        self.round_s = []
        self.ref_s = []  # times of ref_loop, spread through the run
        self.last_ref = 0.0

    def add(self, i, out, dt):
        seen = self.outputs[i]
        seen[out] = seen.get(out, 0) + 1
        self.op_times[i].append(dt)
        self.times.append(dt)


def run_rounds(runner, ops, seconds, rec, t_start=None):
    """Whole rounds until `seconds` have passed since t_start (default now);
    returns (rounds, wall seconds of these rounds)."""
    perf = time.perf_counter
    t0 = perf()
    if t_start is None:
        t_start = t0
    rounds = 0
    while True:
        r0 = perf()
        ref_in_round = 0.0
        for i, op in enumerate(ops):
            s = perf()
            try:
                out = runner.run(op)
            except Exception as exc:  # a failed operation is counted, not raised
                out = ("error", type(exc).__name__, str(exc))
            rec.add(i, out, perf() - s)
            # one sample of ref_loop per REF_EVERY_S since the last ones, up
            # to four in a row after a long operation
            for _ in range(min(4, int((perf() - rec.last_ref) / REF_EVERY_S))):
                k0 = perf()
                ref_loop()
                rec.last_ref = perf()
                rec.ref_s.append(rec.last_ref - k0)
                ref_in_round += rec.last_ref - k0
        rec.round_s.append(perf() - r0 - ref_in_round)
        rounds += 1
        if perf() - t_start >= seconds:
            return rounds, perf() - t0


def tail(times):
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or None below TAIL_MIN_SAMPLES samples."""
    n = len(times)
    if n < TAIL_MIN_SAMPLES:
        return None
    k = n - 10  # samples at or below the reported one
    return 100.0 * k / n, sorted(times)[k - 1]


def check_outputs(ops, rec, rb):
    """(attempted, failed, unexpected failures, failure notes)."""
    import checks  # imports scipy: only after timing and peak memory

    attempted = failed = unexpected = 0
    notes = {}
    for op, seen in zip(ops, rec.outputs):
        for out, count in seen.items():
            attempted += count
            if isinstance(out, tuple) and out and out[0] == "error":
                ok, detail = False, f"raised {out[1]}: {out[2]}"
            else:
                ok, detail = checks.check(op, out, rb)
            if not ok:
                failed += count
                if not op.known_fault:
                    unexpected += count
                notes[op.label()] = ("known fault: " if op.known_fault else "") + detail
    return attempted, failed, unexpected, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _use_checkout_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    runner, ops, setup_main = workloads.setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    rec = Recorder(len(ops))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "round": [op.label() for op in ops]}
    if args.trace:
        from tracing import Tracer, layer_metrics

        # Untraced rounds first, as the baseline for the tracing overhead.
        t_start = time.perf_counter()
        rounds_a, wall_a = run_rounds(runner, ops, args.seconds / 3.0, rec)
        tracer = Tracer(runner.rb)
        tracer.install()
        runner.out_bytes = 0
        try:
            rounds_b, wall_b = run_rounds(runner, ops, args.seconds, rec, t_start)
        finally:
            tracer.uninstall()
        stats, errors, counts = tracer.merged()
        metrics = layer_metrics(stats, errors, counts, rounds_b, runner.out_bytes)
        metrics["trace.overhead"] = ((wall_b / rounds_b) / (wall_a / rounds_a), "ratio")
        record["rounds"] = {"untraced": rounds_a, "traced": rounds_b}
        record["spans"] = {n: {"calls": c, "total_s": t, "self_s": s}
                           for n, (c, t, s) in sorted(stats.items())}
        record["exceptions"] = {f"{n}:{e}": v for (n, e), v in sorted(errors.items())}
    else:
        setup_times = [setup_main] + [_setup_sample(args.workload, args.seed)
                                      for _ in range(SETUP_SAMPLES - 1)]
        record["setup_s_samples"] = setup_times
        rounds, _ = run_rounds(runner, ops, args.seconds, rec)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = {
            "setup_s": statistics.median(setup_times),
            "op_s.p50": statistics.median(rec.times),
            # values of one round over the median round time: a median over
            # the whole run, which a burst of load on the host moves less
            # than the mean
            "bounds_per_s": sum(op.values for op in ops) / statistics.median(rec.round_s),
        }
        # The host's cores change speed by up to 1.7x within minutes (README,
        # "Host speed"): timings are scaled to the speed at which ref_loop
        # takes REF_NOMINAL_S.
        scale = REF_NOMINAL_S / statistics.median(rec.ref_s)
        metrics = {
            "setup_s": (wall["setup_s"] * scale, "s"),
            "op_s.p50": (wall["op_s.p50"] * scale, "s"),
            "bounds_per_s": (wall["bounds_per_s"] / scale, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record["rounds"] = rounds
        record["wall"] = wall
        record["ref_loop"] = {"median_s": statistics.median(rec.ref_s),
                              "samples": len(rec.ref_s), "scale": scale}
        t = tail(rec.times)
        record["op_s.tail"] = (None if t is None else
                               {"percentile": t[0], "value_s": t[1] * scale,
                                "wall_s": t[1], "samples": len(rec.times)})

    attempted, failed, unexpected, notes = check_outputs(ops, rec, runner.rb)
    record["round_s"] = rec.round_s
    record["op_s.p50_by_operation"] = {op.label(): statistics.median(t)
                                       for op, t in zip(ops, rec.op_times)}
    record.update(attempted=attempted, failed=failed, failures=notes,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} operations per round, "
          f"{len(rec.times)} timed calls")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    if not args.trace:
        t = record["op_s.tail"]
        if t is None:
            print(f"  op_s.tail: not reported, {len(rec.times)} samples < {TAIL_MIN_SAMPLES}")
        else:
            print(f"  op_s.tail: p{t['percentile']:.1f} = {t['value_s']:.6g} s "
                  f"over {t['samples']} samples")
        ref = record["ref_loop"]
        print(f"  timings above are at the nominal core speed: ref_loop median "
              f"{ref['median_s'] * 1e3:.3g} ms over {ref['samples']} samples, "
              f"nominal {REF_NOMINAL_S * 1e3:.3g} ms, scale {ref['scale']:.4g}")
        print("  wall (unscaled): " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    print(f"  operations attempted {attempted}, failed {failed}")
    for label, detail in notes.items():
        print(f"  FAILED {label}: {detail}")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
