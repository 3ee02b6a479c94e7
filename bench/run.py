"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload euler-file --seed 1 --seconds 20 --trace 0

Workloads: ``euler-file``, ``picard-cert``, ``ftc-segments`` (see
``workloads.py`` and ``README.md``).  The run is single-process and closed
loop: one repetition of the workload's pipeline after another, for
``--seconds`` seconds, every repetition checked.  The package is imported
from ``src/`` of the checkout; without it the run fails.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of several
set-ups, each in a fresh interpreter: import, problem generation, problem
file load), ``run_ref`` (median repetition time divided by a reference loop
run next to it, see ``reference_seconds``) and ``peak_mb`` (tracemalloc peak
of one separate, untimed repetition).  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics, the tracing overhead
and the tail repetition time; it writes the spans and per-repetition counters
to ``bench/out/<workload>-seed<n>/trace.json``.

Human-readable lines come first, including ``max_err`` and ``failed_frac``;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 5


def _import_package():
    """Import the checkout's package from src/ and the benchmark modules."""
    # The harness is single-threaded; keep OpenBLAS from starting helper threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [p for p in (str(SRC), str(BENCH_DIR)) if p not in sys.path]
    try:
        import stieltjes
    except ImportError as exc:
        raise SystemExit(f"cannot import stieltjes from {SRC}: {exc}") from None
    if Path(stieltjes.__file__).resolve().parent != SRC / "stieltjes":
        raise SystemExit(f"stieltjes was imported from {stieltjes.__file__}, not from {SRC}")
    import tracer
    import workloads

    return workloads, tracer


def _setup_probe(workload, seed, scale):
    """One set-up in this fresh interpreter: import, generate, write and load."""
    start = perf_counter()
    workloads, tracer = _import_package()
    w = workloads.WORKLOADS[workload](seed, scale, str(OUT_DIR / f"{workload}-seed{seed}" / "setup"))
    w.setup(tracer.NULL_TRACER)
    return perf_counter() - start


def _setup_seconds(workload, seed, scale, runs):
    samples = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--scale", repr(scale)],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def reference_seconds():
    """Wall time of a fixed pure-Python loop: the machine's current speed.

    On a shared machine the speed of one thread drifts by tens of percent over
    seconds, in CPU time as much as in wall time.  Dividing each repetition by
    this loop, run right before and after it, cancels most of that drift
    (README.md).  The loop uses nothing from the package.
    """
    start = perf_counter()
    acc = 0.0
    for i in range(300_000):
        acc += i * 0.5
    return perf_counter() - start


def tail(times):
    """The highest percentile with at least ten samples beyond it, and its level.

    Below 21 samples that percentile would not lie above the median; the
    maximum is given instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# Per-layer metrics of a traced repetition: (name, unit, aggregate, key).  An
# aggregate is a frame's inclusive seconds ("totals") or call count ("calls"),
# a named count ("counts") or a layer's self seconds ("self_s").
PER_REP = [
    ("expr.eval_calls", "count", "calls", "expr.eval"),
    ("expr.eval_s", "s", "totals", "expr.eval"),
    ("solver.euler_s", "s", "totals", "solver.euler"),
    ("solver.cells", "count", "counts", "solver.cells"),
    ("solver.atom_steps", "count", "counts", "solver.atom_steps"),
    ("solver.residual_s", "s", "totals", "solver.residual"),
    ("solver.picard_s", "s", "totals", "solver.picard"),
    ("solver.picard_iters", "count", "counts", "solver.picard_iters"),
    ("solver.horizon_s", "s", "totals", "solver.horizon"),
    ("solver.apriori_s", "s", "totals", "solver.apriori"),
    ("solver.uniqueness_s", "s", "totals", "solver.uniqueness"),
    ("moduli.omega_transform_s", "s", "totals", "moduli.omega_transform"),
    ("moduli.osgood_check_s", "s", "totals", "moduli.osgood_check"),
    ("moduli.modulus_calls", "count", "calls", "moduli.modulus"),
    ("measure.integrate_s", "s", "totals", "measure.integrate"),
    ("measure.integrand_calls", "count", "counts", "measure.integrand_calls"),
    ("derivative.indefinite_build_s", "s", "totals", "derivative.indefinite_build"),
    ("derivative.eval_s", "s", "totals", "derivative.eval"),
    ("derivative.ftc_s", "s", "totals", "derivative.ftc"),
    ("derivative.ftc_failed", "count", "counts", "derivative.ftc_failed"),
    ("topology.continuity_s", "s", "totals", "topology.continuity"),
    ("derivator.eval_s", "s", "totals", "derivator.eval"),
    ("problem_io.csv_s", "s", "totals", "problem_io.csv"),
]


def _per_layer(layers, setup, snaps, untraced, traced):
    rows = PER_REP + [(f"{layer}.self_s", "s", "self_s", layer) for layer in layers]
    metrics = {
        name: (statistics.median(s[agg].get(key, 0) for s in snaps), unit)
        for name, unit, agg, key in rows
    }
    metrics["problem_io.load_s"] = (setup["totals"]["problem_io.load"], "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    metrics["run.median_s"] = (statistics.median(untraced), "s")
    metrics["run.tail_s"] = (tail(untraced)[0], "s")
    return metrics


class Tally:
    """Operations attempted and failed over a run, and the largest error seen."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = self.known = 0
        self.max_err = 0.0
        self.reasons = []

    def add(self, outcome):
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        self.known += outcome.known
        self.max_err = max(self.max_err, outcome.max_err)
        if outcome.reason and outcome.reason not in self.reasons and len(self.reasons) < 5:
            self.reasons.append(outcome.reason)


def run_benchmark(workload, seed, seconds, trace, scale=1.0, setup_runs=SETUP_RUNS,
                  corrupt=None, log=print):
    """Run one workload; returns the result object printed as the last line."""
    setup = [] if trace else _setup_seconds(workload, seed, scale, setup_runs)
    workloads, tracing = _import_package()
    cls = workloads.WORKLOADS[workload]
    out_dir = OUT_DIR / f"{workload}-seed{seed}"
    tr = tracing.Tracer() if trace else tracing.NULL_TRACER
    w = cls(seed, scale, str(out_dir))
    w.setup(tr)
    setup_snap = tr.take() if trace else None
    tally = Tally()

    # One untimed repetition first: it fills caches, fixes the golden CSV and,
    # untraced runs, gives the tracemalloc peak.
    if not trace:
        tracemalloc.start()
    tally.add(w.run_checked(tracing.NULL_TRACER, corrupt)[1])
    if not trace:
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()

    untraced, traced, snaps, ratios = [], [], [], []
    start = perf_counter()
    rep = 0
    reference = reference_seconds()
    while perf_counter() - start < seconds or not untraced or (trace and not traced):
        rep += 1
        if trace and rep % 2 == 0:
            tr.rep = rep
            seconds_, outcome, counts = w.run_checked(tr, corrupt)
            snap = tr.take()
            snap["counts"].update(counts)
            snaps.append(snap)
            traced.append(seconds_)
            reference = reference_seconds()
        else:
            seconds_, outcome, _ = w.run_checked(tracing.NULL_TRACER, corrupt)
            untraced.append(seconds_)
            before, reference = reference, reference_seconds()
            ratios.append(seconds_ / ((before + reference) / 2.0))
        tally.add(outcome)
    elapsed = perf_counter() - start

    run_s = statistics.median(untraced)
    run_ref = statistics.median(ratios)
    tail_s, tail_pct = tail(untraced)
    log(f"workload {workload}, seed {seed}, scale {scale}, trace {int(trace)}: "
        f"{rep} repetitions in {elapsed:.1f} s, closed loop, one at a time")
    log(f"  run_s        {run_s:.6f} s  median of {len(untraced)} untraced repetitions; "
        f"fastest {min(untraced):.6f} s, p{tail_pct:.0f} {tail_s:.6f} s")
    log(f"  run_ref      {run_ref:.4f} ref  median repetition in reference-loop units")
    if trace:
        log(f"  traced run_s {statistics.median(traced):.6f} s  median of {len(traced)} traced repetitions")
    else:
        log(f"  setup_s      {statistics.median(setup):.6f} s  median of {len(setup)} set-ups")
        log(f"  peak_mb      {peak_mb:.3f} MB  tracemalloc peak of one repetition")
    log(f"  max_err      {tally.max_err:.3e}")
    log(f"  failed_frac  {tally.failed / tally.attempted:.4f}  "
        f"({tally.failed} of {tally.attempted} operations; {tally.wrong} wrong outputs)")
    if tally.known:
        log(f"  known defect {tally.known} of {tally.attempted} operations: NoDerivativeError "
            f"at an end of a short constancy interval (not counted as failed)")
    for reason in tally.reasons:
        log(f"  failure: {reason}")

    if trace:
        metrics = _per_layer(tracing.LAYERS, setup_snap, snaps, untraced, traced)
        path = out_dir / "trace.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": workload, "seed": seed, "scale": scale,
                "setup": setup_snap,
                "untraced_seconds": untraced,
                "traced": [dict(snap, seconds=s) for snap, s in zip(snaps, traced)],
                "spans": tr.spans_as_dicts(),
            }, fh)
        log(f"  spans and counters written to {path}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_ref": (run_ref, "ref"),
            "peak_mb": (peak_mb, "MB"),
        }
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["euler-file", "picard-cert", "ftc-segments"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="problem size factor; below 1 only for smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(_setup_probe(args.workload, args.seed, args.scale))
        return
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
