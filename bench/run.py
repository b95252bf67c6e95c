"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload chain --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: invsq is imported from ./src and
nowhere else.  The workload runs as a closed loop of passes (each pass
starts when the previous one ends) until --seconds have elapsed; every
pass repeats the same operations on the inputs made from --seed.

--trace 0 reports the end-to-end metrics (medians over passes, set-up
time as the median of several fresh processes).  --trace 1 alternates an
untraced and a traced pass, reports the per-layer metrics of the traced
passes and their overhead, and writes the spans to bench/out/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 11

# one fresh interpreter: import numpy and invsq, build ModelParams, find the fixed points
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy
import invsq
from invsq.core import derived_constants, fixed_points
fixed_points(derived_constants(-3.0 / 16.0))
print(time.monotonic())
"""


def import_invsq():
    """Import invsq from this checkout's src/; fail if it is not there."""
    if not (SRC / "invsq" / "__init__.py").is_file():
        raise SystemExit(f"no invsq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import invsq
    if Path(invsq.__file__).resolve().parent != (SRC / "invsq").resolve():
        raise SystemExit(f"invsq imported from {invsq.__file__}, not from {SRC}")
    # every layer is imported before timing starts
    from invsq import classical, propagator, rgflow, scattering, spectrum  # noqa: F401


def setup_seconds():
    """Median time from spawning a fresh interpreter to its 'ready' point."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def run_checks(name, out, params, gfix):
    import checks
    if name == "chain":
        return checks.check_chain(out)
    if name == "feynman_kac":
        from invsq import propagator as pg
        from invsq.core import square_well
        from workloads import FK_B, FK_T
        ref = pg.propagator_quadrature(params, square_well(gfix[0], FK_B), 1.0, 1.0, FK_T).value
        return checks.check_fk(out, ref)
    if name == "exponent":
        return checks.check_exponent(out)
    return checks.check_spectral(out)


def timed_pass(pass_fn, inputs, params, gfix):
    t0, c0 = time.perf_counter(), time.process_time()
    p = pass_fn(inputs, params, gfix)
    return p, time.perf_counter() - t0, time.process_time() - c0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_invsq()
    import warnings

    import tracing as tr
    from invsq import propagator as pg
    from workloads import WORKLOADS, model
    warnings.simplefilter("ignore", pg.RegimeWarning)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    make_inputs, pass_fn = WORKLOADS[args.workload]

    setup_s = setup_seconds() if args.trace == 0 else None
    params, gfix = model()
    inputs = make_inputs(args.seed)

    first = None
    attempted = failed = 0
    deterministic = True
    walls, cpus = [], []
    traced_walls, layer_runs = [], []
    tracers = []
    missing = set()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for traced in ((False, True) if args.trace else (False,)):
            if traced:
                tracer = tr.Tracer()
                undo, missing = tr.install(tracer)
                try:
                    p, wall, cpu = timed_pass(pass_fn, inputs, params, gfix)
                finally:
                    undo()
                tracers.append(tracer)
                traced_walls.append(wall)
                layer_runs.append(tr.layer_metrics(tracer.spans, missing))
            else:
                p, wall, cpu = timed_pass(pass_fn, inputs, params, gfix)
                walls.append(wall)
                cpus.append(cpu)
            attempted += p.attempted
            failed += len(p.failed)
            if first is None:
                first = p
            elif p.out != first.out:
                deterministic = False
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = run_checks(args.workload, first.out, params, gfix)
    results.append(("passes repeat exactly", deterministic,
                    f"{len(walls) + len(traced_walls)} passes with identical outputs"))
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    correct = all(ok for _, ok, _ in results)

    if args.trace:
        metrics = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = {k: tr.LAYER_METRICS[k][0] for k in metrics}
        for name in sorted(set(tr.LAYER_METRICS) - set(metrics)):
            print(f"missing: {name} (its wrapped name is gone)", file=sys.stderr)
        for caller in sorted(set().union(*(t.unconverged_callers for t in tracers))):
            print(f"unconverged quad_gk called from {caller}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        tr.write_spans([s for t in tracers for s in t.spans],
                       OUT / f"{args.workload}.spans.jsonl.gz")
    else:
        metrics = {
            "setup_s": setup_s,
            "run_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mib": peak_rss_mib,
        }
        units = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
    print(f"peak RSS {peak_rss_mib:.1f} MiB")
    print("pass wall times: " + " ".join(f"{w:.3f}" for w in walls)
          + ("; traced: " + " ".join(f"{w:.3f}" for w in traced_walls) if traced_walls else ""))
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
