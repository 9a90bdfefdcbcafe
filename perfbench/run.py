"""Benchmark of the poseforge pipeline on seeded synthetic scenes.

Usage, from the repository root:

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 30 --trace 0

Workloads: fit_heavy, crowd, sparse (see perfbench/README.md). With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it makes
one traced round (each test image also runs untraced, for the overhead
figure), prints the per-layer metrics and writes the spans to .bench_out/. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

The launcher pins the BLAS thread count before NumPy is imported, so the
whole run is one process and one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "poseforge", "__init__.py")):
        print(f"error: poseforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pipeline  # after the BLAS variables are set: it imports NumPy

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} blas_threads={BLAS_THREADS}")
    if args.trace:
        out = pipeline.run_traced(args.workload, args.seed)
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"spans-{args.workload}-{args.seed}.json")
        out["tracer"].dump(path)
        print(f"spans: {len(out['tracer'].spans)} written to {os.path.relpath(path, ROOT)}")
    else:
        out = pipeline.run_untraced(args.workload, args.seed, args.seconds)
        for key, value in out["notes"].items():
            print(f"note {key} = {value}")

    ledger = out["ledger"]
    for problem, count in sorted(ledger.violations.items()):
        known = " (known defect)" if problem in pipeline.KNOWN_DEFECTS else ""
        print(f"check failed {count}x: {problem}{known}")
    metrics = {}
    for name, (value, unit) in out["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
        metrics[name] = {"value": float(value), "unit": unit}
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
