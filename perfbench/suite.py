"""Run every workload over several seeds and summarize, one run at a time.

Usage, from the repository root:

    python3 perfbench/suite.py --seeds 1-10 --out perfbench/baseline.json

It takes the workloads and the run length (run_seconds) from
BENCHMARK.json. For each workload it makes one untraced run per seed
(run.py --trace 0) and one traced run on the first seed (--trace 1),
prints every metric
with its unit, and writes medians, quartiles and spreads as JSON. The
spread of a metric is (q3 - q1) / median over its seeds, with quartiles
from statistics.quantiles(values, n=4). A run that exits non-zero or
reports correct=false makes the suite exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 180


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and its 'note key = value' lines."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    notes = dict(line[5:].split(" = ", 1) for line in lines if line.startswith("note "))
    return json.loads(lines[-1]), notes


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else float("inf"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--out", help="JSON summary to write")
    args = ap.parse_args(argv)
    seeds = seed_list(args.seeds)
    with open(SPEC) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    ok = True
    summary = {"seeds": seeds, "seconds": seconds,
               "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                           "platform": platform.platform()},
               "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, notes = [], []
        for seed in seeds:
            result, note = run_once(workload, seed, seconds, trace=0)
            ok &= result["correct"]
            runs.append(result)
            notes.append(note)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        traced, _ = run_once(workload, seeds[0], seconds, trace=1)
        ok &= traced["correct"]
        end_to_end = {}
        for name, m in runs[0]["metrics"].items():
            end_to_end[name] = dict(unit=m["unit"], **summarize(
                [r["metrics"][name]["value"] for r in runs]))
            e = end_to_end[name]
            print(f"  {name} = {e['median']:.6g} {e['unit']}"
                  f"  spread {e.get('spread', float('nan')):.4f}", flush=True)
        summary["workloads"][workload] = {
            "end_to_end": end_to_end,
            "notes": notes,
            "per_layer": {"seed": seeds[0], "metrics": traced["metrics"]},
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
