"""A/B comparison of the benchmark's end-to-end metrics: this tree against a
commit, in alternating pairs of runs.

Usage: python tools/ab.py --base REV --workload W --seeds LIST --pairs N [--seconds X]

LIST is a seed list such as "1", "1,4" or "1-3" (digest.parse_seeds).
Exports REV with `git archive` into a temporary directory (digest.export),
then, seed by seed, runs `perfbench/run.py --trace 0` N times from there
and N times from this tree, in pairs: odd pairs run REV first, even pairs
this tree first. Each run lasts BENCHMARK.json's run_seconds unless
--seconds is given. For each seed, one table gives for each end-to-end
metric of BENCHMARK.json REV's median, this tree's median, the change in
percent, the pairs this tree won (was better in), the IQR of REV's runs
(the distance between their quartiles), and whether two rules hold:

* gain: this tree is better in at least 9 of 10 pairs, and its median is
  better than REV's by more than REV's IQR. A gain needs at least 10 pairs,
  so with fewer the rule reads "no".
* bound: this tree's median is not worse than REV's by more than the
  metric's bound, a fraction of REV's median.

The line before the last says whether the accuracy metrics (ACCURACY)
read the same in every run of a seed, on both sides: it reads "accuracy:
equal", or names each metric that differs with the seeds on which it
did, as "accuracy: differs: mpjpe_mm (seeds 1, 4)". The last line names
each metric that passes the gain rule on some seed, with the seeds on
which it held, as "gains: infer_images_per_s (seeds 1, 4)", or reads
"gains: none". Exits 0 when every run ran and read "correct": true, 1
when a run read false, and 2 when the export or a run failed. Nothing is
written outside the temporary directory: not even bytecode caches.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from digest import exit_on_sigterm, export, parse_seeds

ROOT = Path(__file__).resolve().parents[1]
MIN_GAIN_PAIRS = 10
ACCURACY = ("mpjpe_mm", "pckh", "det_ap", "ok_op_share")


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run from tree: the JSON object of its last line, or
    None if it failed."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = out.stdout.splitlines()
    try:
        if not out.returncode and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    print(f"error: run in {tree} exited {out.returncode} without a JSON result: "
          f"{out.stderr.strip()}", file=sys.stderr)
    return None


def compare(spec: dict, base: list[float], new: list[float]) -> dict:
    """The figures and verdicts of one metric over paired runs."""
    lower = spec["better"] == "lower"
    b, n = statistics.median(base), statistics.median(new)
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1 else (b, b, b)
    won = sum(x < y if lower else x > y for y, x in zip(base, new))
    gap = b - n if lower else n - b  # > 0 when this tree is better
    worse = -gap / abs(b) if b else (0.0 if gap >= 0 else float("inf"))
    return {
        "base": b, "new": n, "change_pct": 100.0 * (n - b) / abs(b) if b else 0.0,
        "won": won, "iqr": q3 - q1,
        "gain": len(base) >= MIN_GAIN_PAIRS and 10 * won >= 9 * len(base) and gap > q3 - q1,
        "bound": worse <= spec["bound"],
    }


def by_seed(held: dict[str, list[int]]) -> str:
    """Each metric with the seeds on which it held, as "a (seeds 1, 4); b
    (seeds 2)"."""
    return "; ".join(f"{name} (seeds {', '.join(map(str, seeds))})"
                     for name, seeds in held.items())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, metavar="REV")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, metavar="LIST")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    specs = bench["end_to_end"]
    exit_on_sigterm()  # subprocess.run kills the running benchmark as it unwinds

    results = {seed: {"base": [], "new": []} for seed in args.seeds}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        error = export(args.base, tmp)
        if error:
            print(f"error: git archive {args.base}: {error}", file=sys.stderr)
            return 2
        trees = {"base": Path(tmp), "new": ROOT}
        for seed, runs in results.items():
            for pair in range(1, args.pairs + 1):
                for side in ("base", "new") if pair % 2 else ("new", "base"):
                    result = run(trees[side], args.workload, seed, seconds)
                    if result is None:
                        return 2
                    runs[side].append(result)
                print(f"seed {seed} pair {pair}/{args.pairs}: " + ", ".join(
                    f"{side} fit_s={runs[side][-1]['metrics']['fit_s']['value']:.4g}"
                    for side in ("base", "new")), flush=True)

    gains, differ, failed = {}, {}, []
    for seed, runs in results.items():
        print(f"\nworkload={args.workload} seed={seed} pairs={args.pairs} seconds={seconds} "
              f"base={args.base} (REV) new=this tree")
        print(f"{'metric':<22} {'base':>11} {'new':>11} {'change':>8} {'won':>6} "
              f"{'base IQR':>10} {'gain':>5} {'bound':>5}")
        for spec in specs:
            name = spec["name"]
            c = compare(spec, *([r["metrics"][name]["value"] for r in runs[side]]
                                for side in ("base", "new")))
            print(f"{name:<22} {c['base']:>11.5g} {c['new']:>11.5g} {c['change_pct']:>+7.2f}% "
                  f"{c['won']:>2}/{args.pairs:<3} {c['iqr']:>10.3g} "
                  f"{'yes' if c['gain'] else 'no':>5} {'ok' if c['bound'] else 'FAIL':>5}")
            if c["gain"]:
                gains.setdefault(name, []).append(seed)
        for name in ACCURACY:
            if len({r["metrics"][name]["value"] for side in runs for r in runs[side]}) > 1:
                differ.setdefault(name, []).append(seed)
        failed += [f"{side} (seed {seed})" for side in runs for r in runs[side]
                   if r["correct"] is not True]
    if failed:
        print(f"runs that did not read correct: true: {', '.join(failed)}")
    print("accuracy: " + (f"differs: {by_seed(differ)}" if differ else "equal"))
    print("gains: " + (by_seed(gains) or "none"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
