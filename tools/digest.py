"""Output digest of the benchmark pipeline: one hash per stage and seed.

For each seed of a workload, runs perfbench/pipeline.py's setup, fit and
infer_image over the test images, as the benchmark does, and prints one
line with a hash of each stage's outputs:

* anchors: every anchor's 2D layout and 3D pose, K and the distortion
  history;
* labels: every training box's class label and regression target;
* training: the loss history, the model's four weight arrays and its
  fitted anchor ids;
* proposals: every test image's proposals, in order: anchor id, box,
  poses, score and rescored score;
* detections: every test image's detections, in order: poses, score,
  member count and the unweighted flag.

Values are hashed by their bits, not by the objects that hold them, so
two trees whose outputs are bit-identical print the same lines, whatever
their classes look like. The digest reads the model's arrays by name, so
two trees whose model layouts differ are compared by running each tree's
own copy of this tool, which --against does.

Usage: python tools/digest.py [--against REV] --workload W --seeds 1-10

The perfbench/ and src/ of this tool's own tree run. --against REV
compares this tree with the commit REV (such as HEAD or a parent
commit): it exports REV with `git archive` into a temporary directory
and runs REV's own copy of this tool there, beside this tree's copy. It
prints each pair of lines, once with "=" where they are equal, and as a
"-" line (REV) and a "+" line (this tree) where they differ, then exits
1 if any line differs. --seeds takes a list such as 1-10, 3 or
1,4,7-9. The BLAS thread count is pinned to 1 before NumPy loads, as
perfbench/run.py pins it. Nothing is written outside the temporary
directory: not even bytecode caches.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import os
import signal
import struct
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAGES = ("anchors", "labels", "training", "proposals", "detections")


def parse_seeds(text: str) -> list[int]:
    """Seeds from a list such as "1-10", "3" or "1,4,7-9". A part that is
    empty, not a number, or a range that runs backwards raises
    argparse.ArgumentTypeError naming the part, which argparse prints."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi if dash else lo)
        except ValueError:
            first, last = 1, 0  # an empty range, rejected below
        if last < first:
            raise argparse.ArgumentTypeError(
                f"seed list {text!r}: part {part!r} is not N or LO-HI with LO <= HI")
        seeds.extend(range(first, last + 1))
    return seeds


class Digest:
    """A SHA-256 over a sequence of values, each fed with its type and size."""

    def __init__(self):
        self._h = hashlib.sha256()

    def array(self, a) -> None:
        """A NumPy array, by dtype, shape and its bytes in C order."""
        self._h.update(f"a{a.dtype.str}{a.shape}".encode())
        self._h.update(a.tobytes())

    def real(self, x) -> None:
        self._h.update(b"f" + struct.pack("<d", x))

    def integer(self, x) -> None:
        self._h.update(b"i" + struct.pack("<q", x))

    def none(self) -> None:
        self._h.update(b"n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def digest_seed(pipeline, w, seed: int) -> dict[str, str]:
    """The five stage hashes of one seed of workload w."""
    pf, inputs = pipeline.setup(w, seed)
    fitted = pipeline.fit(pf, pipeline.raw_layers(pf), w, inputs, seed, pipeline.Clock())
    d = {stage: Digest() for stage in STAGES}

    anchors = fitted.anchors
    d["anchors"].integer(anchors.K)
    d["anchors"].integer(len(anchors))
    for a in anchors.anchors:
        d["anchors"].array(a.pose2d.coords)
        d["anchors"].array(a.pose3d.coords)
    for x in anchors.distortion_history:
        d["anchors"].real(x)

    for lab in fitted.labels:
        d["labels"].integer(lab.class_label)
        if lab.target is None:
            d["labels"].none()
        else:
            d["labels"].array(lab.target)

    model = fitted.model
    for row in model.loss_history:
        d["training"].integer(row[0])
        for x in row[1:]:
            d["training"].real(x)
    for arr in (model.w_cls, model.b_cls, model.w_reg, model.b_reg, model.fitted):
        d["training"].array(arr)

    for img in inputs.test:
        proposals, detections = pipeline.infer_image(pf, fitted, img)
        d["proposals"].integer(len(proposals))
        for p in proposals:
            d["proposals"].integer(p.anchor_id)
            for x in p.box.as_tuple():
                d["proposals"].real(x)
            d["proposals"].array(p.pose2d.coords)
            d["proposals"].array(p.pose2d.visibility)
            d["proposals"].array(p.pose3d.coords)
            d["proposals"].real(p.score)
            if p.rescored is None:
                d["proposals"].none()
            else:
                d["proposals"].real(p.rescored)
        d["detections"].integer(len(detections))
        for det in detections:
            d["detections"].array(det.pose2d.coords)
            d["detections"].array(det.pose2d.visibility)
            d["detections"].array(det.pose3d.coords)
            d["detections"].real(det.score)
            d["detections"].integer(det.member_count)
            d["detections"].integer(int(det.unweighted))
    return {stage: h.hexdigest() for stage, h in d.items()}


def export(rev: str, dest: str) -> str | None:
    """Extract the tree of the commit rev into the directory dest, through
    `git archive` of this repository. Returns git's error message if that
    fails, else None."""
    root = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev],
                             capture_output=True)
    if archive.returncode:
        return archive.stderr.decode().strip()
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return None


def exit_on_sigterm() -> None:
    """Make a SIGTERM unwind as Ctrl-C does, so that the runs started are
    stopped and the temporary directory is removed."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def against(rev: str, workload: str, seeds: list[int]) -> int:
    """Run REV's copy of this tool, from a `git archive` export of REV in a
    temporary directory, beside this tree's copy, and print their lines
    pair by pair. Returns 1 if any line differs, 2 if a run fails."""
    here = Path(__file__).resolve()
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        error = export(rev, tmp)
        if error:
            print(f"error: git archive {rev}: {error}", file=sys.stderr)
            return 2
        theirs = Path(tmp) / "tools" / "digest.py"
        if not theirs.is_file():
            print(f"error: {rev} has no tools/digest.py", file=sys.stderr)
            return 2
        args = ["--workload", workload, "--seeds", ",".join(map(str, seeds))]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        runs = [subprocess.Popen([sys.executable, str(tool), *args], stdout=subprocess.PIPE,
                                 text=True, env=env, cwd=tmp) for tool in (theirs, here)]
        try:
            (old, _), (new, _) = (run.communicate() for run in runs)
        finally:
            for run in runs:  # a no-op for a run that has exited
                run.kill()
    if any(run.returncode for run in runs):
        print(f"error: a digest run failed (exit codes {[run.returncode for run in runs]})",
              file=sys.stderr)
        return 2
    differ = 0
    for a, b in itertools.zip_longest(old.splitlines(), new.splitlines(), fillvalue=""):
        if a == b:
            print(f"= {a}")
        else:
            differ += 1
            print(f"- {a}\n+ {b}")
    print(f"{differ} line(s) differ between {rev} (-) and this tree (+)")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REV")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    args = ap.parse_args(argv)
    if args.against:
        exit_on_sigterm()
        return against(args.against, args.workload, args.seeds)
    root = Path(__file__).resolve().parents[1]
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import pipeline  # after the BLAS variables are set: it imports NumPy

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    w = pipeline.WORKLOADS[args.workload]
    for seed in args.seeds:
        hashes = digest_seed(pipeline, w, seed)
        print(f"workload={args.workload} seed={seed} "
              + " ".join(f"{stage}={h}" for stage, h in hashes.items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
