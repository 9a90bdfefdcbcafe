"""Spans and counters for the traced run, kept in memory until the end.

A span is (name, start_ns, end_ns, parent span index or -1, image id or
-1). Spans are recorded around each call the benchmark makes into a
layer's public function. Counters come from wrappers installed on the
names the calling module looks up (e.g. poseforge.ppi.d3d), so they count
the calls made inside the package as well.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

# (module, attribute, counter name); the counters only count calls.
COUNTED = (
    ("ppi", "d3d", "pose.d3d.calls"),
    ("ppi", "iou", "pose.iou.calls"),
    ("labeling", "iou", "pose.iou.calls"),
)
# Layer functions the benchmark calls directly, with their span names.
LAYERS = (
    ("anchors", "kmeans_anchors"),
    ("anchors", "add_upper_body_variants"),
    ("labeling", "assign_label"),
    ("learner", "train"),
    ("learner", "predict"),
    ("ppi", "rescore"),
    ("ppi", "group_by_overlap"),
    ("ppi", "extract_modes"),
    ("ppi", "average_mode"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.image = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _traced(self, name, fn, on_call=None):
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Span around a block, such as a pipeline phase or one image."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.image)

    def layers(self, pf) -> SimpleNamespace:
        """The layer functions of poseforge, each wrapped in a span."""
        return SimpleNamespace(**{
            attr: self._traced(f"{mod}.{attr}", getattr(getattr(pf, mod), attr))
            for mod, attr in LAYERS
        })

    def install(self, pf) -> None:
        """Replace the counted names inside the package by counting wrappers."""
        def count_pairs(a, b, *rest):
            self.counts["pose.d3d_matrix.pairs"] += len(a) * len(b)

        original = pf.anchors.d3d_matrix
        self._patches = [(pf.anchors, "d3d_matrix", original, self._traced(
            "pose.d3d_matrix", original, on_call=count_pairs))]
        for mod, attr, name in COUNTED:
            module = getattr(pf, mod)
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._counted(name, original)))
        self._apply(wrapped=True)

    def uninstall(self) -> None:
        self._apply(wrapped=False)
        self._patches = []

    def _apply(self, wrapped: bool) -> None:
        for module, attr, original, wrapper in self._patches:
            setattr(module, attr, wrapper if wrapped else original)

    @contextmanager
    def paused(self):
        """Run a block with the package's own names restored (nothing counted)."""
        self._apply(wrapped=False)
        try:
            yield
        finally:
            self._apply(wrapped=True)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += (end - start) * 1e-9
            agg["self_s"] += (end - start - child[i]) * 1e-9
        return dict(out)

    def dump(self, path) -> None:
        """Write spans and counters as JSON."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "image"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
