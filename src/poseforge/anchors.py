"""Anchor-pose codebook: K-means over 3D poses plus upper-body doubling.

Clustering is K-means in R^{3J}: each 3D pose is one point of its 3J
coordinates, a point goes to the centroid at the least Euclidean distance
over all of them, and each centroid is updated to its members' coordinate
mean, which minimises the sum of squared distances that the assignment
measures. Seeding is k-means++, so results are deterministic given
(poses, K, seed). The Euclidean distance is a metric, so each point keeps
a lower bound on its distance to every centroid (Elkan's bounds), and the
Lloyd iterations evaluate only the point-centroid pairs whose bound does
not prove them farther than the point's own centroid; the assignments,
centroids and distortions are those of plain Lloyd iterations, so the
distortion never rises. Each anchor's canonical 2D layout is the per-joint
mean of its members' finite 2D coordinates after normalization into their
own margin boxes; it lives in unit-box coordinates and is placed into
candidate boxes at use time. A joint that no member shows (every member
codes it as NaN) takes its place from the anchor's 3D pose: the (x, y)
projection of the centroid, fitted by scale and offset onto the anchor's
other joints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# d3d_matrix is not called here (the codebook's distance is the Euclidean
# one in R^{3J}, not d3d); perfbench/tracing.py counts calls through
# poseforge.anchors.d3d_matrix.
from poseforge.pose import (  # noqa: F401
    AnchorPose,
    Pose2D,
    Pose3D,
    PoseSpec,
    _check_count,
    _stack_pairs,
    d3d_matrix,
    margin_boxes,
)

DEFAULT_MAX_ITERS = 100
# meters: the Euclidean norm of a centroid's shift over all 3J coordinates
DEFAULT_TOL = 1e-6
# Relative slack on the pruning test, far above the rounding of the
# distances and of the bound updates, so a pruned (point, centroid) pair is
# strictly farther apart than the point and its assigned centroid.
PRUNE_SLACK = 1e-9
# Candidate (point, centroid) pairs that _pair_dist evaluates at a time, per
# centroid: a chunk's temporaries are those of this many points against
# every centroid.
_PAIR_CHUNK_ROWS = 256


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """Anchor poses, with the distortion history of the clustering that
    produced them.

    Anchor id i is anchors[i]; the first K are full-body, and the rest
    are upper-body variants (see add_upper_body_variants). Construction
    rejects an anchor whose 2D or 3D joint count is not spec's, and
    stacks the anchors into one read-only (n, 5*J) array, stack, in
    labeling.regression_target's layout: the unit-box layout (x0, y0, x1,
    y1, ...), then the 3D pose (x0, y0, z0, ...). coords2d (n, J, 2) and
    coords3d (n, J, 3) are views of its two halves. Row i holds anchor
    id i, and an empty set has n = 0.
    """

    anchors: tuple[AnchorPose, ...]
    K: int
    spec: PoseSpec
    distortion_history: tuple[float, ...] = ()

    def __post_init__(self):
        _check_count("K", self.K, 0)
        if self.K > len(self.anchors):
            raise ValueError(f"K must be <= the {len(self.anchors)} anchors, got {self.K}")
        j = self.spec.joint_count
        for i, a in enumerate(self.anchors):
            if len(a.pose2d.coords) != j or len(a.pose3d.coords) != j:
                raise ValueError(f"anchor {i} has {len(a.pose2d.coords)} 2D and "
                                 f"{len(a.pose3d.coords)} 3D joints, spec {self.spec.name} has {j}")
        stack = np.array([np.concatenate((a.pose2d.coords, a.pose3d.coords), axis=None)
                          for a in self.anchors]).reshape(-1, 5 * j)
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "coords2d", stack[:, :2 * j].reshape(-1, j, 2))
        object.__setattr__(self, "coords3d", stack[:, 2 * j:].reshape(-1, j, 3))

    def __len__(self) -> int:
        return len(self.anchors)


def _dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between the rows of a and b, (..., 3J) stacks that
    broadcast against each other; the last axis is dropped. The squared
    differences are summed by np.add.reduce along each row, so the result
    equals np.linalg.norm(a - b, axis=-1) bit for bit."""
    diff = np.subtract(a, b)
    diff *= diff
    return np.sqrt(np.add.reduce(diff, axis=-1))


def _kmeans_pp_init(points: np.ndarray, k: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ init: the first centroid uniform, each next one
    drawn with probability proportional to its squared Euclidean distance
    to the nearest centroid so far, uniform once every weight is 0.

    points (N, 3J) are the flat corpus. Returns the (k, 3J) centroids and
    the (N, k) distance of every point to each of them (see _dist): each
    column is computed once, to draw the next centroid, and kept.
    """
    n = len(points)
    chosen = [int(rng.integers(n))]
    to_centroids = np.empty((n, k))
    to_centroids[:, 0] = dist = _dist(points, points[chosen[0]])
    for c in range(1, k):
        weights = dist ** 2
        total = weights.sum()
        if total > 0.0:
            probs = weights / total
            idx = int(rng.choice(n, p=probs))
        else:  # all remaining points coincide with a centroid
            idx = int(rng.choice(n))
        chosen.append(idx)
        to_centroids[:, c] = column = _dist(points, points[idx])
        dist = np.minimum(dist, column)
    return points[chosen], to_centroids


def _pair_dist(points: np.ndarray, centroids: np.ndarray, rows: np.ndarray,
               cols: np.ndarray, chunk: int) -> np.ndarray:
    """Euclidean distance (see _dist) of point rows[i] (points (N, 3J)) to
    centroid cols[i] (centroids (k, 3J)), chunk pairs at a time to bound
    the temporaries: one Lloyd iteration of a large corpus can keep
    thousands of pairs whose bounds do not prune them (kmeans_anchors
    passes _PAIR_CHUNK_ROWS * k)."""
    out = np.empty(len(rows))
    for start in range(0, len(rows), chunk):
        end = start + chunk
        out[start:end] = _dist(points[rows[start:end]], centroids[cols[start:end]])
    return out


def _clusters(x: np.ndarray, assign: np.ndarray, k: int) -> list[np.ndarray]:
    """The rows of x (N, ...) of each of the k clusters, in input order, as
    contiguous slices of one gathered copy. The stable sort of the smallest
    unsigned dtype is a radix sort."""
    order = np.argsort(assign.astype(np.min_scalar_type(k - 1)), kind="stable")
    return np.split(np.take(x, order, axis=0), np.cumsum(np.bincount(assign, minlength=k))[:-1])


# an s or t that is not finite is rejected below, so numpy's warnings would
# only repeat the ValueError
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _fit_scale_offset(src: np.ndarray, dst: np.ndarray) -> tuple[float, np.ndarray]:
    """Least-squares uniform scale s and 2D offset t mapping the points src
    onto dst, finite (n, 2) arrays: the s and t that minimize
    sum ||s * src_i + t - dst_i||^2. Raises ValueError on fewer than 2
    points, or when s or t is not finite: the squared spread of src is 0
    (s is 0 / 0), underflows to 0 or overflows.
    """
    if len(src) < 2:
        raise ValueError(f"need at least 2 points, got {len(src)}")
    src_c, dst_c = src.mean(axis=0), dst.mean(axis=0)
    src0 = src - src_c
    s = float((src0 * (dst - dst_c)).sum() / (src0 ** 2).sum())
    t = dst_c - s * src_c
    if not np.isfinite(t).all():  # an s that is not finite makes t NaN or infinite
        raise ValueError(f"no finite scale and offset for a squared spread of 0 or out of "
                         f"range, got {s} and {t}")
    return s, t


def kmeans_anchors(
    poses: list[tuple[Pose2D, Pose3D]],
    k: int,
    spec: PoseSpec,
    seed: int = 0,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> AnchorSet:
    """Cluster paired 2D-3D poses into k anchor poses.

    Args:
        poses: (pose2d, pose3d) pairs; 3D poses must be torso-centered.
            Invisible 2D joints may be NaN.
        k: number of clusters, an int; requires len(poses) >= k >= 1.
        spec: joint layout of the poses.
        seed: RNG seed for the k-means++ initialization, an int >= 0.
        max_iters: stop after max_iters updates (an int >= 0) or when
            the largest centroid shift (the Euclidean norm over all 3J
            coordinates) falls below DEFAULT_TOL.

    Returns:
        AnchorSet of k full-body anchors; distortion_history records the
        sum of squared Euclidean distances in R^{3J} (m^2) of the points to
        their assigned centroids after each assignment, the objective that
        the Lloyd iterations never raise.
        Each layout joint is the mean of the members' finite unit-box
        coordinates. A joint with no finite coordinate in any member of
        its anchor is filled from the centroid's (x, y) projection,
        placed by its least-squares scale and offset onto the anchor's
        other joints.

    Raises:
        ValueError: besides bad k, seed, max_iters or a 2D or 3D joint
            count other than spec's, when a member's visible joints cannot
            anchor a box (see pose.margin_boxes), or when a joint has no
            finite coordinate in any member of an anchor and the fill
            cannot place it: the anchor has fewer than 2 joints with a
            finite coordinate (an anchor without members has none), or
            the projection of those joints has no spread.
    """
    _check_count("k", k, 1)
    _check_count("seed", seed, 0)
    _check_count("max_iters", max_iters, 0)
    if len(poses) < k:
        raise ValueError(f"need at least k={k} poses, got {len(poses)}")
    coords2d, visibility, coords3d = _stack_pairs(poses, spec)
    # member 2D poses normalized into their own margin boxes
    boxes = margin_boxes(coords2d, visibility)[:, None, :]
    unit_layouts = (coords2d - boxes[..., :2]) / (boxes[..., 2:] - boxes[..., :2])

    rng = np.random.default_rng(seed)
    # Per point: a lower bound on its distance to each centroid, exact
    # from the k-means++ draws; then its centroid and the exact distance
    # u to it, after this first full assignment.
    points = coords3d.reshape(len(poses), -1)  # (N, 3J)
    centroids, low = _kmeans_pp_init(points, k, rng)
    rows = np.arange(len(poses))
    assign = low.argmin(axis=1)
    u = low[rows, assign]
    history = [float((u ** 2).sum())]
    for _ in range(max_iters):
        clusters = _clusters(points, assign, k)
        new_centroids = centroids.copy()
        for c, members in enumerate(clusters):
            if len(members):
                new_centroids[c] = members.mean(axis=0)
        # reseed empty clusters from the point farthest from its centroid
        empty = [c for c, members in enumerate(clusters) if not len(members)]
        if empty:
            point_dist = _dist(points, new_centroids[assign])
            for c in empty:
                far = int(point_dist.argmax())
                new_centroids[c] = points[far]
                point_dist[far] = -1.0

        shifts = _dist(new_centroids, centroids)
        centroids = new_centroids

        # assignment step: u is exact again and each bound drops by its
        # centroid's shift; only the pairs whose bound does not clear u
        # are evaluated, and only their rows can change centroid
        u = _dist(points, centroids[assign])
        low -= shifts
        # not u < low - PRUNE_SLACK * (|low| + u + 1), rearranged; both
        # forms keep every pair whose bound is negative
        candidate = ~((1.0 + PRUNE_SLACK) * u[:, None] + PRUNE_SLACK
                      < (1.0 - PRUNE_SLACK) * low)
        low[rows, assign] = u
        candidate[rows, assign] = False
        pts, cols = np.divmod(np.flatnonzero(candidate), k)
        if len(pts):
            low[pts, cols] = _pair_dist(points, centroids, pts, cols, _PAIR_CHUNK_ROWS * k)
            # pts is sorted (flat indices, divided by k), so its first
            # occurrences are its distinct rows, in order
            moved = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
            assign[moved] = low[moved].argmin(axis=1)
            u[moved] = low[moved, assign[moved]]
        history.append(float((u ** 2).sum()))
        if shifts.max() < DEFAULT_TOL:
            break

    centroids = centroids.reshape(k, -1, 3)
    anchors = []
    for c, layouts in enumerate(_clusters(unit_layouts, assign, k)):
        finite = np.isfinite(layouts)
        count = finite.sum(axis=0)
        layout = np.where(finite, layouts, 0.0).sum(axis=0) / np.maximum(count, 1)
        orphan = ~count.all(axis=1)
        if orphan.any():
            try:
                s, t = _fit_scale_offset(centroids[c, ~orphan, :2], layout[~orphan])
            except ValueError:  # fewer than 2 finite joints, or no spread
                raise ValueError(
                    f"anchor {c}: joint {int(np.argmax(orphan))} has no finite 2D "
                    f"coordinate in its {len(layouts)} members"
                ) from None
            layout[orphan] = s * centroids[c, orphan, :2] + t
        anchors.append(AnchorPose(Pose2D(layout), Pose3D(centroids[c])))
    return AnchorSet(
        anchors=tuple(anchors),
        K=k,
        spec=spec,
        distortion_history=tuple(history),
    )


def add_upper_body_variants(anchor_set: AnchorSet) -> AnchorSet:
    """Double the codebook with upper-body variants of each anchor.

    Each variant remaps the canonical 2D layout so the upper-body joints
    span the unit box exactly, pushing lower-body joints below y = 1;
    the 3D pose is unchanged, so a box covering only the upper body still
    regresses the full-body pose. The variant of anchor i is anchor K + i.
    Raises on an input that already holds variants (len(anchor_set) != K).
    """
    spec = anchor_set.spec
    if not spec.lower_body_joints or not spec.upper_body_joints:
        raise ValueError("spec lacks an upper/lower body partition")
    if len(anchor_set) != anchor_set.K:
        raise ValueError("input anchor set already contains upper-body variants")

    layouts = anchor_set.coords2d  # (n, J, 2); row i holds anchor id i
    upper = layouts[:, list(spec.upper_body_joints)]
    lo, hi = upper.min(axis=1, keepdims=True), upper.max(axis=1, keepdims=True)
    bad = np.flatnonzero((hi <= lo).any(axis=(1, 2)))
    if len(bad):
        raise ValueError(f"anchor {bad[0]}: upper-body joints span a degenerate box")
    variants = tuple(AnchorPose(Pose2D(layout), a.pose3d)
                     for a, layout in zip(anchor_set.anchors, (layouts - lo) / (hi - lo)))
    return AnchorSet(
        anchors=anchor_set.anchors + variants,
        K=anchor_set.K,
        spec=spec,
        distortion_history=anchor_set.distortion_history,
    )
