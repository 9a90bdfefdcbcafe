"""Anchor-pose codebook: K-means over 3D poses plus upper-body doubling.

Clustering assigns points to centroids under the mean-per-joint distance
(d3d) and updates centroids with the coordinate-wise mean, seeded
k-means++ style, so results are deterministic given (poses, K, seed).
d3d is a metric, so the Lloyd iterations skip the points that the
triangle inequality proves cannot change centroid (Hamerly's bounds);
the assignments, centroids and distortions are those of plain Lloyd
iterations. Each anchor's canonical 2D layout is the per-joint mean of
its members' finite 2D coordinates after normalization into their own
margin boxes; it lives in unit-box coordinates and is placed into
candidate boxes at use time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from poseforge.pose import (
    DEFAULT_BOX_MARGIN,
    AnchorPose,
    Pose2D,
    Pose3D,
    PoseSpec,
    d3d_kernel,
    d3d_matrix,
    margin_boxes,
)

DEFAULT_MAX_ITERS = 100
DEFAULT_TOL = 1e-6  # meters of centroid shift
# Relative slack on the pruning test, far above the rounding of d3d and
# of the bound updates, so a pruned point is one whose assigned centroid
# is strictly the nearest.
PRUNE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """Anchor poses with the clustering provenance that produced them."""

    anchors: tuple[AnchorPose, ...]
    K: int  # number of full-body anchors
    spec: PoseSpec
    seed: int
    distortion_history: tuple[float, ...] = ()

    def __post_init__(self):
        ids = [a.id for a in self.anchors]
        if ids != list(range(len(ids))):
            raise ValueError("anchor ids must be dense 0..n-1")

    def __len__(self) -> int:
        return len(self.anchors)

    @cached_property
    def coords2d(self) -> np.ndarray:
        """Stacked (n, J, 2) anchor unit-box layouts (read-only, built once)."""
        stack = np.stack([a.pose2d.coords for a in self.anchors])
        stack.setflags(write=False)
        return stack

    @cached_property
    def coords3d(self) -> np.ndarray:
        """Stacked (n, J, 3) anchor 3D coordinates (read-only, built once)."""
        stack = np.stack([a.pose3d.coords for a in self.anchors])
        stack.setflags(write=False)
        return stack


def _kmeans_pp_init(coords: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ init: next centroid drawn with prob ~ squared d3d."""
    n = coords.shape[0]
    chosen = [int(rng.integers(n))]
    dist = d3d_matrix(coords, coords[chosen]).min(axis=1)
    while len(chosen) < k:
        weights = dist ** 2
        total = weights.sum()
        if total > 0.0:
            probs = weights / total
            idx = int(rng.choice(n, p=probs))
        else:  # all remaining points coincide with a centroid
            idx = int(rng.choice(n))
        chosen.append(idx)
        dist = np.minimum(dist, d3d_matrix(coords, coords[[idx]])[:, 0])
    return coords[chosen].copy()


def _nearest(coords: np.ndarray, centroids: np.ndarray):
    """Full assignment rows: nearest centroid (ties to the lowest index),
    its distance, and the distance to the second nearest (inf if k = 1)."""
    dist = d3d_matrix(coords, centroids)
    rows = np.arange(len(dist))
    assign = dist.argmin(axis=1)
    near = dist[rows, assign]
    dist[rows, assign] = np.inf
    return assign, near, dist.min(axis=1)


def _unit_layouts(poses, margin_fraction: float) -> np.ndarray:
    """(N, J, 2) member 2D poses normalized into their own margin boxes."""
    coords = np.stack([p2.coords for p2, _ in poses])
    boxes = margin_boxes(coords, np.stack([p2.visibility for p2, _ in poses]),
                         margin_fraction)[:, None, :]
    return (coords - boxes[..., :2]) / (boxes[..., 2:] - boxes[..., :2])


def kmeans_anchors(
    poses: list[tuple[Pose2D, Pose3D]],
    k: int,
    spec: PoseSpec,
    seed: int = 0,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    margin_fraction: float = DEFAULT_BOX_MARGIN,
) -> AnchorSet:
    """Cluster paired 2D-3D poses into k anchor poses.

    Args:
        poses: (pose2d, pose3d) pairs; 3D poses must be torso-centered.
            Invisible 2D joints may be NaN.
        k: number of clusters; requires len(poses) >= k >= 1.
        spec: joint layout of the poses.
        seed: RNG seed for the k-means++ initialization.
        max_iters, tol: stop after max_iters or when the largest centroid
            shift (in d3d) falls below tol.
        margin_fraction: box margin used when normalizing member 2D poses
            for the canonical layouts.

    Returns:
        AnchorSet of k full-body anchors; distortion_history records the
        sum of squared d3d to assigned centroids after each assignment.

    Raises:
        ValueError: besides bad k or joint counts, when a member's visible
            joints cannot anchor a box (see pose.box_around), or when a
            joint coordinate is non-finite in every member of an anchor.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(poses) < k:
        raise ValueError(f"need at least k={k} poses, got {len(poses)}")
    coords3d = np.stack([p3.coords for _, p3 in poses])
    if coords3d.shape[1] != spec.joint_count:
        raise ValueError("poses do not match the spec joint count")
    unit_layouts = _unit_layouts(poses, margin_fraction)

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(coords3d, k, rng)
    planes = np.ascontiguousarray(coords3d.transpose(2, 0, 1))  # (3, N, J)
    # Per point: its centroid, the exact distance u to it, and a lower
    # bound on the distance to every other centroid.
    assign, u, low = _nearest(coords3d, centroids)
    history = [float((u ** 2).sum())]
    for _ in range(max_iters):
        new_centroids = centroids.copy()
        for c in range(k):
            members = assign == c
            if members.any():
                new_centroids[c] = coords3d[members].mean(axis=0)
        # reseed empty clusters from the point farthest from its centroid
        empty = [c for c in range(k) if not (assign == c).any()]
        if empty:
            point_dist = d3d_kernel(planes, new_centroids.transpose(2, 0, 1)[:, assign])
            for c in empty:
                far = int(point_dist.argmax())
                new_centroids[c] = coords3d[far]
                point_dist[far] = -1.0

        shift = d3d_kernel(new_centroids.transpose(2, 0, 1),
                           centroids.transpose(2, 0, 1)).max()
        centroids = new_centroids

        # assignment step: u is exact again, low drops by the largest
        # shift; only points whose bound does not clear u get a full row
        u = d3d_kernel(planes, centroids.transpose(2, 0, 1)[:, assign])
        if k > 1:  # with one centroid low stays inf, and inf - inf would be NaN
            low -= shift
            stale = np.flatnonzero(~(u < low - PRUNE_SLACK * (np.abs(low) + u + 1.0)))
            if len(stale):
                assign[stale], u[stale], low[stale] = _nearest(coords3d[stale], centroids)
        history.append(float((u ** 2).sum()))
        if shift < tol:
            break

    anchors = []
    for c in range(k):
        layouts = unit_layouts[assign == c]
        finite = np.isfinite(layouts)
        count = finite.sum(axis=0)
        if not count.all():
            joint = int(np.argmin(count.all(axis=1)))
            raise ValueError(
                f"anchor {c}: joint {joint} has no finite 2D coordinate "
                f"in its {len(layouts)} members"
            )
        anchors.append(
            AnchorPose(
                id=c,
                pose2d=Pose2D(np.where(finite, layouts, 0.0).sum(axis=0) / count),
                pose3d=Pose3D(centroids[c]),
                body_extent="full_body",
            )
        )
    return AnchorSet(
        anchors=tuple(anchors),
        K=k,
        spec=spec,
        seed=seed,
        distortion_history=tuple(history),
    )


def add_upper_body_variants(anchor_set: AnchorSet) -> AnchorSet:
    """Double the codebook with upper-body variants of each anchor.

    Each variant remaps the canonical 2D layout so the upper-body joints
    span the unit box exactly, pushing lower-body joints below y = 1;
    the 3D pose is unchanged, so a box covering only the upper body still
    regresses the full-body pose.
    """
    spec = anchor_set.spec
    if not spec.lower_body_joints or not spec.upper_body_joints:
        raise ValueError("spec lacks an upper/lower body partition")
    if any(a.body_extent != "full_body" for a in anchor_set.anchors):
        raise ValueError("input anchor set already contains upper-body variants")

    upper = list(spec.upper_body_joints)
    variants = []
    for a in anchor_set.anchors:
        layout = a.pose2d.coords
        lo = layout[upper].min(axis=0)
        hi = layout[upper].max(axis=0)
        if (hi <= lo).any():
            raise ValueError(f"anchor {a.id}: upper-body joints span a degenerate box")
        remapped = (layout - lo) / (hi - lo)
        variants.append(
            AnchorPose(
                id=anchor_set.K + a.id,
                pose2d=Pose2D(remapped),
                pose3d=a.pose3d,
                body_extent="upper_body",
            )
        )
    return AnchorSet(
        anchors=anchor_set.anchors + tuple(variants),
        K=anchor_set.K,
        spec=spec,
        seed=anchor_set.seed,
        distortion_history=anchor_set.distortion_history,
    )
