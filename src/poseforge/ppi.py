"""Pose proposal integration: rescoring, overlap grouping, 3D mode
extraction, score-weighted averaging into detections, and the NMS
baseline that keeps only the top proposal per overlap group.

All functions are pure; per-image calls are independent. Ties on equal
rescored score are broken by lower proposal position for determinism.

Every step runs on stacked arrays: boxes (N, 4), 2D poses (N, J, 2), 3D
poses (N, J, 3) and scores (N,). ppi() and nms() stack an image's
proposals once; the public per-list functions stack their input and call
the same private helpers, so each piece of math has one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# d3d and iou are no longer called here: _modes calls pose.d3d_kernel and
# _group repeats iou's arithmetic, in the same operation order, on stacks.
# The names stay in this module because perfbench/tracing.py counts the
# calls made through poseforge.ppi.d3d and poseforge.ppi.iou and patches
# both attributes.
from poseforge.pose import BoundingBox, Pose2D, Pose3D, d3d, d3d_kernel, iou  # noqa: F401
from poseforge.pose import poses2d, poses3d

DEFAULT_T3D = 0.125      # meters (125 mm)
DEFAULT_IOU = 0.12
DEFAULT_SIGMA_B = 25.0   # pixels


@dataclass(frozen=True, eq=False)
class PoseProposal:
    """A refined 2D-3D pose hypothesized in a candidate box.

    score is the classification probability; rescored is filled by
    rescore() and never exceeds score.
    """

    anchor_id: int
    box: BoundingBox
    pose2d: Pose2D
    pose3d: Pose3D
    score: float
    rescored: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.rescored is not None and self.rescored > self.score + 1e-12:
            raise ValueError("rescored score cannot exceed the raw score")


@dataclass(frozen=True)
class PpiParams:
    """Thresholds for grouping and integration.

    t3d is in meters (default 0.125, i.e. 125 mm); sigma_b in pixels.
    overlap_joints optionally restricts the grouping box to a joint
    subset (e.g. head + torso) to avoid unwanted merges.
    """

    iou_threshold: float = DEFAULT_IOU
    t3d: float = DEFAULT_T3D
    sigma_b: float = DEFAULT_SIGMA_B
    min_score: float | None = None
    overlap_joints: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in [0, 1]")
        if self.t3d <= 0.0:
            raise ValueError("t3d must be positive")
        if self.sigma_b <= 0.0:
            raise ValueError("sigma_b must be positive")


@dataclass(frozen=True, eq=False)
class Detection:
    """Aggregated 2D-3D pose with the accumulated score of its mode."""

    pose2d: Pose2D
    pose3d: Pose3D
    score: float          # sum of member rescored scores
    member_count: int
    unweighted: bool = False  # True when all member scores were zero


def _stack2d(proposals) -> np.ndarray:
    """(N, J, 2) stack of the proposals' 2D poses, required finite."""
    c2d = np.array([p.pose2d.coords for p in proposals])
    if not np.isfinite(c2d).all():
        raise ValueError(
            "proposal 2D poses must be finite at every joint, occluded ones included"
        )
    return c2d


def _stack3d(proposals) -> np.ndarray:
    """(N, J, 3) stack of the proposals' 3D poses."""
    return np.array([p.pose3d.coords for p in proposals])


def _rescore(boxes: np.ndarray, c2d: np.ndarray, scores: np.ndarray,
             sigma_b: float) -> np.ndarray:
    """Rescored scores from boxes (N, 4), 2D poses (N, J, 2), scores (N,).

    D is each joint's distance to its box, 0 inside or on it, where
    exp(-D^2 / sigma_b^2) is exactly 1. Scaling s by the mean of these
    factors, which is at most 1, gives s' <= s, and s' = s exactly when
    every joint is inside.
    """
    gap = np.maximum(np.maximum(boxes[:, None, :2] - c2d, 0.0), c2d - boxes[:, None, 2:])
    d = np.hypot(gap[..., 0], gap[..., 1])
    return scores * np.exp(-(d * d) / (sigma_b * sigma_b)).mean(axis=1)


def _overlap_boxes(c2d: np.ndarray, joints: tuple[int, ...] | None) -> np.ndarray:
    """(N, 4) tight joint boxes (x_min, y_min, x_max, y_max); see overlap_box."""
    pts = c2d if joints is None else c2d[:, list(joints)]
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    flat = hi <= lo
    return np.concatenate([np.where(flat, lo - 1e-6, lo), np.where(flat, hi + 1e-6, hi)],
                          axis=1)


def _greedy(rescored: np.ndarray, near) -> list[tuple[int, np.ndarray]]:
    """Greedy clustering for overlap grouping.

    Seeds come by descending score, then lower index. Each seed takes
    itself and every still-free proposal that near(seed, candidates)
    marks, so the clusters partition the input. Returns (seed, members
    in input order) per cluster.
    """
    n = len(rescored)
    free = np.ones(n, dtype=bool)
    clusters = []
    for seed in np.lexsort((np.arange(n), -rescored)):
        if free[seed]:
            cand = np.flatnonzero(free)
            members = cand[near(seed, cand) | (cand == seed)]
            free[members] = False
            clusters.append((seed, members))
    return clusters


def _group(boxes: np.ndarray, rescored: np.ndarray, iou_threshold: float) -> list[np.ndarray]:
    """Overlap groups of boxes (N, 4), as index arrays in input order.

    A seed's IoU row repeats pose.iou's operations in their order. Where
    both joint-box areas underflow to 0 the union is 0 too, and the IoU
    counts as 0 rather than 0/0; the seed still joins its own group.
    """
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])

    def overlapping(seed, cand):
        b, s = boxes[cand], boxes[seed]
        iw = np.minimum(b[:, 2], s[2]) - np.maximum(b[:, 0], s[0])
        ih = np.minimum(b[:, 3], s[3]) - np.maximum(b[:, 1], s[1])
        hit = (iw > 0.0) & (ih > 0.0)
        inter = np.multiply(iw, ih, out=np.zeros(len(cand)), where=hit)
        union = area[cand] + area[seed] - inter
        row = np.divide(inter, union, out=np.zeros(len(cand)), where=hit & (union > 0.0))
        return row >= iou_threshold

    return [members for _, members in _greedy(rescored, overlapping)]


def _modes(c3d: np.ndarray, rescored: np.ndarray, gid: np.ndarray,
           t3d: float) -> tuple[np.ndarray, np.ndarray]:
    """3D modes of every overlap group of poses (N, J, 3) at once.

    gid (N,) numbers each pose's group. The groups advance in lock-step
    rounds: in each, every group that still has free poses seeds a mode
    with the next of them by descending score, then lower index, and one
    pose.d3d_kernel call covers every (seed, free pose of its group)
    pair. Returns the modes' member indices concatenated in (group,
    round) order, each mode listing its seed first and then its members
    in input order, and each mode's size.
    """
    n = len(gid)
    index = np.arange(n)
    # contiguous joint rows, so the kernel's joint mean adds as pose.d3d's does
    planes = np.ascontiguousarray(c3d.transpose(2, 0, 1))
    order = np.lexsort((index, -rescored, gid))  # free poses, by group, then seed rule
    rounds = np.empty(n, dtype=np.intp)
    is_seed = np.zeros(n, dtype=bool)
    r = 0
    while len(order):
        g = gid[order]
        first = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
        seeds = order[first]
        pair = np.repeat(seeds, np.diff(np.append(first, len(order))))
        hit = (d3d_kernel(planes[:, pair], planes[:, order]) < t3d) | (pair == order)
        rounds[order[hit]] = r
        is_seed[seeds] = True
        order = order[~hit]
        r += 1
    members = np.lexsort((index, ~is_seed, rounds, gid))
    return members, np.diff(np.append(np.flatnonzero(is_seed[members]), n))


def _average(c2d: np.ndarray, c3d: np.ndarray, weights: np.ndarray,
             members: np.ndarray, sizes: np.ndarray) -> list[Detection]:
    """One Detection per mode (members, sizes as _modes gives them); see
    average_mode.

    Modes of equal size are averaged together: per bucket, the row sums
    and einsum "mi,mijk->mjk" add in the order of a single mode's
    weights.sum() and einsum "i,ijk->jk", so every result is the same.
    """
    starts = np.cumsum(sizes) - sizes
    totals = np.empty(len(sizes))
    mean2d = np.empty((len(sizes),) + c2d.shape[1:])
    mean3d = np.empty((len(sizes),) + c3d.shape[1:])
    for size in np.unique(sizes):
        ids = np.flatnonzero(sizes == size)
        idx = members[starts[ids, None] + np.arange(size)]
        w = weights[idx]
        total = w.sum(axis=1)
        totals[ids] = total
        pos = total > 0.0
        if not pos.all():  # all-zero modes take the unweighted mean
            zero = idx[~pos]
            mean2d[ids[~pos]] = c2d[zero].mean(axis=1)
            mean3d[ids[~pos]] = c3d[zero].mean(axis=1)
            ids, idx, w, total = ids[pos], idx[pos], w[pos], total[pos]
        w /= total[:, None]
        mean2d[ids] = np.einsum("mi,mijk->mjk", w, c2d[idx])
        mean3d[ids] = np.einsum("mi,mijk->mjk", w, c3d[idx])
    return [
        Detection(pose2d=p2, pose3d=p3, score=s, member_count=m, unweighted=not s > 0.0)
        for p2, p3, s, m in zip(poses2d(mean2d), poses3d(mean3d), totals.tolist(),
                                sizes.tolist())
    ]


def _require_rescored(proposals) -> np.ndarray:
    if any(p.rescored is None for p in proposals):
        raise ValueError("proposals must be rescored first")
    return np.array([p.rescored for p in proposals], dtype=np.float64)


def rescore(proposal: PoseProposal, sigma_b: float = DEFAULT_SIGMA_B) -> PoseProposal:
    """Penalize joints outside the proposal's box.

    s' = s * mean_j f(p_j, B) with f = 1 inside the box and
    exp(-D^2 / sigma_b^2) outside, D being the distance of the joint to
    the box boundary. All J regressed joints participate, visible or
    not, and must be finite; if every joint lies inside or on the box,
    s' = s exactly.
    """
    (s_prime,) = _rescore(np.array([proposal.box.as_tuple()]), _stack2d([proposal]),
                          np.array([proposal.score]), sigma_b)
    return replace(proposal, rescored=float(s_prime))


def overlap_box(pose2d: Pose2D, joints: tuple[int, ...] | None = None) -> BoundingBox:
    """Tight box around the 2D joints used for overlap grouping.

    Uses all joint coordinates (visibility is ignored: proposals carry
    fully regressed poses); a zero extent is padded by 1e-6 px so the
    box stays valid and such a proposal simply groups alone.
    """
    return BoundingBox(*_overlap_boxes(pose2d.coords[None], joints)[0])


def group_by_overlap(
    proposals: list[PoseProposal],
    iou_threshold: float = DEFAULT_IOU,
    overlap_joints: tuple[int, ...] | None = None,
) -> list[list[PoseProposal]]:
    """Greedy grouping by 2D overlap of joint bounding boxes.

    Repeatedly seeds a group with the highest-rescored unassigned
    proposal and absorbs every unassigned proposal whose joint-box IoU
    with the seed is >= iou_threshold. Groups partition the input;
    members keep their input order.
    """
    rescored = _require_rescored(proposals)
    if not proposals:
        return []
    boxes = _overlap_boxes(_stack2d(proposals), overlap_joints)
    return [[proposals[i] for i in g] for g in _group(boxes, rescored, iou_threshold)]


def extract_modes(
    group: list[PoseProposal], t3d: float = DEFAULT_T3D
) -> list[list[PoseProposal]]:
    """Split a group into 3D modes; each mode lists its seed first.

    Repeatedly picks the highest-rescored uncovered proposal as the
    mode seed and absorbs the uncovered proposals whose d3d to the seed
    is strictly below t3d, so modes partition the group.
    """
    if not group:
        raise ValueError("empty group")
    rescored = _require_rescored(group)
    members, sizes = _modes(_stack3d(group), rescored, np.zeros(len(group), dtype=np.intp),
                            t3d)
    return [[group[i] for i in m] for m in np.split(members, np.cumsum(sizes)[:-1])]


def average_mode(mode: list[PoseProposal]) -> Detection:
    """Score-weighted mean of a mode's 2D and 3D poses.

    The detection score S is the sum of member rescored scores; when
    every member score is zero the poses fall back to an unweighted
    mean with S = 0, flagged via Detection.unweighted.
    """
    if not mode:
        raise ValueError("empty mode")
    (detection,) = _average(_stack2d(mode), _stack3d(mode), _require_rescored(mode),
                            np.arange(len(mode)), np.array([len(mode)]))
    return detection


def _finalize(detections: list[Detection], min_score: float | None) -> list[Detection]:
    if min_score is not None:
        detections = [d for d in detections if d.score >= min_score]
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    return [detections[i] for i in order]


def _rescored_groups(proposals: list[PoseProposal], params: PpiParams):
    """Stack one image's proposals, rescore them and group them by overlap."""
    c2d = _stack2d(proposals)
    scores = np.array([p.score for p in proposals], dtype=np.float64)
    boxes = np.array([p.box.as_tuple() for p in proposals], dtype=np.float64)
    rescored = _rescore(boxes, c2d, scores, params.sigma_b)
    if (rescored > scores + 1e-12).any():
        raise ValueError("rescored score cannot exceed the raw score")
    groups = _group(_overlap_boxes(c2d, params.overlap_joints), rescored,
                    params.iou_threshold)
    return c2d, rescored, groups


def ppi(proposals: list[PoseProposal], params: PpiParams = PpiParams()) -> list[Detection]:
    """Full integration: rescore, group, extract modes, average, filter.

    Returns detections sorted by descending score; every input proposal
    contributes to exactly one mode.
    """
    if not proposals:
        return []
    c2d, rescored, groups = _rescored_groups(proposals, params)
    c3d = _stack3d(proposals)
    gid = np.empty(len(proposals), dtype=np.intp)
    gid[np.concatenate(groups)] = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    members, sizes = _modes(c3d, rescored, gid, params.t3d)
    return _finalize(_average(c2d, c3d, rescored, members, sizes), params.min_score)


def nms(proposals: list[PoseProposal], params: PpiParams = PpiParams()) -> list[Detection]:
    """Baseline: keep only the top-rescored proposal of each overlap group."""
    if not proposals:
        return []
    _, rescored, groups = _rescored_groups(proposals, params)
    detections = []
    for g in groups:
        top = g[np.argmax(rescored[g])]  # first maximum: lower index wins ties
        detections.append(
            Detection(
                pose2d=proposals[top].pose2d,
                pose3d=proposals[top].pose3d,
                score=float(rescored[top]),
                member_count=1,
            )
        )
    return _finalize(detections, params.min_score)
