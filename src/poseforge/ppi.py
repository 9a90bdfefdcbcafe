"""Pose proposal integration: rescoring, overlap grouping, 3D mode
extraction, score-weighted averaging into detections, and the NMS
baseline that keeps only the top proposal per overlap group.

All functions are pure; per-image calls are independent. Ties on equal
rescored score are broken by lower proposal position for determinism.

Every step runs on stacked arrays: boxes (N, 4), 2D poses (N, J, 2), 3D
poses (N, J, 3) and scores (N,). ppi() and nms() stack an image's
proposals once. The public per-list functions stack their input and call
the same private helpers, so each piece of math has one implementation.

Grouping and mode extraction apply one greedy rule, _seed_rounds: the
best free proposal seeds a cluster and takes every free proposal close
to it, by joint-box IoU >= iou_threshold for groups and d3d < t3d for
modes. It runs in lock-step rounds over parts that cannot share a
cluster: the groups for modes, and for grouping blocks along x, then y.
Sorted by x_min, a box opens a new x-block where its x_min reaches the
largest x_max before it; each x-block is then split along y by the same
rule on y_min and y_max. Boxes of different blocks share no area, so
their IoU is 0; at iou_threshold 0 the input is one block. ppi() checks
its detections once per stack and builds them without a per-object copy
or check.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

# d3d and iou are not called here (_modes and _group call their kernels);
# perfbench/tracing.py counts calls through poseforge.ppi.d3d and .iou.
from poseforge.pose import BoundingBox, Pose2D, Pose3D, d3d, d3d_kernel, iou  # noqa: F401
from poseforge.pose import _all_finite, _all_visible, _check_finite, _frozen, iou_kernel

DEFAULT_T3D = 0.125      # meters (125 mm)
DEFAULT_IOU = 0.12
DEFAULT_SIGMA_B = 25.0   # pixels


@dataclass(frozen=True, eq=False, slots=True)
class PoseProposal:
    """A refined 2D-3D pose hypothesized in a candidate box.

    score is the classification probability; rescored is filled by
    rescore() and lies in [0, score], NaN excluded. learner.predict
    checks a whole stack of proposals at once and builds them with
    pose._frozen, which skips this class's own check.
    """

    anchor_id: int
    box: BoundingBox
    pose2d: Pose2D
    pose3d: Pose3D
    score: float
    rescored: float | None = None

    def __post_init__(self):
        if len(self.pose2d.coords) != len(self.pose3d.coords):
            raise ValueError(f"pose2d has {len(self.pose2d.coords)} joints and pose3d "
                             f"{len(self.pose3d.coords)}; they must be equal")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.rescored is not None:
            if self.rescored > self.score + 1e-12:
                raise ValueError("rescored score cannot exceed the raw score")
            if not self.rescored >= 0.0:  # NaN included
                raise ValueError(f"rescored score must be >= 0, got {self.rescored}")


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
        _check_iou_threshold(self.iou_threshold)
        _check_positive("t3d", self.t3d)
        _check_sigma_b(self.sigma_b)
        if self.min_score is not None and not self.min_score >= 0.0:
            raise ValueError(f"min_score must be None or >= 0, got {self.min_score}")
        if self.overlap_joints is not None:
            _check_overlap_joints(self.overlap_joints)


def _check_iou_threshold(iou_threshold: float) -> None:
    """Reject an IoU threshold outside [0, 1], NaN included."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")


def _check_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")


def _check_sigma_b(sigma_b: float) -> None:
    """Reject a sigma_b whose square is not a positive finite float: a
    square that underflows to 0 gives 0 / 0 for a joint inside its box,
    and one that overflows gives inf / inf for an infinite gap."""
    if not (sigma_b > 0.0 and 0.0 < float(sigma_b) * float(sigma_b) < np.inf):
        raise ValueError(f"sigma_b must be positive, with a positive finite square, got {sigma_b}")


def _check_overlap_joints(joints: tuple[int, ...], joint_count: float = np.inf) -> None:
    if not isinstance(joints, Sequence):
        raise ValueError(f"overlap_joints {joints!r} must be a sequence of joint indices")
    if not all(isinstance(j, (int, np.integer)) and not isinstance(j, bool) for j in joints):
        raise ValueError(f"overlap_joints {joints} must hold int joint indices")
    if not joints or not 0 <= min(joints) <= max(joints) < joint_count:
        raise ValueError(f"overlap_joints {joints} must be non-empty joint indices "
                         f"in [0, {joint_count})")


@dataclass(frozen=True, eq=False, slots=True)
class Detection:
    """Aggregated 2D-3D pose with the accumulated score of its mode.

    ppi() builds detections with pose._frozen from poses it has already
    checked.
    """

    pose2d: Pose2D
    pose3d: Pose3D
    score: float          # sum of member rescored scores, each >= 0
    member_count: int

    @property
    def unweighted(self) -> bool:
        """True when all member scores were zero, so the pose is their
        unweighted mean: not score > 0, as no member score is negative."""
        return not self.score > 0.0


def _stack(coords: list[np.ndarray]) -> np.ndarray:
    """(N, J, d) stack of N (J, d) pose arrays, which must share J."""
    try:
        return np.array(coords)
    except ValueError:  # numpy's "inhomogeneous shape"
        counts = list(dict.fromkeys(len(c) for c in coords))
        raise ValueError(f"proposals must share one joint count, "
                         f"got {counts[0]} and {counts[1]}") from None


def _stack2d(proposals) -> np.ndarray:
    """(N, J, 2) stack of the proposals' 2D poses, required finite."""
    c2d = _stack([p.pose2d.coords for p in proposals])
    if not _all_finite(c2d):
        raise ValueError(
            "proposal 2D poses must be finite at every joint, occluded ones included"
        )
    return c2d


def _stack3d(proposals) -> np.ndarray:
    """(N, J, 3) stack of the proposals' 3D poses."""
    return _stack([p.pose3d.coords for p in proposals])


def _planes(c2d: np.ndarray) -> np.ndarray:
    """Contiguous (2, J, N) x and y planes of 2D poses (N, J, 2), one row
    per joint, so that reductions over the joints add whole rows."""
    return np.ascontiguousarray(c2d.transpose(2, 1, 0))


def _rescore(boxes: np.ndarray, planes: np.ndarray, scores: np.ndarray,
             sigma_b: float) -> np.ndarray:
    """Rescored scores from boxes (N, 4), 2D pose planes (2, J, N) and
    scores (N,).

    A joint's squared distance to its box is D^2 = gx * gx + gy * gy, from
    its gaps gx, gy >= 0 past the box along x and y, 0 inside or on it,
    where exp(-D^2 / sigma_b^2) is exactly 1. Scaling s by the mean of
    these factors, which is at most 1, gives s' <= s, and s' = s exactly
    when every joint is inside. Each pose's mean adds its J factors along
    one contiguous row, as numpy adds an (N, J) array's rows.
    """
    b = boxes.T[:, None]
    # a gap or a D^2 of inf gives the factor exp(-inf) = 0
    with np.errstate(over="ignore"):
        gap = np.maximum(np.maximum(b[:2] - planes, 0.0), planes - b[2:])
        d2 = gap[0] * gap[0] + gap[1] * gap[1]
        factors = np.exp(-d2 / (sigma_b * sigma_b))
    return scores * np.ascontiguousarray(factors.T).mean(axis=1)


def _overlap_boxes(planes: np.ndarray, joints: tuple[int, ...] | None) -> np.ndarray:
    """(N, 4) tight joint boxes (x_min, y_min, x_max, y_max) of 2D pose
    planes (2, J, N), around the joints listed (all by default).

    Every joint counts, visible or not: proposals carry fully regressed
    poses. A zero extent is padded by 1e-6 px on both sides, so the box
    stays valid and its proposal simply groups alone.
    """
    if joints is not None:
        _check_overlap_joints(joints, planes.shape[1])
    pts = planes if joints is None else planes[:, list(joints)]
    lo, hi = pts.min(axis=1).T, pts.max(axis=1).T
    flat = hi <= lo
    return np.concatenate([np.where(flat, lo - 1e-6, lo), np.where(flat, hi + 1e-6, hi)], axis=1)


def _seed_rounds(part: np.ndarray, rescored: np.ndarray, close) -> np.ndarray:
    """Each item's seed (N,) by the greedy rule, run in every part (N,).

    Each round, every part with free items seeds a cluster with the first
    by descending rescored score, then lower index, which takes itself
    and the free items of its part that close(seed, free) marks. seed and
    free are equal-length index arrays, or seed is one index once a
    single part is left.
    """
    n = len(part)
    order = np.lexsort((np.arange(n), -rescored, part))  # free items, by part, then rank
    seed_of = np.empty(n, dtype=np.intp)
    while len(order):
        if part[order[0]] == part[order[-1]]:
            seed = order[0]
        else:  # p is sorted, so each part's seed is at the first position of its number
            p = part[order]
            seed = order[np.searchsorted(p, p)]
        taken = close(seed, order) | (seed == order)
        seed_of[order[taken]] = seed if np.ndim(seed) == 0 else seed[taken]
        order = order[~taken]
    return seed_of


def _numbered(seed_of: np.ndarray, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each item's cluster number (N,) and the seeds (C,) in cluster order:
    by keys (N,), the last one first as in np.lexsort, then by index."""
    seeds = np.flatnonzero(seed_of == np.arange(len(seed_of)))
    seeds = seeds[np.lexsort((seeds,) + tuple(key[seeds] for key in keys))]
    number = np.empty(len(seed_of), dtype=np.intp)
    number[seeds] = np.arange(len(seeds))
    return number[seed_of], seeds


def _group(boxes: np.ndarray, rescored: np.ndarray,
           iou_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy overlap groups of boxes (N, 4) from _overlap_boxes: each
    box's group number (N,) and each group's seed (G,), in seed order.
    The parts of _seed_rounds are blocks along x, each split into blocks
    along y (see the module docstring), and close is pose.iou_kernel >=
    iou_threshold.

    Each split sorts the boxes by block, then by their low edge, and a box
    opens a new block where its low edge reaches the largest high edge
    before it in its block. That running max is taken over integer keys,
    block * N + the rank of the high edge, so that it never reads across
    blocks and no float is computed."""
    n = len(rescored)
    block = np.zeros(n, dtype=np.intp)
    if iou_threshold > 0.0:
        for lo, hi in ((0, 2), (1, 3)):  # x, then y
            order = np.lexsort((boxes[:, lo], block))
            by_high = np.argsort(boxes[:, hi])
            rank = np.empty(n, dtype=np.intp)
            rank[by_high] = np.arange(n)
            b = block[order]
            reach = boxes[by_high, hi][np.maximum.accumulate(b * n + rank[order])[:-1] % n]
            block[order] = np.cumsum(np.concatenate(
                ([False], (b[1:] != b[:-1]) | (boxes[order[1:], lo] >= reach))))
    seed_of = _seed_rounds(
        block, rescored, lambda seed, free: iou_kernel(boxes[seed], boxes[free]) >= iou_threshold)
    return _numbered(seed_of, -rescored)


# a d3d that overflows is inf, rightly not below t3d, so the warning says nothing
@np.errstate(over="ignore")
def _modes(c3d: np.ndarray, rescored: np.ndarray, gid: np.ndarray,
           t3d: float) -> tuple[np.ndarray, np.ndarray]:
    """3D modes of the overlap groups gid (N,) of poses (N, J, 3), the
    parts of _seed_rounds, with close = pose.d3d_kernel < t3d.

    Returns the member indices, mode by mode in (group, round) order,
    each seed first and then the rest in input order, and each mode's
    size. A group's later seeds rank below its earlier ones, so its
    modes sorted by seed rank are in round order.
    """
    # contiguous joint rows, so the kernel's joint mean adds as pose.d3d's does
    planes = np.ascontiguousarray(c3d.transpose(2, 0, 1))
    seed_of = _seed_rounds(gid, rescored, lambda seed, free: d3d_kernel(
        np.take(planes, seed, axis=1), np.take(planes, free, axis=1)) < t3d)
    mode, _ = _numbered(seed_of, -rescored, gid)
    members = np.argsort(2 * mode + (seed_of != np.arange(len(gid))), kind="stable")
    return members, np.bincount(mode)


# a mean that overflows is rejected below, so numpy's warning would only
# repeat the ValueError
@np.errstate(over="ignore", invalid="ignore")
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
    _check_finite(mean2d)
    _check_finite(mean3d)
    mean2d.setflags(write=False)
    mean3d.setflags(write=False)
    vis = _all_visible(mean2d.shape[1])
    detection, pose2d, pose3d = _frozen(Detection), _frozen(Pose2D), _frozen(Pose3D)
    return [detection(pose2d(p2, vis), pose3d(p3), s, m)
            for p2, p3, s, m in zip(mean2d, mean3d, totals.tolist(), sizes.tolist())]


def _require_rescored(proposals) -> np.ndarray:
    if any(p.rescored is None for p in proposals):
        raise ValueError("proposals must be rescored first")
    return np.array([p.rescored for p in proposals], dtype=np.float64)


def rescore(proposal: PoseProposal, sigma_b: float = DEFAULT_SIGMA_B) -> PoseProposal:
    """Penalize joints outside the proposal's box.

    s' = s * mean_j f(p_j, B) with f = 1 inside the box and
    exp(-D^2 / sigma_b^2) outside, D being the distance of the joint to
    the box boundary. D^2 is taken as gx * gx + gy * gy from the joint's
    gaps past the box along x and y. All J regressed joints participate,
    visible or not, and must be finite; if every joint lies inside or on
    the box, s' = s exactly.
    """
    _check_sigma_b(sigma_b)
    (s_prime,) = _rescore(np.array([proposal.box.as_tuple()]), _planes(_stack2d([proposal])),
                          np.array([proposal.score]), sigma_b)
    return replace(proposal, rescored=float(s_prime))


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
    _check_iou_threshold(iou_threshold)
    rescored = _require_rescored(proposals)
    if not proposals:
        return []
    gid, _ = _group(_overlap_boxes(_planes(_stack2d(proposals)), overlap_joints), rescored,
                    iou_threshold)
    ordered = [proposals[i] for i in np.argsort(gid, kind="stable").tolist()]
    ends = np.cumsum(np.bincount(gid)).tolist()
    return [ordered[start:end] for start, end in zip([0] + ends[:-1], ends)]


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
    _check_positive("t3d", t3d)
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
    """Detections of score >= min_score, by descending score, then position."""
    if min_score is not None:
        detections = [d for d in detections if d.score >= min_score]
    scores = np.array([d.score for d in detections], dtype=np.float64)
    return [detections[i] for i in np.lexsort((np.arange(len(scores)), -scores)).tolist()]


def _rescored_groups(proposals: list[PoseProposal], params: PpiParams):
    """Stack one image's proposals, rescore them and group them by overlap.

    Returns the 2D stack, the rescored scores, each proposal's group
    number and each group's seed (see _group).
    """
    c2d = _stack2d(proposals)
    planes = _planes(c2d)
    scores = np.array([p.score for p in proposals], dtype=np.float64)
    boxes = np.array([p.box.as_tuple() for p in proposals], dtype=np.float64)
    rescored = _rescore(boxes, planes, scores, params.sigma_b)
    if (rescored > scores + 1e-12).any():
        raise ValueError("rescored score cannot exceed the raw score")
    gid, seeds = _group(_overlap_boxes(planes, params.overlap_joints), rescored,
                        params.iou_threshold)
    return c2d, rescored, gid, seeds


def ppi(proposals: list[PoseProposal], params: PpiParams = PpiParams()) -> list[Detection]:
    """Full integration: rescore, group, extract modes, average, filter.

    Returns detections sorted by descending score; every input proposal
    contributes to exactly one mode. The proposals are stacked once.
    """
    if not proposals:
        return []
    c2d, rescored, gid, _ = _rescored_groups(proposals, params)
    c3d = _stack3d(proposals)
    members, sizes = _modes(c3d, rescored, gid, params.t3d)
    return _finalize(_average(c2d, c3d, rescored, members, sizes), params.min_score)


def nms(proposals: list[PoseProposal], params: PpiParams = PpiParams()) -> list[Detection]:
    """Baseline: keep only the top-rescored proposal of each overlap group.

    That is the group's seed: the seed rule picks it before every other
    member, by descending rescored score, then lower position.
    """
    if not proposals:
        return []
    _, rescored, _, seeds = _rescored_groups(proposals, params)
    return _finalize([Detection(proposals[i].pose2d, proposals[i].pose3d, s, 1)
                      for i, s in zip(seeds.tolist(), rescored[seeds].tolist())],
                     params.min_score)
