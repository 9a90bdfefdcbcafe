"""Benchmark-side evaluation: detection matching, MPJPE, PCKh and AP.

Detections are matched to ground truth per image, greedily in descending
score order, at joint-box IoU >= 0.5, where the joint box is the tight box
around all joints (occluded ground-truth joints keep their known
coordinates). MPJPE and PCKh are taken over matched pairs; PCKh counts
the ground-truth joints that are visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scenes import pairwise_iou

MATCH_IOU = 0.5
PCKH_FRACTION = 0.5


def joint_boxes(coords: np.ndarray) -> np.ndarray:
    """(n, 4) tight boxes around all joints of (n, J, 2) poses."""
    return np.concatenate([coords.min(axis=1), coords.max(axis=1)], axis=1)


def match(det2d: np.ndarray, gt2d: np.ndarray) -> np.ndarray:
    """Ground-truth index per detection (-1: unmatched); detections sorted by score."""
    out = np.full(len(det2d), -1)
    if not len(det2d) or not len(gt2d):
        return out
    ious = pairwise_iou(joint_boxes(det2d), joint_boxes(gt2d))
    taken = np.zeros(len(gt2d), dtype=bool)
    for d in range(len(det2d)):
        cand = np.where(taken, -1.0, ious[d])
        g = int(cand.argmax())
        if cand[g] >= MATCH_IOU:
            out[d] = g
            taken[g] = True
    return out


def average_precision(scores: np.ndarray, hits: np.ndarray, n_gt: int) -> float:
    """All-point interpolated AP of detections pooled over images."""
    order = np.argsort(-scores, kind="stable")
    tp = np.cumsum(hits[order])
    fp = np.cumsum(~hits[order])
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # precision envelope: best precision at any recall at least this high
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    steps = np.diff(np.concatenate([[0.0], recall]))
    return float((steps * envelope).sum())


@dataclass
class Accuracy:
    mpjpe_mm: float
    pckh: float
    det_ap: float
    matched: int
    ground_truth: int
    detections: int


def evaluate(results, head_size) -> Accuracy:
    """Score per-image results.

    Args:
        results: per image a tuple (det_scores (n,), det2d (n, J, 2),
            det3d (n, J, 3), gt2d (P, J, 2), gt_vis (P, J), gt3d (P, J, 3),
            gt_poses), detections sorted by descending score; gt_poses are
            the ground-truth Pose2D objects.
        head_size: callable (Pose2D) -> PCKh head size in pixels.
    """
    scores, hits, errors3d, pck_hits, pck_total = [], [], [], 0, 0
    n_gt = 0
    for det_scores, det2d, det3d, gt2d, gt_vis, gt3d, gt_poses in results:
        n_gt += len(gt2d)
        assigned = match(det2d, gt2d)
        scores.append(det_scores)
        hits.append(assigned >= 0)
        for d in np.where(assigned >= 0)[0]:
            g = assigned[d]
            errors3d.append(np.linalg.norm(det3d[d] - gt3d[g], axis=1).mean())
            err2d = np.linalg.norm(det2d[d] - gt2d[g], axis=1)[gt_vis[g]]
            pck_hits += int((err2d <= PCKH_FRACTION * head_size(gt_poses[g])).sum())
            pck_total += len(err2d)
    scores = np.concatenate(scores)
    hits = np.concatenate(hits)
    return Accuracy(
        mpjpe_mm=1000.0 * float(np.mean(errors3d)) if errors3d else float("nan"),
        pckh=pck_hits / pck_total if pck_total else float("nan"),
        det_ap=average_precision(scores, hits, n_gt) if n_gt else float("nan"),
        matched=len(errors3d),
        ground_truth=n_gt,
        detections=len(scores),
    )
