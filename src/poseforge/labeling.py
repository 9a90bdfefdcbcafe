"""Training-side math: class/target assignment (assign_label) and the
head's joint loss with its gradients (head_losses: log loss over the
classes plus smooth-L1 on the labeled class's regression output).

Class labels run 0..n_anchors with 0 = background; label c maps to
anchor id c - 1. Regression targets stack the 2D residual in unit-box
coordinates with the 3D residual in meters into a 5*J vector per class,
flattened joint-major (x0, y0, x1, y1, ... then x0, y0, z0, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from poseforge.anchors import AnchorSet
# iou is no longer called here: assign_label repeats its arithmetic, in
# the same operation order, on a stack of ground-truth boxes. The name
# stays in this module because perfbench/tracing.py counts the calls made
# through poseforge.labeling.iou and patches that attribute.
from poseforge.pose import (  # noqa: F401
    DEFAULT_BOX_MARGIN,
    AnchorPose,
    BoundingBox,
    Pose2D,
    Pose3D,
    check_iou_threshold,
    d3d_kernel,
    iou,
    margin_boxes,
    normalize_to_box,
)

BACKGROUND = 0
DEFAULT_IOU_THRESHOLD = 0.5
LOG_EPS = 1e-12  # clamp for -log u(c) when u(c) underflows to 0


@dataclass(frozen=True, eq=False)
class LabeledBox:
    """A candidate box with its ground-truth class and regression target."""

    box: BoundingBox
    class_label: int
    target: np.ndarray | None = None  # finite (5*J,), present iff class_label >= 1

    def __post_init__(self):
        if self.class_label < 0:
            raise ValueError("class_label must be >= 0")
        if (self.target is None) != (self.class_label == BACKGROUND):
            raise ValueError("target must be present iff class_label >= 1")
        if self.target is not None:
            t = np.asarray(self.target, dtype=np.float64)
            if t.ndim != 1 or len(t) % 5 != 0:
                raise ValueError("target must be a flat 5*J vector")
            if not np.isfinite(t).all():
                raise ValueError("target must be finite")
            object.__setattr__(self, "target", t)


def regression_target(gt2d: Pose2D, gt3d: Pose3D, anchor: AnchorPose,
                      box: BoundingBox) -> np.ndarray:
    """5*J target: (normalized 2D pose - anchor layout, 3D pose - anchor 3D).

    An invisible joint whose 2D coordinate is not finite (an occlusion
    coded as NaN) gets a zero 2D residual, so the anchor's layout stands
    in for it, as LCR-Net++ hallucinates occluded joints. Pose2D keeps
    visible joints finite.
    """
    norm2d = normalize_to_box(gt2d, box)
    res2d = norm2d.coords - anchor.pose2d.coords
    res2d[~np.isfinite(gt2d.coords).all(axis=1)] = 0.0
    res3d = gt3d.coords - anchor.pose3d.coords
    return np.concatenate([res2d.ravel(), res3d.ravel()])


def assign_label(
    box: BoundingBox,
    gts: list[tuple[Pose2D, Pose3D]],
    anchors: AnchorSet,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    margin_fraction: float = DEFAULT_BOX_MARGIN,
) -> LabeledBox:
    """Assign class label and regression target to a candidate box.

    Background (label 0, no target) when the box's IoU with every
    ground-truth box (built around the visible joints with the standard
    margin) falls below iou_threshold. Otherwise the ground truth with
    the highest IoU defines the label as 1 + the id of the 3D-closest
    anchor (ties to the lowest id) and the regression target. Raises on
    an iou_threshold outside [0, 1], NaN included.
    """
    check_iou_threshold(iou_threshold)
    if len(anchors) == 0:
        raise ValueError("empty anchor set")
    if not gts:
        return LabeledBox(box, BACKGROUND)

    gt_boxes = margin_boxes(np.array([p2.coords for p2, _ in gts]),
                            np.array([p2.visibility for p2, _ in gts]), margin_fraction)
    # one IoU row in pose.iou's operation order, box first
    iw = np.minimum(box.x_max, gt_boxes[:, 2]) - np.maximum(box.x_min, gt_boxes[:, 0])
    ih = np.minimum(box.y_max, gt_boxes[:, 3]) - np.maximum(box.y_min, gt_boxes[:, 1])
    hit = (iw > 0.0) & (ih > 0.0)
    inter = iw[hit] * ih[hit]
    gt_area = (gt_boxes[hit, 2] - gt_boxes[hit, 0]) * (gt_boxes[hit, 3] - gt_boxes[hit, 1])
    overlaps = np.zeros(len(gts))
    overlaps[hit] = inter / (box.area + gt_area - inter)
    best = int(np.argmax(overlaps))
    if overlaps[best] < iou_threshold:
        return LabeledBox(box, BACKGROUND)

    gt2d, gt3d = gts[best]
    dists = d3d_kernel(anchors.coords3d.transpose(2, 0, 1), gt3d.coords.T[:, None])
    anchor = anchors.anchors[int(np.argmin(dists))]
    target = regression_target(gt2d, gt3d, anchor, box)
    return LabeledBox(box, anchor.id + 1, target)


def regress_anchors(layouts: np.ndarray, anchors3d: np.ndarray, box: BoundingBox,
                    residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Poses of K anchors refined by their 5*J residuals and placed in box.

    Stacked form of apply_regression: layouts (K, J, 2) in unit-box
    coordinates, anchors3d (K, J, 3) and residuals (K, 5*J) give the 2D
    pixel coordinates (K, J, 2) and the 3D coordinates (K, J, 3).
    """
    k, j = layouts.shape[:2]
    res2d = residuals[:, :2 * j].reshape(k, j, 2)
    res3d = residuals[:, 2 * j:].reshape(k, j, 3)
    scale = np.array([box.width, box.height])
    offset = np.array([box.x_min, box.y_min])
    return (layouts + res2d) * scale + offset, anchors3d + res3d


def apply_regression(anchor: AnchorPose, box: BoundingBox,
                     residual: np.ndarray) -> tuple[Pose2D, Pose3D]:
    """Reconstruct a 2D-3D pose from an anchor, a box, and a 5*J residual.

    Exact inverse of regression_target: with residual equal to the
    target of a ground truth, the ground-truth pose is reproduced.
    """
    residual = np.asarray(residual, dtype=np.float64)
    j = anchor.pose2d.joint_count
    if residual.shape != (5 * j,):
        raise ValueError(f"residual must have length {5 * j}, got {residual.shape}")
    coords2d, coords3d = regress_anchors(anchor.pose2d.coords[None], anchor.pose3d.coords[None],
                                         box, residual[None])
    return Pose2D(coords2d[0]), Pose3D(coords3d[0])


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of logits (n, C): class probabilities (n, C)."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _smooth_l1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """smooth_l1 and smooth_l1_grad of a float64 array, from one |x| and
    one branch mask |x| < 1."""
    a = np.abs(x)
    small = a < 1.0
    a -= 0.5
    loss = np.where(small, 0.5 * x * x, a)
    del a  # freed before the gradient is built, so the peak stays that of one pass
    return loss, np.where(small, x, np.sign(x))


def smooth_l1(x):
    """Piecewise loss: 0.5 x^2 for |x| < 1, |x| - 0.5 otherwise (elementwise)."""
    out = _smooth_l1(np.asarray(x, dtype=np.float64))[0]
    return float(out) if out.ndim == 0 else out


def smooth_l1_grad(x):
    """Derivative of smooth_l1: x for |x| < 1, sign(x) otherwise."""
    out = _smooth_l1(np.asarray(x, dtype=np.float64))[1]
    return float(out) if out.ndim == 0 else out


def head_losses(probs: np.ndarray, labels: np.ndarray, pred: np.ndarray,
                targets: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Mean log loss and smooth-L1 loss of n boxes, and their gradients.

    probs (n, C) are class probabilities, pred (n, 5*J) each box's
    regression output for its own label and targets (n, 5*J) the
    targets. Returns (cls_loss, reg_loss, g_logits, g_pred), the
    gradients being those of the means w.r.t. the logits and pred. u(c)
    is clamped at LOG_EPS; the smooth-L1 row sums add in row order. A
    background row has zero regression loss and a zero g_pred row.
    """
    n = len(labels)
    rows = np.arange(n)
    cls_loss = float(-np.log(np.maximum(probs[rows, labels], LOG_EPS)).mean())
    g_logits = probs.copy()
    g_logits[rows, labels] -= 1.0
    g_logits /= n

    err = targets - pred
    err[labels == BACKGROUND] = 0.0
    loss, grad = _smooth_l1(err)
    reg_loss = 0.0
    for row_loss in loss.sum(axis=1).tolist():
        reg_loss += row_loss
    grad /= -n  # the same as -grad / n, bit for bit
    return cls_loss, reg_loss / n, g_logits, grad
