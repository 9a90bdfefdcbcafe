"""Training-side math: class/target assignment (assign_label) and the
head's joint loss with its gradients (head_losses: log loss over the
classes plus smooth-L1 on the labeled class's regression output).

Class labels run 0..n_anchors with 0 = background; label c maps to
anchor id c - 1, anchors.anchors[c - 1]. Regression targets stack the 2D
residual in unit-box coordinates with the 3D residual in meters into a
5*J vector per class, flattened joint-major (x0, y0, x1, y1, ... then
x0, y0, z0, ...).

assign_label is called once per candidate box, and all of an image's
boxes are labeled against the same ground truth. _image_truth builds what
depends on the ground truth alone (its margin boxes, 2D stacks and
nearest anchors), and a functools.lru_cache of one entry keeps it for the
last image. Its key is the ground truth as a tuple of (Pose2D, Pose3D)
tuples and the AnchorSet; the poses and the AnchorSet compare by
identity, and the cache holds them, so a hit is always current.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from poseforge.anchors import AnchorSet
# iou is not called here (assign_label calls its kernel); perfbench/tracing.py
# counts calls through poseforge.labeling.iou.
from poseforge.pose import (  # noqa: F401
    AnchorPose,
    BoundingBox,
    Pose2D,
    Pose3D,
    _all_finite,
    _check_count,
    _check_finite,
    _stack_pairs,
    d3d_matrix,
    iou,
    iou_kernel,
    margin_boxes,
)

BACKGROUND = 0
# A candidate box is a positive (foreground) example when its IoU with a
# ground-truth box reaches this.
DEFAULT_IOU_THRESHOLD = 0.5
LOG_EPS = 1e-12  # clamp for -log u(c) when u(c) underflows to 0


@dataclass(frozen=True, eq=False)
class LabeledBox:
    """A candidate box's ground-truth class and regression target."""

    class_label: int
    # finite (5*J,), a read-only copy; present iff class_label >= 1
    target: np.ndarray | None = None

    def __post_init__(self):
        _check_count("class_label", self.class_label, 0)
        if (self.target is None) != (self.class_label == BACKGROUND):
            raise ValueError("target must be present iff class_label >= 1")
        if self.target is not None:
            t = np.array(self.target, dtype=np.float64)
            if t.ndim != 1 or len(t) % 5 != 0:
                raise ValueError("target must be a flat 5*J vector")
            if not _all_finite(t):
                raise ValueError("target must be finite")
            t.setflags(write=False)
            object.__setattr__(self, "target", t)


def _target(coords2d: np.ndarray, visibility: np.ndarray, hidden: np.ndarray,
            layout: np.ndarray, res3d: np.ndarray, box: BoundingBox) -> np.ndarray:
    """regression_target from one ground truth's (J, 2) coordinates, (J,)
    visibility and non-finite-joint mask, an anchor's (J, 2) layout and
    the flat (3J,) 3D residual to that anchor."""
    scale = np.array([box.width, box.height])
    offset = np.array([box.x_min, box.y_min])
    res2d = (coords2d - offset) / scale
    _check_finite(res2d, visibility)  # as the normalized Pose2D would
    res2d -= layout
    res2d[hidden] = 0.0
    return np.concatenate([res2d.ravel(), res3d])


def regression_target(gt2d: Pose2D, gt3d: Pose3D, anchor: AnchorPose,
                      box: BoundingBox) -> np.ndarray:
    """5*J target: (normalized 2D pose - anchor layout, 3D pose - anchor 3D).

    An invisible joint whose 2D coordinate is not finite (an occlusion
    coded as NaN) gets a zero 2D residual, so the anchor's layout stands
    in for it, as LCR-Net++ hallucinates occluded joints. Pose2D keeps
    visible joints finite.
    """
    return _target(gt2d.coords, gt2d.visibility, ~np.isfinite(gt2d.coords).all(axis=1),
                   anchor.pose2d.coords, (gt3d.coords - anchor.pose3d.coords).ravel(), box)


@functools.lru_cache(maxsize=1)
def _image_truth(gts: tuple, anchors: AnchorSet) -> tuple:
    """One image's ground truth as assign_label reads it, all read-only:
    the (P, 4) margin boxes, (P, J, 2) coordinates, (P, J) visibility,
    (P, J) mask of joints with a non-finite 2D coordinate, the tuple of
    each ground truth's 3D-closest anchor id and the (P, 3J) 3D residual
    to that anchor. gts is a tuple of (Pose2D, Pose3D) tuples."""
    coords2d, visibility, coords3d = _stack_pairs(gts, anchors.spec)
    boxes = margin_boxes(coords2d, visibility)
    nearest = d3d_matrix(coords3d, anchors.coords3d).argmin(axis=1)  # ties to the lowest id
    res3d = (coords3d - anchors.coords3d[nearest]).reshape(len(gts), -1)
    hidden = ~np.isfinite(coords2d).all(axis=2)
    for arr in (boxes, coords2d, visibility, hidden, res3d):
        arr.setflags(write=False)
    return boxes, coords2d, visibility, hidden, tuple(nearest.tolist()), res3d


def assign_label(
    box: BoundingBox,
    gts: list[tuple[Pose2D, Pose3D]],
    anchors: AnchorSet,
) -> LabeledBox:
    """Assign class label and regression target to a candidate box.

    Background (label 0, no target) when the box's IoU with every
    ground-truth box (pose.margin_boxes around the visible joints) falls
    below DEFAULT_IOU_THRESHOLD. Otherwise the ground truth with the
    highest IoU defines the label as 1 + the id of the 3D-closest anchor
    (ties to the lowest id) and the regression target. Raises on an empty
    anchor set and on a ground truth whose joint count is not the
    anchors' spec's.

    Labeling an image's boxes one after another builds its ground-truth
    boxes, 2D stacks and nearest anchors once: they are cached on the
    entries of gts, each as a tuple, and anchors (see the module
    docstring). So an entry may be any (Pose2D, Pose3D) pair, a list
    included; one that is not iterable raises TypeError.
    """
    if len(anchors) == 0:
        raise ValueError("empty anchor set")
    if not gts:
        return LabeledBox(BACKGROUND)

    boxes, coords2d, visibility, hidden, nearest, res3d = _image_truth(
        tuple(map(tuple, gts)), anchors)
    overlaps = iou_kernel(np.array(box.as_tuple()), boxes)
    best = int(np.argmax(overlaps))
    if overlaps[best] < DEFAULT_IOU_THRESHOLD:
        return LabeledBox(BACKGROUND)

    target = _target(coords2d[best], visibility[best], hidden[best],
                     anchors.coords2d[nearest[best]], res3d[best], box)
    return LabeledBox(nearest[best] + 1, target)


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
    # (layout + res2d) * (width, height) + (x_min, y_min), in place: the same bits
    coords2d = anchor.pose2d.coords + residual[:2 * j].reshape(j, 2)
    coords2d *= (box.width, box.height)
    coords2d += (box.x_min, box.y_min)
    return Pose2D(coords2d), Pose3D(anchor.pose3d.coords + residual[2 * j:].reshape(j, 3))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of logits (..., C): class probabilities
    (..., C)."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _smooth_l1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smooth-L1 loss (0.5 x^2 for |x| < 1, |x| - 0.5 otherwise) and its
    gradient (x for |x| < 1, sign(x) otherwise) of a float64 array, in
    five passes.

    grad = clip(x, -1, 1) is where(|x| < 1, x, sign(x)) bit for bit, NaN
    and -0 included. loss = |grad * (x - grad/2)|: for |x| < 1, x - x/2 is
    exact (Sterbenz), so it is (0.5 * x) * x, and otherwise it is |x| - 0.5.
    The abs only turns the -0 that x = -0 gives into 0.5 * x * x's +0.
    """
    grad = np.clip(x, -1.0, 1.0, out=np.empty_like(x))
    loss = np.multiply(grad, 0.5, out=np.empty_like(x))
    np.subtract(x, loss, out=loss)
    loss *= grad
    return np.abs(loss, out=loss), grad


def _class_loss(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean log loss of n boxes and its gradient w.r.t. the logits.

    probs (n, C) are class probabilities; u(c) is clamped at LOG_EPS.
    """
    n = len(labels)
    rows = np.arange(n)
    cls_loss = float(-np.log(np.maximum(probs[rows, labels], LOG_EPS)).mean())
    g_logits = probs.copy()
    g_logits[rows, labels] -= 1.0
    g_logits /= n
    return cls_loss, g_logits


def _regression_loss(err: np.ndarray, n: int) -> tuple[float, np.ndarray]:
    """Mean smooth-L1 loss of n boxes and its gradient w.r.t. their pred.

    err (m, 5*J) holds target - pred of m <= n rows; a box left out adds
    an exact 0 to the sum, as a background box does. The row sums add
    left to right.
    """
    loss, grad = _smooth_l1(err)
    # cumsum adds left to right; loss >= +0, so starting from the first
    # row instead of 0.0 changes nothing
    reg_loss = float(np.cumsum(loss.sum(axis=1))[-1]) if len(err) else 0.0
    grad /= -n  # the same as -grad / n, bit for bit
    return reg_loss / n, grad


def head_losses(probs: np.ndarray, labels: np.ndarray, pred: np.ndarray,
                targets: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Mean log loss and smooth-L1 loss of n boxes, and their gradients.

    probs (n, C) are class probabilities, pred (n, 5*J) each box's
    regression output for its own label and targets (n, 5*J) the
    targets. Returns (cls_loss, reg_loss, g_logits, g_pred), the
    gradients being those of the means w.r.t. the logits and pred. u(c)
    is clamped at LOG_EPS; the smooth-L1 row sums add in row order. A
    background row has zero regression loss and a zero g_pred row.

    The trainer calls the same two helpers, _class_loss and
    _regression_loss.
    """
    cls_loss, g_logits = _class_loss(probs, labels)
    err = targets - pred
    err[labels == BACKGROUND] = 0.0
    reg_loss, g_pred = _regression_loss(err, len(labels))
    return cls_loss, reg_loss, g_logits, g_pred
