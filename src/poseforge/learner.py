"""Desk-scale stand-in for the CNN head: linear softmax classifier plus
per-anchor linear regressors over externally supplied feature vectors,
trained by plain gradient descent on the labeling losses.

An optional two-pass mode feeds the first pass's outputs back in,
concatenated with the features, to a second linear head that produces
the final estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from poseforge.anchors import AnchorSet
from poseforge.labeling import (
    BACKGROUND,
    LabeledBox,
    regress_anchors,
    smooth_l1,
    smooth_l1_grad,
)
from poseforge.pose import BoundingBox, poses2d, poses3d
from poseforge.ppi import PoseProposal


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 300
    learning_rate: float = 0.5
    decay_factor: float = 0.1      # applied once, partway through
    decay_fraction: float = 0.6    # fraction of iterations at the base rate
    seed: int = 0
    init_scale: float = 0.01
    two_pass: bool = False


@dataclass(eq=False)
class _Head:
    """One linear classification + regression head."""

    w_cls: np.ndarray  # (D, C)
    b_cls: np.ndarray  # (C,)
    w_reg: np.ndarray  # (D, 5*J*C)
    b_reg: np.ndarray  # (5*J*C,)

    @classmethod
    def init(cls, rng, dim, n_classes, slot_width, scale):
        return cls(
            w_cls=rng.normal(0.0, scale, size=(dim, n_classes)),
            b_cls=np.zeros(n_classes),
            w_reg=rng.normal(0.0, scale, size=(dim, slot_width * n_classes)),
            b_reg=np.zeros(slot_width * n_classes),
        )

    def class_probs(self, x: np.ndarray) -> np.ndarray:
        logits = x @ self.w_cls + self.b_cls
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.class_probs(x), x @ self.w_reg + self.b_reg


@dataclass(eq=False)
class ToyModel:
    """Trained weights plus everything needed to reproduce the run."""

    head: _Head
    feature_dim: int
    n_classes: int
    joint_count: int
    config: TrainConfig
    loss_history: list[tuple[int, float, float, float]] = field(default_factory=list)
    refine_head: _Head | None = None

    @property
    def slot_width(self) -> int:
        return 5 * self.joint_count


def _check_features(x: np.ndarray) -> None:
    """Reject feature rows holding a NaN or an infinity, naming the first."""
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"feature row {int(np.argmin(finite))} is not finite")


def _train_head(head, x, labels, targets, config, loss_history, it_offset):
    """Gradient descent on mean (classification + regression) loss.

    The (n, 5*J*C) regression output v and its gradient g_v are allocated
    once and refilled in place every iteration; only the positives' class
    slots of g_v are ever non-zero. Both are read and written through
    (n, C, 5*J) views, gathering each positive's slot by its label.
    """
    n, _ = x.shape
    c = head.b_cls.shape[0]
    w = head.b_reg.shape[0] // c
    pos = np.flatnonzero(labels != BACKGROUND)
    slots = labels[pos]
    rows = np.arange(n)
    switch = int(config.decay_fraction * config.iterations)
    v = np.empty((n, head.b_reg.shape[0]))
    g_v = np.zeros_like(v)
    v_slots, g_slots = v.reshape(n, c, w), g_v.reshape(n, c, w)
    for it in range(config.iterations):
        lr = config.learning_rate * (1.0 if it < switch else config.decay_factor)
        probs = head.class_probs(x)
        np.matmul(x, head.w_reg, out=v)
        v += head.b_reg

        cls_loss = float(
            -np.log(np.maximum(probs[rows, labels], 1e-12)).mean()
        )
        g_logits = probs.copy()
        g_logits[rows, labels] -= 1.0
        g_logits /= n

        err = targets[pos] - v_slots[pos, slots]
        g_slots[pos, slots] = -smooth_l1_grad(err) / n
        reg_loss = 0.0
        for row_loss in smooth_l1(err).sum(axis=1).tolist():  # in row order
            reg_loss += row_loss
        reg_loss /= n

        loss_history.append((it_offset + it, cls_loss, reg_loss, cls_loss + reg_loss))

        head.w_cls -= lr * (x.T @ g_logits)
        head.b_cls -= lr * g_logits.sum(axis=0)
        head.w_reg -= lr * (x.T @ g_v)
        head.b_reg -= lr * g_v.sum(axis=0)
    return loss_history


def train(
    examples: list[tuple[np.ndarray, LabeledBox]],
    anchors: AnchorSet,
    config: TrainConfig = TrainConfig(),
) -> ToyModel:
    """Fit the toy model on (feature, labeled box) pairs.

    Deterministic given config.seed. Raises on inconsistent feature or
    target dimensions and on a feature row that is not finite.
    """
    if not examples:
        raise ValueError("no training examples")
    x = np.stack([np.asarray(f, dtype=np.float64) for f, _ in examples])
    if x.ndim != 2:
        raise ValueError("features must be fixed-dimension vectors")
    _check_features(x)
    j = anchors.spec.joint_count
    n_classes = len(anchors) + 1
    slot = 5 * j
    labels = np.array([lab.class_label for _, lab in examples], dtype=int)
    if labels.max() >= n_classes:
        raise ValueError("class label exceeds anchor count")
    targets = np.zeros((len(examples), slot))
    for i, (_, lab) in enumerate(examples):
        if lab.class_label != BACKGROUND:
            if len(lab.target) != slot:
                raise ValueError(f"target length {len(lab.target)} != {slot}")
            targets[i] = lab.target

    rng = np.random.default_rng(config.seed)
    head = _Head.init(rng, x.shape[1], n_classes, slot, config.init_scale)
    model = ToyModel(
        head=head,
        feature_dim=x.shape[1],
        n_classes=n_classes,
        joint_count=j,
        config=config,
    )
    _train_head(head, x, labels, targets, config, model.loss_history, 0)

    if config.two_pass:
        probs, v = head.forward(x)
        x2 = np.concatenate([x, probs, v], axis=1)
        refine = _Head.init(rng, x2.shape[1], n_classes, slot, config.init_scale)
        _train_head(refine, x2, labels, targets, config,
                    model.loss_history, config.iterations)
        model.refine_head = refine
    return model


def model_outputs(model: ToyModel, feature: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities and regression vector for one finite feature vector."""
    x = np.asarray(feature, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != model.feature_dim:
        raise ValueError(f"feature dim {x.shape[1]} != {model.feature_dim}")
    _check_features(x)
    probs, v = model.head.forward(x)
    if model.refine_head is not None:
        x2 = np.concatenate([x, probs, v], axis=1)
        probs, v = model.refine_head.forward(x2)
    return probs[0], v[0]


def predict(model: ToyModel, feature: np.ndarray, box: BoundingBox,
            anchors: AnchorSet) -> list[PoseProposal]:
    """One scored PoseProposal per non-background class.

    Proposal k carries score u(k+1) and the pose reconstructed from
    anchor k's slice of the regression output; scores plus the
    background probability sum to 1. All anchors' poses are built in
    one regress_anchors call and validated as one stack.
    """
    k, j = len(anchors), model.joint_count
    if k + 1 > model.n_classes or anchors.spec.joint_count != j:
        raise ValueError(
            f"{k} anchors of {anchors.spec.joint_count} joints do not fit a model "
            f"with {model.n_classes - 1} anchor classes of {j} joints"
        )
    probs, v = model_outputs(model, feature)
    w = model.slot_width
    coords2d, coords3d = regress_anchors(anchors.coords2d, anchors.coords3d, box,
                                         v[w:(k + 1) * w].reshape(k, w))
    return [
        PoseProposal(anchor_id=a.id, box=box, pose2d=p2, pose3d=p3, score=s)
        for a, p2, p3, s in zip(anchors.anchors, poses2d(coords2d), poses3d(coords3d),
                                probs[1:k + 1].tolist())
    ]
