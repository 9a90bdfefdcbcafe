"""Desk-scale stand-in for the CNN head: linear softmax classifier plus
per-anchor linear regressors over externally supplied feature vectors,
trained by plain gradient descent on labeling.head_losses.

A box's regression loss reaches only its own class's regressor, so
training computes and updates each class's (D, 5*J) slot of w_reg on that
class's boxes alone; inference computes every slot for every box.

An optional two-pass mode feeds the first pass's outputs back in,
concatenated with the features, to a second linear head that produces
the final estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from poseforge.anchors import AnchorSet
from poseforge.labeling import BACKGROUND, LabeledBox, head_losses, regress_anchors, softmax
from poseforge.pose import BoundingBox, Pose2D, Pose3D, _all_visible, _check_finite, _frozen
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

    def __post_init__(self):
        if not isinstance(self.iterations, (int, np.integer)) or isinstance(self.iterations, bool):
            raise ValueError(f"iterations must be an integer, got {self.iterations!r}")
        if not self.iterations >= 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        for name in ("learning_rate", "decay_factor"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be finite and above 0, got {value}")
        if not 0.0 <= self.decay_fraction <= 1.0:
            raise ValueError(f"decay_fraction must be in [0, 1], got {self.decay_fraction}")
        if not 0.0 <= self.init_scale < np.inf:
            raise ValueError(f"init_scale must be finite and >= 0, got {self.init_scale}")


@dataclass(eq=False)
class _Head:
    """One linear classification + regression head."""

    w_cls: np.ndarray  # (D, C)
    b_cls: np.ndarray  # (C,)
    w_reg: np.ndarray  # (D, 5*J*C): class c's slot is columns c*5*J to (c+1)*5*J
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
        return softmax(x @ self.w_cls + self.b_cls)

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
    if not np.isfinite(x).all():
        row = int(np.argmin(np.isfinite(x).all(axis=1)))
        raise ValueError(f"feature row {row} is not finite")


def _train_head(head, x, labels, targets, config, loss_history, it_offset):
    """Gradient descent on the mean head_losses, one regression slot at a time.

    A box's regression loss reaches only the (D, 5*J) slot of w_reg that
    belongs to its own label. So each non-background class that has rows
    is predicted and updated on those rows alone, through (D, C, 5*J) and
    (C, 5*J) views of w_reg and b_reg: over all classes a product costs
    n*D*5*J, not the n*D*5*J*C of the full x @ w_reg, and no (n, 5*J*C)
    buffer is made. The slot of class 0, and of a class with no rows,
    keeps its initial value. pred keeps input row order, with zero
    background rows, so head_losses sees all n rows.
    """
    n, d = x.shape
    c = head.b_cls.shape[0]
    w = head.b_reg.shape[0] // c
    switch = int(config.decay_fraction * config.iterations)
    # views, as _Head.init makes both arrays contiguous
    w_slots, b_slots = head.w_reg.reshape(d, c, w), head.b_reg.reshape(c, w)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(c + 1))
    slots = [(k, rows, x[rows]) for k, rows in enumerate(np.split(order, bounds[1:-1]))
             if k != BACKGROUND and len(rows)]
    pred = np.zeros((n, w))
    for it in range(config.iterations):
        lr = config.learning_rate * (1.0 if it < switch else config.decay_factor)
        probs = head.class_probs(x)
        for k, rows, x_k in slots:
            pred[rows] = x_k @ w_slots[:, k] + b_slots[k]
        cls_loss, reg_loss, g_logits, g_pred = head_losses(probs, labels, pred, targets)

        loss_history.append((it_offset + it, cls_loss, reg_loss, cls_loss + reg_loss))

        head.w_cls -= lr * (x.T @ g_logits)
        head.b_cls -= lr * g_logits.sum(axis=0)
        for k, rows, x_k in slots:
            g_k = g_pred[rows]
            w_slots[:, k] -= lr * (x_k.T @ g_k)
            b_slots[k] -= lr * g_k.sum(axis=0)
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


# a non-finite weight gives outputs that the checks reject, so numpy's warnings
# would only repeat the ValueError (a decorator costs half what a with-block does)
@np.errstate(over="ignore", invalid="ignore")
def predict(model: ToyModel, feature: np.ndarray, box: BoundingBox,
            anchors: AnchorSet) -> list[PoseProposal]:
    """One scored PoseProposal per non-background class.

    Proposal k carries score u(k+1) and the pose reconstructed from
    anchor k's slice of the regression output; scores plus the
    background probability sum to 1. All anchors' poses are built in
    one regress_anchors call. The (K, J, 2) and (K, J, 3) stacks it
    returns are checked once to be finite and the K scores to lie in
    [0, 1], with the messages of Pose2D, Pose3D and PoseProposal, so a
    model with a non-finite weight raises ValueError. The stacks are
    then made read-only, and each proposal's poses are row views of
    them, sharing no memory with the model or the anchors.
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
    _check_finite(coords2d)
    _check_finite(coords3d)
    scores = probs[1:k + 1].tolist()
    for s in scores:
        if not 0.0 <= s <= 1.0:  # NaN included
            raise ValueError(f"score must be in [0, 1], got {s}")
    coords2d.setflags(write=False)
    coords3d.setflags(write=False)
    vis = _all_visible(j)
    proposal, pose2d, pose3d = _frozen(PoseProposal), _frozen(Pose2D), _frozen(Pose3D)
    return [proposal(a.id, box, pose2d(c2, vis), pose3d(c3), s, None)
            for a, c2, c3, s in zip(anchors.anchors, coords2d, coords3d, scores)]
