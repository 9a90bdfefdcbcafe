"""Desk-scale stand-in for the CNN head: linear softmax classifier plus
per-anchor linear regressors over externally supplied feature vectors.
ToyModel is that one head: its four weight arrays, the anchor ids that
its regressors fit and the loss curve. train draws the classifier's
weights and hands the model to _train_head, which updates it in place;
tests swap in a reference trainer of the same signature there.

A box's regression loss reaches only its own class's regressor, and the
features are fixed, so each class's regressor is a separate linear
least-squares problem over that class's boxes alone. The trainer solves
each in closed form, as R-CNN fits its class-specific box regressors: a
ridge regression with penalty RIDGE on the weights, the bias unpenalised
(see _solve_slots). The classifier is trained by plain gradient descent
on the mean log loss. Both losses come from the helpers that
labeling.head_losses composes. train records in ToyModel.fitted the
anchor ids that a foreground training box labels, and w_reg holds one
(D, 5*J) slot for each of them, in that order: a class that no box
labels has no regressor. Inference computes every slot for a box in one
product over w_reg's (D, 5*J*F) layout, and builds one proposal per slot.

A run that does not stay finite, as features whose products overflow
give, raises ValueError, and numpy warns of nothing on the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from poseforge.anchors import AnchorSet
from poseforge.labeling import (
    BACKGROUND,
    LabeledBox,
    _class_loss,
    _regression_loss,
    regress_anchors,
    softmax,
)
from poseforge.pose import (BoundingBox, Pose2D, Pose3D, _all_finite, _all_visible,
                            _check_count, _check_finite, _frozen)
from poseforge.ppi import PoseProposal


# Step schedule: the learning rate drops by DECAY_FACTOR once, after the
# first DECAY_FRACTION of the iterations.
DECAY_FACTOR = 0.1
DECAY_FRACTION = 0.6
INIT_SCALE = 0.01  # standard deviation of the classifier's initial weights
RIDGE = 0.1  # lambda, the penalty on each regression slot's squared weights
# what a training run that does not stay finite most likely met
HINT = " (features whose products overflow?)"


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 300
    learning_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_count("iterations", self.iterations, 0)
        _check_count("seed", self.seed, 0)
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and above 0, got {self.learning_rate}")


@dataclass(eq=False)
class ToyModel:
    """One linear classification + regression head: its trained weights,
    the anchor ids of its regression slots and the loss curve of the run.
    The arrays give the model's shapes: w_cls is (D, C), and w_reg holds
    one slot of 5*J columns for each of the F ids of fitted, slot s
    regressing anchor fitted[s]. fitted is kept as a read-only copy; ids
    out of [0, C - 1), unsorted or repeated raise ValueError."""

    w_cls: np.ndarray  # (D, C)
    b_cls: np.ndarray  # (C,)
    w_reg: np.ndarray  # (D, 5*J*F): slot s is columns s*5*J to (s+1)*5*J
    b_reg: np.ndarray  # (5*J*F,)
    fitted: np.ndarray  # ascending anchor ids; anchor id i is class i + 1
    loss_history: list[tuple[int, float, float, float]] = field(default_factory=list)

    def __post_init__(self):
        ids = np.asarray(self.fitted)
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise ValueError(f"fitted must be a vector of integer anchor ids, "
                             f"got {ids.dtype} of shape {ids.shape}")
        ids = ids.astype(np.intp)
        if ids.size and not 0 <= ids.min() <= ids.max() < self.n_classes - 1:
            raise ValueError(f"fitted anchor ids must lie in [0, {self.n_classes - 1}), "
                             f"got {ids.min()} to {ids.max()}")
        if (np.diff(ids) <= 0).any():
            raise ValueError("fitted anchor ids must be ascending, without repeats")
        ids.setflags(write=False)
        self.fitted = ids

    @property
    def n_classes(self) -> int:
        return len(self.b_cls)

    def class_probs(self, x: np.ndarray) -> np.ndarray:
        logits = x @ self.w_cls
        logits += self.b_cls
        return softmax(logits)


def _check_features(x: np.ndarray) -> None:
    """Reject feature rows holding a NaN or an infinity, naming the first."""
    if not _all_finite(x):
        row = int(np.argmin(np.isfinite(x).all(axis=1)))
        raise ValueError(f"feature row {row} is not finite")


def _solve_slots(model, x, labels, targets):
    """Fit each regression slot by ridge regression, writing the solutions
    into w_reg and b_reg, and return the mean smooth-L1 regression loss of
    the n boxes under the solved slots.

    A box's regression loss reaches only the slot of its own label, so
    class k's slot is fitted on its own rows X_k alone. With the
    augmented rows X~ = [X_k, 1], their targets T_k and RIDGE as lambda,
    the slot's weights and bias W are the solution of
    (X~^T X~ + lambda diag(1, ..., 1, 0)) W = X~^T T_k: the least-squares
    fit penalised by lambda ||w||^2, the bias unpenalised. The system is
    positive definite for lambda > 0 and any row count of at least one,
    and all the slots go to one batched solve. Slot s is fitted on the rows
    of class model.fitted[s] + 1, so every slot has rows; w_reg and b_reg
    take the solutions in that order.
    """
    n, d = x.shape
    ids = model.fitted + 1
    if not len(ids):
        return 0.0
    rows = [np.flatnonzero(labels == k) for k in ids]
    x_aug = np.hstack([x, np.ones((n, 1))])
    blocks = [x_aug[r] for r in rows]  # each slot's augmented rows [X_k, 1]
    gram = np.stack([b.T @ b for b in blocks])
    gram[:, np.arange(d), np.arange(d)] += RIDGE
    rhs = np.stack([b.T @ targets[r] for b, r in zip(blocks, rows)])
    # solve turns an infinite pivot into a finite 0 without a word
    if not (_all_finite(gram) and _all_finite(rhs)):
        raise ValueError(f"training failed: the ridge systems are not finite{HINT}")
    sol = np.linalg.solve(gram, rhs)  # (F, D + 1, 5*J): each slot's weights, then its bias
    model.w_reg[:] = sol[:, :d].transpose(1, 0, 2).reshape(d, -1)
    model.b_reg[:] = sol[:, d].ravel()
    err = np.concatenate([targets[r] - b @ s for b, r, s in zip(blocks, rows, sol)])
    return _regression_loss(err, n)[0]


def _train_head(model, x, labels, targets, config):
    """Solve the regression slots (see _solve_slots), then run gradient
    descent on the mean log loss of the classifier, updating the model's
    arrays in place and appending one row (it, cls, reg, total) per
    iteration to model.loss_history, where reg is the solved slots'
    smooth-L1 loss. The losses come from the two helpers that
    labeling.head_losses composes.
    """
    reg_loss = _solve_slots(model, x, labels, targets)
    switch = int(DECAY_FRACTION * config.iterations)
    for it in range(config.iterations):
        lr = config.learning_rate * (1.0 if it < switch else DECAY_FACTOR)
        probs = model.class_probs(x)
        cls_loss, g_logits = _class_loss(probs, labels, out=probs)
        model.loss_history.append((it, cls_loss, reg_loss, cls_loss + reg_loss))
        model.w_cls -= lr * (x.T @ g_logits)
        model.b_cls -= lr * g_logits.sum(axis=0)


def _check_trained(model: ToyModel) -> None:
    """Reject a trained model whose loss curve or weights hold a NaN or
    an infinity."""
    if not _all_finite(np.array(model.loss_history, dtype=np.float64)):
        raise ValueError(f"training failed: the loss curve is not finite{HINT}")
    for name in ("w_cls", "b_cls", "w_reg", "b_reg"):
        if not _all_finite(getattr(model, name)):
            raise ValueError(f"training failed: {name} is not finite{HINT}")


def train(
    examples: list[tuple[np.ndarray, LabeledBox]],
    anchors: AnchorSet,
    config: TrainConfig = TrainConfig(),
) -> ToyModel:
    """Fit the toy model on (feature, labeled box) pairs.

    Deterministic given config.seed. Raises on an empty anchor set, on
    no examples, on features that are not vectors of one length, on
    inconsistent target dimensions, on a feature row that is not finite
    and on a run whose losses, ridge systems or weights are not finite.
    """
    if len(anchors) == 0:
        raise ValueError("empty anchor set")
    if not examples:
        raise ValueError("no training examples")
    features = [np.asarray(f, dtype=np.float64) for f, _ in examples]
    if features[0].ndim != 1 or any(f.shape != features[0].shape for f in features):
        raise ValueError("features must be fixed-dimension vectors")
    x = np.stack(features)
    _check_features(x)
    n_classes = len(anchors) + 1
    slot = 5 * anchors.spec.joint_count
    labels = np.array([lab.class_label for _, lab in examples], dtype=int)
    if labels.max() >= n_classes:
        raise ValueError("class label exceeds anchor count")
    targets = np.zeros((len(examples), slot))
    for i, (_, lab) in enumerate(examples):
        if lab.class_label != BACKGROUND:
            if len(lab.target) != slot:
                raise ValueError(f"target length {len(lab.target)} != {slot}")
            targets[i] = lab.target

    d, fitted = x.shape[1], np.unique(labels[labels != BACKGROUND]) - 1
    w_cls = np.random.default_rng(config.seed).normal(0.0, INIT_SCALE, size=(d, n_classes))
    model = ToyModel(w_cls, np.zeros(n_classes), np.zeros((d, slot * len(fitted))),
                     np.zeros(slot * len(fitted)), fitted)
    # a result that is not finite raises, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        _train_head(model, x, labels, targets, config)
    _check_trained(model)
    return model


def model_outputs(model: ToyModel, feature: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities and regression vector for one finite feature
    vector: the C probabilities, and the F slots of 5*J, slot s for anchor
    model.fitted[s], end to end."""
    x = np.asarray(feature, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"feature must be one vector, got shape {x.shape}")
    x = x[None]
    dim = model.w_cls.shape[0]
    if x.shape[1] != dim:
        raise ValueError(f"feature dim {x.shape[1]} != {dim}")
    _check_features(x)
    v = x @ model.w_reg
    v += model.b_reg
    return model.class_probs(x)[0], v[0]


# a non-finite weight gives outputs that the checks reject, so numpy's warnings
# would only repeat the ValueError (a decorator costs half what a with-block does)
@np.errstate(over="ignore", invalid="ignore")
def predict(model: ToyModel, feature: np.ndarray, box: BoundingBox,
            anchors: AnchorSet) -> list[PoseProposal]:
    """One scored PoseProposal per fitted class, in ascending anchor id.

    Proposal for anchor id i = model.fitted[s] carries i, score u(i+1) and
    the pose reconstructed from anchor i's slot s of the regression output;
    a class that no training box labeled has no slot, and gets no proposal.
    The returned scores plus the background probability are at most 1, and
    each proposal equals what model_outputs and apply_regression give. A
    model whose w_reg and b_reg do not hold one slot of 5*J columns per
    fitted anchor raises ValueError. The fitted anchors' poses are built in
    one regress_anchors call. The (F, J, 2) and (F, J, 3) stacks it returns
    must be finite, each tested by one sum (see pose._all_finite), and the
    F scores must lie in [0, 1]; these checks raise with the messages of
    Pose2D, Pose3D and PoseProposal, so a model with a non-finite weight
    in a slot raises ValueError. The stacks are then made read-only, and
    each proposal's poses are row views of them, sharing no memory with
    the model or the anchors. The F proposals hold the one box object.
    """
    k, j, ids = len(anchors), anchors.spec.joint_count, model.fitted
    if k + 1 != model.n_classes:
        raise ValueError(f"{k} anchors of {j} joints do not fit a model "
                         f"with {model.n_classes - 1} anchor classes")
    width = 5 * j * len(ids)
    if model.w_reg.shape != (model.w_cls.shape[0], width) or model.b_reg.shape != (width,):
        raise ValueError(f"w_reg {model.w_reg.shape} and b_reg {model.b_reg.shape} do not "
                         f"hold one slot of 5*{j} columns for each of {len(ids)} fitted anchors")
    probs, v = model_outputs(model, feature)
    coords2d, coords3d = regress_anchors(anchors.coords2d[ids], anchors.coords3d[ids], box,
                                         v.reshape(len(ids), 5 * j))
    _check_finite(coords2d)
    _check_finite(coords3d)
    scores = probs[ids + 1].tolist()
    for s in scores:
        if not 0.0 <= s <= 1.0:  # NaN included
            raise ValueError(f"score must be in [0, 1], got {s}")
    coords2d.setflags(write=False)
    coords3d.setflags(write=False)
    vis = _all_visible(j)
    proposal, pose2d, pose3d = _frozen(PoseProposal), _frozen(Pose2D), _frozen(Pose3D)
    return [proposal(i, box, pose2d(c2, vis), pose3d(c3), s, None)
            for i, c2, c3, s in zip(ids.tolist(), coords2d, coords3d, scores)]
