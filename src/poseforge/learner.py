"""Desk-scale stand-in for the CNN head: linear softmax classifier plus
per-anchor linear regressors over externally supplied feature vectors.
ToyModel is that one head: its four weight arrays, the anchor ids of its
classes and the loss curve. train draws the classifier's weights and
hands the model to _train_head, which updates it in place; tests swap in
a reference trainer of the same signature there.

The head's classes are the background and the anchors that a foreground
training box labels. ToyModel.fitted lists those anchor ids, ascending,
and is the head's one class map: classifier column 0 is the background,
and column s + 1 and regression slot s, the (D, 5*J) block s of w_reg,
are anchor fitted[s]. An anchor that no box labels has neither. train
maps the boxes' class labels to columns once, and the trainer works in
columns from then on.

A box's regression loss reaches only its own class's regressor, and the
features are fixed, so each class's regressor is a separate linear
least-squares problem over that class's boxes alone. The trainer solves
each in closed form, as R-CNN fits its class-specific box regressors: a
ridge regression with penalty RIDGE on the weights, the bias unpenalised
(see _solve_slots). The classifier is trained by plain gradient descent
on the mean log loss. Both losses come from the helpers that
labeling.head_losses composes. Inference computes every slot for a box
in one product over w_reg's (D, 5*J*F) layout, and builds one proposal
per slot.

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
# What a training run that does not stay finite most likely met. The ridge
# systems take the features and targets alone; the classifier's descent and
# the loss curve take the learning rate too.
FEATURE_HINT = " (features whose products overflow; no learning rate enters the ridge solve)"
DESCENT_HINT = " (features whose products overflow, or too large a learning rate?)"


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
    the anchor ids of its classes and the loss curve of the run. For the
    F ids of fitted, w_cls is (D, F + 1) and b_cls (F + 1,), column 0
    the background's and column s + 1 anchor fitted[s]'s; w_reg is
    (D, W) and b_reg (W,), W a multiple of 5*F, one slot of 5*J = W/F
    columns per id, slot s regressing anchor fitted[s]. fitted is kept as
    a read-only copy; ids that are not integers, ascending, unique and at
    least 0, and arrays of any other layout, raise ValueError."""

    w_cls: np.ndarray  # (D, F + 1)
    b_cls: np.ndarray  # (F + 1,)
    w_reg: np.ndarray  # (D, 5*J*F): slot s is columns s*5*J to (s+1)*5*J
    b_reg: np.ndarray  # (5*J*F,)
    fitted: np.ndarray  # ascending anchor ids; fitted[s] is column s + 1 and slot s
    loss_history: list[tuple[int, float, float, float]] = field(default_factory=list)

    def __post_init__(self):
        ids = np.asarray(self.fitted)
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise ValueError(f"fitted must be a vector of integer anchor ids, "
                             f"got {ids.dtype} of shape {ids.shape}")
        ids = ids.astype(np.intp)
        if (ids.size and ids[0] < 0) or (np.diff(ids) <= 0).any():
            raise ValueError(f"fitted anchor ids must be ascending, unique and at least 0, "
                             f"got {ids.tolist()}")
        f, d, w = len(ids), self.w_cls.shape[0], self.w_reg.shape[-1]
        shapes = tuple(a.shape for a in (self.w_cls, self.b_cls, self.w_reg, self.b_reg))
        if shapes != ((d, f + 1), (f + 1,), (d, w), (w,)) or (w % (5 * f) if f else w):
            raise ValueError(f"w_cls {shapes[0]}, b_cls {shapes[1]}, w_reg {shapes[2]} and b_reg "
                             f"{shapes[3]} are not the layout of a head of {f} fitted anchors: "
                             f"(D, {f + 1}), ({f + 1},), (D, W) and (W,), W a multiple of 5*{f}")
        ids.setflags(write=False)
        self.fitted = ids

    @property
    def n_classes(self) -> int:
        """Classifier columns: the background and the fitted anchors."""
        return len(self.b_cls)

    def class_probs(self, x: np.ndarray) -> np.ndarray:
        logits = x @ self.w_cls
        logits += self.b_cls
        return softmax(logits)


def _check_features(x: np.ndarray) -> None:
    """Reject feature rows (n, D), or one feature vector (D,) as row 0,
    holding a NaN or an infinity, naming the first."""
    if not _all_finite(x):
        row = int(np.argmin(np.isfinite(x).all(axis=-1)))
        raise ValueError(f"feature row {row} is not finite")


def _solve_slots(model, x, labels, targets):
    """Fit each regression slot by ridge regression, writing the solutions
    into w_reg and b_reg, and return the mean smooth-L1 regression loss of
    the n boxes under the solved slots. labels holds each box's classifier
    column.

    A box's regression loss reaches only the slot of its own column, so
    column k's slot is fitted on its own rows X_k alone. With the
    augmented rows X~ = [X_k, 1], their targets T_k and RIDGE as lambda,
    the slot's weights and bias W are the solution of
    (X~^T X~ + lambda diag(1, ..., 1, 0)) W = X~^T T_k: the least-squares
    fit penalised by lambda ||w||^2, the bias unpenalised. The system is
    positive definite for lambda > 0 and any row count of at least one,
    and all the slots go to one batched solve. Slot s is fitted on the rows
    of column s + 1, which every fitted anchor's column has; w_reg and
    b_reg take the solutions in that order.
    """
    n, d = x.shape
    if not len(model.fitted):
        return 0.0
    rows = [np.flatnonzero(labels == k) for k in range(1, model.n_classes)]
    x_aug = np.hstack([x, np.ones((n, 1))])
    blocks = [x_aug[r] for r in rows]  # each slot's augmented rows [X_k, 1]
    gram = np.stack([b.T @ b for b in blocks])
    gram[:, np.arange(d), np.arange(d)] += RIDGE
    rhs = np.stack([b.T @ targets[r] for b, r in zip(blocks, rows)])
    # solve turns an infinite pivot into a finite 0 without a word
    if not (_all_finite(gram) and _all_finite(rhs)):
        raise ValueError(f"training failed: the ridge systems are not finite{FEATURE_HINT}")
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
    smooth-L1 loss. labels holds each box's classifier column. The losses
    come from the two helpers that labeling.head_losses composes.
    """
    reg_loss = _solve_slots(model, x, labels, targets)
    switch = int(DECAY_FRACTION * config.iterations)
    for it in range(config.iterations):
        lr = config.learning_rate * (1.0 if it < switch else DECAY_FACTOR)
        cls_loss, g_logits = _class_loss(model.class_probs(x), labels)
        model.loss_history.append((it, cls_loss, reg_loss, cls_loss + reg_loss))
        model.w_cls -= lr * (x.T @ g_logits)
        model.b_cls -= lr * g_logits.sum(axis=0)


def _check_trained(model: ToyModel) -> None:
    """Reject a trained model whose loss curve or weights hold a NaN or
    an infinity. Its ridge systems were finite (_solve_slots checks them),
    so the hint names the learning rate too."""
    if not _all_finite(np.array(model.loss_history, dtype=np.float64)):
        raise ValueError(f"training failed: the loss curve is not finite{DESCENT_HINT}")
    for name in ("w_cls", "b_cls", "w_reg", "b_reg"):
        if not _all_finite(getattr(model, name)):
            raise ValueError(f"training failed: {name} is not finite{DESCENT_HINT}")


def train(
    examples: list[tuple[np.ndarray, LabeledBox]],
    anchors: AnchorSet,
    config: TrainConfig = TrainConfig(),
) -> ToyModel:
    """Fit the toy model on (feature, labeled box) pairs.

    The fitted anchors are those that a foreground box labels; w_cls
    (D, F + 1) is drawn from N(0, INIT_SCALE) by config.seed's generator,
    and each box's class label is mapped once to its classifier column.
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
    slot = 5 * anchors.spec.joint_count
    labels = np.array([lab.class_label for _, lab in examples], dtype=int)
    if labels.max() > len(anchors):
        raise ValueError("class label exceeds anchor count")
    targets = np.zeros((len(examples), slot))
    for i, (_, lab) in enumerate(examples):
        if lab.class_label != BACKGROUND:
            if len(lab.target) != slot:
                raise ValueError(f"target length {len(lab.target)} != {slot}")
            targets[i] = lab.target

    classes = np.union1d(BACKGROUND, labels)  # column c's class label, background first
    d, c, w = x.shape[1], len(classes), slot * (len(classes) - 1)
    w_cls = np.random.default_rng(config.seed).normal(0.0, INIT_SCALE, size=(d, c))
    model = ToyModel(w_cls, np.zeros(c), np.zeros((d, w)), np.zeros(w), classes[1:] - 1)
    # a result that is not finite raises, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        _train_head(model, x, np.searchsorted(classes, labels), targets, config)
    _check_trained(model)
    return model


def model_outputs(model: ToyModel, feature: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities and regression vector for one finite feature
    vector: the F + 1 column probabilities, the background's and then
    anchor model.fitted[s]'s in column s + 1, and the F slots of 5*J,
    slot s for anchor model.fitted[s], end to end."""
    x = np.asarray(feature, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"feature must be one vector, got shape {x.shape}")
    dim = model.w_cls.shape[0]
    if len(x) != dim:
        raise ValueError(f"feature dim {len(x)} != {dim}")
    _check_features(x)
    v = x @ model.w_reg
    v += model.b_reg
    return model.class_probs(x), v


# a non-finite weight gives outputs that the checks reject, so numpy's warnings
# would only repeat the ValueError (a decorator costs half what a with-block does)
@np.errstate(over="ignore", invalid="ignore")
def predict(model: ToyModel, feature: np.ndarray, box: BoundingBox,
            anchors: AnchorSet) -> list[PoseProposal]:
    """One scored PoseProposal per fitted class, in ascending anchor id.

    Proposal s carries anchor id i = model.fitted[s], the probability of
    classifier column s + 1 as its score, and the pose reconstructed from
    anchor i and slot s of the regression output; an anchor that no
    training box labeled has no column or slot, and gets no proposal. The
    returned scores and the background probability are model_outputs'
    probabilities, so they sum to 1, and each proposal equals what
    model_outputs and apply_regression give. A model with a fitted id
    that is not an index of anchors, or whose w_reg does not hold one slot
    of 5*J columns per fitted anchor, raises ValueError.

    The F fitted rows of anchors.stack are taken into one (F, 5*J) buffer,
    the regression output is added to it in place, and its 2D half is
    scaled by the box's (width, height) and offset by its (x_min, y_min),
    each repeated into a flat (2*J,) vector. The buffer must be finite,
    tested by one sum (see pose._all_finite), and the F scores must lie
    in [0, 1]; these checks raise with the messages of Pose2D, Pose3D and
    PoseProposal, so a model with a non-finite weight in a slot raises
    ValueError. The buffer is then made read-only, and each proposal's
    poses are row views of it, sharing no memory with the model or the
    anchors. The F proposals hold the one box object.
    """
    k, j, ids = len(anchors), anchors.spec.joint_count, model.fitted
    if len(ids) and ids[-1] >= k:  # ToyModel keeps them ascending and at least 0
        raise ValueError(f"fitted anchor id {ids[-1]} is not an index of the {k} anchors")
    if model.w_reg.shape[1] != 5 * j * len(ids):
        raise ValueError(f"w_reg {model.w_reg.shape} and b_reg {model.b_reg.shape} do not "
                         f"hold one slot of 5*{j} columns for each of {len(ids)} fitted anchors")
    probs, v = model_outputs(model, feature)
    poses = np.take(anchors.stack, ids, axis=0)
    poses += v.reshape(len(ids), 5 * j)
    x0, y0 = box.x_min, box.y_min
    placed = poses[:, :2 * j]
    placed *= np.array((box.x_max - x0, box.y_max - y0) * j)
    placed += np.array((x0, y0) * j)
    poses.setflags(write=False)
    coords2d = poses[:, :2 * j].reshape(-1, j, 2)
    coords3d = poses[:, 2 * j:].reshape(-1, j, 3)
    if not _all_finite(poses):
        _check_finite(coords2d)
        _check_finite(coords3d)
    scores = probs[1:].tolist()
    for s in scores:
        if not 0.0 <= s <= 1.0:  # NaN included
            raise ValueError(f"score must be in [0, 1], got {s}")
    vis = _all_visible(j)
    proposal, pose2d, pose3d = _frozen(PoseProposal), _frozen(Pose2D), _frozen(Pose3D)
    return [proposal(i, box, pose2d(c2, vis), pose3d(c3), s, None)
            for i, c2, c3, s in zip(ids.tolist(), coords2d, coords3d, scores)]
