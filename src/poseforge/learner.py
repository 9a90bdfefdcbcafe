"""Desk-scale stand-in for the CNN head: linear softmax classifier plus
per-anchor linear regressors over externally supplied feature vectors,
trained by plain gradient descent on the losses of labeling.head_losses,
through the same two helpers.

A box's regression loss reaches only its own class's regressor, so
training computes and updates each class's (D, 5*J) slot of w_reg on that
class's boxes alone; inference computes every slot for every box. The
trainer gathers the foreground rows once, in slot order, copies the
trained slots of w_reg into one contiguous slot-major working block for
the length of the call, and makes its (m, 5*J) buffers once per call, so
an iteration allocates nothing of that size and writes no strided slot
(see _train_head). w_reg keeps its (D, 5*J*C) layout, which inference
reads.

An optional two-pass mode feeds the first pass's outputs back in,
concatenated with the features, to a second linear head that produces
the final estimate.
"""

from __future__ import annotations

import math
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
from poseforge.pose import (BoundingBox, Pose2D, Pose3D, _all_visible, _check_count,
                            _check_finite, _frozen)
from poseforge.ppi import PoseProposal


# Step schedule: the learning rate drops by DECAY_FACTOR once, after the
# first DECAY_FRACTION of the iterations.
DECAY_FACTOR = 0.1
DECAY_FRACTION = 0.6
INIT_SCALE = 0.01  # standard deviation of the initial weights


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 300
    learning_rate: float = 0.5
    seed: int = 0
    two_pass: bool = False

    def __post_init__(self):
        _check_count("iterations", self.iterations, 0)
        _check_count("seed", self.seed, 0)
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and above 0, got {self.learning_rate}")


@dataclass(eq=False)
class _Head:
    """One linear classification + regression head."""

    w_cls: np.ndarray  # (D, C)
    b_cls: np.ndarray  # (C,)
    w_reg: np.ndarray  # (D, 5*J*C): class c's slot is columns c*5*J to (c+1)*5*J
    b_reg: np.ndarray  # (5*J*C,)

    @classmethod
    def init(cls, rng, dim, n_classes, slot_width):
        return cls(
            w_cls=rng.normal(0.0, INIT_SCALE, size=(dim, n_classes)),
            b_cls=np.zeros(n_classes),
            w_reg=rng.normal(0.0, INIT_SCALE, size=(dim, slot_width * n_classes)),
            b_reg=np.zeros(slot_width * n_classes),
        )

    def class_probs(self, x: np.ndarray) -> np.ndarray:
        logits = x @ self.w_cls
        logits += self.b_cls
        return softmax(logits)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = x @ self.w_reg
        v += self.b_reg
        return self.class_probs(x), v


@dataclass(eq=False)
class ToyModel:
    """Trained weights, their shape and the loss curve of the run."""

    head: _Head
    feature_dim: int
    n_classes: int
    joint_count: int
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
    """Gradient descent on the mean head losses, one regression slot at a time.

    A box's regression loss reaches only the (D, 5*J) slot of w_reg that
    belongs to its own label. So each non-background class that has rows
    is predicted and updated on those rows alone: over all classes a
    product costs m*D*5*J for the m foreground rows, not the n*D*5*J*C of
    the full x @ w_reg. The slot of class 0, and of a class with no rows,
    keeps its initial value.

    The foreground rows are gathered once, in slot order (a stable sort
    of the labels), so slot k is a contiguous slice holding its rows in
    input order, and background rows never enter the regression path.
    The S trained slots of w_reg are copied once per call into a
    contiguous (S, D, 5*J) working block, slot-major, and written back
    at the end. In w_reg a slot is a strided (D, 5*J) view whose rows lie
    C*5*J apart, so every slot product would read, and every update
    write, D short rows scattered over the whole array; in the block each
    slot is one contiguous run. The per-slot products keep their shapes
    and the updates are elementwise, so the results are those of the
    strided form bit for bit. The block is S*D*5*J doubles: 0.75 MB on
    the benchmark's crowd workload (S = 20, D = 72, J = 13), and about
    29 MB for a two_pass refine head there, whose D is 72 + C + 5*J*C.

    The (m, 5*J) prediction, loss and gradient buffers and one (D, 5*J)
    slot-gradient buffer are made once per call too, and every iteration
    writes into them; each slot's views of them are made once as well.
    Fresh (n, 5*J) temporaries in every iteration, as a direct form
    makes them, come back from the kernel as new pages once they pass
    glibc's mmap threshold: on the benchmark's sparse workload (n = 900,
    J = 13, seed 1) the first train call in a process took about 8,000
    minor faults that way, and takes about 1,000 with the buffers and
    the block, the first touch of its per-call arrays. The losses come
    from the two helpers that labeling.head_losses composes, and the
    results are bit-identical to that direct form.
    """
    n, d = x.shape
    c = head.b_cls.shape[0]
    w = head.b_reg.shape[0] // c
    switch = int(DECAY_FRACTION * config.iterations)
    # views, as _Head.init makes both arrays contiguous: slot_major[k] is
    # class k's (D, w) slot of w_reg, a strided view
    slot_major = head.w_reg.reshape(d, c, w).transpose(1, 0, 2)
    b_slots = head.b_reg.reshape(c, w)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(c + 1))
    fg = order[bounds[1]:]  # BACKGROUND is 0, the first class
    bounds -= bounds[1]  # slot k is fg[bounds[k]:bounds[k + 1]]
    ids = [k for k in range(1, c) if bounds[k + 1] > bounds[k]]
    spans = [slice(bounds[k], bounds[k + 1]) for k in ids]
    block = np.ascontiguousarray(slot_major[ids])  # (S, D, w), the working block
    x_fg, t_fg = x[fg], targets[fg]
    in_input_order = np.argsort(fg)
    pred, loss, grad = np.empty((3, len(fg), w))
    # per slot, views made once: its weights in the block, its bias row,
    # and its rows of x_fg (and their transpose), of pred and of grad
    slots = [(w_k, b_slots[k], x_fg[s], x_fg[s].T, pred[s], grad[s])
             for w_k, k, s in zip(block, ids, spans)]
    g_w = np.empty((d, w))
    for it in range(config.iterations):
        lr = config.learning_rate * (1.0 if it < switch else DECAY_FACTOR)
        probs = head.class_probs(x)
        cls_loss, g_logits = _class_loss(probs, labels, out=probs)
        for w_k, b_k, x_k, _, p_k, _ in slots:
            np.matmul(x_k, w_k, out=p_k)
            p_k += b_k
        err = np.subtract(t_fg, pred, out=pred)  # pred is not needed again
        reg_loss, _ = _regression_loss(err, n, in_input_order, loss, grad)  # into grad

        loss_history.append((it_offset + it, cls_loss, reg_loss, cls_loss + reg_loss))

        head.w_cls -= lr * (x.T @ g_logits)
        head.b_cls -= lr * g_logits.sum(axis=0)
        for w_k, b_k, _, xt_k, _, g_k in slots:
            np.matmul(xt_k, g_k, out=g_w)
            g_w *= lr
            w_k -= g_w
            b_k -= lr * g_k.sum(axis=0)
    slot_major[ids] = block
    return loss_history


def train(
    examples: list[tuple[np.ndarray, LabeledBox]],
    anchors: AnchorSet,
    config: TrainConfig = TrainConfig(),
) -> ToyModel:
    """Fit the toy model on (feature, labeled box) pairs.

    Deterministic given config.seed. Raises on an empty anchor set, on
    no examples, on features that are not vectors of one length, on
    inconsistent target dimensions and on a feature row that is not
    finite.
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
    head = _Head.init(rng, x.shape[1], n_classes, slot)
    model = ToyModel(head=head, feature_dim=x.shape[1], n_classes=n_classes, joint_count=j)
    _train_head(head, x, labels, targets, config, model.loss_history, 0)

    if config.two_pass:
        probs, v = head.forward(x)
        x2 = np.concatenate([x, probs, v], axis=1)
        refine = _Head.init(rng, x2.shape[1], n_classes, slot)
        _train_head(refine, x2, labels, targets, config,
                    model.loss_history, config.iterations)
        model.refine_head = refine
    return model


def model_outputs(model: ToyModel, feature: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities and regression vector for one finite feature vector."""
    x = np.asarray(feature, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"feature must be one vector, got shape {x.shape}")
    x = x[None]
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
    background probability sum to 1, and each proposal equals what
    model_outputs and apply_regression give. All anchors' poses are
    built in one regress_anchors call. The (K, J, 2) and (K, J, 3)
    stacks it returns are tested once, through their sum, to be finite;
    only when that fails (a non-finite entry, or finite entries whose
    sum overflows) are they checked one by one. Those checks and the
    check of the K scores to lie in [0, 1] raise with the messages of
    Pose2D, Pose3D and PoseProposal, so a model with a non-finite weight
    raises ValueError. The stacks are then made read-only, and each
    proposal's poses are row views of them, sharing no memory with the
    model or the anchors. The K proposals hold the one box object.
    """
    k, j = len(anchors), model.joint_count
    if k + 1 != model.n_classes or anchors.spec.joint_count != j:
        raise ValueError(
            f"{k} anchors of {anchors.spec.joint_count} joints do not fit a model "
            f"with {model.n_classes - 1} anchor classes of {j} joints"
        )
    probs, v = model_outputs(model, feature)
    w = model.slot_width
    coords2d, coords3d = regress_anchors(anchors.coords2d, anchors.coords3d, box,
                                         v[w:(k + 1) * w].reshape(k, w))
    if not math.isfinite(coords2d.sum() + coords3d.sum()):
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
