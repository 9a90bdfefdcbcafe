"""The tests' scalar reference for every stage of the pipeline, and the
random objects that the tests feed it.

Each stage is written from the package's docstrings and works one item at
a time: a pose pair, a box, a joint, a positive example, a cluster. It
calls no poseforge math, only the value-type constructors. The trainer
that a test passes in place of learner._train_head takes the model, reads
its four arrays and computes its class probabilities and regression output
with this module's own _class_probs and _forward, not a model method. Most
tests compare the package with these functions bit for bit, so where a
docstring fixes the order of the floating-point operations, the reference
keeps it.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass

import numpy as np

from poseforge.anchors import DEFAULT_MAX_ITERS, DEFAULT_TOL, AnchorSet
from poseforge.labeling import BACKGROUND, DEFAULT_IOU_THRESHOLD, LOG_EPS, LabeledBox
from poseforge.learner import DECAY_FACTOR, DECAY_FRACTION, INIT_SCALE, RIDGE, ToyModel
from poseforge.pose import (DEFAULT_BOX_MARGIN, H13, AnchorPose, BoundingBox, Pose2D, Pose3D,
                            PoseSpec)
from poseforge.ppi import PoseProposal

# A 17-joint spec: H13 plus pelvis, back, torso and neck. It shares H13's
# torso anchor joints, so center_3d centres 17-joint poses too.
H17 = PoseSpec(
    name="h17",
    joint_names=H13.joint_names + ("pelvis", "back", "torso", "neck"),
    torso_anchor_joints=(1, 2, 7, 8),
    head_joints=(0, 16),
    lower_body_joints=(7, 8, 9, 10, 11, 12),
)


# Random objects

def center_3d(coords):
    """Pose3D of raw (J, 3) coordinates, moved so that the mean of the
    torso anchor joints is the origin."""
    arr = np.array(coords, dtype=np.float64)
    return Pose3D(arr - arr[list(H13.torso_anchor_joints)].mean(axis=0))


def pose3d(rng, scale=0.3, j=13):
    return center_3d(rng.normal(0.0, scale, (j, 3)))


def corpus(rng, n, spread=0.4):
    """n codebook pairs: a 3D pose, then 2D joints around (200, 200) px."""
    pairs = []
    for _ in range(n):
        p3 = pose3d(rng, spread)
        pairs.append((Pose2D(rng.normal(200.0, 60.0, (13, 2))), p3))
    return pairs


def clustered_corpus(rng, n, modes, spread):
    """n pairs whose 3D poses lie around `modes` random centers."""
    centers = rng.normal(0.0, 0.5, size=(modes, 13, 3))
    return [(Pose2D(rng.normal(200.0, 60.0, (13, 2))),
             center_3d(centers[rng.integers(modes)] + rng.normal(0.0, spread, (13, 3))))
            for _ in range(n)]


def nan_coded_corpus(rng, n, hidden_share):
    """clustered_corpus whose invisible 2D joints are coded as NaN."""
    poses = []
    for p2, p3 in clustered_corpus(rng, n, 4, 0.1):
        vis = rng.random(13) >= hidden_share
        vis[:2] = True
        poses.append((Pose2D(np.where(vis[:, None], p2.coords, np.nan), vis), p3))
    return poses


def ground_truth(rng, offset=(0.0, 0.0), occluded=None):
    """A person: 2D joints uniform over a 200 px square at 100 px + offset,
    and a 3D pose. If occluded is given, each joint but the first two is
    invisible with probability 0.2, and its 2D coordinates are occluded."""
    p2, p3 = Pose2D(rng.uniform(100, 300, size=(13, 2)) + np.asarray(offset)), pose3d(rng)
    if occluded is not None:
        vis = rng.random(13) < 0.8
        vis[:2] = True
        p2 = Pose2D(np.where(vis[:, None], p2.coords, occluded), vis)
    return p2, p3


def anchor_set(rng, n=4, layouts=None):
    """A full-body AnchorSet: per anchor a unit-box layout, random in
    [0.1, 0.9] unless layouts gives it, then a 3D pose."""
    anchors = []
    for layout in [None] * n if layouts is None else layouts:
        layout = rng.uniform(0.1, 0.9, size=(13, 2)) if layout is None else layout
        anchors.append(AnchorPose(Pose2D(layout), pose3d(rng)))
    return AnchorSet(tuple(anchors), K=len(anchors), spec=H13)


def box_near(rng, gts, jitter=0.1):
    """A candidate box jittered around a random ground truth's margin box,
    or, one time in five, anywhere."""
    if not gts or rng.random() < 0.2:
        lo = rng.uniform(0, 400, 2)
        return BoundingBox(*lo, *(lo + rng.uniform(20, 250, 2)))
    x0, y0, x1, y1 = visible_box(gts[int(rng.integers(len(gts)))][0]).as_tuple()
    dx, dy = jitter * (x1 - x0), jitter * (y1 - y0)
    shift = rng.uniform(-1.0, 1.0, 4) * (dx, dy, dx, dy)
    return BoundingBox(x0 + shift[0], y0 + shift[1], x1 + shift[2], y1 + shift[3])


def separable_dataset(rng, anchors, n_per_class=20, noise=0.05, dim=8):
    """Training examples with features around one random mean per class and
    the targets of random ground truths in their margin boxes; returns the
    examples, their labels and the class means."""
    n_classes = len(anchors) + 1
    means = rng.normal(0, 2.0, size=(n_classes, dim))
    examples, labels = [], []
    for c in range(n_classes):
        for _ in range(n_per_class):
            f = means[c] + rng.normal(0, noise, size=dim)
            if c == BACKGROUND:
                lab = LabeledBox(0)
            else:
                gt2d = Pose2D(rng.uniform(50, 250, (13, 2)))
                gt3d = pose3d(rng)
                box = visible_box(gt2d)
                lab = LabeledBox(c, regression_target(gt2d, gt3d, anchors.anchors[c - 1], box))
            examples.append((f, lab))
            labels.append(c)
    return examples, np.array(labels), means


def proposal(rng, center=(200.0, 200.0), spread=40.0, score=None, p3=None):
    """An unrescored proposal whose box is its pose's joint box."""
    pose2d = Pose2D(rng.normal(center, spread, size=(13, 2)))
    p3 = pose3d(rng) if p3 is None else p3
    s = float(rng.uniform(0.05, 0.95)) if score is None else score
    return PoseProposal(anchor_id=int(rng.integers(0, 5)), box=overlap_box(pose2d),
                        pose2d=pose2d, pose3d=p3, score=s)


def crowd_proposals(rng, people, per_person):
    """Jittered proposals around a few people, each with three 3D modes.

    Half of the proposals score 0.5 in a box wide enough to hold every
    joint, so their rescored scores tie exactly and the tie-breaks on
    the lower index are exercised.
    """
    proposals = []
    for _ in range(people):
        base2d = rng.normal(rng.uniform(50, 450, 2), 30, (13, 2))
        tight = overlap_box(Pose2D(base2d))
        wide = BoundingBox(tight.x_min - 100, tight.y_min - 100,
                           tight.x_max + 100, tight.y_max + 100)
        bases3d = rng.normal(0, 0.3, (3, 13, 3))
        for _ in range(per_person):
            c3d = bases3d[rng.integers(3)] + rng.normal(0, 0.03, (13, 3))
            tie = rng.random() < 0.5
            proposals.append(PoseProposal(
                int(rng.integers(0, 5)), wide if tie else tight,
                Pose2D(base2d + rng.normal(0, 8.0, (13, 2))), center_3d(c3d),
                0.5 if tie else float(rng.uniform(0.05, 0.95))))
    return proposals


# Distances and boxes

def d3d_matrix(a, b, rows=256):
    """Pairwise d3d of stacks a (N, J, 3) and b (M, J, 3): the mean over
    joints of np.linalg.norm of the differences, rows of a at a time."""
    out = np.empty((len(a), len(b)))
    for start in range(0, len(a), rows):
        out[start:start + rows] = np.linalg.norm(
            a[start:start + rows, None] - b[None], axis=3).mean(axis=2)
    return out


def d3d(p, q):
    """d3d of two (J, 3) poses."""
    return float(np.linalg.norm(p - q, axis=1).mean())


def visible_box(pose2d):
    """The tight box over a Pose2D's visible joints, widened by
    DEFAULT_BOX_MARGIN of its extent per axis, half on each side."""
    pts = pose2d.coords[pose2d.visibility]
    if not len(pts):
        raise ValueError("pose has no visible joints")
    x_min, y_min = pts.min(axis=0)
    x_max, y_max = pts.max(axis=0)
    if x_max <= x_min or y_max <= y_min:
        raise ValueError("visible joints span a degenerate (zero-extent) box")
    dx = 0.5 * DEFAULT_BOX_MARGIN * (x_max - x_min)
    dy = 0.5 * DEFAULT_BOX_MARGIN * (y_max - y_min)
    return BoundingBox(x_min - dx, y_min - dy, x_max + dx, y_max + dy)


def overlap_box(pose2d, joints=None):
    """The tight box of a Pose2D's joints listed (all by default), visible
    or not, each zero extent padded by 1e-6 px on both sides."""
    pts = pose2d.coords if joints is None else pose2d.coords[list(joints)]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    flat = hi <= lo
    return BoundingBox(*np.where(flat, lo - 1e-6, lo), *np.where(flat, hi + 1e-6, hi))


def iou(a, b):
    """IoU of two BoundingBoxes. The union adds a's area to b's, then
    subtracts the intersection; disjoint boxes get 0, and so do boxes
    whose two areas underflow to 0, where the union is 0."""
    ax0, ay0, ax1, ay1 = a.as_tuple()
    bx0, by0, bx1, by1 = b.as_tuple()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    inter = iw * ih if iw > 0.0 and ih > 0.0 else 0.0
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union if union > 0.0 else 0.0


# Codebook

def unit_layout(pose2d):
    """A Pose2D's coordinates in its own margin box, whose corners map to
    (0, 0) and (1, 1)."""
    b = visible_box(pose2d)
    return (pose2d.coords - (b.x_min, b.y_min)) / (b.x_max - b.x_min, b.y_max - b.y_min)


def kmeans_pp(coords3d, k, rng):
    """Seeded k-means++ centroids: the first point uniform, each next one
    with probability proportional to its squared d3d to the nearest
    centroid so far, uniform once every weight is 0."""
    n = len(coords3d)
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        weights = d3d_matrix(coords3d, coords3d[chosen]).min(axis=1) ** 2
        total = weights.sum()
        chosen.append(int(rng.choice(n, p=weights / total)) if total > 0.0
                      else int(rng.choice(n)))
    return coords3d[chosen]


def kmeans(poses, k, seed=0, max_iters=DEFAULT_MAX_ITERS):
    """Plain Lloyd iterations under d3d from kmeans_pp's centroids, with a
    full distance matrix per assignment. An update keeps the centroid of an
    emptied cluster; then each empty cluster in turn takes the point
    farthest from its own centroid. Stops after max_iters updates or once
    every centroid moves less than DEFAULT_TOL.

    Returns the (k, J, 3) centroids, the (k, J, 2) unit-box layouts of the
    final clusters (see anchor_layout) and the distortion history, the sum of
    squared d3d to the assigned centroids after each assignment.
    """
    coords3d = np.stack([p3.coords for _, p3 in poses])
    centroids = kmeans_pp(coords3d, k, np.random.default_rng(seed))
    rows = np.arange(len(poses))
    history = []

    def assignment():
        dist = d3d_matrix(coords3d, centroids)
        assign = dist.argmin(axis=1)
        history.append(float((dist[rows, assign] ** 2).sum()))
        return assign

    for _ in range(max_iters):
        assign = assignment()
        new_centroids = centroids.copy()
        empty = []
        for c in range(k):
            if (assign == c).any():
                new_centroids[c] = coords3d[assign == c].mean(axis=0)
            else:
                empty.append(c)
        if empty:
            point_dist = np.array([d3d(p, new_centroids[c]) for p, c in zip(coords3d, assign)])
            for c in empty:
                far = int(point_dist.argmax())
                new_centroids[c] = coords3d[far]
                point_dist[far] = -1.0
        shift = max(d3d(new, old) for new, old in zip(new_centroids, centroids))
        centroids = new_centroids
        if shift < DEFAULT_TOL:
            break
    assign = assignment()
    unit_layouts = np.stack([unit_layout(p2) for p2, _ in poses])
    layouts = np.stack([anchor_layout(unit_layouts[assign == c], centroids[c]) for c in range(k)])
    return centroids, layouts, tuple(history)


def anchor_layout(members, centroid):
    """One anchor's (J, 2) layout from its members' (n, J, 2) unit-box
    layouts and its (J, 3) centroid: per joint and axis, the mean of the
    finite member coordinates, added one member at a time. A joint with no
    finite coordinate in some axis is the centroid's (x, y) scaled by s and
    moved by t, the least-squares fit of the other joints' centroid (x, y)
    onto their layout. All NaN where that fit has fewer than 2 joints, or
    their (x, y) all coincide: there kmeans_anchors raises."""
    j = centroid.shape[0]
    out = np.full((j, 2), np.nan)
    for joint in range(j):
        for axis in range(2):
            values = [v for v in members[:, joint, axis].tolist() if math.isfinite(v)]
            if values:
                total = 0.0
                for v in values:
                    total += v
                out[joint, axis] = total / len(values)
    known = [joint for joint in range(j) if np.isfinite(out[joint]).all()]
    if len(known) == j:
        return out
    if len(known) < 2:
        return np.full((j, 2), np.nan)
    src, dst = centroid[known, :2], out[known]
    src_c, dst_c = src.mean(axis=0), dst.mean(axis=0)
    src0 = src - src_c
    denom = float((src0 ** 2).sum())
    if denom <= 0.0:
        return np.full((j, 2), np.nan)
    s = float((src0 * (dst - dst_c)).sum() / denom)
    t = dst_c - s * src_c
    for joint in range(j):
        if joint not in known:
            out[joint] = s * centroid[joint, :2] + t
    return out


def upper_body(anchor_set):
    """The (n, J, 2) layouts of an AnchorSet's upper-body variants: each
    anchor's layout moved and scaled so that its upper-body joints span
    the unit box."""
    upper = list(anchor_set.spec.upper_body_joints)
    remapped = []
    for i, a in enumerate(anchor_set.anchors):
        layout = a.pose2d.coords
        lo = layout[upper].min(axis=0)
        hi = layout[upper].max(axis=0)
        if (hi <= lo).any():
            raise ValueError(f"anchor {i}: upper-body joints span a degenerate box")
        remapped.append((layout - lo) / (hi - lo))
    return np.stack(remapped)


# Labeling

def regression_target(gt2d, gt3d, anchor, box):
    """The 5*J target: the 2D pose normalized into the box minus the
    anchor's layout, 0 at a joint with a non-finite coordinate, then the
    3D pose minus the anchor's."""
    x0, y0, x1, y1 = box.as_tuple()
    res2d = (gt2d.coords - (x0, y0)) / (x1 - x0, y1 - y0) - anchor.pose2d.coords
    res2d[~np.isfinite(gt2d.coords).all(axis=1)] = 0.0
    return np.concatenate([res2d.ravel(), (gt3d.coords - anchor.pose3d.coords).ravel()])


def assign_label(box, gts, anchors):
    """(label, target) of a box, one ground truth and one anchor at a time:
    background (0, None) below DEFAULT_IOU_THRESHOLD with every ground truth's
    margin box, otherwise the first best-overlapping ground truth's
    3D-closest anchor (the lowest id of a tie), as 1 + its id, and target."""
    if not gts:
        return BACKGROUND, None
    overlaps = [iou(box, visible_box(p2)) for p2, _ in gts]
    best = int(np.argmax(overlaps))
    if overlaps[best] < DEFAULT_IOU_THRESHOLD:
        return BACKGROUND, None
    gt2d, gt3d = gts[best]
    nearest = int(np.argmin([d3d(a.pose3d.coords, gt3d.coords) for a in anchors.anchors]))
    return nearest + 1, regression_target(gt2d, gt3d, anchors.anchors[nearest], box)


# Head

def smooth_l1(x):
    """The smooth-L1 loss and its gradient of an array, from the definition,
    branch by branch."""
    with np.errstate(over="ignore"):  # 0.5 * x * x of a large x, not selected
        small = np.abs(x) < 1.0
        return np.where(small, 0.5 * x * x, np.abs(x) - 0.5), np.where(small, x, np.sign(x))


def initial_model(seed, dim, n_classes, slot_width):
    """An untrained model with every anchor id, 0 to C - 2, as fitted: w_cls
    (D, C) drawn from N(0, INIT_SCALE) by the seed's generator, zero w_reg
    (D, 5*J*F) and zero biases."""
    w_cls = np.random.default_rng(seed).normal(0.0, INIT_SCALE, size=(dim, n_classes))
    width = slot_width * (n_classes - 1)
    return ToyModel(w_cls, np.zeros(n_classes), np.zeros((dim, width)), np.zeros(width),
                    np.arange(n_classes - 1))


def slot(model, k):
    """The regression slot of class k: the position of anchor id k - 1 in
    the model's fitted ids."""
    return int(np.searchsorted(model.fitted, k - 1))


def regression_loss_per_positive(model, x, labels, targets):
    """The mean smooth-L1 regression loss of the n boxes, taken one positive
    at a time from the full regression output x @ w_reg + b_reg of
    _forward, at the box's own class slot."""
    w = targets.shape[1]
    _, v = _forward(model, x)
    total = 0.0
    for i in np.flatnonzero(labels != BACKGROUND):
        cols = slot(model, labels[i]) * w + np.arange(w)
        total += float(smooth_l1(targets[i] - v[i, cols])[0].sum())
    return total / len(labels)


def ridge_solution(x, labels, targets, k):
    """Class k's ridge solution W = [w; b], (D + 1, 5*J): the least-squares
    solution, by np.linalg.lstsq, of the stacked system [X~; sqrt(RIDGE) I']
    W = [T; 0], where X~ = [x, 1] over the class's rows, T their targets,
    and I' the identity on the weights, with a zero column for the bias."""
    d, w = x.shape[1], targets.shape[1]
    rows = np.flatnonzero(labels == k)
    a = np.vstack([np.hstack([x[rows], np.ones((len(rows), 1))]),
                   math.sqrt(RIDGE) * np.eye(d, d + 1)])
    b = np.vstack([targets[rows], np.zeros((d, w))])
    return np.linalg.lstsq(a, b, rcond=None)[0]


def train_head_ridge(model, x, labels, targets, config):
    """learner._train_head. Each labeled class's slot of w_reg and b_reg is
    its ridge_solution. Then the classifier's gradient descent, one
    loss-history row per iteration, with the regression loss of the solved
    model."""
    n, d = x.shape
    w = targets.shape[1]
    for k in range(1, model.b_cls.shape[0]):
        if (labels == k).any():
            solution = ridge_solution(x, labels, targets, k)
            cols = slot(model, k) * w + np.arange(w)
            model.w_reg[:, cols], model.b_reg[cols] = solution[:d], solution[d]
    reg_loss = regression_loss_per_positive(model, x, labels, targets)
    all_rows = np.arange(n)
    switch = int(DECAY_FRACTION * config.iterations)
    for it in range(config.iterations):
        lr = config.learning_rate * (1.0 if it < switch else DECAY_FACTOR)
        probs = _class_probs(model, x)
        cls_loss = float(-np.log(np.maximum(probs[all_rows, labels], LOG_EPS)).mean())
        g_logits = probs.copy()
        g_logits[all_rows, labels] -= 1.0
        g_logits /= n
        model.loss_history.append((it, cls_loss, reg_loss, cls_loss + reg_loss))
        model.w_cls -= lr * (x.T @ g_logits)
        model.b_cls -= lr * g_logits.sum(axis=0)


def ridge_gradient(model, x, labels, targets, k):
    """The gradient of class k's ridge objective, ||X~ W - T||^2 / 2 +
    RIDGE ||w||^2 / 2 over its rows, at the model's slot W = [w; b], and a
    scale for it: the same sum taken over the magnitudes of its terms."""
    d, w = x.shape[1], targets.shape[1]
    rows = labels == k
    xa = np.hstack([x[rows], np.ones((rows.sum(), 1))])
    cols = slot(model, k) * w + np.arange(w)
    weights = np.vstack([model.w_reg[:, cols], model.b_reg[cols]])
    penalty = RIDGE * np.vstack([weights[:d], np.zeros((1, w))])
    grad = xa.T @ (xa @ weights - targets[rows]) + penalty
    scale = (np.abs(xa).T @ (np.abs(xa) @ np.abs(weights) + np.abs(targets[rows]))
             + np.abs(penalty))
    return grad, scale


def _class_probs(model, x):
    logits = x @ model.w_cls + model.b_cls
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _forward(model, x):
    return _class_probs(model, x), x @ model.w_reg + model.b_reg


def predict(model, feature, box, anchors):
    """Per anchor of the model's fitted ids, one at a time: (anchor id,
    score u(id + 1), (J, 2) pixel pose, (J, 3) pose). An anchor whose id is
    not fitted gives nothing. A head gives the class probabilities u =
    softmax(x @ w_cls + b_cls) and the regression output x @ w_reg + b_reg.
    The output's slot of the id, its position in the fitted ids, is added
    to the anchor's unit-box layout, which is then placed in the box, and
    to its 3D pose."""
    x = np.asarray(feature, dtype=np.float64)[None]
    probs, v = _forward(model, x)
    probs, v = probs[0], v[0]
    x0, y0, x1, y1 = box.as_tuple()
    out = []
    for i, a in enumerate(anchors.anchors):
        if i not in model.fitted:
            continue
        j, s = len(a.pose2d.coords), slot(model, i + 1)
        res = v[s * 5 * j:(s + 1) * 5 * j]
        coords2d = (a.pose2d.coords + res[:2 * j].reshape(j, 2)) * (x1 - x0, y1 - y0) + (x0, y0)
        out.append((i, float(probs[i + 1]), coords2d,
                    a.pose3d.coords + res[2 * j:].reshape(j, 3)))
    return out


# Pose proposal integration

def rescore(p, sigma_b=25.0):
    """p.score times the mean over joints of exp(-D^2 / sigma_b^2), 1 at a
    joint inside or on p.box, added one joint at a time; the mean is taken
    before the product, so a subnormal result rounds as score * (sum / J).
    D^2 is gx * gx + gy * gy, gx and gy being the joint's gaps past the box
    along x and y; in Python floats a D^2 past the largest float is inf,
    with no warning."""
    x0, y0, x1, y1 = map(float, p.box.as_tuple())
    total = 0.0
    for x, y in p.pose2d.coords.tolist():
        gx, gy = max(x0 - x, 0.0, x - x1), max(y0 - y, 0.0, y - y1)
        d2 = gx * gx + gy * gy
        total += 1.0 if d2 == 0.0 else math.exp(-d2 / (sigma_b * sigma_b))
    return p.score * (total / len(p.pose2d.coords))


def greedy(scores, close):
    """The greedy clusters of items 0..n-1, as index lists: the free item of
    highest score, then lowest index, seeds a cluster and takes every free
    item i with close(seed, i). Each list holds the seed, then the other
    members in input order."""
    free = list(range(len(scores)))
    clusters = []
    while free:
        seed = free[0]
        for i in free:
            if scores[i] > scores[seed]:
                seed = i
        cluster = [seed] + [i for i in free if i != seed and close(seed, i)]
        clusters.append(cluster)
        taken = set(cluster)
        free = [i for i in free if i not in taken]
    return clusters


def groups(rescored, iou_threshold, joints=None):
    """Overlap groups of rescored proposals, members in input order:
    joint-box IoU with the seed >= iou_threshold."""
    boxes = [overlap_box(p.pose2d, joints) for p in rescored]
    return [sorted(g) for g in greedy([p.rescored for p in rescored],
                                      lambda seed, i: iou(boxes[seed], boxes[i]) >= iou_threshold)]


def modes(c3d, scores, t3d):
    """3D modes of poses c3d (N, J, 3), as greedy's lists: d3d to the seed
    < t3d."""
    return greedy(scores, lambda seed, i: d3d(c3d[seed], c3d[i]) < t3d)


def average(c2d, c3d, weights):
    """(score, 2D mean, 3D mean, member count) of one mode's stacks: the
    score-weighted means, or the plain means when every weight is 0."""
    total = float(weights.sum())
    if total > 0.0:
        w = weights / total
        return total, np.einsum("i,ijk->jk", w, c2d), np.einsum("i,ijk->jk", w, c3d), len(w)
    return total, c2d.mean(axis=0), c3d.mean(axis=0), len(weights)


def _finalize(detections, min_score):
    kept = [d for d in detections if min_score is None or d[0] >= min_score]
    return [kept[i] for i in sorted(range(len(kept)), key=lambda i: (-kept[i][0], i))]


def ppi(rescored, params):
    """ppi's detections of rescored proposals, as average's tuples: each
    group's modes in order, averaged, then those of score >= min_score by
    descending score, then position."""
    dets = []
    for g in groups(rescored, params.iou_threshold, params.overlap_joints):
        c2d = np.array([rescored[i].pose2d.coords for i in g])
        c3d = np.array([rescored[i].pose3d.coords for i in g])
        scores = np.array([rescored[i].rescored for i in g])
        dets += [average(c2d[m], c3d[m], scores[m]) for m in modes(c3d, scores, params.t3d)]
    return _finalize(dets, params.min_score)


def nms(rescored, params):
    """nms's detections of rescored proposals, as average's tuples: each
    group's first top-rescored member, filtered and ordered as by ppi."""
    tops = [rescored[max(g, key=lambda i: rescored[i].rescored)]
            for g in groups(rescored, params.iou_threshold, params.overlap_joints)]
    return _finalize([(p.rescored, p.pose2d.coords, p.pose3d.coords, 1) for p in tops],
                     params.min_score)


# Assertions

def assert_same(got, want):
    """got equals want bit for bit: type, attribute layout, and every field,
    arrays by dtype, shape and bytes."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    elif is_dataclass(want):
        # the pose classes keep their fields in slots: neither has a __dict__
        assert hasattr(got, "__dict__") == hasattr(want, "__dict__")
        assert [f.name for f in fields(got)] == [f.name for f in fields(want)]
        for f in fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name))
    else:
        assert got == want


def assert_label(lab, label, target):
    """A LabeledBox holds the reference's label and target exactly."""
    assert lab.class_label == label
    assert (lab.target is None) == (target is None)
    assert target is None or np.array_equal(lab.target, target)


def assert_detections(dets, expected):
    """Detections equal ppi's or nms's reference tuples exactly."""
    assert len(dets) == len(expected)
    for det, (score, mean2d, mean3d, count) in zip(dets, expected):
        assert det.score == score and det.member_count == count
        assert np.array_equal(det.pose2d.coords, mean2d)
        assert np.array_equal(det.pose3d.coords, mean3d)


def assert_same_training(got, want, rtol=0.0):
    """Two trained models are equal: the classifier half (the loss history's
    iterations and cls column, w_cls and b_cls) bit for bit, and the
    regression half (the reg and total columns, and w_reg and b_reg stacked
    as [w_reg; b_reg]) bit for bit or, with rtol > 0, within rtol times
    want's largest magnitude."""

    def close(a, b):
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        assert a.shape == b.shape
        if rtol == 0.0 or not a.size:
            assert np.array_equal(a, b)
        else:
            assert np.abs(a - b).max() <= rtol * np.abs(b).max()

    got_rows, want_rows = (np.array(m.loss_history, dtype=np.float64).reshape(-1, 4)
                           for m in (got, want))
    assert np.array_equal(got_rows[:, :2], want_rows[:, :2])
    close(got_rows[:, 2:], want_rows[:, 2:])
    for name in ("w_cls", "b_cls"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    # a slot's weights and bias are one solution [w; b], so a solver's rounding
    # scales with the whole of it; the weights alone can be 0, as one row gives
    close(*(np.vstack([m.w_reg, m.b_reg]) for m in (got, want)))
