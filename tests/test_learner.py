import tracemalloc
from dataclasses import FrozenInstanceError, fields, is_dataclass

import numpy as np
import pytest

import poseforge.learner as learner_module
from poseforge.anchors import AnchorSet
from poseforge.labeling import (
    BACKGROUND,
    LabeledBox,
    apply_regression,
    regression_target,
    smooth_l1,
    smooth_l1_grad,
)
from poseforge.learner import TrainConfig, ToyModel, _Head, model_outputs, predict, train
from poseforge.ppi import PoseProposal
from poseforge.pose import (
    H13,
    AnchorPose,
    BoundingBox,
    Pose2D,
    Pose3D,
    box_around,
    center_3d,
    denormalize_from_box,
)


def small_anchor_set(rng, n=3):
    anchors = []
    for i in range(n):
        layout = rng.uniform(0.1, 0.9, size=(13, 2))
        p3 = center_3d(H13, rng.normal(0, 0.3, (13, 3)))
        anchors.append(AnchorPose(i, Pose2D(layout), p3))
    return AnchorSet(tuple(anchors), K=n, spec=H13, seed=0)


def separable_dataset(rng, anchors, n_per_class=20, noise=0.05, dim=8):
    """Features clustered around per-class means; targets from random GTs."""
    n_classes = len(anchors) + 1
    means = rng.normal(0, 2.0, size=(n_classes, dim))
    examples, labels = [], []
    for c in range(n_classes):
        for _ in range(n_per_class):
            f = means[c] + rng.normal(0, noise, size=dim)
            if c == 0:
                lab = LabeledBox(BoundingBox(0, 0, 100, 100), 0)
            else:
                gt2d = Pose2D(rng.uniform(50, 250, (13, 2)))
                gt3d = center_3d(H13, rng.normal(0, 0.3, (13, 3)))
                box = box_around(gt2d, 0.10)
                t = regression_target(gt2d, gt3d, anchors.anchors[c - 1], box)
                lab = LabeledBox(box, c, t)
            examples.append((f, lab))
            labels.append(c)
    return examples, np.array(labels), means


def train_head_oracle(head, x, labels, targets, config, loss_history, it_offset):
    """_train_head with the regression loss taken one positive at a time."""
    n, _ = x.shape
    c = head.b_cls.shape[0]
    w = head.b_reg.shape[0] // c
    rows = np.arange(n)
    switch = int(config.decay_fraction * config.iterations)
    for it in range(config.iterations):
        lr = config.learning_rate * (1.0 if it < switch else config.decay_factor)
        probs, v = head.forward(x)
        cls_loss = float(-np.log(np.maximum(probs[rows, labels], 1e-12)).mean())
        g_logits = probs.copy()
        g_logits[rows, labels] -= 1.0
        g_logits /= n
        reg_loss = 0.0
        g_v = np.zeros_like(v)
        for i in np.where(labels != BACKGROUND)[0]:
            sl = slice(labels[i] * w, (labels[i] + 1) * w)
            err = targets[i] - v[i, sl]
            reg_loss += float(smooth_l1(err).sum())
            g_v[i, sl] = -smooth_l1_grad(err)
        reg_loss /= n
        g_v /= n
        loss_history.append((it_offset + it, cls_loss, reg_loss, cls_loss + reg_loss))
        head.w_cls -= lr * (x.T @ g_logits)
        head.b_cls -= lr * g_logits.sum(axis=0)
        head.w_reg -= lr * (x.T @ g_v)
        head.b_reg -= lr * g_v.sum(axis=0)
    return loss_history


HEAD_ARRAYS = ("w_cls", "b_cls", "w_reg", "b_reg")


def assert_close_to_max(got, want, rtol=1e-12):
    """|got - want| <= rtol times the largest magnitude in want."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestTrainMatchesPerPositiveOracle:
    # The slot products and the oracle's full GEMMs pick different BLAS
    # kernels, so they agree to rounding, not bit for bit.
    @pytest.mark.parametrize("two_pass", [False, True])
    @pytest.mark.parametrize("n_per_class,target_scale", [(6, 1.0), (15, 4.0)])
    def test_loss_history_and_weights_match(self, monkeypatch, two_pass, n_per_class,
                                            target_scale):
        rng = np.random.default_rng(20)
        anchors = small_anchor_set(rng, n=4)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=n_per_class)
        # scaled targets reach the linear branch of smooth-L1 (|err| >= 1)
        examples = [(f, lab if lab.target is None else
                     LabeledBox(lab.box, lab.class_label, lab.target * target_scale))
                    for f, lab in examples]
        rng.shuffle(examples)
        config = TrainConfig(iterations=25, learning_rate=0.7, seed=3, two_pass=two_pass)
        model = train(examples, anchors, config)
        monkeypatch.setattr(learner_module, "_train_head", train_head_oracle)
        oracle = train(examples, anchors, config)
        assert [h[0] for h in model.loss_history] == [h[0] for h in oracle.loss_history]
        assert_close_to_max([h[1:] for h in model.loss_history],
                            [h[1:] for h in oracle.loss_history])
        heads = [(model.head, oracle.head)]
        if two_pass:
            heads.append((model.refine_head, oracle.refine_head))
        for got, want in heads:
            for name in HEAD_ARRAYS:
                assert_close_to_max(getattr(got, name), getattr(want, name))

    def test_background_only(self, monkeypatch):
        rng = np.random.default_rng(21)
        anchors = small_anchor_set(rng)
        examples = [(rng.normal(0, 1, 8), LabeledBox(BoundingBox(0, 0, 10, 10), 0))
                    for _ in range(12)]
        config = TrainConfig(iterations=10, seed=1)
        model = train(examples, anchors, config)
        monkeypatch.setattr(learner_module, "_train_head", train_head_oracle)
        oracle = train(examples, anchors, config)
        assert model.loss_history == oracle.loss_history
        assert all(reg == 0.0 for _, _, reg, _ in model.loss_history)
        for name in HEAD_ARRAYS:
            assert np.array_equal(getattr(model.head, name), getattr(oracle.head, name))


class TestTrain:
    def test_separable_classes_accuracy(self):
        rng = np.random.default_rng(0)
        anchors = small_anchor_set(rng)
        examples, _, means = separable_dataset(rng, anchors)
        model = train(examples, anchors, TrainConfig(iterations=300, seed=1))
        # held-out split: fresh draws around the same means
        correct = 0
        total = 200
        for _ in range(total):
            c = int(rng.integers(0, len(means)))
            f = means[c] + rng.normal(0, 0.05, size=8)
            probs, _ = model_outputs(model, f)
            correct += int(np.argmax(probs)) == c
        assert correct / total >= 0.9

    def test_zero_iterations_equals_initialization(self):
        rng = np.random.default_rng(1)
        anchors = small_anchor_set(rng)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=4)
        cfg = TrainConfig(iterations=0, seed=42)
        model = train(examples, anchors, cfg)
        ref = _Head.init(np.random.default_rng(42), 8, len(anchors) + 1, 65,
                         cfg.init_scale)
        assert np.array_equal(model.head.w_cls, ref.w_cls)
        assert np.array_equal(model.head.w_reg, ref.w_reg)
        assert model.loss_history == []

    def test_loss_decreases(self):
        rng = np.random.default_rng(2)
        anchors = small_anchor_set(rng)
        examples, _, _ = separable_dataset(rng, anchors)
        model = train(examples, anchors, TrainConfig(iterations=200, seed=3))
        assert model.loss_history[-1][3] <= model.loss_history[0][3]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        anchors = small_anchor_set(rng)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=6)
        m1 = train(examples, anchors, TrainConfig(iterations=50, seed=5))
        m2 = train(examples, anchors, TrainConfig(iterations=50, seed=5))
        assert np.array_equal(m1.head.w_cls, m2.head.w_cls)
        assert np.array_equal(m1.head.w_reg, m2.head.w_reg)
        assert m1.loss_history == m2.loss_history

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        anchors = small_anchor_set(rng)
        # 60 = 5*12 is a valid LabeledBox target but H13 needs 5*13 = 65
        bad = [(np.zeros(8), LabeledBox(BoundingBox(0, 0, 1, 1), 1, np.zeros(60)))]
        with pytest.raises(ValueError, match="target length 60 != 65"):
            train(bad, anchors)

    def test_class_label_beyond_anchors_rejected(self):
        rng = np.random.default_rng(16)
        anchors = small_anchor_set(rng, n=2)
        # class 3 is anchor id 2, which a 2-anchor set does not have
        bad = [(np.zeros(8), LabeledBox(BoundingBox(0, 0, 1, 1), 3, np.zeros(65)))]
        with pytest.raises(ValueError, match="class label exceeds anchor count"):
            train(bad, anchors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_rejected(self, bad):
        rng = np.random.default_rng(13)
        anchors = small_anchor_set(rng)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=2)
        feature = examples[3][0].copy()
        feature[5] = bad
        examples[3] = (feature, examples[3][1])
        with pytest.raises(ValueError, match="feature row 3 is not finite"):
            train(examples, anchors, TrainConfig(iterations=5))

    def test_two_pass_refinement(self):
        rng = np.random.default_rng(5)
        anchors = small_anchor_set(rng)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=10)
        model = train(examples, anchors,
                      TrainConfig(iterations=100, seed=6, two_pass=True))
        assert model.refine_head is not None
        assert len(model.loss_history) == 200  # both passes logged
        probs, _ = model_outputs(model, examples[0][0])
        assert probs.shape == (4,)


def reg_slots(head, n_classes):
    """w_reg and b_reg as (D, C, 5*J) and (C, 5*J) per-class slots."""
    return (head.w_reg.reshape(head.w_reg.shape[0], n_classes, -1),
            head.b_reg.reshape(n_classes, -1))


class TestSlotTrainer:
    @pytest.mark.parametrize("two_pass", [False, True])
    def test_untrained_slots_keep_initial_values(self, two_pass):
        rng = np.random.default_rng(30)
        anchors = small_anchor_set(rng, n=5)
        examples, labels, _ = separable_dataset(rng, anchors, n_per_class=4)
        # classes 2 and 5 get no rows, class 4 a single one
        keep = (labels != 2) & (labels != 5) & ((labels != 4) | (np.cumsum(labels == 4) == 1))
        examples = [e for e, kept in zip(examples, keep) if kept]
        config = TrainConfig(iterations=20, seed=4, two_pass=two_pass)
        model = train(examples, anchors, config)
        c = len(anchors) + 1
        init_rng = np.random.default_rng(config.seed)
        heads = [(model.head, _Head.init(init_rng, 8, c, 65, config.init_scale))]
        if two_pass:
            refine_dim = model.refine_head.w_reg.shape[0]
            heads.append((model.refine_head,
                          _Head.init(init_rng, refine_dim, c, 65, config.init_scale)))
        for got, init in heads:
            (w_got, b_got), (w_init, b_init) = reg_slots(got, c), reg_slots(init, c)
            for k in range(c):
                untouched = k in (BACKGROUND, 2, 5)
                assert np.array_equal(w_got[:, k], w_init[:, k]) == untouched
                assert np.array_equal(b_got[k], b_init[k]) == untouched

    def test_target_reaches_only_its_own_slot(self):
        rng = np.random.default_rng(31)
        anchors = small_anchor_set(rng, n=4)
        examples, labels, _ = separable_dataset(rng, anchors, n_per_class=5)
        i = int(np.flatnonzero(labels == 3)[2])
        f, lab = examples[i]
        perturbed = list(examples)
        perturbed[i] = (f, LabeledBox(lab.box, lab.class_label, lab.target + 0.25))
        config = TrainConfig(iterations=15, seed=2)
        base, moved = train(examples, anchors, config), train(perturbed, anchors, config)
        c = len(anchors) + 1
        (w_base, b_base), (w_moved, b_moved) = reg_slots(base.head, c), reg_slots(moved.head, c)
        for k in range(c):
            assert np.array_equal(w_base[:, k], w_moved[:, k]) == (k != 3)
            assert np.array_equal(b_base[k], b_moved[k]) == (k != 3)
        assert np.array_equal(base.head.w_cls, moved.head.w_cls)

    def test_peak_memory_below_one_full_regression_buffer(self):
        # fit_heavy-sized head: 32 anchor classes, J = 13, D = 72
        rng = np.random.default_rng(32)
        anchors = small_anchor_set(rng, n=32)
        n, dim, c, w = 720, 72, 33, 65
        labels = rng.integers(0, c, size=n)
        box = BoundingBox(0, 0, 100, 100)
        examples = [(rng.normal(0, 1, dim),
                     LabeledBox(box, int(k), None if k == BACKGROUND else rng.normal(0, 0.1, w)))
                    for k in labels]
        full_buffer = n * w * c * 8
        tracemalloc.start()
        try:
            train(examples, anchors, TrainConfig(iterations=3, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_buffer, f"peak {peak} B >= one (n, 5*J*C) buffer {full_buffer} B"


class TestTrainConfig:
    @pytest.mark.parametrize("field,value,message", [
        ("iterations", -1, "iterations must be >= 0"),
        ("iterations", 2.5, "iterations must be an integer, got 2.5"),
        ("learning_rate", np.nan, "learning_rate must be finite and above 0"),
        ("learning_rate", np.inf, "learning_rate must be finite and above 0"),
        ("learning_rate", 0.0, "learning_rate must be finite and above 0"),
        ("decay_factor", np.nan, "decay_factor must be finite and above 0"),
        ("decay_factor", -0.1, "decay_factor must be finite and above 0"),
        ("decay_fraction", 1.5, r"decay_fraction must be in \[0, 1\]"),
        ("decay_fraction", np.nan, r"decay_fraction must be in \[0, 1\]"),
        ("init_scale", -0.01, "init_scale must be finite and >= 0"),
        ("init_scale", np.inf, "init_scale must be finite and >= 0"),
    ])
    def test_bad_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_bounds_accepted(self):
        TrainConfig(iterations=0, decay_fraction=0.0, init_scale=0.0)
        TrainConfig(decay_fraction=1.0, decay_factor=2.0)


class TestPredict:
    def test_one_proposal_per_anchor(self):
        rng = np.random.default_rng(6)
        anchors = small_anchor_set(rng)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=10)
        model = train(examples, anchors, TrainConfig(iterations=100, seed=7))
        proposals = predict(model, examples[0][0], BoundingBox(10, 10, 200, 300), anchors)
        assert len(proposals) == len(anchors)
        assert [p.anchor_id for p in proposals] == [0, 1, 2]

    def test_scores_form_subdistribution(self):
        rng = np.random.default_rng(7)
        anchors = small_anchor_set(rng)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=8)
        model = train(examples, anchors, TrainConfig(iterations=50, seed=8))
        proposals = predict(model, rng.normal(0, 1, 8), BoundingBox(0, 0, 100, 100), anchors)
        scores = [p.score for p in proposals]
        assert all(0.0 < s < 1.0 for s in scores)
        assert sum(scores) <= 1.0

    def test_engineered_feature_selects_class(self):
        rng = np.random.default_rng(8)
        anchors = small_anchor_set(rng)
        examples, _, means = separable_dataset(rng, anchors, n_per_class=25)
        model = train(examples, anchors, TrainConfig(iterations=400, seed=9))
        target_class = 2  # anchor id 1
        proposals = predict(model, means[target_class],
                            BoundingBox(0, 0, 100, 100), anchors)
        top = max(proposals, key=lambda p: p.score)
        assert top.anchor_id == target_class - 1

    def test_regression_learns_round_trip(self):
        # one class, constant feature, constant target: regressor must fit it
        rng = np.random.default_rng(9)
        anchors = small_anchor_set(rng, n=1)
        gt2d = Pose2D(rng.uniform(50, 250, (13, 2)))
        gt3d = center_3d(H13, rng.normal(0, 0.3, (13, 3)))
        box = box_around(gt2d, 0.10)
        t = regression_target(gt2d, gt3d, anchors.anchors[0], box)
        f = np.ones(4)
        examples = [(f, LabeledBox(box, 1, t))] * 10
        examples += [(np.zeros(4) - 1.0, LabeledBox(BoundingBox(500, 500, 600, 600), 0))] * 10
        model = train(examples, anchors, TrainConfig(iterations=2000, learning_rate=1.0, seed=10))
        proposals = predict(model, f, box, anchors)
        assert np.abs(proposals[0].pose2d.coords - gt2d.coords).max() < 2.0  # pixels
        assert np.abs(proposals[0].pose3d.coords - gt3d.coords).max() < 0.05  # meters

    def test_matches_per_anchor_apply_regression(self):
        rng = np.random.default_rng(10)
        anchors = small_anchor_set(rng, n=5)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=6)
        model = train(examples, anchors, TrainConfig(iterations=30, seed=11))
        w = model.slot_width
        for _ in range(5):
            feature = rng.normal(0, 2.0, 8)
            box = BoundingBox(*rng.uniform(0, 100, 2), *rng.uniform(150, 300, 2))
            probs, v = model_outputs(model, feature)
            proposals = predict(model, feature, box, anchors)
            for a, p in zip(anchors.anchors, proposals):
                c = a.id + 1
                residual = v[c * w:(c + 1) * w]
                pose2d, pose3d = apply_regression(a, box, residual)
                # the per-anchor reference, written out: layout + residual in
                # unit-box coordinates, then placed into the box
                placed = denormalize_from_box(
                    Pose2D(a.pose2d.coords + residual[:26].reshape(13, 2)), box)
                assert p.anchor_id == a.id and p.box == box
                assert p.score == probs[c]
                assert np.array_equal(p.pose2d.coords, pose2d.coords)
                assert np.array_equal(p.pose2d.coords, placed.coords)
                assert np.array_equal(p.pose3d.coords, pose3d.coords)
                assert np.array_equal(p.pose3d.coords,
                                      a.pose3d.coords + residual[26:].reshape(13, 3))

    @pytest.mark.parametrize("two_pass", [False, True])
    def test_non_finite_feature_rejected(self, two_pass):
        rng = np.random.default_rng(14)
        anchors = small_anchor_set(rng)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5, two_pass=two_pass))
        feature = np.zeros(8)
        feature[2] = np.nan
        with pytest.raises(ValueError, match="feature row 0 is not finite"):
            model_outputs(model, feature)
        with pytest.raises(ValueError, match="feature row 0 is not finite"):
            predict(model, feature, BoundingBox(0, 0, 10, 10), anchors)

    def test_proposal_poses_are_read_only(self):
        rng = np.random.default_rng(15)
        anchors = small_anchor_set(rng)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5))
        layouts = anchors.coords2d
        assert anchors.coords2d is layouts and not layouts.flags.writeable
        assert np.array_equal(layouts, np.stack([a.pose2d.coords for a in anchors.anchors]))
        proposals = predict(model, np.ones(8), BoundingBox(0, 0, 10, 10), anchors)
        for p in proposals:
            assert not p.pose2d.coords.flags.writeable and p.pose2d.visibility.all()
            assert not p.pose3d.coords.flags.writeable

    def test_proposals_equal_public_constructions(self):
        rng = np.random.default_rng(16)
        anchors = small_anchor_set(rng, n=4)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5, seed=17))
        feature, box = rng.normal(0, 1, 8), BoundingBox(5, 10, 60, 140)
        probs, v = model_outputs(model, feature)
        w = model.slot_width
        proposals = predict(model, feature, box, anchors)
        assert len(proposals) == 4
        for a, p in zip(anchors.anchors, proposals):
            c = a.id + 1
            pose2d, pose3d = apply_regression(a, box, v[c * w:(c + 1) * w])
            assert_same(p, PoseProposal(a.id, box, Pose2D(pose2d.coords),
                                        Pose3D(pose3d.coords), float(probs[c])))
            with pytest.raises(FrozenInstanceError):
                p.score = 0.0
            with pytest.raises(FrozenInstanceError):
                p.pose3d.coords = np.zeros((13, 3))
            state = (model.head.w_cls, model.head.b_cls, model.head.w_reg, model.head.b_reg,
                     anchors.coords2d, anchors.coords3d, a.pose2d.coords, a.pose3d.coords)
            for arr in (p.pose2d.coords, p.pose2d.visibility, p.pose3d.coords):
                assert not arr.flags.writeable
                assert not any(np.shares_memory(arr, other) for other in state)

    @pytest.mark.parametrize("weight, column, message", [
        ("w_cls", 1, r"score must be in \[0, 1\], got nan"),  # an inf logit: NaN probabilities
        ("w_reg", 65, "visible joints must have finite coordinates"),  # anchor 0's 2D x0
        ("w_reg", 65 + 26, "3D coordinates must be finite"),  # anchor 0's 3D x0
    ])
    def test_non_finite_weight_rejected(self, weight, column, message):
        rng = np.random.default_rng(18)
        anchors = small_anchor_set(rng)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5, seed=19))
        getattr(model.head, weight)[0, column] = np.inf
        with pytest.raises(ValueError, match=message):
            predict(model, np.ones(8), BoundingBox(0, 0, 10, 10), anchors)

    def test_anchor_set_larger_than_model_rejected(self):
        rng = np.random.default_rng(11)
        anchors = small_anchor_set(rng, n=2)
        examples, _, _ = separable_dataset(rng, anchors, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5, seed=12))
        with pytest.raises(ValueError, match="3 anchors of 13 joints do not fit"):
            predict(model, np.zeros(8), BoundingBox(0, 0, 10, 10), small_anchor_set(rng, n=3))


def assert_same(got, want):
    """got equals want bit for bit: type, attribute layout, and every field,
    arrays by dtype, shape and bytes."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    elif is_dataclass(want):
        assert list(vars(got)) == list(vars(want))
        for f in fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name))
    else:
        assert got == want
