import tracemalloc
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poseforge.learner as learner_module
import reference as ref
from poseforge.anchors import AnchorSet, add_upper_body_variants
from poseforge.labeling import BACKGROUND, LabeledBox, apply_regression, regression_target
from poseforge.learner import ToyModel, TrainConfig, predict, train
from poseforge.ppi import PoseProposal, ppi
from poseforge.pose import H13, BoundingBox, Pose2D, Pose3D


# The package solves each slot's normal equations with np.linalg.solve and
# the reference the stacked least-squares system with np.linalg.lstsq, so
# the solved slots agree to rounding, amplified by the systems' condition
# numbers. Over 3,000 random draws of the property below the largest gap
# was 3e-12 of the largest weight.
RIDGE_RTOL = 1e-8


def stacked(examples, model):
    """The (n, D) features, (n,) classifier columns of the model and
    (n, 5*J) targets, 0 on the background rows, that train builds from
    (feature, labeled box) pairs; the columns come from reference.column."""
    x = np.stack([f for f, _ in examples])
    labels = np.array([ref.column(model, lab.class_label) for _, lab in examples])
    targets = np.zeros((len(examples), 65))
    for i, (_, lab) in enumerate(examples):
        if lab.target is not None:
            targets[i] = lab.target
    return x, labels, targets


class TestTrainMatchesPerPositiveOracle:
    # The loss history's reg column is the smooth-L1 loss of the trained
    # model's full x @ w_reg, taken one positive at a time.
    @pytest.mark.parametrize("n_per_class,target_scale", [(6, 1.0), (15, 4.0)])
    def test_loss_history_and_weights_match(self, monkeypatch, n_per_class, target_scale):
        rng = np.random.default_rng(20)
        anchors = ref.anchor_set(rng, 4)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=n_per_class)
        # scaled targets reach the linear branch of smooth-L1 (|err| >= 1)
        examples = [(f, lab if lab.target is None else
                     LabeledBox(lab.class_label, lab.target * target_scale))
                    for f, lab in examples]
        rng.shuffle(examples)
        config = TrainConfig(iterations=25, learning_rate=0.7, seed=3)
        model = train(examples, anchors, config)
        reg = ref.regression_loss_per_positive(model, *stacked(examples, model))
        for it, cls, reg_it, total in model.loss_history:
            assert reg_it == pytest.approx(reg, rel=1e-12, abs=0.0) and total == cls + reg_it
        monkeypatch.setattr(learner_module, "_train_head", ref.train_head_ridge)
        ref.assert_same_training(model, train(examples, anchors, config), rtol=RIDGE_RTOL)

    def test_background_only(self, monkeypatch):
        rng = np.random.default_rng(21)
        anchors = ref.anchor_set(rng, 3)
        examples = [(rng.normal(0, 1, 8), LabeledBox(0)) for _ in range(12)]
        config = TrainConfig(iterations=10, seed=1)
        model = train(examples, anchors, config)
        monkeypatch.setattr(learner_module, "_train_head", ref.train_head_ridge)
        ref.assert_same_training(model, train(examples, anchors, config))
        assert all(reg == 0.0 for _, _, reg, _ in model.loss_history)


SLOT_ORACLE_CASES = [("mixed", 25), ("mixed", 0), ("sparse_classes", 25),
                     ("background_only", 25), ("foreground_only", 25),
                     ("linear_branch", 25), ("large", 25)]


def slot_oracle_examples(case):
    """Shuffled examples over 5 anchors for one TestTrainMatchesSlotOracle case."""
    rng = np.random.default_rng(40)
    anchors = ref.anchor_set(rng, 5)
    # 130 rows a class: one (n, 5*J) float64 buffer is 780 * 65 * 8 B > 256 KB
    examples, labels, _ = ref.separable_dataset(rng, anchors,
                                                n_per_class=130 if case == "large" else 6)
    keep = {
        "mixed": labels >= 0,
        "large": labels >= 0,
        "linear_branch": labels >= 0,
        # classes 2 and 5 get no rows, class 4 a single one
        "sparse_classes": ((labels != 2) & (labels != 5)
                           & ((labels != 4) | (np.cumsum(labels == 4) == 1))),
        "background_only": labels == BACKGROUND,
        "foreground_only": labels != BACKGROUND,
    }[case]
    examples = [e for e, kept in zip(examples, keep) if kept]
    if case == "linear_branch":  # |err| >= 1 for most coordinates
        examples = [(f, lab if lab.target is None else
                     LabeledBox(lab.class_label, lab.target * 4.0))
                    for f, lab in examples]
    rng.shuffle(examples)
    return anchors, examples


class TestTrainMatchesSlotOracle:
    # The classifier agrees bit for bit, the solved slots within RIDGE_RTOL.
    @pytest.mark.parametrize("case,iterations", SLOT_ORACLE_CASES)
    def test_loss_history_and_weights_equal(self, monkeypatch, case, iterations):
        anchors, examples = slot_oracle_examples(case)
        config = TrainConfig(iterations=iterations, learning_rate=0.7, seed=3)
        model = train(examples, anchors, config)
        monkeypatch.setattr(learner_module, "_train_head", ref.train_head_ridge)
        assert [row[0] for row in model.loss_history] == list(range(iterations))
        ref.assert_same_training(model, train(examples, anchors, config), rtol=RIDGE_RTOL)

    def test_gaps_in_the_labeled_ids(self):
        # only anchors 1 and 4 of 5 are labeled; the reference model takes its
        # columns from the expected ids, not from train's map of the labels
        anchors, examples = slot_oracle_examples("mixed")
        examples = [e for e in examples if e[1].class_label in (BACKGROUND, 2, 5)]
        config = TrainConfig(iterations=25, learning_rate=0.7, seed=3)
        model = train(examples, anchors, config)
        want = ref.initial_model(config.seed, 8, [1, 4], 65)
        ref.train_head_ridge(want, *stacked(examples, want), config)
        assert model.fitted.tolist() == [1, 4]
        ref.assert_same_training(model, want, rtol=RIDGE_RTOL)


@st.composite
def label_layouts(draw):
    """(n_anchors, labels): labels drawn from a random subset of the classes,
    so slots can be empty or hold one row, and the whole set can be
    background-only or foreground-only."""
    n_anchors = draw(st.integers(1, 6))
    used = sorted(draw(st.sets(st.integers(0, n_anchors), min_size=1)))
    labels = draw(st.lists(st.sampled_from(used), min_size=1, max_size=40))
    return n_anchors, labels


class TestTrainMatchesSlotOracleProperty:
    # The classifier agrees bit for bit, the solved slots within RIDGE_RTOL.
    @settings(max_examples=60, deadline=None)
    @given(layout=label_layouts(), dim=st.integers(1, 12), iterations=st.integers(0, 5),
           target_scale=st.sampled_from([0.1, 4.0]), seed=st.integers(0, 2**32 - 1))
    def test_loss_history_and_weights_equal(self, layout, dim, iterations, target_scale, seed):
        n_anchors, labels = layout
        rng = np.random.default_rng(seed)
        anchors = ref.anchor_set(rng, n_anchors)
        examples = [(rng.normal(0, 1, dim),
                     LabeledBox(k, None if k == BACKGROUND else rng.normal(0, target_scale, 65)))
                    for k in labels]
        config = TrainConfig(iterations=iterations, learning_rate=0.7, seed=seed % 1000)
        model = train(examples, anchors, config)
        with mock.patch.object(learner_module, "_train_head", ref.train_head_ridge):
            ref.assert_same_training(model, train(examples, anchors, config), rtol=RIDGE_RTOL)

    @settings(max_examples=60, deadline=None)
    @given(layout=label_layouts(), dim=st.integers(1, 12),
           target_scale=st.sampled_from([0.1, 4.0]), seed=st.integers(0, 2**32 - 1))
    def test_gradient_of_each_slot_objective_is_zero(self, layout, dim, target_scale, seed):
        # Solving in floating point leaves a gradient of a few ulps of the
        # magnitudes it sums; over 3,000 random draws the largest was 3e-16.
        n_anchors, labels = layout
        rng = np.random.default_rng(seed)
        anchors = ref.anchor_set(rng, n_anchors)
        examples = [(rng.normal(0, 1, dim),
                     LabeledBox(k, None if k == BACKGROUND else rng.normal(0, target_scale, 65)))
                    for k in labels]
        model = train(examples, anchors, TrainConfig(iterations=0, seed=seed % 1000))
        x, columns, targets = stacked(examples, model)
        for k in set(columns.tolist()) - {BACKGROUND}:
            grad, scale = ref.ridge_gradient(model, x, columns, targets, k)
            assert np.abs(grad).max() <= 1e-12 * scale.max()


class TestFittedAnchors:
    @settings(max_examples=40, deadline=None)
    @given(layout=label_layouts(), seed=st.integers(0, 2**32 - 1))
    def test_train_records_the_labeled_anchor_ids(self, layout, seed):
        n_anchors, labels = layout
        rng = np.random.default_rng(seed)
        anchors = ref.anchor_set(rng, n_anchors)
        examples = [(rng.normal(0, 1, 4),
                     LabeledBox(k, None if k == BACKGROUND else rng.normal(0, 1, 65)))
                    for k in labels]
        model = train(examples, anchors, TrainConfig(iterations=1, seed=seed % 1000))
        assert model.fitted.tolist() == sorted({k - 1 for k in labels if k != BACKGROUND})
        assert model.fitted.dtype.kind == "i" and not model.fitted.flags.writeable
        # one classifier column for the background and one per fitted anchor
        assert model.w_cls.shape == (4, len(model.fitted) + 1)

    def test_kept_as_a_read_only_copy(self):
        init = ref.initial_model(0, 4, [0, 2, 3], 65)
        ids = np.array([0, 2, 3])
        model = ToyModel(init.w_cls, init.b_cls, init.w_reg, init.b_reg, ids)
        ids[0] = 1
        assert model.fitted.tolist() == [0, 2, 3] and not model.fitted.flags.writeable
        assert ref.initial_model(0, 4, [], 65).fitted.size == 0

    @pytest.mark.parametrize("fitted, message", [
        # a model does not know its anchor set: ids 0 to 3 index these 4 anchors
        ([0, 4], "fitted anchor id 4 is not an index of the 4 anchors"),
        ([-1, 2], r"fitted anchor ids must be ascending, unique and at least 0, got \[-1, 2\]"),
        ([2, 1], r"fitted anchor ids must be ascending, unique and at least 0, got \[2, 1\]"),
        ([1, 1, 3], r"must be ascending, unique and at least 0, got \[1, 1, 3\]"),
        ([0.0, 1.0], "fitted must be a vector of integer anchor ids, got float64 of shape"),
        ([[0, 1]], r"fitted must be a vector of integer anchor ids, got int64 of shape \(1, 2\)"),
    ], ids=["above", "below", "unsorted", "repeated", "float", "matrix"])
    def test_bad_ids_rejected(self, fitted, message):
        # each case but "above" raises in ToyModel, before predict is reached
        anchors = ref.anchor_set(np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match=message):
            model = ref.initial_model(0, 4, fitted, 65)
            predict(model, np.zeros(4), BoundingBox(0, 0, 10, 10), anchors)

    @pytest.mark.parametrize("case", ["sparse_classes", "mixed", "background_only"])
    def test_w_reg_holds_one_slot_per_fitted_anchor(self, case):
        # slot s of w_reg and b_reg is the ridge solution of anchor fitted[s]
        anchors, examples = slot_oracle_examples(case)
        model = train(examples, anchors, TrainConfig(iterations=2, seed=3))
        x, _, targets = stacked(examples, model)
        labels = np.array([lab.class_label for _, lab in examples])
        f = len(model.fitted)
        assert f == {"sparse_classes": 3, "mixed": 5, "background_only": 0}[case]
        assert model.w_reg.shape == (8, 65 * f) and model.b_reg.shape == (65 * f,)
        for s, i in enumerate(model.fitted):
            got = np.vstack([model.w_reg[:, s * 65:(s + 1) * 65], model.b_reg[s * 65:(s + 1) * 65]])
            want = ref.ridge_solution(x, labels, targets, i + 1)
            assert np.abs(got - want).max() <= RIDGE_RTOL * np.abs(want).max()


class TestTrain:
    def test_separable_classes_accuracy(self):
        rng = np.random.default_rng(0)
        anchors = ref.anchor_set(rng, 3)
        examples, _, means = ref.separable_dataset(rng, anchors)
        model = train(examples, anchors, TrainConfig(iterations=300, seed=1))
        # held-out split: fresh draws around the same means
        correct = 0
        total = 200
        for _ in range(total):
            c = int(rng.integers(0, len(means)))
            f = means[c] + rng.normal(0, 0.05, size=8)
            correct += int(np.argmax(model.class_probs(f))) == c
        assert correct / total >= 0.9

    def test_zero_iterations_leave_the_classifier_at_initialization(self):
        rng = np.random.default_rng(1)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=4)
        cfg = TrainConfig(iterations=0, seed=42)
        model = train(examples, anchors, cfg)
        # the classifier and an empty loss history; the slots are solved all the same
        init = ref.initial_model(42, 8, range(len(anchors)), 65)
        assert model.loss_history == []
        assert np.array_equal(model.w_cls, init.w_cls) and np.array_equal(model.b_cls, init.b_cls)
        ref.train_head_ridge(init, *stacked(examples, init), cfg)
        ref.assert_same_training(model, init, rtol=RIDGE_RTOL)

    def test_loss_decreases(self):
        rng = np.random.default_rng(2)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors)
        config = TrainConfig(iterations=200, seed=3)
        model = train(examples, anchors, config)
        assert model.loss_history[-1][1] <= model.loss_history[0][1]
        # the solved slots fit the targets better than zero slots do
        init = ref.initial_model(config.seed, 8, range(len(anchors)), 65)
        stack = stacked(examples, init)
        reg = model.loss_history[0][2]
        assert reg == pytest.approx(ref.regression_loss_per_positive(model, *stack), rel=1e-12)
        assert reg < ref.regression_loss_per_positive(init, *stack)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=6)
        m1 = train(examples, anchors, TrainConfig(iterations=50, seed=5))
        m2 = train(examples, anchors, TrainConfig(iterations=50, seed=5))
        assert np.array_equal(m1.w_cls, m2.w_cls)
        assert np.array_equal(m1.w_reg, m2.w_reg)
        assert m1.loss_history == m2.loss_history

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        anchors = ref.anchor_set(rng, 3)
        # 60 = 5*12 is a valid LabeledBox target but H13 needs 5*13 = 65
        bad = [(np.zeros(8), LabeledBox(1, np.zeros(60)))]
        with pytest.raises(ValueError, match="target length 60 != 65"):
            train(bad, anchors)

    def test_class_label_beyond_anchors_rejected(self):
        rng = np.random.default_rng(16)
        anchors = ref.anchor_set(rng, 2)
        # class 3 is anchor id 2, which a 2-anchor set does not have
        bad = [(np.zeros(8), LabeledBox(3, np.zeros(65)))]
        with pytest.raises(ValueError, match="class label exceeds anchor count"):
            train(bad, anchors)

    def test_no_examples_rejected(self):
        with pytest.raises(ValueError, match="no training examples"):
            train([], ref.anchor_set(np.random.default_rng(17), 3))

    @pytest.mark.parametrize("bad", [np.zeros(7), np.zeros(9), np.float64(0.0)])
    def test_features_of_unequal_length_rejected(self, bad):
        rng = np.random.default_rng(18)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=2)
        examples[5] = (bad, examples[5][1])
        with pytest.raises(ValueError, match="features must be fixed-dimension vectors"):
            train(examples, anchors, TrainConfig(iterations=2))

    def test_empty_anchor_set_rejected(self):
        empty = AnchorSet((), K=0, spec=H13)
        examples = [(np.zeros(8), LabeledBox(BACKGROUND))] * 3
        with pytest.raises(ValueError, match="empty anchor set"):
            train(examples, empty, TrainConfig(iterations=2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_rejected(self, bad):
        rng = np.random.default_rng(13)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=2)
        feature = examples[3][0].copy()
        feature[5] = bad
        examples[3] = (feature, examples[3][1])
        with pytest.raises(ValueError, match="feature row 3 is not finite"):
            train(examples, anchors, TrainConfig(iterations=5))

    # one case, whose id keeps its parameters (as SLOT_ORACLE_CASES' ids do);
    # the background-only features are the next test's
    @pytest.mark.parametrize("background_only, message", [
        (False, "the ridge systems are not finite"),  # X~^T X~ overflows first
    ])
    def test_overflowing_features_rejected(self, background_only, message):
        # finite features whose products overflow: one ValueError and, as the
        # suite turns warnings into errors, no numpy warning on the way
        rng = np.random.default_rng(19)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=2)
        examples = [(1e200 * rng.normal(0, 1, 8), LabeledBox(BACKGROUND) if background_only
                     else lab) for _, lab in examples]
        with pytest.raises(ValueError, match=f"training failed: {message}"):
            train(examples, anchors, TrainConfig(iterations=5))

    def test_overflowing_background_only_features_train_one_column(self):
        # The same features, all background: the one column's probability is
        # 1 and its gradient 0 whatever the logits, so nothing overflows.
        rng = np.random.default_rng(19)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=2)
        examples = [(1e200 * rng.normal(0, 1, 8), LabeledBox(BACKGROUND)) for _ in examples]
        model = train(examples, anchors, TrainConfig(iterations=5))
        assert model.w_cls.shape == (8, 1) and model.w_reg.shape == (8, 0)
        assert [row[1:] for row in model.loss_history] == [(0.0, 0.0, 0.0)] * 5
        assert predict(model, examples[0][0], BoundingBox(0, 0, 10, 10), anchors) == []

    def test_overflowing_ridge_systems_blame_the_features_alone(self):
        # the ridge solve takes no learning rate, so its hint names none
        rng = np.random.default_rng(19)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=2)
        examples = [(1e200 * rng.normal(0, 1, 8), lab) for _, lab in examples]
        with pytest.raises(ValueError) as raised:
            train(examples, anchors, TrainConfig(iterations=5))
        assert str(raised.value) == ("training failed: the ridge systems are not finite (features "
                                     "whose products overflow; no learning rate enters the ridge "
                                     "solve)")

    def test_diverging_classifier_blames_the_features_or_the_learning_rate(self):
        # unit-scale features, finite ridge systems: only the step overflows
        rng = np.random.default_rng(19)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=2)
        with pytest.raises(ValueError) as raised:
            train(examples, anchors, TrainConfig(iterations=5, learning_rate=1e308))
        assert str(raised.value) == ("training failed: the loss curve is not finite (features "
                                     "whose products overflow, or too large a learning rate?)")

    def test_diverging_classifier_rejected(self):
        # steps near the largest float overflow the classifier's weights
        rng = np.random.default_rng(19)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=2)
        with pytest.raises(ValueError, match="training failed: the loss curve is not finite"):
            train(examples, anchors, TrainConfig(iterations=5, learning_rate=1e308))


def reg_slots(model):
    """w_reg and b_reg as (D, F, 5*J) and (F, 5*J) slots, one per fitted id."""
    f = len(model.fitted)
    return model.w_reg.reshape(model.w_reg.shape[0], f, -1), model.b_reg.reshape(f, -1)


class TestSlotTrainer:
    def test_target_reaches_only_its_own_slot(self):
        rng = np.random.default_rng(31)
        anchors = ref.anchor_set(rng, 4)
        examples, labels, _ = ref.separable_dataset(rng, anchors, n_per_class=5)
        i = int(np.flatnonzero(labels == 3)[2])
        f, lab = examples[i]
        perturbed = list(examples)
        perturbed[i] = (f, LabeledBox(lab.class_label, lab.target + 0.25))
        config = TrainConfig(iterations=15, seed=2)
        base, moved = train(examples, anchors, config), train(perturbed, anchors, config)
        assert base.fitted.tolist() == moved.fitted.tolist() == [0, 1, 2, 3]
        (w_base, b_base), (w_moved, b_moved) = reg_slots(base), reg_slots(moved)
        for s, i in enumerate(base.fitted):  # class 3 is anchor id 2
            assert np.array_equal(w_base[:, s], w_moved[:, s]) == (i != 2)
            assert np.array_equal(b_base[s], b_moved[s]) == (i != 2)
        assert np.array_equal(base.w_cls, moved.w_cls)

    def test_peak_memory_below_one_full_regression_buffer(self):
        # fit_heavy-sized head: 32 anchor classes, J = 13, D = 72
        rng = np.random.default_rng(32)
        anchors = ref.anchor_set(rng, 32)
        n, dim, c, w = 720, 72, 33, 65
        labels = rng.integers(0, c, size=n)
        examples = [(rng.normal(0, 1, dim),
                     LabeledBox(int(k), None if k == BACKGROUND else rng.normal(0, 0.1, w)))
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
        ("seed", None, "seed must be an integer, got None"),
        ("seed", True, "seed must be an integer, got True"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("learning_rate", np.nan, "learning_rate must be finite and above 0"),
        ("learning_rate", np.inf, "learning_rate must be finite and above 0"),
        ("learning_rate", 0.0, "learning_rate must be finite and above 0"),
    ])
    def test_bad_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_bounds_accepted(self):
        TrainConfig(iterations=0, seed=0)
        TrainConfig(learning_rate=5e-324)


def outputs(model, feature):
    """reference._forward of one feature vector: its class probabilities
    and regression output."""
    probs, v = ref._forward(model, np.asarray(feature, dtype=np.float64)[None])
    return probs[0], v[0]


class TestPredict:
    def test_one_proposal_per_anchor(self):
        rng = np.random.default_rng(6)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=10)
        # every class has training boxes, so every anchor is fitted
        model = train(examples, anchors, TrainConfig(iterations=100, seed=7))
        proposals = predict(model, examples[0][0], BoundingBox(10, 10, 200, 300), anchors)
        assert len(proposals) == len(anchors)
        assert [p.anchor_id for p in proposals] == [0, 1, 2]

    def test_unlabeled_class_gets_no_proposal(self):
        # classes 2 and 5 (anchor ids 1 and 4) get no rows, class 4 a single one
        anchors, examples = slot_oracle_examples("sparse_classes")
        model = train(examples, anchors, TrainConfig(iterations=25, learning_rate=0.7, seed=3))
        assert model.fitted.tolist() == [0, 2, 3]
        rng = np.random.default_rng(41)
        w = 65
        for _ in range(5):
            feature = rng.normal(0, 2.0, 8)
            box = BoundingBox(*rng.uniform(0, 100, 2), *rng.uniform(150, 300, 2))
            probs, v = outputs(model, feature)
            proposals = predict(model, feature, box, anchors)
            assert [p.anchor_id for p in proposals] == [0, 2, 3]
            assert abs(sum(p.score for p in proposals) + probs[BACKGROUND] - 1.0) <= 1e-12
            for s, p in enumerate(proposals):  # column s + 1 and slot s are anchor fitted[s]
                pose2d, pose3d = apply_regression(anchors.anchors[p.anchor_id], box,
                                                  v[s * w:(s + 1) * w])
                ref.assert_same(p, PoseProposal(p.anchor_id, box, Pose2D(pose2d.coords),
                                                Pose3D(pose3d.coords), float(probs[s + 1])))

    def test_background_only_training_proposes_nothing(self):
        rng = np.random.default_rng(22)
        anchors = ref.anchor_set(rng, 3)
        examples = [(rng.normal(0, 1, 8), LabeledBox(BACKGROUND)) for _ in range(12)]
        model = train(examples, anchors, TrainConfig(iterations=10, seed=1))
        assert model.fitted.size == 0
        proposals = predict(model, rng.normal(0, 1, 8), BoundingBox(0, 0, 100, 100), anchors)
        assert proposals == [] and ppi(proposals) == []

    @settings(max_examples=40, deadline=None)
    @given(layout=label_layouts(), seed=st.integers(0, 2**32 - 1))
    def test_scores_and_background_sum_to_one(self, layout, seed):
        n_anchors, labels = layout
        rng = np.random.default_rng(seed)
        anchors = ref.anchor_set(rng, n_anchors)
        examples = [(rng.normal(0, 1, 4),
                     LabeledBox(k, None if k == BACKGROUND else rng.normal(0, 1, 65)))
                    for k in labels]
        model = train(examples, anchors, TrainConfig(iterations=3, seed=seed % 1000))
        feature = rng.normal(0, 2.0, 4)
        probs = model.class_probs(feature)
        proposals = predict(model, feature, BoundingBox(0, 0, 100, 100), anchors)
        # proposal s is anchor fitted[s] and carries column s + 1's probability
        assert [p.anchor_id for p in proposals] == model.fitted.tolist()
        assert [p.score for p in proposals] == probs[1:].tolist()
        assert abs(sum(p.score for p in proposals) + probs[BACKGROUND] - 1.0) <= 1e-12

    def test_scores_form_subdistribution(self):
        rng = np.random.default_rng(7)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=8)
        model = train(examples, anchors, TrainConfig(iterations=50, seed=8))
        proposals = predict(model, rng.normal(0, 1, 8), BoundingBox(0, 0, 100, 100), anchors)
        scores = [p.score for p in proposals]
        assert all(0.0 < s < 1.0 for s in scores)
        assert sum(scores) <= 1.0

    def test_engineered_feature_selects_class(self):
        rng = np.random.default_rng(8)
        anchors = ref.anchor_set(rng, 3)
        examples, _, means = ref.separable_dataset(rng, anchors, n_per_class=25)
        model = train(examples, anchors, TrainConfig(iterations=400, seed=9))
        target_class = 2  # anchor id 1
        proposals = predict(model, means[target_class],
                            BoundingBox(0, 0, 100, 100), anchors)
        top = max(proposals, key=lambda p: p.score)
        assert top.anchor_id == target_class - 1

    def test_regression_learns_round_trip(self):
        # one class, constant feature, constant target: regressor must fit it
        rng = np.random.default_rng(9)
        anchors = ref.anchor_set(rng, 1)
        gt2d = Pose2D(rng.uniform(50, 250, (13, 2)))
        gt3d = ref.pose3d(rng)
        box = ref.visible_box(gt2d)
        t = regression_target(gt2d, gt3d, anchors.anchors[0], box)
        f = np.ones(4)
        examples = [(f, LabeledBox(1, t))] * 10
        examples += [(np.zeros(4) - 1.0, LabeledBox(0))] * 10
        model = train(examples, anchors, TrainConfig(iterations=2000, learning_rate=1.0, seed=10))
        proposals = predict(model, f, box, anchors)
        assert np.abs(proposals[0].pose2d.coords - gt2d.coords).max() < 2.0  # pixels
        assert np.abs(proposals[0].pose3d.coords - gt3d.coords).max() < 0.05  # meters

    def test_matches_per_anchor_apply_regression(self):
        rng = np.random.default_rng(10)
        anchors = ref.anchor_set(rng, 5)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=6)
        model = train(examples, anchors, TrainConfig(iterations=30, seed=11))
        assert model.fitted.tolist() == [0, 1, 2, 3, 4]  # so anchor i's slot is slot i
        w = 65
        for _ in range(5):
            feature = rng.normal(0, 2.0, 8)
            box = BoundingBox(*rng.uniform(0, 100, 2), *rng.uniform(150, 300, 2))
            probs, v = outputs(model, feature)
            proposals = predict(model, feature, box, anchors)
            expected = ref.predict(model, feature, box, anchors)
            for i, (a, p, (aid, score, placed, moved)) in enumerate(
                    zip(anchors.anchors, proposals, expected)):
                c = i + 1
                pose2d, pose3d = apply_regression(a, box, v[i * w:(i + 1) * w])
                assert p.anchor_id == i == aid and p.box == box
                assert p.score == probs[c] == score
                assert np.array_equal(p.pose2d.coords, pose2d.coords)
                assert np.array_equal(p.pose2d.coords, placed)
                assert np.array_equal(p.pose3d.coords, pose3d.coords)
                assert np.array_equal(p.pose3d.coords, moved)

    def test_non_finite_feature_rejected(self):
        rng = np.random.default_rng(14)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5))
        feature = np.zeros(8)
        feature[2] = np.nan
        with pytest.raises(ValueError, match="feature row 0 is not finite"):
            predict(model, feature, BoundingBox(0, 0, 10, 10), anchors)

    def test_proposal_poses_are_read_only(self):
        rng = np.random.default_rng(15)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=4)
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
        anchors = ref.anchor_set(rng, 4)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=4)
        feature = rng.normal(0, 1, 8)
        # the huge box gives finite coordinates whose sum overflows
        model = train(examples, anchors, TrainConfig(iterations=5, seed=17))
        probs, v = outputs(model, feature)
        w = 65
        weights = [model.w_cls, model.b_cls, model.w_reg, model.b_reg]
        for box in (BoundingBox(5, 10, 60, 140), BoundingBox(0, 0, 1e307, 1e307)):
            proposals = predict(model, feature, box, anchors)
            assert len(proposals) == 4  # every anchor is fitted: anchor i's slot is slot i
            for i, (a, p) in enumerate(zip(anchors.anchors, proposals)):
                c = i + 1
                pose2d, pose3d = apply_regression(a, box, v[i * w:(i + 1) * w])
                ref.assert_same(p, PoseProposal(i, box, Pose2D(pose2d.coords),
                                            Pose3D(pose3d.coords), float(probs[c])))
                with pytest.raises(FrozenInstanceError):
                    p.score = 0.0
                with pytest.raises(FrozenInstanceError):
                    p.pose3d.coords = np.zeros((13, 3))
                state = weights + [anchors.coords2d, anchors.coords3d, a.pose2d.coords,
                                   a.pose3d.coords]
                for arr in (p.pose2d.coords, p.pose2d.visibility, p.pose3d.coords):
                    assert not arr.flags.writeable
                    assert not any(np.shares_memory(arr, other) for other in state)
                for obj in (p, p.pose2d, p.pose3d):
                    assert not hasattr(obj, "__dict__")

    def test_proposals_share_no_memory_with_the_anchor_stack(self):
        rng = np.random.default_rng(25)
        anchors = ref.anchor_set(rng, 4)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5, seed=26))
        stack = anchors.stack.copy()
        for _ in range(3):
            proposals = predict(model, rng.normal(0, 1, 8), BoundingBox(5, 10, 60, 140), anchors)
            assert len(proposals) == 4
            for p in proposals:
                for arr in (p.pose2d.coords, p.pose3d.coords):
                    assert not np.shares_memory(arr, anchors.stack)
        assert np.array_equal(anchors.stack, stack)

    @pytest.mark.parametrize("weight, column, message", [
        ("w_cls", 1, r"score must be in \[0, 1\], got nan"),  # an inf logit: NaN probabilities
        ("w_reg", 65, "visible joints must have finite coordinates"),  # anchor 1's 2D x0
        ("w_reg", 65 + 26, "3D coordinates must be finite"),  # anchor 1's 3D x0
    ])
    def test_non_finite_weight_rejected(self, weight, column, message):
        rng = np.random.default_rng(18)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5, seed=19))
        assert model.fitted.tolist() == [0, 1, 2]  # slot 1, columns 65 to 129, is anchor 1's
        getattr(model, weight)[0, column] = np.inf
        with pytest.raises(ValueError, match=message):
            predict(model, np.ones(8), BoundingBox(0, 0, 10, 10), anchors)

    @pytest.mark.parametrize("w_shape, b_shape, b_cls", [
        ((8, 4 * 65), (4 * 65,), 4),  # the per-class layout: W not a multiple of 5*3
        ((8, 3 * 65), (2 * 65,), 4),
        ((8, 3 * 65 + 1), (3 * 65,), 4),
        ((9, 3 * 65), (3 * 65,), 4),
        ((8, 3 * 65), (3 * 65,), 3),
        ((8, 3 * 85), (3 * 85,), 4),  # slots of 17 joints: only predict knows J
    ], ids=["per_class", "b_reg_short", "w_reg_wide", "w_reg_rows", "b_cls_short",
            "17_joint_slots"])
    def test_regression_layout_other_than_fitted_slots_rejected(self, w_shape, b_shape, b_cls):
        rng = np.random.default_rng(23)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5, seed=24))
        assert model.fitted.tolist() == [0, 1, 2] and model.w_cls.shape == (8, 4)
        shapes = rf"\({w_shape[0]}, {w_shape[1]}\) and b_reg \({b_shape[0]},\)"
        if w_shape[1] == 3 * 85:
            message = rf"w_reg {shapes} do not hold one slot of 5\*13 columns for each of 3 fitted"
        else:
            message = (rf"w_cls \(8, 4\), b_cls \({b_cls},\), w_reg {shapes} are not the layout "
                       r"of a head of 3 fitted anchors: \(D, 4\), \(4,\), \(D, W\) and \(W,\)")
        # each layout but the 17-joint one raises in ToyModel, before predict
        with pytest.raises(ValueError, match=message):
            bad = ToyModel(model.w_cls, np.zeros(b_cls), np.zeros(w_shape), np.zeros(b_shape),
                           model.fitted)
            predict(bad, np.ones(8), BoundingBox(0, 0, 10, 10), anchors)

    def test_full_body_half_of_a_doubled_set_accepted(self):
        # No box takes an upper-body label, as on every benchmark workload, so
        # no variant is fitted: the full-body half holds every fitted anchor,
        # and proposes what the doubled set does.
        rng = np.random.default_rng(11)
        anchors = add_upper_body_variants(ref.anchor_set(rng, 3))
        full_body = AnchorSet(anchors.anchors[:3], K=3, spec=H13)
        examples, _, _ = ref.separable_dataset(rng, full_body, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5, seed=12))
        assert model.fitted.tolist() == [0, 1, 2]
        feature, box = rng.normal(0, 1, 8), BoundingBox(0, 0, 10, 10)
        got, want = (predict(model, feature, box, a) for a in (full_body, anchors))
        assert len(got) == len(want) == 3
        for p, q in zip(got, want):
            ref.assert_same(p, q)

    def test_anchor_set_smaller_than_model_rejected(self):
        # the full-body half of a doubled set: every class of the doubled set
        # is labeled, and the fitted ids 3 to 5 name anchors this set lacks
        rng = np.random.default_rng(12)
        anchors = add_upper_body_variants(ref.anchor_set(rng, 3))
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5, seed=13))
        full_body = AnchorSet(anchors.anchors[:3], K=3, spec=H13)
        with pytest.raises(ValueError, match="fitted anchor id 5 is not an index of the 3 anchors"):
            predict(model, np.zeros(8), BoundingBox(0, 0, 10, 10), full_body)

    @pytest.mark.parametrize("dim", [7, 9])
    def test_feature_of_wrong_dimension_rejected(self, dim):
        rng = np.random.default_rng(15)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5))
        with pytest.raises(ValueError, match=f"feature dim {dim} != 8"):
            predict(model, np.zeros(dim), BoundingBox(0, 0, 10, 10), anchors)

    @pytest.mark.parametrize("shape", [(2, 4), (1, 8), (8, 1), ()])
    def test_feature_not_one_vector_rejected(self, shape):
        rng = np.random.default_rng(14)
        anchors = ref.anchor_set(rng, 3)
        examples, _, _ = ref.separable_dataset(rng, anchors, n_per_class=4)
        model = train(examples, anchors, TrainConfig(iterations=5))
        message = rf"feature must be one vector, got shape \({', '.join(map(str, shape))}"
        with pytest.raises(ValueError, match=message):
            predict(model, np.zeros(shape), BoundingBox(0, 0, 10, 10), anchors)
