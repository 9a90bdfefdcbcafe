import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poseforge.anchors import AnchorSet
from poseforge.labeling import (
    BACKGROUND,
    ClassScores,
    LabeledBox,
    RegressionOutput,
    apply_regression,
    assign_label,
    classification_loss,
    regression_loss,
    regression_target,
    smooth_l1,
    smooth_l1_grad,
    softmax,
    total_loss,
)
from poseforge.pose import (
    H13,
    AnchorPose,
    BoundingBox,
    Pose2D,
    Pose3D,
    box_around,
    center_3d,
    iou,
)


def random_anchor(rng, aid=0):
    layout = rng.uniform(0.1, 0.9, size=(13, 2))
    p3 = center_3d(H13, rng.normal(0.0, 0.3, size=(13, 3)))
    return AnchorPose(aid, Pose2D(layout), p3)


def anchor_set(rng, n=4):
    return AnchorSet(tuple(random_anchor(rng, i) for i in range(n)), K=n, spec=H13, seed=0)


def random_gt(rng, offset=(0.0, 0.0)):
    coords2d = rng.uniform(100, 300, size=(13, 2)) + np.asarray(offset)
    p2 = Pose2D(coords2d)
    p3 = center_3d(H13, rng.normal(0.0, 0.3, size=(13, 3)))
    return p2, p3


class TestAssignLabel:
    def test_far_box_is_background(self):
        rng = np.random.default_rng(0)
        anchors = anchor_set(rng)
        gt = random_gt(rng)
        far = BoundingBox(5000, 5000, 5100, 5100)
        lab = assign_label(far, [gt], anchors)
        assert lab.class_label == BACKGROUND
        assert lab.target is None

    def test_exact_anchor_match_zero_3d_target(self):
        rng = np.random.default_rng(1)
        anchors = anchor_set(rng)
        j = 2
        gt2d, _ = random_gt(rng)
        gt = (gt2d, anchors.anchors[j].pose3d)  # 3D pose equals anchor j
        box = box_around(gt2d, 0.10)
        lab = assign_label(box, [gt], anchors)
        assert lab.class_label == j + 1
        assert np.abs(lab.target[26:]).max() == 0.0  # 3D residual slots

    def test_highest_iou_gt_wins(self):
        rng = np.random.default_rng(2)
        anchors = anchor_set(rng)
        gt_a = random_gt(rng)
        gt_b = (Pose2D(gt_a[0].coords + 40.0), random_gt(rng)[1])
        box = box_around(gt_a[0], 0.10)
        # brute-force oracle over both pairings
        from poseforge.pose import d3d, iou
        ious = [iou(box, box_around(g[0], 0.10)) for g in (gt_a, gt_b)]
        best = int(np.argmax(ious))
        expected_anchor = int(
            np.argmin([d3d(a.pose3d, (gt_a, gt_b)[best][1]) for a in anchors.anchors])
        )
        lab = assign_label(box, [gt_a, gt_b], anchors)
        assert lab.class_label == expected_anchor + 1

    def test_empty_anchor_set_rejected(self):
        rng = np.random.default_rng(3)
        empty = AnchorSet((), K=0, spec=H13, seed=0)
        with pytest.raises(ValueError):
            assign_label(BoundingBox(0, 0, 1, 1), [random_gt(rng)], empty)


def assign_label_oracle(box, gts, anchors, iou_threshold=0.5, margin_fraction=0.10):
    """assign_label one ground truth and one anchor at a time: (label, target)."""
    if not gts:
        return BACKGROUND, None
    overlaps = [iou(box, box_around(p2, margin_fraction)) for p2, _ in gts]
    best = int(np.argmax(overlaps))
    if overlaps[best] < iou_threshold:
        return BACKGROUND, None
    gt2d, gt3d = gts[best]
    dists = [float(np.linalg.norm(a.pose3d.coords - gt3d.coords, axis=1).mean())
             for a in anchors.anchors]
    anchor = anchors.anchors[int(np.argmin(dists))]
    return anchor.id + 1, regression_target(gt2d, gt3d, anchor, box)


class TestAssignLabelMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(n_gts=st.integers(0, 6), n_anchors=st.integers(1, 8),
           threshold=st.sampled_from([0.0, 0.3, 0.5, 0.9]), margin=st.sampled_from([0.0, 0.1]),
           occluded=st.sampled_from([2000.0, np.nan]), seed=st.integers(0, 2**32 - 1))
    def test_labels_and_targets_exact(self, n_gts, n_anchors, threshold, margin, occluded,
                                      seed):
        rng = np.random.default_rng(seed)
        anchors = anchor_set(rng, n_anchors)
        if n_anchors > 2:  # a 3D tie: anchor 2 repeats anchor 1, lower id wins
            dup = AnchorPose(2, Pose2D(rng.uniform(0.1, 0.9, (13, 2))),
                             anchors.anchors[1].pose3d)
            anchors = AnchorSet(anchors.anchors[:2] + (dup,) + anchors.anchors[3:],
                                K=n_anchors, spec=H13, seed=0)
        gts = []
        for g in range(n_gts):
            gt2d, gt3d = random_gt(rng, offset=rng.uniform(-150, 150, 2))
            vis = rng.random(13) < 0.8
            vis[:2] = True
            coords = np.where(vis[:, None], gt2d.coords, occluded)  # off-box or NaN-coded
            gts.append((Pose2D(coords, vis), gt3d))
        if n_gts:  # an IoU tie: the first ground truth's 3D pose and target win
            gts.append((gts[0][0], random_gt(rng)[1]))
        for _ in range(5):
            lo = rng.uniform(50, 350, 2)
            box = BoundingBox(*lo, *(lo + rng.uniform(20, 250, 2)))
            label, target = assign_label_oracle(box, gts, anchors, threshold, margin)
            lab = assign_label(box, gts, anchors, threshold, margin)
            assert lab.class_label == label
            assert (lab.target is None) == (target is None)
            if target is not None:
                assert np.array_equal(lab.target, target)

    def test_ties_go_to_first_ground_truth_and_lowest_anchor(self):
        rng = np.random.default_rng(16)
        gt2d, gt3d = random_gt(rng)
        # anchors 1 and 2 both carry gt3d; both ground truths carry gt2d
        twins = tuple(AnchorPose(i, Pose2D(rng.uniform(0.1, 0.9, (13, 2))), gt3d) for i in (1, 2))
        anchors = AnchorSet((random_anchor(rng, 0),) + twins, K=3, spec=H13, seed=0)
        box = box_around(gt2d, 0.10)
        lab = assign_label(box, [(gt2d, gt3d), (gt2d, random_gt(rng)[1])], anchors)
        assert lab.class_label == 2
        assert np.array_equal(lab.target, regression_target(gt2d, gt3d, twins[0], box))

    def test_ground_truth_without_visible_joints_rejected(self):
        rng = np.random.default_rng(15)
        gt2d, gt3d = random_gt(rng)
        hidden = (Pose2D(gt2d.coords, np.zeros(13, dtype=bool)), gt3d)
        with pytest.raises(ValueError, match="pose has no visible joints"):
            assign_label(BoundingBox(0, 0, 100, 100), [random_gt(rng), hidden], anchor_set(rng))


class TestOccludedRegressionTarget:
    @pytest.mark.parametrize("code", [np.nan, np.inf])
    def test_non_finite_occluded_joint_gets_zero_2d_residual(self, code):
        rng = np.random.default_rng(17)
        gt2d, gt3d = random_gt(rng)
        vis = np.ones(13, dtype=bool)
        vis[[4, 9]] = False
        coded = gt2d.coords.copy()
        coded[4] = code
        coded[9, 1] = code  # one non-finite coordinate hides the whole joint
        finite, hidden = Pose2D(gt2d.coords, vis), Pose2D(coded, vis)
        anchors = anchor_set(rng)
        box = box_around(finite, 0.10)
        expected = regression_target(finite, gt3d, anchors.anchors[1], box)
        target = regression_target(hidden, gt3d, anchors.anchors[1], box)
        assert np.isfinite(target).all()
        zeroed = [8, 9, 18, 19]  # x and y of joints 4 and 9
        assert (target[zeroed] == 0.0).all()
        keep = np.ones(65, dtype=bool)
        keep[zeroed] = False
        assert np.array_equal(target[keep], expected[keep])

        lab = assign_label(box, [(hidden, gt3d)], anchors)
        ref = assign_label(box, [(finite, gt3d)], anchors)
        assert lab.class_label == ref.class_label
        assert np.array_equal(lab.target[keep], ref.target[keep])
        assert (lab.target[zeroed] == 0.0).all()


class TestApplyRegression:
    def test_zero_residual_places_anchor(self):
        rng = np.random.default_rng(4)
        a = random_anchor(rng)
        box = BoundingBox(100, 50, 300, 450)
        p2, p3 = apply_regression(a, box, np.zeros(65))
        from poseforge.pose import denormalize_from_box
        assert np.allclose(p2.coords, denormalize_from_box(a.pose2d, box).coords)
        assert np.array_equal(p3.coords, a.pose3d.coords)

    def test_target_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = random_anchor(rng)
            gt2d, gt3d = random_gt(rng)
            box = box_around(gt2d, 0.10)
            t = regression_target(gt2d, gt3d, a, box)
            p2, p3 = apply_regression(a, box, t)
            assert np.abs(p2.coords - gt2d.coords).max() < 1e-12
            assert np.abs(p3.coords - gt3d.coords).max() < 1e-12

    def test_random_residual_matches_recomputation(self):
        rng = np.random.default_rng(6)
        a = random_anchor(rng)
        box = BoundingBox(10, 20, 200, 400)
        res = rng.normal(0, 0.3, size=65)
        p2, p3 = apply_regression(a, box, res)
        # independent recomputation via pose-core ops
        unit = a.pose2d.coords + res[:26].reshape(13, 2)
        exp2d = unit * np.array([190.0, 380.0]) + np.array([10.0, 20.0])
        assert np.abs(p2.coords - exp2d).max() < 1e-12
        assert np.allclose(p3.coords, a.pose3d.coords + res[26:].reshape(13, 3))

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            apply_regression(random_anchor(rng), BoundingBox(0, 0, 1, 1), np.zeros(64))


class TestClassificationLoss:
    def test_confident_correct_is_zero(self):
        u = ClassScores(np.array([1.0 - 2e-13, 1e-13, 1e-13]))
        loss, _ = classification_loss(u, 0)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_is_log_c(self):
        c = 7
        u = ClassScores(np.full(c, 1.0 / c))
        loss, _ = classification_loss(u, 3)
        assert loss == pytest.approx(np.log(c), abs=1e-12)

    def test_zero_probability_clamped(self):
        u = ClassScores(np.array([1.0, 0.0, 0.0]))
        loss, _ = classification_loss(u, 2)
        assert np.isfinite(loss) and loss == pytest.approx(-np.log(1e-12))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(100):
            c = int(rng.integers(2, 9))
            logits = rng.normal(0, 2, size=c)
            label = int(rng.integers(0, c))
            _, grad = classification_loss(softmax(logits), label)
            for i in range(c):
                lp, lm = logits.copy(), logits.copy()
                lp[i] += h
                lm[i] -= h
                fd = (classification_loss(softmax(lp), label)[0]
                      - classification_loss(softmax(lm), label)[0]) / (2 * h)
                denom = max(abs(fd), abs(grad[i]), 1e-8)
                assert abs(grad[i] - fd) / denom < 1e-5


class TestSmoothL1:
    def test_pinned_values(self):
        assert smooth_l1(0.0) == 0.0
        assert smooth_l1(0.5) == pytest.approx(0.125)
        assert smooth_l1(2.0) == pytest.approx(1.5)
        assert smooth_l1(-2.0) == pytest.approx(1.5)

    def test_continuity_at_kink(self):
        eps = 1e-9
        assert abs(smooth_l1(1 - eps) - smooth_l1(1 + eps)) < 1e-8
        assert abs(smooth_l1_grad(1 - eps) - smooth_l1_grad(1 + eps)) < 1e-8

    def test_bounded_by_quadratic(self):
        xs = np.linspace(-4, 4, 401)
        vals = smooth_l1(xs)
        assert (vals <= 0.5 * xs ** 2 + 1e-15).all()
        inside = np.abs(xs) <= 1
        assert np.allclose(vals[inside], 0.5 * xs[inside] ** 2)


class TestRegressionLoss:
    def make_case(self, rng, c_label=2, n_classes=4):
        v = RegressionOutput(rng.normal(0, 0.5, size=65 * n_classes), 13)
        target = rng.normal(0, 0.5, size=65)
        box = BoundingBox(0, 0, 100, 100)
        lab = LabeledBox(box, c_label, target)
        return v, lab

    def test_background_zero(self):
        rng = np.random.default_rng(9)
        v = RegressionOutput(rng.normal(0, 1, size=65 * 4), 13)
        lab = LabeledBox(BoundingBox(0, 0, 1, 1), BACKGROUND)
        loss, grad = regression_loss(v, lab)
        assert loss == 0.0
        assert not grad.any()

    def test_exact_prediction_zero(self):
        rng = np.random.default_rng(10)
        v, lab = self.make_case(rng)
        vv = v.v.copy()
        vv[2 * 65:3 * 65] = lab.target
        loss, _ = regression_loss(RegressionOutput(vv, 13), lab)
        assert loss == 0.0

    def test_gradient_zero_outside_slice(self):
        rng = np.random.default_rng(11)
        v, lab = self.make_case(rng, c_label=1)
        _, grad = regression_loss(v, lab)
        assert not grad[:65].any()
        assert not grad[2 * 65:].any()
        assert grad[65:2 * 65].any()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(100):
            n_classes = int(rng.integers(2, 5))
            c_label = int(rng.integers(1, n_classes))
            v, lab = self.make_case(rng, c_label=c_label, n_classes=n_classes)
            _, grad = regression_loss(v, lab)
            # probe a sample of coordinates, skipping the |x|=1 kink region
            for i in rng.choice(len(v.v), size=20, replace=False):
                err = None
                w = 65
                if c_label * w <= i < (c_label + 1) * w:
                    err = lab.target[i - c_label * w] - v.v[i]
                    if abs(abs(err) - 1.0) < 1e-4:
                        continue
                vp, vm = v.v.copy(), v.v.copy()
                vp[i] += h
                vm[i] -= h
                fd = (regression_loss(RegressionOutput(vp, 13), lab)[0]
                      - regression_loss(RegressionOutput(vm, 13), lab)[0]) / (2 * h)
                denom = max(abs(fd), abs(grad[i]), 1e-8)
                assert abs(grad[i] - fd) / denom < 1e-5

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        v = RegressionOutput(rng.normal(0, 1, size=65 * 2), 13)
        # class 1 is within v's 2 classes; 60 = 5*12 is not H13's 5*13
        lab = LabeledBox(BoundingBox(0, 0, 1, 1), 1, rng.normal(0, 1, size=60))
        with pytest.raises(ValueError, match=r"target length 60 != 5\*J = 65"):
            regression_loss(v, lab)

    def test_class_out_of_range_rejected(self):
        rng = np.random.default_rng(13)
        v = RegressionOutput(rng.normal(0, 1, size=65 * 2), 13)
        lab = LabeledBox(BoundingBox(0, 0, 1, 1), 3, rng.normal(0, 1, size=65))
        with pytest.raises(ValueError, match="class_label 3 outside 2 classes"):
            regression_loss(v, lab)


class TestLabeledBox:
    def test_target_not_5j_rejected(self):
        with pytest.raises(ValueError, match=r"flat 5\*J vector"):
            LabeledBox(BoundingBox(0, 0, 1, 1), 1, np.zeros(64))

    def test_non_finite_target_rejected(self):
        target = np.zeros(65)
        target[7] = np.nan
        with pytest.raises(ValueError, match="target must be finite"):
            LabeledBox(BoundingBox(0, 0, 1, 1), 1, target)


class TestTotalLoss:
    def test_zeros(self):
        assert total_loss(0.0, 0.0, 0.0) == 0.0

    def test_uniform_classifier_term(self):
        c = 5
        u = ClassScores(np.full(c, 1.0 / c))
        cls, _ = classification_loss(u, 1)
        assert total_loss(cls, 0.0, 0.0) == pytest.approx(np.log(c))

    def test_equals_sum_of_parts(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            parts = rng.normal(0, 1, size=3)
            assert total_loss(parts[0], parts[1], parts[2]) == pytest.approx(parts.sum())
