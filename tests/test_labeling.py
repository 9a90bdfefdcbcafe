import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poseforge.labeling as labeling_module
import reference as ref
from poseforge.anchors import AnchorSet
from poseforge.labeling import (
    BACKGROUND,
    LabeledBox,
    apply_regression,
    assign_label,
    head_losses,
    regression_target,
    softmax,
)
from poseforge.pose import H13, AnchorPose, BoundingBox, Pose2D


class TestAssignLabel:
    def test_far_box_is_background(self):
        rng = np.random.default_rng(0)
        anchors = ref.anchor_set(rng)
        gt = ref.ground_truth(rng)
        far = BoundingBox(5000, 5000, 5100, 5100)
        lab = assign_label(far, [gt], anchors)
        assert lab.class_label == BACKGROUND
        assert lab.target is None

    def test_exact_anchor_match_zero_3d_target(self):
        rng = np.random.default_rng(1)
        anchors = ref.anchor_set(rng)
        j = 2
        gt2d, _ = ref.ground_truth(rng)
        gt = (gt2d, anchors.anchors[j].pose3d)  # 3D pose equals anchor j
        box = ref.visible_box(gt2d)
        lab = assign_label(box, [gt], anchors)
        assert lab.class_label == j + 1
        assert np.abs(lab.target[26:]).max() == 0.0  # 3D residual slots

    def test_highest_iou_gt_wins(self):
        rng = np.random.default_rng(2)
        anchors = ref.anchor_set(rng)
        gt_a = ref.ground_truth(rng)
        gt_b = (Pose2D(gt_a[0].coords + 40.0), ref.ground_truth(rng)[1])
        box = ref.visible_box(gt_a[0])
        # brute-force oracle over both pairings
        ious = [ref.iou(box, ref.visible_box(g[0])) for g in (gt_a, gt_b)]
        best = int(np.argmax(ious))
        expected_anchor = int(np.argmin([ref.d3d(a.pose3d.coords, (gt_a, gt_b)[best][1].coords)
                                         for a in anchors.anchors]))
        lab = assign_label(box, [gt_a, gt_b], anchors)
        assert lab.class_label == expected_anchor + 1

    def test_empty_anchor_set_rejected(self):
        rng = np.random.default_rng(3)
        empty = AnchorSet((), K=0, spec=H13)
        with pytest.raises(ValueError):
            assign_label(BoundingBox(0, 0, 1, 1), [ref.ground_truth(rng)], empty)


def assert_matches_oracle(box, gts, anchors):
    ref.assert_label(assign_label(box, gts, anchors), *ref.assign_label(box, gts, anchors))


class TestAssignLabelMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(n_gts=st.integers(0, 6), n_anchors=st.integers(1, 8),
           occluded=st.sampled_from([2000.0, np.nan]), seed=st.integers(0, 2**32 - 1))
    def test_labels_and_targets_exact(self, n_gts, n_anchors, occluded, seed):
        rng = np.random.default_rng(seed)
        anchors = ref.anchor_set(rng, n_anchors)
        if n_anchors > 2:  # a 3D tie: anchor 2 repeats anchor 1, lower id wins
            dup = AnchorPose(Pose2D(rng.uniform(0.1, 0.9, (13, 2))), anchors.anchors[1].pose3d)
            anchors = AnchorSet(anchors.anchors[:2] + (dup,) + anchors.anchors[3:],
                                K=n_anchors, spec=H13)
        # occluded joints off-box or NaN-coded
        gts = [ref.ground_truth(rng, rng.uniform(-150, 150, 2), occluded) for _ in range(n_gts)]
        if n_gts:  # an IoU tie: the first ground truth's 3D pose and target win
            gts.append((gts[0][0], ref.ground_truth(rng)[1]))
        for _ in range(5):
            lo = rng.uniform(50, 350, 2)
            assert_matches_oracle(BoundingBox(*lo, *(lo + rng.uniform(20, 250, 2))), gts, anchors)

    def test_ties_go_to_first_ground_truth_and_lowest_anchor(self):
        rng = np.random.default_rng(16)
        gt2d, gt3d = ref.ground_truth(rng)
        # anchors 1 and 2 both carry gt3d; both ground truths carry gt2d
        twins = tuple(AnchorPose(Pose2D(rng.uniform(0.1, 0.9, (13, 2))), gt3d) for _ in range(2))
        anchors = AnchorSet((ref.anchor_set(rng, 1).anchors[0],) + twins, K=3, spec=H13)
        box = ref.visible_box(gt2d)
        lab = assign_label(box, [(gt2d, gt3d), (gt2d, ref.ground_truth(rng)[1])], anchors)
        assert lab.class_label == 2
        assert np.array_equal(lab.target, regression_target(gt2d, gt3d, twins[0], box))

    def test_ground_truth_without_visible_joints_rejected(self):
        rng = np.random.default_rng(15)
        gt2d, gt3d = ref.ground_truth(rng)
        hidden = (Pose2D(gt2d.coords, np.zeros(13, dtype=bool)), gt3d)
        with pytest.raises(ValueError, match="pose has no visible joints"):
            assign_label(BoundingBox(0, 0, 100, 100), [ref.ground_truth(rng), hidden],
                         ref.anchor_set(rng))


def counting_margin_boxes(monkeypatch):
    """Count assign_label's margin_boxes calls: one per memo build."""
    calls = []
    real = labeling_module.margin_boxes

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(labeling_module, "margin_boxes", counted)
    return calls


class TestImageMemo:
    """assign_label keeps one image's ground-truth boxes, stacks and
    nearest anchors between calls; each result must still be the oracle's."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ops=st.lists(st.tuples(st.sampled_from(["label"] * 4 + ["append", "replace", "reverse"]),
                                  st.integers(0, 1), st.integers(0, 1)),
                        min_size=1, max_size=30))
    def test_call_sequences_over_mutated_lists(self, seed, ops):
        rng = np.random.default_rng(seed)
        images = [[ref.ground_truth(rng, offset=rng.uniform(-150, 150, 2)) for _ in range(3)]
                  for _ in range(2)]
        anchor_sets = [ref.anchor_set(rng, 3), ref.anchor_set(rng, 5)]
        for op, image, which in ops:
            gts = images[image]  # mutated in place: the list's identity never changes
            if op == "append":
                gts.append(ref.ground_truth(rng, offset=rng.uniform(-150, 150, 2)))
            elif op == "replace":  # new pose objects at the same position
                gts[int(rng.integers(len(gts)))] = ref.ground_truth(rng, rng.uniform(-150, 150, 2))
            elif op == "reverse":
                gts.reverse()
            else:
                box = ref.box_near(rng, gts, rng.choice([0.0, 0.1]))
                assert_matches_oracle(box, gts, anchor_sets[which])

    def test_same_poses_in_new_pairs_reuse_the_memo(self, monkeypatch):
        rng = np.random.default_rng(20)
        gts = [ref.ground_truth(rng, offset=(60.0 * i, 0.0)) for i in range(4)]
        anchors = ref.anchor_set(rng)
        calls = counting_margin_boxes(monkeypatch)
        assert_matches_oracle(ref.box_near(rng, gts), gts, anchors)
        copy = [(p2, p3) for p2, p3 in gts]
        assert_matches_oracle(ref.box_near(rng, copy), copy, anchors)
        assert len(calls) == 1
        copy[1] = (Pose2D(copy[1][0].coords), copy[1][1])  # equal values, a new object
        assert_matches_oracle(ref.box_near(rng, copy), copy, anchors)
        assert len(calls) == 2

    def test_one_image_builds_its_boxes_once(self, monkeypatch):
        rng = np.random.default_rng(21)
        gts = [ref.ground_truth(rng, offset=(80.0 * i, 40.0 * (i % 2))) for i in range(6)]
        anchors = ref.anchor_set(rng)
        boxes = [ref.box_near(rng, gts) for _ in range(90)]
        calls = counting_margin_boxes(monkeypatch)
        for box in boxes:
            assert_matches_oracle(box, gts, anchors)
        assert len(calls) == 1

    def test_failed_build_is_not_kept(self, monkeypatch):
        rng = np.random.default_rng(22)
        anchors = ref.anchor_set(rng)
        good = [ref.ground_truth(rng), ref.ground_truth(rng, offset=(200.0, 0.0))]
        gt2d, gt3d = ref.ground_truth(rng)
        bad = [ref.ground_truth(rng), (Pose2D(gt2d.coords, np.zeros(13, dtype=bool)), gt3d)]
        box = ref.visible_box(good[0][0])
        calls = counting_margin_boxes(monkeypatch)
        assert_matches_oracle(box, good, anchors)
        for _ in range(2):  # raises on every call, not only the first
            with pytest.raises(ValueError, match="pose has no visible joints"):
                assign_label(box, bad, anchors)
        assert len(calls) == 3
        assert_matches_oracle(box, good, anchors)
        assert len(calls) == 3  # the good image's memo survived the failed builds

    def test_holds_one_image(self, monkeypatch):
        rng = np.random.default_rng(25)
        anchors = ref.anchor_set(rng)
        image_a = [ref.ground_truth(rng), ref.ground_truth(rng, offset=(200.0, 0.0))]
        image_b = [ref.ground_truth(rng, offset=(0.0, 200.0))]
        calls = counting_margin_boxes(monkeypatch)
        for gts in (image_a, image_b, image_a):  # A's entry went when B's came
            assert_matches_oracle(ref.visible_box(gts[0][0]), gts, anchors)
        assert len(calls) == 3

    def test_list_entries_label_as_tuple_entries(self, monkeypatch):
        rng = np.random.default_rng(26)
        anchors = ref.anchor_set(rng)
        gts = [ref.ground_truth(rng, offset=(90.0 * i, 30.0 * i)) for i in range(4)]
        lists = [list(pair) for pair in gts]
        calls = counting_margin_boxes(monkeypatch)
        for box in [ref.box_near(rng, gts) for _ in range(20)]:
            want = assign_label(box, gts, anchors)
            for image in (lists, lists[:2] + gts[2:]):  # list entries, alone or mixed
                ref.assert_label(assign_label(box, image, anchors), want.class_label, want.target)
        # the list entries key the cache as their tuples, the same poses
        assert len(calls) == 1

    def test_entry_that_is_not_a_pair_raises_type_error(self):
        rng = np.random.default_rng(27)
        with pytest.raises(TypeError, match="'int' object is not iterable"):
            assign_label(BoundingBox(0, 0, 10, 10), [ref.ground_truth(rng), 5],
                         ref.anchor_set(rng))

    @pytest.mark.parametrize("joints2d,joints3d", [(17, 17), (13, 17), (17, 13)])
    def test_joint_count_mismatch_rejected(self, joints2d, joints3d):
        rng = np.random.default_rng(23)
        p2 = Pose2D(rng.uniform(100, 300, size=(joints2d, 2)))
        p3 = ref.pose3d(rng, j=joints3d)
        message = f"ground truth has {joints2d} 2D and {joints3d} 3D joints, the anchors' spec h13 has 13"
        for box in (ref.visible_box(p2), BoundingBox(5000, 5000, 5100, 5100)):
            with pytest.raises(ValueError, match=message):
                assign_label(box, [ref.ground_truth(rng), (p2, p3)], ref.anchor_set(rng))

    def test_two_threads_label_two_images_alternately(self):
        rng = np.random.default_rng(24)
        anchors = ref.anchor_set(rng, 6)
        images = []
        for _ in range(2):
            gts = [ref.ground_truth(rng, offset=rng.uniform(-150, 150, 2)) for _ in range(5)]
            images.append((gts, [ref.box_near(rng, gts) for _ in range(300)]))
        expected = [[ref.assign_label(box, gts, anchors) for box in boxes]
                    for gts, boxes in images]
        barrier = threading.Barrier(2, timeout=30)
        results = [None, None]

        def work(i):
            gts, boxes = images[i]
            out = []
            for box in boxes:
                barrier.wait()  # both threads call at once, each on its own image
                out.append(assign_label(box, gts, anchors))
            results[i] = out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, expected):
            assert got is not None and len(got) == len(want)
            for lab, (label, target) in zip(got, want):
                ref.assert_label(lab, label, target)


class TestOccludedRegressionTarget:
    @pytest.mark.parametrize("code", [np.nan, np.inf])
    def test_non_finite_occluded_joint_gets_zero_2d_residual(self, code):
        rng = np.random.default_rng(17)
        gt2d, gt3d = ref.ground_truth(rng)
        vis = np.ones(13, dtype=bool)
        vis[[4, 9]] = False
        coded = gt2d.coords.copy()
        coded[4] = code
        coded[9, 1] = code  # one non-finite coordinate hides the whole joint
        finite, hidden = Pose2D(gt2d.coords, vis), Pose2D(coded, vis)
        anchors = ref.anchor_set(rng)
        box = ref.visible_box(finite)
        expected = regression_target(finite, gt3d, anchors.anchors[1], box)
        target = regression_target(hidden, gt3d, anchors.anchors[1], box)
        assert np.isfinite(target).all()
        zeroed = [8, 9, 18, 19]  # x and y of joints 4 and 9
        assert (target[zeroed] == 0.0).all()
        keep = np.ones(65, dtype=bool)
        keep[zeroed] = False
        assert np.array_equal(target[keep], expected[keep])

        lab = assign_label(box, [(hidden, gt3d)], anchors)
        want = assign_label(box, [(finite, gt3d)], anchors)
        assert lab.class_label == want.class_label
        assert np.array_equal(lab.target[keep], want.target[keep])
        assert (lab.target[zeroed] == 0.0).all()


class TestApplyRegression:
    def test_zero_residual_places_anchor(self):
        rng = np.random.default_rng(4)
        a = ref.anchor_set(rng, 1).anchors[0]
        box = BoundingBox(100, 50, 300, 450)
        p2, p3 = apply_regression(a, box, np.zeros(65))
        placed = (a.pose2d.coords * np.array([box.width, box.height])
                  + np.array([box.x_min, box.y_min]))
        assert np.allclose(p2.coords, placed)
        assert np.array_equal(p3.coords, a.pose3d.coords)

    def test_target_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = ref.anchor_set(rng, 1).anchors[0]
            gt2d, gt3d = ref.ground_truth(rng)
            box = ref.visible_box(gt2d)
            t = regression_target(gt2d, gt3d, a, box)
            p2, p3 = apply_regression(a, box, t)
            assert np.abs(p2.coords - gt2d.coords).max() < 1e-12
            assert np.abs(p3.coords - gt3d.coords).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), corner=st.floats(-1e4, 1e4),
           size=st.floats(1.0, 1e4), spread=st.floats(0.0, 2.0),
           hidden=st.floats(0.0, 1.0))
    def test_inverts_regression_target(self, seed, corner, size, spread, hidden):
        # Any box, anchor and ground truth, with joints outside the box and
        # invisible joints, some NaN-coded: apply_regression(target) gives the
        # ground truth back to rounding, and the anchor's layout placed in
        # the box at a NaN-coded joint. The tolerance is a few ulps of the
        # largest magnitude that the residual arithmetic meets.
        rng = np.random.default_rng(seed)
        anchor = ref.anchor_set(rng, 1).anchors[0]
        x0, y0 = corner, corner * rng.uniform(-1.0, 1.0)
        w, h = size, size * rng.uniform(0.1, 10.0)
        box = BoundingBox(x0, y0, x0 + w, y0 + h)
        coords = (rng.uniform(-spread, 1.0 + spread, (13, 2)) * (w, h)) + (x0, y0)
        vis = rng.random(13) >= hidden
        nan_coded = ~vis & (rng.random(13) < 0.5)
        coords[nan_coded] = np.nan
        gt2d, gt3d = Pose2D(coords, vis), ref.pose3d(rng)
        p2, p3 = apply_regression(anchor, box, regression_target(gt2d, gt3d, anchor, box))
        placed = anchor.pose2d.coords * (box.width, box.height) + (x0, y0)
        assert np.array_equal(p2.coords[nan_coded], placed[nan_coded])
        scale = np.abs(box.as_tuple()).max() + (1.0 + 2.0 * spread) * max(w, h)
        assert np.abs(p2.coords[~nan_coded] - coords[~nan_coded]).max(initial=0.0) <= 1e-14 * scale
        assert np.abs(p3.coords - gt3d.coords).max() <= 1e-15
        assert p2.visibility.all()

    def test_random_residual_matches_recomputation(self):
        rng = np.random.default_rng(6)
        a = ref.anchor_set(rng, 1).anchors[0]
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
            apply_regression(ref.anchor_set(rng, 1).anchors[0], BoundingBox(0, 0, 1, 1),
                             np.zeros(64))


class TestSoftmax:
    def test_each_row_shifted_by_its_own_max(self):
        # a shift by the global max would underflow the last two rows to 0/0
        logits = np.array([[1000.0, 1001.0, 1002.0], [0.0, 1.0, 2.0], [-1000.0, -999.0, -998.0]])
        e = np.exp([-2.0, -1.0, 0.0])
        assert np.allclose(softmax(logits), e / e.sum(), rtol=1e-15, atol=0.0)


def cls_loss(probs, labels):
    """head_losses' classification loss, with no regression part."""
    n = len(labels)
    return head_losses(probs, np.asarray(labels), np.zeros((n, 65)), np.zeros((n, 65)))[0]


class TestClassificationLoss:
    def test_confident_correct_is_zero(self):
        loss = cls_loss(np.array([[1.0 - 2e-13, 1e-13, 1e-13]]), [0])
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_is_log_c(self):
        c = 7
        loss = cls_loss(np.full((1, c), 1.0 / c), [3])
        assert loss == pytest.approx(np.log(c), abs=1e-12)

    def test_zero_probability_clamped(self):
        loss = cls_loss(np.array([[1.0, 0.0, 0.0]]), [2])
        assert np.isfinite(loss) and loss == pytest.approx(-np.log(1e-12))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-4  # rounding of the mean loss swamps a smaller step
        for n in (1, 5):
            for _ in range(40):
                c = int(rng.integers(2, 9))
                logits = rng.normal(0, 2, size=(n, c))
                labels = rng.integers(0, c, size=n)
                pred, targets = rng.normal(0, 1, (2, n, 65))
                _, _, grad, _ = head_losses(softmax(logits), labels, pred, targets)
                for r in range(n):
                    for i in range(c):
                        lp, lm = logits.copy(), logits.copy()
                        lp[r, i] += h
                        lm[r, i] -= h
                        fd = (cls_loss(softmax(lp), labels)
                              - cls_loss(softmax(lm), labels)) / (2 * h)
                        denom = max(abs(fd), abs(grad[r, i]), 1e-8)
                        assert abs(grad[r, i] - fd) / denom < 1e-5


class TestSmoothL1:
    """_smooth_l1 on 0-d arrays for scalars; [0] is the loss, [1] the gradient."""

    def test_pinned_values(self):
        assert labeling_module._smooth_l1(np.array(0.0))[0] == 0.0
        assert labeling_module._smooth_l1(np.array(0.5))[0] == pytest.approx(0.125)
        assert labeling_module._smooth_l1(np.array(2.0))[0] == pytest.approx(1.5)
        assert labeling_module._smooth_l1(np.array(-2.0))[0] == pytest.approx(1.5)
        # no overflow warning from a 0.5 * x * x that the linear branch discards
        assert labeling_module._smooth_l1(np.array(-1e200))[0] == 1e200
        assert labeling_module._smooth_l1(np.array(-1e200))[1] == -1.0

    def test_continuity_at_kink(self):
        eps = 1e-9
        below = labeling_module._smooth_l1(np.array(1 - eps))
        above = labeling_module._smooth_l1(np.array(1 + eps))
        assert abs(below[0] - above[0]) < 1e-8
        assert abs(below[1] - above[1]) < 1e-8

    def test_bounded_by_quadratic(self):
        xs = np.linspace(-4, 4, 401)
        vals = labeling_module._smooth_l1(xs)[0]
        assert (vals <= 0.5 * xs ** 2 + 1e-15).all()
        inside = np.abs(xs) <= 1
        assert np.allclose(vals[inside], 0.5 * xs[inside] ** 2)


ONE_ULP_AROUND_ONE = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
EDGE_FLOATS = (ONE_ULP_AROUND_ONE + [-v for v in ONE_ULP_AROUND_ONE]
               + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-320,
                  np.inf, -np.inf, np.nan])
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-2.0, 2.0),
                   st.floats(allow_nan=True, allow_infinity=True))


def assert_same_bits(got, want):
    """Equal with NaNs equal, and with equal signs on every non-NaN (so on zeros)."""
    assert np.array_equal(got, want, equal_nan=True)
    kept = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[kept]), np.signbit(want[kept]))


class TestSmoothL1ClipForm:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(FLOATS, min_size=1, max_size=40))
    def test_equals_piecewise_definition(self, values):
        x = np.array(values)
        loss, grad = labeling_module._smooth_l1(x)
        want_loss, want_grad = ref.smooth_l1(x)
        assert_same_bits(loss, want_loss)
        assert_same_bits(grad, want_grad)

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    def test_scalar_functions_equal_piecewise_definition(self, value):
        want_loss, want_grad = ref.smooth_l1(np.array(value))
        loss, grad = labeling_module._smooth_l1(np.array(value))
        assert_same_bits(loss, want_loss)
        assert_same_bits(grad, want_grad)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 65))
    def test_row_total_adds_left_to_right(self, seed, n, width):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, size=n)
        # magnitudes spread over 16 decades, so the order of the additions shows
        pred = rng.normal(0.0, 1.0, (n, width)) * 10.0 ** rng.uniform(-8, 8, (n, 1))
        targets = rng.normal(0.0, 1.0, (n, width))
        _, reg_loss, _, _ = head_losses(np.full((n, 3), 1 / 3), labels, pred, targets)
        err = targets - pred
        err[labels == BACKGROUND] = 0.0
        total = 0.0
        for row_loss in ref.smooth_l1(err)[0].sum(axis=1).tolist():
            total += row_loss
        assert reg_loss == total / n


def reg_losses(labels, pred, targets):
    """head_losses' regression loss and pred gradient, under uniform class scores."""
    n = len(labels)
    _, loss, _, grad = head_losses(np.full((n, 4), 0.25), np.asarray(labels), pred, targets)
    return loss, grad


class TestRegressionLoss:
    def test_background_zero(self):
        rng = np.random.default_rng(9)
        loss, grad = reg_losses([BACKGROUND], rng.normal(0, 1, (1, 65)),
                                rng.normal(0, 1, (1, 65)))
        assert loss == 0.0
        assert not grad.any()

    def test_exact_prediction_zero(self):
        target = np.random.default_rng(10).normal(0, 0.5, (1, 65))
        loss, grad = reg_losses([2], target.copy(), target)
        assert loss == 0.0
        assert not grad.any()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-4  # exact away from the kink: smooth-L1 is piecewise quadratic
        for n in (1, 5):
            for _ in range(40):
                labels = rng.integers(0, 4, size=n)
                pred = rng.normal(0, 0.5, (n, 65))
                targets = rng.normal(0, 0.5, (n, 65)) * rng.choice([1.0, 4.0], (n, 1))
                _, grad = reg_losses(labels, pred, targets)
                assert not grad[labels == BACKGROUND].any()
                # probe a sample of coordinates, skipping the |err| = 1 kink
                for r, i in zip(rng.integers(0, n, 20), rng.integers(0, 65, 20)):
                    if abs(abs(targets[r, i] - pred[r, i]) - 1.0) < 10 * h:
                        continue
                    pp, pm = pred.copy(), pred.copy()
                    pp[r, i] += h
                    pm[r, i] -= h
                    fd = (reg_losses(labels, pp, targets)[0]
                          - reg_losses(labels, pm, targets)[0]) / (2 * h)
                    denom = max(abs(fd), abs(grad[r, i]), 1e-8)
                    assert abs(grad[r, i] - fd) / denom < 1e-5


class TestLabeledBox:
    @pytest.mark.parametrize("label,message", [
        (1.7, "class_label must be an integer, got 1.7"),
        (True, "class_label must be an integer, got True"),
        (-1, "class_label must be >= 0, got -1"),
    ])
    def test_bad_class_label_rejected(self, label, message):
        with pytest.raises(ValueError, match=message):
            LabeledBox(label, np.zeros(65))

    def test_target_is_a_read_only_copy(self):
        target = np.zeros(65)
        lab = LabeledBox(1, target)
        target[0] = 7.0
        assert lab.target[0] == 0.0 and not lab.target.flags.writeable

    def test_numpy_integer_label_accepted(self):
        assert LabeledBox(np.int64(2), np.zeros(65)).class_label == 2

    def test_target_not_5j_rejected(self):
        with pytest.raises(ValueError, match=r"flat 5\*J vector"):
            LabeledBox(1, np.zeros(64))

    def test_non_finite_target_rejected(self):
        target = np.zeros(65)
        target[7] = np.nan
        with pytest.raises(ValueError, match="target must be finite"):
            LabeledBox(1, target)

    @pytest.mark.parametrize("big", [1.5e308, -1.5e308])
    def test_target_whose_sum_overflows_accepted(self, big):
        target = np.full(65, big)
        assert np.array_equal(LabeledBox(1, target).target, target)
