"""The whole pipeline against tests/reference.py, stage by stage, on tiny
random scenes. Each reference stage starts from the package's output of
the stage before, so rounding noise upstream cannot flip a threshold
downstream, and each comparison is as exact as the stage's own tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poseforge.learner as learner_module
import reference as ref
from poseforge.anchors import add_upper_body_variants, kmeans_anchors
from poseforge.labeling import assign_label
from poseforge.learner import TrainConfig, predict, train
from poseforge.pose import H13
from poseforge.ppi import PpiParams, nms, ppi, rescore

PARAMS = [PpiParams(), PpiParams(iou_threshold=0.3, t3d=0.2, sigma_b=10.0),
          PpiParams(iou_threshold=0.05, overlap_joints=H13.head_torso_joints)]


@settings(max_examples=30, deadline=None)
@given(people=st.integers(1, 4), n_boxes=st.integers(1, 12), k=st.integers(1, 4),
       iterations=st.integers(0, 4), params=st.sampled_from(PARAMS),
       seed=st.integers(0, 2**32 - 1))
def test_every_stage_matches_the_reference(people, n_boxes, k, iterations, params, seed):
    rng = np.random.default_rng(seed)
    poses = ref.clustered_corpus(rng, k + int(rng.integers(0, 9)), 3, 0.1)
    centroids, layouts, history = ref.kmeans(poses, k, seed=seed % 1000, max_iters=5)
    if np.isnan(layouts).any():  # a cluster ended without members
        with pytest.raises(ValueError, match="has no finite 2D coordinate in its 0 members"):
            kmeans_anchors(poses, k, H13, seed=seed % 1000, max_iters=5)
        return
    codebook = kmeans_anchors(poses, k, H13, seed=seed % 1000, max_iters=5)
    assert np.array_equal(codebook.coords3d, centroids)
    assert np.array_equal(np.stack([a.pose2d.coords for a in codebook.anchors]), layouts)
    assert codebook.distortion_history == history
    anchors = add_upper_body_variants(codebook)
    assert np.array_equal(np.stack([a.pose2d.coords for a in anchors.anchors[k:]]),
                          ref.upper_body(codebook))

    gts = [ref.ground_truth(rng, rng.uniform(-150, 150, 2), np.nan) for _ in range(people)]
    boxes = [ref.box_near(rng, gts) for _ in range(n_boxes)]
    labels = [assign_label(box, gts, anchors) for box in boxes]
    for box, lab in zip(boxes, labels):
        ref.assert_label(lab, *ref.assign_label(box, gts, anchors))

    features = rng.normal(0.0, 1.0, (n_boxes, 6))
    examples = list(zip(features, labels))
    config = TrainConfig(iterations=iterations, learning_rate=0.7, seed=seed % 1000)
    model = train(examples, anchors, config)
    # np.linalg.solve against the reference's np.linalg.lstsq (see test_learner.RIDGE_RTOL)
    with mock.patch.object(learner_module, "_train_head", ref.train_head_ridge):
        ref.assert_same_training(model, train(examples, anchors, config), rtol=1e-8)

    proposals = []
    for feature, box in zip(features, boxes):
        got = predict(model, feature, box, anchors)
        for p, (anchor_id, score, coords2d, coords3d) in zip(
                got, ref.predict(model, feature, box, anchors), strict=True):
            assert (p.anchor_id, p.score) == (anchor_id, score)
            assert np.array_equal(p.pose2d.coords, coords2d)
            assert np.array_equal(p.pose3d.coords, coords3d)
        proposals += got
    rescored = [rescore(p, params.sigma_b) for p in proposals]
    for p, r in zip(proposals, rescored):
        assert r.rescored == pytest.approx(ref.rescore(p, params.sigma_b), rel=1e-14, abs=0.0)
    ref.assert_detections(ppi(proposals, params), ref.ppi(rescored, params))
    ref.assert_detections(nms(proposals, params), ref.nms(rescored, params))
