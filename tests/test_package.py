import dataclasses
import inspect

import poseforge
import poseforge.anchors
import poseforge.labeling
import poseforge.learner
import poseforge.pose
import poseforge.ppi


def test_every_exported_name_resolves():
    for name in poseforge.__all__:
        assert getattr(poseforge, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from poseforge import *", namespace)
    assert set(poseforge.__all__) <= namespace.keys()


def test_removed_per_pose_helpers_are_gone():
    for name in ("center_3d", "box_around", "normalize_to_box", "denormalize_from_box", "H17"):
        assert not hasattr(poseforge, name) and not hasattr(poseforge.pose, name), name
    assert not hasattr(poseforge.pose.BoundingBox, "area")
    assert not hasattr(poseforge.pose.Pose3D, "joint_count")
    assert not hasattr(poseforge.pose.Pose2D, "joint_count")
    # the orphan fill's 2D scale and offset is private to anchors, its one caller
    assert not hasattr(poseforge.pose, "fit_scale_offset")
    assert not hasattr(poseforge.labeling, "_unhashable")
    assert not hasattr(poseforge.learner, "_Head")  # the model is its one head
    # apply_regression places one pose; predict places the anchor stack's rows
    assert not hasattr(poseforge.labeling, "regress_anchors")
    # d3d_matrix takes its pairs in one broadcast; k-means chunks its own
    assert not hasattr(poseforge.pose, "_D3D_BLOCK_ROWS")
    # predict is the one source of the head's scores
    assert not hasattr(poseforge.learner, "model_outputs")
    # fixed hyperparameters are module constants, not options or fields
    parameters = {
        poseforge.pose.d3d_matrix: ["a", "b"],
        poseforge.pose.margin_boxes: ["coords", "visibility"],
        poseforge.pose.extrapolate_head_top: ["spec", "pose"],
        poseforge.anchors.kmeans_anchors: ["poses", "k", "spec", "seed", "max_iters"],
        poseforge.labeling.assign_label: ["box", "gts", "anchors"],
    }
    for fn, names in parameters.items():
        assert list(inspect.signature(fn).parameters) == names, fn
    # each fact is stored once: an anchor's id is its position in the set,
    # and the upper-body variants are the positions from K on; a model's
    # shapes are its arrays'; a detection is unweighted when its score is 0
    fields = {
        poseforge.pose.PoseSpec: ["name", "joint_names", "torso_anchor_joints", "head_joints",
                                  "lower_body_joints"],
        poseforge.pose.AnchorPose: ["pose2d", "pose3d"],
        poseforge.anchors.AnchorSet: ["anchors", "K", "spec", "distortion_history"],
        poseforge.labeling.LabeledBox: ["class_label", "target"],
        poseforge.learner.TrainConfig: ["iterations", "learning_rate", "seed"],
        poseforge.learner.ToyModel: ["w_cls", "b_cls", "w_reg", "b_reg", "fitted",
                                    "loss_history"],
        poseforge.ppi.Detection: ["pose2d", "pose3d", "score", "member_count"],
        # no field drops detections by score
        poseforge.ppi.PpiParams: ["iou_threshold", "t3d", "sigma_b", "overlap_joints"],
    }
    for cls, names in fields.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls
    model, detection = poseforge.learner.ToyModel, poseforge.ppi.Detection
    for derived in (model.n_classes, detection.unweighted):
        assert isinstance(derived, property) and derived.fset is None
