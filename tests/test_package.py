import dataclasses
import inspect

import poseforge
import poseforge.anchors
import poseforge.labeling
import poseforge.learner
import poseforge.pose


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
    fields = {
        poseforge.pose.PoseSpec: ["name", "joint_names", "torso_anchor_joints", "head_joints",
                                  "lower_body_joints"],
        poseforge.anchors.AnchorSet: ["anchors", "K", "spec", "distortion_history"],
        poseforge.learner.TrainConfig: ["iterations", "learning_rate", "seed", "two_pass"],
        poseforge.learner.ToyModel: ["head", "feature_dim", "n_classes", "joint_count",
                                     "loss_history", "refine_head"],
    }
    for cls, names in fields.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls
