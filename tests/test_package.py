import inspect

import poseforge
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
    assert list(inspect.signature(poseforge.pose.d3d_matrix).parameters) == ["a", "b"]
