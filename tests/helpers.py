"""Per-pose fixture builders shared by the test modules: a torso-centred
Pose3D and one pose's margin box, written on the package's own routines."""

import numpy as np

from poseforge.pose import DEFAULT_BOX_MARGIN, BoundingBox, Pose3D, margin_boxes


def center_3d(spec, coords):
    """Pose3D of raw (J, 3) coordinates, moved so that the mean of spec's
    torso anchor joints is the origin."""
    arr = np.array(coords, dtype=np.float64)
    return Pose3D(arr - arr[list(spec.torso_anchor_joints)].mean(axis=0))


def box_around(pose, margin_fraction=DEFAULT_BOX_MARGIN):
    """The margin box of one Pose2D, as margin_boxes gives it in a stack."""
    return BoundingBox(*margin_boxes(pose.coords[None], pose.visibility[None],
                                     margin_fraction)[0])
