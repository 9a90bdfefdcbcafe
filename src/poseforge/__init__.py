"""poseforge: anchor-pose proposal pipeline and pose evaluation toolkit."""

from poseforge.pose import (
    H13,
    H17,
    AnchorPose,
    BoundingBox,
    Pose2D,
    Pose3D,
    PoseSpec,
    box_around,
    center_3d,
    d2d,
    d3d,
    denormalize_from_box,
    iou,
    normalize_to_box,
)

__version__ = "0.1.0"

__all__ = [
    "H13",
    "H17",
    "AnchorPose",
    "BoundingBox",
    "Pose2D",
    "Pose3D",
    "PoseSpec",
    "box_around",
    "center_3d",
    "d2d",
    "d3d",
    "denormalize_from_box",
    "iou",
    "normalize_to_box",
    "__version__",
]
