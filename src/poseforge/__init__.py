"""poseforge: LCR-Net++-style multi-person 2D-3D pose detection: anchor
poses (anchors), box labels and the joint loss (labeling), a linear
classification-regression head (learner), and pose proposal integration (ppi).
"""

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
    "d3d",
    "denormalize_from_box",
    "iou",
    "normalize_to_box",
    "__version__",
]
