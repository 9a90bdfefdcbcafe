"""poseforge: LCR-Net++-style multi-person 2D-3D pose detection: anchor
poses (anchors), box labels and the joint loss (labeling), a linear
classification-regression head (learner), and pose proposal integration (ppi).
"""

from poseforge.pose import (
    H13,
    AnchorPose,
    BoundingBox,
    Pose2D,
    Pose3D,
    PoseSpec,
    d3d,
    iou,
)

__version__ = "0.1.0"

__all__ = [
    "H13",
    "AnchorPose",
    "BoundingBox",
    "Pose2D",
    "Pose3D",
    "PoseSpec",
    "d3d",
    "iou",
    "__version__",
]
