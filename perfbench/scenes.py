"""Seeded synthetic scenes: articulated H13 people, candidate boxes, features.

Everything here is plain NumPy so that the same arrays can be turned into
package objects (Pose2D / Pose3D / BoundingBox) after a fresh import of
poseforge. The same seed always gives the same arrays.

Conventions follow poseforge.pose: pixels with y downward, meters for 3D,
z into the image plane, so a 2D pose is the 3D pose with z dropped, times
a per-person scale (pixels per meter), plus the person's image offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

J = 13
# Parent per joint, as poseforge.pose.H13.kinematic_tree; every parent
# index is below its child, so one forward pass places the whole chain.
PARENT = (-1, 0, 0, 1, 2, 3, 4, 1, 2, 7, 8, 9, 10)
TORSO = (1, 2, 7, 8)  # H13.torso_anchor_joints: never occluded
# Rest offset of each joint from its parent, meters, upright and facing
# the camera.
REST = np.array([
    [0.00, 0.00, 0.0],    # head (root)
    [0.17, 0.22, 0.0],    # left shoulder
    [-0.17, 0.22, 0.0],   # right shoulder
    [0.03, 0.28, 0.0],    # left elbow
    [-0.03, 0.28, 0.0],   # right elbow
    [0.00, 0.26, 0.0],    # left wrist
    [0.00, 0.26, 0.0],    # right wrist
    [-0.05, 0.52, 0.0],   # left hip
    [0.05, 0.52, 0.0],    # right hip
    [0.00, 0.44, 0.0],    # left knee
    [0.00, 0.44, 0.0],    # right knee
    [0.00, 0.42, 0.0],    # left ankle
    [0.00, 0.42, 0.0],    # right ankle
])
# Action prototypes: (pitch, roll) in degrees of the bone ending at each
# limb joint, relative to its parent bone, plus a torso lean (pitch at the
# root). Distinct prototypes give k-means real clusters to find.
LIMBS = (3, 4, 5, 6, 9, 10, 11, 12)
PROTOTYPES = {
    "stand": {},
    "walk": {3: (-25, 0), 4: (25, 0), 5: (-20, 0), 6: (-20, 0),
             9: (-25, 0), 10: (25, 0), 11: (20, 0), 12: (10, 0)},
    "arms_up": {3: (0, -160), 4: (0, 160)},
    "t_pose": {3: (0, -90), 4: (0, 90)},
    "sit": {9: (-90, 0), 10: (-90, 0), 11: (90, 0), 12: (90, 0)},
    "reach": {4: (-90, 0), 6: (-10, 0), 3: (-20, 0)},
    "crouch": {0: (-30, 0), 9: (-100, 0), 10: (-100, 0),
               11: (120, 0), 12: (120, 0), 3: (-40, 0), 4: (-40, 0)},
}
ANGLE_NOISE_DEG = 10.0
OCCLUSION_RATE = 0.15
GT_BOX_MARGIN = 0.10  # poseforge.pose.DEFAULT_BOX_MARGIN, as labeling uses


def _rot_x(theta):
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(theta.shape + (3, 3))
    out[..., 0, 0] = 1.0
    out[..., 1, 1], out[..., 1, 2] = c, -s
    out[..., 2, 1], out[..., 2, 2] = s, c
    return out


def _rot_y(theta):
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(theta.shape + (3, 3))
    out[..., 1, 1] = 1.0
    out[..., 0, 0], out[..., 0, 2] = c, s
    out[..., 2, 0], out[..., 2, 2] = -s, c
    return out


def _rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(theta.shape + (3, 3))
    out[..., 2, 2] = 1.0
    out[..., 0, 0], out[..., 0, 1] = c, -s
    out[..., 1, 0], out[..., 1, 1] = s, c
    return out


def sample_poses3d(rng: np.random.Generator, n: int) -> np.ndarray:
    """n torso-centered (J, 3) skeletons built along the kinematic tree.

    Each person takes an action prototype with noisy joint angles, a bone
    length scale and a random rotation about the vertical (y) axis.
    """
    names = sorted(PROTOTYPES)
    proto = rng.integers(len(names), size=n)
    angles = np.zeros((n, J, 2))
    for p, name in enumerate(names):
        for j, (pitch, roll) in PROTOTYPES[name].items():
            angles[proto == p, j] = (pitch, roll)
    noisy = list(LIMBS) + [0]
    angles[:, noisy] += rng.normal(0.0, ANGLE_NOISE_DEG, size=(n, len(noisy), 2))
    angles = np.deg2rad(angles)
    length = rng.normal(1.0, 0.04, size=n)
    yaw = rng.uniform(-np.pi, np.pi, size=n)

    local = _rot_z(angles[..., 1]) @ _rot_x(angles[..., 0])  # (n, J, 3, 3)
    glob = np.empty_like(local)
    pos = np.zeros((n, J, 3))
    glob[:, 0] = _rot_y(yaw) @ local[:, 0]
    for j in range(1, J):
        par = PARENT[j]
        glob[:, j] = glob[:, par] @ local[:, j]
        pos[:, j] = pos[:, par] + length[:, None] * (glob[:, j] @ REST[j])
    return pos - pos[:, list(TORSO)].mean(axis=1, keepdims=True)


def sample_visibility(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, J) visibility: torso joints always visible, others occluded at random."""
    vis = rng.random((n, J)) >= OCCLUSION_RATE
    vis[:, list(TORSO)] = True
    return vis


def project(pose3d: np.ndarray, scale: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Drop z, scale to pixels and move to the image position: (n, J, 2)."""
    return pose3d[..., :2] * scale[:, None, None] + offset[:, None, :]


def visible_boxes(pose2d: np.ndarray, vis: np.ndarray) -> np.ndarray:
    """(n, 4) margin boxes over the visible joints, as poseforge.box_around."""
    inf = np.where(vis[..., None], pose2d, np.inf)
    sup = np.where(vis[..., None], pose2d, -np.inf)
    lo, hi = inf.min(axis=1), sup.max(axis=1)
    pad = 0.5 * GT_BOX_MARGIN * (hi - lo)
    return np.concatenate([lo - pad, hi + pad], axis=1)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) IoU of (x0, y0, x1, y1) boxes."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


@dataclass(frozen=True)
class SceneSpec:
    """Sizes and layout of the images of one set (training or test)."""

    images: int
    people: int              # per image
    boxes_per_person: int    # jittered foreground candidates
    background_boxes: int    # per image
    scale: tuple[float, float]   # pixels per meter, uniform range
    spacing: float           # grid step in body heights (half of it across)
    columns: int             # people per grid row


@dataclass(frozen=True)
class Image:
    """Ground truth and candidate boxes of one image, as arrays."""

    gt2d: np.ndarray   # (P, J, 2) pixels, occluded joints keep their coordinates
    vis: np.ndarray    # (P, J) bool
    gt3d: np.ndarray   # (P, J, 3) torso-centered meters
    boxes: np.ndarray  # (B, 4) candidate boxes
    feats: np.ndarray  # (B, D) features


class FeatureMap:
    """Stand-in for the CNN: a seeded noisy linear map of what a box sees.

    A box sees the ground-truth person it overlaps most: that person's 2D
    pose in the box's unit coordinates (centered), the 3D pose, and the
    overlap itself. A box overlapping nobody sees zeros. The head can
    therefore learn labels and regression targets, but not exactly.
    """

    def __init__(self, rng: np.random.Generator, dim: int, noise: float):
        self.inputs = 5 * J + 2  # pose in box, 3D pose, IoU, constant
        if dim < self.inputs:
            raise ValueError(f"feature dim must be at least {self.inputs}")
        # orthonormal rows: every seed loses no information and gives the
        # learner the same conditioning, so accuracy varies little by seed
        q, _ = np.linalg.qr(rng.normal(size=(dim, self.inputs)))
        self.matrix = q.T
        self.noise = noise

    def __call__(self, rng, boxes, gt2d, vis, gt3d) -> np.ndarray:
        raw = np.zeros((len(boxes), self.inputs))
        raw[:, -1] = 1.0
        if len(gt2d):
            ious = pairwise_iou(boxes, visible_boxes(gt2d, vis))
            best = ious.argmax(axis=1)
            best_iou = ious[np.arange(len(boxes)), best]
            seen = best_iou > 0.0
            size = boxes[seen, 2:] - boxes[seen, :2]
            in_box = (gt2d[best[seen]] - boxes[seen, None, :2]) / size[:, None, :] - 0.5
            raw[seen, :2 * J] = in_box.reshape(-1, 2 * J)
            raw[seen, 2 * J:5 * J] = gt3d[best[seen]].reshape(-1, 3 * J)
            raw[:, 5 * J] = best_iou
        feats = raw @ self.matrix
        return feats + rng.normal(0.0, self.noise, size=feats.shape)


CORPUS_SCALE = (80.0, 120.0)  # pixels per meter


def make_corpus(rng: np.random.Generator, n: int):
    """n paired poses for the anchor codebook: (pose2d, vis, pose3d)."""
    pose3d = sample_poses3d(rng, n)
    s = rng.uniform(*CORPUS_SCALE, size=n)
    offset = rng.uniform(0.0, 1000.0, size=(n, 2))
    return project(pose3d, s, offset), sample_visibility(rng, n), pose3d


def make_images(rng: np.random.Generator, spec: SceneSpec,
                features: FeatureMap) -> list[Image]:
    """Images of spec.people people on a jittered grid with candidate boxes."""
    images = []
    p = spec.people
    for _ in range(spec.images):
        pose3d = sample_poses3d(rng, p)
        vis = sample_visibility(rng, p)
        s = rng.uniform(*spec.scale, size=p)
        body = 1.9 * s.mean()  # pixels per body height
        cell = np.stack([np.arange(p) % spec.columns, np.arange(p) // spec.columns], axis=1)
        offset = (cell + 0.5) * spec.spacing * body + rng.normal(0.0, 0.05 * body, size=(p, 2))
        offset = offset * np.array([0.5, 1.0])  # people are about half as wide as tall
        gt2d = project(pose3d, s, offset)

        gt_boxes = visible_boxes(gt2d, vis)
        fg = np.repeat(gt_boxes, spec.boxes_per_person, axis=0)
        size = fg[:, 2:] - fg[:, :2]
        center = 0.5 * (fg[:, :2] + fg[:, 2:]) + rng.normal(0.0, 0.07, size=size.shape) * size
        size = size * np.exp(rng.normal(0.0, 0.12, size=size.shape))
        fg = np.concatenate([center - 0.5 * size, center + 0.5 * size], axis=1)

        nb = spec.background_boxes
        lo = gt_boxes[:, :2].min(axis=0)
        hi = gt_boxes[:, 2:].max(axis=0)
        bg_size = (gt_boxes[:, 2:] - gt_boxes[:, :2]).mean(axis=0) * rng.uniform(0.5, 1.2, size=(nb, 2))
        bg_min = lo + rng.random((nb, 2)) * np.maximum(hi - lo - bg_size, 1.0)
        bg = np.concatenate([bg_min, bg_min + bg_size], axis=1)

        boxes = np.concatenate([fg, bg])
        images.append(Image(gt2d, vis, pose3d, boxes, features(rng, boxes, gt2d, vis, pose3d)))
    return images


def nan_coded(pose2d: np.ndarray, vis: np.ndarray) -> np.ndarray:
    """Copy of 2D poses with occluded joints coded as NaN."""
    out = pose2d.copy()
    out[~vis] = np.nan
    return out
