"""Pose, box, and distance primitives shared by every other module.

Conventions used throughout the package:

* 2D coordinates are pixels, x to the right and y downward.
* 3D coordinates are meters, torso-centered: the mean over the spec's
  torso anchor joints is the origin. The z axis points into the image
  plane, so dropping z from an oriented 3D pose yields its 2D layout.
* All arrays are float64; pose objects are immutable value objects and
  every operation in this module is pure, so unrestricted concurrent use
  is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Margin used when deriving a bounding box from the joints of a pose,
# as a fraction of the tight box extent (split evenly on both sides).
DEFAULT_BOX_MARGIN = 0.10


@dataclass(frozen=True)
class PoseSpec:
    """Joint layout shared by all poses of one skeleton convention.

    Attributes:
        name: short identifier, such as "h13".
        joint_names: one label per joint.
        torso_anchor_joints: indices whose coordinate mean defines the
            torso center (the origin of torso-centered 3D poses).
        head_joints: indices defining the head segment for PCKh; the
            first entry is the head joint, the mean of the remaining
            entries gives the segment base (neck) point.
        lower_body_joints: indices treated as lower body (hips, knees,
            ankles) when building upper-body anchor variants.
    """

    name: str
    joint_names: tuple[str, ...]
    torso_anchor_joints: tuple[int, ...]
    head_joints: tuple[int, ...]
    lower_body_joints: tuple[int, ...] = ()

    def __post_init__(self):
        j = len(self.joint_names)
        if j < 2:
            raise ValueError(f"need at least 2 joints, got {j}")
        if not self.torso_anchor_joints:
            raise ValueError("torso_anchor_joints must be non-empty")
        for grp in (self.torso_anchor_joints, self.head_joints, self.lower_body_joints):
            if any(i < 0 or i >= j for i in grp):
                raise ValueError(f"joint index out of range in {grp}")
        if len(self.head_joints) < 2:
            raise ValueError("head_joints needs a head joint plus base joints")

    @property
    def joint_count(self) -> int:
        return len(self.joint_names)

    @property
    def upper_body_joints(self) -> tuple[int, ...]:
        lower = set(self.lower_body_joints)
        return tuple(i for i in range(self.joint_count) if i not in lower)

    @property
    def head_torso_joints(self) -> tuple[int, ...]:
        """Head + torso anchor joints, used for conservative overlap boxes."""
        return (self.head_joints[0],) + self.torso_anchor_joints


H13 = PoseSpec(
    name="h13",
    joint_names=(
        "head",
        "left_shoulder", "right_shoulder",
        "left_elbow", "right_elbow",
        "left_wrist", "right_wrist",
        "left_hip", "right_hip",
        "left_knee", "right_knee",
        "left_ankle", "right_ankle",
    ),
    torso_anchor_joints=(1, 2, 7, 8),
    head_joints=(0, 1, 2),  # neck proxy = mid-shoulders
    lower_body_joints=(7, 8, 9, 10, 11, 12),
)


def _coords_array(coords, width) -> np.ndarray:
    """Read-only float64 copy of (J, width) coordinates."""
    arr = np.array(coords, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"expected (J, {width}) coordinates, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, slots=True)
class Pose2D:
    """2D pose: per-joint pixel coordinates plus a visibility flag.

    Visible joints must be finite; a hidden joint may hold any value, NaN
    included (see _check_finite).
    """

    coords: np.ndarray  # (J, 2) pixels
    visibility: np.ndarray = None  # (J,) bool; defaults to all visible

    def __post_init__(self):
        coords = _coords_array(self.coords, 2)
        object.__setattr__(self, "coords", coords)
        if self.visibility is None:
            vis = np.ones(len(coords), dtype=bool)
        else:
            vis = np.array(self.visibility, dtype=bool, copy=True)
        if vis.shape != (len(coords),):
            raise ValueError("visibility length must equal joint count")
        vis.setflags(write=False)
        object.__setattr__(self, "visibility", vis)
        _check_finite(coords, vis)

    @property
    def joint_count(self) -> int:
        return len(self.coords)


@dataclass(frozen=True, eq=False, slots=True)
class Pose3D:
    """Torso-centered 3D pose in meters."""

    coords: np.ndarray  # (J, 3)

    def __post_init__(self):
        coords = _coords_array(self.coords, 3)
        _check_finite(coords)
        object.__setattr__(self, "coords", coords)


@functools.cache
def _frozen(cls):
    """The private constructor of the slotted frozen dataclass cls: a
    function of its field values, in declaration order, that returns an
    instance holding them. The caller has already checked the values.

    __init__ and __post_init__ do not run, so nothing is copied,
    converted or validated; arrays passed in should already be
    read-only. Each field is stored through its slot's descriptor, whose
    __set__ is bound once here, so a store skips both the frozen
    __setattr__ and object.__setattr__'s lookup of the name. The
    function is generated once per class, as dataclasses generates
    __init__: a loop over the field names would cost each instance about
    half as much again.

    The classes are slotted, and the builder must not write their fields
    into an instance __dict__ instead. Unslotted, that built instances
    about twice as fast as attribute stores, but it gives every instance
    a dict of its own: tracemalloc counts 180 bytes per Detection that
    way, against 117 with attribute stores and 76 in slots, and the
    infer path builds one Detection, Pose2D and Pose3D per mode and one
    PoseProposal, Pose2D and Pose3D per proposal.
    """
    names = cls.__match_args__
    scope = {f"_frozen_set_{name}": cls.__dict__[name].__set__ for name in names}
    scope.update(_frozen_new=object.__new__, _frozen_cls=cls)
    body = "".join(f"    _frozen_set_{name}(_frozen_obj, {name})\n" for name in names)
    exec(f"def build({', '.join(names)}):\n    _frozen_obj = _frozen_new(_frozen_cls)\n"
         f"{body}    return _frozen_obj\n", scope)
    return scope["build"]


@functools.lru_cache(maxsize=8)
def _all_visible(joint_count: int) -> np.ndarray:
    """A read-only all-True visibility mask, shared by the poses of that
    joint count that the package builds from stacks."""
    vis = np.ones(joint_count, dtype=bool)
    vis.setflags(write=False)
    return vis


def _check_count(name: str, value, least: int) -> None:
    """Reject a value that is a bool, is not an integer or is below least."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not value >= least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _stack_pairs(pairs, spec: PoseSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, J, 2) 2D coordinates, (N, J) visibility and (N, J, 3) 3D
    coordinates of N (Pose2D, Pose3D) pairs, such as a ground truth or a
    codebook's corpus. Rejects a pair whose 2D or 3D joint count is not
    spec's."""
    j = spec.joint_count
    for p2, p3 in pairs:
        if len(p2.coords) != j or len(p3.coords) != j:
            raise ValueError(f"ground truth has {len(p2.coords)} 2D and {len(p3.coords)} 3D "
                             f"joints, the anchors' spec {spec.name} has {j}")
    # np.array stacks equal-shape arrays about twice as fast as np.stack
    return (np.array([p2.coords for p2, _ in pairs]),
            np.array([p2.visibility for p2, _ in pairs]),
            np.array([p3.coords for _, p3 in pairs]))


def _all_finite(x: np.ndarray) -> bool:
    """Whether every entry of the float array x is finite: the package's
    one finiteness rule.

    A NaN or an infinity makes the sum of the squared entries NaN or inf,
    so a finite sum proves x finite in one BLAS dot, which numpy runs
    without a floating-point warning. Only a sum that is not finite (a
    non-finite entry, or finite entries whose squares overflow, from
    about 1.3e154) costs the exact np.isfinite scan.
    """
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def _check_finite(coords: np.ndarray, visibility: np.ndarray | None = None) -> None:
    """Reject 2D or 3D coordinates, of one pose or a stack, holding a
    NaN or an infinity (see _all_finite), with Pose2D's or Pose3D's
    message. Given a visibility mask, only the visible joints must be
    finite; they are tested alone only when the whole array is not."""
    if not _all_finite(coords) and (visibility is None or not _all_finite(coords[visibility])):
        raise ValueError("visible joints must have finite coordinates" if coords.shape[-1] == 2
                         else "3D coordinates must be finite")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box with finite bounds and strictly positive extent."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.y_min)
                and math.isfinite(self.x_max) and math.isfinite(self.y_max)):
            raise ValueError(f"box bounds must be finite, got {self.as_tuple()}")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError(
                f"degenerate box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True, eq=False)
class AnchorPose:
    """Canonical paired 2D-3D pose used as a classification target.

    The 2D layout lives in unit-box coordinates (labeling.apply_regression
    places it, refined by a residual, into a candidate box); the 3D pose
    is torso-centered. An anchor's id is its position in its AnchorSet,
    which also tells whether it is full-body or an upper-body variant.
    """

    pose2d: Pose2D
    pose3d: Pose3D


def d3d_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d3d between transposed coordinate stacks a and b.

    a and b are (3, ..., J) stacks (x, y and z planes first, joints last)
    that broadcast against each other; the result has their broadcast
    shape without the first and last axes. The squared x, y and z
    differences are added in that order before the square root, as
    np.linalg.norm adds them over a length-3 axis, so the result equals
    np.linalg.norm(p - q, axis=-1).mean(axis=-1) on the untransposed
    (..., J, 3) stacks p and q bit for bit.
    """
    acc = np.subtract(a[0], b[0])
    acc *= acc
    sq = np.subtract(a[1], b[1])
    sq *= sq
    acc += sq
    np.subtract(a[2], b[2], out=sq)
    sq *= sq
    acc += sq
    np.sqrt(acc, out=acc)
    # what .mean(axis=-1) computes, without its Python wrapper
    return np.add.reduce(acc, axis=-1) / acc.shape[-1]


def iou_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of box stacks a and b, (..., 4) rows (x_min, y_min, x_max,
    y_max) that broadcast against each other; the last axis is dropped.

    The union adds a's area to b's, then subtracts the intersection.
    Disjoint boxes get 0, and so do boxes whose two areas underflow to 0.
    """
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    hit = np.minimum(iw, ih) > 0.0
    inter = np.multiply(iw, ih, out=np.zeros(hit.shape), where=hit)
    union = ((a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
             + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter)
    return np.divide(inter, union, out=np.zeros(hit.shape), where=union > 0.0)


def d3d(p: Pose3D, q: Pose3D) -> float:
    """Mean per-joint Euclidean distance between torso-centered 3D poses."""
    if p.coords.shape != q.coords.shape:
        raise ValueError(f"pose spec mismatch: {p.coords.shape} vs {q.coords.shape}")
    return float(d3d_kernel(p.coords.T, q.coords.T))


def d3d_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise d3d between coordinate stacks a (N, J, 3) and b (M, J, 3).

    Raises ValueError on a stack of another shape, or on stacks whose
    joint counts differ.

    Computes all N * M pairs in one broadcast, with (N, M, J)
    temporaries: its callers pass small stacks, such as one image's
    ground truth against a codebook.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[2] != 3 or b.shape[2] != 3:
        raise ValueError(f"expected (N, J, 3) stacks, got shapes {a.shape} and {b.shape}")
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"pose spec mismatch: {a.shape} vs {b.shape}")
    return d3d_kernel(np.ascontiguousarray(a.transpose(2, 0, 1))[:, :, None, :],
                      np.ascontiguousarray(b.transpose(2, 0, 1))[:, None, :, :])


# a margin that overflows is rejected below, so numpy's warning would only
# repeat the ValueError
@np.errstate(over="ignore")
def margin_boxes(coords: np.ndarray, visibility: np.ndarray) -> np.ndarray:
    """(N, 4) boxes (x_min, y_min, x_max, y_max) over the visible joints
    of N poses, coords (N, J, 2) and visibility (N, J); invisible joints
    may hold any value, NaN included.

    Each box is the tight box over the visible joints, widened by
    DEFAULT_BOX_MARGIN of its extent per axis, half on each side. Raises
    ValueError when a pose has no visible joint or its visible joints
    span zero extent, which cannot anchor a proposal box, and with
    BoundingBox's message when the margin makes a box non-finite.
    """
    vis = visibility[..., None]
    lo = np.where(vis, coords, np.inf).min(axis=1)
    hi = np.where(vis, coords, -np.inf).max(axis=1)
    if not visibility.any(axis=1).all():
        raise ValueError("pose has no visible joints")
    if (hi <= lo).any():
        raise ValueError("visible joints span a degenerate (zero-extent) box")
    d = 0.5 * DEFAULT_BOX_MARGIN * (hi - lo)
    boxes = np.concatenate([lo - d, hi + d], axis=1)
    if not _all_finite(boxes):
        for box in boxes:
            BoundingBox(*box.tolist())  # raises BoundingBox's own error at the first bad box
    return boxes


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; see iou_kernel."""
    return float(iou_kernel(np.array(a.as_tuple()), np.array(b.as_tuple())))


# an s or t that is not finite is rejected below, so numpy's warnings would
# only repeat the ValueError
@np.errstate(over="ignore", invalid="ignore")
def fit_scale_offset(src: np.ndarray, dst: np.ndarray) -> tuple[float, np.ndarray]:
    """Least-squares uniform scale + translation mapping src onto dst.

    Minimizes sum ||s * src_i + t - dst_i||^2 over scalar s and 2D/any-D
    offset t. Raises ValueError on fewer than 2 points, on a NaN or an
    infinity in either point set, on zero spread in src, or when s or t
    is not finite, as for finite points so far apart that their squared
    spread overflows.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or len(src) < 2:
        raise ValueError("need matching point sets with at least 2 points")
    if not (_all_finite(src) and _all_finite(dst)):
        raise ValueError("points must be finite")
    src_c = src.mean(axis=0)
    dst_c = dst.mean(axis=0)
    src0 = src - src_c
    denom = float((src0 ** 2).sum())
    if denom <= 0.0:
        raise ValueError("source points are coincident; scale is undetermined")
    s = float((src0 * (dst - dst_c)).sum() / denom)
    t = dst_c - s * src_c
    if not (math.isfinite(s) and _all_finite(t)):
        raise ValueError(f"scale and offset must be finite, got {s} and {t}")
    return s, t


def extrapolate_head_top(spec: PoseSpec, pose: Pose2D) -> np.ndarray:
    """Head-top point extrapolated along the neck-to-head direction.

    The 13-joint spec has no head-top joint; the point at
    head + (head - neck) stands in for it when computing head sizes
    (neck = mean of the base joints in spec.head_joints). Raises
    ValueError when the head joint or a base joint is not finite, as an
    occluded joint of a Pose2D may be.
    """
    joints = pose.coords[list(spec.head_joints)]
    if not _all_finite(joints):
        raise ValueError("head and neck joints must be finite to extrapolate the head top")
    head, neck = joints[0], joints[1:].mean(axis=0)
    return head + (head - neck)
