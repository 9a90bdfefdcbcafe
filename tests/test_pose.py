import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poseforge.pose import (
    H13,
    H17,
    BoundingBox,
    Pose2D,
    Pose3D,
    PoseSpec,
    box_around,
    center_3d,
    d3d,
    d3d_kernel,
    d3d_matrix,
    denormalize_from_box,
    extrapolate_head_top,
    fit_scale_offset,
    iou,
    iou_kernel,
    margin_boxes,
    normalize_to_box,
)

RNG = np.random.default_rng(12345)


def random_pose3d(rng, j=13, scale=0.5):
    return center_3d(H13 if j == 13 else H17, rng.normal(0.0, scale, size=(j, 3)))


def random_pose2d(rng, j=13, scale=100.0):
    return Pose2D(rng.normal(200.0, scale, size=(j, 2)))


class TestSpecs:
    def test_h13_h17_valid(self):
        assert H13.joint_count == 13
        assert H17.joint_count == 17
        assert H13.root_joint == 0
        assert H17.root_joint == 13

    def test_upper_lower_partition(self):
        assert set(H13.upper_body_joints) | set(H13.lower_body_joints) == set(range(13))
        assert not set(H13.upper_body_joints) & set(H13.lower_body_joints)

    def test_invalid_tree_rejected(self):
        with pytest.raises(ValueError):
            PoseSpec("bad", ("a", "b"), (0,), (0, 1), (1, 0))  # cycle, no root

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            PoseSpec("bad", ("a", "b"), (5,), (0, 1), (-1, 0))


class TestPoseTypes:
    def test_pose2d_defaults_visible(self):
        p = Pose2D(np.zeros((13, 2)))
        assert p.visibility.all()

    def test_pose2d_nonfinite_visible_rejected(self):
        coords = np.zeros((13, 2))
        coords[3, 0] = np.nan
        with pytest.raises(ValueError):
            Pose2D(coords)
        vis = np.ones(13, dtype=bool)
        vis[3] = False
        Pose2D(np.nan_to_num(coords), vis)  # fine once hidden

    def test_pose_immutability(self):
        p = random_pose2d(np.random.default_rng(0))
        with pytest.raises(ValueError):
            p.coords[0, 0] = 1.0

    def test_center_3d(self):
        rng = np.random.default_rng(7)
        pose = center_3d(H13, rng.normal(2.0, 0.4, size=(13, 3)))
        torso = pose.coords[list(H13.torso_anchor_joints)].mean(axis=0)
        assert np.abs(torso).max() < 1e-9

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 10)

    @pytest.mark.parametrize("bounds", [(0, 0, np.inf, 10), (-np.inf, 0, 1, 10),
                                        (0, -np.inf, 1, np.inf), (0, np.nan, 1, 10)])
    def test_non_finite_box_rejected(self, bounds):
        with pytest.raises(ValueError, match=r"box bounds must be finite, got \("):
            BoundingBox(*bounds)

    @pytest.mark.parametrize("cls, width, shape", [
        (Pose2D, 2, (13, 3)), (Pose2D, 2, (13,)), (Pose3D, 3, (13, 2)), (Pose3D, 3, (2, 13, 3)),
    ])
    def test_bad_shape_rejected(self, cls, width, shape):
        message = rf"expected \(J, {width}\) coordinates, got shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=message):
            cls(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cls, width, message", [
        (Pose2D, 2, "visible joints must have finite coordinates"),
        (Pose3D, 3, "3D coordinates must be finite"),
    ])
    def test_non_finite_rejected(self, bad, cls, width, message):
        coords = np.zeros((13, width))
        coords[5, 1] = bad
        with pytest.raises(ValueError, match=message):
            cls(coords)

    @pytest.mark.parametrize("cls, width", [(Pose2D, 2), (Pose3D, 3)])
    def test_coords_are_read_only_copy(self, cls, width):
        coords = np.random.default_rng(3).normal(0.0, 1.0, (13, width))
        pose = cls(coords)
        assert np.array_equal(pose.coords, coords)
        with pytest.raises(ValueError, match="read-only"):
            pose.coords[0, 0] = 1.0
        coords[:] = 7.0  # the pose holds a copy
        assert (pose.coords != 7.0).all()

    def test_pose2d_visibility_is_read_only_copy(self):
        vis = np.ones(13, dtype=bool)
        pose = Pose2D(np.zeros((13, 2)), vis)
        vis[0] = False  # the pose holds a copy
        assert pose.visibility.all()
        with pytest.raises(ValueError, match="read-only"):
            pose.visibility[0] = False


class TestD3d:
    def test_identity_is_zero(self):
        p = random_pose3d(np.random.default_rng(1))
        assert d3d(p, p) == 0.0

    def test_translation_removed_by_centering(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(0.0, 0.5, size=(13, 3))
        p = center_3d(H13, raw)
        q = center_3d(H13, raw + np.array([0.3, -1.2, 4.0]))
        assert d3d(p, q) < 1e-12

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        p, q = random_pose3d(rng), random_pose3d(rng)
        naive = sum(
            float(np.sqrt(((p.coords[j] - q.coords[j]) ** 2).sum())) for j in range(13)
        ) / 13.0
        assert abs(d3d(p, q) - naive) < 1e-12

    def test_spec_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            d3d(random_pose3d(rng, 13), random_pose3d(rng, 17))

    def test_metric_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c = (random_pose3d(rng) for _ in range(3))
            assert d3d(a, b) == pytest.approx(d3d(b, a), abs=1e-15)
            assert d3d(a, b) >= 0.0
            assert d3d(a, c) <= d3d(a, b) + d3d(b, c) + 1e-12

    def test_matrix_matches_pairs(self):
        rng = np.random.default_rng(6)
        a = np.stack([random_pose3d(rng).coords for _ in range(5)])
        b = np.stack([random_pose3d(rng).coords for _ in range(7)])
        mat = d3d_matrix(a, b)
        for i in range(5):
            for k in range(7):
                assert mat[i, k] == pytest.approx(d3d(Pose3D(a[i]), Pose3D(b[k])), abs=1e-12)


def norm_d3d_matrix(a, b):
    """d3d_matrix as np.linalg.norm computes it, the formula it replaced."""
    return np.linalg.norm(a[:, None] - b[None], axis=3).mean(axis=2)


class TestD3dKernel:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 30), m=st.integers(1, 12), j=st.integers(1, 24),
           exponent=st.integers(-8, 8), chunk=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_matrix_equals_norm_formula_and_d3d_exactly(self, n, m, j, exponent, chunk, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 10.0 ** exponent, size=(n, j, 3))
        b = rng.normal(0.0, 10.0 ** exponent, size=(m, j, 3))
        mat = d3d_matrix(a, b, chunk=chunk)
        assert np.array_equal(mat, norm_d3d_matrix(a, b))
        i, k = int(rng.integers(n)), int(rng.integers(m))
        assert mat[i, k] == d3d(Pose3D(a[i]), Pose3D(b[k]))
        assert d3d(Pose3D(a[i]), Pose3D(b[k])) == float(
            np.linalg.norm(a[i] - b[k], axis=1).mean())

    def test_paired_rows_equal_matrix_diagonal(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(0, 0.4, (50, 13, 3)), rng.normal(0, 0.4, (50, 13, 3))
        rows = d3d_kernel(a.transpose(2, 0, 1), b.transpose(2, 0, 1))
        assert np.array_equal(rows, np.diag(d3d_matrix(a, b)))

    def test_spec_mismatch(self):
        with pytest.raises(ValueError, match="pose spec mismatch"):
            d3d_matrix(np.zeros((2, 13, 3)), np.zeros((2, 17, 3)))


def box_around_oracle(pose, margin_fraction):
    """box_around written out for one pose, the form margin_boxes stacks."""
    pts = pose.coords[pose.visibility]
    if not len(pts):
        raise ValueError("pose has no visible joints")
    x_min, y_min = pts.min(axis=0)
    x_max, y_max = pts.max(axis=0)
    if x_max <= x_min or y_max <= y_min:
        raise ValueError("visible joints span a degenerate (zero-extent) box")
    dx = 0.5 * margin_fraction * (x_max - x_min)
    dy = 0.5 * margin_fraction * (y_max - y_min)
    return BoundingBox(x_min - dx, y_min - dy, x_max + dx, y_max + dy)


class TestBoxes:
    def test_box_around_no_margin(self):
        pose = Pose2D([[0, 0], [100, 100]] + [[50, 50]] * 11)
        b = box_around(pose, 0.0)
        assert b.as_tuple() == (0, 0, 100, 100)

    def test_box_around_ten_percent(self):
        pose = Pose2D([[0, 0], [100, 100]] + [[50, 50]] * 11)
        b = box_around(pose, 0.10)
        assert b.as_tuple() == pytest.approx((-5, -5, 105, 105))

    def test_box_around_uses_visible_only(self):
        coords = np.array([[0, 0], [10, 10], [1000, 1000]], dtype=float)
        vis = np.array([True, True, False])
        b = box_around(Pose2D(coords, vis), 0.0)
        assert b.as_tuple() == (0, 0, 10, 10)

    def test_single_visible_joint_rejected(self):
        vis = np.zeros(13, dtype=bool)
        vis[0] = True
        with pytest.raises(ValueError):
            box_around(Pose2D(np.zeros((13, 2)), vis))

    def test_no_visible_joint_rejected(self):
        with pytest.raises(ValueError):
            box_around(Pose2D(np.zeros((13, 2)), np.zeros(13, dtype=bool)))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), margin=st.sampled_from([0.0, 0.1, 0.37]),
           seed=st.integers(0, 2**32 - 1))
    def test_margin_boxes_match_scalar_oracle(self, n, margin, seed):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(-50.0, 400.0, size=(n, 13, 2))
        vis = rng.random((n, 13)) < 0.7
        vis[:, :2] = True
        coords[~vis] = np.nan  # invisible joints may be NaN
        boxes = margin_boxes(coords, vis, margin)
        for i in range(n):
            expected = box_around_oracle(Pose2D(coords[i], vis[i]), margin)
            assert tuple(boxes[i]) == expected.as_tuple()
            assert box_around(Pose2D(coords[i], vis[i]), margin) == expected

    def test_margin_boxes_reject_like_box_around(self):
        coords = np.tile(np.arange(26.0).reshape(13, 2), (3, 1, 1))
        vis = np.ones((3, 13), dtype=bool)
        vis[1] = False
        with pytest.raises(ValueError, match="pose has no visible joints"):
            margin_boxes(coords, vis)
        vis[1, 4] = True
        with pytest.raises(ValueError, match=r"degenerate \(zero-extent\) box"):
            margin_boxes(coords, vis)
        with pytest.raises(ValueError, match=r"degenerate box \("):
            margin_boxes(coords[:1], vis[:1], margin_fraction=-2.0)

    def test_iou_identical(self):
        b = BoundingBox(0, 0, 2, 2)
        assert iou(b, b) == 1.0

    def test_iou_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_iou_partial(self):
        assert iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 0, 3, 2)) == pytest.approx(2 / 6)

    def test_iou_symmetric_bounded(self):
        def random_box(rng):
            x = np.sort(rng.uniform(0, 10, 2))
            y = np.sort(rng.uniform(0, 10, 2))
            return BoundingBox(x[0], y[0], x[1] + 1e-3, y[1] + 1e-3)

        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(iou(b, a), abs=1e-15)


def iou_oracle(a, b):
    """pose.iou as it was written before iou_kernel, kept verbatim as the
    reference."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def expected_iou(a, b):
    """iou_oracle, except that boxes whose two areas underflow to 0 get 0,
    where the oracle divides 0 by 0."""
    try:
        return iou_oracle(a, b)
    except ZeroDivisionError:
        return 0.0


@st.composite
def grid_boxes(draw, n):
    """(n, 4) boxes on an integer grid of 0 to 10 units, 1 to 4 units wide
    and high, so that edges touch and boxes coincide or contain one
    another. Each box has its own unit; at the smallest units its area
    is subnormal or underflows to 0."""
    unit = draw(arrays(np.float64, (n, 1), elements=st.sampled_from(
        [1.0, 0.1, 1e3, 1e-160, 1e-200, 5e-324])))
    lo = draw(arrays(np.int64, (n, 2), elements=st.integers(0, 6)))
    size = draw(arrays(np.int64, (n, 2), elements=st.integers(1, 4)))
    return np.concatenate([lo, lo + size], axis=1) * unit


class TestIouKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 10))
    def test_equals_scalar_formula_exactly(self, data, n):
        a, b = data.draw(grid_boxes(n)), data.draw(grid_boxes(n))
        ba, bb = [BoundingBox(*r) for r in a.tolist()], [BoundingBox(*r) for r in b.tolist()]

        def same(got, want):
            assert got.shape == np.shape(want)
            assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()

        same(iou_kernel(a, b), [expected_iou(p, q) for p, q in zip(ba, bb)])
        same(iou_kernel(a[0], b), [expected_iou(ba[0], q) for q in bb])
        same(iou_kernel(a[:, None], b), [[expected_iou(p, q) for q in bb] for p in ba])
        same(iou_kernel(a[0], b[0]), expected_iou(ba[0], bb[0]))
        assert iou(ba[0], bb[0]) == expected_iou(ba[0], bb[0])

    def test_underflowing_areas_give_zero(self):
        box = BoundingBox(0.0, 0.0, 1e-200, 1e-200)  # area 1e-400 underflows to 0
        assert iou(box, box) == 0.0
        with pytest.raises(ZeroDivisionError):
            iou_oracle(box, box)


class TestBoxNormalization:
    def test_center_maps_to_half(self):
        box = BoundingBox(10, 20, 30, 60)
        p = Pose2D([[20, 40]] * 13)
        n = normalize_to_box(p, box)
        assert np.allclose(n.coords, 0.5)

    def test_corner_maps_to_zero(self):
        box = BoundingBox(10, 20, 30, 60)
        p = Pose2D([[10, 20]] * 13)
        assert np.allclose(normalize_to_box(p, box).coords, 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            p = random_pose2d(rng)
            box = BoundingBox(*np.sort(rng.uniform(0, 300, 2)), 400 + rng.uniform(0, 300), 500 + rng.uniform(0, 300))
            rt = denormalize_from_box(normalize_to_box(p, box), box)
            assert np.abs(rt.coords - p.coords).max() < 1e-12


class TestFitScaleOffset:
    def test_exact_recovery(self):
        rng = np.random.default_rng(15)
        src = rng.normal(0, 1, (10, 2))
        s, t = 2.5, np.array([3.0, -7.0])
        dst = s * src + t
        s_hat, t_hat = fit_scale_offset(src, dst)
        assert s_hat == pytest.approx(s, abs=1e-12)
        assert np.allclose(t_hat, t, atol=1e-12)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            fit_scale_offset(np.ones((5, 2)), np.ones((5, 2)))


class TestHeadTop:
    def test_extrapolation_direction(self):
        coords = np.zeros((13, 2))
        coords[0] = [0.0, 0.0]    # head
        coords[1] = [-10.0, 20.0]  # shoulders -> neck at (0, 20)
        coords[2] = [10.0, 20.0]
        top = extrapolate_head_top(H13, Pose2D(coords), ratio=1.0)
        assert np.allclose(top, [0.0, -20.0])
