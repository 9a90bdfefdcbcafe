import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import poseforge.pose as pose_module
import reference as ref
from poseforge.anchors import _fit_scale_offset
from poseforge.pose import (
    H13,
    BoundingBox,
    Pose2D,
    Pose3D,
    PoseSpec,
    d3d,
    d3d_kernel,
    d3d_matrix,
    extrapolate_head_top,
    iou,
    iou_kernel,
    margin_boxes,
)

RNG = np.random.default_rng(12345)


class TestSpecs:
    def test_h13_h17_valid(self):
        assert H13.joint_count == 13
        assert ref.H17.joint_count == 17

    def test_upper_lower_partition(self):
        assert set(H13.upper_body_joints) | set(H13.lower_body_joints) == set(range(13))
        assert not set(H13.upper_body_joints) & set(H13.lower_body_joints)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            PoseSpec("bad", ("a", "b"), (5,), (0, 1))

    @pytest.mark.parametrize("joints, torso, head, message", [
        (("a",), (0,), (0, 0), "need at least 2 joints, got 1"),
        (("a", "b"), (), (0, 1), "torso_anchor_joints must be non-empty"),
        (("a", "b"), (0, 1), (0,), "head_joints needs a head joint plus base joints"),
    ])
    def test_bad_spec_rejected(self, joints, torso, head, message):
        with pytest.raises(ValueError, match=message):
            PoseSpec("bad", joints, torso, head)


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
        assert np.isnan(Pose2D(coords, vis).coords[3, 0])  # fine once hidden
        coords[4:] = 1.5e308  # and when the visible joints' sum overflows
        assert np.array_equal(Pose2D(coords, vis).coords, coords, equal_nan=True)
        coords[5, 1] = np.inf  # a visible infinity beside the hidden NaN
        with pytest.raises(ValueError, match="visible joints must have finite coordinates"):
            Pose2D(coords, vis)

    def test_pose_immutability(self):
        p = Pose2D(np.random.default_rng(0).normal(200.0, 100.0, (13, 2)))
        with pytest.raises(ValueError):
            p.coords[0, 0] = 1.0

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

    @pytest.mark.parametrize("big", [1.5e308, -1.5e308, 1e200])
    @pytest.mark.parametrize("cls, width", [(Pose2D, 2), (Pose3D, 3)])
    def test_finite_entries_whose_sum_overflows_accepted(self, big, cls, width):
        # the one-sum test of finiteness overflows, so the exact scan decides
        coords = np.full((13, width), big)
        assert np.array_equal(cls(coords).coords, coords)

    @pytest.mark.parametrize("bounds", [(1e308, 1e308, 1.5e308, 1.5e308),
                                        (-1.5e308, -1.5e308, -1e308, -1e308)])
    def test_box_whose_bounds_sum_overflows_accepted(self, bounds):
        assert BoundingBox(*bounds).as_tuple() == bounds

    @pytest.mark.parametrize("cls, width", [(Pose2D, 2), (Pose3D, 3)])
    def test_coords_are_read_only_copy(self, cls, width):
        coords = np.random.default_rng(3).normal(0.0, 1.0, (13, width))
        pose = cls(coords)
        assert np.array_equal(pose.coords, coords)
        with pytest.raises(ValueError, match="read-only"):
            pose.coords[0, 0] = 1.0
        coords[:] = 7.0  # the pose holds a copy
        assert (pose.coords != 7.0).all()

    @pytest.mark.parametrize("length", [12, 14])
    def test_pose2d_visibility_of_wrong_length_rejected(self, length):
        with pytest.raises(ValueError, match="visibility length must equal joint count"):
            Pose2D(np.zeros((13, 2)), np.ones(length, dtype=bool))

    def test_pose2d_visibility_is_read_only_copy(self):
        vis = np.ones(13, dtype=bool)
        pose = Pose2D(np.zeros((13, 2)), vis)
        vis[0] = False  # the pose holds a copy
        assert pose.visibility.all()
        with pytest.raises(ValueError, match="read-only"):
            pose.visibility[0] = False


class TestD3d:
    def test_identity_is_zero(self):
        p = ref.pose3d(np.random.default_rng(1), 0.5)
        assert d3d(p, p) == 0.0

    def test_translation_removed_by_centering(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(0.0, 0.5, size=(13, 3))
        p = ref.center_3d(raw)
        q = ref.center_3d(raw + np.array([0.3, -1.2, 4.0]))
        assert d3d(p, q) < 1e-12

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        p, q = ref.pose3d(rng, 0.5), ref.pose3d(rng, 0.5)
        naive = sum(
            float(np.sqrt(((p.coords[j] - q.coords[j]) ** 2).sum())) for j in range(13)
        ) / 13.0
        assert abs(d3d(p, q) - naive) < 1e-12

    def test_spec_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            d3d(ref.pose3d(rng, 0.5), ref.pose3d(rng, 0.5, j=17))

    def test_metric_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c = (ref.pose3d(rng, 0.5) for _ in range(3))
            assert d3d(a, b) == pytest.approx(d3d(b, a), abs=1e-15)
            assert d3d(a, b) >= 0.0
            assert d3d(a, c) <= d3d(a, b) + d3d(b, c) + 1e-12

    def test_matrix_matches_pairs(self):
        rng = np.random.default_rng(6)
        a = np.stack([ref.pose3d(rng, 0.5).coords for _ in range(5)])
        b = np.stack([ref.pose3d(rng, 0.5).coords for _ in range(7)])
        mat = d3d_matrix(a, b)
        for i in range(5):
            for k in range(7):
                assert mat[i, k] == pytest.approx(d3d(Pose3D(a[i]), Pose3D(b[k])), abs=1e-12)


class TestD3dKernel:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 30), m=st.integers(1, 12), j=st.integers(1, 24),
           exponent=st.integers(-8, 8), seed=st.integers(0, 2**32 - 1))
    def test_matrix_equals_norm_formula_and_d3d_exactly(self, n, m, j, exponent, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 10.0 ** exponent, size=(n, j, 3))
        b = rng.normal(0.0, 10.0 ** exponent, size=(m, j, 3))
        mat = d3d_matrix(a, b)
        assert np.array_equal(mat, ref.d3d_matrix(a, b))
        i, k = int(rng.integers(n)), int(rng.integers(m))
        assert mat[i, k] == d3d(Pose3D(a[i]), Pose3D(b[k]))
        assert d3d(Pose3D(a[i]), Pose3D(b[k])) == ref.d3d(a[i], b[k])

    def test_paired_rows_equal_matrix_diagonal(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(0, 0.4, (50, 13, 3)), rng.normal(0, 0.4, (50, 13, 3))
        rows = d3d_kernel(a.transpose(2, 0, 1), b.transpose(2, 0, 1))
        assert np.array_equal(rows, np.diag(d3d_matrix(a, b)))

    @pytest.mark.parametrize("m", [1, 3, 7])  # 3: as many free poses as planes
    def test_seed_against_free_poses_equals_d3d_per_row(self, m):
        # the single-part round of ppi._modes: one seed's (3, J) planes
        # against (3, M, J) free poses, each plane broadcast on its own
        rng = np.random.default_rng(31)
        seed, free = rng.normal(0, 0.4, (13, 3)), rng.normal(0, 0.4, (m, 13, 3))
        got = d3d_kernel(seed.T, free.transpose(2, 0, 1))
        assert got.shape == (m,)
        assert got.tolist() == [ref.d3d(seed, q) for q in free]

    def test_spec_mismatch(self):
        with pytest.raises(ValueError, match="pose spec mismatch"):
            d3d_matrix(np.zeros((2, 13, 3)), np.zeros((2, 17, 3)))

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 13, 2), (3, 13, 2)), ((13, 3), (2, 13, 3)),
                                                  ((2, 13, 3), (2, 13, 3, 1))])
    def test_stacks_not_n_j_3_rejected(self, a_shape, b_shape):
        message = re.escape(f"expected (N, J, 3) stacks, got shapes {a_shape} and {b_shape}")
        with pytest.raises(ValueError, match=message):
            d3d_matrix(np.zeros(a_shape), np.zeros(b_shape))


ALL_13 = np.ones((1, 13), dtype=bool)


class TestBoxes:
    def test_margin_boxes_no_margin(self):
        # the tight box, with the margin constant set to 0
        coords = np.array([[[0, 0], [100, 100]] + [[50, 50]] * 11], dtype=float)
        with mock.patch.object(pose_module, "DEFAULT_BOX_MARGIN", 0.0):
            assert tuple(margin_boxes(coords, ALL_13)[0]) == (0, 0, 100, 100)

    def test_margin_boxes_ten_percent(self):
        coords = np.array([[[0, 0], [100, 100]] + [[50, 50]] * 11], dtype=float)
        assert tuple(margin_boxes(coords, ALL_13)[0]) == pytest.approx((-5, -5, 105, 105))

    def test_margin_boxes_use_visible_only(self):
        coords = np.array([[[0, 0], [10, 10], [1000, 1000]]], dtype=float)
        vis = np.array([[True, True, False]])
        assert tuple(margin_boxes(coords, vis)[0]) == pytest.approx((-0.5, -0.5, 10.5, 10.5))

    def test_single_visible_joint_rejected(self):
        vis = np.zeros((1, 13), dtype=bool)
        vis[0, 0] = True
        with pytest.raises(ValueError, match=r"degenerate \(zero-extent\) box"):
            margin_boxes(np.zeros((1, 13, 2)), vis)

    def test_no_visible_joint_rejected(self):
        with pytest.raises(ValueError, match="pose has no visible joints"):
            margin_boxes(np.zeros((1, 13, 2)), ~ALL_13)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_margin_boxes_match_scalar_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(-50.0, 400.0, size=(n, 13, 2))
        vis = rng.random((n, 13)) < 0.7
        vis[:, :2] = True
        coords[~vis] = np.nan  # invisible joints may be NaN
        boxes = margin_boxes(coords, vis)
        for i in range(n):
            expected = ref.visible_box(Pose2D(coords[i], vis[i]))
            assert tuple(boxes[i]) == expected.as_tuple()
            one = margin_boxes(coords[i:i + 1], vis[i:i + 1])[0]
            assert tuple(one) == expected.as_tuple()

    def test_margin_boxes_reject_bad_poses_in_a_stack(self):
        coords = np.tile(np.arange(26.0).reshape(13, 2), (3, 1, 1))
        vis = np.ones((3, 13), dtype=bool)
        vis[1] = False
        with pytest.raises(ValueError, match="pose has no visible joints"):
            margin_boxes(coords, vis)
        vis[1, 4] = True
        with pytest.raises(ValueError, match=r"degenerate \(zero-extent\) box"):
            margin_boxes(coords, vis)
        coords[2, :2] = (-1.75e308, 0.0)  # the margin moves x_min past the largest float
        with pytest.raises(ValueError, match=r"box bounds must be finite, got \("):
            margin_boxes(coords[2:], vis[2:])

    def test_overflowing_margin_box_message_shows_plain_floats(self):
        coords = np.arange(26.0).reshape(1, 13, 2)
        coords[0, 0] = (-1.75e308, 0.0)  # the margin moves x_min past the largest float
        with pytest.raises(ValueError, match=r"box bounds must be finite, got \(-inf, -1\.25, "):
            margin_boxes(coords, np.ones((1, 13), dtype=bool))

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

        same(iou_kernel(a, b), [ref.iou(p, q) for p, q in zip(ba, bb)])
        same(iou_kernel(a[0], b), [ref.iou(ba[0], q) for q in bb])
        same(iou_kernel(a[:, None], b), [[ref.iou(p, q) for q in bb] for p in ba])
        same(iou_kernel(a[0], b[0]), ref.iou(ba[0], bb[0]))
        assert iou(ba[0], bb[0]) == ref.iou(ba[0], bb[0])

    def test_underflowing_areas_give_zero(self):
        box = BoundingBox(0.0, 0.0, 1e-200, 1e-200)  # area 1e-400 underflows to 0
        assert box.width * box.height == 0.0  # so the union is 0, and inter/union is 0/0
        assert iou(box, box) == 0.0
        assert ref.iou(box, box) == 0.0


class TestFitScaleOffset:
    """The least-squares scale and offset that k-means' orphan fill places a
    joint by; its callers pass finite (n, 2) points of one shape."""

    def test_exact_recovery(self):
        rng = np.random.default_rng(15)
        src = rng.normal(0, 1, (10, 2))
        s, t = 2.5, np.array([3.0, -7.0])
        dst = s * src + t
        s_hat, t_hat = _fit_scale_offset(src, dst)
        assert s_hat == pytest.approx(s, abs=1e-12)
        assert np.allclose(t_hat, t, atol=1e-12)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="no finite scale and offset"):
            _fit_scale_offset(np.ones((5, 2)), np.ones((5, 2)))
        for n in (0, 1):  # an anchor without members, or with one finite joint
            with pytest.raises(ValueError, match=f"need at least 2 points, got {n}"):
                _fit_scale_offset(np.ones((n, 2)), np.ones((n, 2)))

    def test_overflowing_spread_rejected(self):
        # finite points whose squared spread overflows, so s is inf / inf
        points = np.array([[0.0, 0.0], [1e160, 1e160]])
        with pytest.raises(ValueError, match="no finite scale and offset"):
            _fit_scale_offset(points, points)

    def test_underflowing_spread_rejected(self):
        # a squared spread that underflows to 0 under a finite cross term:
        # s is a number over 0, rejected without numpy's divide warning
        src = np.array([[0.0, 0.0], [1e-170, 0.0]])
        with pytest.raises(ValueError, match="no finite scale and offset"):
            _fit_scale_offset(src, np.array([[0.0, 0.0], [1.0, 1.0]]))


class TestHeadTop:
    def test_extrapolation_direction(self):
        coords = np.zeros((13, 2))
        coords[0] = [0.0, 0.0]    # head
        coords[1] = [-10.0, 20.0]  # shoulders -> neck at (0, 20)
        coords[2] = [10.0, 20.0]
        top = extrapolate_head_top(H13, Pose2D(coords))
        assert np.allclose(top, [0.0, -20.0])

    @pytest.mark.parametrize("joint", [0, 2])  # the head, and a shoulder of the neck
    def test_non_finite_head_or_neck_rejected(self, joint):
        coords = np.linspace([0.0, 0.0], [120.0, 240.0], 13)
        coords[joint] = np.nan
        vis = np.arange(13) != joint  # Pose2D allows NaN at an occluded joint
        with pytest.raises(ValueError, match="head and neck joints must be finite"):
            extrapolate_head_top(H13, Pose2D(coords, vis))
