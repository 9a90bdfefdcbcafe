import decimal
import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference as ref
from poseforge.pose import H13, BoundingBox, Pose2D, Pose3D, d3d
from poseforge.ppi import (
    Detection,
    PoseProposal,
    PpiParams,
    _average,
    _modes,
    _overlap_boxes,
    _planes,
    _seed_rounds,
    average_mode,
    extract_modes,
    group_by_overlap,
    nms,
    ppi,
    rescore,
)


def inside_box_proposal(score=0.8):
    coords = np.linspace([10, 10], [90, 90], 13)
    pose2d = Pose2D(coords)
    return PoseProposal(0, BoundingBox(0, 0, 100, 100), pose2d,
                        ref.center_3d(np.zeros((13, 3))), score)


class TestPoseProposal:
    @pytest.mark.parametrize("score, rescored, message", [
        (-0.1, None, r"score must be in \[0, 1\], got -0.1"),
        (1.5, None, r"score must be in \[0, 1\], got 1.5"),
        (math.nan, None, r"score must be in \[0, 1\], got nan"),
        (0.5, 0.6, "rescored score cannot exceed the raw score"),
        (0.5, math.nan, "rescored score must be >= 0, got nan"),
        (0.5, -0.1, "rescored score must be >= 0, got -0.1"),
    ])
    def test_bad_scores_rejected(self, score, rescored, message):
        p = inside_box_proposal()
        with pytest.raises(ValueError, match=message):
            PoseProposal(p.anchor_id, p.box, p.pose2d, p.pose3d, score, rescored)

    def test_poses_of_different_joint_counts_rejected(self):
        p = inside_box_proposal()
        with pytest.raises(ValueError, match="pose2d has 13 joints and pose3d 17"):
            PoseProposal(p.anchor_id, p.box, p.pose2d, Pose3D(np.zeros((17, 3))), p.score)


class TestRescore:
    def test_all_joints_inside_keeps_score(self):
        p = rescore(inside_box_proposal(0.8))
        assert p.rescored == 0.8

    def test_inside_keeps_score_where_s_times_j_over_j_rounds_up(self):
        # 0.9 * 13 / 13 rounds to 0.9000000000000001, one ulp above 0.9
        assert rescore(inside_box_proposal(0.9)).rescored == 0.9

    def test_non_finite_joint_rejected(self):
        coords = np.linspace([10, 10], [90, 90], 13)
        coords[3] = np.nan
        visibility = np.ones(13, dtype=bool)
        visibility[3] = False  # Pose2D accepts NaN at an invisible joint
        p = PoseProposal(0, BoundingBox(0, 0, 100, 100), Pose2D(coords, visibility),
                         ref.center_3d(np.zeros((13, 3))), 0.5)
        with pytest.raises(ValueError, match="proposal 2D poses must be finite"):
            rescore(p)
        with pytest.raises(ValueError, match="proposal 2D poses must be finite"):
            ppi([inside_box_proposal(), p])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            p = ref.proposal(rng)
            b = p.box
            m = float(rng.uniform(-0.4, 0.1)) * min(b.width, b.height)  # shrink or grow
            box = BoundingBox(b.x_min - m, b.y_min - m, b.x_max + m, b.y_max + m)
            p = replace(p, box=box)
            sigma = float(rng.uniform(5, 60))
            assert rescore(p, sigma).rescored == pytest.approx(
                ref.rescore(p, sigma), rel=1e-14, abs=0.0)

    def test_matches_scalar_oracle_far_outside(self):
        # exp(-D^2 / sigma^2) turns a relative error e in D^2 into D^2 / sigma^2
        # times e, so joints up to 25 sigma out, with factors down to 1e-280,
        # need D^2 rounded as the reference rounds it: both take
        # gx * gx + gy * gy from the gaps, never D. At the first gap, D from
        # np.hypot is 1 ulp off, which would put the factor 2e-14 out.
        rng = np.random.default_rng(23)
        gaps = np.vstack([[94.45839760960405, 62.28414954945373],
                          rng.uniform(0.0, 180.0, (299, 2))])
        for gx, gy in gaps:
            coords = np.tile([100.0 + gx, -gy], (13, 1))  # every joint out by (gx, gy)
            p = PoseProposal(0, BoundingBox(0, 0, 100, 100), Pose2D(coords),
                             ref.center_3d(np.zeros((13, 3))), 0.6)
            assert rescore(p, 10.0).rescored == pytest.approx(
                ref.rescore(p, 10.0), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("near, far, n_near, score", [(267.8, 271.5, 5, 0.91),
                                                           (268.0, 271.2, 7, 0.9)])
    def test_matches_scalar_oracle_where_subnormal(self, near, far, n_near, score):
        # joints 26.8-27.2 sigma above the box: the rescored score is near
        # 1e-312, where (score * sum) / J and score * (sum / J) round apart
        coords = np.zeros((13, 2))
        coords[:, 0] = 50.0
        coords[:, 1] = -np.where(np.arange(13) < n_near, near, far)
        p = PoseProposal(0, BoundingBox(0, 0, 100, 100), Pose2D(coords),
                         ref.center_3d(np.zeros((13, 3))), score)
        rescored = rescore(p, 10.0).rescored
        assert 0.0 < rescored < 2.2e-308
        assert rescored == pytest.approx(ref.rescore(p, 10.0), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("sigma", [10.0, 25.0])
    def test_matches_exact_arithmetic(self, sigma):
        # every joint out by a gap (gx, gy), D up to 6 sigma, against
        # exp(-(gx^2 + gy^2) / sigma^2) in 50-digit decimal from the exact
        # float gaps: an oracle that shares no rounding with the package
        rng = np.random.default_rng(29)
        r, t = rng.uniform(0.0, 6.0 * sigma, 500), rng.uniform(0.0, math.pi / 2, 500)
        gaps = [(6.0 * sigma, 0.0), (0.0, 6.0 * sigma)]
        gaps += zip((r * np.cos(t)).tolist(), (r * np.sin(t)).tolist())
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for gx, gy in gaps:
                p = PoseProposal(0, BoundingBox(-100, -100, 0, 0),
                                 Pose2D(np.tile([gx, gy], (13, 1))),
                                 ref.center_3d(np.zeros((13, 3))), 0.6)
                x, y, s = map(decimal.Decimal, (gx, gy, sigma))
                exact = float((-(x * x + y * y) / (s * s)).exp())
                assert rescore(p, sigma).rescored / 0.6 == pytest.approx(
                    exact, rel=2e-14, abs=0.0)

    def test_joint_on_boundary_contributes_one(self):
        coords = np.linspace([10, 10], [90, 90], 13)
        coords[0] = [0.0, 50.0]  # exactly on the left edge
        p = PoseProposal(0, BoundingBox(0, 0, 100, 100), Pose2D(coords),
                         ref.center_3d(np.zeros((13, 3))), 0.7)
        assert rescore(p).rescored == 0.7

    def test_joint_far_outside_contributes_zero_without_warning(self):
        # D * D overflows to inf, and exp(-inf) = 0 is the exact factor
        coords = np.linspace([1, 1], [9, 9], 13)
        coords[4] = [1e200, 5.0]
        p = PoseProposal(0, BoundingBox(0, 0, 10, 10), Pose2D(coords),
                         ref.center_3d(np.zeros((13, 3))), 0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rescore(p).rescored == 0.6 * (12 / 13)
            assert rescore(p).rescored == pytest.approx(ref.rescore(p), rel=1e-14, abs=0.0)
            (det,) = ppi([p])
        assert det.score == 0.6 * (12 / 13)

    def test_joint_past_a_huge_box_contributes_zero_without_warning(self):
        # the gap -1e308 - 1.7e308 overflows to -inf before it is clipped to
        # 0, and the gap 0.7e308 squares to inf; the joints span 0.4 px in y,
        # so the area of their joint box, which grouping reads, stays finite
        coords = np.linspace([10, 50], [90, 50.4], 13)
        coords[4] = [1.7e308, 50.0]
        p = PoseProposal(0, BoundingBox(-1e308, -1e308, 1e308, 1e308), Pose2D(coords),
                         ref.center_3d(np.zeros((13, 3))), 0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rescore(p).rescored == 0.6 * (12 / 13)
            for integrate in (ppi, nms):
                (det,) = integrate([p])
                assert det.score == 0.6 * (12 / 13)

    def test_one_joint_at_sigma_b(self):
        sigma = 25.0
        coords = np.linspace([10, 10], [90, 90], 13)
        coords[5] = [50.0, 100.0 + sigma]  # sigma_b below the bottom edge
        p = PoseProposal(0, BoundingBox(0, 0, 100, 100), Pose2D(coords),
                         ref.center_3d(np.zeros((13, 3))), 0.6)
        expected = 0.6 * (12 + math.exp(-1)) / 13
        assert abs(rescore(p, sigma).rescored - expected) < 1e-12

    def test_never_increases(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = ref.proposal(rng)
            # shrink the box so joints leak out
            b = p.box
            small = BoundingBox(b.x_min + 5, b.y_min + 5, b.x_max - 5, b.y_max - 5)
            shrunk = PoseProposal(p.anchor_id, small, p.pose2d, p.pose3d, p.score)
            r = rescore(shrunk)
            assert r.rescored <= r.score + 1e-15
            inside = all(
                small.x_min <= x <= small.x_max and small.y_min <= y <= small.y_max
                for x, y in p.pose2d.coords
            )
            assert (r.rescored == r.score) == inside


def ids(proposals, subset):
    index = {id(p): i for i, p in enumerate(proposals)}
    return [index[id(p)] for p in subset]


class TestGrouping:
    def test_single_proposal(self):
        rng = np.random.default_rng(1)
        p = rescore(ref.proposal(rng))
        groups = group_by_overlap([p], 0.2)
        assert len(groups) == 1 and groups[0] == [p]

    def test_disjoint_boxes_two_groups(self):
        rng = np.random.default_rng(2)
        a = rescore(ref.proposal(rng, center=(100, 100), spread=10))
        b = rescore(ref.proposal(rng, center=(900, 900), spread=10))
        assert len(group_by_overlap([a, b], 0.1)) == 2

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            proposals = [
                rescore(ref.proposal(
                    rng,
                    center=rng.uniform(50, 450, size=2),
                    spread=float(rng.uniform(20, 80)),
                ))
                for _ in range(n)
            ]
            threshold = float(rng.uniform(0.05, 0.6))
            got = [ids(proposals, g) for g in group_by_overlap(proposals, threshold)]
            assert got == ref.groups(proposals, threshold)

    def test_groups_partition_input(self):
        rng = np.random.default_rng(4)
        proposals = [rescore(ref.proposal(rng)) for _ in range(30)]
        groups = group_by_overlap(proposals, 0.3)
        flat = [i for g in groups for i in ids(proposals, g)]
        assert sorted(flat) == list(range(30))

    @pytest.mark.filterwarnings("error")
    def test_seed_groups_with_itself_when_box_area_underflows(self):
        coords = np.zeros((13, 2))
        coords[0, 0] = 5e-324  # joint-box area 5e-324 * 2e-6 underflows to 0
        p = rescore(PoseProposal(0, BoundingBox(0, 0, 1, 1), Pose2D(coords),
                                 ref.center_3d(np.zeros((13, 3))), 0.5))
        assert group_by_overlap([p], 0.5) == [[p]]
        assert [d.member_count for d in ppi([p])] == [1]

    def test_threshold_is_inclusive(self):
        rng = np.random.default_rng(24)
        a = rescore(ref.proposal(rng, center=(100, 100), spread=10))
        b = rescore(ref.proposal(rng, center=(900, 900), spread=10))
        twin = rescore(replace(a, score=a.score / 2, rescored=None))  # same joint box
        assert len(group_by_overlap([a, twin], 1.0)) == 1  # IoU 1 >= 1
        assert len(group_by_overlap([a, b], 0.0)) == 1  # IoU 0 >= 0

    def test_requires_rescored(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            group_by_overlap([ref.proposal(rng)], 0.2)


class TestModes:
    def test_identical_poses_one_mode(self):
        rng = np.random.default_rng(6)
        p3 = ref.pose3d(rng)
        group = [rescore(ref.proposal(rng, p3=p3)) for _ in range(5)]
        modes = extract_modes(group, 0.125)
        assert len(modes) == 1 and len(modes[0]) == 5

    def test_two_separated_subpopulations(self):
        rng = np.random.default_rng(7)
        base_a = ref.pose3d(rng)
        base_b = ref.center_3d(base_a.coords + rng.normal(0, 1.0, (13, 3)))
        assert d3d(base_a, base_b) > 0.5
        group = []
        for base in (base_a, base_b):
            for _ in range(4):
                p3 = ref.center_3d(base.coords + rng.normal(0, 0.01, (13, 3)))
                group.append(rescore(ref.proposal(rng, p3=p3)))
        modes = extract_modes(group, 0.125)
        assert len(modes) == 2
        assert sorted(len(m) for m in modes) == [4, 4]
        assert [ids(group, m) for m in modes] == ref.modes(
            np.array([p.pose3d.coords for p in group]), [p.rescored for p in group], 0.125)

    def test_distance_equal_to_t3d_splits(self):
        rng = np.random.default_rng(25)
        p = rescore(ref.proposal(rng, p3=Pose3D(np.zeros((13, 3)))))
        shifted = np.zeros((13, 3))
        shifted[:, 0] = 0.125  # d3d is exactly 0.125
        q = rescore(ref.proposal(rng, p3=Pose3D(shifted)))
        assert d3d(p.pose3d, q.pose3d) == 0.125
        assert len(extract_modes([p, q], 0.125)) == 2
        assert len(extract_modes([p, q], 0.1250001)) == 1

    def test_singleton(self):
        rng = np.random.default_rng(8)
        group = [rescore(ref.proposal(rng))]
        modes = extract_modes(group, 0.125)
        assert modes == [group]

    def test_seed_is_highest_scored(self):
        rng = np.random.default_rng(9)
        p3 = ref.pose3d(rng)
        group = [rescore(ref.proposal(rng, p3=p3)) for _ in range(6)]
        modes = extract_modes(group, 10.0)
        top = max(group, key=lambda p: p.rescored)
        assert modes[0][0] is top

    def test_overflowing_distance_splits_without_warning(self):
        # poses 2e200 m apart: d3d overflows to inf, which is not below t3d
        group = [rescore(replace(inside_box_proposal(s), pose3d=Pose3D(np.full((13, 3), v))))
                 for v, s in ((1e200, 0.6), (-1e200, 0.5))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [ids(group, m) for m in extract_modes(group)] == [[0], [1]]
            assert [d.score for d in ppi(group)] == [0.6, 0.5]


class TestAverageMode:
    def test_singleton_detection(self):
        rng = np.random.default_rng(10)
        p = rescore(ref.proposal(rng))
        det = average_mode([p])
        assert det.score == p.rescored
        assert det.member_count == 1
        assert np.allclose(det.pose2d.coords, p.pose2d.coords)

    def test_two_copies_sum_scores(self):
        coords = np.linspace([10, 10], [90, 90], 13)
        p3 = ref.center_3d(np.zeros((13, 3)))
        box = BoundingBox(0, 0, 100, 100)
        a = rescore(PoseProposal(0, box, Pose2D(coords), p3, 0.3))
        b = rescore(PoseProposal(0, box, Pose2D(coords), p3, 0.2))
        det = average_mode([a, b])
        assert det.score == pytest.approx(0.5, abs=1e-12)
        assert np.abs(det.pose2d.coords - coords).max() < 1e-12

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mode = [rescore(ref.proposal(rng)) for _ in range(int(rng.integers(1, 8)))]
            det = average_mode(mode)
            s = sum(p.rescored for p in mode)
            exp2d = sum(p.rescored * p.pose2d.coords for p in mode) / s
            exp3d = sum(p.rescored * p.pose3d.coords for p in mode) / s
            assert np.abs(det.pose2d.coords - exp2d).max() < 1e-12
            assert np.abs(det.pose3d.coords - exp3d).max() < 1e-12
            assert det.score == pytest.approx(s, abs=1e-12)

    def test_all_zero_scores_unweighted(self):
        rng = np.random.default_rng(12)
        mode = [
            rescore(PoseProposal(0, BoundingBox(0, 0, 100, 100),
                                 Pose2D(rng.uniform(10, 90, (13, 2))),
                                 ref.pose3d(rng), 0.0))
            for _ in range(3)
        ]
        det = average_mode(mode)
        assert det.score == 0.0 and det.unweighted
        exp = np.mean([p.pose2d.coords for p in mode], axis=0)
        assert np.allclose(det.pose2d.coords, exp)


class TestParameterValidation:
    @pytest.mark.parametrize("field,value,message", [
        ("t3d", math.nan, "t3d must be positive"),
        ("sigma_b", math.nan, "sigma_b must be positive"),
        ("iou_threshold", math.nan, r"iou_threshold must be in \[0, 1\]"),
        ("min_score", math.nan, "min_score must be None or >= 0"),
        ("min_score", -0.1, "min_score must be None or >= 0"),
        ("overlap_joints", (), r"overlap_joints \(\) must be non-empty joint indices"),
        ("overlap_joints", (-1,), r"overlap_joints \(-1,\) must be non-empty joint "
                                  r"indices in \[0, inf\)"),
        ("overlap_joints", (1.5,), r"overlap_joints \(1.5,\) must hold int joint indices"),
        ("overlap_joints", (True,), r"overlap_joints \(True,\) must hold int joint indices"),
        ("overlap_joints", 3, "overlap_joints 3 must be a sequence of joint indices"),
        # squares that underflow to 0 or overflow, which give 0 / 0 or inf / inf
        ("sigma_b", 1e-200, "sigma_b must be positive"),
        ("sigma_b", 1e200, "sigma_b must be positive"),
        ("sigma_b", math.inf, "sigma_b must be positive"),
    ])
    def test_params_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            PpiParams(**{field: value})

    def test_joint_beyond_pose_rejected(self):
        rng = np.random.default_rng(40)
        proposals = [rescore(ref.proposal(rng)) for _ in range(3)]
        joints = (0, 13)
        message = r"overlap_joints \(0, 13\) must be non-empty joint indices in \[0, 13\)"
        with pytest.raises(ValueError, match=message):
            ppi(proposals, PpiParams(overlap_joints=joints))
        with pytest.raises(ValueError, match=message):
            nms(proposals, PpiParams(overlap_joints=joints))
        with pytest.raises(ValueError, match=message):
            group_by_overlap(proposals, overlap_joints=joints)
        with pytest.raises(ValueError, match=message):
            _overlap_boxes(_planes(np.stack([p.pose2d.coords for p in proposals])), joints)

    @pytest.mark.parametrize("entry", [ppi, nms, group_by_overlap, extract_modes, average_mode])
    def test_mixed_joint_counts_rejected(self, entry):
        rng = np.random.default_rng(43)
        pose2d = Pose2D(rng.normal(200.0, 40.0, (17, 2)))
        p17 = PoseProposal(0, ref.overlap_box(pose2d), pose2d, ref.pose3d(rng, j=17), 0.5)
        proposals = [rescore(ref.proposal(rng)), rescore(p17)]
        with pytest.raises(ValueError, match="proposals must share one joint count, got 13 and 17"):
            entry(proposals)

    @pytest.mark.parametrize("sigma_b", [0.0, -1.0, math.nan, 1e-200, 1e200, math.inf])
    def test_rescore_sigma_b_rejected(self, sigma_b):
        with pytest.raises(ValueError, match="sigma_b must be positive"):
            rescore(inside_box_proposal(), sigma_b)

    def test_per_list_thresholds_rejected(self):
        rng = np.random.default_rng(41)
        proposals = [rescore(ref.proposal(rng)) for _ in range(3)]
        with pytest.raises(ValueError, match="t3d must be positive"):
            extract_modes(proposals, math.nan)
        with pytest.raises(ValueError, match=r"iou_threshold must be in \[0, 1\]"):
            group_by_overlap(proposals, math.nan)


class TestPpiEndToEnd:
    def test_empty_input(self):
        assert ppi([], PpiParams()) == []

    def test_empty_input_of_each_stage(self):
        assert group_by_overlap([]) == []
        assert nms([], PpiParams()) == []
        with pytest.raises(ValueError, match="empty group"):
            extract_modes([])
        with pytest.raises(ValueError, match="empty mode"):
            average_mode([])

    def test_noisy_replicas_concentrate(self):
        rng = np.random.default_rng(13)
        wins = 0
        trials = 50
        for _ in range(trials):
            gt3d = ref.pose3d(rng)
            gt2d = rng.uniform(100, 400, (13, 2))
            replicas = []
            for _ in range(12):
                p3 = ref.center_3d(gt3d.coords + rng.normal(0, 0.05, (13, 3)))
                p2 = Pose2D(gt2d + rng.normal(0, 5.0, (13, 2)))
                replicas.append(PoseProposal(0, ref.overlap_box(Pose2D(gt2d)), p2, p3,
                                             float(rng.uniform(0.3, 0.9))))
            dets = ppi(replicas, PpiParams(iou_threshold=0.1, t3d=1.0))
            assert len(dets) == 1
            det_err = d3d(dets[0].pose3d, gt3d)
            best = min(d3d(p.pose3d, gt3d) for p in replicas)
            wins += det_err <= best
        assert wins / trials >= 0.80

    def test_two_people_two_detections(self):
        rng = np.random.default_rng(14)
        proposals = []
        for center in ((100.0, 100.0), (800.0, 100.0)):
            gt3d = ref.pose3d(rng)
            base2d = rng.normal(center, 30, (13, 2))
            for _ in range(6):
                p3 = ref.center_3d(gt3d.coords + rng.normal(0, 0.01, (13, 3)))
                proposals.append(PoseProposal(
                    0, ref.overlap_box(Pose2D(base2d)),
                    Pose2D(base2d + rng.normal(0, 2.0, (13, 2))), p3,
                    float(rng.uniform(0.3, 0.9))))
        dets = ppi(proposals, PpiParams(iou_threshold=0.1, t3d=0.125))
        assert len(dets) == 2

    def test_detection_count_and_score_invariants(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            proposals = [ref.proposal(rng) for _ in range(int(rng.integers(1, 30)))]
            dets = ppi(proposals, PpiParams())
            assert len(dets) <= len(proposals)
            assert sum(d.member_count for d in dets) == len(proposals)
            total = sum(d.score for d in dets)
            expected = sum(rescore(p).rescored for p in proposals)
            assert total == pytest.approx(expected, abs=1e-9)
            assert all(dets[i].score >= dets[i + 1].score for i in range(len(dets) - 1))

    def test_min_score_filters(self):
        rng = np.random.default_rng(16)
        proposals = [ref.proposal(rng) for _ in range(10)]
        dets_all = ppi(proposals, PpiParams())
        cut = dets_all[len(dets_all) // 2].score if len(dets_all) > 1 else 0.0
        dets_cut = ppi(proposals, PpiParams(min_score=cut + 1e-9))
        assert all(d.score > cut for d in dets_cut)


class TestNms:
    def test_singleton(self):
        rng = np.random.default_rng(17)
        p = ref.proposal(rng)
        dets = nms([p], PpiParams())
        assert len(dets) == 1
        assert dets[0].member_count == 1
        assert np.array_equal(dets[0].pose2d.coords, p.pose2d.coords)

    def test_known_max_in_group(self):
        rng = np.random.default_rng(18)
        base2d = rng.normal((200, 200), 30, (13, 2))
        proposals = [
            PoseProposal(0, ref.overlap_box(Pose2D(base2d)),
                         Pose2D(base2d + rng.normal(0, 1.0, (13, 2))),
                         ref.pose3d(rng),
                         score)
            for score in (0.2, 0.9, 0.5)
        ]
        dets = nms(proposals, PpiParams(iou_threshold=0.1))
        assert len(dets) == 1
        top = rescore(proposals[1])
        assert dets[0].score == pytest.approx(top.rescored)

    def test_matches_argmax_per_group_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            proposals = [ref.proposal(rng) for _ in range(int(rng.integers(1, 25)))]
            params = PpiParams(iou_threshold=float(rng.uniform(0.05, 0.5)))
            rescored = [rescore(p, params.sigma_b) for p in proposals]
            ref.assert_detections(nms(proposals, params), ref.nms(rescored, params))

    def test_zero_score_proposal_unweighted_as_in_ppi(self):
        for score in (0.0, 0.8):
            p = inside_box_proposal(score)
            for integrate in (ppi, nms):
                (det,) = integrate([p], PpiParams())
                assert det.score == score and det.member_count == 1
                assert det.unweighted is (score == 0.0), integrate

    def test_result_is_group_member(self):
        rng = np.random.default_rng(20)
        proposals = [ref.proposal(rng) for _ in range(15)]
        dets = nms(proposals, PpiParams())
        originals = {tuple(p.pose2d.coords.ravel()) for p in proposals}
        for d in dets:
            assert tuple(d.pose2d.coords.ravel()) in originals


class TestArrayCoreEquivalence:
    """ppi() and nms() against the reference."""

    CASES = [
        PpiParams(),
        PpiParams(iou_threshold=0.3, t3d=0.2, sigma_b=10.0),
        PpiParams(iou_threshold=0.05, overlap_joints=H13.head_torso_joints),
    ]

    @pytest.mark.parametrize("params", CASES)
    def test_ppi_matches_composed_oracles(self, params):
        rng = np.random.default_rng(22)
        for _ in range(10):
            proposals = ref.crowd_proposals(rng, int(rng.integers(1, 5)), int(rng.integers(1, 25)))
            rescored = [rescore(p, params.sigma_b) for p in proposals]
            for p, r in zip(proposals, rescored):
                assert r.rescored == pytest.approx(ref.rescore(p, params.sigma_b),
                                                   rel=1e-14, abs=0.0)
            ref.assert_detections(ppi(proposals, params), ref.ppi(rescored, params))

    @pytest.mark.parametrize("params", CASES)
    def test_nms_matches_composed_oracles(self, params):
        rng = np.random.default_rng(23)
        for _ in range(10):
            proposals = ref.crowd_proposals(rng, int(rng.integers(1, 5)), int(rng.integers(1, 25)))
            rescored = [rescore(p, params.sigma_b) for p in proposals]
            ref.assert_detections(nms(proposals, params), ref.nms(rescored, params))


def underflow_proposal(score, c3d):
    """A proposal whose joint box (0, -1e-6, 5e-324, 1e-6) has area 0."""
    coords = np.zeros((13, 2))
    coords[0, 0] = 5e-324
    return PoseProposal(0, BoundingBox(0, 0, 1, 1), Pose2D(coords), Pose3D(c3d), score)


@st.composite
def grouping_images(draw):
    """Proposals in up to four clusters 1000 px apart, plus up to two whose
    joint-box area underflows to 0.

    Within a cluster the joint boxes lie on a 10 px grid, so edges often
    touch (one box's x_max is another's x_min) and boxes often coincide.
    Scores come from a set of four, and most candidate boxes hold every
    joint, which keeps the score, so rescored scores often tie.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    proposals = []
    for c, size in enumerate(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))):
        bases3d = rng.normal(0.0, 0.3, (2, 13, 3))
        for _ in range(size):
            x0, y0 = 1000.0 * (c + 1) + 10.0 * rng.integers(6), 10.0 * rng.integers(6)
            x1, y1 = x0 + 10.0 * rng.integers(1, 4), y0 + 10.0 * rng.integers(1, 4)
            c2d = rng.uniform((x0, y0), (x1, y1), (13, 2))
            c2d[0], c2d[1] = (x0, y0), (x1, y1)  # the joint box is exactly (x0, y0, x1, y1)
            shift = 0.0 if rng.random() < 0.7 else 5.0
            proposals.append(PoseProposal(
                int(rng.integers(5)), BoundingBox(x0 + shift, y0 + shift, x1 + shift, y1 + shift),
                Pose2D(c2d), Pose3D(bases3d[rng.integers(2)] + rng.normal(0.0, 0.03, (13, 3))),
                float(rng.choice([0.2, 0.5, 0.5, 0.9]))))
    for _ in range(draw(st.integers(0, 2))):
        proposals.append(underflow_proposal(float(rng.choice([0.2, 0.5])),
                                            rng.normal(0.0, 0.3, (13, 3))))
    return [proposals[i] for i in draw(st.permutations(range(len(proposals))))]


@st.composite
def grid_images(draw):
    """Proposals whose joint boxes cover cells of a grid of 10 px squares,
    rows x columns, one cell or two along each axis from a random cell, so
    that their edges touch exactly. Every joint lies inside its candidate
    box, so each rescored score is its score, from a set of three: ties are
    common."""
    rows, columns = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    proposals = []
    for _ in range(draw(st.integers(1, 3 * rows * columns))):
        r, c = rng.integers(rows), rng.integers(columns)
        x0, y0 = 10.0 * c, 10.0 * r
        x1, y1 = x0 + 10.0 * rng.choice([1, 1, 2]), y0 + 10.0 * rng.choice([1, 1, 2])
        c2d = rng.uniform((x0, y0), (x1, y1), (13, 2))
        c2d[0], c2d[1] = (x0, y0), (x1, y1)  # the joint box is exactly (x0, y0, x1, y1)
        proposals.append(PoseProposal(0, BoundingBox(x0, y0, x1, y1), Pose2D(c2d),
                                      Pose3D(np.zeros((13, 3))),
                                      float(rng.choice([0.2, 0.5, 0.9]))))
    return proposals


GROUPING_CASES = dict(
    proposals=grouping_images(),
    threshold=st.sampled_from([0.0, 1e-9, 0.12, 1.0]),
    joints=st.sampled_from([None, H13.head_torso_joints]),
)


class TestLockStepGrouping:
    """group_by_overlap, ppi and nms against the reference greedy grouping:
    the same groups in the same order, and the same detections."""

    @settings(max_examples=150, deadline=None)
    @given(**GROUPING_CASES)
    def test_group_by_overlap_matches_reference(self, proposals, threshold, joints):
        rescored = [rescore(p) for p in proposals]
        got = group_by_overlap(rescored, threshold, joints)
        assert [ids(rescored, g) for g in got] == ref.groups(rescored, threshold, joints)

    @settings(max_examples=100, deadline=None)
    @given(**GROUPING_CASES)
    def test_ppi_matches_reference(self, proposals, threshold, joints):
        params = PpiParams(iou_threshold=threshold, overlap_joints=joints)
        rescored = [rescore(p, params.sigma_b) for p in proposals]
        ref.assert_detections(ppi(proposals, params), ref.ppi(rescored, params))

    @settings(max_examples=100, deadline=None)
    @given(**GROUPING_CASES)
    def test_nms_matches_reference(self, proposals, threshold, joints):
        params = PpiParams(iou_threshold=threshold, overlap_joints=joints)
        rescored = [rescore(p, params.sigma_b) for p in proposals]
        ref.assert_detections(nms(proposals, params), ref.nms(rescored, params))

    def test_touching_edges_split_above_threshold_zero(self):
        c3d = np.zeros((13, 3))
        a, b = (PoseProposal(0, BoundingBox(x, 0, x + 10, 10),
                             Pose2D(np.linspace([x, 0], [x + 10, 10], 13)), Pose3D(c3d), 0.5)
                for x in (0.0, 10.0))
        a, b = rescore(a), rescore(b)
        assert group_by_overlap([a, b], 1e-9) == [[a], [b]]
        assert group_by_overlap([b, a], 1e-9) == [[b], [a]]  # ties: lower position first
        assert group_by_overlap([a, b], 0.0) == [[a, b]]

    def test_touching_edges_split_along_y_above_threshold_zero(self):
        c3d = np.zeros((13, 3))
        a, b = (PoseProposal(0, BoundingBox(0, y, 10, y + 10),
                             Pose2D(np.linspace([0, y], [10, y + 10], 13)), Pose3D(c3d), 0.5)
                for y in (0.0, 10.0))
        a, b = rescore(a), rescore(b)
        assert group_by_overlap([a, b], 1e-9) == [[a], [b]]
        assert group_by_overlap([b, a], 1e-9) == [[b], [a]]  # ties: lower position first
        assert group_by_overlap([a, b], 0.0) == [[a, b]]

    @settings(max_examples=100, deadline=None)
    @given(image=grid_images(), threshold=st.sampled_from([1e-9, 0.12, 0.5, 1.0]))
    def test_grid_of_touching_boxes_matches_reference(self, image, threshold):
        proposals = [rescore(p) for p in image]
        got = group_by_overlap(proposals, threshold)
        assert [ids(proposals, g) for g in got] == ref.groups(proposals, threshold)
        # at threshold 0 every IoU passes, so the first seed takes every box
        assert group_by_overlap(proposals, 0.0) == [proposals]
        assert ref.groups(proposals, 0.0) == [list(range(len(proposals)))]


@st.composite
def proposal_lists(draw):
    """Up to 12 proposals with arbitrary joints, boxes grown or shrunk by up
    to 40% of their smaller side, and scores anywhere in [0, 1]."""
    n = draw(st.integers(1, 12))
    c2d = draw(arrays(np.float64, (n, 13, 2), elements=st.floats(0.0, 300.0)))
    c3d = draw(arrays(np.float64, (n, 13, 3), elements=st.floats(-1.0, 1.0)))
    grow = draw(arrays(np.float64, (n,), elements=st.floats(-0.4, 0.4)))
    scores = draw(arrays(np.float64, (n,), elements=st.floats(0.0, 1.0)))
    proposals = []
    for i in range(n):
        pose2d = Pose2D(c2d[i])
        b = ref.overlap_box(pose2d)
        m = float(grow[i]) * min(b.width, b.height)
        box = BoundingBox(b.x_min - m, b.y_min - m, b.x_max + m, b.y_max + m)
        proposals.append(PoseProposal(0, box, pose2d, Pose3D(c3d[i]), float(scores[i])))
    return proposals


class TestPpiProperties:
    @settings(max_examples=150, deadline=None)
    @given(proposal_lists(), st.floats(0.0, 1.0), st.floats(0.01, 2.0))
    def test_partition_and_score_conservation(self, proposals, threshold, t3d):
        dets = ppi(proposals, PpiParams(iou_threshold=threshold, t3d=t3d))
        assert sum(d.member_count for d in dets) == len(proposals)
        total = math.fsum(rescore(p).rescored for p in proposals)
        assert math.fsum(d.score for d in dets) == pytest.approx(total, rel=1e-12, abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(proposal_lists(), st.floats(1.0, 100.0))
    def test_rescored_never_exceeds_score(self, proposals, sigma_b):
        for p in proposals:
            assert rescore(p, sigma_b).rescored <= p.score


@st.composite
def multi_group_images(draw):
    """Poses of several overlap groups, interleaved in input order.

    One group may hold up to 40 poses beside many small ones, singletons
    included. 3D poses are copies of a few bases shifted along x by
    multiples of 1/16 m, so d3d falls exactly on t3d = 0.125 for some
    pairs; scores come from a set of five, so equal scores are common.
    Some images are one group of up to 60 poses with shifts of up to
    1/2 m, so that the group splits into many modes and _modes takes its
    single-group path from the first round.
    """
    if draw(st.integers(0, 3)) == 0:
        sizes, shifts = [draw(st.integers(20, 60))], 9
    else:
        sizes = [draw(st.integers(1, 40))] + draw(st.lists(st.integers(1, 4), max_size=12))
        shifts = 4
    gid = np.repeat(np.arange(len(sizes)), sizes)
    gid = gid[draw(st.permutations(range(len(gid))))]
    n = len(gid)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = np.round(rng.normal(0.0, 0.3, (3, 13, 3)) * 64) / 64  # shifts add exactly
    c3d = bases[rng.integers(3, size=n)]
    c3d[:, :, 0] += rng.integers(1 - shifts, shifts, size=(n, 1)) / 16
    jitter = rng.random(n) < 0.3
    c3d[jitter] += rng.normal(0.0, 0.05, (int(jitter.sum()), 13, 3))
    scores = rng.choice([0.0, 0.2, 0.5, 0.5, 0.9], size=n)
    return gid, c3d, scores


def split_modes(members, sizes):
    return [m.tolist() for m in np.split(members, np.cumsum(sizes)[:-1])]


class TestLockStepModes:
    """_modes over all groups at once against the reference per group."""

    @settings(max_examples=120, deadline=None)
    @given(multi_group_images(), st.sampled_from([0.125, 0.2, 10.0]))
    def test_matches_oracle_group_by_group(self, image, t3d):
        gid, c3d, scores = image
        expected = []
        for g in range(gid.max() + 1):
            index = np.flatnonzero(gid == g)
            expected += [index[mode].tolist() for mode in ref.modes(c3d[index], scores[index], t3d)]
        members, sizes = _modes(c3d, scores, gid, t3d)
        assert split_modes(members, sizes) == expected

    def test_rounds_follow_group_then_round_order(self):
        # group 1 (input positions 0, 2) has two modes, group 0 one
        c3d = np.zeros((4, 13, 3))
        c3d[2, :, 0] = 0.125
        gid = np.array([1, 0, 1, 0])
        members, sizes = _modes(c3d, np.array([0.5, 0.5, 0.9, 0.9]), gid, 0.125)
        assert split_modes(members, sizes) == [[3, 1], [2], [0]]


# part sizes: up to 50 parts of 1 to 4 items
SMALL_PARTS = st.lists(st.integers(1, 4), min_size=1, max_size=50)


class TestManySmallParts:
    """_seed_rounds, _group and _modes over up to 50 parts of 1 to 4 items,
    with tied scores, against the reference greedy run part by part."""

    @settings(max_examples=100, deadline=None)
    @given(sizes=SMALL_PARTS, seed=st.integers(0, 2**32 - 1))
    def test_seed_rounds_match_greedy_per_part(self, sizes, seed):
        rng = np.random.default_rng(seed)
        # part numbers that are neither dense nor in input order
        part = np.repeat(3 * rng.permutation(len(sizes)), sizes)[rng.permutation(sum(sizes))]
        scores = rng.choice([0.2, 0.5, 0.5, 0.9], size=len(part))
        close = rng.random((len(part), len(part))) < 0.5  # any relation, not even symmetric
        expected = np.empty(len(part), dtype=np.intp)
        for p in np.unique(part):
            index = np.flatnonzero(part == p)
            for cluster in ref.greedy(scores[index], lambda s, i: close[index[s], index[i]]):
                expected[index[cluster]] = index[cluster[0]]
        got = _seed_rounds(part, scores, lambda seed, free: close[seed, free])
        assert got.tolist() == expected.tolist()

    @settings(max_examples=60, deadline=None)
    @given(sizes=SMALL_PARTS, seed=st.integers(0, 2**32 - 1))
    def test_group_matches_reference(self, sizes, seed):
        # each part is a cluster of jittered boxes in its own 100 px cell of
        # an 8-column grid, so parts of one column differ only along y
        rng = np.random.default_rng(seed)
        proposals = []
        for cell, size in enumerate(sizes):
            x, y = 100.0 * (cell % 8), 100.0 * (cell // 8)
            for _ in range(size):
                x0, y0 = x + rng.integers(0, 20), y + rng.integers(0, 20)
                c2d = rng.uniform((x0, y0), (x0 + 20, y0 + 20), (13, 2))
                c2d[0], c2d[1] = (x0, y0), (x0 + 20, y0 + 20)
                proposals.append(rescore(PoseProposal(
                    0, BoundingBox(x0, y0, x0 + 20, y0 + 20), Pose2D(c2d),
                    Pose3D(np.zeros((13, 3))), float(rng.choice([0.2, 0.5, 0.9])))))
        proposals = [proposals[i] for i in rng.permutation(len(proposals)).tolist()]
        for threshold in (1e-9, 0.12, 0.5):
            got = group_by_overlap(proposals, threshold)
            assert [ids(proposals, g) for g in got] == ref.groups(proposals, threshold)

    @settings(max_examples=60, deadline=None)
    @given(sizes=SMALL_PARTS, seed=st.integers(0, 2**32 - 1))
    def test_modes_match_reference_group_by_group(self, sizes, seed):
        rng = np.random.default_rng(seed)
        gid = np.repeat(np.arange(len(sizes)), sizes)[rng.permutation(sum(sizes))]
        # 3D poses one 1/16 m step apart along x, so d3d ties with t3d = 0.125
        c3d = np.zeros((len(gid), 13, 3))
        c3d[:, :, 0] = rng.integers(0, 4, size=(len(gid), 1)) / 16
        scores = rng.choice([0.2, 0.5, 0.5, 0.9], size=len(gid))
        expected = []
        for g in range(len(sizes)):
            index = np.flatnonzero(gid == g)
            expected += [index[mode].tolist()
                         for mode in ref.modes(c3d[index], scores[index], 0.125)]
        assert split_modes(*_modes(c3d, scores, gid, 0.125)) == expected


class TestBucketedAverage:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=40), st.integers(0, 2**32 - 1))
    def test_matches_average_oracle_exactly(self, sizes, seed):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        c2d = rng.uniform(0.0, 500.0, (n, 13, 2))
        c3d = rng.normal(0.0, 0.3, (n, 13, 3))
        members = rng.permutation(n)
        weights = rng.uniform(0.0, 1.0, n)
        starts = np.cumsum(sizes) - sizes
        for start, size in zip(starts, sizes):
            if rng.random() < 0.3:  # zero-score modes beside positive ones of each size
                weights[members[start:start + size]] = 0.0
        dets = _average(c2d, c3d, weights, members, np.array(sizes))
        expected = [ref.average(c2d[m], c3d[m], weights[m])
                    for m in np.split(members, np.cumsum(sizes)[:-1])]
        ref.assert_detections(dets, expected)
        assert [d.member_count for d in dets] == sizes
        assert [d.unweighted for d in dets] == [score == 0.0 for score, *_ in expected]

    def test_zero_and_positive_modes_of_one_size_in_one_image(self):
        rng = np.random.default_rng(26)
        c2d = rng.uniform(0.0, 500.0, (6, 13, 2))
        c3d = rng.normal(0.0, 0.3, (6, 13, 3))
        weights = np.array([0.0, 0.3, 0.0, 0.7, 0.2, 0.0])
        members = np.array([0, 2, 1, 3, 5, 4])
        dets = _average(c2d, c3d, weights, members, np.array([2, 2, 2]))
        assert [d.unweighted for d in dets] == [True, False, False]
        ref.assert_detections(dets, [ref.average(c2d[m], c3d[m], weights[m])
                                     for m in ([0, 2], [1, 3], [5, 4])])


class TestBuiltDetections:
    """Detections are built without their constructors; they must not differ."""

    @pytest.mark.parametrize("integrate", [ppi, nms])
    def test_equal_public_constructions(self, integrate):
        rng = np.random.default_rng(27)
        proposals = ref.crowd_proposals(rng, 3, 12)
        dets = integrate(proposals, PpiParams())
        assert dets
        for d in dets:
            ref.assert_same(d, Detection(Pose2D(d.pose2d.coords), Pose3D(d.pose3d.coords),
                                         d.score, d.member_count))
            with pytest.raises(FrozenInstanceError):
                d.score = 0.0
            with pytest.raises(FrozenInstanceError):
                d.pose2d.coords = np.zeros((13, 2))
            for arr in (d.pose2d.coords, d.pose2d.visibility, d.pose3d.coords):
                assert not arr.flags.writeable
            for obj in (d, d.pose2d, d.pose3d):
                assert not hasattr(obj, "__dict__")

    def test_ppi_means_share_no_memory_with_proposals(self):
        rng = np.random.default_rng(28)
        proposals = ref.crowd_proposals(rng, 2, 8)
        for d in ppi(proposals, PpiParams()):
            for p in proposals:
                assert not np.shares_memory(d.pose2d.coords, p.pose2d.coords)
                assert not np.shares_memory(d.pose3d.coords, p.pose3d.coords)

    def test_overflowing_mean_rejected(self):
        # two zero-score copies: the unweighted mean adds 1.5e308 twice, which
        # overflows to the inf that ppi rejects
        coords = np.linspace([1.5e308, 0.0], [1.5e308 + 1e300, 10.0], 13)
        twins = [PoseProposal(0, BoundingBox(1.4e308, -1, 1.6e308, 11), Pose2D(coords),
                              Pose3D(np.zeros((13, 3))), 0.0) for _ in range(2)]
        with pytest.raises(ValueError, match="visible joints must have finite coordinates"):
            ppi(twins, PpiParams(iou_threshold=0.0))


class TestOverlapBoxes:
    """The joint boxes that grouping compares (_overlap_boxes)."""

    def test_tight_box_of_the_listed_joints(self):
        rng = np.random.default_rng(42)
        poses = [Pose2D(rng.normal(200, 50, (13, 2))) for _ in range(5)]
        planes = _planes(np.stack([p.coords for p in poses]))
        for joints in (None, H13.head_torso_joints, (3,)):
            got = _overlap_boxes(planes, joints)
            assert [tuple(row) for row in got] == [ref.overlap_box(p, joints).as_tuple()
                                                   for p in poses]

    def test_zero_extent_padded_and_groups_alone(self):
        dot = np.full((13, 2), 50.0)
        line = np.linspace([40.0, 0.0], [40.0, 100.0], 13)  # zero x extent
        boxes = _overlap_boxes(_planes(np.stack([dot, line])), None)
        assert boxes.tolist() == [[50 - 1e-6, 50 - 1e-6, 50 + 1e-6, 50 + 1e-6],
                                  [40 - 1e-6, 0.0, 40 + 1e-6, 100.0]]
        c3d = np.zeros((13, 3))
        big = rescore(PoseProposal(0, BoundingBox(0, 0, 100, 100),
                                   Pose2D(np.linspace([0, 0], [100, 100], 13)), Pose3D(c3d), 0.9))
        small = rescore(PoseProposal(0, BoundingBox(0, 0, 100, 100), Pose2D(dot), Pose3D(c3d),
                                     0.5))
        assert group_by_overlap([big, small], 0.12) == [[big], [small]]

    def test_invisible_joints_count(self):
        coords = np.linspace([0, 0], [10, 10], 13)
        far = coords.copy()
        far[12] = (500.0, 500.0)
        hidden = np.ones(13, dtype=bool)
        hidden[12] = False
        c3d = np.zeros((13, 3))
        a = rescore(PoseProposal(0, BoundingBox(0, 0, 10, 10), Pose2D(coords), Pose3D(c3d), 0.9))
        b = rescore(PoseProposal(0, BoundingBox(0, 0, 10, 10), Pose2D(far, hidden),
                                 Pose3D(c3d), 0.5))
        assert _overlap_boxes(_planes(far[None]), None).tolist() == [[0.0, 0.0, 500.0, 500.0]]
        assert group_by_overlap([a, b], 0.12) == [[a], [b]]

