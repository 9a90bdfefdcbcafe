import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poseforge.anchors as anchors_module
import reference as ref
from poseforge.anchors import (
    AnchorSet,
    _kmeans_pp_init,
    add_upper_body_variants,
    kmeans_anchors,
)
from poseforge.pose import (
    H13,
    AnchorPose,
    Pose2D,
    Pose3D,
    PoseSpec,
    d3d,
    fit_scale_offset,
)


def assert_matches_oracle(poses, k, **kwargs):
    centroids, layouts, history = ref.kmeans(poses, k, **kwargs)
    if np.isnan(layouts).any():  # a cluster whose layout cannot be filled
        with pytest.raises(ValueError, match="has no finite 2D coordinate in its"):
            kmeans_anchors(poses, k, H13, **kwargs)
        return None
    out = kmeans_anchors(poses, k, H13, **kwargs)
    assert np.array_equal(out.coords3d, centroids)
    assert np.array_equal(np.stack([a.pose2d.coords for a in out.anchors]), layouts)
    assert out.distortion_history == history
    return out


class TestKmeansMatchesLloydOracle:
    @pytest.mark.parametrize("n,k,seed", [(300, 6, 0), (500, 12, 1), (200, 3, 2)])
    def test_seeded_corpora(self, n, k, seed):
        rng = np.random.default_rng(100 + seed)
        assert_matches_oracle(ref.clustered_corpus(rng, n, 8, 0.08), k, seed=seed)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 40), k_frac=st.floats(0.0, 1.0), spread=st.sampled_from([0.01, 0.1, 0.5]),
           seed=st.integers(0, 2**32 - 1))
    def test_hypothesis_corpora(self, n, k_frac, spread, seed):
        rng = np.random.default_rng(seed)
        k = 1 + int(k_frac * (n - 1))
        assert_matches_oracle(ref.clustered_corpus(rng, n, 4, spread), k, seed=seed % 1000)

    def test_k1(self):
        rng = np.random.default_rng(7)
        out = assert_matches_oracle(ref.clustered_corpus(rng, 50, 3, 0.1), 1, seed=4)
        assert len(out.distortion_history) >= 2

    def test_k_equals_n(self):
        rng = np.random.default_rng(8)
        assert_matches_oracle(ref.clustered_corpus(rng, 12, 3, 0.1), 12, seed=2)

    def test_duplicate_poses(self):
        # 6 distinct poses, each repeated 5 times; with k = 8 two clusters
        # end without members, which raises
        rng = np.random.default_rng(9)
        distinct = ref.clustered_corpus(rng, 6, 2, 0.2)
        poses = [distinct[i % 6] for i in range(30)]
        for k, seed in [(4, 0), (5, 3), (6, 1), (6, 5), (8, 2)]:
            assert_matches_oracle(poses, k, seed=seed)

    @pytest.mark.parametrize("steps,seed", [((8.4, 4.1, 7.7, 3.8, 6.9, 6.7, 9.7, 4.3), 250),
                                            ((4.3, 5.4, 3.5, 3.6, 8.5, 8.6, 9.4, 2.1), 550)])
    def test_cluster_emptied_by_lloyd_is_reseeded(self, steps, seed):
        # poses on a line where an update leaves one of 3 clusters without
        # members; it is reseeded at the point farthest from its centroid
        rng = np.random.default_rng(15)
        poses = [(Pose2D(rng.normal(200.0, 60.0, (13, 2))), Pose3D(np.full((13, 3), t)))
                 for t in steps]
        assert_matches_oracle(poses, 3, seed=seed)

    @pytest.mark.parametrize("steps,k,seed", [((5, 5, 1, 4, 2, 7), 2, 55),
                                              ((0, 4, 1, 3, 4, 6), 2, 32),
                                              ((1, 4, 1, 1, 3, 5, 7, 4, 0, 2), 2, 12)])
    def test_exact_distance_ties_go_to_the_lower_index(self, steps, k, seed):
        # poses on a line at integer steps tie exactly; a point whose
        # distance to a lower-index centroid ties with its own must move
        rng = np.random.default_rng(15)
        poses = [(Pose2D(rng.normal(200.0, 60.0, (13, 2))), Pose3D(np.full((13, 3), float(t))))
                 for t in steps]
        assert_matches_oracle(poses, k, seed=seed)

    @pytest.mark.parametrize("max_iters", [0, 1, 2])
    def test_max_iters_cut_short(self, max_iters):
        rng = np.random.default_rng(11)
        out = assert_matches_oracle(ref.clustered_corpus(rng, 200, 5, 0.1), 5, seed=6,
                                    max_iters=max_iters)
        assert len(out.distortion_history) == max_iters + 1

    def test_continuum_corpus_at_benchmark_scale(self):
        # no modes to settle into: the bounds decay the most, over 75 iterations
        rng = np.random.default_rng(26)
        out = assert_matches_oracle(ref.corpus(rng, 2000), 16, seed=4)
        assert len(out.distortion_history) > 50

    def test_pruning_skips_most_pairs(self, monkeypatch):
        # the first bounds are the k-means++ distance columns, so no full
        # matrix is computed; after the first assignment, every (point,
        # centroid) distance besides each point's own goes through the
        # module-level _pair_dist
        rng = np.random.default_rng(20)
        poses = ref.clustered_corpus(rng, 600, 30, 0.2)
        pairs, full = [], []
        pair_dist, d3d_matrix = anchors_module._pair_dist, anchors_module.d3d_matrix

        def counting_pairs(points, centroids, rows, cols, chunk):
            pairs.append(len(rows))
            return pair_dist(points, centroids, rows, cols, chunk)

        def counting_full(a, b, *rest):
            full.append(len(a) * len(b))
            return d3d_matrix(a, b, *rest)

        monkeypatch.setattr(anchors_module, "_pair_dist", counting_pairs)
        monkeypatch.setattr(anchors_module, "d3d_matrix", counting_full)
        out = kmeans_anchors(poses, 8, H13, seed=3)  # 24 iterations
        iterations = len(out.distortion_history) - 1
        assert iterations > 10
        assert full == []
        assert 0 < sum(pairs) < 0.2 * 600 * 8 * iterations

    def test_candidate_pairs_are_chunked(self):
        # a fit_heavy-sized call: on this corpus, evaluating all candidate
        # pairs at once peaks near 88 MB, and in chunks near 13.4 MB
        poses = ref.corpus(np.random.default_rng(30), 6000)
        tracemalloc.start()
        try:
            kmeans_anchors(poses, 16, H13, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestKmeansPlusPlusInit:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 60), k_frac=st.floats(0.0, 1.0), distinct=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_bounds_are_distances_of_the_draws(self, n, k_frac, distinct, seed):
        # `distinct` poses repeated to n rows: small values exhaust the
        # distinct poses before k, so the equal-weight draws run too
        rng = np.random.default_rng(seed)
        poses = ref.clustered_corpus(rng, distinct, 3, 0.1)
        coords3d = np.stack([poses[i % distinct][1].coords for i in range(n)])
        k = 1 + int(k_frac * (n - 1))
        centroids, low = _kmeans_pp_init(coords3d.reshape(n, -1), k,
                                         np.random.default_rng(seed % 1000))
        centroids = centroids.reshape(k, 13, 3)
        assert np.array_equal(centroids,
                              ref.kmeans_pp(coords3d, k, np.random.default_rng(seed % 1000)))
        assert low.shape == (n, k) and low.flags.c_contiguous
        assert np.array_equal(low, ref.flat_matrix(coords3d, centroids))


class TestKmeansOccludedLayouts:
    def test_nan_joints_average_over_finite_members(self):
        rng = np.random.default_rng(13)
        poses = ref.nan_coded_corpus(rng, 120, 0.2)
        out = kmeans_anchors(poses, 4, H13, seed=1)
        # the 3D side is untouched by 2D occlusion
        centroids, _, history = ref.kmeans(poses, 4, seed=1)
        assert np.array_equal(out.coords3d, centroids)
        assert out.distortion_history == history
        # each layout joint is the mean of the finite member coordinates
        assign = ref.flat_matrix(np.stack([p3.coords for _, p3 in poses]),
                                 out.coords3d).argmin(axis=1)
        for i, a in enumerate(out.anchors):
            for j in range(13):
                xs = [ref.unit_layout(p2)[j]
                      for (p2, _), c in zip(poses, assign) if c == i and p2.visibility[j]]
                assert np.allclose(a.pose2d.coords[j], np.mean(xs, axis=0), rtol=0, atol=1e-12)
        assert all(np.isfinite(a.pose2d.coords).all() for a in out.anchors)

    def test_joint_hidden_in_every_member_is_filled(self):
        # joint 5 is NaN in every member, joint 9 in the first half: anchor
        # by anchor, a joint no member shows takes the centroid's (x, y),
        # fitted by scale and offset onto the anchor's other joints
        rng = np.random.default_rng(14)
        poses = ref.nan_coded_corpus(rng, 30, 0.0)
        visible = np.ones((30, 13), dtype=bool)
        visible[:, 5] = False
        visible[:15, 9] = False
        poses = [(Pose2D(np.where(vis[:, None], p2.coords, np.nan), vis), p3)
                 for (p2, p3), vis in zip(poses, visible)]
        out = assert_matches_oracle(poses, 3, seed=0)
        for a in out.anchors:
            others = np.arange(13) != 5
            s, t = fit_scale_offset(a.pose3d.coords[others, :2], a.pose2d.coords[others])
            assert np.array_equal(a.pose2d.coords[5], s * a.pose3d.coords[5, :2] + t)

    def test_fill_without_spread_raises(self):
        # every centroid has its joints at one (x, y), so the fill's scale
        # is undetermined
        rng = np.random.default_rng(16)
        visible = np.arange(13) != 5
        poses = [(Pose2D(np.where(visible[:, None], p2.coords, np.nan), visible),
                  Pose3D(np.column_stack([np.zeros((13, 2)), rng.normal(0.0, 0.3, 13)])))
                 for p2, _ in ref.corpus(rng, 20)]
        with pytest.raises(ValueError, match="anchor 0: joint 5 has no finite 2D coordinate "
                                             "in its"):
            kmeans_anchors(poses, 2, H13, seed=0)


class TestAnchorSet:
    def test_bad_k_rejected(self):
        anchors = ref.anchor_set(np.random.default_rng(17), 3).anchors
        for k, message in [(4, "K must be <= the 3 anchors, got 4"),
                           (-1, "K must be >= 0, got -1"),
                           (1.0, "K must be an integer, got 1.0"),
                           (True, "K must be an integer, got True"),
                           (None, "K must be an integer, got None")]:
            with pytest.raises(ValueError, match=message):
                AnchorSet(anchors, K=k, spec=H13)
        for k in (0, 3, np.int64(2)):
            assert AnchorSet(anchors, K=k, spec=H13).K == k
        with pytest.raises(ValueError, match="K must be <= the 0 anchors, got 1"):
            AnchorSet((), K=1, spec=H13)

    @pytest.mark.parametrize("joints2d, joints3d", [(17, 17), (13, 17), (17, 13)])
    def test_joint_count_other_than_spec_rejected(self, joints2d, joints3d):
        good = ref.anchor_set(np.random.default_rng(18), 1).anchors[0]
        bad = AnchorPose(Pose2D(np.zeros((joints2d, 2))), Pose3D(np.zeros((joints3d, 3))))
        with pytest.raises(ValueError, match=f"anchor 1 has {joints2d} 2D and {joints3d} 3D "
                                             "joints, spec h13 has 13"):
            AnchorSet((good, bad), K=2, spec=H13)

    def test_empty_set_has_empty_stacks(self):
        empty = AnchorSet((), K=0, spec=H13)
        assert empty.coords2d.shape == (0, 13, 2) and empty.coords3d.shape == (0, 13, 3)
        assert not empty.coords2d.flags.writeable and not empty.coords3d.flags.writeable
        assert empty.stack.shape == (0, 65) and not empty.stack.flags.writeable

    def test_stack_holds_layout_then_3d_pose_per_row(self):
        anchors = add_upper_body_variants(ref.anchor_set(np.random.default_rng(19), 4))
        stack = anchors.stack
        assert stack.shape == (8, 65) and not stack.flags.writeable
        for i, a in enumerate(anchors.anchors):
            assert np.array_equal(stack[i], np.concatenate([a.pose2d.coords.ravel(),
                                                            a.pose3d.coords.ravel()]))
        assert np.array_equal(stack, np.hstack([anchors.coords2d.reshape(8, -1),
                                                anchors.coords3d.reshape(8, -1)]))
        # the coordinate stacks are read-only views of the one stack
        for view in (anchors.coords2d, anchors.coords3d):
            assert np.shares_memory(view, stack) and not view.flags.writeable
        assert not np.shares_memory(anchors.coords2d, anchors.coords3d)


class TestKmeans:
    def test_k1_is_mean_pose(self):
        rng = np.random.default_rng(0)
        poses = ref.corpus(rng, 20)
        out = kmeans_anchors(poses, 1, H13, seed=3)
        mean = np.stack([p3.coords for _, p3 in poses]).mean(axis=0)
        assert np.abs(out.anchors[0].pose3d.coords - mean).max() < 1e-12

    def test_k_equals_n_distinct(self):
        rng = np.random.default_rng(1)
        poses = ref.corpus(rng, 8)
        out = kmeans_anchors(poses, 8, H13, seed=5)
        assert len(out) == 8
        assert out.distortion_history[-1] == pytest.approx(0.0, abs=1e-20)
        # every input pose is one of the anchors
        for _, p3 in poses:
            assert min(d3d(a.pose3d, p3) for a in out.anchors) < 1e-12

    def test_recovers_separated_modes(self):
        # 3 modes whose inter-mode d3d is >= 10x the intra-mode spread
        rng = np.random.default_rng(2)
        centers = [rng.normal(0.0, 2.0, size=(13, 3)) for _ in range(3)]
        poses, labels = [], []
        for mode, c in enumerate(centers):
            for _ in range(10):
                p3 = ref.center_3d(c + rng.normal(0.0, 0.05, size=(13, 3)))
                poses.append((Pose2D(rng.normal(200, 50, (13, 2))), p3))
                labels.append(mode)
        out = kmeans_anchors(poses, 3, H13, seed=11)
        # brute-force nearest-mode oracle: each anchor maps to a true mode center
        mode_poses = [ref.center_3d(c) for c in centers]
        anchor_to_mode = [
            int(np.argmin([d3d(a.pose3d, m) for m in mode_poses])) for a in out.anchors
        ]
        correct = 0
        for (_, p3), true_mode in zip(poses, labels):
            nearest_anchor = int(np.argmin([d3d(a.pose3d, p3) for a in out.anchors]))
            correct += anchor_to_mode[nearest_anchor] == true_mode
        assert correct / len(poses) >= 0.90

    def test_distortion_monotone(self):
        rng = np.random.default_rng(3)
        poses = ref.corpus(rng, 60)
        out = kmeans_anchors(poses, 5, H13, seed=7)
        hist = out.distortion_history
        assert len(hist) >= 2
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(500, 2000), k=st.integers(1, 16), modes=st.integers(0, 8),
           spread=st.sampled_from([0.05, 0.2, 0.4]), seed=st.integers(0, 2**32 - 1))
    def test_distortion_never_rises(self, n, k, modes, spread, seed):
        # modes = 0 draws a continuum corpus, which has no modes to settle into.
        # Corpora start at 500 poses: an assignment by d3d under the same mean
        # update raised the history on about half of the continuum corpora of
        # 2,000 poses, and on almost none below 500.
        rng = np.random.default_rng(seed)
        poses = (ref.corpus(rng, n, spread) if modes == 0
                 else ref.clustered_corpus(rng, n, modes, spread))
        hist = kmeans_anchors(poses, min(k, n), H13, seed=seed % 1000).distortion_history
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-12 * a

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        poses = ref.corpus(rng, 30)
        a = kmeans_anchors(poses, 4, H13, seed=9)
        b = kmeans_anchors(poses, 4, H13, seed=9)
        assert np.array_equal(a.coords3d, b.coords3d)
        c = kmeans_anchors(poses, 4, H13, seed=10)
        assert not np.array_equal(a.coords3d, c.coords3d)

    def test_anchors_torso_centered(self):
        rng = np.random.default_rng(5)
        poses = ref.corpus(rng, 30)
        out = kmeans_anchors(poses, 4, H13, seed=1)
        for a in out.anchors:
            torso = a.pose3d.coords[list(H13.torso_anchor_joints)].mean(axis=0)
            assert np.abs(torso).max() < 1e-9

    def test_too_few_poses_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            kmeans_anchors(ref.corpus(rng, 3), 5, H13)

    @pytest.mark.parametrize("arg,value,message", [
        ("k", 2.5, "k must be an integer, got 2.5"),
        ("k", True, "k must be an integer, got True"),
        ("k", 0, "k must be >= 1, got 0"),
        ("seed", None, "seed must be an integer, got None"),
        ("seed", True, "seed must be an integer, got True"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("max_iters", 2.5, "max_iters must be an integer, got 2.5"),
        ("max_iters", True, "max_iters must be an integer, got True"),
        ("max_iters", -1, "max_iters must be >= 0, got -1"),
    ])
    def test_bad_arguments_rejected(self, arg, value, message):
        rng = np.random.default_rng(6)
        kwargs = {"k": 2, arg: value}
        with pytest.raises(ValueError, match=message):
            kmeans_anchors(ref.corpus(rng, 5), spec=H13, **kwargs)

    @pytest.mark.parametrize("mixed", ["2d", "3d"])
    def test_corpus_mixing_joint_counts_rejected(self, mixed):
        rng = np.random.default_rng(7)
        poses = ref.corpus(rng, 6)
        p2, p3 = poses[3]
        if mixed == "3d":
            poses[3] = (p2, Pose3D(np.vstack([p3.coords, np.zeros((4, 3))])))
        else:
            poses[3] = (Pose2D(np.vstack([p2.coords, p2.coords[:4] + 1.0])), p3)
        counts = "13 2D and 17 3D" if mixed == "3d" else "17 2D and 13 3D"
        with pytest.raises(ValueError, match=f"ground truth has {counts} joints"):
            kmeans_anchors(poses, 2, H13)

    def test_2d_joint_count_other_than_specs_rejected(self):
        # every 2D pose has 17 joints and every 3D pose H13's 13, so
        # the 2D stack is uniform but does not match the spec
        rng = np.random.default_rng(8)
        poses = [(Pose2D(np.vstack([p2.coords, p2.coords[:4] + 1.0])), p3)
                 for p2, p3 in ref.corpus(rng, 6)]
        with pytest.raises(ValueError, match="ground truth has 17 2D and 13 3D joints, "
                                             "the anchors' spec h13 has 13"):
            kmeans_anchors(poses, 2, H13)

    def test_numpy_integer_arguments_accepted(self):
        rng = np.random.default_rng(6)
        poses = ref.corpus(rng, 10)
        out = kmeans_anchors(poses, np.int64(3), H13, seed=2, max_iters=np.int32(4))
        assert out.coords3d.tobytes() == kmeans_anchors(poses, 3, H13, seed=2,
                                                        max_iters=4).coords3d.tobytes()


def upright_layout():
    """Unit-box canonical layout with lower body strictly below the arms."""
    coords = np.array([
        [0.50, 0.05],   # head
        [0.35, 0.20], [0.65, 0.20],   # shoulders
        [0.20, 0.22], [0.80, 0.22],   # elbows (T-ish)
        [0.05, 0.24], [0.95, 0.24],   # wrists
        [0.40, 0.55], [0.60, 0.55],   # hips
        [0.40, 0.75], [0.60, 0.75],   # knees
        [0.40, 0.95], [0.60, 0.95],   # ankles
    ])
    return coords


def upright_anchor_set():
    return ref.anchor_set(np.random.default_rng(7), layouts=[upright_layout()])


class TestUpperBodyVariants:
    def test_doubles_with_dense_ids(self):
        doubled = add_upper_body_variants(upright_anchor_set())
        assert len(doubled) == 2 and doubled.K == 1
        # the variant of anchor 0 is anchor K + 0
        assert doubled.anchors[1].pose3d is doubled.anchors[0].pose3d

    def test_upper_body_spans_unit_box(self):
        doubled = add_upper_body_variants(upright_anchor_set())
        layout = doubled.anchors[1].pose2d.coords
        upper = list(H13.upper_body_joints)
        assert layout[upper].min(axis=0) == pytest.approx((0.0, 0.0), abs=1e-9)
        assert layout[upper].max(axis=0) == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_lower_body_below_unit_box(self):
        doubled = add_upper_body_variants(upright_anchor_set())
        layout = doubled.anchors[1].pose2d.coords
        assert (layout[list(H13.lower_body_joints), 1] > 1.0).all()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), exponent=st.integers(-6, 6),
           collapsed=st.sets(st.integers(0, 11), max_size=3), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_anchor_reference(self, n, exponent, collapsed, seed):
        rng = np.random.default_rng(seed)
        layouts = rng.uniform(-0.5, 1.5, size=(n, 13, 2)) * 10.0 ** exponent
        for i in collapsed & set(range(n)):  # zero upper-body extent on one axis
            layouts[i, list(H13.upper_body_joints), i % 2] = layouts[i, 0, i % 2]
        anchor_set = ref.anchor_set(rng, layouts=layouts)
        try:
            expected = ref.upper_body(anchor_set)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                add_upper_body_variants(anchor_set)
            assert str(raised.value) == str(err)
            return
        doubled = add_upper_body_variants(anchor_set)
        assert doubled.anchors[:n] == anchor_set.anchors
        assert len(doubled) == 2 * n and doubled.K == n
        variants = doubled.anchors[n:]
        for v, a in zip(variants, anchor_set.anchors):
            assert v.pose3d is a.pose3d
        assert np.array_equal(np.stack([v.pose2d.coords for v in variants]), expected)

    def test_two_degenerate_anchors_name_the_lower_id(self):
        rng = np.random.default_rng(8)
        layouts = rng.uniform(0.0, 1.0, size=(6, 13, 2))
        upper = list(H13.upper_body_joints)
        layouts[4, upper, 0] = 0.5   # zero width
        layouts[2, upper, 1] = 0.25  # zero height
        with pytest.raises(ValueError, match="anchor 2: upper-body joints span a degenerate box"):
            add_upper_body_variants(ref.anchor_set(rng, layouts=layouts))

    def test_empty_set_stays_empty(self):
        assert len(add_upper_body_variants(AnchorSet((), K=0, spec=H13))) == 0

    def test_spec_without_lower_body_rejected(self):
        spec = PoseSpec("h13_no_lower", H13.joint_names, H13.torso_anchor_joints, H13.head_joints)
        anchors = upright_anchor_set().anchors
        with pytest.raises(ValueError, match="spec lacks an upper/lower body partition"):
            add_upper_body_variants(AnchorSet(anchors, K=1, spec=spec))

    def test_rejects_already_doubled(self):
        doubled = add_upper_body_variants(upright_anchor_set())
        message = "input anchor set already contains upper-body variants"
        with pytest.raises(ValueError, match=message):
            add_upper_body_variants(doubled)
        # any set with more anchors than K holds variants
        with pytest.raises(ValueError, match=message):
            add_upper_body_variants(AnchorSet(doubled.anchors[:1] * 3, K=2, spec=H13))
