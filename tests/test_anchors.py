import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poseforge.anchors as anchors_module
from poseforge.anchors import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
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
    box_around,
    center_3d,
    d3d,
    normalize_to_box,
)


def make_pair(rng, center=None, spread=0.4):
    base = rng.normal(0.0, spread, size=(13, 3))
    if center is not None:
        base = center + rng.normal(0.0, spread, size=(13, 3))
    p3 = center_3d(H13, base)
    p2 = Pose2D(rng.normal(200.0, 60.0, size=(13, 2)))
    return p2, p3


def random_corpus(rng, n):
    return [make_pair(rng) for _ in range(n)]


def norm_d3d_matrix(a, b, chunk=256):
    """Pairwise d3d through np.linalg.norm, as k-means computed it before."""
    out = np.empty((a.shape[0], b.shape[0]))
    for start in range(0, a.shape[0], chunk):
        blk = a[start:start + chunk]
        out[start:start + chunk] = np.linalg.norm(
            blk[:, None, :, :] - b[None, :, :, :], axis=3
        ).mean(axis=2)
    return out


def kmeans_oracle(poses, k, seed=0, max_iters=DEFAULT_MAX_ITERS, tol=DEFAULT_TOL,
                  margin_fraction=0.10):
    """Plain Lloyd iterations with a full distance matrix per assignment.

    Returns the centroids (k, J, 3), the unit-box layouts (k, J, 2) as a
    plain member mean, and the distortion history.
    """
    coords3d = np.stack([p3.coords for _, p3 in poses])
    centroids = _kmeans_pp_init(coords3d, k, np.random.default_rng(seed))
    history = []
    n = len(poses)
    for _ in range(max_iters):
        dist = norm_d3d_matrix(coords3d, centroids)
        assign = dist.argmin(axis=1)
        history.append(float((dist[np.arange(n), assign] ** 2).sum()))
        new_centroids = centroids.copy()
        for c in range(k):
            members = assign == c
            if members.any():
                new_centroids[c] = coords3d[members].mean(axis=0)
        empty = [c for c in range(k) if not (assign == c).any()]
        if empty:
            point_dist = norm_d3d_matrix(coords3d, new_centroids)[np.arange(n), assign]
            for c in empty:
                far = int(point_dist.argmax())
                new_centroids[c] = coords3d[far]
                point_dist[far] = -1.0
        shift = np.linalg.norm(new_centroids - centroids, axis=2).mean(axis=1).max()
        centroids = new_centroids
        if shift < tol:
            break
    dist = norm_d3d_matrix(coords3d, centroids)
    assign = dist.argmin(axis=1)
    history.append(float((dist[np.arange(n), assign] ** 2).sum()))
    unit_layouts = np.stack(
        [normalize_to_box(p2, box_around(p2, margin_fraction)).coords for p2, _ in poses])
    layouts = np.stack([unit_layouts[assign == c].mean(axis=0) if (assign == c).any()
                        else np.full(unit_layouts.shape[1:], np.nan) for c in range(k)])
    return centroids, layouts, tuple(history)


def assert_matches_oracle(poses, k, **kwargs):
    centroids, layouts, history = kmeans_oracle(poses, k, **kwargs)
    if np.isnan(layouts).any():  # a cluster without members in the end
        with pytest.raises(ValueError, match="has no finite 2D coordinate in its 0 members"):
            kmeans_anchors(poses, k, H13, **kwargs)
        return None
    out = kmeans_anchors(poses, k, H13, **kwargs)
    assert np.array_equal(out.coords3d, centroids)
    assert np.array_equal(np.stack([a.pose2d.coords for a in out.anchors]), layouts)
    assert out.distortion_history == history
    return out


def clustered_corpus(rng, n, modes, spread):
    """n poses around `modes` random centers, the regime pruning is for."""
    centers = rng.normal(0.0, 0.5, size=(modes, 13, 3))
    return [(Pose2D(rng.normal(200.0, 60.0, size=(13, 2))),
             center_3d(H13, centers[rng.integers(modes)] + rng.normal(0.0, spread, (13, 3))))
            for _ in range(n)]


class TestKmeansMatchesLloydOracle:
    @pytest.mark.parametrize("n,k,seed", [(300, 6, 0), (500, 12, 1), (200, 3, 2)])
    def test_seeded_corpora(self, n, k, seed):
        rng = np.random.default_rng(100 + seed)
        assert_matches_oracle(clustered_corpus(rng, n, 8, 0.08), k, seed=seed)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 40), k_frac=st.floats(0.0, 1.0), spread=st.sampled_from([0.01, 0.1, 0.5]),
           seed=st.integers(0, 2**32 - 1))
    def test_hypothesis_corpora(self, n, k_frac, spread, seed):
        rng = np.random.default_rng(seed)
        k = 1 + int(k_frac * (n - 1))
        assert_matches_oracle(clustered_corpus(rng, n, 4, spread), k, seed=seed % 1000)

    def test_k1(self):
        rng = np.random.default_rng(7)
        out = assert_matches_oracle(clustered_corpus(rng, 50, 3, 0.1), 1, seed=4)
        assert len(out.distortion_history) >= 2

    def test_k_equals_n(self):
        rng = np.random.default_rng(8)
        assert_matches_oracle(clustered_corpus(rng, 12, 3, 0.1), 12, seed=2)

    def test_duplicate_poses(self):
        # 6 distinct poses, each repeated 5 times; with k = 8 two clusters
        # end without members, which raises
        rng = np.random.default_rng(9)
        distinct = clustered_corpus(rng, 6, 2, 0.2)
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
        out = assert_matches_oracle(clustered_corpus(rng, 200, 5, 0.1), 5, seed=6,
                                    max_iters=max_iters)
        assert len(out.distortion_history) == max_iters + 1

    def test_pruning_skips_most_full_rows(self, monkeypatch):
        # full rows go through the module-level d3d_matrix, which the
        # benchmark's tracer also wraps to count pairs
        rng = np.random.default_rng(12)
        poses = clustered_corpus(rng, 600, 30, 0.2)
        rows = []
        original = anchors_module.d3d_matrix

        def counting(a, b, *rest):
            if len(b) == 8:  # not a k-means++ init column
                rows.append(len(a))
            return original(a, b, *rest)

        monkeypatch.setattr(anchors_module, "d3d_matrix", counting)
        out = kmeans_anchors(poses, 8, H13, seed=3)
        assert len(out.distortion_history) > 10
        assert rows[0] == 600  # the first assignment is a full matrix
        assert sum(rows) < 0.5 * 600 * len(out.distortion_history)


def nan_coded_corpus(rng, n, hidden_share):
    """Corpus whose invisible 2D joints are coded as NaN."""
    poses = []
    for p2, p3 in clustered_corpus(rng, n, 4, 0.1):
        vis = rng.random(13) >= hidden_share
        vis[:2] = True
        coords = p2.coords.copy()
        coords[~vis] = np.nan
        poses.append((Pose2D(coords, vis), p3))
    return poses


class TestKmeansOccludedLayouts:
    def test_nan_joints_average_over_finite_members(self):
        rng = np.random.default_rng(13)
        poses = nan_coded_corpus(rng, 120, 0.2)
        out = kmeans_anchors(poses, 4, H13, seed=1)
        # the 3D side is untouched by 2D occlusion
        centroids, _, history = kmeans_oracle(poses, 4, seed=1)
        assert np.array_equal(out.coords3d, centroids)
        assert out.distortion_history == history
        # each layout joint is the mean of the finite member coordinates
        assign = np.array([np.argmin([d3d(a.pose3d, p3) for a in out.anchors])
                           for _, p3 in poses])
        for a in out.anchors:
            for j in range(13):
                xs = [normalize_to_box(p2, box_around(p2)).coords[j]
                      for (p2, _), c in zip(poses, assign) if c == a.id and p2.visibility[j]]
                assert np.allclose(a.pose2d.coords[j], np.mean(xs, axis=0), rtol=0, atol=1e-12)
        assert all(np.isfinite(a.pose2d.coords).all() for a in out.anchors)

    def test_joint_hidden_in_every_member_raises(self):
        rng = np.random.default_rng(14)
        poses = nan_coded_corpus(rng, 30, 0.0)
        hidden = np.ones(13, dtype=bool)
        hidden[5] = False
        poses = [(Pose2D(np.where(hidden[:, None], p2.coords, np.nan), hidden), p3)
                 for p2, p3 in poses]
        with pytest.raises(ValueError, match="anchor 0: joint 5 has no finite 2D coordinate"):
            kmeans_anchors(poses, 2, H13, seed=0)


class TestKmeans:
    def test_k1_is_mean_pose(self):
        rng = np.random.default_rng(0)
        poses = random_corpus(rng, 20)
        out = kmeans_anchors(poses, 1, H13, seed=3)
        mean = np.stack([p3.coords for _, p3 in poses]).mean(axis=0)
        assert np.abs(out.anchors[0].pose3d.coords - mean).max() < 1e-12

    def test_k_equals_n_distinct(self):
        rng = np.random.default_rng(1)
        poses = random_corpus(rng, 8)
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
                p3 = center_3d(H13, c + rng.normal(0.0, 0.05, size=(13, 3)))
                poses.append((Pose2D(rng.normal(200, 50, (13, 2))), p3))
                labels.append(mode)
        out = kmeans_anchors(poses, 3, H13, seed=11)
        # brute-force nearest-mode oracle: each anchor maps to a true mode center
        mode_poses = [center_3d(H13, c) for c in centers]
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
        poses = random_corpus(rng, 60)
        out = kmeans_anchors(poses, 5, H13, seed=7)
        hist = out.distortion_history
        assert len(hist) >= 2
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        poses = random_corpus(rng, 30)
        a = kmeans_anchors(poses, 4, H13, seed=9)
        b = kmeans_anchors(poses, 4, H13, seed=9)
        assert np.array_equal(a.coords3d, b.coords3d)
        c = kmeans_anchors(poses, 4, H13, seed=10)
        assert not np.array_equal(a.coords3d, c.coords3d)

    def test_anchors_torso_centered(self):
        rng = np.random.default_rng(5)
        poses = random_corpus(rng, 30)
        out = kmeans_anchors(poses, 4, H13, seed=1)
        for a in out.anchors:
            torso = a.pose3d.coords[list(H13.torso_anchor_joints)].mean(axis=0)
            assert np.abs(torso).max() < 1e-9

    def test_too_few_poses_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            kmeans_anchors(random_corpus(rng, 3), 5, H13)


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
    rng = np.random.default_rng(7)
    p3 = center_3d(H13, rng.normal(0, 0.3, (13, 3)))
    anchor = AnchorPose(0, Pose2D(upright_layout()), p3)
    return AnchorSet((anchor,), K=1, spec=H13, seed=0)


class TestUpperBodyVariants:
    def test_doubles_with_dense_ids(self):
        doubled = add_upper_body_variants(upright_anchor_set())
        assert len(doubled) == 2
        assert [a.id for a in doubled.anchors] == [0, 1]
        assert np.array_equal(
            doubled.anchors[0].pose3d.coords, doubled.anchors[1].pose3d.coords
        )
        assert doubled.anchors[1].body_extent == "upper_body"

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

    def test_rejects_already_doubled(self):
        doubled = add_upper_body_variants(upright_anchor_set())
        with pytest.raises(ValueError):
            add_upper_body_variants(doubled)
