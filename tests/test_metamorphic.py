"""Metamorphic relations of pose proposal integration: changes to an
image's proposals that must leave the detections of ppi and nms as they
are.

1. Equal box copies. Giving every proposal its own copy of its box, equal
   in value, leaves both outputs bit for bit: boxes are read by value,
   whether proposals share one box object, as those of one
   learner.predict call do, or not.
2. Permutation. Reordering an image's proposals leaves every overlap
   group and 3D mode the same set, since each is seeded by its best free
   proposal. The draws hold no tied rescored scores (assumed), so no
   tie-break on position enters. ppi adds a mode's members in another
   order, so its member counts agree exactly and its poses and scores
   within RTOL of the largest magnitude of each compared value. nms keeps
   each group's seed with its own poses and rescored score, and agrees
   bit for bit. Detections are matched by rank: both lists are sorted by
   descending score, and the draws keep neighbouring ppi scores more than
   SCORE_GAP apart, relative (assumed), so the k-th detections of the two
   runs are the same mode.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from poseforge.pose import H13, BoundingBox, Pose2D
from poseforge.ppi import PoseProposal, PpiParams, nms, ppi, rescore

RTOL = 1e-12
SCORE_GAP = 1e-9

PARAMS = [
    PpiParams(),
    PpiParams(iou_threshold=0.3, t3d=0.2, sigma_b=10.0),
    PpiParams(iou_threshold=0.05, overlap_joints=H13.head_torso_joints),
]


def copy(box):
    return BoundingBox(*box.as_tuple())


# the box objects of an image's proposals, from two boxes a and b
SHARING = {
    "shared": lambda a, b: [a] * 4 + [b] * 3,  # runs of one object each, as predict gives
    "equal_copies": lambda a, b: [copy(a) for _ in range(4)] + [b, b],
    "recurring": lambda a, b: [a, a, b, a, b, b, a],  # a, b, a: not one run per object
}


class TestEqualBoxCopies:
    @pytest.mark.parametrize("sharing", SHARING)
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), params=st.sampled_from(PARAMS))
    def test_ppi_and_nms_bit_identical(self, sharing, seed, params):
        rng = np.random.default_rng(seed)
        a, b = (BoundingBox(x, y, x + w, y + h) for x, y, w, h in
                rng.uniform((0, 0, 40, 40), (100, 100, 160, 160), (2, 4)).tolist())
        # scores of a few values, so that rescored ties and their tie-breaks occur
        proposals = [PoseProposal(int(rng.integers(5)), box,
                                  Pose2D(rng.uniform((box.x_min, box.y_min),
                                                     (box.x_max, box.y_max), (13, 2))
                                         + rng.normal(0, 4.0, (13, 2))),
                                  ref.pose3d(rng), float(rng.choice([0.2, 0.5, 0.9])))
                     for box in SHARING[sharing](a, b)]
        apart = [replace(p, box=copy(p.box)) for p in proposals]
        for integrate in (ppi, nms):
            got, want = integrate(proposals, params), integrate(apart, params)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                ref.assert_same(g, w)


def close(got, want):
    """got within RTOL of want's largest magnitude, elementwise."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


class TestPermutation:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), people=st.integers(1, 4),
           per_person=st.integers(1, 12), params=st.sampled_from(PARAMS))
    def test_detections_unchanged(self, seed, people, per_person, params):
        rng = np.random.default_rng(seed)
        proposals = ref.crowd_proposals(rng, people, per_person, ties=False)
        rescored = [rescore(p, params.sigma_b).rescored for p in proposals]
        assume(len(set(rescored)) == len(rescored))
        want = ppi(proposals, params)
        scores = np.array([d.score for d in want])
        assume((scores[:-1] - scores[1:] > SCORE_GAP * scores[:-1]).all())
        permuted = [proposals[i] for i in rng.permutation(len(proposals)).tolist()]
        got = ppi(permuted, params)
        assert [d.member_count for d in got] == [d.member_count for d in want]
        for g, w in zip(got, want):
            close(g.score, w.score)
            close(g.pose2d.coords, w.pose2d.coords)
            close(g.pose3d.coords, w.pose3d.coords)
        got, want = nms(permuted, params), nms(proposals, params)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            ref.assert_same(g, w)
