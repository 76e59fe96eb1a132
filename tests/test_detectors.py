"""The detector interface and the comparison baselines: keypoint rows,
count control as a prefix of one ranking, agreement of the three FAST-9
detectors, and the Harris and random baselines."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import nms_oracle
from cornerforge.annealing import distill, mutate, random_depth1_tree
from cornerforge.baselines import (HARRIS_K, StructureTensor, gaussian_kernel,
                                   harris_response, shi_tomasi_response,
                                   structure_tensor)
from cornerforge.datasets import synthetic_base_image
from cornerforge.detectors import (FastRefDetector, HarrisDetector,
                                   RandomDetector, ShiTomasiDetector,
                                   SixteenFoldDetector, TreeDetector)
from cornerforge.image import add_gaussian_noise
from cornerforge.runtime import top_n_by_score
from cornerforge.trees import RING16, default_offsets_48


@pytest.fixture(scope="module")
def frame():
    return add_gaussian_noise(synthetic_base_image(64, 48, 5), 2.0, 9)


@pytest.fixture(scope="module")
def scored_detectors(fast9_tree, fast9_grid48):
    wide, grid = fast9_grid48
    return [FastRefDetector(n=9), TreeDetector(fast9_tree, RING16),
            SixteenFoldDetector(wide, grid), HarrisDetector(),
            ShiTomasiDetector()]


def is_rows(a):
    return a.dtype == np.float64 and a.ndim == 2 and a.shape[1] == 3


def ranked_oracle(rows):
    return sorted(map(tuple, rows.tolist()), key=lambda r: (-r[2], r[1], r[0]))


def prefix_length(ranked, n, split_ties):
    """Top-n cut over a ranked list: exact with split ties, otherwise the
    tie-class boundary closest to n (the smaller on a draw)."""
    if n <= 0:
        return 0
    if split_ties or n >= len(ranked):
        return min(n, len(ranked))
    bounds = [0] + [i for i in range(1, len(ranked))
                    if ranked[i][2] != ranked[i - 1][2]] + [len(ranked)]
    return min(bounds, key=lambda b: (abs(b - n), b))


class TestRows:
    def test_every_detector_returns_rows(self, frame, scored_detectors):
        for det in scored_detectors + [RandomDetector(seed=3)]:
            got = det.detect(frame, 40, frame_key=0)
            assert is_rows(got) and len(got) > 0, det.name
            assert is_rows(det.all_keypoints(frame))

    def test_all_keypoints_is_a_fresh_array(self, frame, scored_detectors):
        for det in scored_detectors + [RandomDetector(seed=3)]:
            first = det.all_keypoints(frame, 1)
            again = det.all_keypoints(frame, 1)
            assert np.array_equal(again, first), det.name
            assert not np.shares_memory(again, first), det.name
            first[:] = -1
            assert np.array_equal(det.all_keypoints(frame, 1), again), det.name

    def test_detect_cuts_all_keypoints(self, frame, scored_detectors):
        for det in scored_detectors + [RandomDetector(seed=3)]:
            every = det.all_keypoints(frame, 2)
            for n in (0, 1, 7, 40, len(every), len(every) + 1):
                assert np.array_equal(
                    det.detect(frame, n, frame_key=2),
                    top_n_by_score(every, n, det.split_ties)), (det.name, n)

    def test_no_features(self, frame, scored_detectors):
        for det in scored_detectors + [RandomDetector()]:
            assert det.detect(frame, 0).shape == (0, 3)


class TestCountControl:
    @pytest.mark.parametrize("n", [1, 7, 25, 60, 10_000])
    def test_detect_is_prefix_of_ranking(self, frame, scored_detectors, n):
        for det in scored_detectors:
            every = det.all_keypoints(frame)
            ranked = ranked_oracle(every)
            assert every.tolist() == [list(r) for r in ranked], det.name
            split = isinstance(det, HarrisDetector)
            assert det.split_ties == split
            want = ranked[:prefix_length(ranked, n, split)]
            assert det.detect(frame, n).tolist() == [list(r) for r in want]

    def test_tie_rule_follows_detector(self, frame):
        tied = np.array([[x, 5, 2.5] for x in range(10)])
        for base, want in ((HarrisDetector, 4), (FastRefDetector, 0)):
            det = type("Tied", (base,), {"scored_keypoints": lambda s, img: tied})()
            assert len(det.detect(frame, 4)) == want, base.__name__

    def test_fast_cut_keeps_tie_classes_whole(self, frame, scored_detectors):
        scores = scored_detectors[0].all_keypoints(frame)[:, 2]
        for n in range(1, len(scores)):
            top = scored_detectors[0].detect(frame, n)
            k = len(top)
            assert k in (0, len(scores)) or scores[k - 1] != scores[k]


class TestFastAgreement:
    @pytest.mark.parametrize("t", [1, 35])
    def test_tree_and_sixteenfold_equal_reference(self, frame, fast9_tree,
                                                  fast9_grid48, t):
        wide, grid = fast9_grid48
        ref = FastRefDetector(n=9, t_min=t).all_keypoints(frame)
        assert len(ref) > 10
        assert (ref[:, 2] >= t).all()
        for det in (TreeDetector(fast9_tree, RING16, t_min=t),
                    SixteenFoldDetector(wide, grid, t_min=t)):
            assert np.array_equal(det.all_keypoints(frame), ref), det.name
            assert np.array_equal(det.detect(frame, 30), FastRefDetector(
                n=9, t_min=t).detect(frame, 30)), det.name


    def test_distilled_tree_fires_where_sixteenfold_does(self):
        # a mutated 48-offset tree is not symmetric, so its sixteen-fold
        # detector fires on more pixels than the tree alone
        table = default_offsets_48()
        rng = np.random.default_rng(0)
        tree = random_depth1_tree(rng, table)
        for _ in range(25):
            tree = mutate(tree, rng, table)
        frames = [add_gaussian_noise(synthetic_base_image(64, 48, 5), 2.0, k)
                  for k in (9, 10)]
        wide = SixteenFoldDetector(tree, table, t_min=35)
        single = TreeDetector(distill(tree, frames, t=35, table=table), table,
                              t_min=35)
        for img in frames:
            want = wide.walk.detect(img, 35, table.margin)
            assert len(want) > len(TreeDetector(tree, table).walk.detect(
                img, 35, table.margin)) > 0
            assert np.array_equal(single.walk.detect(img, 35, table.margin),
                                  want)


class TestBaselines:
    def test_random_deterministic_per_seed_and_frame(self, frame):
        det = RandomDetector(seed=4)
        a = det.detect(frame, 50, frame_key=1)
        assert np.array_equal(a, RandomDetector(seed=4).detect(
            frame, 50, frame_key=1))
        assert not np.array_equal(a, det.detect(frame, 50, frame_key=2))
        assert not np.array_equal(a, RandomDetector(seed=5).detect(
            frame, 50, frame_key=1))

    def test_random_inside_margin(self, frame):
        got = RandomDetector(seed=1).detect(frame, 500, frame_key=0)
        xs, ys, scores = got.T
        assert len({(x, y) for x, y in zip(xs, ys)}) == 500
        assert ((xs >= 3) & (xs < frame.width - 3)
                & (ys >= 3) & (ys < frame.height - 3)).all()
        assert (scores == 1).all()

    @given(seed=st.integers(0, 2**32 - 2), key=st.integers(0, 99),
           counts=st.lists(st.integers(0, 58 * 42), min_size=2, max_size=2,
                           unique=True).map(sorted))
    def test_random_counts_are_nested_samples(self, frame, seed, key, counts):
        # 58 x 42 interior pixels: every count up to all of them
        n, m = counts
        det = RandomDetector(seed=seed)
        small = det.detect(frame, n, frame_key=key)
        large = det.detect(frame, m, frame_key=key)
        assert len(small) == n and np.array_equal(large[:n], small)
        xs, ys, scores = large.T
        assert len(set(zip(xs.tolist(), ys.tolist()))) == m
        assert ((xs >= 3) & (xs < frame.width - 3)
                & (ys >= 3) & (ys < frame.height - 3)).all()
        assert (scores == 1).all()
        every = det.all_keypoints(frame, key)
        assert np.array_equal(det.all_keypoints(frame, key), every)
        assert np.array_equal(RandomDetector(seed=seed).detect(
            frame, m, frame_key=key), large)
        assert not np.array_equal(det.all_keypoints(frame, key + 1), every)
        assert not np.array_equal(RandomDetector(seed=seed + 1).all_keypoints(
            frame, key), every)

    def test_random_saturates_at_the_interior(self, frame):
        # as for every detector, a count beyond the ranking returns all of it
        det = RandomDetector(seed=2)
        every = det.all_keypoints(frame, 3)
        assert len(every) == 58 * 42
        for n in (58 * 42, 58 * 42 + 1, 10**6):
            assert np.array_equal(det.detect(frame, n, frame_key=3), every)

    @given(b=arrays(np.float64, (20, 2, 2), elements=st.floats(-200, 200)))
    def test_responses_match_eigenvalues(self, b):
        # B B^T is symmetric positive semi-definite, with entries of the
        # size a smoothed gradient product reaches
        axx, ayy = (b**2).sum(axis=2).T
        axy = (b[:, 0] * b[:, 1]).sum(axis=1)
        lo, hi = np.linalg.eigvalsh(np.stack([np.stack([axx, axy], -1),
                                              np.stack([axy, ayy], -1)], -2)).T
        tensor = StructureTensor(axx=axx, axy=axy, ayy=ayy)
        trace = axx + ayy
        # both formulas lose digits to cancellation, relative to the trace
        assert (np.abs(shi_tomasi_response(tensor) - lo)
                <= 1e-12 * (1 + trace)).all()
        assert (np.abs(harris_response(tensor) - (lo * hi - HARRIS_K * (lo + hi)**2))
                <= 1e-12 * (1 + trace)**2).all()

    def test_harris_keeps_positive_maxima_outside_margin(self, frame):
        det = HarrisDetector(sigma=1.5)
        field = harris_response(structure_tensor(frame, 1.5))
        got = det.scored_keypoints(frame)
        h, w = field.shape
        cells = [(x, y, float(field[y, x])) for y in range(h) for x in range(w)]
        want = [(x, y, s) for x, y, s in nms_oracle(cells)
                if s > 0 and 3 <= x < w - 3 and 3 <= y < h - 3]
        assert len(want) > 10
        assert [tuple(r) for r in got.tolist()] == want

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf"),
                                       1e308])
    def test_kernel_rejects_sigma_without_finite_radius(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_kernel(sigma)

    def test_structure_tensor_rejects_radius_beyond_the_image(self):
        img = synthetic_base_image(48, 40, 5)
        structure_tensor(img, 15.6)  # radius 47, below the longer side
        with pytest.raises(ValueError, match="radius of 48"):
            structure_tensor(img, 16.0)
        with pytest.raises(ValueError, match="radius of 60"):
            structure_tensor(img, 20.0)
