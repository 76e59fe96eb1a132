import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import any_within, repeatability_curve_loop
from conftest import constant_image
from cornerforge.detectors import (FastRefDetector, HarrisDetector,
                                   RandomDetector)
from cornerforge.image import GrayImage
from cornerforge.repeatability import (_cells_within, _disc_runs,
                                       _rank_raster, _row_prefix, _runs_hit,
                                       area_under_curve, make_pairs,
                                       pair_repeatability,
                                       repeatability_curve)
from cornerforge.warp import Homography, project_points

EPSILONS = (0.5, 1.0, 1.5, 5.0)

# Quarter-pixel coordinates make exact-distance ties (d == epsilon) common.
quarter = st.integers(-40, 160).map(lambda k: k / 4)
anywhere = st.floats(-12.0, 42.0, allow_nan=False)
queries = st.lists(st.tuples(st.one_of(quarter, anywhere),
                             st.one_of(quarter, anywhere)), max_size=40)
targets = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                   max_size=40)

# A query one unit in the last place below an integer, in x and in y, and
# a target just outside the (2c + 1)^2 box around its floor cell: the
# rounded squared distance is exactly epsilon**2, but the target is more
# than epsilon away, so nothing matches.
ULP_CASES = [([(4 - 2**-51, 3.0)], [(9, 3)], 5.0),
             ([(3.0, 4 - 2**-51)], [(3, 9)], 5.0),
             ([(1 - 2**-53, 0.0)], [(2, 0)], 1.0),
             ([(0.0, 1 - 2**-53)], [(0, 2)], 1.0)]


def with_examples(cases):
    """Decorate a test with a Hypothesis ``example`` per argument tuple."""
    def decorate(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return decorate


def target_raster(ts) -> np.ndarray:
    """The 31x31 raster of ``targets`` points (x, y)."""
    raster = np.zeros((31, 31), dtype=bool)
    for x, y in ts:
        raster[y, x] = True
    return raster


def min_rank_within(qs, ts, eps) -> np.ndarray:
    """For each query point, the lowest rank (row) of the targets ``ts``
    within Euclidean eps, len(ts) where there is none, read as the curve
    reads it: ``_cells_within`` over the ``_rank_raster`` of a frame that
    holds every target and every query's floor cell."""
    qs = np.asarray(qs, dtype=np.float64).reshape(-1, 2)
    ts = np.asarray(ts, dtype=np.float64).reshape(-1, 2)
    floors = np.floor(qs).astype(np.int64)
    cells = np.concatenate([floors, ts.astype(np.int64)])
    x0, y0 = cells.min(axis=0, initial=0)
    x1, y1 = cells.max(axis=0, initial=0)
    c = math.ceil(eps)
    ranks = _rank_raster(ts - [x0, y0], (x1 - x0 + 1, y1 - y0 + 1), c)
    stride = ranks.shape[1]
    anchor = (floors[:, 1] - y0 + c) * stride + floors[:, 0] - x0 + c
    index, within = _cells_within(qs[:, 0], qs[:, 1], anchor,
                                  _disc_runs(eps, stride)[2], stride, eps)
    return np.where(within, ranks.ravel().take(index), len(ts)).min(
        axis=1, initial=len(ts))


def match_within(qs, ts, eps) -> np.ndarray:
    """For each query point, is any target within Euclidean eps."""
    return min_rank_within(qs, ts, eps) < len(ts)


def near_tie_queries(eps: float) -> np.ndarray:
    """Queries a few units in the last place from distance eps of (50, 50),
    mostly with |dy| near eps: there eps**2 - dy**2 cancels, and a run end
    taken from sqrt alone is often one cell off."""
    rng = np.random.default_rng(int(eps * 10))
    dy = eps * np.sqrt(1 - rng.uniform(0, 1, 4000) ** 4) * rng.choice(
        [-1, 1], 4000)
    dx = np.sqrt(eps * eps - dy * dy) * rng.choice([-1, 1], dy.size)
    qx = [50 + dx]
    for step in (np.inf, -np.inf):
        x = qx[0]
        for _ in range(4):
            x = np.nextafter(x, step)
            qx.append(x)
    return np.column_stack([np.concatenate(qx), np.tile(50 + dy, len(qx))])


def keypoints(xy) -> np.ndarray:
    """Keypoint rows x, y, score for the points ``xy``."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    return np.column_stack([xy, np.ones(len(xy))])


class TestMatchWithin:
    @given(queries, targets, st.sampled_from(EPSILONS))
    @with_examples(ULP_CASES)
    def test_matches_oracle(self, qs, ts, eps):
        want = any_within(qs, ts, eps)
        assert match_within(qs, ts, eps).tolist() == want
        assert disc_settle(qs, target_raster(ts), eps)[2].tolist() == want

    @given(queries, targets, st.sampled_from(EPSILONS))
    def test_min_rank_is_the_first_target_within(self, qs, ts, eps):
        # duplicate targets are common here: the lower rank must win
        hits = [any_within(qs, [t], eps) for t in ts]
        want = [next((k for k, hit in enumerate(hits) if hit[q]), len(ts))
                for q in range(len(qs))]
        assert min_rank_within(qs, ts, eps).tolist() == want

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_exactly_epsilon_away_matches(self, eps):
        offsets = [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]
        if eps == 5.0:
            offsets += [(3, 4), (-3, 4), (4, -3), (-4, -3)]
        at = np.array([(20 + dx, 20 + dy) for dx, dy in offsets], dtype=float)
        target = np.array([[20, 20]])
        assert match_within(at, target, eps).all()
        beyond = at + 1e-9 * (at - 20)
        assert not match_within(beyond, target, eps).any()
        assert any_within(beyond.tolist(), [(20, 20)], eps) == [False] * len(at)

    @pytest.mark.parametrize("eps", EPSILONS + (2.3, 3.7))
    def test_near_ties(self, eps):
        qs = near_tie_queries(eps)
        got = match_within(qs, np.array([[50, 50]]), eps)
        assert got.tolist() == any_within(qs.tolist(), [(50, 50)], eps)

    def test_queries_outside_target_box(self):
        qs = np.array([[-4.0, 0.0], [0.0, -5.5], [104.0, 53.0], [100.0, 51.0],
                       [-40.0, 3.0], [52.0, 90.0]])
        ts = np.array([[0, 0], [100, 50]])
        assert match_within(qs, ts, 5.0).tolist() == [
            True, False, True, True, False, False]

    def test_cells_past_the_frame_edge(self):
        # a source at the frame's edge has candidate cells up to ceil(eps)
        # past it, in the rank raster's padding
        warp = Homography(np.eye(3), (101, 51))
        ts = keypoints([[0, 0], [100, 50]])
        qs = [[4.0, 0.0], [0.0, 5.5], [96.0, 47.0], [100.0, 45.0],
              [100.0, 44.5], [100.0, 0.0], [0.0, 50.0], [0.5, 49.5]]
        got = [pair_repeatability(keypoints(q), ts, warp, 5.0).n_repeated
               for q in qs]
        assert got == [1, 0, 1, 1, 0, 0, 0, 0]

    def test_empty_inputs(self):
        none = np.zeros((0, 2))
        assert match_within(none, np.array([[1, 2]]), 5.0).shape == (0,)
        assert match_within(np.array([[1.0, 2.0]]), none, 5.0).tolist() == [False]
        warp = Homography(np.eye(3), (4, 4))
        one = keypoints([[1, 2]])
        for det_i, det_j, useful in ((keypoints(none), one, 0),
                                     (one, keypoints(none), 1)):
            got = pair_repeatability(det_i, det_j, warp, 5.0)
            assert (got.n_useful, got.n_repeated) == (useful, 0)

    @pytest.mark.parametrize("bad", [[[1.5, 2.0]], [[1.0, np.nan]],
                                     [[np.inf, 0.0]]])
    def test_non_integer_targets_raise(self, bad):
        with pytest.raises(ValueError, match="integer"):
            pair_repeatability(keypoints([[1, 2]]), keypoints(bad),
                               Homography(np.eye(3), (4, 4)), 5.0)

    @pytest.mark.parametrize("bad", [[[4, 0]], [[0, 3]], [[-1, 2]],
                                     [[2, -1]], [[1, 1], [9, 9]]])
    def test_targets_outside_the_frame_raise(self, bad):
        # the rank raster covers the warp's 4x3 target frame and no more
        with pytest.raises(ValueError, match="inside the 4x3 frame"):
            pair_repeatability(keypoints([[1, 2]]), keypoints(bad),
                               Homography(np.eye(3), (4, 3)), 5.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_epsilon_must_be_finite_and_positive(self, eps):
        one = keypoints([[1, 2]])
        with pytest.raises(ValueError, match="epsilon"):
            pair_repeatability(one, one, Homography(np.eye(3), (4, 4)), eps)
        with pytest.raises(ValueError, match="epsilon"):
            _disc_runs(eps, 8)


DISC_EPSILONS = (0.5, 1.0, 1.5, 2.3, 3.7, 5.0)


# Sparse rasters leave many queries to the exact kernel; dense ones settle
# most of them by their sure runs.
rasters = st.one_of(
    targets.map(target_raster),
    st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([0.02, 0.2, 0.6])).map(
        lambda sd: np.random.default_rng(sd[0]).random((31, 31)) < sd[1]))


def disc_settle(qs, raster, eps):
    """Annealing's match on a raster whose cell [0, 0] is the point (0, 0):
    (sure, maybe, result) per query. The raster is padded wide enough for
    every query's cells; a query with a detection in its sure runs is
    repeated, one without any in its maybe runs is not, and for the rest a
    maybe cell that passes ``_cells_within`` and holds a detection decides.
    """
    qs = np.asarray(qs, dtype=np.float64).reshape(-1, 2)
    h, w = raster.shape
    lowest = int(min(np.floor(qs.min(initial=0.0)), 0))
    highest = int(max(np.floor(qs.max(initial=0.0)), h, w))
    pad = math.ceil(eps) + max(-lowest, highest - min(h, w)) + 1
    flat = _row_prefix(np.pad(raster, pad)).ravel()
    stride = w + 2 * pad + 1
    fx, fy = (np.floor(v).astype(np.int64) + pad for v in qs.T)
    anchor = fy * stride + fx
    sure_runs, maybe_runs, cells = _disc_runs(eps, stride)
    sure = _runs_hit(anchor, flat, sure_runs)
    maybe = _runs_hit(anchor, flat, maybe_runs)
    result = sure.copy()
    rest = np.flatnonzero(maybe & ~sure)
    index, within = _cells_within(qs[rest, 0], qs[rest, 1], anchor[rest],
                                  cells, stride, eps)
    result[rest] = (within & (flat.take(index + 1)
                              > flat.take(index))).any(axis=1)
    return sure, maybe, result


def disc_mask(runs, eps) -> np.ndarray:
    """The cells of the sure (0) or maybe (1) runs of ``_disc_runs``, as a
    boolean mask [v + c, u + c] around the floor cell, c = ceil(eps)."""
    c = math.ceil(eps)
    stride = 2 * c + 2
    mask = np.zeros((2 * c + 1, 2 * c + 1), dtype=bool)
    for lo, hi in _disc_runs(eps, stride)[runs]:
        v, u = divmod(lo + c, stride)
        mask[v + c, u : u + hi - lo] = True
    return mask


def box_within(qs, eps) -> np.ndarray:
    """``_cells_within`` over every cell of the (2c + 1)^2 box around each
    query's floor cell, c = ceil(eps), as a mask [q, v + c, u + c]."""
    c = math.ceil(eps)
    k = np.arange(-c, c + 1)
    box = np.stack(np.meshgrid(k, k), axis=-1).reshape(-1, 2)  # rows (u, v)
    _, within = _cells_within(qs[:, 0], qs[:, 1], np.zeros(len(qs), np.int64),
                              box, 2 * c + 1, eps)
    return within.reshape(-1, 2 * c + 1, 2 * c + 1)


def check_sure_exact_maybe(qs, eps):
    """For each query, its sure cells pass the exact test, and every cell
    of the box that passes it is a maybe cell."""
    exact = box_within(qs, eps)
    assert not (disc_mask(0, eps) & ~exact).any()
    assert not (exact & ~disc_mask(1, eps)).any()


class TestDiscRuns:
    @given(queries, rasters, st.sampled_from(DISC_EPSILONS))
    @with_examples([(qs, target_raster(ts), eps) for qs, ts, eps in ULP_CASES])
    def test_matches_exact_kernel_and_oracle(self, qs, raster, eps):
        sure, maybe, got = disc_settle(qs, raster, eps)
        want = any_within(qs, [(x, y) for y, x in np.argwhere(raster)], eps)
        assert got.tolist() == want
        assert not (sure & ~got).any() and not (got & ~maybe).any()

    @given(queries, st.sampled_from(DISC_EPSILONS))
    @with_examples([(qs, eps) for qs, _, eps in ULP_CASES]
                   + [([(-7.94e-61, 0.0)], 1.0)])
    def test_sure_within_exact_within_maybe(self, qs, eps):
        qs = np.array(qs, dtype=np.float64).reshape(-1, 2)
        check_sure_exact_maybe(qs, eps)
        # and the exact test is the oracle's, cell by cell
        c = math.ceil(eps)
        fx, fy = np.floor(qs).astype(np.int64).T
        exact = box_within(qs, eps)
        for q, (x, y) in enumerate(qs.tolist()):
            for v in range(-c, c + 1):
                cells = [(fx[q] + u, fy[q] + v) for u in range(-c, c + 1)]
                assert exact[q, v + c].tolist() == [
                    any_within([(x, y)], [cell], eps)[0] for cell in cells]

    @pytest.mark.parametrize("eps", DISC_EPSILONS)
    def test_near_ties(self, eps):
        qs = near_tie_queries(eps)
        raster = np.zeros((51, 51), dtype=bool)
        raster[50, 50] = True
        _, _, got = disc_settle(qs, raster, eps)
        assert got.tolist() == any_within(qs.tolist(), [(50, 50)], eps)
        check_sure_exact_maybe(qs, eps)

    @pytest.mark.parametrize("eps", DISC_EPSILONS)
    def test_cells_are_the_maybe_runs(self, eps):
        c = math.ceil(eps)
        u, v = _disc_runs(eps, 2 * c + 2)[2].T
        mask = np.zeros((2 * c + 1, 2 * c + 1), dtype=bool)
        mask[v + c, u + c] = True
        assert len(u) == mask.sum()  # no cell twice
        assert np.array_equal(mask, disc_mask(1, eps))

    def test_no_cell_is_sure_at_half_a_pixel(self):
        assert not disc_mask(0, 0.5).any()
        assert disc_mask(1, 0.5).tolist() == [[False, False, False],
                                              [False, True, True],
                                              [False, True, True]]


W, H = 26, 20
quarter_shift = st.integers(-48, 48).map(lambda k: k / 4)
# Scale, translation and a perspective term: with shifts up to 12 pixels,
# many sources project outside the 26x20 target frame.
warp_params = st.tuples(st.sampled_from([1.0, 0.75, 1.25]), quarter_shift,
                        quarter_shift, st.sampled_from([0.0, 0.004]))
DETECTORS = {"fast-ref": lambda: FastRefDetector(t_min=1),
             "harris": HarrisDetector,
             "random": lambda: RandomDetector(seed=3)}


def curve_frame(seed: int, flat: bool) -> GrayImage:
    """A noise frame, or a flat one on which no corner detector fires."""
    if flat:
        return constant_image(W, H, 90)
    pixels = np.random.default_rng(seed).integers(0, 256, (H, W))
    return GrayImage(pixels.astype(np.uint8))


class TestRepeatabilityCurve:
    @settings(max_examples=60)
    @given(st.sampled_from(sorted(DETECTORS)),
           st.lists(st.tuples(st.integers(0, 2**16),
                              st.sampled_from([False, False, False, True])),
                    min_size=3, max_size=3),
           st.lists(warp_params, min_size=6, max_size=6),
           st.lists(st.integers(0, 60), min_size=1, max_size=8,
                    unique=True).map(sorted),
           st.sampled_from([0.5, 1.5, 5.0]))
    def test_matches_per_count_loop(self, algo, frame_specs, params, counts,
                                    eps):
        # fast-ref cuts keep score ties whole, harris splits them, and the
        # random baseline cuts its permutation exactly
        frames = [curve_frame(seed, flat) for seed, flat in frame_specs]
        pairs = make_pairs(3, "all")
        warps = {pair: Homography(np.array([[s, 0.0, tx], [0.0, s, ty],
                                            [p, 0.0, 1.0]]), (W, H))
                 for pair, (s, tx, ty, p) in zip(pairs, params)}
        detector = DETECTORS[algo]()
        got = repeatability_curve(frames, warps, detector, counts, eps, pairs)
        want = repeatability_curve_loop(frames, warps, detector, counts, eps,
                                        pairs, project_points)
        assert got == want

    def test_ranks_each_frame_once(self):
        ranked = []

        class Spy(FastRefDetector):
            def all_keypoints(self, img, frame_key=None):
                ranked.append(frame_key)
                return super().all_keypoints(img, frame_key)

            def detect(self, img, n_features, frame_key=None):
                raise AssertionError("the curve cuts its own rankings")

        frames = [curve_frame(seed, False) for seed in range(3)]
        pairs = make_pairs(3, "all")
        warps = {pair: Homography(np.eye(3), (W, H)) for pair in pairs}
        counts = [0, 5, 20, 60]
        got = repeatability_curve(frames, warps, Spy(t_min=1), counts, 1.5,
                                  pairs)
        assert ranked == [0, 1, 2]
        assert got == repeatability_curve_loop(
            frames, warps, FastRefDetector(t_min=1), counts, 1.5, pairs,
            project_points)

    def test_rejects_bad_epsilon_and_missing_warps(self):
        frames = [curve_frame(0, False), curve_frame(1, False)]
        detector = HarrisDetector()
        with pytest.raises(ValueError, match="epsilon"):
            repeatability_curve(frames, {}, detector, [0, 10], np.inf,
                                make_pairs(2))
        with pytest.raises(KeyError, match="no warp"):
            repeatability_curve(frames, {}, detector, [0, 10], 5.0,
                                make_pairs(2))
        with pytest.raises(ValueError, match="no frame pairs"):
            repeatability_curve(frames[:1], {}, detector, [0, 10], 5.0,
                                make_pairs(1))


class TestAreaUnderCurve:
    @pytest.mark.parametrize("curve, area", [
        ([(0, 1.0), (2000, 1.0)], 2000.0),               # the maximum
        ([(0, 0.0), (2000, 1.0)], 1000.0),               # one triangle
        ([(0, 0.0), (1000, 1.0), (2000, 1.0)], 1500.0),  # 500 + 1000
        ([(2000, 0.5), (0, 0.5)], 1000.0),               # points in any order
        ([(0, 0.0), (4000, 1.0)], 500.0),                # cut at 2000, R=0.5 there
    ])
    def test_hand_computed(self, curve, area):
        assert area_under_curve(curve) == pytest.approx(area, abs=1e-9)

    @pytest.mark.parametrize("curve", [
        [(0, 1.0), (1000, 1.0)],     # stops short of 2000
        [(250, 1.0), (2000, 1.0)],   # starts after 0
        [(0, 1.0)],                  # one point
    ])
    def test_must_cover_range(self, curve):
        with pytest.raises(ValueError, match="cover"):
            area_under_curve(curve)
