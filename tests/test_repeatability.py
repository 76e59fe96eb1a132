import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import any_within, repeatability_curve_loop
from conftest import constant_image
from cornerforge.detectors import (FastRefDetector, HarrisDetector,
                                   RandomDetector)
from cornerforge.image import GrayImage
from cornerforge.repeatability import (_any_within, _disc_runs,
                                       _min_rank_within, _rank_raster,
                                       _row_prefix, _row_runs, _runs_hit,
                                       area_under_curve, make_pairs,
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


def target_raster(ts) -> np.ndarray:
    """The 31x31 raster of ``targets`` points (x, y)."""
    raster = np.zeros((31, 31), dtype=bool)
    for x, y in ts:
        raster[y, x] = True
    return raster


def match_within(queries, targets, eps):
    """For each query point, is any target within Euclidean eps: the rank
    raster of ``targets`` and its min-rank kernel, as the curve reads them."""
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, 2)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 2)
    ranks, x0, y0 = _rank_raster(targets)
    return _min_rank_within(queries[:, 0], queries[:, 1], ranks, eps,
                            x0, y0) < len(targets)


def prefix_any_within(qs, raster, eps):
    """``_any_within`` over the row prefix sums of a boolean raster."""
    qs = np.array(qs, dtype=np.float64).reshape(-1, 2)
    return _any_within(qs[:, 0], qs[:, 1], _row_prefix(raster), eps)


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


class TestMatchWithin:
    @given(queries, targets, st.sampled_from(EPSILONS))
    def test_matches_oracle(self, qs, ts, eps):
        got = match_within(np.array(qs, dtype=np.float64),
                           np.array(ts, dtype=np.float64), eps)
        assert got.tolist() == any_within(qs, ts, eps)
        assert prefix_any_within(qs, target_raster(ts),
                                 eps).tolist() == got.tolist()

    @given(queries, targets, st.sampled_from(EPSILONS))
    def test_min_rank_is_the_first_target_within(self, qs, ts, eps):
        # duplicate targets are common here: the lower rank must win
        ranks, x0, y0 = _rank_raster(np.array(ts, dtype=np.float64))
        qs_arr = np.array(qs, dtype=np.float64).reshape(-1, 2)
        got = _min_rank_within(qs_arr[:, 0], qs_arr[:, 1], ranks, eps, x0, y0)
        hits = [any_within(qs, [t], eps) for t in ts]
        want = [next((k for k, hit in enumerate(hits) if hit[q]), len(ts))
                for q in range(len(qs))]
        assert got.tolist() == want

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
        prefixed = _any_within(qs[:, 0], qs[:, 1],
                               _row_prefix(np.ones((1, 1), dtype=bool)), eps,
                               50, 50)
        assert prefixed.tolist() == got.tolist()

    def test_queries_outside_target_box(self):
        qs = np.array([[-4.0, 0.0], [0.0, -5.5], [104.0, 53.0], [100.0, 51.0],
                       [-1e6, 3.0], [52.0, 1e9]])
        ts = np.array([[0, 0], [100, 50]])
        assert match_within(qs, ts, 5.0).tolist() == [
            True, False, True, True, False, False]

    def test_empty_inputs(self):
        none = np.zeros((0, 2))
        assert match_within(none, np.array([[1, 2]]), 5.0).shape == (0,)
        assert match_within(np.array([[1.0, 2.0]]), none, 5.0).tolist() == [False]

    @pytest.mark.parametrize("bad", [[[1.5, 2.0]], [[1.0, np.nan]],
                                     [[np.inf, 0.0]]])
    def test_non_integer_targets_raise(self, bad):
        with pytest.raises(ValueError, match="integer"):
            match_within(np.array([[1.0, 2.0]]), np.array(bad), 5.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_epsilon_must_be_finite_and_positive(self, eps):
        one = np.array([[1.0, 2.0]])
        prefix = _row_prefix(np.ones((4, 4), dtype=bool))
        with pytest.raises(ValueError, match="epsilon"):
            match_within(one, np.array([[1, 2]]), eps)
        with pytest.raises(ValueError, match="epsilon"):
            _any_within(one[:, 0], one[:, 1], prefix, eps)


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
    every query; a query with a detection in its sure runs is repeated, one
    without any in its maybe runs is not, and ``_any_within`` decides the
    rest."""
    qs = np.asarray(qs, dtype=np.float64).reshape(-1, 2)
    h, w = raster.shape
    lowest = int(min(np.floor(qs.min(initial=0.0)), 0))
    highest = int(max(np.floor(qs.max(initial=0.0)), h, w))
    pad = math.ceil(eps) + max(-lowest, highest - min(h, w)) + 1
    prefix = _row_prefix(np.pad(raster, pad))
    stride = prefix.shape[1]
    fx, fy = (np.floor(v).astype(np.int64) + pad for v in qs.T)
    anchor = fy * stride + fx
    sure_runs, maybe_runs = _disc_runs(eps, stride)
    sure = _runs_hit(anchor, prefix.ravel(), sure_runs)
    maybe = _runs_hit(anchor, prefix.ravel(), maybe_runs)
    result = sure.copy()
    rest = np.flatnonzero(maybe & ~sure)
    result[rest] = _any_within(qs[rest, 0], qs[rest, 1], prefix, eps,
                               x0=-pad, y0=-pad)
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


def check_sure_exact_maybe(qs, eps):
    """For each query, the sure cells lie within its ``_row_runs`` cells,
    and those within its maybe cells."""
    c = math.ceil(eps)
    cy, lo, hi = _row_runs(qs[:, 0], qs[:, 1], eps)
    fx, fy = np.floor(qs).astype(np.int64).T
    assert np.array_equal(cy - fy[:, None], np.tile(np.arange(-c, c + 1),
                                                    (len(qs), 1)))
    u = np.arange(-c, c + 1)
    lo, hi = lo - fx[:, None], hi - fx[:, None]
    exact = (lo[:, :, None] <= u) & (u <= hi[:, :, None])  # [q, v + c, u + c]
    # every exact cell is on the (2c + 1)^2 grid around the floor cell
    assert exact.sum(axis=2).tolist() == np.maximum(hi - lo + 1, 0).tolist()
    assert not (disc_mask(0, eps) & ~exact).any()
    assert not (exact & ~disc_mask(1, eps)).any()


class TestDiscRuns:
    @given(queries, rasters, st.sampled_from(DISC_EPSILONS))
    def test_matches_exact_kernel_and_oracle(self, qs, raster, eps):
        sure, maybe, got = disc_settle(qs, raster, eps)
        want = any_within(qs, [(x, y) for y, x in np.argwhere(raster)], eps)
        assert got.tolist() == want
        assert prefix_any_within(qs, raster, eps).tolist() == want
        assert not (sure & ~got).any() and not (got & ~maybe).any()

    @given(queries, st.sampled_from(DISC_EPSILONS))
    def test_sure_within_exact_within_maybe(self, qs, eps):
        check_sure_exact_maybe(np.array(qs, dtype=np.float64).reshape(-1, 2),
                               eps)

    @pytest.mark.parametrize("eps", DISC_EPSILONS)
    def test_near_ties(self, eps):
        qs = near_tie_queries(eps)
        raster = np.zeros((51, 51), dtype=bool)
        raster[50, 50] = True
        _, _, got = disc_settle(qs, raster, eps)
        assert got.tolist() == any_within(qs.tolist(), [(50, 50)], eps)
        check_sure_exact_maybe(qs, eps)

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

    def test_rejects_bad_epsilon_and_missing_warps(self):
        frames = [curve_frame(0, False), curve_frame(1, False)]
        detector = HarrisDetector()
        with pytest.raises(ValueError, match="epsilon"):
            repeatability_curve(frames, {}, detector, [0, 10], np.inf,
                                make_pairs(2))
        with pytest.raises(KeyError, match="no warp"):
            repeatability_curve(frames, {}, detector, [0, 10], 5.0,
                                make_pairs(2))


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
