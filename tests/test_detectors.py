"""The detector interface and the comparison baselines: keypoint rows,
count control as a prefix of one ranking, agreement of the three FAST-9
detectors, and the Harris and random baselines."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import gradients, nms_oracle, smooth_separable, structure_tensor
from cornerforge import baselines
from cornerforge.annealing import distill, mutate, random_depth1_tree
from cornerforge.baselines import (HARRIS_K, StructureTensor, gaussian_kernel,
                                   harris_response, kernel_radius,
                                   response_grid, shi_tomasi_response)
from cornerforge.datasets import synthetic_base_image
from cornerforge.detectors import (FastRefDetector, HarrisDetector,
                                   RandomDetector, ShiTomasiDetector,
                                   SixteenFoldDetector, TreeDetector)
from cornerforge.image import RING_MARGIN, GrayImage, add_gaussian_noise
from cornerforge.runtime import (keypoint_rows, needs_field, ranked_rows,
                                 top_n_by_score)
from cornerforge.segment import segment_score_field
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


def fixed_response(field):
    """A response that ignores the tensor and gives the next rows of
    ``field``, one block of ``response_grid`` after another, starting over
    after its last row."""
    at = [0]

    def response(tensor):
        h = len(tensor.axx)
        assert tensor.axx.shape == (h, field.shape[1])
        rows = field[at[0] : at[0] + h]
        at[0] = (at[0] + h) % len(field)
        return rows

    return response


def grid_and_tensor(img, sigma, response=harris_response):
    """``response_grid``'s grid and the (3, h, w) tensor (axx, axy, ayy)
    that it passed to ``response``, block by block."""
    blocks = []

    def record(tensor):
        blocks.append(np.stack([tensor.axx, tensor.axy, tensor.ayy]))
        return response(tensor)

    grid = response_grid(img, sigma, record)
    return grid, np.concatenate(blocks, axis=1)


def noise_image(h, w, seed, levels=256):
    """Uniform noise of ``levels`` grey levels spread over 0..255: two
    levels make flat runs, where gradients and their products are +-0."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, levels, (h, w)) * (255 // (levels - 1))
    return GrayImage(a.astype(np.uint8))


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


class TestArguments:
    """Detectors check their arguments when they are built, not at the
    first detection."""

    BAD_THRESHOLDS = (0, -5, 1.5, 256)

    def test_fast_ref_rejects_a_bad_threshold(self):
        for t_min in self.BAD_THRESHOLDS:
            with pytest.raises(ValueError, match="threshold"):
                FastRefDetector(t_min=t_min)

    def test_fast_ref_rejects_a_bad_arc(self):
        for n in (8, 17):
            with pytest.raises(ValueError, match="arc length"):
                FastRefDetector(n=n)

    def test_tree_detectors_reject_a_bad_threshold(self, fast9_tree,
                                                   fast9_grid48):
        wide, grid = fast9_grid48
        for t_min in self.BAD_THRESHOLDS:
            with pytest.raises(ValueError, match="threshold"):
                TreeDetector(fast9_tree, RING16, t_min=t_min)
            with pytest.raises(ValueError, match="threshold"):
                SixteenFoldDetector(wide, grid, t_min=t_min)

    def test_range_ends_are_accepted(self, fast9_tree):
        for n, t_min in ((9, 1), (16, 255)):
            assert FastRefDetector(n=n, t_min=t_min).t_min == t_min
        assert TreeDetector(fast9_tree, RING16, t_min=255).t_min == 255


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
                got = det.detect(frame, n, frame_key=2)
                # a detection owns its rows: it does not pin the ranking
                assert got.flags.owndata, (det.name, n)
                assert np.array_equal(
                    got, top_n_by_score(every, n, det.split_ties)), (det.name, n)

    def test_no_features(self, frame, scored_detectors):
        for det in scored_detectors + [RandomDetector()]:
            assert det.detect(frame, 0).shape == (0, 3)

    @pytest.mark.parametrize("shape", [(0, 0), (5, 5), (6, 40), (40, 6),
                                       (20, 24)])
    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float64])
    def test_rows_are_new_float64_arrays(self, shape, dtype):
        # ranking and row building return C-contiguous float64 arrays
        # that own their data, (0, 3) when nothing survives: a grid with no
        # cell RING_MARGIN from every edge, or a constant one, keeps none
        grid = np.random.default_rng(5).integers(0, 4, shape).astype(dtype)
        kept = ranked_rows(grid)
        flat = ranked_rows(np.ones(shape, dtype))
        built = keypoint_rows(np.arange(3), np.arange(3) + 1, np.arange(3.0))
        empty = keypoint_rows([], [], 1)
        for rows in (kept, flat, built, empty):
            assert rows.dtype == np.float64 and rows.ndim == 2
            assert rows.shape[1] == 3
            assert rows.flags.c_contiguous and rows.flags.owndata
        assert (len(kept) > 0) == (shape == (20, 24))
        assert flat.shape == empty.shape == (0, 3)
        assert built.tolist() == [[0, 1, 0], [1, 2, 1], [2, 3, 2]]


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
        # ten cells of one score, two apart, all kept by suppression
        tied = np.zeros((11, 26))
        tied[5, 3:23:2] = 2.5
        for base, want in ((HarrisDetector, 4), (FastRefDetector, 0)):
            det = type("Tied", (base,), {"score_grid": lambda s, img: tied})()
            assert len(det.all_keypoints(frame)) == 10
            assert len(det.detect(frame, 4)) == want, base.__name__

    def test_fast_cut_keeps_tie_classes_whole(self, frame, scored_detectors):
        scores = scored_detectors[0].all_keypoints(frame)[:, 2]
        for n in range(1, len(scores)):
            top = scored_detectors[0].detect(frame, n)
            k = len(top)
            assert k in (0, len(scores)) or scores[k - 1] != scores[k]


class TestScoreGrid:
    @given(seed=st.integers(0, 2**32 - 1),
           size=st.tuples(st.integers(9, 16), st.integers(9, 16)),
           contrast=st.sampled_from([3, 40, 256]),
           corner=st.tuples(st.integers(0, 15), st.integers(0, 15)),
           step=st.integers(0, 255))
    def test_rows_are_the_interior_maxima_of_the_grid(
            self, scored_detectors, seed, size, contrast, corner, step):
        # every scored detector's rows are the oracle's 3x3 suppression of
        # the positive cells of its score grid, less the border survivors,
        # ranked by (-score, y, x); noise over a brighter quadrant, whose
        # edges Harris scores below 0
        w, h = size
        x0, y0 = corner
        a = np.random.default_rng(seed).integers(0, contrast, (h, w))
        a[y0:, x0:] += step
        img = GrayImage(np.minimum(a, 255).astype(np.uint8))
        m = RING_MARGIN
        for det in scored_detectors:
            grid = det.score_grid(img)
            assert grid.shape == (h, w) and (grid >= 0).all(), det.name
            ys, xs = np.nonzero(grid > 0)
            cells = zip(xs.tolist(), ys.tolist(), grid[ys, xs].tolist())
            assert grid.dtype == (np.float64 if isinstance(det, HarrisDetector)
                                  else np.int16), det.name
            want = ranked_oracle(np.array(
                [(x, y, s) for x, y, s in nms_oracle(cells)
                 if m <= x < w - m and m <= y < h - m]).reshape(-1, 3))
            got = det.all_keypoints(img)
            assert got.dtype == np.float64, det.name
            assert [tuple(r) for r in got.tolist()] == want, det.name

    @pytest.mark.parametrize("t", [1, 2, 35, 255])
    def test_fast_grids_are_their_field_cut_at_t(self, t, frame, fast9_tree,
                                                 fast9_grid48):
        # the segment test and the covered FAST-9 trees, on noise and on a
        # black-and-white image whose corners score 255: the int16 field
        # with every cell below t set to 0
        binary = GrayImage((np.random.default_rng(4).integers(0, 2, (40, 48))
                            * 255).astype(np.uint8))
        for img in (frame, binary):
            for det in (FastRefDetector(9, t), TreeDetector(fast9_tree, RING16, t),
                        SixteenFoldDetector(*fast9_grid48, t_min=t)):
                if isinstance(det, TreeDetector):
                    assert det.walk.covered.all()
                    field = needs_field(img, det.walk.offsets, det.walk.pairs,
                                        det.table.margin)
                else:
                    field = segment_score_field(img, 9)
                grid = det.score_grid(img)
                assert field.dtype == grid.dtype == np.int16, det.name
                assert np.array_equal(grid, np.where(field >= t, field, 0)), det.name
            assert (field == 255).any() == (img is binary)

    @pytest.mark.parametrize("t", [1, 2, 35, 255])
    @pytest.mark.parametrize("which", [0, 1], ids=["annealed", "distilled"])
    def test_walked_grids_are_their_field_cut_where_they_fire(
            self, t, which, frame, annealed_trees):
        # a walked tree's untruncated field is ``needs_field`` over its
        # scoring paths, the exact score wherever it fires; the grid is that
        # field cut at t on the cells the walk fires at t, in int16. The cut
        # also needs the walk: a learned tree is not monotone in t, so a cell
        # whose only path with hi >= t has lo >= t has field >= t and does
        # not fire
        cls, tree, table = annealed_trees[which]
        det = cls(tree, table, t_min=t)
        assert not det.walk.covered.all()
        field = needs_field(frame, det.walk.offsets, det.walk.paths,
                            table.margin)
        fired = np.zeros(frame.shape, dtype=bool)
        xs, ys = det.walk.detect(frame, t, table.margin).T
        fired[ys, xs] = True
        grid = det.score_grid(frame)
        assert grid.dtype == field.dtype == np.int16
        assert np.array_equal(grid, np.where(fired & (field >= t), field, 0))
        assert (field[fired] >= t).all() and fired.any() == (t < 255)

    @given(field=arrays(np.float64, st.tuples(st.integers(1, 40),
                                              st.integers(1, 14)),
                        elements=st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0,
                                                  2.0, 3.5, np.nan])))
    def test_response_grid_keeps_the_positive_cells(self, field):
        # non-positive and NaN responses are 0 in the grid, which no
        # positive cell loses to; 40 rows cross the blocks of the grid
        det = type("Fixed", (HarrisDetector,),
                   {"response": staticmethod(fixed_response(field))})(0.3)
        img = GrayImage(np.zeros(field.shape, dtype=np.uint8))
        if field.shape == (1, 1):  # no sigma smooths within a 1x1 image
            with pytest.raises(ValueError, match="radius of 1"):
                det.score_grid(img)
            return
        grid = det.score_grid(img)
        assert grid.dtype == np.float64
        assert np.array_equal(grid.view(np.int64),
                              np.where(field > 0, field, 0.0).view(np.int64))
        h, w = field.shape
        m = RING_MARGIN
        ys, xs = np.nonzero(field > 0)
        want = ranked_oracle(np.array(
            [(x, y, s) for x, y, s in nms_oracle(zip(
                xs.tolist(), ys.tolist(), field[ys, xs].tolist()))
             if m <= x < w - m and m <= y < h - m]).reshape(-1, 3))
        assert [tuple(r) for r in det.all_keypoints(img).tolist()] == want


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
        field = harris_response(StructureTensor(
            *structure_tensor(frame, gaussian_kernel(1.5))))
        got = det.all_keypoints(frame)
        h, w = field.shape
        cells = [(x, y, float(field[y, x])) for y in range(h) for x in range(w)]
        want = ranked_oracle(np.array(
            [(x, y, s) for x, y, s in nms_oracle(cells)
             if s > 0 and 3 <= x < w - 3 and 3 <= y < h - 3]))
        assert len(want) > 10
        assert [tuple(r) for r in got.tolist()] == want

    @given(shape=st.tuples(st.integers(1, 130), st.integers(1, 130)),
           seed=st.integers(0, 2**32 - 1), levels=st.sampled_from([2, 256]),
           sigma=st.sampled_from([0.3, 1.0, 2.5, 5.0]),
           rows=st.sampled_from([1, 5, baselines._GRID_BLOCK_ROWS, 64]))
    @example(shape=(1, 130), seed=0, levels=256, sigma=5.0, rows=16)
    @example(shape=(130, 1), seed=0, levels=256, sigma=5.0, rows=16)
    def test_grid_equals_whole_field_oracle_bit_for_bit(self, shape, seed,
                                                        levels, sigma, rows):
        # blocks of rows and the rolling window must not change a pixel's
        # taps, their order or their roundings, for either response
        h, w = shape
        img = noise_image(h, w, seed, levels)
        kernel = gaussian_kernel(sigma)
        with mock.patch.object(baselines, "_GRID_BLOCK_ROWS", rows):
            if kernel_radius(sigma) >= max(w, h):
                with pytest.raises(ValueError, match="radius"):
                    response_grid(img, sigma, harris_response)
                return
            tensor = StructureTensor(*structure_tensor(img, kernel))
            for response in (harris_response, shi_tomasi_response):
                want = response(tensor)
                want = np.where(want > 0, want, 0.0)
                got = response_grid(img, sigma, response)
                assert got.dtype == np.float64 and got.shape == (h, w)
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), response.__name__

    @given(shape=st.tuples(st.sampled_from([1, 15, 16, 17, 31, 32, 33, 129]),
                           st.integers(1, 40)),
           seed=st.integers(0, 2**32 - 1), levels=st.sampled_from([2, 256]),
           sigma=st.sampled_from([0.3, 1.0, 2.5, 5.0]))
    @example(shape=(200, 2), seed=0, levels=256, sigma=5.0)
    @example(shape=(20, 30), seed=-1, levels=256, sigma=1.0)
    def test_smoothing_equals_whole_field_passes_bit_for_bit(self, shape,
                                                             seed, levels,
                                                             sigma):
        # every entry of the tensor that the grid's response reads equals
        # whole-field smoothing of the whole-field products; seed -1 is a
        # ramp falling along x, where every gx * gy is -0.0 and axy must be
        # +0.0, as sums that start from +0.0 give
        h, w = shape
        if seed < 0:
            img = GrayImage(np.tile(np.arange(w)[::-1] * 8, (h, 1)).astype(np.uint8))
        else:
            img = noise_image(h, w, seed, levels)
        if kernel_radius(sigma) >= max(w, h):
            return
        kernel = gaussian_kernel(sigma)
        _, got = grid_and_tensor(img, sigma)
        gx, gy = gradients(img.pixels)
        for got_p, product in zip(got, (gx * gx, gx * gy, gy * gy)):
            assert np.array_equal(got_p.view(np.int64),
                                  smooth_separable(product, kernel).view(np.int64))

    @pytest.mark.parametrize("w, h", [(70, 129), (40, 65), (9, 64)])
    def test_structure_tensor_equals_oracle_across_row_blocks(self, w, h):
        img = GrayImage(np.random.default_rng(w + h).integers(
            0, 256, (h, w), dtype=np.uint8))
        k = gaussian_kernel(2.5)
        for response in (harris_response, shi_tomasi_response):
            grid, tensor = grid_and_tensor(img, 2.5, response)
            want = np.stack(structure_tensor(img, k))
            assert np.array_equal(tensor.view(np.int64), want.view(np.int64))
            field = response(StructureTensor(*want))
            assert np.array_equal(grid.view(np.int64),
                                  np.where(field > 0, field, 0.0).view(np.int64))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf"),
                                       1e308])
    def test_kernel_rejects_sigma_without_finite_radius(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_kernel(sigma)

    def test_structure_tensor_rejects_radius_beyond_the_image(self):
        img = synthetic_base_image(48, 40, 5)
        response_grid(img, 15.6, harris_response)  # radius 47, below 48
        with pytest.raises(ValueError, match="radius of 48"):
            response_grid(img, 16.0, harris_response)
        with pytest.raises(ValueError, match="radius of 60"):
            response_grid(img, 20.0, harris_response)
        # the check comes before any buffer: at radius 300,000 the window
        # alone would take 11 GB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="radius of 300000"):
                response_grid(img, 1e5, harris_response)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("det", [HarrisDetector(), ShiTomasiDetector()],
                             ids=["harris", "shi-tomasi"])
    def test_score_grid_peaks_below_three_frames(self, det):
        # the grid is one float64 frame; the blocks' buffers and the
        # responses' temporaries must stay within two more
        img = noise_image(480, 640, 1)
        tracemalloc.start()
        try:
            det.score_grid(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 640 * 480 * 8
