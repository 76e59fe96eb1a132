import math

import numpy as np
import pytest

from _oracles import any_within, classify_sixteenfold
from conftest import random_image, sixteenfold_field
from cornerforge import annealing as an
from cornerforge.datasets import make_dataset, synthetic_base_image
from cornerforge.detectors import SixteenFoldDetector, TreeDetector
from cornerforge.image import GrayImage, add_gaussian_noise
from cornerforge.learn import InconsistentLabelsError
from cornerforge.repeatability import make_pairs
from cornerforge.runtime import PlaneWalk, score_positions, ternary_planes
from cornerforge.trees import (LEAF0, LEAF1, CompiledTree, Leaf, Node,
                               OffsetTable, default_offsets_48, sixteen_fold,
                               sixteen_fold_offsets, tree_size)
from cornerforge.warp import Homography, project_points


@pytest.fixture(scope="module")
def dataset():
    """48x40, 3 frames, like `make-dataset --synthetic 48x40 --frames 3`."""
    frames, warps = make_dataset(synthetic_base_image(48, 40, 1), 3,
                                 1.0, 2.0, 1)
    return frames, warps


def random_tree(seed: int, mutations: int = 6, table=None):
    rng = np.random.default_rng(seed)
    table = default_offsets_48() if table is None else table
    tree = an.random_depth1_tree(rng, table)
    for _ in range(mutations):
        tree = an.mutate(tree, rng, table)
    return tree


def box9_table(seed: int, keep=()) -> OffsetTable:
    """48 cells of the 9x9 box, those in ``keep`` among them: a table that
    is not closed under the dihedral maps."""
    cells = [(dx, dy) for dy in range(-4, 5) for dx in range(-4, 5)
             if (dx, dy) != (0, 0) and (dx, dy) not in keep]
    pick = np.random.default_rng(seed).permutation(len(cells))[:48 - len(keep)]
    return OffsetTable("box9-48", tuple(keep) + tuple(cells[k] for k in pick), 0)


def conjunction_tree(seed: int, k: int):
    """Corner iff k random offsets each have one required state (brighter
    or darker): a selective detector, unlike most small random trees."""
    rng = np.random.default_rng(seed)
    tree = Leaf(1)
    for _ in range(k):
        offset, bright = int(rng.integers(0, 48)), bool(rng.integers(0, 2))
        tree = Node(offset, b=tree if bright else LEAF0, s=LEAF0,
                    d=LEAF0 if bright else tree)
    return tree


# Trees whose all-similar chain from the root ends in class 1: they fire on
# every flat column, one with all states similar.
FLAT_FIRING = [LEAF1, Node(17, b=LEAF0, s=LEAF1, d=LEAF0)]

TREES = [conjunction_tree(seed, 2 + seed % 3) for seed in range(4)] + [
    random_tree(0), random_tree(1)] + FLAT_FIRING


def busy_columns(ev) -> np.ndarray:
    """Per plane column of the evaluator, whether some state is not similar:
    the columns that ``inverse`` maps to a distinct column other than the
    last, which is the flat columns' all-1s column in each rotation."""
    rows = ev.views.shape[1] // 4
    assert (ev.views.reshape(len(ev.offsets), 4, rows)[:, :, -1] == 1).all()
    return ev.inverse != rows - 1


def oracle_repeatability(frames, warps, fields, pairs, eps) -> tuple[int, int]:
    """Useful/repeated totals: project every detected pixel, then compare it
    with every detection of the other frame in plain Python."""
    useful = repeated = 0
    for i, j in pairs:
        wi, wj = frames[i].width, frames[j].width
        src = np.flatnonzero(fields[i])
        proj, valid = project_points(
            warps[(i, j)], np.column_stack([src % wi, src // wi]))
        targets = [(int(p % wj), int(p // wj)) for p in np.flatnonzero(fields[j])]
        queries = proj[valid].tolist()
        useful += len(queries)
        repeated += sum(any_within(queries, targets, eps))
    return useful, repeated


def padded(frames, rasters, margin: int = 3) -> list[np.ndarray]:
    """Full-frame corner fields from the evaluator's interior rasters: each
    raster padded back by the margin, with False on the border."""
    fields = []
    for frame, raster in zip(frames, rasters):
        h, w = frame.height, frame.width
        assert raster.shape == (max(h - 2 * margin, 0), max(w - 2 * margin, 0))
        field = np.zeros((h, w), dtype=bool)
        field[margin : h - margin, margin : w - margin] = raster
        fields.append(field)
    return fields


def check_evaluator(frames, warps, weights, table, tree) -> tuple[int, int]:
    """``detect_fields`` against the pixel-by-pixel sixteen-fold oracle and
    ``evaluate`` against ``oracle_repeatability``, on every ``make_pairs``
    pair; returns the oracle's useful and repeated totals."""
    pairs = make_pairs(len(frames))
    ev = an.CostEvaluator(frames, warps, weights, table)
    m = table.margin
    fields = padded(frames, ev.detect_fields(tree), m)
    for frame, field in zip(frames, fields):
        want = np.zeros((frame.height, frame.width), dtype=bool)
        for y in range(m, frame.height - m):
            for x in range(m, frame.width - m):
                want[y, x] = classify_sixteenfold(tree, frame, (x, y), weights.t,
                                                  table)
        assert np.array_equal(field, want)
    useful, repeated = oracle_repeatability(frames, warps, fields, pairs,
                                            weights.epsilon)
    cost, r, d_counts = ev.evaluate(tree)
    assert d_counts == [int(f.sum()) for f in fields]
    assert r == (repeated / useful if useful else 0.0)
    assert cost == an.cost_from_parts(r, d_counts, tree_size(tree), weights)
    return useful, repeated


def shift(dx: float, dy: float, target: GrayImage) -> Homography:
    return Homography(np.array([[1, 0, dx], [0, 1, dy], [0, 0, 1]]),
                      (target.width, target.height))


class TestCostWeights:
    @pytest.mark.parametrize("kwargs", [{"t": 2.5}, {"t": 35.0},
                                        {"i_max": 10.5}, {"i_max": 10.0}])
    def test_t_and_i_max_must_be_integers(self, kwargs):
        with pytest.raises(ValueError, match="integer"):
            an.CostWeights(**kwargs)

    @pytest.mark.parametrize("t", [0, 256])
    def test_t_is_a_threshold_in_1_to_255(self, t):
        with pytest.raises(ValueError, match="1..255"):
            an.CostWeights(t=t)

    def test_numpy_integers_accepted(self):
        weights = an.CostWeights(t=np.int64(20), i_max=np.int32(4))
        assert weights.t == 20 and weights.i_max == 4

    @pytest.mark.parametrize("name", ["w_r", "w_n", "w_s", "alpha", "beta"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_weights_are_finite_and_positive(self, name, value):
        # an infinite alpha or beta would make the temperature NaN
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            an.CostWeights(**{name: value})


class TestCostEvaluator:
    @pytest.mark.parametrize("tree", TREES)
    # 12 is large next to the 48x40 frames: windows cross every frame edge
    @pytest.mark.parametrize("eps", [0.5, 1.5, 2.3, 5.0, 12.0])
    def test_counts_match_oracle(self, dataset, tree, eps):
        frames, warps = dataset
        weights = an.CostWeights(epsilon=eps)
        pairs = make_pairs(len(frames))
        ev = an.CostEvaluator(frames, warps, weights, default_offsets_48())
        fields = padded(frames, ev.detect_fields(tree))
        useful, repeated = oracle_repeatability(frames, warps, fields, pairs, eps)
        cost, r, d_counts = ev.evaluate(tree)
        assert d_counts == [int(f.sum()) for f in fields]
        assert r == (repeated / useful if useful else 0.0)
        assert cost == an.cost_from_parts(r, d_counts, tree_size(tree), weights)

    def test_table_not_closed_under_dihedral_maps(self, dataset):
        # the evaluator's planes cover the 8 dihedral images of the table's
        # offsets, which the table itself does not hold
        table = box9_table(5)
        assert {(-dx, dy) for dx, dy in table.offsets} != set(table.offsets)
        frames, warps = dataset
        rng = np.random.default_rng(6)
        tree = conjunction_tree(0, 3)
        for _ in range(2):
            tree = an.mutate(tree, rng, table)
        useful, repeated = check_evaluator(frames, warps, an.CostWeights(t=20),
                                           table, tree)
        assert 0 < repeated < useful
        # some columns are flat at the table's own offsets but not at their
        # dihedral images; they must keep distinct columns of their own
        offsets = sixteen_fold_offsets(table)
        planes = ternary_planes(frames, offsets, 20, table.margin)
        own = [offsets.index(xy) for xy in table.offsets]
        ev = an.CostEvaluator(frames, warps, an.CostWeights(t=20), table)
        assert ((planes[own] == 1).all(axis=0) & busy_columns(ev)).any()
        # fires where any variant sees an edge at one of eight offsets: on
        # such columns only through an offset outside the table
        edge = LEAF0
        for k in range(8):
            edge = Node(table.index_base + k, b=LEAF1, s=edge, d=LEAF1)
        for tree in (edge, Node(table.index_base + 7, b=LEAF0, s=LEAF1,
                                d=LEAF0)):
            check_evaluator(frames, warps, an.CostWeights(t=20), table, tree)

    @pytest.mark.parametrize("tree", FLAT_FIRING)
    def test_flat_columns_fire_by_the_similar_chain(self, dataset, tree):
        frames, warps = dataset
        ev = an.CostEvaluator(frames, warps, an.CostWeights(),
                              default_offsets_48())
        busy = busy_columns(ev)
        assert 0 < busy.sum() < busy.size
        useful, repeated = check_evaluator(frames, warps, an.CostWeights(),
                                           default_offsets_48(), tree)
        assert 0 < repeated <= useful

    @pytest.mark.parametrize("tree", [TREES[0], TREES[4], LEAF0, *FLAT_FIRING,
                                      random_tree(3, 30)])
    def test_constant_frames_have_no_busy_column(self, dataset, tree):
        # every state is similar, so every column is the one all-1s column,
        # walked under the four rotations: the all-similar chain decides
        sizes = [(f.height, f.width) for f in dataset[0]]
        frames = [GrayImage(np.full(hw, v, dtype=np.uint8))
                  for hw, v in zip(sizes, (0, 90, 255))]
        warps = dataset[1]
        ev = an.CostEvaluator(frames, warps, an.CostWeights(),
                              default_offsets_48())
        assert ev.inverse.size and not busy_columns(ev).any()
        assert ev.views.shape == (48, 4)
        useful, repeated = check_evaluator(frames, warps, an.CostWeights(),
                                           default_offsets_48(), tree)
        fires = tree in FLAT_FIRING
        assert useful > 0 if fires else useful == repeated == 0

    @pytest.mark.parametrize("tree", [TREES[0], TREES[5]])
    def test_frames_of_two_sizes(self, dataset, tree):
        # a 36x30 window of a 48x40 frame, with fresh noise: the rasters
        # differ in shape, and the warps are the window's shifts
        big = dataset[0][0]
        small = add_gaussian_noise(GrayImage(big.pixels[4:34, 5:41]), 2.0, 3)
        frames = [big, small]
        warps = {(0, 1): shift(-5, -4, small), (1, 0): shift(5, 4, big)}
        useful, repeated = check_evaluator(frames, warps, an.CostWeights(),
                                           default_offsets_48(), tree)
        assert 0 < repeated < useful

    @pytest.mark.parametrize("size", [(6, 20), (20, 5), (6, 6)])
    def test_frame_without_interior(self, dataset, size):
        # the second frame is at most 2 * margin on a side: its raster is
        # empty, and it neither detects nor repeats anything
        big = dataset[0][0]
        w, h = size
        small = GrayImage(big.pixels[10 : 10 + h, 10 : 10 + w])
        frames = [big, small]
        warps = {(0, 1): shift(-10, -10, small), (1, 0): shift(10, 10, big)}
        useful, repeated = check_evaluator(frames, warps, an.CostWeights(t=20),
                                           default_offsets_48(), TREES[4])
        assert useful > 0 and repeated == 0

    @pytest.mark.parametrize("eps", [0.5, 1.5])
    def test_detector_firing_everywhere(self, dataset, eps):
        # every pixel is a source, the first one included; those projecting
        # onto another frame's border band find no detection
        frames, warps = dataset
        useful, repeated = check_evaluator(frames, warps,
                                           an.CostWeights(epsilon=eps),
                                           default_offsets_48(), Leaf(1))
        assert 0 < repeated < useful

    def test_reused_counts_equal_a_fresh_evaluation(self, dataset, monkeypatch):
        # a seeded mutation chain, committed as anneal commits: every result
        # equals that of an evaluator with nothing committed. Padding and
        # matching run iff _row_prefix is called.
        frames, warps = dataset
        weights = an.CostWeights()
        table = default_offsets_48()
        ev = an.CostEvaluator(frames, warps, weights, table)
        prefix_calls = []
        row_prefix = an._row_prefix
        monkeypatch.setattr(an, "_row_prefix",
                            lambda a: prefix_calls.append(1) or row_prefix(a))
        rng = np.random.default_rng(8)
        tree = an.random_depth1_tree(rng, table)
        k_cur = ev.evaluate(tree)[0]
        ev.commit()
        matched = []
        for _ in range(60):
            candidate = an.mutate(tree, rng, table)
            before = len(prefix_calls)
            got = ev.evaluate(candidate)
            matched.append(len(prefix_calls) > before)
            assert got == an.CostEvaluator(frames, warps, weights,
                                           table).evaluate(candidate)
            if got[0] <= k_cur or rng.random() < 0.5:
                ev.commit()
                tree, k_cur = candidate, got[0]
        assert any(matched) and not all(matched)

    def test_warp_must_map_into_its_target_frame(self, dataset):
        frames, warps = dataset
        bad = dict(warps)
        bad[(0, 1)] = Homography(warps[(0, 1)].matrix, (64, 40))
        with pytest.raises(ValueError, match="frame 1"):
            an.CostEvaluator(frames, bad, an.CostWeights(),
                             default_offsets_48())

    def test_oracle_sees_partial_matches(self, dataset):
        # The trees above are not all trivial: some have both useful
        # features that repeat and useful features that do not.
        frames, warps = dataset
        pairs = make_pairs(len(frames))
        ev = an.CostEvaluator(frames, warps, an.CostWeights(),
                              default_offsets_48())
        fields = padded(frames, ev.detect_fields(TREES[0]))
        useful, repeated = oracle_repeatability(frames, warps, fields, pairs, 5.0)
        assert 0 < repeated < useful


BOX9 = box9_table(5)
FIELD_CASES = [(default_offsets_48(), tree) for tree in (
    random_tree(0, 30), random_tree(1, 30), random_tree(2, 30), TREES[0],
    LEAF1)] + [(BOX9, random_tree(11, 20, BOX9))]


class TestDistinctColumns:
    """``detect_fields`` and ``distill`` walk the distinct state columns,
    under four rotations, with four of the sixteen variants."""

    @pytest.mark.parametrize("rows", [1, 5, 24, 25, 48, 61])
    @pytest.mark.parametrize("seed", range(3))
    def test_groups_equal_np_unique(self, rows, seed):
        # few distinct columns, so groups are large; a row order and a
        # column subset, as the evaluator and distill pass them
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 3, (rows, 7), dtype=np.uint8)
        planes = base[:, rng.integers(0, 7, 300)]
        cols = np.flatnonzero(rng.random(300) < 0.7)
        order = rng.permutation(rows)
        first, inverse = an._distinct_columns(planes, cols, order)
        sub = planes[order][:, cols]
        want, want_inverse = np.unique(sub, axis=1, return_inverse=True)
        assert np.array_equal(sub[:, first], want)
        assert np.array_equal(inverse, want_inverse.ravel())
        first, inverse = an._distinct_columns(planes)
        want, want_inverse = np.unique(planes, axis=1, return_inverse=True)
        assert np.array_equal(planes[:, first], want)
        assert np.array_equal(inverse, want_inverse.ravel())

    def test_no_columns(self):
        first, inverse = an._distinct_columns(np.ones((48, 0), dtype=np.uint8))
        assert first.size == inverse.size == 0

    @pytest.mark.parametrize("t", [1, 35])
    @pytest.mark.parametrize("table, tree", FIELD_CASES, ids=[
        "mutated0", "mutated1", "mutated2", "conjunction", "leaf1", "box9"])
    def test_fields_equal_the_sixteen_fold_walk(self, dataset, t, table, tree):
        frames, warps = dataset
        ev = an.CostEvaluator(frames, warps, an.CostWeights(t=t), table)
        got = np.concatenate([f.ravel() for f in ev.detect_fields(tree)])
        planes = ternary_planes(frames, ev.offsets, t, table.margin)
        walk = PlaneWalk(sixteen_fold(CompiledTree(tree, table)), ev.offsets)
        assert np.array_equal(got, walk.fired(planes))
        rows = ev.views.shape[1] // 4
        assert ev.views.shape == (len(ev.offsets), 4 * rows)
        assert ev.inverse.shape == got.shape and ev.inverse.dtype == np.int32
        busy = busy_columns(ev)
        # every distinct busy column stands for at least one busy column
        assert np.array_equal(np.unique(ev.inverse[busy]), np.arange(rows - 1))
        assert rows - 1 < busy.sum() if t == 35 else rows - 1 <= busy.sum()

    def test_distill_merges_rows_with_equal_table_states(self, dataset,
                                                         monkeypatch):
        # the table holds the four images of (1, 0), so labels depend on
        # its states alone, but distinct columns also differ at the
        # 8-fold images of its other offsets: the training set holds each
        # state vector once, weighted by its columns
        table = box9_table(7, keep=[(1, 0), (0, 1), (-1, 0), (0, -1)])
        frames = dataset[0]
        offsets = sixteen_fold_offsets(table)
        assert len(offsets) > len(table)
        sets = []
        build_tree = an.build_tree
        monkeypatch.setattr(an, "build_tree",
                            lambda ts: sets.append(ts) or build_tree(ts))
        edge = Node(table.index_base, b=LEAF1, s=LEAF0, d=LEAF0)
        single = TreeDetector(an.distill(edge, frames, 20, table), table)
        wide = SixteenFoldDetector(edge, table)
        planes = ternary_planes(frames, offsets, 20, table.margin)
        own = planes.take([offsets.index(xy) for xy in table.offsets], axis=0)
        states, counts = np.unique(own, axis=1, return_counts=True)
        assert len(states.T) < len(np.unique(planes, axis=1).T)
        (ts,) = sets
        assert np.array_equal(ts.states, states.T)
        assert np.array_equal(ts.weights, counts)
        for img in frames:
            want = wide.walk.detect(img, 20, table.margin)
            assert len(want) and np.array_equal(
                single.walk.detect(img, 20, table.margin), want)

    def test_distill_refuses_labels_outside_the_table(self, dataset):
        # a test of an offset whose dihedral images the table lacks: equal
        # table states carry both labels
        table = box9_table(7)
        far = next(k for k, (dx, dy) in enumerate(table.offsets)
                   if (dy, dx) not in table.offsets)
        tree = Node(table.index_base + far, b=LEAF1, s=LEAF0, d=LEAF0)
        with pytest.raises(InconsistentLabelsError):
            an.distill(tree, dataset[0], 20, table)


class TestAnneal:
    def test_deterministic_per_seed(self, dataset):
        frames, warps = dataset
        weights = an.CostWeights(i_max=8)
        a = an.anneal(frames, warps, weights, seed=3)
        b = an.anneal(frames, warps, weights, seed=3)
        assert np.array_equal(a.trace, b.trace)
        assert a.best_tree == b.best_tree and a.best_cost == b.best_cost

    def test_trace_rows_and_running_minimum(self, dataset):
        frames, warps = dataset
        weights = an.CostWeights(i_max=8)
        res = an.anneal(frames, warps, weights, seed=4)
        trace = res.trace
        assert trace.shape == (weights.i_max + 1, 4)
        assert trace[:, 0].tolist() == list(range(weights.i_max + 1))
        assert np.array_equal(trace[:, 2], np.minimum.accumulate(trace[:, 1]))
        assert res.best_cost == trace[-1, 2]
        ev = an.CostEvaluator(frames, warps, weights, default_offsets_48())
        assert ev.evaluate(res.best_tree)[0] == res.best_cost

    def test_a_temperature_of_0_rejects_every_worse_candidate(self, dataset):
        # alpha * I / I_max reaches 2e5: the temperature underflows to 0 after
        # the first iterations, and from there the cost never rises
        frames, warps = dataset
        res = an.anneal(frames, warps, an.CostWeights(i_max=20, alpha=1e5),
                        seed=3)
        trace = res.trace
        cold = trace[:, 3] == 0
        assert cold[-1] and not cold[0]
        steps = np.flatnonzero(cold[1:]) + 1
        assert (trace[steps, 1] <= trace[steps - 1, 1]).all()

    def test_multi_run_same_for_any_jobs(self, dataset):
        frames, warps = dataset
        weights = an.CostWeights(i_max=4)
        runs = [an.multi_run(frames, warps, weights, [5, 6], jobs=jobs)
                for jobs in (1, 2)]
        (best1, all1), (best2, all2) = runs
        assert best1.seed == best2.seed and best1.best_tree == best2.best_tree
        assert [r.seed for r in all1] == [r.seed for r in all2] == [5, 6]
        for r1, r2 in zip(all1, all2):
            assert np.array_equal(r1.trace, r2.trace)

    def test_multi_run_needs_a_seed(self, dataset):
        frames, warps = dataset
        with pytest.raises(ValueError):
            an.multi_run(frames, warps, an.CostWeights(i_max=2), [])

    @pytest.mark.parametrize("jobs, runs, workers",
                             [(32, 3, 3), (2, 3, 2), (3, 3, 3)])
    def test_multi_run_starts_at_most_one_worker_per_run(
            self, dataset, monkeypatch, jobs, runs, workers):
        # an executor that runs each job inline when submitted: no process
        # starts, and the pool size multi_run asks for is recorded
        import concurrent.futures

        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlineExecutor)
        frames, warps = dataset
        weights = an.CostWeights(i_max=2)
        results = an.multi_run(frames, warps, weights, range(runs), jobs=jobs)[1]
        assert sizes == [workers]
        serial = an.multi_run(frames, warps, weights, range(runs), jobs=1)[1]
        assert sizes == [workers]  # one job runs in this process
        for got, want in zip(results, serial, strict=True):
            assert np.array_equal(got.trace, want.trace)


TRANSFORMS = {
    "transpose": (lambda a: a.T, lambda f: f.T),
    "flip-x": (lambda a: a[:, ::-1], lambda f: f[:, ::-1]),
    "flip-y": (lambda a: a[::-1], lambda f: f[::-1]),
    "invert": (lambda a: 255 - a, lambda f: f),
}


def score_field(tree, img: GrayImage, t: int) -> np.ndarray:
    """Pre-suppression sixteen-fold scores, 0 where nothing fires at t."""
    ys, xs = np.nonzero(sixteenfold_field(tree, img, t))
    det = SixteenFoldDetector(tree, default_offsets_48())
    field = np.zeros((img.height, img.width), dtype=np.int32)
    field[ys, xs] = score_positions(det.walk, img, xs, ys, t)
    return field


class TestSixteenfoldSymmetry:
    @staticmethod
    def check(field_of, img, name):
        on_image, on_field = TRANSFORMS[name]
        moved = GrayImage(np.ascontiguousarray(on_image(img.pixels)))
        assert np.array_equal(field_of(moved), on_field(field_of(img)))

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    @pytest.mark.parametrize("seed", range(3))
    def test_transformed_image_gives_transformed_field(self, name, seed):
        rng = np.random.default_rng(seed)
        img = random_image(rng) if seed else synthetic_base_image(48, 40, 2)
        tree = conjunction_tree(seed + 10, 3)
        field = sixteenfold_field(tree, img, 35)
        assert 0 < field.sum() < field.size // 3
        self.check(lambda im: sixteenfold_field(tree, im, 35), img, name)

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    @pytest.mark.parametrize("seed", range(3))
    def test_transformed_image_gives_transformed_scores(self, name, seed):
        rng = np.random.default_rng(seed)
        img = random_image(rng) if seed else synthetic_base_image(48, 40, 2)
        tree = random_tree(seed + 20)
        scores = score_field(tree, img, 5)
        assert len(np.unique(scores)) > 10
        self.check(lambda im: score_field(tree, im, 5), img, name)
