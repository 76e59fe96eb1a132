import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

import _oracles as orc
from _oracles import at
from conftest import (constant_image, edge_image, random_image, read_keypoints,
                      sixteenfold_field, tree_positions)
from cornerforge import runtime as rt
from cornerforge.detectors import SixteenFoldDetector, TreeDetector
from cornerforge.image import GrayImage
from cornerforge.trees import (LEAF0, LEAF1, CompiledTree, Leaf, Node, RING16,
                               default_offsets_48, sixteen_fold_offsets)

# Handcrafted monotone trees with closed-form scores: classification depends
# only on |ring - centre| >= t, so max-t is analytic.
ONE_OFFSET = Node(1, b=LEAF1, s=LEAF0, d=LEAF1)  # corner iff ring1 differs by >= t
TWO_OFFSET = Node(1,
                  b=Node(2, b=LEAF1, s=LEAF0, d=LEAF0),
                  s=LEAF0,
                  d=Node(2, b=LEAF0, s=LEAF0, d=LEAF1))


def one_offset_score(img, x, y):
    return abs(at(img, x + 0, y - 3) - at(img, x, y))


def two_offset_score(img, x, y):
    c = at(img, x, y)
    d1 = at(img, x, y - 3) - c
    d2 = at(img, x + 1, y - 3) - c
    return max(min(d1, d2), min(-d1, -d2))


def rand_img(seed, w=40, h=34):
    rng = np.random.default_rng(seed)
    return GrayImage(rng.integers(0, 256, (h, w)).astype(np.uint8))


def classify_pixel(tree, img, p, t):
    return orc.classify_pixel(tree, img, p, t, RING16)


def classify_at(tree, img, xs, ys, t):
    """The level-synchronous pixel walk at explicit (x, y) positions."""
    pos = np.asarray(ys, dtype=np.int64) * img.width + np.asarray(xs)
    return orc.classify_flat(CompiledTree(tree, RING16), img.pixels.ravel(),
                             img.width, pos, t)


def walk_scores(tree, img, xs, ys, t_min=1):
    ct = CompiledTree(tree, RING16)
    return rt.score_positions([ct], img, xs, ys, t_min, rt.corner_needs(ct))


def firing(tree, img, table, sixteenfold):
    """The oracle's classification of a position p at threshold t: the tree
    alone, or the OR of its sixteen-fold variants."""
    if sixteenfold:
        return lambda p, t: orc.classify_sixteenfold(tree, img, p, t, table)
    return lambda p, t: orc.classify_pixel(tree, img, p, t, table)


def rows(*points):
    return np.array(points, dtype=np.float64).reshape(-1, 3)


class TestClassify:
    def test_leaf_only_true_everywhere(self):
        img = rand_img(0)
        assert classify_pixel(Leaf(1), img, (10, 10), 5)
        assert classify_at(Leaf(1), img, [4, 5], [6, 7], 5).all()
        assert walk_scores(Leaf(1), img, [4, 5], [6, 7], 5).tolist() == [255, 255]

    def test_margin_enforced(self):
        img = rand_img(1)
        with pytest.raises(ValueError):
            classify_pixel(ONE_OFFSET, img, (2, 10), 5)

    def test_matches_semantics(self):
        img = rand_img(2)
        for (x, y) in [(5, 5), (10, 20), (30, 8)]:
            for t in (5, 30, 120):
                want = one_offset_score(img, x, y) >= t
                assert classify_pixel(ONE_OFFSET, img, (x, y), t) == want

    def test_batch_matches_scalar(self):
        img = rand_img(3)
        rng = np.random.default_rng(0)
        xs = rng.integers(3, img.width - 3, 200)
        ys = rng.integers(3, img.height - 3, 200)
        for tree in (ONE_OFFSET, TWO_OFFSET):
            got = classify_at(tree, img, xs, ys, 20)
            want = [classify_pixel(tree, img, (int(x), int(y)), 20)
                    for x, y in zip(xs, ys)]
            assert got.tolist() == want

    def test_per_element_thresholds(self):
        # each position's score is its own largest firing threshold; a
        # position that does not fire at t_min gets t_min - 1
        img = rand_img(4)
        xs = np.arange(5, 35)
        ys = np.full(30, 10)
        want = [one_offset_score(img, int(x), 10) for x in xs]
        for t_min in (1, 50, 200):
            got = walk_scores(ONE_OFFSET, img, xs, ys, t_min)
            assert got.tolist() == [w if w >= t_min else t_min - 1 for w in want]


class TestDetect:
    def test_constant_empty(self):
        img = constant_image(32, 32, 7)
        assert len(tree_positions(ONE_OFFSET, img, 10)) == 0

    def test_batch_equals_naive(self):
        # TWO_OFFSET's root children share offset 2: the two-level dense plan
        for seed, tree in [(5, ONE_OFFSET), (6, TWO_OFFSET)]:
            img = rand_img(seed, w=26, h=22)
            got = tree_positions(tree, img, 30)
            assert got.dtype == np.int32
            assert got.tolist() == [list(p) for p in
                                    orc.detect_naive(tree, img, 30, RING16)]

    def test_raster_order(self):
        img = rand_img(8)
        pts = tree_positions(ONE_OFFSET, img, 15)
        keys = pts[:, 1].astype(np.int64) * img.width + pts[:, 0]
        assert (np.diff(keys) > 0).all()


class TestScores:
    def test_constructed_boundary(self):
        a = np.full((16, 16), 100, dtype=np.uint8)
        a[5, 8] = 120  # ring index 1 of (8, 8)
        img = GrayImage(a)
        assert orc.corner_score_bisect(ONE_OFFSET, img, (8, 8), RING16) == 20
        assert orc.corner_score_iterate(ONE_OFFSET, img, (8, 8), RING16) == 20
        assert walk_scores(ONE_OFFSET, img, [8], [8]).tolist() == [20]

    def test_not_a_corner(self):
        img = constant_image(16, 16, 50)
        with pytest.raises(orc.NotACornerError):
            orc.corner_score_bisect(ONE_OFFSET, img, (8, 8), RING16)
        with pytest.raises(orc.NotACornerError):
            orc.corner_score_iterate(ONE_OFFSET, img, (8, 8), RING16)

    def test_triple_agreement_with_analytic_oracle(self):
        for seed in range(4):
            img = rand_img(seed + 20)
            for tree, oracle in ((ONE_OFFSET, one_offset_score),
                                 (TWO_OFFSET, two_offset_score)):
                pos = tree_positions(tree, img, 1)
                xs, ys = pos[:, 0], pos[:, 1]
                batch = walk_scores(tree, img, xs, ys)
                assert batch.dtype == np.int32 and len(batch) == len(pos)
                for (x, y), s in list(zip(pos, batch))[:60]:
                    x, y = int(x), int(y)
                    want = min(oracle(img, x, y), 255)
                    assert s == want
                    assert orc.corner_score_bisect(tree, img, (x, y), RING16) == want
                    assert orc.corner_score_iterate(tree, img, (x, y), RING16) == want

    def test_linear_scan_oracle(self):
        img = rand_img(31)
        pos = tree_positions(TWO_OFFSET, img, 1)[:40]
        batch = walk_scores(TWO_OFFSET, img, pos[:, 0], pos[:, 1])
        for (x, y), s in zip(pos, batch):
            x, y = int(x), int(y)
            linear = max(t for t in range(1, 256)
                         if classify_pixel(TWO_OFFSET, img, (x, y), t))
            assert s == linear
            assert orc.corner_score_bisect(TWO_OFFSET, img, (x, y), RING16) == linear

    def test_max_score_single_iteration(self):
        a = np.zeros((16, 16), dtype=np.uint8)
        for dx, dy in RING16.offsets:
            a[8 + dy, 8 + dx] = 255
        img = GrayImage(a)
        assert orc.corner_score_iterate(ONE_OFFSET, img, (8, 8), RING16) == 255
        assert orc.corner_score_bisect(ONE_OFFSET, img, (8, 8), RING16) == 255
        assert walk_scores(ONE_OFFSET, img, [8], [8]).tolist() == [255]

    def test_threshold_above_255_is_an_error(self):
        # no score can exceed 255, so a walk from t_min - 1 = 255 would
        # report 255 for positions that never fire
        with pytest.raises(ValueError, match="1..255"):
            walk_scores(Leaf(1), rand_img(0), [8], [8], 256)

    def test_iterate_requires_passing_pixels(self):
        img = constant_image(16, 16, 90)
        with pytest.raises(orc.NotACornerError):
            orc.corner_score_iterate(Leaf(1), img, (8, 8), RING16)

    def test_iterate_requires_ring16(self):
        with pytest.raises(ValueError):
            orc.corner_score_iterate(Leaf(1), rand_img(1), (8, 8),
                                     default_offsets_48())


def trees_over(table, max_leaves=24):
    """Random trees over a table's offsets; leaf 1 may sit anywhere, so
    classification is in general not monotone in t."""
    return st.recursive(
        st.sampled_from([LEAF0, LEAF1]),
        lambda kids: st.builds(Node, st.sampled_from(list(table.indices())),
                               kids, kids, kids),
        max_leaves=max_leaves)


class TestExactScores:
    """``score_positions`` against the linear-scan oracle on any tree."""

    @pytest.mark.parametrize("sixteenfold", [False, True])
    @pytest.mark.parametrize("table", [RING16, default_offsets_48()],
                             ids=["ring16", "grid48"])
    @given(data=st.data())
    def test_matches_linear_scan(self, table, sixteenfold, data):
        tree = data.draw(trees_over(table))
        seed = data.draw(st.integers(0, 2**32 - 1))
        contrast = data.draw(st.sampled_from([12, 60, 256]))
        t_min = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(seed)
        base = int(rng.integers(0, 257 - contrast))
        img = GrayImage((base + rng.integers(0, contrast, (14, 15)))
                        .astype(np.uint8))
        trees, needs, _ = self.walks(tree, table, sixteenfold)
        if sixteenfold:
            ys, xs = np.nonzero(sixteenfold_field(tree, img, t_min, table))
        else:
            xs, ys = tree_positions(tree, img, t_min, table).T
        fires = firing(tree, img, table, sixteenfold)
        pick = rng.permutation(len(xs))[:12]
        xs, ys = xs[pick], ys[pick]
        got = rt.score_positions(trees, img, xs, ys, t_min, needs)
        assert got.dtype == np.int32
        for x, y, score in zip(xs.tolist(), ys.tolist(), got.tolist()):
            want = orc.linear_scan_score(lambda t: fires((x, y), t), img,
                                         (x, y), table, t_min)
            assert score == want

    @staticmethod
    def walks(tree, table, sixteenfold):
        """The detector's compiled trees and corner needs, and a
        ``PlaneWalk`` of those trees over the table's offsets."""
        if sixteenfold:
            det = SixteenFoldDetector(tree, table)
            return det.trees, det.needs, rt.PlaneWalk(
                det.trees, sixteen_fold_offsets(table))
        det = TreeDetector(tree, table)
        return det.trees, det.needs, rt.PlaneWalk(det.trees, table.offsets)

    @pytest.mark.parametrize("sixteenfold", [False, True])
    @pytest.mark.parametrize("table", [RING16, default_offsets_48()],
                             ids=["ring16", "grid48"])
    @given(data=st.data())
    def test_batch_independent(self, table, sixteenfold, data):
        # a shuffled list with duplicates scores as each position alone
        tree = data.draw(trees_over(table))
        seed = data.draw(st.integers(0, 2**32 - 1))
        t_min = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(seed)
        m, h, w = table.margin, 15, 16
        img = (edge_image(rng, t_min, h, w) if data.draw(st.booleans())
               else random_image(rng, w, h))
        trees, needs, _ = self.walks(tree, table, sixteenfold)
        k = data.draw(st.integers(1, 24))
        xs = rng.integers(m, w - m, k)
        ys = rng.integers(m, h - m, k)
        dup = rng.integers(0, k, data.draw(st.integers(1, 8)))
        order = rng.permutation(k + len(dup))
        xs = np.concatenate([xs, xs[dup]])[order]
        ys = np.concatenate([ys, ys[dup]])[order]
        got = rt.score_positions(trees, img, xs, ys, t_min, needs)
        assert got.dtype == np.int32 and got.shape == xs.shape
        alone = [rt.score_positions(trees, img, xs[i:i + 1], ys[i:i + 1],
                                    t_min, needs) for i in range(len(xs))]
        assert got.tolist() == [int(s[0]) for s in alone]
        empty = rt.score_positions(trees, img, xs[:0], ys[:0], t_min, needs)
        assert empty.dtype == np.int32 and empty.shape == (0,)

    @pytest.mark.parametrize("sixteenfold", [False, True])
    @pytest.mark.parametrize("table", [RING16, default_offsets_48()],
                             ids=["ring16", "grid48"])
    @given(data=st.data())
    def test_detections_score_at_least_t_min(self, table, sixteenfold, data):
        # the two walks agree: every position the plane walk detects at t_min
        # scores >= t_min, and is detected again at its own score
        tree = data.draw(trees_over(table))
        t_min = data.draw(st.one_of(st.sampled_from([1, 255]),
                                    st.integers(1, 255)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        img = edge_image(rng, t_min, 20, 24)
        trees, needs, walk = self.walks(tree, table, sixteenfold)
        found = walk.detect(img, t_min, table.margin)
        scores = rt.score_positions(trees, img, found[:, 0], found[:, 1], t_min,
                                    needs)
        assert (scores >= t_min).all()
        for s in np.unique(scores).tolist():
            again = {tuple(p) for p in walk.detect(img, s, table.margin).tolist()}
            assert {tuple(p) for p in found[scores == s].tolist()} <= again


class TestCornerNeeds:
    """``corner_needs`` against a recursion over the nodes, and the score
    ceiling that ``score_positions`` derives from it."""

    @pytest.mark.parametrize("table", [RING16, default_offsets_48()],
                             ids=["ring16", "grid48"])
    @given(data=st.data())
    def test_matches_recursion(self, table, data):
        tree = data.draw(trees_over(table))
        assert rt.corner_needs(CompiledTree(tree, table)) == orc.corner_needs(tree)

    def test_counts_distinct_offsets(self):
        # offset 1 is tested brighter twice on the only corner path
        tree = Node(1, b=Node(1, b=LEAF1, s=LEAF0, d=LEAF0), s=LEAF0, d=LEAF0)
        assert rt.corner_needs(CompiledTree(tree, RING16)) == {(1, 0)}

    def test_leaves_and_the_all_similar_chain(self):
        assert rt.corner_needs(CompiledTree(LEAF0, RING16)) == set()
        assert rt.corner_needs(CompiledTree(LEAF1, RING16)) == {(0, 0)}
        tree = Node(3, b=LEAF1, s=Node(5, b=LEAF1, s=LEAF1, d=LEAF0), d=LEAF0)
        assert rt.corner_needs(CompiledTree(tree, RING16)) == {(0, 0)}

    def test_exact_fast9(self, fast9_grid48):
        tree, grid = fast9_grid48
        assert rt.corner_needs(CompiledTree(tree, grid)) == {(9, 0), (0, 9)}
        assert SixteenFoldDetector(tree, grid).needs == {(9, 0), (0, 9)}

    def test_a_need_beyond_the_tested_offsets_is_an_error(self):
        # ONE_OFFSET tests one offset, so no path can need two
        ct = CompiledTree(ONE_OFFSET, RING16)
        with pytest.raises(ValueError, match="corner need"):
            rt.score_positions([ct], rand_img(0), [8], [8], 1, {(2, 0)})

    @pytest.mark.parametrize("sixteenfold", [False, True])
    @pytest.mark.parametrize("table", [RING16, default_offsets_48()],
                             ids=["ring16", "grid48"])
    @given(data=st.data())
    def test_ceiling_bounds_the_exact_score(self, table, sixteenfold, data):
        tree = data.draw(trees_over(table))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m, h, w = table.margin, 14, 15
        img = (edge_image(rng, data.draw(st.integers(1, 40)), h, w)
               if data.draw(st.booleans()) else random_image(rng, w, h))
        trees, needs, _ = TestExactScores.walks(tree, table, sixteenfold)
        xs, ys = rng.integers(m, w - m, 12), rng.integers(m, h - m, 12)
        flat = img.pixels.ravel()
        pos = (ys * w + xs).astype(np.int32)
        ceiling = rt._score_ceiling(trees, flat, w, pos,
                                    flat.take(pos).astype(np.int16), needs)
        fires = firing(tree, img, table, sixteenfold)
        for x, y, top in zip(xs.tolist(), ys.tolist(), ceiling.tolist()):
            score = orc.linear_scan_score(lambda t: fires((x, y), t), img,
                                          (x, y), table, 1)
            assert (score or 0) <= top

    def test_ceiling_in_blocks(self, fast9_grid48, monkeypatch):
        # blocks of 7 rows, the last one partial, give the ceiling of one
        # block of every row
        tree, grid = fast9_grid48
        det = SixteenFoldDetector(tree, grid)
        img = random_image(np.random.default_rng(4), 40, 30)
        xs, ys = det.walk.detect(img, 1, grid.margin).T
        flat = img.pixels.ravel()
        pos = (ys * img.width + xs).astype(np.int32)
        args = (det.trees, flat, img.width, pos,
                flat.take(pos).astype(np.int16), det.needs)
        monkeypatch.setattr(rt, "_CEILING_BLOCK_ROWS", len(pos))
        whole = rt._score_ceiling(*args)
        monkeypatch.setattr(rt, "_CEILING_BLOCK_ROWS", 7)
        assert len(pos) % 7 and np.array_equal(rt._score_ceiling(*args), whole)

    def test_ceiling_spares_the_later_variants(self, fast9_grid48, monkeypatch):
        # every variant of the symmetric FAST-9 tree gives the same scores,
        # so variants 1-15 only prove that no t above the best fires; they
        # start no item where the best already equals the ceiling
        tree, grid = fast9_grid48
        det = SixteenFoldDetector(tree, grid, t_min=10)
        img = edge_image(np.random.default_rng(3), 10, 40, 48)
        xs, ys = det.walk.detect(img, 10, grid.margin).T
        started = []
        walk = rt._score_walk

        def spy(ct, flat, width, pos, centre, best, ceiling):
            started.append(int((best < ceiling).sum()))
            walk(ct, flat, width, pos, centre, best, ceiling)

        monkeypatch.setattr(rt, "_score_walk", spy)
        rt.score_positions(det.trees, img, xs, ys, 10, det.needs)
        assert len(started) == 16 and len(xs) > 0
        assert sum(started[1:]) < 15 * len(xs)


def shared_second_trees(table):
    """Trees whose root's non-leaf children all test one offset."""
    index = st.sampled_from(list(table.indices()))

    def build(first, second, parts):
        return Node(first, *[p if isinstance(p, Leaf) else Node(second, p.b, p.s, p.d)
                             for p in parts])

    return st.builds(build, index, index,
                     st.lists(trees_over(table, 12), min_size=3, max_size=3))


class TestTernaryPlanes:
    @pytest.mark.parametrize("t", [1, 2, 35, 128, 254, 255])
    def test_matches_pixel_state(self, t):
        # two images of different sizes, one block of columns each
        table = default_offsets_48()
        rng = np.random.default_rng(t)
        images = [edge_image(rng, t, 9, 11), edge_image(rng, t, 13, 8)]
        offsets = [table.offsets[k] for k in rng.permutation(48)[:20]]
        planes = rt.ternary_planes(images, offsets, t, 3)
        assert planes.dtype == np.uint8 and planes.shape == (20, 5 * 3 + 2 * 7)
        want = [[orc.pixel_state(at(img, x, y), at(img, x + dx, y + dy), t)
                 for img in images for y in range(3, img.height - 3)
                 for x in range(3, img.width - 3)] for dx, dy in offsets]
        assert planes.tolist() == want

    def test_no_interior_and_bad_arguments(self):
        planes = rt.ternary_planes([rand_img(0, w=6, h=20)], RING16.offsets, 9, 3)
        assert planes.shape == (16, 0)
        with pytest.raises(ValueError):
            rt.ternary_planes([rand_img(0)], RING16.offsets, 0, 3)
        with pytest.raises(ValueError):
            rt.ternary_planes([rand_img(0)], [(4, 0)], 9, 3)

    @pytest.mark.parametrize("t", [2.5, 2.0, np.float64(9)])
    def test_threshold_must_be_an_integer(self, t):
        # 2.5 would class a ring 2 above the centre as brighter, as t=2 does
        with pytest.raises(ValueError, match="integer"):
            rt.ternary_planes([rand_img(0)], RING16.offsets, t, 3)

    def test_numpy_integer_threshold(self):
        img = rand_img(0)
        assert np.array_equal(rt.ternary_planes([img], RING16.offsets,
                                                np.int64(9), 3),
                              rt.ternary_planes([img], RING16.offsets, 9, 3))


class TestPlaneWalk:
    """Detection through ``PlaneWalk`` against the pixel-by-pixel oracles."""

    @pytest.mark.parametrize("sixteenfold", [False, True])
    @pytest.mark.parametrize("shared", [False, True], ids=["any", "shared2"])
    @pytest.mark.parametrize("table", [RING16, default_offsets_48()],
                             ids=["ring16", "grid48"])
    @given(data=st.data())
    def test_matches_pixel_walk(self, table, shared, sixteenfold, data):
        tree = data.draw(shared_second_trees(table) if shared else trees_over(table))
        t = data.draw(st.one_of(st.sampled_from([1, 255]), st.integers(1, 255)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        m = table.margin
        w, h = (data.draw(st.integers(2 * m + 1, 2 * m + 6)) for _ in range(2))
        rng = np.random.default_rng(seed)
        if data.draw(st.booleans()):
            img = edge_image(rng, t, h, w)
        else:
            a = rng.integers(0, 256, (h, w)).astype(np.uint8)
            a.ravel()[rng.permutation(a.size)[:2]] = (0, 255)
            img = GrayImage(a)
        interior = [(x, y) for y in range(m, h - m) for x in range(m, w - m)]
        if sixteenfold:
            got = sixteenfold_field(tree, img, t, table)
            want = np.zeros((h, w), dtype=bool)
            for x, y in interior:
                want[y, x] = orc.classify_sixteenfold(tree, img, (x, y), t, table)
            assert np.array_equal(got, want)
        else:
            got = tree_positions(tree, img, t, table)
            assert got.dtype == np.int32 and got.shape[1] == 2
            assert got.tolist() == [list(p) for p in interior
                                    if orc.classify_pixel(tree, img, p, t, table)]

    @pytest.mark.parametrize("cls", [0, 1])
    def test_leaf_only_root(self, cls):
        img = rand_img(9, w=12, h=10)
        assert len(tree_positions(Leaf(cls), img, 7)) == cls * 6 * 4
        assert sixteenfold_field(Leaf(cls), img, 7).sum() == cls * 6 * 4

    def test_one_interior_column_and_row(self):
        # images exactly 2 * margin + 1 wide or high
        grid = default_offsets_48()
        tree = Node(8, b=Node(20, LEAF1, LEAF0, LEAF1), s=LEAF0, d=LEAF1)
        for w, h in ((7, 12), (12, 7), (7, 7)):
            img = rand_img(w * h, w=w, h=h)
            for t in (1, 30):
                assert tree_positions(TWO_OFFSET, img, t).tolist() == [
                    list(p) for p in orc.detect_naive(TWO_OFFSET, img, t, RING16)]
                want = [[3 <= x < w - 3 and 3 <= y < h - 3
                         and orc.classify_sixteenfold(tree, img, (x, y), t, grid)
                         for x in range(w)] for y in range(h)]
                assert sixteenfold_field(tree, img, t).tolist() == want

    def test_or_of_complementary_trees(self):
        # the second tree fires exactly where the first does not
        img = rand_img(10)
        trees = [CompiledTree(t, RING16)
                 for t in (ONE_OFFSET, Node(1, b=LEAF0, s=LEAF1, d=LEAF0))]
        walk = rt.PlaneWalk(trees, RING16.offsets)
        planes = rt.ternary_planes([img], walk.offsets, 20, 3)
        first = rt.PlaneWalk(trees[:1], RING16.offsets)
        assert 0 < first.fired(planes).sum() < planes.shape[1]
        assert walk.fired(planes).all()

    def test_given_offsets_must_cover_nodes(self):
        ct = CompiledTree(ONE_OFFSET, RING16)
        walk = rt.PlaneWalk([ct], RING16.offsets)
        assert [tuple(o) for o in walk.offsets] == list(RING16.offsets)
        assert walk.rows[0].tolist() == [0]  # ring index 1 is (0, -3)
        with pytest.raises(ValueError):
            rt.PlaneWalk([ct], [(1, -3)])
        # and must be distinct, whatever the trees test
        with pytest.raises(ValueError, match="distinct"):
            rt.PlaneWalk([ct], [(0, -3), (1, -3), (0, -3)])
        with pytest.raises(ValueError, match="distinct"):
            rt.PlaneWalk([], [(2, 2), (2, 2)])


def point_sets(score_strategy):
    return st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                              score_strategy),
                    max_size=40, unique_by=lambda p: (p[0], p[1]))


class TestNonmaxSuppress:
    @staticmethod
    def nms(points, dtype=np.int32, shape=(13, 13)):
        """suppress_scored_arrays over (x, y, score) tuples, as tuples."""
        xs = np.array([p[0] for p in points], dtype=np.int64)
        ys = np.array([p[1] for p in points], dtype=np.int64)
        scores = np.array([p[2] for p in points], dtype=dtype)
        kxs, kys, ks = rt.suppress_scored_arrays(xs, ys, scores, shape)
        assert ks.dtype == dtype
        return list(zip(kxs.tolist(), kys.tolist(), ks.tolist()))

    def test_isolated_kept(self):
        assert self.nms([(5, 5, 9)]) == [(5, 5, 9)]

    def test_adjacent_lower_suppressed(self):
        assert self.nms([(5, 5, 10), (6, 5, 20)]) == [(6, 5, 20)]

    def test_plateau_keeps_raster_first(self):
        assert self.nms([(5, 5, 7), (6, 5, 7), (7, 5, 7)]) == [(5, 5, 7)]

    def test_empty(self):
        assert self.nms([]) == []

    def test_float_scores_not_truncated(self):
        # as integers both would be 2 and the plateau rule would keep (5, 5)
        assert self.nms([(5, 5, 2.25), (6, 5, 2.5)], np.float64) == [(6, 5, 2.5)]

    @given(point_sets(st.integers(1, 5)))
    def test_matches_oracle_and_contract(self, raw):
        self.check_oracle_and_contract(raw, np.int32)

    @given(point_sets(st.sampled_from([0.5, 1.0, 1.25, 1.5, 3.75, 1e-3, 2e5])))
    def test_float_scores_match_oracle_and_contract(self, raw):
        self.check_oracle_and_contract(raw, np.float64)

    def check_oracle_and_contract(self, raw, dtype):
        out = self.nms(raw, dtype)
        assert out == orc.nms_oracle(raw)
        # contract: no two survivors within Chebyshev distance 1
        for i, p in enumerate(out):
            for q in out[i + 1:]:
                assert max(abs(p[0] - q[0]), abs(p[1] - q[1])) > 1
        # every suppressed point has a >=-score 8-neighbor (tie-aware)
        surv = {(x, y) for x, y, _ in out}
        by_pos = {(x, y): s for x, y, s in raw}
        for x, y, s in raw:
            if (x, y) in surv:
                continue
            assert any(
                by_pos.get((x + dx, y + dy)) is not None
                and (by_pos[(x + dx, y + dy)] > s
                     or (by_pos[(x + dx, y + dy)] == s and (dy, dx) < (0, 0)))
                for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                if (dx, dy) != (0, 0))

    def test_array_path_equals_object_path(self):
        # 300 random points on a 50x40 grid, against the plain-Python oracle
        rng = np.random.default_rng(12)
        seen = {}
        for x, y in zip(rng.integers(0, 50, 300), rng.integers(0, 40, 300)):
            seen.setdefault((int(x), int(y)), int(rng.integers(1, 200)))
        pts = [(x, y, s) for (x, y), s in seen.items()]
        assert self.nms(pts, np.int32, (40, 50)) == orc.nms_oracle(pts)


class TestTopN:
    PTS = rows((0, 0, 9), (1, 0, 9), (2, 0, 5), (3, 0, 5), (4, 0, 5), (5, 0, 3))

    def top(self, pts, n, split_ties=False):
        return rt.top_n_by_score(rt.rank_by_score(pts), n, split_ties)

    def test_zero(self):
        got = self.top(self.PTS, 0)
        assert got.shape == (0, 3)

    def test_all_when_n_large(self):
        assert len(self.top(self.PTS, 99)) == 6

    def test_tie_class_not_split(self):
        # boundary counts are 0, 2, 5, 6; the closest to 4 is 5
        assert len(self.top(self.PTS, 4)) == 5

    def test_equidistant_tie_takes_smaller(self):
        pts = rows((0, 0, 9), (1, 0, 9), (2, 0, 5), (3, 0, 5), (4, 0, 5),
                   (5, 0, 5))
        # boundaries 0, 2, 6; n=4 is equidistant; smaller wins
        assert len(self.top(pts, 4)) == 2

    def test_split_ties_exact_with_raster_order(self):
        got = self.top(self.PTS, 4, split_ties=True)
        assert len(got) == 4
        assert got.tolist() == [[0, 0, 9], [1, 0, 9], [2, 0, 5], [3, 0, 5]]

    def test_descending_scores(self):
        got = self.top(self.PTS, 6)
        assert got[:, 2].tolist() == sorted(self.PTS[:, 2].tolist(), reverse=True)

    def test_ranking_breaks_ties_by_raster_order(self):
        pts = rows((4, 1, 5), (9, 0, 5), (2, 1, 5), (7, 3, 8))
        assert rt.rank_by_score(pts).tolist() == [
            [7, 3, 8], [9, 0, 5], [2, 1, 5], [4, 1, 5]]

    @given(st.lists(st.integers(1, 6), max_size=30), st.integers(-2, 35),
           st.booleans())
    def test_cut_matches_oracle(self, scores, n, split_ties):
        pts = rows(*[(x, 0, s) for x, s in enumerate(scores)])
        ranked = rt.rank_by_score(pts)
        got = rt.top_n_by_score(ranked, n, split_ties)
        # oracle: every count at which no tie class is split, closest to n
        cuts = [b for b in range(len(scores) + 1)
                if b in (0, len(scores)) or ranked[b - 1, 2] != ranked[b, 2]]
        if n <= 0:
            want = 0
        elif split_ties:
            want = min(n, len(scores))
        else:
            want = min(cuts, key=lambda b: (abs(b - n), b))
        assert np.array_equal(got, ranked[:want])


class TestKeypointIO:
    def test_round_trip_with_header(self):
        pts = rows((3, 1, 20), (1, 2, 7.5))
        buf = io.StringIO()
        buf.write("# tool x\n# config {}\n")
        rt.write_keypoints(buf, pts)
        text = buf.getvalue()
        assert text.startswith("# tool x\n# config {}\n")
        assert "3 1 20\n" in text
        back = read_keypoints(io.StringIO(text))
        assert back.dtype == np.float64
        assert back.tolist() == [[3, 1, 20], [1, 2, 7.5]]

    def test_raster_order_in_file(self):
        buf = io.StringIO()
        rt.write_keypoints(buf, rows((9, 9, 1), (0, 0, 2)))
        lines = [l for l in buf.getvalue().splitlines() if l]
        assert lines == ["0 0 2", "9 9 1"]

    def test_empty_file(self):
        buf = io.StringIO()
        rt.write_keypoints(buf, rows())
        assert buf.getvalue() == ""
        assert read_keypoints(io.StringIO("# h\n")).shape == (0, 3)

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            read_keypoints(io.StringIO("1 2\n"))
