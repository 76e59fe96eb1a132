import io
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

import _oracles as orc
from _oracles import at
from conftest import (constant_image, edge_image, random_image, read_keypoints,
                      sixteenfold_field, tree_positions)
from cornerforge import detectors, learn, runtime as rt
from cornerforge.datasets import synthetic_base_image
from cornerforge.detectors import (FastRefDetector, SixteenFoldDetector,
                                   TreeDetector)
from cornerforge.image import (RING_MARGIN, RING_OFFSETS, GrayImage,
                               add_gaussian_noise)
from cornerforge.trees import (LEAF0, LEAF1, CompiledTree, Leaf, Node, RING16,
                               OffsetTable, default_offsets_48,
                               sixteen_fold_offsets)

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
    """Scores of one tree, walked over every ring offset."""
    ct = CompiledTree(tree, RING16)
    return rt.score_positions(rt.PlaneWalk([ct], RING16.offsets,
                                           rt.corner_needs(ct)),
                              img, xs, ys, t_min)


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
        walk, _, table_walk = self.walks(tree, table, sixteenfold)
        if sixteenfold:
            ys, xs = np.nonzero(sixteenfold_field(tree, img, t_min, table))
        else:
            xs, ys = tree_positions(tree, img, t_min, table).T
        fires = firing(tree, img, table, sixteenfold)
        pick = rng.permutation(len(xs))[:12]
        xs, ys = xs[pick], ys[pick]
        got = rt.score_positions(walk, img, xs, ys, t_min)
        assert got.dtype == np.int32
        for x, y, score in zip(xs.tolist(), ys.tolist(), got.tolist()):
            want = orc.linear_scan_score(lambda t: fires((x, y), t), img,
                                         (x, y), table, t_min)
            assert score == want
        # a walk whose one need is (∅, ∅) bounds no score: a floor of 0 and
        # a ceiling of 255, unless a tree fires everywhere and covers it
        unbounded = rt.PlaneWalk(table_walk.trees, table_walk.offsets,
                                 {(frozenset(), frozenset())})
        assert rt.score_positions(unbounded, img, xs, ys,
                                  t_min).tolist() == got.tolist()

    @staticmethod
    def walks(tree, table, sixteenfold):
        """The detector's ``PlaneWalk`` and corner needs, and a
        ``PlaneWalk`` of its trees over the table's offsets."""
        if sixteenfold:
            det = SixteenFoldDetector(tree, table)
            return det.walk, det.needs, rt.PlaneWalk(
                det.trees, sixteen_fold_offsets(table))
        det = TreeDetector(tree, table)
        return det.walk, det.needs, rt.PlaneWalk(det.trees, table.offsets)

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
        walk = self.walks(tree, table, sixteenfold)[0]
        k = data.draw(st.integers(1, 24))
        xs = rng.integers(m, w - m, k)
        ys = rng.integers(m, h - m, k)
        dup = rng.integers(0, k, data.draw(st.integers(1, 8)))
        order = rng.permutation(k + len(dup))
        xs = np.concatenate([xs, xs[dup]])[order]
        ys = np.concatenate([ys, ys[dup]])[order]
        got = rt.score_positions(walk, img, xs, ys, t_min)
        assert got.dtype == np.int32 and got.shape == xs.shape
        alone = [rt.score_positions(walk, img, xs[i:i + 1], ys[i:i + 1], t_min)
                 for i in range(len(xs))]
        assert got.tolist() == [int(s[0]) for s in alone]
        empty = rt.score_positions(walk, img, xs[:0], ys[:0], t_min)
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
        walk, _, table_walk = self.walks(tree, table, sixteenfold)
        found = table_walk.detect(img, t_min, table.margin)
        scores = rt.score_positions(walk, img, found[:, 0], found[:, 1], t_min)
        assert (scores >= t_min).all()
        for s in np.unique(scores).tolist():
            again = {tuple(p) for p in
                     table_walk.detect(img, s, table.margin).tolist()}
            assert {tuple(p) for p in found[scores == s].tolist()} <= again

    UNCOVERED = Node(1, b=LEAF0, s=Node(2, b=LEAF1, s=LEAF0, d=LEAF0), d=LEAF0)
    R1, R2, NONE = frozenset({RING16.xy(1)}), frozenset({RING16.xy(2)}), frozenset()
    EDGE_CASES = {
        # corner when 1 is darker, or brighter with 2 similar: a higher t can
        # make 2 similar, so firing is not monotone in t
        "non-monotone": ([Node(1, b=Node(2, b=LEAF0, s=LEAF1, d=LEAF0), s=LEAF0,
                               d=LEAF1)], (R1, NONE, R2)),
        # 1 brighter, then 1 similar: a path that never fires
        "offset-twice": ([Node(1, b=Node(1, b=LEAF0, s=LEAF1, d=LEAF0),
                               s=Node(2, b=LEAF1, s=LEAF0, d=LEAF0), d=LEAF0)],
                         (R1, NONE, R1)),
        "leaf0-beside-uncovered": ([LEAF0, UNCOVERED], (R2, NONE, R1)),
        "leaf1-beside-uncovered": ([LEAF1, UNCOVERED], (NONE, NONE, NONE)),
        # 1 and 2 similar end in a corner: nothing brighter or darker
        "all-similar-chain": ([Node(1, b=Node(2, b=LEAF1, s=LEAF0, d=LEAF0),
                                    s=Node(2, b=LEAF0, s=LEAF1, d=LEAF0), d=LEAF0)],
                              (NONE, NONE, R1 | R2)),
    }

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_named_edge_cases(self, case):
        # every interior position of a random and two edge images, at two
        # t_min, against the linear scan of the OR of the forest
        forest, path = self.EDGE_CASES[case]
        cts = [CompiledTree(tree, RING16) for tree in forest]
        walk = rt.PlaneWalk(cts, RING16.offsets, forest_needs(cts))
        assert path in {pair_offsets(walk, p) for p in walk.paths}
        m, h, w = RING_MARGIN, 14, 15
        ys, xs = np.mgrid[m : h - m, m : w - m].reshape(2, -1)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            img = edge_image(rng, 20, h, w) if seed else random_image(rng, w, h)
            for t_min in (1, 20):
                got = rt.score_positions(walk, img, xs, ys, t_min)
                for x, y, score in zip(xs.tolist(), ys.tolist(), got.tolist()):
                    want = orc.linear_scan_score(
                        lambda t: any(orc.classify_pixel(tree, img, (x, y), t, RING16)
                                      for tree in forest), img, (x, y), RING16, t_min)
                    assert score == (t_min - 1 if want is None else want)

    @pytest.mark.parametrize("t_min", [1, 35])
    def test_committed_trees(self, annealed_trees, t_min):
        # the annealed fixture as faster and its distilled tree as fast-tree,
        # whose walks leave pairs uncovered, at sampled detections
        img = synthetic_base_image(64, 48, 3)
        for cls, tree, table in annealed_trees:
            det = cls(tree, table, t_min=t_min)
            assert not det.walk.covered.all()
            xs, ys = det.walk.detect(img, t_min, table.margin).T
            pick = np.random.default_rng(t_min).permutation(len(xs))[:15]
            xs, ys = xs[pick], ys[pick]
            fires = firing(tree, img, table, cls is SixteenFoldDetector)
            scores = rt.score_positions(det.walk, img, xs, ys, t_min)
            assert len(pick) == 15
            for x, y, score in zip(xs.tolist(), ys.tolist(), scores.tolist()):
                assert score == orc.linear_scan_score(
                    lambda t: fires((x, y), t), img, (x, y), table, t_min)


def random_paths(rng, n, kind):
    """Up to six (brighter, darker, similar) tuples of up to three of n
    offset indices each, drawn on their own, so one offset may sit on two
    sides: with one of the first two sides (``one-sided``), both
    (``two-sided``), a similar side beside any of them (``similar``) or any
    of these (``any``), with the path that tests nothing among them
    (``empty``); or none."""
    paths = []
    for _ in range(0 if kind == "none" else int(rng.integers(1, 7))):
        sides = {"one-sided": [int(rng.integers(2))], "two-sided": [0, 1],
                 "similar": [2, *rng.permutation(2)[:rng.integers(0, 3)]]}.get(
            kind, rng.permutation(3)[:rng.integers(1, 4)].tolist())
        path = [(), (), ()]
        for j in sides:
            path[j] = tuple(sorted(rng.choice(n, int(rng.integers(1, 4)),
                                              replace=False).tolist()))
        paths.append(tuple(path))
    if kind == "empty":
        paths.append(((), (), ()))
    return paths


def pair_offsets(walk, pair):
    """A pair of plane rows of the walk as (brighter, darker) (dx, dy) sets."""
    return tuple(frozenset(walk.offsets[k] for k in side) for side in pair)


def walk_covers(tree, table, sixteenfold, pair):
    """The oracle's ``covered`` for a detector's walk: the tree covers the
    pair or, sixteen-fold, some dihedral map of its table covers the pair
    or its swap (an inverted variant swaps brighter and darker)."""
    if not sixteenfold:
        return orc.covered(tree, table, pair)
    b, d = pair
    return any(orc.covered(tree, mapped, p)
               for mapped in orc.dihedral_tables(table) for p in ((b, d), (d, b)))


def fast9_arcs():
    """The 32 (brighter, darker) pairs of FAST-9: each contiguous 9-arc of
    the ring on one side, nothing on the other."""
    none = frozenset()
    arcs = {frozenset(RING_OFFSETS[(i + k) % 16] for k in range(9))
            for i in range(16)}
    return {(a, none) for a in arcs} | {(none, a) for a in arcs}


class TestCornerNeeds:
    """``leaf_paths`` and ``corner_needs`` against recursions over the
    nodes, and the scoring paths that ``score_positions`` evaluates."""

    NONE = frozenset()

    @pytest.mark.parametrize("table", [RING16, default_offsets_48()],
                             ids=["ring16", "grid48"])
    @given(data=st.data())
    def test_matches_recursion(self, table, data):
        tree = data.draw(trees_over(table))
        assert (rt.corner_needs(CompiledTree(tree, table))
                == orc.corner_needs(tree, table))

    @pytest.mark.parametrize("table", [RING16, default_offsets_48()],
                             ids=["ring16", "grid48"])
    @given(data=st.data())
    def test_paths_match_recursion(self, table, data):
        # node k's test sets bit 3 * row[k] + state, row k its offset's index
        tree = data.draw(trees_over(table))
        ct = CompiledTree(tree, table)
        index = {xy: k for k, xy in enumerate(table.offsets)}
        row = [index[xy] for xy in zip(ct.dx.tolist(), ct.dy.tolist())]
        got = tuple({tuple(frozenset(table.offsets[k] for k in side)
                           for side in rt._sides(tests)) for tests in paths}
                    for paths in rt.leaf_paths(ct, row))
        assert got == orc.leaf_paths(tree, table)

    def test_counts_distinct_offsets(self):
        # offset 1 is tested brighter twice on the only corner path
        tree = Node(1, b=Node(1, b=LEAF1, s=LEAF0, d=LEAF0), s=LEAF0, d=LEAF0)
        assert (rt.corner_needs(CompiledTree(tree, RING16))
                == {(frozenset({RING16.xy(1)}), self.NONE)})

    def test_leaves_and_the_all_similar_chain(self):
        assert rt.corner_needs(CompiledTree(LEAF0, RING16)) == set()
        assert (rt.corner_needs(CompiledTree(LEAF1, RING16))
                == {(self.NONE, self.NONE)})
        tree = Node(3, b=LEAF1, s=Node(5, b=LEAF1, s=LEAF1, d=LEAF0), d=LEAF0)
        assert (rt.corner_needs(CompiledTree(tree, RING16))
                == {(self.NONE, self.NONE)})

    def test_exact_fast9(self, fast9_tree, fast9_grid48):
        # every 9-arc, brighter or darker, fires the segment test: covered
        tree, grid = fast9_grid48
        assert rt.corner_needs(CompiledTree(tree, grid)) == fast9_arcs()
        for det in (SixteenFoldDetector(tree, grid),
                    TreeDetector(fast9_tree, RING16)):
            assert det.needs == fast9_arcs()
            assert len(det.walk.covered) == 32 and det.walk.covered.all()

    def test_a_need_beyond_the_tested_offsets_is_an_error(self):
        # ONE_OFFSET tests only (0, -3), so the walk reads no other offset
        walk = TreeDetector(ONE_OFFSET, RING16).walk
        with pytest.raises(ValueError, match="corner need offset"):
            rt.PlaneWalk(walk.trees, walk.offsets,
                         {(frozenset({(1, -3)}), self.NONE)})

    @pytest.mark.parametrize("sixteenfold", [False, True])
    @pytest.mark.parametrize("table", [RING16, default_offsets_48()],
                             ids=["ring16", "grid48"])
    @given(data=st.data())
    def test_ceiling_bounds_the_exact_score(self, table, sixteenfold, data):
        # at any position, not only detections: the covered pairs' bound <=
        # the exact score <= the needs' bound, and the scoring paths hold
        # the covered pairs and score exactly
        tree = data.draw(trees_over(table))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m, h, w = table.margin, 14, 15
        img = (edge_image(rng, data.draw(st.integers(1, 40)), h, w)
               if data.draw(st.booleans()) else random_image(rng, w, h))
        walk, needs, _ = TestExactScores.walks(tree, table, sixteenfold)
        pairs = [pair_offsets(walk, pair) for pair in walk.pairs]
        assert set(pairs) == needs
        assert walk.covered.tolist() == [
            walk_covers(tree, table, sixteenfold, pair) for pair in pairs]
        sure = [pair for pair, c in zip(pairs, walk.covered) if c]
        paths = [pair_offsets(walk, path) for path in walk.paths]
        assert {path[:2] for path in paths if not path[2]} >= set(sure)
        xs, ys = rng.integers(m, w - m, 12), rng.integers(m, h - m, 12)
        scores = rt.score_positions(walk, img, xs, ys, 1)
        fires = firing(tree, img, table, sixteenfold)
        for x, y, got in zip(xs.tolist(), ys.tolist(), scores.tolist()):
            score = orc.linear_scan_score(lambda t: fires((x, y), t), img,
                                          (x, y), table, 1)
            assert got == (score or 0) == orc.path_score(img, (x, y), paths)
            assert (orc.path_score(img, (x, y), sure) <= got
                    <= orc.path_score(img, (x, y), needs))

    @given(data=st.data())
    def test_covered_past_64_sides(self, data):
        # the one corner path tests 33-48 offsets, each brighter or darker:
        # its pair and the swapped pair name 66-96 sides, and only the
        # path's own pair is covered
        table = default_offsets_48()
        chain = data.draw(st.permutations(list(table.indices())))
        chain = chain[:data.draw(st.integers(33, 48))]
        tree = LEAF1
        for k in reversed(chain):
            tree = (Node(k, b=tree, s=LEAF0, d=LEAF0) if data.draw(st.booleans())
                    else Node(k, b=LEAF0, s=LEAF0, d=tree))
        walk = TreeDetector(tree, table).walk
        assert len(walk._stack[0]) > 32
        assert walk.covered.tolist() == [
            orc.covered(tree, table, pair_offsets(walk, pair))
            for pair in walk.pairs]
        assert walk.covered.tolist() in ([True, False], [False, True])

    def test_a_pair_a_non_corner_branch_admits_is_not_covered(self):
        # the only corner path tests (0, -3) similar and (1, -3) brighter,
        # but (0, -3) brighter ends at a non-corner leaf, so (1, -3) brighter
        # alone fires nothing when (0, -3) is brighter too: no floor
        tree = Node(1, b=LEAF0, s=Node(2, b=LEAF1, s=LEAF0, d=LEAF0), d=LEAF0)
        walk = TreeDetector(tree, RING16).walk
        right = frozenset({(1, -3)})
        assert {pair_offsets(walk, pair) for pair in walk.pairs} == {
            (right, self.NONE), (self.NONE, right)}
        assert not walk.covered.any()
        assert not orc.covered(tree, RING16, (right, self.NONE))
        # the one scoring path: (1, -3) brighter and (0, -3) similar
        assert walk.offsets == [(0, -3), (1, -3)]
        assert walk.paths == (((1,), (), (0,)),)
        rng = np.random.default_rng(6)
        img = random_image(rng, 24, 20)
        m = RING_MARGIN
        ys, xs = np.mgrid[m : 20 - m, m : 24 - m].reshape(2, -1)
        got = rt.score_positions(walk, img, xs, ys, 1)
        unfired = 0
        for x, y, score in zip(xs.tolist(), ys.tolist(), got.tolist()):
            want = orc.linear_scan_score(
                lambda t: orc.classify_pixel(tree, img, (x, y), t, RING16),
                img, (x, y), RING16, 1)
            assert score == (0 if want is None else want)
            unfired += want is None and orc.path_score(img, (x, y), [
                pair_offsets(walk, pair) for pair in walk.pairs]) > 0
        assert unfired > 0

    @pytest.mark.parametrize("sixteenfold", [False, True])
    def test_ceiling_is_the_fast9_score(self, fast9_tree, fast9_grid48,
                                        sixteenfold):
        # the 32 arcs of 9 are the scoring paths: the first variant covers
        # them all, so ``leaf_paths`` runs twice, for the source's needs and
        # for that variant, and their bound is the segment-test score itself
        with mock.patch.object(rt, "leaf_paths", wraps=rt.leaf_paths) as spy:
            det = (SixteenFoldDetector(*fast9_grid48) if sixteenfold
                   else TreeDetector(fast9_tree, RING16))
        assert spy.call_count == 2
        assert spy.call_args.args[0] is det.walk.trees[0]
        assert det.walk.paths == tuple((tuple(b), tuple(d), ())
                                       for b, d in det.walk.pairs)
        img = random_image(np.random.default_rng(5), 40, 30)
        xs, ys = det.walk.detect(img, 1, RING_MARGIN).T
        scores = rt.score_positions(det.walk, img, xs, ys, 1)
        field = FastRefDetector(9).score_grid(img)
        assert len(xs) > 100 and np.array_equal(field[ys, xs], scores)

    @given(data=st.data())
    def test_bounds_at_positions_equal_the_needs_field(self, data):
        # random paths, some with a similar side: the scores at positions
        # are ``needs_field`` over the paths there and the oracle's, in one
        # block, in blocks of one position and in blocks whose last is
        # partial, each block one plan
        table = default_offsets_48()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["one-sided", "two-sided", "similar",
                                          "any", "empty", "none"]))
        walk = rt.PlaneWalk([], table.offsets, [])
        walk.paths = tuple(random_paths(rng, len(table.offsets), kind))
        m, h, w = table.margin, 12, 13
        img = (edge_image(rng, data.draw(st.integers(1, 40)), h, w)
               if data.draw(st.booleans()) else random_image(rng, w, h))
        k = data.draw(st.integers(3, 30))
        xs, ys = rng.integers(m, w - m, k), rng.integers(m, h - m, k)
        want = rt.needs_field(img, walk.offsets, walk.paths, m)[ys, xs]
        paths = [pair_offsets(walk, path) for path in walk.paths]
        for x, y, top in zip(xs.tolist(), ys.tolist(), want.tolist()):
            assert top == orc.path_score(img, (x, y), paths)
        n, sizes, per = len(walk.offsets), [], []
        block = rt._bound_block

        def spy(plan, val, c, core, d, e):
            # a block's uint8 values per position: the gathered offsets and
            # the plan's buffers
            sizes.append(len(core))
            per.append(sum(v is not None for v in val[:n]) + len(val) - n)
            block(plan, val, c, core, d, e)

        def blocks(budget):
            """The block sizes of one call."""
            sizes.clear()
            with mock.patch.object(rt, "_BOUNDS_BYTES", budget):
                assert rt.score_positions(walk, img, xs, ys, 1).tolist() == want.tolist()
            return list(sizes)

        with mock.patch.object(rt, "_bound_block", spy):
            assert blocks(rt._BOUNDS_BYTES) == [k]
            assert blocks(1) == [1] * k
            step = data.draw(st.sampled_from([j for j in range(2, k) if k % j]))
            assert blocks(step * max(per[0], 1)) == [step] * (k // step) + [k % step]

    @pytest.mark.parametrize("leaf", [LEAF0, LEAF1])
    def test_a_leaf_rooted_tree_beside_an_uncovered_one(self, leaf):
        # a tree that is one leaf walks no position: a non-corner leaf fires
        # nowhere, and a corner leaf covers every pair, so every score is 255
        tree = Node(1, b=LEAF0, s=Node(2, b=LEAF1, s=LEAF0, d=LEAF0), d=LEAF0)
        cts = [CompiledTree(leaf, RING16), CompiledTree(tree, RING16)]
        walk = rt.PlaneWalk(cts, RING16.offsets, forest_needs(cts))
        img = random_image(np.random.default_rng(0), 34, 30)
        xs, ys = walk.detect(img, 30, RING_MARGIN).T
        want = (rt.score_positions(TreeDetector(tree, RING16).walk, img, xs, ys, 30)
                if leaf is LEAF0 else np.full(len(xs), 255))
        assert len(xs) and not TreeDetector(tree, RING16).walk.covered.all()
        assert rt.score_positions(walk, img, xs, ys, 30).tolist() == want.tolist()


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
            rt.ternary_planes([rand_img(0)], RING16.offsets, 256, 3)
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


# 256 offsets closed under the eight dihedral maps: the 17x17 box without its
# centre and the four orbits of (8, 1) .. (8, 4), 8 offsets each
BOX256 = OffsetTable("box256", tuple(
    (dx, dy) for dy in range(-8, 9) for dx in range(-8, 9)
    if (dx, dy) != (0, 0)
    and not (max(abs(dx), abs(dy)) == 8 and 1 <= min(abs(dx), abs(dy)) <= 4)),
    index_base=0)

GATE_IMAGES = ["edge", "noise", "sparse", "spike"]


def gate_image(rng, kind, t, h, w, m):
    """An image for the gate: ``edge_image``, uniform noise, a flat field
    with a few random pixels (columns with few non-similar states), or a
    field of 255 with a 0 pixel at least m from every edge (a column
    non-similar at every offset)."""
    if kind == "edge":
        return edge_image(rng, t, h, w)
    if kind == "noise":
        return random_image(rng, w, h)
    if kind == "spike":
        a = np.full((h, w), 255, dtype=np.uint8)
        a[rng.integers(m, h - m), rng.integers(m, w - m)] = 0
        return GrayImage(a)
    a = np.full((h, w), rng.integers(0, 256), dtype=np.uint8)
    at = rng.permutation(a.size)[:int(rng.integers(1, 4))]
    a.ravel()[at] = rng.integers(0, 256, at.size)
    return GrayImage(a)


def gate_trees(table):
    """Random trees, and three shapes the gate must get right: a corner at
    the end of the all-similar chain (least 0), no corner leaf (nothing
    fires), and a corner path that tests one offset twice (counted once)."""
    index = st.sampled_from(list(table.indices()))
    similar = st.builds(lambda i, j: Node(i, b=LEAF0, d=LEAF1,
                                          s=Node(j, LEAF0, LEAF1, LEAF0)),
                        index, index)
    no_corner = st.recursive(st.just(LEAF0), lambda kids: st.builds(
        Node, index, kids, kids, kids), max_leaves=12)
    twice = st.builds(lambda i, j: Node(i, s=LEAF0, d=LEAF0, b=Node(
        j, s=LEAF0, d=LEAF0, b=Node(i, b=LEAF1, s=LEAF0, d=LEAF0))), index, index)
    return st.one_of(trees_over(table), similar, no_corner, twice)


def forest_needs(cts) -> set:
    """Corner needs of an OR of compiled trees: every pair of each."""
    return set().union(*map(rt.corner_needs, cts))


def check_gate(forest, table, img, t, needs=None):
    """Check the walk of ``forest`` gated by ``needs`` (by default the
    forest's corner needs) on one image: ``_reach`` keeps the columns whose
    states meet a need, one column at a time, and the walk fires where the
    walk without the gate and the pixel walk do. Returns the columns that
    ``_reach`` keeps when none has fired, and the planes."""
    m = table.margin
    cts = [CompiledTree(tree, table) for tree in forest]
    needs = forest_needs(cts) if needs is None else needs
    gated = rt.PlaneWalk(cts, table.offsets, needs)
    planes = rt.ternary_planes([img], table.offsets, t, m)
    row = {xy: k for k, xy in enumerate(table.offsets)}
    met = [c for c, states in enumerate(planes.T.tolist()) if any(
        all(states[row[xy]] == 2 for xy in b)
        and all(states[row[xy]] == 0 for xy in d) for b, d in needs)]
    kept = gated._reach(planes, np.zeros(planes.shape[1], dtype=bool)).tolist()
    assert kept == met
    ungated = rt.PlaneWalk(cts, table.offsets)
    assert np.array_equal(gated.fired(planes), ungated.fired(planes))
    assert gated.detect(img, t, m).tolist() == [
        [x, y] for y in range(m, img.height - m) for x in range(m, img.width - m)
        if any(orc.classify_pixel(tree, img, (x, y), t, table) for tree in forest)]
    return kept, planes


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

    @pytest.mark.parametrize("sixteenfold", [False, True],
                             ids=["single", "sixteenfold"])
    @pytest.mark.parametrize("table", [RING16, default_offsets_48(), BOX256],
                             ids=["ring16", "grid48", "box256"])
    @given(data=st.data())
    def test_gate_is_exact(self, table, sixteenfold, data):
        # the walk gated by its corner needs fires where the walk without
        # the gate and the pixel walk do
        t = data.draw(st.one_of(st.sampled_from([1, 255]), st.integers(1, 255)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = table.margin
        w, h = (data.draw(st.integers(2 * m + 1, 2 * m + 5)) for _ in range(2))
        img = gate_image(rng, data.draw(st.sampled_from(GATE_IMAGES)), t, h, w,
                         m)
        if sixteenfold:
            forest = [data.draw(gate_trees(table))]
            det = SixteenFoldDetector(forest[0], table)
            # over every offset the variants can test, as well
            gated = (det.walk if data.draw(st.booleans()) else rt.PlaneWalk(
                det.trees, sixteen_fold_offsets(table), det.needs))
        else:
            forest = data.draw(st.lists(gate_trees(table), min_size=1, max_size=3))
            cts = [CompiledTree(tree, table) for tree in forest]
            gated = rt.PlaneWalk(cts, table.offsets, forest_needs(cts))
        fires = [firing(tree, img, table, sixteenfold) for tree in forest]
        ungated = rt.PlaneWalk(gated.trees, gated.offsets)
        planes = rt.ternary_planes([img], gated.offsets, t, m)
        assert np.array_equal(gated.fired(planes), ungated.fired(planes))
        assert gated.detect(img, t, m).tolist() == [
            [x, y] for y in range(m, h - m) for x in range(m, w - m)
            if any(f((x, y), t) for f in fires)]

    def test_gate_counts_past_255_offsets(self):
        # a dark pixel in a bright field is brighter at all 256 offsets, so
        # only the inverted variants fire there, behind a gate of 1 that a
        # count wrapping at 256 would shut
        det = SixteenFoldDetector(Node(0, b=LEAF0, s=LEAF0, d=LEAF1), BOX256)
        walk = rt.PlaneWalk(det.trees, BOX256.offsets, det.needs)
        a = np.full((17, 17), 255, dtype=np.uint8)
        a[8, 8] = 0
        assert walk.least == 1
        assert walk.detect(GrayImage(a), 255, 8).tolist() == [[8, 8]]

    def test_gate_spares_the_later_variants(self, fast9_grid48):
        # every variant of the symmetric FAST-9 tree fires where the first
        # does, so no column it leaves meets one of the 32 arcs of 9: the
        # head lookup of each later variant, which counts the columns it is
        # given, gets none, on a frame at t=1 and t=35 and on a constant
        # image
        tree, grid = fast9_grid48
        det, m = SixteenFoldDetector(tree, grid), grid.margin
        given = []

        class Counted(np.ndarray):
            def take(self, idx):
                given.append(np.size(idx))
                return self.view(np.ndarray).take(idx)

        det.walk.heads = [(rows, lut.view(Counted)) for rows, lut in det.walk.heads]
        frame = add_gaussian_noise(synthetic_base_image(160, 120, 1), 2.0, 1)
        for img in (frame, constant_image(40, 30, 7)):
            for t in (1, 35):
                given.clear()
                det.walk.detect(img, t, m)
                columns = (img.width - 2 * m) * (img.height - 2 * m)
                assert len(given) == 16 and given[0] == columns
                assert given[1:] == [0] * 15

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9])
    @given(data=st.data())
    def test_gate_packs_any_count_of_candidates(self, n, data):
        # one row of n interior columns, each non-similar at every ring
        # offset, behind a first tree that fires nowhere: all n reach the
        # gate, whose bits fill n // 8 bytes and part of one more
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        t = data.draw(st.integers(1, 20))
        a = rng.choice(np.array([0, 255], dtype=np.uint8), (7, n + 6))
        a[3, 3:n + 3] = rng.permutation(9)[:n] * 20 + 60
        forest = [LEAF0] + data.draw(st.lists(trees_over(RING16), min_size=1,
                                               max_size=2))
        planes = check_gate(forest, RING16, GrayImage(a), t)[1]
        assert planes.shape == (16, n) and (planes != 1).all()

    @given(data=st.data())
    def test_gate_with_an_empty_pair_passes_every_column(self, data):
        # (∅, ∅) holds in every column, so nothing is gated
        img = gate_image(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                         data.draw(st.sampled_from(GATE_IMAGES)), 9, 12, 13, 3)
        forest = data.draw(st.lists(trees_over(RING16), min_size=1, max_size=3))
        none = frozenset()
        needs = forest_needs([CompiledTree(tree, RING16) for tree in forest])
        needs.add((none, none))
        assert rt.PlaneWalk([], RING16.offsets, needs).least == 0
        kept, planes = check_gate(forest, RING16, img, 9, needs)
        assert kept == list(range(planes.shape[1]))

    @given(data=st.data())
    def test_gate_never_meets_a_pair_that_shares_an_offset(self, data):
        # no column is brighter and darker at one offset, so the only
        # corner path of a tree that tests an offset brighter and then
        # darker gates every column, and beside other trees gates none of
        # their corners
        k = data.draw(st.sampled_from(list(RING16.indices())))
        never = Node(k, b=Node(k, b=LEAF0, s=LEAF0, d=LEAF1), s=LEAF0, d=LEAF0)
        assert (rt.corner_needs(CompiledTree(never, RING16))
                == {(frozenset({RING16.xy(k)}),) * 2})
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        t = data.draw(st.integers(1, 40))
        img = gate_image(rng, data.draw(st.sampled_from(GATE_IMAGES)), t, 12, 13, 3)
        assert check_gate([never], RING16, img, t)[0] == []
        others = data.draw(st.lists(trees_over(RING16), min_size=1, max_size=2))
        check_gate(others[:1] + [never] + others[1:], RING16, img, t)

    @given(data=st.data())
    def test_gate_over_box256_needs(self, data):
        # the needs of random trees over 256 offsets, gating every column
        # of an image that reaches the gate
        t = data.draw(st.one_of(st.sampled_from([1, 255]), st.integers(1, 255)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = BOX256.margin
        w, h = (data.draw(st.integers(2 * m + 1, 2 * m + 5)) for _ in range(2))
        img = gate_image(rng, data.draw(st.sampled_from(GATE_IMAGES)), t, h, w, m)
        forest = [LEAF0] + data.draw(st.lists(gate_trees(BOX256), min_size=1,
                                               max_size=3))
        check_gate(forest, BOX256, img, t)

    @pytest.mark.parametrize("sixteenfold", [False, True])
    def test_no_corner_leaf_walks_no_column(self, sixteenfold, monkeypatch):
        tree = Node(3, b=LEAF0, s=Node(5, LEAF0, LEAF0, LEAF0), d=LEAF0)
        det = (SixteenFoldDetector(tree, default_offsets_48()) if sixteenfold
               else TreeDetector(tree, RING16))

        def walked(*args):
            raise AssertionError("a tree with no corner leaf walked")

        monkeypatch.setattr(rt.PlaneWalk, "fired", walked)
        grid = det.score_grid(rand_img(3))
        assert det.needs == set() and grid.shape == (34, 40) and not grid.any()


def dnf_tree(rng, table, pairs, pad):
    """A tree that classifies a position as a corner exactly when some
    (brighter, darker) pair of external offset indices holds, every
    brighter offset brighter and every darker one darker. Each node tests
    an offset that a remaining pair names, or, up to ``pad`` times on a
    path, one that no test on the path reads yet, growing three
    independent children. A pair that names one offset on both sides never
    holds. The tree is exactly its pairs, so its walk covers every pair
    of its corner needs."""

    def grow(pairs, tested, pad):
        named = sorted({k for b, d in pairs for k in b | d} - tested)
        free = sorted(set(table.indices()) - tested)
        if free and pad and (not named or rng.random() < 0.3):
            k, pad = int(rng.choice(free)), pad - 1
        elif named and any(b or d for b, d in pairs):
            k = int(rng.choice(named))
        else:
            return LEAF1 if pairs else LEAF0
        kids = []
        for state in "bsd":
            kept = []
            for b, d in pairs:
                if k in b and k in d:
                    continue
                if k in b or k in d:
                    if state != ("b" if k in b else "d"):
                        continue
                    b, d = b - {k}, d - {k}
                kept.append((b, d))
            kids.append(LEAF1 if ((frozenset(), frozenset()) in kept
                                  and not pad) else grow(kept, tested | {k}, pad))
        return Node(k, *kids)

    return grow([(frozenset(b), frozenset(d)) for b, d in pairs], frozenset(), pad)


def covered_trees(table, rng, kind):
    """A ``dnf_tree`` over one or two random pairs of up to two offsets a
    side, most with both sides, and their swaps (``TreeDetector`` closes its
    needs under swapping the sides); over no pair (no corner leaf); or over
    the (∅, ∅) pair (the all-similar chain is a corner, and so is every
    leaf)."""
    index = list(table.indices())
    pairs = []
    for _ in range(rng.integers(1, 3) if kind == "pairs" else 0):
        nb, nd = [(0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 0)][rng.integers(6)]
        b, d = (set(rng.choice(index, k, replace=False).tolist()) for k in (nb, nd))
        pairs += [(b, d), (d, b)]
    return dnf_tree(rng, table, [((), ())] if kind == "all" else pairs,
                    int(rng.integers(0, 3)))


@cache
def exhaustive_tree(n):
    """The exhaustively learned FAST-n tree: exactly the segment test."""
    return learn.build_tree(learn.augment_exhaustive(learn.empty_training_set(), n))


def walked_grid(det, img):
    """``TreeDetector.score_grid`` the way an uncovered tree takes it: the
    plane walk's detections at t_min, scored by ``score_positions``."""
    grid = np.zeros(img.shape, dtype=np.int32)
    xs, ys = det.walk.detect(img, det.t_min, det.table.margin).T
    grid[ys, xs] = rt.score_positions(det.walk, img, xs, ys, det.t_min)
    return grid


class TestNeedsField:
    """``needs_field``, the score grid of every tree whose walk covers
    each of its pairs, against the plane walk and the exact scores."""

    @pytest.mark.parametrize("sixteenfold", [False, True])
    @pytest.mark.parametrize("table", [RING16, default_offsets_48()],
                             ids=["ring16", "grid48"])
    @given(data=st.data())
    def test_equals_the_walk_on_covered_trees(self, table, sixteenfold, data):
        # at any t, on images down to one pixel, in one block and in blocks
        # of as few as one row with a partial last block
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["pairs", "pairs", "none", "all"]))
        tree = covered_trees(table, rng, kind)
        t = data.draw(st.one_of(st.sampled_from([1, 255]), st.integers(1, 60)))
        cls = SixteenFoldDetector if sixteenfold else TreeDetector
        det = cls(tree, table, t_min=t)
        assert det.walk.covered.all()
        assert (det.needs == {(frozenset(),) * 2}) == (kind == "all")
        m = table.margin
        h, w = (data.draw(st.integers(1, 2 * m + 9)) for _ in range(2))
        img = (edge_image(rng, t, h, w) if data.draw(st.booleans())
               else random_image(rng, w, h))
        want = walked_grid(det, img)
        assert np.array_equal(det.score_grid(img), want)
        with mock.patch.object(rt, "_BLOCK_PIXELS",
                               data.draw(st.integers(1, 3 * w))):
            assert np.array_equal(det.score_grid(img), want)
        if h <= 2 * m or w <= 2 * m or kind == "none":
            assert not want.any()

    def test_an_offset_beyond_the_margin_is_an_error(self):
        with pytest.raises(ValueError, match="beyond the margin"):
            rt.needs_field(rand_img(0), [(0, -3), (4, 0)], [((1,), ())], 3)

    def test_two_sided_pairs_score_exactly(self):
        # each pair holds one offset brighter and one darker, so every bound
        # takes a least and a greatest value; the scores match the oracle's
        ring = list(RING16.indices())
        pairs = [({ring[k]}, {ring[(k + 8) % 16]}) for k in (0, 3, 5)]
        pairs.append(({ring[1], ring[2]}, {ring[9]}))
        pairs += [(d, b) for b, d in pairs]
        tree = dnf_tree(np.random.default_rng(0), RING16, pairs, 0)
        det = TreeDetector(tree, RING16)
        assert det.walk.covered.all() and all(b and d for b, d in det.walk.pairs)
        img = random_image(np.random.default_rng(1), 16, 14)
        grid = det.score_grid(img)
        for y in range(14):
            for x in range(16):
                inside = 3 <= x < 13 and 3 <= y < 11
                want = inside and orc.linear_scan_score(
                    lambda t: orc.classify_pixel(tree, img, (x, y), t, RING16),
                    img, (x, y), RING16, 1)
                assert grid[y, x] == (want or 0)
        assert grid.any()

    @pytest.mark.parametrize("n", [9, 12, 16])
    @pytest.mark.parametrize("t", [1, 35])
    def test_covered_trees_rank_without_a_walk(self, n, t, fast9_tree,
                                               fast9_grid48, monkeypatch):
        # the exhaustive FAST-n trees, ring and 48-offset FAST-9, rank as
        # the segment test with the walk and the position scoring shut
        def walked(*args):
            raise AssertionError("a covered tree walked")

        monkeypatch.setattr(rt.PlaneWalk, "fired", walked)
        monkeypatch.setattr(rt, "score_positions", walked)
        monkeypatch.setattr(detectors, "score_positions", walked)
        if n == 9:
            dets = [TreeDetector(fast9_tree, RING16, t_min=t),
                    SixteenFoldDetector(*fast9_grid48, t_min=t)]
        else:
            dets = [TreeDetector(exhaustive_tree(n), RING16, t_min=t)]
        img = edge_image(np.random.default_rng(n), t, 60, 64)
        want = FastRefDetector(n, t_min=t).all_keypoints(img)
        assert len(want)
        for det in dets:
            assert det.walk.covered.all()
            assert np.array_equal(det.all_keypoints(img), want)

    def test_an_uncovered_pair_walks(self, monkeypatch):
        # (1, -3) brighter is a corner need, but (0, -3) brighter beside it
        # ends at a non-corner leaf: the tree walks, and scores exactly
        tree = Node(1, b=LEAF0, s=Node(2, b=LEAF1, s=LEAF0, d=LEAF0), d=LEAF0)
        det = TreeDetector(tree, RING16)
        assert not det.walk.covered.all()
        fired = rt.PlaneWalk.fired
        calls = []

        def counted(walk, planes):
            calls.append(planes.shape[1])
            return fired(walk, planes)

        img = random_image(np.random.default_rng(2), 24, 20)
        want = walked_grid(det, img)
        monkeypatch.setattr(rt.PlaneWalk, "fired", counted)
        assert np.array_equal(det.score_grid(img), want)
        assert calls == [18 * 14] and want.any()


def point_sets(score_strategy):
    return st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                              score_strategy),
                    max_size=40, unique_by=lambda p: (p[0], p[1]))


def interior(points, shape):
    """The (x, y, score) points at least ``RING_MARGIN`` from every edge."""
    h, w, m = *shape, RING_MARGIN
    return [p for p in points if m <= p[0] < w - m and m <= p[1] < h - m]


def ranked(points):
    """(x, y, score) points in rank order: by (-score, y, x)."""
    return sorted(points, key=lambda p: (-p[2], p[1], p[0]))


def spread(points, dtype=np.int32):
    """A score grid holding each (x, y, score) point at cell
    (RING_MARGIN + 2x, RING_MARGIN + 2y): no two points are neighbors and
    all lie in the interior, so suppression keeps every positive one, and
    their raster order is that of the points."""
    pts = [(int(x), int(y), s) for x, y, s in points]
    m = RING_MARGIN
    h, w = (1 + 2 * max((p[k] for p in pts), default=0) for k in (1, 0))
    grid = np.zeros((h + 2 * m, w + 2 * m), dtype=dtype)
    for x, y, score in pts:
        grid[m + 2 * y, m + 2 * x] = score
    return grid


def rank(points, dtype=np.int32):
    """``ranked_rows`` over ``spread(points)``, in the points' coordinates."""
    got = rt.ranked_rows(spread(points, dtype))
    got[:, :2] = (got[:, :2] - RING_MARGIN) / 2
    return got


class TestNonmaxSuppress:
    @staticmethod
    def nms(points, dtype=np.int32, shape=(13, 13)):
        """ranked_rows over a grid of (x, y, score) tuples, as tuples."""
        grid = np.zeros(shape, dtype=dtype)
        for x, y, score in points:
            grid[y, x] = score
        rows = rt.ranked_rows(grid)
        assert rows.dtype == np.float64 and rows.shape[1:] == (3,)
        return [(int(x), int(y), s) for x, y, s in rows.tolist()]

    def test_isolated_kept(self):
        assert self.nms([(5, 5, 9)]) == [(5, 5, 9)]

    def test_adjacent_lower_suppressed(self):
        assert self.nms([(5, 5, 10), (6, 5, 20)]) == [(6, 5, 20)]

    def test_plateau_keeps_raster_first(self):
        assert self.nms([(5, 5, 7), (6, 5, 7), (7, 5, 7)]) == [(5, 5, 7)]

    def test_empty(self):
        assert self.nms([]) == []

    def test_border_survivors_dropped(self):
        # (2, 5) is within 3 of the left edge: it is dropped after it has
        # suppressed its interior neighbour (3, 5)
        assert self.nms([(2, 5, 8), (3, 5, 4), (9, 9, 1), (10, 3, 6)]) == [
            (9, 9, 1)]

    def test_float_scores_not_truncated(self):
        # as integers both would be 2 and the plateau rule would keep (5, 5)
        assert self.nms([(5, 5, 2.25), (6, 5, 2.5)], np.float64) == [(6, 5, 2.5)]

    def test_survivors_are_ranked(self):
        # three survivors two cells apart: by descending score, and a tie
        # in raster order, whatever order the grid holds them in
        got = self.nms([(9, 3, 5), (3, 7, 8), (5, 7, 5), (7, 5, 5)], np.int16)
        assert got == [(3, 7, 8), (9, 3, 5), (7, 5, 5), (5, 7, 5)]

    @given(point_sets(st.integers(1, 5)))
    def test_matches_oracle_and_contract(self, raw):
        self.check_oracle_and_contract(raw, np.int32)

    @given(point_sets(st.sampled_from([0.5, 1.0, 1.25, 1.5, 3.75, 1e-3, 2e5])))
    def test_float_scores_match_oracle_and_contract(self, raw):
        self.check_oracle_and_contract(raw, np.float64)

    def check_oracle_and_contract(self, raw, dtype):
        out = self.nms(raw, dtype)
        assert out == ranked(interior(orc.nms_oracle(raw), (13, 13)))
        # contract: no two survivors within Chebyshev distance 1
        for i, p in enumerate(out):
            for q in out[i + 1:]:
                assert max(abs(p[0] - q[0]), abs(p[1] - q[1])) > 1
        # every suppressed interior point has a >=-score 8-neighbor (tie-aware)
        surv = {(x, y) for x, y, _ in out}
        by_pos = {(x, y): s for x, y, s in raw}
        for x, y, s in interior(raw, (13, 13)):
            if (x, y) in surv:
                continue
            assert any(
                by_pos.get((x + dx, y + dy)) is not None
                and (by_pos[(x + dx, y + dy)] > s
                     or (by_pos[(x + dx, y + dy)] == s and (dy, dx) < (0, 0)))
                for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                if (dx, dy) != (0, 0))

    @given(st.integers(1, 2 * RING_MARGIN + 2),
           st.integers(1, 2 * RING_MARGIN + 2),
           st.sampled_from([np.int16, np.int32, np.float64]), st.data())
    def test_narrow_grids_match_oracle(self, h, w, dtype, data):
        # sides up to 2m + 2: the core is empty (a side of 2m or less, and
        # ``nms`` checks the rows are then a (0, 3) array), one cell wide or
        # two
        raw = data.draw(st.lists(
            st.tuples(st.integers(0, w - 1), st.integers(0, h - 1),
                      st.integers(1, 4)),
            max_size=h * w, unique_by=lambda p: (p[0], p[1])))
        out = self.nms(raw, dtype, (h, w))
        assert out == ranked(interior(orc.nms_oracle(raw), (h, w)))

    def test_array_path_equals_object_path(self):
        # 300 random points on a 50x40 grid, against the plain-Python oracle
        rng = np.random.default_rng(12)
        seen = {}
        for x, y in zip(rng.integers(0, 50, 300), rng.integers(0, 40, 300)):
            seen.setdefault((int(x), int(y)), int(rng.integers(1, 200)))
        pts = [(x, y, s) for (x, y), s in seen.items()]
        assert self.nms(pts, np.int32, (40, 50)) == ranked(interior(
            orc.nms_oracle(pts), (40, 50)))


class TestTopN:
    PTS = [(0, 0, 9), (1, 0, 9), (2, 0, 5), (3, 0, 5), (4, 0, 5), (5, 0, 3)]

    def top(self, pts, n, split_ties=False):
        return rt.top_n_by_score(rank(pts), n, split_ties)

    def test_zero(self):
        got = self.top(self.PTS, 0)
        assert got.shape == (0, 3)

    def test_all_when_n_large(self):
        assert len(self.top(self.PTS, 99)) == 6

    def test_tie_class_not_split(self):
        # boundary counts are 0, 2, 5, 6; the closest to 4 is 5
        assert len(self.top(self.PTS, 4)) == 5

    def test_equidistant_tie_takes_smaller(self):
        pts = [(0, 0, 9), (1, 0, 9), (2, 0, 5), (3, 0, 5), (4, 0, 5), (5, 0, 5)]
        # boundaries 0, 2, 6; n=4 is equidistant; smaller wins
        assert len(self.top(pts, 4)) == 2

    def test_split_ties_exact_with_raster_order(self):
        got = self.top(self.PTS, 4, split_ties=True)
        assert len(got) == 4
        assert got.tolist() == [[0, 0, 9], [1, 0, 9], [2, 0, 5], [3, 0, 5]]

    def test_descending_scores(self):
        got = self.top(self.PTS, 6)
        assert got[:, 2].tolist() == sorted((s for *_, s in self.PTS),
                                            reverse=True)

    def test_ranking_breaks_ties_by_raster_order(self):
        pts = [(4, 1, 5), (9, 0, 5), (2, 1, 5), (7, 3, 8)]
        assert rank(pts).tolist() == [
            [7, 3, 8], [9, 0, 5], [2, 1, 5], [4, 1, 5]]

    @given(arrays(np.int8, st.tuples(st.integers(0, 6), st.integers(1, 6)),
                  elements=st.integers(0, 3)),
           st.sampled_from([np.int16, np.int32, np.float64]), st.randoms())
    def test_ranking_matches_three_key_oracle(self, scores, dtype, rnd):
        # tied cells in shuffled places: the three scores give many ties,
        # score 0 leaves a cell out, and the points come in shuffled order
        ys, xs = np.nonzero(scores)
        pts = list(zip(xs.tolist(), ys.tolist(), scores[ys, xs].tolist()))
        rnd.shuffle(pts)
        got = rank(pts, dtype)
        assert got.shape == (len(pts), 3)
        assert got.tolist() == [list(p) for p in ranked(pts)]

    SCORES = {np.int16: (1, 2, 255, 32766, 32767),
              np.float64: (1e-3, 1.0, 2.5, 255.0, 32768.0, 2e5)}

    @pytest.mark.parametrize("dtype", [np.int16, np.float64])
    @given(st.data(), st.integers(0, 2**32 - 1))
    def test_the_key_has_the_grids_dtype(self, dtype, data, seed):
        # the sort key is the negated scores in the grid's dtype: int16 for
        # segment-test and tree grids, whose largest score 32767 negates
        # without overflow, and float64 for response grids
        scores = data.draw(st.lists(st.sampled_from(self.SCORES[dtype]),
                                    min_size=1, max_size=40))
        n = len(scores)
        order = np.random.default_rng(seed).permutation(n)
        pts = [(k % 7, k // 7, scores[k]) for k in order.tolist()]
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            got = rank(pts, dtype)
        assert got.tolist() == [list(p) for p in ranked(pts)]
        key = spy.call_args_list[-1].args[0]
        assert key.dtype == dtype

    @given(st.lists(st.integers(1, 6), max_size=30), st.integers(-2, 35),
           st.booleans())
    def test_cut_matches_oracle(self, scores, n, split_ties):
        ranked = rank([(x, 0, s) for x, s in enumerate(scores)])
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
