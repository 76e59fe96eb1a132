import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import (at, brute_best_split, exhaustive_count_table,
                      pixel_state, segment_label, tree_depth)
from conftest import classify_rows, constant_image, edge_image, make_test_square
from cornerforge import learn, segment as sg
from cornerforge.image import GrayImage
from cornerforge.trees import Leaf, Node, OffsetTable, RING16


def random_training_set(rng, n_records=40, k=16, weighted=True):
    states = rng.integers(0, 3, (n_records, k)).astype(np.uint8)
    states = np.unique(states, axis=0)
    labels = rng.integers(0, 2, len(states)).astype(bool)
    weights = (rng.integers(1, 9, len(states)) if weighted
               else np.ones(len(states))).astype(np.int64)
    return learn.TrainingSet(states=np.asfortranarray(states), labels=labels,
                             weights=weights, offsets=RING16)


def config_weights(es):
    """The weight of a configuration code in an exhaustive set."""
    observed = dict(zip(learn.codes_from_states(es.observed.states).tolist(),
                        es.observed.weights.tolist()))
    return lambda code: es.low_weight + observed.get(int(code), 0)


def entropy(c: float, cbar: float) -> float:
    return float(learn._entropy_vec(np.array([c], float),
                                    np.array([cbar], float))[0])


def best_split(ts) -> int:
    """Offset index of the root split that ``build_tree`` makes."""
    return ts.offsets.index_base + learn._pick_column(
        learn._root_subset(ts).count_table())


class TestEntropy:
    def test_pure_subset_zero(self):
        assert entropy(5, 0) == 0.0
        assert entropy(0, 3) == 0.0

    def test_one_one(self):
        assert entropy(1, 1) == pytest.approx(2.0, abs=1e-12)

    def test_three_one(self):
        want = 8.0 - 3.0 * math.log2(3.0)
        assert entropy(3, 1) == pytest.approx(want, abs=1e-12)
        assert entropy(3, 1) == pytest.approx(3.2451, abs=1e-4)


class TestBestSplit:
    def test_constructed_separator(self):
        # offset 7 (column 6) alone separates the labels
        rng = np.random.default_rng(0)
        states = rng.integers(0, 3, (60, 16)).astype(np.uint8)
        states = np.unique(states, axis=0)
        labels = states[:, 6] == 2
        ts = learn.TrainingSet(states=states, labels=labels,
                               weights=np.ones(len(states), np.int64),
                               offsets=RING16)
        assert best_split(ts) == 7
        assert learn.build_tree(ts).offset == 7

    def test_pure_subset_is_a_leaf(self):
        ts = random_training_set(np.random.default_rng(1))
        for cls in (0, 1):
            pure = learn.TrainingSet(states=ts.states,
                                     labels=np.full(ts.num_records, bool(cls)),
                                     weights=ts.weights, offsets=RING16)
            assert learn.build_tree(pure) == Leaf(cls)

    def test_matches_brute_force_scan(self):
        # acceptance criterion at unit scale: 100 random sets, exact match
        rng = np.random.default_rng(2)
        for trial in range(100):
            ts = random_training_set(rng, n_records=int(rng.integers(5, 60)),
                                     weighted=bool(trial % 2))
            if not ts.labels.any() or ts.labels.all():
                continue
            rows = [tuple(int(v) for v in row) for row in ts.states]
            want = brute_best_split(rows, list(ts.labels), list(ts.weights))
            assert best_split(ts) == want

    def test_gain_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            ts = random_training_set(rng)
            gains = learn._split_gains(learn._root_subset(ts).count_table())
            assert (gains >= -1e-9).all()


class TestBuildTree:
    def test_single_record_is_leaf(self):
        ts = learn.TrainingSet(states=np.zeros((1, 16), np.uint8),
                               labels=np.array([True]),
                               weights=np.ones(1, np.int64), offsets=RING16)
        assert learn.build_tree(ts) == Leaf(1)

    def test_perfect_training_accuracy(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            ts = random_training_set(rng, n_records=80)
            tree = learn.build_tree(ts)
            got = classify_rows(tree, ts.states)
            assert np.array_equal(got, ts.labels)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        ts = random_training_set(rng, n_records=120)
        assert learn.build_tree(ts) == learn.build_tree(ts)

    def test_returns_the_grown_tree(self):
        # build_tree returns the tree _grow builds from the root subset, as
        # it is: no pass over the tree changes it afterwards
        ts = random_training_set(np.random.default_rng(6), n_records=100)
        grown = learn._grow(learn._root_subset(ts), ts.offsets.index_base, {})
        assert learn.build_tree(ts) == grown

    def test_conflicting_labels_raise(self):
        states = np.zeros((2, 16), np.uint8)
        ts = learn.TrainingSet(states=states,
                               labels=np.array([True, False]),
                               weights=np.ones(2, np.int64), offsets=RING16)
        with pytest.raises(learn.InconsistentLabelsError):
            learn.build_tree(ts)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            learn.build_tree(learn.empty_training_set())


class TestExtract:
    def test_constant_image_single_record(self):
        ts = learn.extract_training_data([constant_image(16, 16, 80)], 9, 20)
        assert ts.num_records == 1
        assert not ts.labels[0]
        assert (ts.states[0] == 1).all()  # all similar
        assert ts.weights[0] == 10 * 10 * 256  # every interior pixel, scaled

    def test_record_count_bounded(self):
        img = make_test_square(40, 16, 200, 40)
        ts = learn.extract_training_data([img], 9, 25)
        assert ts.num_records <= (40 - 6) ** 2

    def test_labels_replay_reference(self):
        rng = np.random.default_rng(7)
        img = GrayImage(rng.integers(0, 256, (30, 30)).astype(np.uint8))
        ts = learn.extract_training_data([img], 9, 30)
        for row, label in zip(ts.states[:200], ts.labels[:200]):
            assert segment_label([int(v) for v in row], 9) == bool(label)

    def test_no_images_rejected(self):
        with pytest.raises(ValueError):
            learn.extract_training_data([], 9, 20)

    def test_negative_weight_scale_rejected(self):
        for scale in (-1, -2**63 - 1):
            with pytest.raises(ValueError, match="weight_scale"):
                learn.extract_training_data([constant_image(16, 16, 80)], 9, 20,
                                            weight_scale=scale)

    def test_total_weight_below_2_53(self):
        # 10 x 10 interior pixels: a scale of 2^53 / 100 or more reaches 2^53
        img = constant_image(16, 16, 80)
        scale = (2**53 - 1) // 100
        ts = learn.extract_training_data([img], 9, 20, weight_scale=scale)
        assert ts.weights.tolist() == [100 * scale]
        for big in (scale + 1, 2**63):
            with pytest.raises(ValueError, match="2\\^53"):
                learn.extract_training_data([img], 9, 20, weight_scale=big)

    @pytest.mark.parametrize("t", [1, 35, 255])
    def test_states_and_weights_match_pixel_oracle(self, t):
        # the 6-pixel-high image has no interior pixel and adds no record
        rng = np.random.default_rng(t)
        images = [edge_image(rng, t, 6, 30), edge_image(rng, t, 13, 17)]
        counts = Counter(
            tuple(pixel_state(at(img, x, y), at(img, x + dx, y + dy), t)
                  for dx, dy in RING16.offsets)
            for img in images for y in range(3, img.height - 3)
            for x in range(3, img.width - 3))
        ts = learn.extract_training_data(images, 9, t, weight_scale=7)
        rows = [tuple(row) for row in ts.states.tolist()]
        assert dict(zip(rows, ts.weights.tolist())) == {
            row: 7 * k for row, k in counts.items()}
        assert len(rows) == len(counts)
        assert ts.labels.tolist() == [segment_label(row, 9) for row in rows]
        assert (np.diff(learn.codes_from_states(ts.states)) > 0).all()


class TestAugment:
    def test_empty_gives_full_space(self):
        ts = learn.augment_exhaustive(learn.empty_training_set(), 9)
        assert ts.num_records == 43_046_721
        assert ts.low_weight == 1 and ts.observed.num_records == 0  # unit weights
        assert int(ts.labels.sum()) == 46_658

    def test_labels_match_oracle_sample(self):
        ts = learn.augment_exhaustive(learn.empty_training_set(), 9)
        rng = np.random.default_rng(8)
        for code in rng.integers(0, sg.N_CONFIGS, 200):
            states = [int(v) for v in learn.states_from_codes([code])[0]]
            assert bool(ts.labels[code]) == segment_label(states, 9)

    def test_observed_weights_fold_in(self):
        img = make_test_square(24, 8, 220, 30)
        obs = learn.extract_training_data([img], 9, 30)
        ts = learn.augment_exhaustive(obs, 9, low_weight=1)
        codes = learn.codes_from_states(obs.states)
        weight = config_weights(ts)
        for code, w in zip(codes, obs.weights):
            assert weight(code) == w + 1
        # every other configuration weighs 1: the observed records are the
        # only ones above the low weight, one per distinct code
        assert ts.low_weight == 1
        assert np.array_equal(learn.codes_from_states(ts.observed.states), codes)
        assert len(set(codes.tolist())) == len(codes)
        rng = np.random.default_rng(15)
        for code in np.setdiff1d(rng.integers(0, sg.N_CONFIGS, 200), codes):
            assert weight(code) == 1
        # ID3 reads the folded weights: per column, all weight and corner weight
        table = learn._root_subset(ts).count_table()
        corner = int(obs.weights[obs.labels].sum())
        assert (table.sum(axis=1) == sg.N_CONFIGS + int(obs.weights.sum())).all()
        assert (table[:, 3:].sum(axis=1) == 46_658 + corner).all()

    def test_conflict_detected(self):
        img = make_test_square(24, 8, 220, 30)
        obs = learn.extract_training_data([img], 9, 30)
        bad = learn.TrainingSet(states=obs.states, labels=~obs.labels,
                                weights=obs.weights, offsets=RING16)
        with pytest.raises(learn.InconsistentLabelsError):
            learn.augment_exhaustive(bad, 9)

    def test_low_weight_validated(self):
        with pytest.raises(ValueError):
            learn.augment_exhaustive(learn.empty_training_set(), 9, low_weight=0)

    def test_total_weight_below_2_53(self):
        top = (2**53 - 1) // sg.N_CONFIGS  # the largest low weight that fits
        empty = learn.empty_training_set()
        assert learn.augment_exhaustive(empty, 9, low_weight=top).low_weight == top
        for big in (top + 1, 2**62, 2**63):
            with pytest.raises(ValueError, match="2\\^53"):
                learn.augment_exhaustive(empty, 9, low_weight=big)
        # the observed weights count towards the total
        fill = 2**53 - top * sg.N_CONFIGS
        obs = learn.TrainingSet(states=np.repeat(np.uint8([[1], [0]]), 16, axis=1),
                                labels=np.array([False, True]),
                                weights=np.array([fill - 1, 0]), offsets=RING16)
        learn.augment_exhaustive(obs, 9, low_weight=top)
        obs.weights[1] = 1
        with pytest.raises(ValueError, match="2\\^53"):
            learn.augment_exhaustive(obs, 9, low_weight=top)


def segment_test_sample(rng):
    """Every FAST-9 corner code plus 10^5 random codes."""
    corners = np.flatnonzero(sg.label_all_configs(9))
    assert corners.size == 46_658
    return np.concatenate([corners, rng.integers(0, sg.N_CONFIGS, 100_000)])


class TestExhaustiveSet:
    @given(data=st.data(), k=st.integers(1, 6), low=st.integers(1, 2**33))
    def test_count_table_matches_oracle(self, data, k, low):
        # a k-column space: every code at weight ``low``, observed codes with
        # weights up to 2^33 * 1000 on top (sums that only int64 holds)
        labels = data.draw(arrays(np.bool_, (3**k,)))
        codes = np.array(sorted(data.draw(st.sets(st.integers(0, 3**k - 1)))),
                         dtype=np.int64)
        weights = data.draw(arrays(np.int64, codes.shape,
                                   elements=st.integers(0, 2**33 * 1000)))
        observed = learn.TrainingSet(
            states=learn.states_from_codes(codes)[:, :k], labels=labels[codes],
            weights=weights, offsets=OffsetTable("test", RING16.offsets[:k], 1))
        fixed = data.draw(st.dictionaries(st.integers(0, k - 1),
                                          st.integers(0, 2)))
        sub = learn._Slice.root(labels, low, observed)
        for col, v in fixed.items():
            sub = sub.split(col)[v]
        dense = [low] * 3**k
        for code, w in zip(codes.tolist(), weights.tolist()):
            dense[code] += w
        assert sub.count_table().tolist() == exhaustive_count_table(
            labels, dense, k, fixed)

    @given(data=st.data(), k=st.integers(2, 6), low=st.integers(1, 2**33))
    def test_tree_equals_explicit_rows(self, data, k, low):
        # build_tree reuses the subtree of a repeated row-free slice; the same
        # data as 3^k explicit rows grows with no such reuse, so it is the
        # oracle, here and under force_shared_second_test
        labels = data.draw(arrays(np.bool_, (3**k,)))
        codes = np.array(sorted(data.draw(st.sets(st.integers(0, 3**k - 1)))),
                         dtype=np.int64)
        weights = data.draw(arrays(np.int64, codes.shape,
                                   elements=st.integers(0, 2**33 * 1000)))
        table = OffsetTable("test", RING16.offsets[:k], 1)
        observed = learn.TrainingSet(
            states=learn.states_from_codes(codes)[:, :k], labels=labels[codes],
            weights=weights, offsets=table)
        es = learn.ExhaustiveSet(labels=labels, low_weight=low,
                                 observed=observed)
        dense = np.full(3**k, low, dtype=np.int64)
        dense[codes] += weights
        rows = learn.TrainingSet(
            states=learn.states_from_codes(np.arange(3**k))[:, :k],
            labels=labels, weights=dense, offsets=table)
        tree = learn.build_tree(es)
        assert tree == learn.build_tree(rows)
        if tree_depth(tree) >= 2:
            assert (learn.force_shared_second_test(tree, es)
                    == learn.force_shared_second_test(tree, rows))

    def test_largest_low_weight_gives_the_same_tree(self, fast9_tree):
        # with no observed records the low weight scales every count alike
        top = (2**53 - 1) // sg.N_CONFIGS
        ts = learn.augment_exhaustive(learn.empty_training_set(), 9,
                                      low_weight=top)
        assert learn.build_tree(ts) == fast9_tree

    def test_grown_children_are_freed(self, fast9_tree):
        # each child slice goes once its subtree is grown; when the root's
        # grown children kept their contiguous labels alive while their
        # siblings grew, the traced peak was 83 MB, and it is 42 MB now
        ts = learn.augment_exhaustive(learn.empty_training_set(), 9)
        tracemalloc.start()
        try:
            tree = learn.build_tree(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tree == fast9_tree
        assert peak < 64 * 2**20

    def test_tree_equals_segment_test(self, fast9_tree):
        codes = segment_test_sample(np.random.default_rng(12))
        got = classify_rows(fast9_tree, learn.states_from_codes(codes))
        assert np.array_equal(got, sg.config_labels(codes, 9))

    def test_shared_second_stays_exact(self, fast9_tree):
        ts = learn.augment_exhaustive(learn.empty_training_set(), 9)
        forced = learn.force_shared_second_test(fast9_tree, ts)
        assert forced != fast9_tree
        offsets = {c.offset for c in (forced.b, forced.s, forced.d)
                   if isinstance(c, Node)}
        assert len(offsets) == 1
        codes = segment_test_sample(np.random.default_rng(13))
        got = classify_rows(forced, learn.states_from_codes(codes))
        assert np.array_equal(got, sg.config_labels(codes, 9))


class TestSharedSecondTest:
    def _image_ts(self):
        rng = np.random.default_rng(9)
        imgs = [GrayImage(rng.integers(0, 256, (36, 36)).astype(np.uint8))
                for _ in range(2)]
        imgs.append(make_test_square(40, 16, 240, 20))
        return learn.extract_training_data(imgs, 9, 30)

    def test_children_share_offset(self):
        ts = self._image_ts()
        tree = learn.build_tree(ts)
        forced = learn.force_shared_second_test(tree, ts)
        offsets = {c.offset for c in (forced.b, forced.s, forced.d)
                   if isinstance(c, Node)}
        assert len(offsets) == 1

    def test_classification_preserved_on_training_set(self):
        ts = self._image_ts()
        tree = learn.build_tree(ts)
        forced = learn.force_shared_second_test(tree, ts)
        assert np.array_equal(classify_rows(forced, ts.states),
                              ts.labels)

    def test_already_shared_unchanged(self):
        sub = lambda off: Node(off, b=Leaf(1), s=Leaf(0), d=Leaf(0))
        tree = Node(1, b=sub(9), s=sub(9), d=sub(9))
        ts = self._image_ts()
        assert learn.force_shared_second_test(tree, ts) is tree

    def test_depth_precondition(self):
        ts = self._image_ts()
        with pytest.raises(ValueError):
            learn.force_shared_second_test(Leaf(0), ts)

    def test_empty_subset_is_non_corner(self):
        # column 0 is never "similar", so the root's s subset is empty and,
        # as in build_tree, becomes a non-corner leaf
        rng = np.random.default_rng(14)
        states = rng.integers(0, 3, (200, 16)).astype(np.uint8)
        states[:, 0] = np.where(states[:, 0] == 1, 0, states[:, 0])
        states = np.unique(states, axis=0)
        ts = learn.TrainingSet(states=states, labels=states[:, 1] == states[:, 2],
                               weights=np.ones(len(states), np.int64),
                               offsets=RING16)
        sub = lambda off: Node(off, b=Leaf(1), s=Leaf(0), d=Leaf(0))
        forced = learn.force_shared_second_test(
            Node(1, b=sub(2), s=sub(3), d=sub(2)), ts)
        assert forced.s == Leaf(0)
        assert np.array_equal(classify_rows(forced, ts.states),
                              ts.labels)

    def test_first_two_tests_read_two_pixels(self):
        ts = self._image_ts()
        forced = learn.force_shared_second_test(learn.build_tree(ts), ts)
        seen = {forced.offset}
        seen |= {c.offset for c in (forced.b, forced.s, forced.d)
                 if isinstance(c, Node)}
        assert len(seen) == 2
