from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import (at, corner_config_count, high_speed_reject, pixel_state,
                      segment_label, segment_score)
from conftest import constant_image, make_test_square
from cornerforge import runtime as rt, segment as sg
from cornerforge.image import RING_OFFSETS, GrayImage
from cornerforge.learn import codes_from_states, states_from_codes
from cornerforge.runtime import ternary_planes
from cornerforge.trees import RING16

# frozen from the independent bright/dark mask enumeration in _oracles
CORNER_CONFIG_COUNTS = {9: 46_658, 12: 1_730, 16: 2}

DARKER, SIMILAR, BRIGHTER = 0, 1, 2


def _rand_img(seed, w=48, h=40, low=0, high=256):
    rng = np.random.default_rng(seed)
    return GrayImage(rng.integers(low, high, (h, w)).astype(np.uint8))


def code(states) -> int:
    """Config code of one ring's 16 states."""
    return int(codes_from_states(np.array([states], dtype=np.uint8))[0])


def ring_codes(img, t: int) -> np.ndarray:
    """Config codes of the interior pixels in raster order, from the state
    planes."""
    return codes_from_states(ternary_planes([img], RING16.offsets, t, 3).T)


def fast_n(img, n: int, t: int) -> np.ndarray:
    """(x, y) of every pixel passing the segment test at t, raster order:
    the score field thresholded."""
    ys, xs = np.nonzero(sg.segment_score_field(img, n) >= t)
    return np.column_stack([xs, ys])


class TestPixelState:
    """The state boundaries of ``ternary_planes`` at one pixel: the first
    ring offset of a 7x7 image whose centre is 100."""

    @staticmethod
    def state(ring: int, t: int) -> int:
        a = np.full((7, 7), 100, dtype=np.uint8)
        a[0, 3] = ring  # ring offset 1 is (0, -3)
        return int(ternary_planes([GrayImage(a)], [(0, -3)], t, 3)[0, 0])

    def test_brighter(self):
        assert self.state(140, 35) == BRIGHTER

    def test_darker_boundary(self):
        assert self.state(65, 35) == DARKER

    def test_similar(self):
        assert self.state(70, 35) == SIMILAR
        assert self.state(66, 35) == self.state(134, 35) == SIMILAR

    def test_brighter_boundary_inclusive(self):
        assert self.state(135, 35) == BRIGHTER

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            ternary_planes([constant_image(7, 7, 100)], [(0, -3)], 0, 3)


class TestRingConfig:
    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(0)
        states = rng.integers(0, 3, (50, 16)).astype(np.uint8)
        codes = codes_from_states(states)
        assert codes.tolist() == [sum(int(s) * 3**i for i, s in enumerate(row))
                                  for row in states]
        assert np.array_equal(states_from_codes(codes), states)

    def test_canonical_digit_order(self):
        # digit i of the code is the state of ring index i+1
        states = [SIMILAR] * 16
        states[0] = BRIGHTER
        all_similar = sum(3**i for i in range(16))
        assert code(states) == all_similar + 1

    def test_space_size(self):
        assert sg.N_CONFIGS == 43_046_721


class TestIsCornerConfig:
    """Segment-test labels of ring configurations: ``config_labels`` for
    given codes, ``label_all_configs`` for the whole space."""

    def test_twelve_contiguous_brighter(self):
        states = [BRIGHTER] * 12 + [SIMILAR] * 4
        assert sg.config_labels([code(states)], 12)[0]

    def test_all_similar_never_corner(self):
        for n in (9, 12, 16):
            assert not sg.config_labels([code([SIMILAR] * 16)], n)[0]

    def test_wraparound_run_counts(self):
        # run crosses the 16 -> 1 boundary: indices 12..16 and 1..4
        states = [SIMILAR] * 16
        for i in list(range(11, 16)) + list(range(0, 4)):
            states[i] = DARKER
        assert sg.config_labels([code(states)], 9)[0]

    def test_golden_counts(self):
        for n, count in CORNER_CONFIG_COUNTS.items():
            assert int(sg.label_all_configs(n).sum()) == count

    def test_counts_against_inline_oracle(self):
        for n in (14, 15, 16):
            assert int(sg.label_all_configs(n).sum()) == corner_config_count(n)

    def test_matches_oracle_on_random_configs(self):
        rng = np.random.default_rng(5)
        states = rng.integers(0, 3, (300, 16)).astype(np.uint8)
        codes = codes_from_states(states)
        for n in (9, 12):
            assert sg.config_labels(codes, n).tolist() == [
                segment_label(row, n) for row in states.tolist()]

    def test_matches_full_table(self):
        rng = np.random.default_rng(6)
        codes = rng.integers(0, sg.N_CONFIGS, 500)
        for n in (9, 12):
            assert np.array_equal(sg.config_labels(codes, n),
                                  sg.label_all_configs(n)[codes])

    def test_unsupported_n(self):
        for n in (5, 8, 17):
            with pytest.raises(ValueError):
                sg.config_labels([0], n)
            with pytest.raises(ValueError):
                sg.label_all_configs(n)
            with pytest.raises(ValueError):
                sg.segment_score_field(constant_image(8, 8, 0), n)


class TestDetect:
    def test_constant_image_empty(self):
        assert len(fast_n(constant_image(32, 32, 128), 9, 10)) == 0

    def test_square_corners_only(self):
        img = make_test_square(64, 30, fg=255, bg=0)
        pts = fast_n(img, 9, 30)
        assert len(pts) > 0
        tips = np.array([(17, 17), (46, 17), (17, 46), (46, 46)])
        dist = np.abs(pts[:, None, :] - tips[None, :, :]).max(axis=2).min(axis=1)
        # every detection hugs a corner tip; nothing along the straight edges
        assert (dist <= 3).all()
        for tip in tips:
            assert (np.abs(pts - tip).max(axis=1) <= 3).any()

    def test_threshold_monotone_subsets(self):
        img = _rand_img(1)
        low = {tuple(p) for p in fast_n(img, 9, 40)}
        high = {tuple(p) for p in fast_n(img, 9, 80)}
        assert high <= low

    def test_rotation_equivariance(self):
        img = _rand_img(2)
        pts = fast_n(img, 9, 18)
        mask = np.zeros(img.shape, dtype=bool)
        mask[pts[:, 1], pts[:, 0]] = True
        rot = GrayImage(np.rot90(img.pixels).copy())
        rpts = fast_n(rot, 9, 18)
        rmask = np.zeros(rot.shape, dtype=bool)
        rmask[rpts[:, 1], rpts[:, 0]] = True
        assert np.array_equal(rmask, np.rot90(mask))

    @given(st.integers(0, 10_000))
    def test_intensity_inversion_invariance(self, seed):
        img = _rand_img(seed, w=24, h=20, low=1, high=255)
        inv = GrayImage((255 - img.pixels).astype(np.uint8))
        assert np.array_equal(fast_n(img, 9, 25), fast_n(inv, 9, 25))

    def test_score_field_consistent_with_detection(self):
        # margin formulation (score field) vs run-length formulation (labels
        # of the ring codes) of the same criterion
        img = _rand_img(3)
        for n in (9, 12):
            field = sg.segment_score_field(img, n)
            assert not field[:3].any() and not field[-3:].any()
            assert not field[:, :3].any() and not field[:, -3:].any()
            for t in (4, 19, 70, 200):
                labels = sg.config_labels(ring_codes(img, t), n)
                assert np.array_equal(labels, field[3:-3, 3:-3].ravel() >= t)

    def test_ring_codes_match_scalar(self):
        img = _rand_img(4, w=20, h=16)
        want = [sum(pixel_state(at(img, x, y), at(img, x + dx, y + dy), 25) * 3**i
                    for i, (dx, dy) in enumerate(RING16.offsets))
                for y in range(3, img.height - 3) for x in range(3, img.width - 3)]
        assert ring_codes(img, 25).tolist() == want


def ring_image(centre: int, ring: int) -> np.ndarray:
    """7x7 pixels whose one interior pixel has the given centre and ring."""
    a = np.full((7, 7), centre, dtype=np.uint8)
    for dx, dy in RING_OFFSETS:
        a[3 + dy, 3 + dx] = ring
    return a


@st.composite
def corner_images(draw) -> np.ndarray:
    """Pixels 7..12 on a side, drawn with 0, 1, 254 and 255 favoured, on
    which up to three interior pixels get an arc of 9..16 ring pixels all
    brighter or all darker than their centre."""
    h, w = draw(st.integers(7, 12)), draw(st.integers(7, 12))
    value = st.sampled_from([0, 1, 254, 255]) | st.integers(0, 255)
    a = np.array(draw(st.lists(value, min_size=h * w, max_size=h * w)),
                 dtype=np.uint8).reshape(h, w)
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.integers(3, w - 4)), draw(st.integers(3, h - 4))
        brighter = draw(st.booleans())
        c = draw(st.integers(0, 254) if brighter else st.integers(1, 255))
        a[y, x] = c
        start, length = draw(st.integers(0, 15)), draw(st.integers(9, 16))
        for i in range(start, start + length):
            dx, dy = RING_OFFSETS[i % 16]
            a[y + dy, x + dx] = draw(st.integers(c + 1, 255) if brighter
                                     else st.integers(0, c - 1))
    return a


def oracle_field(img: GrayImage, n: int) -> np.ndarray:
    """``segment_score`` at every pixel at least 3 from the edges, else 0."""
    want = np.zeros(img.shape, dtype=np.int16)
    for y in range(3, img.height - 3):
        for x in range(3, img.width - 3):
            want[y, x] = segment_score(img, x, y, n, RING_OFFSETS)
    return want


class TestScoreField:
    """``segment_score_field`` against the scalar ``segment_score`` at every
    pixel, for every arc length."""

    @given(corner_images(), st.integers(1, 20))
    @example(ring_image(0, 255), 1)
    @example(ring_image(255, 0), 1)
    @example(ring_image(0, 0), 1)
    def test_matches_scalar_oracle(self, a, block_pixels):
        # once in one block of rows, and once in blocks of as few as one row
        img = GrayImage(a)
        for n in range(9, 17):
            want = oracle_field(img, n)
            field = sg.segment_score_field(img, n)
            assert field.dtype == np.int16
            assert np.array_equal(field, want), n
            with mock.patch.object(rt, "_BLOCK_PIXELS", block_pixels):
                assert np.array_equal(sg.segment_score_field(img, n), want), n

    @given(arrays(np.uint8, st.tuples(st.integers(1, 6), st.integers(1, 12)),
                  elements=st.sampled_from([0, 255]) | st.integers(0, 255)),
           st.booleans())
    def test_images_6_pixels_or_less_on_a_side_are_all_0(self, a, transpose):
        img = GrayImage(a.T if transpose else a)
        for n in range(9, 17):
            field = sg.segment_score_field(img, n)
            assert field.shape == img.shape and field.dtype == np.int16
            assert not field.any() and not oracle_field(img, n).any()


class TestHighSpeedReject:
    def test_constant_rejects(self):
        img = constant_image(16, 16, 90)
        assert high_speed_reject(img, (8, 8), 20, RING_OFFSETS)

    def test_full_bright_ring_not_rejected(self):
        a = np.zeros((16, 16), dtype=np.uint8)
        for dx, dy in RING_OFFSETS:
            a[8 + dy, 8 + dx] = 255
        img = GrayImage(a)
        assert not high_speed_reject(img, (8, 8), 30, RING_OFFSETS)

    def test_soundness_on_random_patches(self):
        # reject => the full n=12 test also says non-corner
        rng = np.random.default_rng(11)
        img = GrayImage(rng.integers(0, 256, (60, 70)).astype(np.uint8))
        t = 25
        corners = {tuple(p) for p in fast_n(img, 12, t).tolist()}
        checked = 0
        for y in range(3, img.height - 3):
            for x in range(3, img.width - 3):
                if high_speed_reject(img, (x, y), t, RING_OFFSETS):
                    assert (x, y) not in corners
                    checked += 1
        assert checked > 1000

    def test_soundness_exhaustive_quadruple(self):
        # over all 3^16 configs: both-similar or <3 aligned of {1,9,5,13}
        # never coincides with an n=12 corner
        labels = sg.label_all_configs(12)
        codes = np.arange(sg.N_CONFIGS, dtype=np.int64)
        quad = []
        for i in (0, 8, 4, 12):  # ring indices 1, 9, 5, 13
            quad.append(((codes // 3**i) % 3).astype(np.int8))
        s1, s9, s5, s13 = quad
        both_similar = (s1 == 1) & (s9 == 1)
        nb = sum((s == 2).astype(np.int8) for s in quad)
        nd = sum((s == 0).astype(np.int8) for s in quad)
        reject = both_similar | (np.maximum(nb, nd) < 3)
        assert not (reject & labels).any()
