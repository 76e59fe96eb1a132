import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import corner_config_count, high_speed_reject, segment_label
from cornerforge import segment as sg
from cornerforge.image import GrayImage, make_test_square

# frozen from the independent bright/dark mask enumeration in _oracles
CORNER_CONFIG_COUNTS = {9: 46_658, 12: 1_730, 16: 2}


def _rand_img(seed, w=48, h=40, low=0, high=256):
    rng = np.random.default_rng(seed)
    return GrayImage(rng.integers(low, high, (h, w)).astype(np.uint8))


class TestPixelState:
    def test_brighter(self):
        assert sg.pixel_state(100, 140, 35) == sg.PixelState.BRIGHTER

    def test_darker_boundary(self):
        assert sg.pixel_state(100, 65, 35) == sg.PixelState.DARKER

    def test_similar(self):
        assert sg.pixel_state(100, 70, 35) == sg.PixelState.SIMILAR

    def test_brighter_boundary_inclusive(self):
        assert sg.pixel_state(100, 135, 35) == sg.PixelState.BRIGHTER

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            sg.pixel_state(100, 100, 0)


class TestRingConfig:
    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            states = [int(v) for v in rng.integers(0, 3, 16)]
            code = sg.encode_ring_config(states)
            assert [int(s) for s in sg.decode_ring_config(code)] == states

    def test_canonical_digit_order(self):
        # digit i of the code is the state of ring index i+1
        states = [sg.SIMILAR] * 16
        states[0] = sg.BRIGHTER
        all_similar = sum(3**i for i in range(16))
        assert sg.encode_ring_config(states) == all_similar + 1

    def test_space_size(self):
        assert sg.N_CONFIGS == 43_046_721


class TestIsCornerConfig:
    def test_twelve_contiguous_brighter(self):
        states = [sg.BRIGHTER] * 12 + [sg.SIMILAR] * 4
        assert sg.is_corner_config(sg.encode_ring_config(states), 12)

    def test_all_similar_never_corner(self):
        code = sg.encode_ring_config([sg.SIMILAR] * 16)
        for n in (9, 12, 16):
            assert not sg.is_corner_config(code, n)

    def test_wraparound_run_counts(self):
        # run crosses the 16 -> 1 boundary: indices 12..16 and 1..4
        states = [sg.SIMILAR] * 16
        for i in list(range(11, 16)) + list(range(0, 4)):
            states[i] = sg.DARKER
        assert sg.is_corner_config(sg.encode_ring_config(states), 9)

    def test_golden_counts(self):
        for n, count in CORNER_CONFIG_COUNTS.items():
            assert int(sg.label_all_configs(n).sum()) == count

    def test_counts_against_inline_oracle(self):
        for n in (14, 15, 16):
            assert int(sg.label_all_configs(n).sum()) == corner_config_count(n)

    def test_scalar_matches_oracle_on_random_configs(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            states = [int(v) for v in rng.integers(0, 3, 16)]
            code = sg.encode_ring_config(states)
            for n in (9, 12):
                assert sg.is_corner_config(code, n) == segment_label(states, n)

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(6)
        codes = rng.integers(0, sg.N_CONFIGS, 500)
        got = sg.config_labels(codes, 9)
        assert all(sg.is_corner_config(int(c), 9) == bool(v)
                   for c, v in zip(codes, got))

    def test_unsupported_n(self):
        for n in (5, 8, 17):
            with pytest.raises(ValueError):
                sg.is_corner_config(0, n)


class TestDetect:
    def test_constant_image_empty(self):
        assert len(sg.detect_fast_n(GrayImage.constant(32, 32, 128), 9, 10)) == 0

    def test_square_corners_only(self):
        img = make_test_square(64, 30, fg=255, bg=0)
        pts = sg.detect_fast_n(img, 9, 30)
        assert len(pts) > 0
        tips = np.array([(17, 17), (46, 17), (17, 46), (46, 46)])
        dist = np.abs(pts[:, None, :] - tips[None, :, :]).max(axis=2).min(axis=1)
        # every detection hugs a corner tip; nothing along the straight edges
        assert (dist <= 3).all()
        for tip in tips:
            assert (np.abs(pts - tip).max(axis=1) <= 3).any()

    def test_threshold_monotone_subsets(self):
        img = _rand_img(1)
        low = {tuple(p) for p in sg.detect_fast_n(img, 9, 40)}
        high = {tuple(p) for p in sg.detect_fast_n(img, 9, 80)}
        assert high <= low

    def test_rotation_equivariance(self):
        img = _rand_img(2)
        pts = sg.detect_fast_n(img, 9, 18)
        mask = np.zeros(img.shape, dtype=bool)
        mask[pts[:, 1], pts[:, 0]] = True
        rot = GrayImage(np.rot90(img.pixels).copy())
        rpts = sg.detect_fast_n(rot, 9, 18)
        rmask = np.zeros(rot.shape, dtype=bool)
        rmask[rpts[:, 1], rpts[:, 0]] = True
        assert np.array_equal(rmask, np.rot90(mask))

    @given(st.integers(0, 10_000))
    def test_intensity_inversion_invariance(self, seed):
        img = _rand_img(seed, w=24, h=20, low=1, high=255)
        inv = GrayImage((255 - img.pixels).astype(np.uint8))
        assert np.array_equal(sg.detect_fast_n(img, 9, 25),
                              sg.detect_fast_n(inv, 9, 25))

    def test_score_field_consistent_with_detection(self):
        # margin formulation vs run-length formulation of the same criterion
        img = _rand_img(3)
        for n in (9, 12):
            field = sg.segment_score_field(img, n)
            for t in (4, 19, 70, 200):
                pts = sg.detect_fast_n(img, n, t)
                mask = np.zeros(img.shape, dtype=bool)
                if len(pts):
                    mask[pts[:, 1], pts[:, 0]] = True
                assert np.array_equal(mask, field >= t)

    def test_config_field_matches_scalar(self):
        img = _rand_img(4, w=20, h=16)
        codes = sg.config_field(img, 25)
        rng = np.random.default_rng(0)
        for _ in range(40):
            x = int(rng.integers(3, img.width - 3))
            y = int(rng.integers(3, img.height - 3))
            assert codes[y - 3, x - 3] == sg.ring_config_at(img, x, y, 25)


class TestHighSpeedReject:
    def test_constant_rejects(self):
        img = GrayImage.constant(16, 16, 90)
        assert high_speed_reject(img, (8, 8), 20, sg.RING_OFFSETS)

    def test_full_bright_ring_not_rejected(self):
        a = np.zeros((16, 16), dtype=np.uint8)
        for dx, dy in sg.RING_OFFSETS:
            a[8 + dy, 8 + dx] = 255
        img = GrayImage(a)
        assert not high_speed_reject(img, (8, 8), 30, sg.RING_OFFSETS)

    def test_soundness_on_random_patches(self):
        # reject => the full n=12 test also says non-corner
        rng = np.random.default_rng(11)
        img = GrayImage(rng.integers(0, 256, (60, 70)).astype(np.uint8))
        t = 25
        corners = {tuple(p) for p in sg.detect_fast_n(img, 12, t)}
        checked = 0
        for y in range(3, img.height - 3):
            for x in range(3, img.width - 3):
                if high_speed_reject(img, (x, y), t, sg.RING_OFFSETS):
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
