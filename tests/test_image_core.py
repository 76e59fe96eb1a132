import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import at, midpoint_circle_r3
from conftest import constant_image, make_test_square
from cornerforge.image import (RING_OFFSETS, GrayImage, PgmError,
                               add_gaussian_noise, load_pgm, save_pgm)


class TestPgm:
    def test_layout(self):
        img = load_pgm(b"P5\n2 2\n255\n" + bytes([0, 255, 10, 20]))
        assert (img.width, img.height) == (2, 2)
        assert at(img, 1, 0) == 255
        assert at(img, 0, 1) == 10

    def test_round_trip_canonical_bytes(self):
        blob = b"P5\n3 2\n255\n" + bytes([5, 6, 7, 8, 9, 10])
        assert save_pgm(load_pgm(blob)) == blob

    def test_ascii_variant_rejected(self):
        with pytest.raises(PgmError, match="ASCII"):
            load_pgm(b"P2\n2 2\n255\n0 1 2 3")

    def test_bad_magic(self):
        with pytest.raises(PgmError, match="bad magic"):
            load_pgm(b"P6\n1 1\n255\n\x00")

    def test_maxval_over_255(self):
        with pytest.raises(PgmError, match="exceeds 255"):
            load_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_sample_over_maxval(self):
        with pytest.raises(PgmError, match="sample 255 exceeds maxval 15"):
            load_pgm(b"P5\n4 2\n15\n" + bytes([200, 0, 15, 255, 1, 2, 3, 4]))

    def test_low_maxval_not_rescaled(self):
        img = load_pgm(b"P5\n3 1\n15\n" + bytes([0, 7, 15]))
        assert img.pixels.tolist() == [[0, 7, 15]]

    def test_truncated_payload(self):
        with pytest.raises(PgmError, match="raster has 2 bytes, expected 16"):
            load_pgm(b"P5\n4 4\n255\n\x00\x01")

    def test_header_comment_allowed(self):
        img = load_pgm(b"P5\n# a comment\n2 1\n255\nab")
        assert at(img, 0, 0) == ord("a")

    @given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1))
    def test_round_trip_random_images(self, w, h, seed):
        rng = np.random.default_rng(seed)
        img = GrayImage(rng.integers(0, 256, (h, w)).astype(np.uint8))
        back = load_pgm(save_pgm(img))
        assert np.array_equal(back.pixels, img.pixels)


class TestRingOffsets:
    def test_start_and_table(self):
        offs = RING_OFFSETS
        assert offs[0] == (0, -3)
        assert offs == ((0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1),
                        (2, 2), (1, 3), (0, 3), (-1, 3), (-2, 2), (-3, 1),
                        (-3, 0), (-3, -1), (-2, -2), (-1, -3))

    def test_matches_bresenham_circle(self):
        assert set(RING_OFFSETS) == midpoint_circle_r3()

    def test_index_9_antipode_of_1(self):
        offs = RING_OFFSETS
        assert offs[8] == (0, 3)
        assert offs[8] == (-offs[0][0], -offs[0][1])

    def test_5_13_antipodal(self):
        offs = RING_OFFSETS
        assert offs[4] == (-offs[12][0], -offs[12][1])

    def test_full_antipodality(self):
        offs = RING_OFFSETS
        for i in range(16):
            a, b = offs[i], offs[(i + 8) % 16]
            assert (a[0] + b[0], a[1] + b[1]) == (0, 0)

    def test_distinct_and_bounded(self):
        offs = RING_OFFSETS
        assert len(set(offs)) == 16
        assert max(max(abs(dx), abs(dy)) for dx, dy in offs) == 3


class TestSquareFixture:
    def test_pixel_count(self):
        img = make_test_square(64, 30, fg=255, bg=0)
        assert int((img.pixels == 255).sum()) == 900

    def test_equal_intensities_constant(self):
        img = make_test_square(32, 10, fg=77, bg=77)
        assert (img.pixels == 77).all()

    def test_zero_square_constant_bg(self):
        img = make_test_square(32, 0, fg=255, bg=9)
        assert (img.pixels == 9).all()

    def test_square_must_fit(self):
        with pytest.raises(ValueError):
            make_test_square(16, 16)


class TestNoise:
    def test_sigma_zero_identity(self):
        img = make_test_square(32, 10)
        assert np.array_equal(add_gaussian_noise(img, 0, 1).pixels, img.pixels)

    def test_seed_determinism(self):
        img = make_test_square(40, 12, 200, 30)
        a = add_gaussian_noise(img, 10, 42)
        b = add_gaussian_noise(img, 10, 42)
        assert np.array_equal(a.pixels, b.pixels)
        c = add_gaussian_noise(img, 10, 43)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_clamping_asymmetry_on_black(self):
        # sample-mean oracle over >= 1e5 pixels: clamping at 0 pulls the
        # mean of noise(constant 0) strictly above 0
        img = constant_image(400, 300, 0)
        noisy = add_gaussian_noise(img, 255, 7)
        assert noisy.pixels.size >= 100_000
        assert noisy.pixels.mean() > 50  # half-normal mean ~ 0.4*255 before clamp

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_gaussian_noise(make_test_square(16, 4), -1, 0)


class TestGrayImage:
    def test_immutable(self):
        img = make_test_square(16, 4)
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 3

    def test_validation(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            GrayImage(np.zeros((4, 4), dtype=np.int16))
