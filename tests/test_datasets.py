import numpy as np
import pytest

from cornerforge.datasets import make_dataset, synthetic_base_image


def build(seed, n_frames=4):
    return make_dataset(synthetic_base_image(40, 32, seed), n_frames, 1.0,
                        2.0, seed)


class TestMakeDataset:
    def test_deterministic_per_seed(self):
        (fa, wa), (fb, wb) = build(3), build(3)
        assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(fa, fb))
        assert wa.keys() == wb.keys()
        assert all(np.array_equal(wa[k].matrix, wb[k].matrix) for k in wa)

    def test_seeds_differ(self):
        (fa, wa), (fb, wb) = build(3), build(4)
        assert all(not np.array_equal(a.pixels, b.pixels)
                   for a, b in zip(fa, fb))
        assert all(not np.array_equal(wa[k].matrix, wb[k].matrix) for k in wa)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pair_warps_invert_each_other(self, seed):
        frames, warps = build(seed)
        n = len(frames)
        assert sorted(warps) == [(i, j) for i in range(n) for j in range(n)
                                 if i != j]
        for (i, j), w in warps.items():
            product = w.matrix @ warps[(j, i)].matrix
            assert np.allclose(product / product[2, 2], np.eye(3),
                               rtol=0, atol=1e-9)
            assert w.target_size == (frames[j].width, frames[j].height)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("which", ["warp_magnitude", "noise_sigma"])
    def test_rejects_a_magnitude_that_is_not_finite_and_at_least_0(
            self, which, bad):
        args = {"warp_magnitude": 1.0, "noise_sigma": 2.0, which: bad}
        with pytest.raises(ValueError, match="finite and >= 0"):
            make_dataset(synthetic_base_image(40, 32, 1), 3, seed=1, **args)
