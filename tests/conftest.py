import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cornerforge import learn
from cornerforge.annealing import default_offsets_48
from cornerforge.image import GrayImage
from cornerforge.trees import RING16, Leaf, Node

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")


def random_image(rng, w=48, h=40, low=0, high=256) -> GrayImage:
    return GrayImage(rng.integers(low, high, (h, w)).astype(np.uint8))


@pytest.fixture(scope="session")
def fast9_tree():
    """Exhaustively augmented FAST-9 tree: exactly the segment test."""
    ts = learn.augment_exhaustive(learn.empty_training_set(), 9)
    return learn.build_tree(ts)


@pytest.fixture(scope="session")
def fast9_grid48(fast9_tree):
    """``fast9_tree`` with each ring offset renamed to its cell of the
    48-offset 7x7 table, and that table. The segment test is symmetric under
    the sixteen transforms, so its sixteen-fold detector is FAST-9 too."""
    grid = default_offsets_48()
    index = {xy: grid.index_base + k for k, xy in enumerate(grid.offsets)}
    memo = {}

    def rename(t):
        if isinstance(t, Leaf):
            return t
        if id(t) not in memo:
            memo[id(t)] = Node(index[RING16.xy(t.offset)], b=rename(t.b),
                               s=rename(t.s), d=rename(t.d))
        return memo[id(t)]

    return rename(fast9_tree), grid
