import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cornerforge import learn
from cornerforge.annealing import default_offsets_48
from cornerforge.detectors import SixteenFoldDetector
from cornerforge.image import GrayImage
from cornerforge.runtime import PlaneWalk
from cornerforge.trees import RING16, CompiledTree, Leaf, Node

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")


def random_image(rng, w=48, h=40, low=0, high=256) -> GrayImage:
    return GrayImage(rng.integers(low, high, (h, w)).astype(np.uint8))


def edge_image(rng, t: int, h: int, w: int) -> GrayImage:
    """Pixels from 0, 255 and a base value v with v +- t and v +- (t - 1),
    so that many ring - centre differences sit on a state boundary."""
    v = int(rng.integers(0, 256))
    palette = np.clip([0, 255, v, v + t, v - t, v + t - 1, v - t + 1], 0, 255)
    return GrayImage(rng.choice(palette, (h, w)).astype(np.uint8))


def classify_rows(tree, states: np.ndarray, table=RING16) -> np.ndarray:
    """The tree's class for each row of an (N, len(table)) state matrix,
    whose column j is offset ``table.index_base + j``: the package's plane
    walk with the rows as planes."""
    return PlaneWalk([CompiledTree(tree, table)], table.offsets).fired(states.T)


def sixteenfold_field(tree, img: GrayImage, t: int, table=None) -> np.ndarray:
    """Boolean corner field of the sixteen-fold detector at threshold t,
    False on the border."""
    det = SixteenFoldDetector(tree, table)
    field = np.zeros(img.shape, dtype=bool)
    xs, ys = det.walk.detect(img, t, det.table.margin).T
    field[ys, xs] = True
    return field


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
