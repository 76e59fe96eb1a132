from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cornerforge import learn
from cornerforge.detectors import SixteenFoldDetector, TreeDetector
from cornerforge.image import GrayImage
from cornerforge.runtime import PlaneWalk
from cornerforge.trees import (RING16, CompiledTree, Leaf, Node,
                               default_offsets_48, deserialize_tree)

FIXTURES = Path(__file__).parent / "fixtures"

settings.register_profile(
    "suite", max_examples=25, deadline=None, print_blob=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")


def random_image(rng, w=48, h=40, low=0, high=256) -> GrayImage:
    return GrayImage(rng.integers(low, high, (h, w)).astype(np.uint8))


def constant_image(width: int, height: int, value: int = 0) -> GrayImage:
    return GrayImage(np.full((height, width), value, dtype=np.uint8))


def make_test_square(size: int, square: int, fg: int = 255, bg: int = 0) -> GrayImage:
    """Centered axis-aligned square of intensity ``fg`` on a ``bg`` field."""
    if square >= size:
        raise ValueError(f"square {square} must be smaller than size {size}")
    a = np.full((size, size), bg, dtype=np.uint8)
    if square > 0:
        off = (size - square) // 2
        a[off : off + square, off : off + square] = fg
    return GrayImage(a)


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


def tree_positions(tree, img: GrayImage, t: int, table=RING16) -> np.ndarray:
    """Positions at least the table's margin from every edge that the tree
    classifies as corners at threshold t, as (M, 2) int32 [x, y] rows in
    raster order: the package's plane walk of the one compiled tree."""
    return PlaneWalk([CompiledTree(tree, table)], table.offsets).detect(
        img, t, table.margin)


def read_keypoints(f) -> np.ndarray:
    """Keypoint rows of an "x y score" file; '#' lines and blanks are skipped."""
    rows = []
    for lineno, line in enumerate(f, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'x y score', got {line!r}")
        rows.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def sixteenfold_field(tree, img: GrayImage, t: int,
                      table=default_offsets_48()) -> np.ndarray:
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


@pytest.fixture(scope="session")
def annealed_trees():
    """(detector class, tree, table) for the two committed learned trees in
    ``tests/fixtures``, whose walks leave pairs uncovered: the annealed
    fixture as faster and its distilled tree as fast-tree.

    ``annealed_1500.tree`` is the ``fx_best.tree`` that
    ``cornerforge anneal --dataset fx --imax 1500 --runs 1 --seed 3 --out fx_``
    writes on the set from
    ``cornerforge make-dataset --synthetic 160x120 --frames 4 --noise 2 --seed 1 --out fx``
    (30 nodes), and ``annealed_1500_distilled.tree`` is
    ``cornerforge distill --tree fx_best.tree --dataset fx --t 35 --out fx_distilled.tree``
    on the same set (152 nodes). ``test_golden`` checks their sha256.
    """
    return [(cls, *deserialize_tree((FIXTURES / name).read_bytes()))
            for cls, name in ((SixteenFoldDetector, "annealed_1500.tree"),
                              (TreeDetector, "annealed_1500_distilled.tree"))]
