"""Regenerate the benchmark's detector trees.

    python3 benchmark/fixtures/make_fixtures.py

fast9_ring16.tree: FAST-9 over the 16-pixel ring, learned from three
synthetic 320x240 images (seeds 1-3) at t=35 with weight scale 256, padded
with all 3^16 ring configurations at weight 1, second test shared. The
exhaustive padding makes it exactly the segment test.

fast9_grid48.tree: the same tree with every ring offset renumbered to its
cell in the 48-offset 7x7 table. The segment test is symmetric under the
sixteen transforms, so the sixteen-fold detector built on it is FAST-9 too.

Prints the sha256 of each file; copy them into FIXTURE_SHA256 in
benchmark/workloads.py. Takes about 80 s and 2 GB of memory.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from cornerforge import learn  # noqa: E402
from cornerforge.annealing import default_offsets_48  # noqa: E402
from cornerforge.datasets import synthetic_base_image  # noqa: E402
from cornerforge.trees import (RING16, Leaf, Node, deserialize_tree,  # noqa: E402
                               serialize_tree)


def ring16_tree():
    train = [synthetic_base_image(320, 240, s) for s in (1, 2, 3)]
    ts = learn.extract_training_data(train, 9, 35, weight_scale=256)
    ts = learn.augment_exhaustive(ts, 9, low_weight=1)
    return learn.force_shared_second_test(learn.build_tree(ts), ts)


def remap(tree, src, dst):
    """The same tree with each offset index renamed to ``dst``'s index of
    the same (dx, dy); shared subtrees stay shared."""
    index = {xy: dst.index_base + k for k, xy in enumerate(dst.offsets)}
    memo = {}

    def rec(t):
        if isinstance(t, Leaf):
            return t
        got = memo.get(id(t))
        if got is None:
            got = Node(index[src.xy(t.offset)], b=rec(t.b), s=rec(t.s), d=rec(t.d))
            memo[id(t)] = got
        return got

    return rec(tree)


def main() -> None:
    ring = serialize_tree(ring16_tree(), RING16)
    tree, _ = deserialize_tree(ring)
    grid = default_offsets_48()
    wide = serialize_tree(remap(tree, RING16, grid), grid)
    for name, data in (("fast9_ring16.tree", ring), ("fast9_grid48.tree", wide)):
        (HERE / name).write_bytes(data)
        print(name, hashlib.sha256(data).hexdigest())


if __name__ == "__main__":
    main()
