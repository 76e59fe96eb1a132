import numpy as np
import pytest

from conftest import classify_rows
from cornerforge.trees import (CompiledTree, LEAF0, LEAF1, Leaf, Node,
                               OffsetTable, RING16, TreeFormatError,
                               default_offsets_48, deserialize_tree, merge_tree,
                               serialize_tree, tree_depth, tree_size)


def random_tree(rng, table=RING16, p_leaf=0.4, depth=0):
    if depth > 6 or rng.random() < p_leaf:
        return Leaf(int(rng.integers(0, 2)))
    offset = table.index_base + int(rng.integers(0, len(table)))
    return Node(offset,
                b=random_tree(rng, table, p_leaf, depth + 1),
                s=random_tree(rng, table, p_leaf, depth + 1),
                d=random_tree(rng, table, p_leaf, depth + 1))


class TestOffsetTable:
    def test_ring16_is_one_based(self):
        assert RING16.xy(1) == (0, -3)
        assert RING16.xy(16) == (-1, -3)
        with pytest.raises(ValueError):
            RING16.xy(0)
        with pytest.raises(ValueError):
            RING16.xy(17)

    def test_margin(self):
        assert RING16.margin == 3
        assert default_offsets_48().margin == 3

    def test_distinct_offsets_enforced(self):
        with pytest.raises(ValueError):
            OffsetTable("dup", ((0, 1), (0, 1)), 0)


class TestSizeDepth:
    def test_leaf(self):
        assert tree_size(LEAF0) == 0
        assert tree_depth(LEAF1) == 0

    def test_counts_positions_with_sharing(self):
        shared = Node(2, b=LEAF1, s=LEAF0, d=LEAF0)
        tree = Node(1, b=shared, s=shared, d=LEAF0)
        assert tree_size(tree) == 3  # the shared child counts per position
        assert tree_depth(tree) == 2
        # 3 decision positions (the root and `shared` twice) plus 7 leaf
        # positions (3 under each copy of `shared` and the root's d leaf),
        # written pre-order b, s, d.
        records = serialize_tree(tree, RING16).decode().splitlines()[1:]
        assert records == ["N 1", "N 2", "L 1", "L 0", "L 0",
                           "N 2", "L 1", "L 0", "L 0", "L 0"]
        assert sum(r.startswith("N") for r in records) == tree_size(tree)


class TestMerge:
    def test_equal_siblings_become_shared(self):
        kid = lambda: Node(5, b=LEAF1, s=LEAF0, d=LEAF0)
        tree = Node(1, b=kid(), s=kid(), d=LEAF0)
        merged = merge_tree(tree)
        assert merged.b is merged.s

    def test_classification_unchanged(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tree = random_tree(rng)
            merged = merge_tree(tree)
            states = rng.integers(0, 3, (500, 16)).astype(np.uint8)
            assert np.array_equal(classify_rows(tree, states),
                                  classify_rows(merged, states))
            assert merged == tree  # structural equality is preserved too


class TestSerialization:
    def test_leaf_format(self):
        assert serialize_tree(LEAF1, RING16) == b"FASTTREE v1 offsets=16\nL 1\n"

    def test_node_format_preorder_bsd(self):
        tree = Node(5, b=LEAF1, s=LEAF0, d=Leaf(1))
        blob = serialize_tree(tree, RING16)
        assert blob == b"FASTTREE v1 offsets=16\nN 5\nL 1\nL 0\nL 1\n"

    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            tree = random_tree(rng)
            back, table = deserialize_tree(serialize_tree(tree, RING16))
            assert back == tree
            assert table is RING16

    def test_round_trip_48_offsets_with_table(self):
        table = default_offsets_48()
        rng = np.random.default_rng(5)
        tree = random_tree(rng, table)
        blob = serialize_tree(tree, table)
        assert blob.startswith(b"FASTTREE v1 offsets=48\nO 0 ")
        back, btable = deserialize_tree(blob)
        assert back == tree
        assert btable.offsets == table.offsets

    def test_offset_out_of_range(self):
        with pytest.raises(TreeFormatError, match="line 2"):
            deserialize_tree(b"FASTTREE v1 offsets=16\nN 99\nL 0\nL 0\nL 0\n")

    def test_truncated_tree(self):
        with pytest.raises(TreeFormatError, match="line"):
            deserialize_tree(b"FASTTREE v1 offsets=16\nN 5\nL 0\nL 0\n")

    def test_trailing_garbage(self):
        with pytest.raises(TreeFormatError, match="trailing"):
            deserialize_tree(b"FASTTREE v1 offsets=16\nL 0\nL 1\n")

    def test_bad_header(self):
        with pytest.raises(TreeFormatError, match="line 1"):
            deserialize_tree(b"TREE v2\nL 0\n")

    def test_bad_leaf_class(self):
        with pytest.raises(TreeFormatError):
            deserialize_tree(b"FASTTREE v1 offsets=16\nL 7\n")


class TestCompiledTree:
    def test_leaf_root(self):
        ct = CompiledTree(LEAF1, RING16)
        assert ct.root == -2
        assert len(ct.dx) == 0

    def test_children_layout(self):
        tree = Node(1, b=LEAF1, s=LEAF0, d=Leaf(1))
        ct = CompiledTree(tree, RING16)
        assert ct.root == 0
        assert list(ct.children[0]) == [-2, -1, -2]  # d, s, b outcomes
        assert (ct.dx[0], ct.dy[0]) == (0, -3)

    def test_shared_subtree_compiles_once(self):
        kid = Node(2, b=LEAF1, s=LEAF0, d=LEAF0)
        tree = merge_tree(Node(1, b=kid, s=kid, d=LEAF0))
        ct = CompiledTree(tree, RING16)
        assert len(ct.dx) == 2
