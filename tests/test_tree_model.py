import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import preorder_nodes, tree_depth
from cornerforge import learn
from cornerforge.annealing import mutate, random_depth1_tree
from cornerforge.datasets import synthetic_base_image
from cornerforge.detectors import TreeDetector
from cornerforge.trees import (CompiledTree, LEAF0, LEAF1, MAX_DEPTH, Leaf,
                               Node, OffsetTable, RING16, TreeFormatError,
                               default_offsets_48, deserialize_tree,
                               serialize_tree, tree_size)


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

    def test_48_offsets_need_their_table(self):
        with pytest.raises(TreeFormatError, match="offset table"):
            deserialize_tree(b"FASTTREE v1 offsets=48\nN 20\nL 1\nL 0\nL 1\n")


def chain_file(depth):
    """A 16-offset tree file whose decision nodes nest ``depth`` deep along
    their b branches, to a corner leaf."""
    lines = ([f"N {1 + k % 16}" for k in range(depth)] + ["L 1"]
             + ["L 0"] * 2 * depth)
    return ("FASTTREE v1 offsets=16\n" + "\n".join(lines) + "\n").encode()


class TestDepthBound:
    def test_every_consumer_takes_a_tree_at_the_bound(self):
        # parsing, writing, sizing, compiling, comparing, hashing, mutating
        # and detecting recurse in the depth; none reaches the recursion limit
        tree, table = deserialize_tree(chain_file(MAX_DEPTH))
        again = deserialize_tree(chain_file(MAX_DEPTH))[0]
        assert tree is not again and tree == again and hash(tree) == hash(again)
        assert repr(tree).count("Node(") == MAX_DEPTH
        assert tree_depth(tree) == tree_size(tree) == MAX_DEPTH
        assert serialize_tree(tree, table) == chain_file(MAX_DEPTH)
        assert len(CompiledTree(tree, table).dx) == MAX_DEPTH
        rng = np.random.default_rng(0)
        for _ in range(5):
            mutate(tree, rng, table)
        # the tree fires where all 16 ring pixels are brighter, and scores
        # the least of their differences from the centre
        img = synthetic_base_image(24, 20, 1)
        p = img.pixels.astype(np.int16)
        diff = np.min([np.roll(p, (-dy, -dx), (0, 1)) - p
                       for dx, dy in table.offsets], axis=0)
        want = np.zeros_like(diff)
        want[3:-3, 3:-3] = np.maximum(diff, 0)[3:-3, 3:-3]
        grid = TreeDetector(tree, table).score_grid(img)
        assert np.array_equal(grid, want) and grid.any()

    def test_one_node_deeper_is_a_format_error(self):
        # the node past the bound is on line MAX_DEPTH + 2, after the header
        with pytest.raises(TreeFormatError,
                           match=f"line {MAX_DEPTH + 2}: nodes nest deeper"):
            deserialize_tree(chain_file(MAX_DEPTH + 1))


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

    def test_shared_subtree_compiles_per_position(self):
        kid = Node(2, b=LEAF1, s=LEAF0, d=LEAF0)
        ct = CompiledTree(Node(1, b=kid, s=kid, d=LEAF0), RING16)
        assert len(ct.dx) == 3
        assert ct.children.tolist() == [[-1, 2, 1], [-1, -1, -2], [-1, -1, -2]]


def check_positions(tree, table):
    """``CompiledTree``'s node ids are the tree's positions in pre-order,
    and a file round trip compiles to the same arrays."""
    ct = CompiledTree(tree, table)
    nodes = preorder_nodes(tree)
    assert len(ct.dx) == len(nodes) == tree_size(tree)
    assert ct.root == (0 if nodes else -1 - tree.cls)
    for p, node in enumerate(nodes):
        assert (ct.dx[p], ct.dy[p]) == table.xy(node.offset)
        # the b, s and d subtrees take the ids after p in turn; the state
        # columns of ``children`` are d, s, b
        want, first = [], p + 1
        for child in (node.b, node.s, node.d):
            want.append(first if isinstance(child, Node) else -1 - child.cls)
            first += len(preorder_nodes(child))
        assert ct.children[p].tolist() == want[::-1]
        seen, stack = set(), [p]
        while stack:
            k = stack.pop()
            if k not in seen:
                seen.add(k)
                stack.extend(c for c in ct.children[k].tolist() if c >= 0)
        assert seen == set(range(p, p + len(preorder_nodes(node))))
    back = CompiledTree(*deserialize_tree(serialize_tree(tree, table)))
    assert back.root == ct.root
    for name in ("dx", "dy", "children"):
        assert np.array_equal(getattr(back, name), getattr(ct, name))


class TestPositions:
    """Trees whose subtree objects sit at several positions compile one node
    per position, in pre-order."""

    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 60))
    def test_mutated_trees(self, seed, steps):
        # mutation may copy one branch of a node over another, which puts
        # one subtree object at two positions
        table = default_offsets_48()
        rng = np.random.default_rng(seed)
        tree = random_depth1_tree(rng, table)
        for _ in range(steps):
            tree = mutate(tree, rng, table)
        check_positions(tree, table)

    @given(data=st.data(), k=st.integers(2, 5), low=st.integers(1, 4))
    def test_built_trees(self, data, k, low):
        # an exhaustive set over the first k ring offsets: ID3 grows each
        # row-free slice once and reuses that subtree wherever its key recurs
        labels = data.draw(arrays(np.bool_, (3**k,)))
        codes = np.array(sorted(data.draw(st.sets(st.integers(0, 3**k - 1),
                                                  max_size=10))), dtype=np.int64)
        weights = data.draw(arrays(np.int64, codes.shape,
                                   elements=st.integers(0, 1000)))
        observed = learn.TrainingSet(
            states=learn.states_from_codes(codes)[:, :k], labels=labels[codes],
            weights=weights,
            offsets=OffsetTable("ring-prefix", RING16.offsets[:k], 1))
        tree = learn.build_tree(learn.ExhaustiveSet(
            labels=labels, low_weight=low, observed=observed))
        check_positions(tree, RING16)  # indices 1..k are the ring's own

    def test_exhaustive_fast9(self, fast9_tree):
        check_positions(fast9_tree, RING16)
