"""Ternary decision trees over pixel-offset tests.

A tree node tests one offset of the candidate's neighborhood and branches
three ways on the darker/similar/brighter state of that pixel; leaves carry a
0/1 class. The same structure serves the compiled segment test (16 ring
offsets, externally indexed 1..16) and the repeatability-optimized detector
(48 offsets of the 7x7 box, indexed 0..47, ``default_offsets_48``). That
detector applies a tree sixteen ways, under the eight dihedral maps of the
offsets and intensity inversion (``sixteen_fold``); those maps take a table's
offsets to ``sixteen_fold_offsets``.

Trees are values. One subtree object may sit at several positions (a
branch that annealing's mutation copies, a subtree that ID3 grows once for
equal slices), and every consumer treats each position on its own:
``tree_size`` counts positions, the file format writes each, and
``CompiledTree`` gives each its own node id, in pre-order.

File format (line oriented, LF endings, single spaces):

    FASTTREE v1 offsets=<16|48>
    [O <idx> <dx> <dy>]...      offset table, required for offsets=48
    N <offset_index>            decision node, followed by its b, s, d subtrees
    L <0|1>                     leaf

Nodes are written pre-order with children in b, s, d order. No path
passes more than ``MAX_DEPTH`` decision nodes. Every consumer recurses in
the depth, and a node's ``==`` and ``repr`` take three frames a level, so
the bound keeps them all inside Python's default recursion limit of 1000.
Learned trees nest at most 16 deep for FAST-n and 48 for ``distill``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .image import RING_OFFSETS


class TreeFormatError(ValueError):
    """Malformed tree file."""


MAX_DEPTH = 250


@dataclass(frozen=True)
class OffsetTable:
    """Offset geometry a tree's tests refer to.

    ``index_base`` is the external index of the first offset: the 16-ring is
    conventionally 1-based, the 48-offset table 0-based.
    """

    name: str
    offsets: tuple[tuple[int, int], ...]
    index_base: int

    def __post_init__(self):
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError("offsets must be distinct")

    def __len__(self) -> int:
        return len(self.offsets)

    def xy(self, index: int) -> tuple[int, int]:
        """Offset for an external index."""
        row = index - self.index_base
        if not 0 <= row < len(self.offsets):
            raise ValueError(f"offset index {index} out of range for {self.name}")
        return self.offsets[row]

    def indices(self) -> range:
        return range(self.index_base, self.index_base + len(self.offsets))

    @property
    def margin(self) -> int:
        """Interior margin: the maximum Chebyshev magnitude of any offset."""
        return max(max(abs(dx), abs(dy)) for dx, dy in self.offsets)


RING16 = OffsetTable("ring16", RING_OFFSETS, index_base=1)


def default_offsets_48() -> OffsetTable:
    """Shipped default: the 48 cells of the 7x7 neighborhood minus the centre,
    raster order, indexed 0..47.

    The 7x7 box is closed under rotations and reflections, which makes the
    sixteen-fold detector an exact function of the 48 pixel states
    (distillation relies on this).
    """
    cells = [(dx, dy) for dy in range(-3, 4) for dx in range(-3, 4)
             if (dx, dy) != (0, 0)]
    return OffsetTable("grid48", tuple(cells), index_base=0)


# The eight dihedral maps (dx, dy) -> (a*dx + b*dy, c*dx + d*dy).
_DIHEDRAL = []
_rot = (1, 0, 0, 1)
for _ in range(4):
    a, b, c, d = _rot
    _DIHEDRAL.append((a, b, c, d))
    _DIHEDRAL.append((-a, b, -c, d))  # composed with x-flip
    _rot = (-c, -d, a, b)  # quarter turn


@dataclass(frozen=True)
class Leaf:
    cls: int

    def __post_init__(self):
        if self.cls not in (0, 1):
            raise ValueError(f"leaf class must be 0 or 1, got {self.cls}")


@dataclass(frozen=True)
class Node:
    offset: int
    b: "TernaryTree"
    s: "TernaryTree"
    d: "TernaryTree"


TernaryTree = Leaf | Node

LEAF0 = Leaf(0)
LEAF1 = Leaf(1)


def tree_size(tree: TernaryTree) -> int:
    """Number of decision positions: a subtree object at several positions
    counts at each."""
    if isinstance(tree, Leaf):
        return 0
    return 1 + tree_size(tree.b) + tree_size(tree.s) + tree_size(tree.d)


def serialize_tree(tree: TernaryTree, table: OffsetTable) -> bytes:
    """The tree in the file format; ``ValueError`` for an offset index
    outside the table."""
    n = len(table)
    if n not in (16, 48):
        raise ValueError(f"unsupported offset count {n}")
    lines = [f"FASTTREE v1 offsets={n}"]
    if n == 48:
        for idx in table.indices():
            dx, dy = table.xy(idx)
            lines.append(f"O {idx} {dx} {dy}")

    def rec(t: TernaryTree) -> None:
        if isinstance(t, Leaf):
            lines.append(f"L {t.cls}")
        else:
            table.xy(t.offset)  # raises on range violation
            lines.append(f"N {t.offset}")
            rec(t.b)
            rec(t.s)
            rec(t.d)

    rec(tree)
    return ("\n".join(lines) + "\n").encode()


def deserialize_tree(data: bytes) -> tuple[TernaryTree, OffsetTable]:
    """Parse a tree file's bytes; returns the tree and its offset table."""
    lines = data.decode().splitlines()
    if not lines:
        raise TreeFormatError("line 1: empty input")
    header = lines[0].split()
    if (len(header) != 3 or header[0] != "FASTTREE" or header[1] != "v1"
            or not header[2].startswith("offsets=")):
        raise TreeFormatError(f"line 1: bad header {lines[0]!r}")
    try:
        n_offsets = int(header[2].split("=", 1)[1])
    except ValueError:
        raise TreeFormatError(f"line 1: bad offsets count in {lines[0]!r}") from None
    if n_offsets not in (16, 48):
        raise TreeFormatError(f"line 1: unsupported offsets={n_offsets}")

    pos = 1
    custom: list[tuple[int, int, int]] = []
    while pos < len(lines) and lines[pos].startswith("O "):
        parts = lines[pos].split()
        if len(parts) != 4:
            raise TreeFormatError(f"line {pos + 1}: bad offset row {lines[pos]!r}")
        try:
            custom.append((int(parts[1]), int(parts[2]), int(parts[3])))
        except ValueError:
            raise TreeFormatError(f"line {pos + 1}: non-integer offset row") from None
        pos += 1

    if n_offsets == 16:
        if custom:
            raise TreeFormatError("line 2: offset table rows not allowed for offsets=16")
        table = RING16
    elif custom:
        if [idx for idx, _, _ in custom] != list(range(48)):
            raise TreeFormatError("offset table must list indices 0..47 in order")
        try:
            table = OffsetTable("custom48", tuple((dx, dy) for _, dx, dy in custom), 0)
        except ValueError as exc:
            raise TreeFormatError(str(exc)) from None
    else:
        raise TreeFormatError("line 2: offsets=48 needs its offset table rows")

    def rec(depth: int) -> TernaryTree:
        nonlocal pos
        if pos >= len(lines):
            raise TreeFormatError(f"line {len(lines) + 1}: unexpected end of tree")
        lineno, parts = pos + 1, lines[pos].split()
        pos += 1
        if not parts:
            raise TreeFormatError(f"line {lineno}: blank line inside tree")
        if parts[0] == "L":
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise TreeFormatError(f"line {lineno}: bad leaf {lines[lineno - 1]!r}")
            return LEAF0 if parts[1] == "0" else LEAF1
        if parts[0] == "N":
            if len(parts) != 2:
                raise TreeFormatError(f"line {lineno}: bad node {lines[lineno - 1]!r}")
            try:
                offset = int(parts[1])
            except ValueError:
                raise TreeFormatError(f"line {lineno}: non-integer offset index") from None
            try:
                table.xy(offset)
            except ValueError as exc:
                raise TreeFormatError(f"line {lineno}: {exc}") from None
            if depth == MAX_DEPTH:
                raise TreeFormatError(
                    f"line {lineno}: nodes nest deeper than {MAX_DEPTH}")
            b = rec(depth + 1)
            s = rec(depth + 1)
            d = rec(depth + 1)
            return Node(offset, b, s, d)
        raise TreeFormatError(f"line {lineno}: unknown record {parts[0]!r}")

    tree = rec(0)
    for extra in range(pos, len(lines)):
        if lines[extra].strip():
            raise TreeFormatError(f"line {extra + 1}: trailing data after tree")
    return tree, table


class CompiledTree:
    """Flat-array form of a tree for vectorized application.

    Node k tests offset (dx[k], dy[k]); ``children[k, state]`` (state 0=d,
    1=s, 2=b) is the next node id, or ``-1 - cls`` for a leaf outcome.
    ``root`` is node 0, or ``-1 - cls`` when the whole tree is a leaf. A node
    whose offset index is outside the table raises ``ValueError``.

    Node ids are the tree's decision positions in pre-order, children in
    b, s, d order, the order of the file format: the subtree at node p holds
    the ids [p, p + tree_size(subtree)), and ``len(dx) == tree_size(tree)``.
    A subtree object at several positions compiles once at each.
    """

    __slots__ = ("dx", "dy", "children", "root")

    def __init__(self, tree: TernaryTree, table: OffsetTable):
        dx: list[int] = []
        dy: list[int] = []
        children: list[list[int]] = []

        def add(t: TernaryTree) -> int:
            if isinstance(t, Leaf):
                return -1 - t.cls
            nid = len(dx)
            ox, oy = table.xy(t.offset)
            dx.append(ox)
            dy.append(oy)
            children.append([0, 0, 0])
            children[nid][2] = add(t.b)
            children[nid][1] = add(t.s)
            children[nid][0] = add(t.d)
            return nid

        self.root = add(tree)
        self.dx = np.asarray(dx, dtype=np.int32)
        self.dy = np.asarray(dy, dtype=np.int32)
        self.children = np.asarray(children, dtype=np.int32).reshape(-1, 3)


def sixteen_fold(ct: CompiledTree):
    """The 16 transformed views of a compiled tree (8 spatial x inversion),
    generated in ``_DIHEDRAL`` order, each map plain and then inverted, so a
    caller that needs the first few builds no others.

    Spatial transforms act on the offsets; intensity inversion swaps the
    darker/brighter branch targets. Leaf classes are untouched.
    """
    for a, b, c, d in _DIHEDRAL:
        dx = a * ct.dx + b * ct.dy
        dy = c * ct.dx + d * ct.dy
        for invert in (False, True):
            kids = ct.children[:, ::-1] if invert else ct.children
            yield SimpleNamespace(root=ct.root, dx=dx, dy=dy, children=kids)


def sixteen_fold_offsets(table: OffsetTable) -> list[tuple[int, int]]:
    """The distinct (dx, dy) of the table's offsets under the eight dihedral
    maps, sorted: every offset a variant of ``sixteen_fold`` can test."""
    return sorted({(a * dx + b * dy, c * dx + d * dy)
                   for a, b, c, d in _DIHEDRAL for dx, dy in table.offsets})
