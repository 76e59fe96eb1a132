"""Applying decision trees to images: detection, corner scores, suppression,
feature-count control and writing the keypoint file.

``leaf_paths`` lists a tree's paths from the root to its leaves, those to
a corner leaf (its corner paths) apart from the others, each as the
(brighter, darker, similar) sets of the offsets it tests in that state.
With d = ring - centre, a position follows a path at threshold t exactly
when lo < t <= hi: hi is the least of d over the brighter set and of -d
over the darker set (255 when both are empty), its bound, and lo the
greatest |d| over the similar set (0 when it is empty). So the corner score
of a pixel, the largest threshold at which it still classifies as a
corner, is the largest hi with lo < hi over the paths, whether or not
classification is monotone in the threshold. ``corner_needs`` keeps the
minimal (brighter, darker) pairs of the paths: a position fires at t only
if it meets one, every brighter offset at d >= t and every darker one at
d <= -t. A pair is covered when some tree fires on every column whose
states meet it, that is when each of the tree's other paths tests one of
its offsets in a state the pair excludes; it is then a path in its own
right, with no similar test, and holds every path whose sets hold its own.
``_bound_block`` is the one routine that evaluates paths: ``needs_field``
runs it on views of the pixels, for every pixel, and ``score_positions``
on pixels gathered at given positions, over a ``PlaneWalk``'s scoring
paths. A tree detector whose pairs are all covered, as every exhaustive
FAST-n tree's are (its pairs are the arcs of n), detects and scores from
the field over its pairs alone (``detectors.TreeDetector``), and the
segment test's score field is the field over the arcs of n.
Other trees detect on ternary state planes: ``ternary_planes`` computes the
darker/similar/brighter state of every interior pixel at each offset once
per image and threshold, one column per pixel, and ``PlaneWalk`` walks one
or more compiled trees (a tree, or the sixteen variants of a symmetrized
one, OR-ed) over those planes, level by level and only for the columns
still undecided. The caller names the plane rows: a ``PlaneWalk`` is built
over a list of offsets that holds every offset its trees test, and maps the
corner needs to plane rows once: its first tree walks every column, and
the later trees only the unfired columns whose states meet some pair, found
with bit-packed rows once per walk.
A keypoint set is one (N, 3) float64 array whose rows are x, y, score.
Positions and the integer scores of segment-test detectors are exact in
float64; response detectors keep their float scores. ``score_positions``
scores any tree, or OR of trees, exactly at given positions, reading
pixels at the offsets of the detector's ``PlaneWalk``.
``ranked_rows`` is the one 3x3 non-maximal suppression and ranking, from
a score grid to keypoint rows: the cells at least ``RING_MARGIN`` from
every edge, the only cells it can keep, read off one flat mask, then one
stable sort by descending score on a key of the grid's dtype. The top n
keypoints are a prefix of its rows, ranked by (-score, y, x).
``write_keypoints`` writes the "x y score" keypoint file; nothing in the
package reads one back.
"""

from __future__ import annotations

import heapq
import numbers
from collections import Counter
from functools import lru_cache
from itertools import combinations

import numpy as np

from .image import RING_MARGIN, GrayImage
from .trees import CompiledTree


# Bytes of uint8 values, gathered pixels and plan buffers, per block of
# ``score_positions``: for the 288 scoring paths (352 buffers) of
# ``tests/fixtures/annealed_1500.tree`` at its 275k positions of a 640x480
# frame at t=1 (2-core Xeon), blocks of 1, 2, 4 and 8 MB took 265, 182,
# 142 and 116 ms, with traced peaks of 4.2, 4.6, 6.4 and 10.0 MB.
_BOUNDS_BYTES = 1 << 22

# Pixels per offset view of a block of ``needs_field``: 64 KB views stay
# below glibc's default 128 KB mmap threshold, so the values reduced from
# them come from the heap and are reused, where whole-frame planes are
# mapped and faulted in afresh on every call (12 ms against 5 ms per
# 640x480 FAST-9 field in a fresh process on a 2-core Xeon).
_BLOCK_PIXELS = 1 << 16


def check_threshold(t) -> None:
    """``ValueError`` unless t is an integer in 1..255 (8-bit differences)."""
    if not (isinstance(t, numbers.Integral) and 1 <= t <= 255):
        raise ValueError(f"threshold must be an integer in 1..255, not {t!r}")


def ternary_planes(images, offsets, t: int, margin: int) -> np.ndarray:
    """Pixel states at each offset, as uint8 planes of shape
    (len(offsets), interior pixels).

    Entry [k, col] is 0 (darker: ring <= centre - t), 1 (similar) or 2
    (brighter: ring >= centre + t) for offset k, the order of
    ``CompiledTree.children``. The columns are the pixels at least ``margin``
    from every edge of each image in turn, in raster order. ``t`` must pass
    ``check_threshold``.
    """
    check_threshold(t)
    offsets = _within(offsets, margin)
    shapes = [(img.height - 2 * margin, img.width - 2 * margin) for img in images]
    sizes = [h * w if h > 0 and w > 0 else 0 for h, w in shapes]
    planes = np.empty((len(offsets), sum(sizes)), dtype=np.uint8)
    col = 0
    for img, shape, n in zip(images, shapes, sizes):
        if not n:
            continue
        a = img.pixels
        h, w = a.shape
        c = a[margin : h - margin, margin : w - margin].astype(np.int16)
        # brighter iff ring > centre + t - 1, darker iff ring < centre - t + 1,
        # with the bounds clipped to uint8 so the comparisons stay uint8
        above = np.minimum(c + (t - 1), 255).astype(np.uint8)
        below = np.maximum(c - (t - 1), 0).astype(np.uint8)
        for k, (dx, dy) in enumerate(offsets):
            r = a[margin + dy : h - margin + dy, margin + dx : w - margin + dx]
            out = planes[k, col : col + n].reshape(shape)
            np.add(r > above, np.uint8(1), out=out)
            np.subtract(out, r < below, out=out)
        col += n
    return planes


def _within(offsets, margin: int) -> list:
    """The offsets as (int, int) tuples; ``ValueError`` if one reaches
    beyond ``margin``."""
    offsets = [(int(dx), int(dy)) for dx, dy in offsets]
    if any(max(abs(dx), abs(dy)) > margin for dx, dy in offsets):
        raise ValueError(f"an offset reaches beyond the margin {margin}")
    return offsets


class PlaneWalk:
    """Compiled trees prepared to walk ternary planes.

    ``offsets`` lists distinct (dx, dy), among them every offset the trees'
    nodes test; planes for the walk are built over it in its order, and node
    k of tree i reads plane row ``rows[i][k]``. The first levels of each tree
    become one lookup on whole plane rows: a 3-entry table on the root's row,
    or a 9-entry table on two rows when the root's non-leaf children all test
    one offset (the forced-shared-second-test shape).

    ``needs`` holds (brighter, darker) offset sets such that every corner
    path of every tree tests, in those states, every offset of one pair in
    it (``corner_needs``, mapped onto each variant: ``TreeDetector``). Each
    offset must be among ``offsets``, or ``ValueError``. They become
    ``pairs``, (brighter, darker) lists of plane rows ordered by size, once
    here; ``least`` is the fewest rows of any pair. A column fires on no
    tree unless some pair holds in its states, every brighter row 2 and
    every darker row 0. ``fired`` walks the trees after the first only over
    the columns that meet a pair.

    ``covered`` and ``paths`` come from one pass of ``leaf_paths`` over the
    trees in turn, until every pair is covered. ``covered`` holds a bool
    per pair, True when some tree reaches a corner leaf on every column
    whose states meet the pair: when each of that tree's other paths tests
    one of the pair's brighter rows darker or similar, or one of its darker
    rows similar or brighter. On FAST-9 the first tree covers all 32 pairs.
    ``paths`` holds the scoring paths that ``score_positions`` evaluates,
    (brighter, darker, similar) tuples of plane rows ordered like ``pairs``:
    the covered pairs, with no similar row, and when some pair is not
    covered, every tree's corner paths that neither a covered pair nor
    another path holds (``minimal_masks``). The thresholds at which a held
    path fires lie inside those of the path that holds it, so dropping it
    changes no score. ``needs=None`` means unknown (annealing and
    ``distill`` only detect): ``pairs``, ``covered`` and ``paths`` are
    None, which gates nothing; an empty ``needs`` means no corner leaf.
    """

    def __init__(self, trees, offsets, needs=None):
        self.trees = list(trees)
        self.offsets = [(int(dx), int(dy)) for dx, dy in offsets]
        index = {xy: k for k, xy in enumerate(self.offsets)}
        if len(index) != len(self.offsets):
            raise ValueError("the offsets must be distinct")
        try:
            self.rows = [np.array([index[xy] for xy in zip(ct.dx.tolist(),
                                                           ct.dy.tolist())],
                                  dtype=np.intp) for ct in self.trees]
        except KeyError as exc:
            raise ValueError(f"node offset {exc} is not among the offsets") from None
        self.heads = [self._head(ct, row) for ct, row in zip(self.trees, self.rows)]
        self.pairs, self.least, self.covered, self.paths = None, 0, None, None
        if needs is not None:
            try:
                self.pairs = sorted(
                    ((sorted(index[xy] for xy in b), sorted(index[xy] for xy in d))
                     for b, d in needs),
                    key=lambda pair: (len(pair[0]) + len(pair[1]), pair))
            except KeyError as exc:
                raise ValueError(f"corner need offset {exc} is not among the "
                                 "walk's offsets") from None
            self.least = min((len(b) + len(d) for b, d in self.pairs), default=0)
            self._stack = _stacked(self.pairs)
            # the tests that rule a pair out: a brighter row darker or
            # similar, a darker row similar or brighter (leaf_paths' bits)
            rules = [sum(3 << 3 * k for k in b) | sum(6 << 3 * k for k in d)
                     for b, d in self.pairs]
            covered, corner = [False] * len(rules), set()
            for ct, row in zip(self.trees, self.rows):
                if all(covered):
                    break
                corners, other = leaf_paths(ct, row)
                corner |= corners
                covered = [sure or all(m & rule for m in other)
                           for sure, rule in zip(covered, rules)]
            self.covered = np.array(covered, dtype=bool)
            found = {pair_mask(b, d) for (b, d), sure in zip(self.pairs, covered)
                     if sure}
            if not all(covered):
                found = minimal_masks(found | corner)
            self.paths = tuple(sorted(map(_sides, found),
                                      key=lambda path: (sum(map(len, path)), path)))

    @staticmethod
    def _head(ct: CompiledTree, row: np.ndarray):
        """(plane rows, lookup) for the first one or two levels; the lookup
        maps the rows' states, base 3, to a node id or leaf code."""
        if ct.root < 0:
            return (), None
        kids = ct.children[ct.root]
        second = {int(row[k]) for k in kids if k >= 0}
        if len(second) != 1:
            return (int(row[ct.root]),), kids.copy()
        lut = np.array([k if k < 0 else ct.children[k, s2]
                        for k in kids.tolist() for s2 in range(3)], dtype=np.int32)
        return (int(row[ct.root]), second.pop()), lut

    def fired(self, planes: np.ndarray) -> np.ndarray:
        """Columns of ``planes`` that any of the trees classifies as a
        corner. Later trees skip columns already fired.

        The first tree walks every column. Before the second, ``_reach``
        keeps the unfired columns whose states meet some pair of ``pairs``,
        carried as one index array, and the later trees walk only those: a
        column that meets no pair fires on no tree. On the 640x480 benchmark
        frame the first variant of a 12-node annealed tree (200 iterations
        on 48x40 frames) leaves 296,774 of 300,516 columns unfired at t=1,
        and 237,277 of them meet a pair; at t=35, 300,428 and 1,071. A
        FAST-n detector never walks: its pairs are all covered
        (``TreeDetector``). A walk without ``pairs`` gates nothing, and a
        single tree never reaches the gate.

        Below the head lookup, each tree walks a work list of live columns
        and their int32 nodes. A level reads flat[row * n + column] for the
        node's plane row; columns stay intp like that offset, which can pass
        2^31 (rows times columns), and the offset is summed in place. The
        list is compacted with ``flatnonzero`` plus ``take``, which costs
        the same per entry whatever the pattern of the mask. Boolean masking
        is cheaper only on masks that come in long runs, as on smooth t=35
        images, and several times dearer on the noisy masks of a t=1 walk.
        """
        n = planes.shape[1]
        fired = np.zeros(n, dtype=bool)
        flat = planes.ravel()
        cols = None  # the columns a tree walks; None for every column
        for i, (ct, row, (head_rows, lut)) in enumerate(
                zip(self.trees, self.rows, self.heads)):
            if i == 1 and self.pairs is not None:
                cols = self._reach(planes, fired)
            if lut is None:
                if ct.root == -2:
                    fired[:] = True
                    break
                continue
            head = [planes[r] if cols is None else planes[r].take(cols)
                    for r in head_rows]
            cur = lut.take(head[0] if len(head) == 1
                           else head[0] * np.uint8(3) + head[1])
            if cols is None:
                live = np.flatnonzero((cur >= 0) & ~fired)
                fired |= cur == -2
            else:
                live = np.flatnonzero((cur >= 0) & ~fired.take(cols))
                fired[cols.take(np.flatnonzero(cur == -2))] = True
            cur = cur.take(live)
            if cols is not None:
                live = cols.take(live)
            children = ct.children.ravel()
            start = row.astype(np.intp) * n  # node -> its row's start in flat
            while live.size:
                at = start.take(cur)
                at += live
                cur *= 3
                cur += flat.take(at)
                cur = children.take(cur)
                fired[live.take(np.flatnonzero(cur == -2))] = True
                keep = np.flatnonzero(cur >= 0)
                live, cur = live.take(keep), cur.take(keep)
        return fired

    def _reach(self, planes: np.ndarray, fired: np.ndarray) -> np.ndarray:
        """The unfired columns that meet some pair of ``pairs``, ascending.

        A count of non-similar states first keeps the unfired columns that
        reach ``least``, a cheap cut that shrinks what is packed; it is
        summed one plane row at a time into one counter whose dtype holds
        ``len(offsets)``, so it cannot wrap. The n candidates' brighter
        (state 2) and darker (state 0) rows at the offsets some pair names
        are then bit-packed, in the row layout of ``_stacked``, so a pair is
        one AND per offset over n/8 bytes; the columns whose bits some pair
        sets are unpacked with ``count=n``, which drops the padding of the
        last byte. A (∅, ∅) pair keeps every candidate, and an empty
        ``pairs`` keeps none.
        """
        keep = ~fired
        if self.least:
            count = np.zeros(planes.shape[1],
                             dtype=np.min_scalar_type(len(self.offsets)))
            for plane in planes:
                count += plane != 1
            keep &= count >= self.least
        cols = np.flatnonzero(keep)
        used, stack = self._stack
        bits = np.empty((2 * len(used), (cols.size + 7) // 8), dtype=np.uint8)
        for j, k in enumerate(used):
            states = planes[k].take(cols)
            bits[j] = np.packbits(states == 2)
            bits[len(used) + j] = np.packbits(states == 0)
        met = np.zeros(bits.shape[1], dtype=np.uint8)
        for rows in stack:
            met |= np.bitwise_and.reduce(bits[rows], axis=0)
        return cols[np.unpackbits(met, count=cols.size).view(bool)]

    def detect(self, img: GrayImage, t: int, margin: int) -> np.ndarray:
        """Positions at least ``margin`` from every edge that fire at
        threshold t, as (M, 2) int32 [x, y] rows in raster order."""
        iw = img.width - 2 * margin
        if img.height <= 2 * margin or iw <= 0:
            return np.zeros((0, 2), dtype=np.int32)
        hit = np.flatnonzero(self.fired(ternary_planes([img], self.offsets, t,
                                                      margin)))
        return np.column_stack([hit % iw + margin,
                                hit // iw + margin]).astype(np.int32)


def leaf_paths(ct, row) -> tuple[set, set]:
    """(corner, other): the paths of a compiled tree from the root to a
    corner leaf, and to a non-corner leaf, each as the int bitmask of its
    tests, one per distinct mask. A test of node k in state s (0 darker, 1
    similar, 2 brighter, as in ``ternary_planes``) sets bit 3 * row[k] + s,
    and ``_sides`` splits a mask into its (brighter, darker, similar) rows.
    A path may test one offset twice, even in two states; one that does so
    in two states never fires, its lo being at least its bound. A tree that
    is one leaf has the one path 0, in ``corner`` when that leaf is a
    corner."""
    bits = [1 << 3 * k for k in map(int, row)]
    children = ct.children.tolist()
    found = (set(), set())  # by leaf code: -1 other, -2 corner
    stack = [(ct.root, 0)]
    while stack:
        node, tests = stack.pop()
        if node < 0:
            found[node].add(tests)
            continue
        m = bits[node]
        to_d, to_s, to_b = children[node]
        stack += [(to_d, tests | m), (to_s, tests | m << 1), (to_b, tests | m << 2)]
    return found[-2], found[-1]


def pair_mask(brighter, darker) -> int:
    """The ``leaf_paths`` mask of a path that tests the rows of
    ``brighter`` brighter, those of ``darker`` darker and nothing similar;
    the rows of each side are distinct."""
    return sum(4 << 3 * k for k in brighter) | sum(1 << 3 * k for k in darker)


def _sides(tests: int) -> tuple:
    """The (brighter, darker, similar) ascending rows of a ``leaf_paths``
    mask."""
    rows = ([], [], [])  # by state: darker, similar, brighter
    while tests:
        k = (tests & -tests).bit_length() - 1
        rows[k % 3].append(k // 3)
        tests &= tests - 1
    return tuple(rows[2]), tuple(rows[0]), tuple(rows[1])


def corner_needs(ct) -> frozenset:
    """The minimal (brighter, darker) offset sets over the corner paths of
    a compiled tree (``leaf_paths``), each the distinct (dx, dy) a path
    tests in that state, as two frozensets (``minimal_pairs``).

    A position fires on a path at threshold t only if ring - centre >= t
    at every brighter offset and <= -t at every darker one. Empty when no
    corner leaf exists, and {(∅, ∅)} when the all-similar chain ends in a
    corner.
    """
    nodes = list(zip(ct.dx.tolist(), ct.dy.tolist()))
    offsets = sorted(set(nodes))
    index = {xy: k for k, xy in enumerate(offsets)}
    return minimal_pairs(leaf_paths(ct, [index[xy] for xy in nodes])[0], offsets)


def minimal_pairs(masks, offsets) -> frozenset:
    """The (brighter, darker) pairs of ``leaf_paths`` masks, their similar
    tests dropped, that hold no other (``minimal_masks``), as frozensets of
    the (dx, dy) in ``offsets`` that their rows index."""
    similar = sum(2 << 3 * k for k in range(len(offsets)))
    return frozenset(
        tuple(frozenset(offsets[k] for k in side) for side in _sides(tests)[:2])
        for tests in minimal_masks({m & ~similar for m in masks}))


def minimal_masks(masks) -> frozenset:
    """The int bitmasks of ``masks`` that hold no other: a mask is kept only
    if no kept mask is a subset of it, visiting the masks by bit count.

    A corner need or path is passed as the one mask of its (offset, state)
    tests (``leaf_paths``), so one test decides whether it holds another.
    A dropped path's bound is never above that of the path it holds, and
    its lo never below, so neither the largest bound of the needs nor any
    score changes."""
    kept = []
    for x in sorted(set(masks), key=int.bit_count):
        if not any(k | x == x for k in kept):
            kept.append(x)
    return frozenset(kept)


def needs_field(img: GrayImage, offsets, paths, margin: int) -> np.ndarray:
    """The largest bound hi with lo < hi of ``paths`` at every pixel, as an
    image-shaped int16 field: 0 within ``margin`` of an edge and where no
    such bound reaches 1.

    ``paths`` holds (brighter, darker, similar) sequences of indices into
    ``offsets``, or (brighter, darker) pairs, which test nothing similar.
    Over the pairs of a tree, the field bounds every position's score; when
    every pair is covered it is the exact score, so the field thresholded
    at t is a tree's detections and scores (``TreeDetector``), and over the
    arcs of n it is the segment test's (``segment.segment_score_field``).

    ``_bound_block`` runs the paths' plan on uint8 views of the offsets,
    over blocks of rows of at most ``_BLOCK_PIXELS`` pixels per view, with
    buffers allocated once per call.
    """
    offsets = _within(offsets, margin)
    a = img.pixels
    h, w = a.shape
    out = np.zeros((h, w), dtype=np.int16)
    if h <= 2 * margin or w <= 2 * margin:
        return out
    plan = _needs_plan(tuple(tuple(map(tuple, path)) for path in paths),
                       len(offsets))
    m, iw = margin, w - 2 * margin
    rows = min(max(1, _BLOCK_PIXELS // iw), h - 2 * m)
    bufs = [np.empty((rows, iw), dtype=np.uint8) for _ in range(plan[1])]
    centre, diff, other = np.empty((3, rows, iw), dtype=np.int16)
    for y0 in range(m, h - m, rows):
        y1 = min(y0 + rows, h - m)
        r = y1 - y0
        val = [a[y0 + dy : y1 + dy, m + dx : w - m + dx] for dx, dy in offsets]
        centre[:r] = a[y0:y1, m : w - m]
        _bound_block(plan, val + [buf[:r] for buf in bufs], centre[:r],
                     out[y0:y1, m : w - m], diff[:r], other[:r])
    return out


def _bound_block(plan: tuple, val: list, c: np.ndarray, core: np.ndarray,
                 d: np.ndarray, e: np.ndarray) -> None:
    """Write into int16 ``core`` the largest bound hi with lo < hi, clipped
    at 0, of a ``_needs_plan`` plan's paths over one block of uint8 values
    ``val`` (the offsets', then the buffers) and int16 centres ``c``; d and
    e are int16 scratch. The plan reduces each side's extreme, and then the
    one-sided pairs' extremes to one per kind, in uint8; only those and the
    sides of the other paths are widened to int16, once each, to take the
    centre. Each of those paths' bound is zeroed where a similar offset's
    |ring - centre| reaches it: where the similar side's greatest value
    less the centre, or the centre less its least value, does."""
    steps, _, hi, lo, each, full = plan
    if full:
        core.fill(255)
        return
    for op, i, j, k in steps:
        op(val[i], val[j], out=val[k])
    if hi is None:
        core.fill(0)
    else:
        np.subtract(val[hi], c, out=core)
    if lo is not None:
        np.maximum(core, np.subtract(c, val[lo], out=d), out=core)
    for b, dark, least, most in each:
        if b is None:
            d.fill(255)
        else:
            np.subtract(val[b], c, out=d)
        if dark is not None:
            np.minimum(d, np.subtract(c, val[dark], out=e), out=d)
        if least is not None:  # a product, since a masked copy is slower
            np.subtract(val[most], c, out=e)
            np.multiply(d, e < d, out=d)
            np.subtract(c, val[least], out=e)
            np.multiply(d, e < d, out=d)
        np.maximum(core, d, out=core)
    np.maximum(core, 0, out=core)


@lru_cache(maxsize=256)
def _needs_plan(paths: tuple, n: int) -> tuple:
    """(steps, slots, hi, lo, each, full) of ``_bound_block`` for a tuple of
    (brighter, darker, similar) index tuples over n offsets; a (brighter,
    darker) pair is the path with no similar side.

    A block's values are the n offsets' and then ``slots`` uint8 buffers,
    and a step (op, i, j, k) writes op(value i, value j) into buffer value
    k. ``hi`` is the value that ends with the largest least ring value over
    the brighter-only pairs, ``lo`` the one with the least greatest value
    over the darker-only pairs (None when there are none), and ``each``
    lists, for each other path, the least value of its brighter side, the
    greatest of its darker side, and the least and greatest of its similar
    side, None for an empty side. ``full`` is True, and the rest empty,
    when some path is (∅, ∅, ∅): every bound 255.

    Each side's extreme is one value. A similar side is reduced both ways:
    with the brighter sides to its least and with the darker sides to its
    greatest. Sides that share offsets share work: ``_shared_steps``
    merges, as long as two values sit in two or more sides, the two that
    sit together in the most. When the darker sides are the brighter ones,
    as for every ``TreeDetector`` walk and FAST-n arc set, the greedy runs
    once and ``_replayed`` repeats its merges. The steps are numbered
    first, then given buffers: a step's buffer is one whose value no later
    step reads, and the values the block's bound reads keep theirs to the
    end.
    """
    paths = sorted({(path[0], path[1], path[2] if len(path) > 2 else ())
                    for path in paths})
    if ((), (), ()) in paths:
        return (), 0, None, None, (), True
    steps = []
    similar = {s for _, _, s in paths if s}
    brighter = sorted({b for b, _, _ in paths if b} | similar)
    darker = sorted({d for _, d, _ in paths if d} | similar)
    least = dict(zip(brighter, _shared_steps(brighter, np.minimum, n, steps)))
    if darker == brighter:  # sides closed under swapping: the same merges
        most = dict(zip(darker, _replayed(steps, least.values(), np.maximum, n)))
    else:
        most = dict(zip(darker, _shared_steps(darker, np.maximum, n, steps)))
    one = [(b, d) for b, d, s in paths if not s and not (b and d)]
    hi = _fold([least[b] for b, d in one if b], np.maximum, n, steps)
    lo = _fold([most[d] for b, d in one if d], np.minimum, n, steps)
    each = [(least.get(b), most.get(d), least.get(s), most.get(s))
            for b, d, s in paths if s or (b and d)]
    last = {v: len(steps) for v in [hi, lo, *(v for path in each for v in path)]}
    for s, (_, i, j) in reversed(list(enumerate(steps))):
        last.setdefault(i, s)
        last.setdefault(j, s)
    where = list(range(n))  # numbered value -> block value
    free, slots, plan = [], 0, []
    for s, (op, i, j) in enumerate(steps):
        free += {where[v] for v in (i, j) if v >= n and last[v] == s}
        if not free:
            free.append(n + slots)
            slots += 1
        where.append(free.pop())
        plan.append((op, where[i], where[j], where[-1]))
    return (tuple(plan), slots, *(None if v is None else where[v] for v in (hi, lo)),
            tuple(tuple(None if v is None else where[v] for v in path)
                  for path in each), False)


def _shared_steps(sides, op, n: int, steps: list) -> list:
    """Append to ``steps`` the (op, i, j) steps that reduce each side, a
    tuple of offset indices, to one value (``_needs_plan``'s numbering), and
    return each side's value.

    Greedy: while two values sit together in two or more sides, the two
    that sit together in the most (the lowest-numbered on a tie) become one
    new value in every side that holds both; each side then folds what it
    holds, in numbering order. A heap ranks the counts of ``shared`` and
    skips an entry whose count has changed: no count rises after the step
    that makes its newer value, so a stale entry never holds again.
    """
    sides = [set(side) for side in sides]
    shared = Counter(pair for side in sides for pair in combinations(sorted(side), 2))
    heap = [(-c, a, b) for (a, b), c in shared.items()]
    heapq.heapify(heap)
    while heap and heap[0][0] < -1:
        c, a, b = heapq.heappop(heap)
        if shared[a, b] != -c:
            continue
        v = n + len(steps)
        steps.append((op, a, b))
        shared[a, b] = 0
        rows = [side for side in sides if a in side and b in side]
        for side in rows:
            side -= {a, b}
            shared.update((u, v) for u in side)
        for u in set().union(*rows):  # u leaves a and b in shared[u, v] sides
            for x in a, b:
                pair = (u, x) if u < x else (x, u)
                shared[pair] -= shared[u, v]
                heapq.heappush(heap, (-shared[pair], *pair))
            heapq.heappush(heap, (-shared[u, v], u, v))
        for side in rows:
            side.add(v)
    return [_fold(sorted(side), op, n, steps) for side in sides]


def _replayed(steps: list, values, op, n: int) -> list:
    """Append to ``steps`` a copy of each of its steps with ``op``, every
    value past the n offsets renumbered to its copy's, and return the copies
    of ``values``: what ``_shared_steps`` would append for the same sides,
    since its greedy never reads op."""
    k = len(steps)
    steps += [(op, *(v + k if v >= n else v for v in step[1:]))
              for step in steps[:k]]
    return [v + k if v >= n else v for v in values]


def _fold(values: list, op, n: int, steps: list):
    """One value that is op over ``values`` (``_needs_plan``'s numbering),
    appending a step per value past the first; None for no values."""
    if not values:
        return None
    acc = values[0]
    for v in values[1:]:
        steps.append((op, acc, v))
        acc = n + len(steps) - 1
    return acc


def score_positions(walk: PlaneWalk, img: GrayImage, xs, ys,
                    t_min: int) -> np.ndarray:
    """Corner scores at explicit positions: the largest t in [t_min, 255] at
    which any tree of ``walk`` classifies the position as a corner, or
    t_min - 1 where none does. Returns int32 scores.

    Exact for any tree, monotone in t or not: the largest t at which a
    position fires is the largest bound hi with lo < hi over the walk's
    scoring paths (``walk.paths``, so the walk must hold its trees' corner
    needs), ``_bound_block``'s over one ``_needs_plan`` plan. The pixels
    at the offsets some path names are gathered through flat deltas
    dy * width + dx, in blocks of about ``_BOUNDS_BYTES`` of those and the
    plan's uint8 buffers. The positions must lie at least the trees' margin
    from every edge.
    """
    check_threshold(t_min)
    flat = img.pixels.ravel()
    index = np.int32 if flat.size < 2**31 else np.intp
    pos = (np.asarray(ys, dtype=np.intp) * img.width
           + np.asarray(xs, dtype=np.intp)).astype(index)
    dx, dy = np.array(walk.offsets, dtype=index).reshape(-1, 2).T
    deltas = dy * index(img.width) + dx
    n = len(walk.offsets)
    plan = _needs_plan(walk.paths, n)
    used = sorted({k for path in walk.paths for side in path for k in side})
    step = max(1, min(len(pos), _BOUNDS_BYTES // max(1, len(used) + plan[1])))
    bufs = np.empty((plan[1], step), dtype=np.uint8)
    centre, diff, other = np.empty((3, step), dtype=np.int16)
    scores = np.empty(len(pos), dtype=np.int16)
    for i in range(0, len(pos), step):
        p = pos[i : i + step]
        r = len(p)
        block = [None] * n + list(bufs[:, :r])
        for k in used:
            block[k] = flat.take(p + deltas[k])
        centre[:r] = flat.take(p)
        _bound_block(plan, block, centre[:r], scores[i : i + r], diff[:r],
                     other[:r])
    scores[scores < t_min] = t_min - 1
    return scores.astype(np.int32)


def _stacked(pairs) -> tuple[list, list]:
    """(used, rows) for (brighter, darker) lists of indices: ``used`` the
    sorted indices that some pair names, and per pair its rows in a stack
    of 2 * len(used) rows, the brighter side of each used index in order,
    then its darker side."""
    used = sorted({k for pair in pairs for side in pair for k in side})
    at = {k: i for i, k in enumerate(used)}
    return used, [[at[k] for k in b] + [len(used) + at[k] for k in d]
                  for b, d in pairs]


def ranked_rows(grid: np.ndarray) -> np.ndarray:
    """Keypoint rows, ranked by (-score, y, x), of the positive cells of an
    image-shaped score grid (0 where nothing is detected) that lie at least
    ``RING_MARGIN`` from every edge, where the segment test can run, and
    survive 3x3 non-maximal suppression: no 8-neighbor scores strictly
    greater and no raster-earlier neighbor scores equal. A cell within the
    margin is never kept but still suppresses its neighbors. Each kept cell
    has all eight neighbors in the grid, so the rule compares the grid's
    core with eight shifted views of it. The survivors come in raster order
    from the flat indices of the core's mask (``np.nonzero`` on the 2-D
    mask took 1.6 times as long on a 640x480 FAST-9 frame at t=1, and 13
    times at t=35), and one stable sort of their negated scores ranks them:
    every score is above 0, so the key, in the grid's signed or float
    dtype, cannot overflow, and NumPy sorts the int16 key of a segment-test
    or tree grid by radix."""
    m = RING_MARGIN
    h, w = grid.shape
    core = grid[m : h - m, m : w - m]
    keep = core > 0
    for k, (dx, dy) in enumerate(((-1, -1), (0, -1), (1, -1), (-1, 0),
                                  (1, 0), (-1, 1), (0, 1), (1, 1))):
        neigh = grid[m + dy : h - m + dy, m + dx : w - m + dx]
        keep &= core > neigh if k < 4 else core >= neigh
    ys, xs = np.divmod(np.flatnonzero(keep), core.shape[1])
    ys += m
    xs += m
    scores = grid[ys, xs]
    order = np.argsort(np.negative(scores), kind="stable")
    return keypoint_rows(xs[order], ys[order], scores[order])


def keypoint_rows(xs, ys, scores) -> np.ndarray:
    """(N, 3) float64 keypoint rows from position and score arrays (or a
    scalar score for every row), filled column by column into one new
    C-contiguous array."""
    rows = np.empty((len(xs), 3))
    rows[:, 0], rows[:, 1], rows[:, 2] = xs, ys, scores
    return rows


def top_n_by_score(ranked: np.ndarray, n: int, split_ties: bool = False) -> np.ndarray:
    """The n highest-score keypoints: a prefix of rows in ``ranked_rows``
    order.

    By default the cut never splits a score tie class: the returned count is
    the achievable count closest to n (ties between equally-close counts go to
    the smaller), mirroring threshold-controlled detectors where the feature
    count cannot be chosen arbitrarily. With ``split_ties`` the cut is exact
    and ties at the boundary break by raster order.
    """
    if n <= 0:
        return ranked[:0]
    if split_ties or n >= len(ranked):
        return ranked[:n]
    scores = ranked[:, 2]
    bounds = np.flatnonzero(scores[1:] != scores[:-1]) + 1
    i = int(np.searchsorted(bounds, n))  # bounds[i - 1] < n <= bounds[i]
    below = int(bounds[i - 1]) if i else 0
    above = int(bounds[i]) if i < len(bounds) else len(ranked)
    return ranked[:below if n - below <= above - n else above]


def format_score(score: float) -> str:
    return str(int(score)) if float(score).is_integer() else repr(float(score))


def write_keypoints(f, rows: np.ndarray) -> None:
    """Write "x y score" lines in raster order."""
    for x, y, score in rows[np.lexsort((rows[:, 0], rows[:, 1]))].tolist():
        f.write(f"{int(x)} {int(y)} {format_score(score)}\n")
