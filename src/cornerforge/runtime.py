"""Applying decision trees to images: detection, corner scores, suppression,
feature-count control and writing the keypoint file.

Detection works on ternary state planes: ``ternary_planes`` computes the
darker/similar/brighter state of every interior pixel at each offset once
per image and threshold, one column per pixel, and ``PlaneWalk`` walks one
or more compiled trees (a tree, or the sixteen variants of a symmetrized
one, OR-ed) over those planes, level by level and only for the columns
still undecided. The caller names the plane rows: a ``PlaneWalk`` is built
over a list of offsets that holds every offset its trees test. A tree
detector builds its ``PlaneWalk`` once and calls ``PlaneWalk.detect`` per
frame. A keypoint set is one (N, 3) float64 array whose rows are x, y, score.
Positions and the integer scores of segment-test detectors are exact in
float64; response detectors keep their float scores. The corner score of a
pixel is the largest threshold at which it still classifies as a corner;
``score_positions`` computes it exactly for any tree, or OR of trees, by
walking each tree once per position with the interval of thresholds that
reach each node. Classification need not be monotone in the threshold.
The interval starts no higher than a per-position ceiling: a corner path
that tests nb distinct offsets brighter and nd darker fires at t only if
nb differences ring - centre reach t and nd reach -t, and ``corner_needs``
lists the fewest (nb, nd) of a tree's corner paths. A position whose best
score so far meets its ceiling walks no further tree.
Scores drive 3x3 non-maximal suppression and feature-count control; the top
n keypoints are a prefix of the rows ranked by (-score, y, x).
``write_keypoints`` writes the "x y score" keypoint file; nothing in the
package reads one back.
"""

from __future__ import annotations

import numbers

import numpy as np

from .image import GrayImage
from .trees import CompiledTree


# Positions per block of the score ceiling: 8192 rows of 48 offsets is a
# 786 kB buffer. One (N, K) array for all positions, 11.8 MB on a t=1 frame,
# raised the detect-t1 benchmark's peak RSS from 91.9 to 101.5 MB; blocks
# of 2048 to 32768 rows read 92.9-93.8 MB and timed within noise
_CEILING_BLOCK_ROWS = 8192


def ternary_planes(images, offsets, t: int, margin: int) -> np.ndarray:
    """Pixel states at each offset, as uint8 planes of shape
    (len(offsets), interior pixels).

    Entry [k, col] is 0 (darker: ring <= centre - t), 1 (similar) or 2
    (brighter: ring >= centre + t) for offset k, the order of
    ``CompiledTree.children``. The columns are the pixels at least ``margin``
    from every edge of each image in turn, in raster order. A threshold that
    is not an integer (2.5, or 2.0) is a ``ValueError``.
    """
    if not isinstance(t, numbers.Integral):
        raise ValueError(f"threshold must be an integer, not {t!r}")
    if t < 1:
        raise ValueError("threshold must be >= 1")
    offsets = [(int(dx), int(dy)) for dx, dy in offsets]
    if any(max(abs(dx), abs(dy)) > margin for dx, dy in offsets):
        raise ValueError(f"an offset reaches beyond the margin {margin}")
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


class PlaneWalk:
    """Compiled trees prepared to walk ternary planes.

    ``offsets`` lists distinct (dx, dy), among them every offset the trees'
    nodes test; planes for the walk are built over it in its order, and node
    k of tree i reads plane row ``rows[i][k]``. The first levels of each tree
    become one lookup on whole plane rows: a 3-entry table on the root's row,
    or a 9-entry table on two rows when the root's non-leaf children all test
    one offset (the forced-shared-second-test shape).
    """

    def __init__(self, trees, offsets):
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

        Below the head lookup, each tree walks a work list of live columns
        and their int32 nodes. A level reads flat[row * n + column] for the
        node's plane row; columns stay intp like that offset, which can pass
        2^31 (rows times columns), and the offset is summed in place. The
        list is compacted with ``flatnonzero`` plus ``take``, which costs
        the same per entry whatever the pattern of the mask. Boolean masking
        is cheaper only on masks that come in long runs, as on smooth t=35
        images, and several times dearer on the noisy masks of a t=1 walk.
        Annealing, the smooth case, walks only its busy columns.
        """
        n = planes.shape[1]
        fired = np.zeros(n, dtype=bool)
        flat = planes.ravel()
        for ct, row, (head_rows, lut) in zip(self.trees, self.rows, self.heads):
            if lut is None:
                if ct.root == -2:
                    fired[:] = True
                    break
                continue
            idx = planes[head_rows[0]]
            if len(head_rows) == 2:
                idx = idx * np.uint8(3) + planes[head_rows[1]]
            cur = lut.take(idx)
            live = np.flatnonzero((cur >= 0) & ~fired)
            fired |= cur == -2
            cur = cur.take(live)
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


def corner_needs(ct) -> frozenset:
    """The Pareto-minimal (brighter, darker) counts over the paths of a
    compiled tree that end at a corner leaf.

    A path's counts are of the distinct offsets it tests in the brighter
    and in the darker state: a tree may test one offset twice on a path. A
    position fires on the path at threshold t only if at least that many
    offsets read ring - centre >= t and ring - centre <= -t, which bounds
    its score (``score_positions``). Empty when no corner leaf exists, and
    {(0, 0)} when the all-similar chain ends in a corner. A dihedral map of
    the offsets keeps the counts; an intensity inversion swaps them.
    """
    if ct.root < 0:
        return frozenset({(0, 0)} if ct.root == -2 else ())
    offsets = list(zip(ct.dx.tolist(), ct.dy.tolist()))
    children = ct.children.tolist()
    found = set()
    stack = [(ct.root, frozenset(), frozenset())]
    while stack:
        node, brighter, darker = stack.pop()
        if node < 0:
            if node == -2:
                found.add((len(brighter), len(darker)))
            continue
        xy = offsets[node]
        to_d, to_s, to_b = children[node]
        stack += [(to_b, brighter | {xy}, darker), (to_s, brighter, darker),
                  (to_d, brighter, darker | {xy})]
    return frozenset(p for p in found if not any(
        q != p and q[0] <= p[0] and q[1] <= p[1] for q in found))


def score_positions(trees, img: GrayImage, xs, ys, t_min: int,
                    needs) -> np.ndarray:
    """Corner scores at explicit positions: the largest t in [t_min, 255] at
    which any of the compiled ``trees`` classifies the position as a corner.

    Exact for any tree, monotone in t or not: each tree is walked once per
    position with the interval of thresholds that reach the current node
    (``_score_walk``). The score of an OR of trees is the largest of their
    scores; the trees are walked in turn, and each walk only looks above the
    best score found so far and up to the position's ceiling. ``needs``
    holds (brighter, darker) counts such that every corner path of every
    tree tests at least nb distinct offsets brighter and nd darker for one
    (nb, nd) in it (``corner_needs``, closed under swapping the two for
    inverted trees). The ceiling over the offsets the trees test is the
    largest, over ``needs``, of the smaller of the nb-th largest
    ring - centre and the nd-th largest centre - ring (a 0th is 255): no t
    above it fires. The positions must lie at least the trees' margin from
    every edge. Positions that fire at no t in range get t_min - 1. Returns
    int32 scores.
    """
    if not 1 <= t_min <= 255:
        raise ValueError("threshold must be in 1..255")
    flat = img.pixels.ravel()
    index = np.int32 if flat.size < 2**31 else np.intp
    pos = (np.asarray(ys, dtype=np.intp) * img.width
           + np.asarray(xs, dtype=np.intp)).astype(index)
    centre = flat.take(pos).astype(np.int16)
    ceiling = _score_ceiling(trees, flat, img.width, pos, centre, needs)
    best = np.full(pos.shape, t_min - 1, dtype=np.int16)
    for ct in trees:
        _score_walk(ct, flat, img.width, pos, centre, best, ceiling)
    return best.astype(np.int32)


def _score_ceiling(trees, flat: np.ndarray, width: int, pos: np.ndarray,
                   centre: np.ndarray, needs) -> np.ndarray:
    """Each position's score ceiling under ``needs`` (``score_positions``),
    as int16; 0 where no t >= 1 can fire.

    The differences ring - centre at the K distinct offsets of the trees
    fill a (rows, K) int16 block one offset column at a time, from ``pos``'s
    flat indices, and are sorted in place along each row: the nb-th largest
    is column K - nb, and the nd-th largest centre - ring is minus column
    nd - 1. The positions go through in blocks of ``_CEILING_BLOCK_ROWS``.
    """
    # each (dx, dy) as one int64 key: dx in the high half, dy in the low
    key = np.unique(np.concatenate([np.zeros(0, dtype=np.int64)] + [
        ct.dx.astype(np.int64) << 32 | ct.dy.astype(np.int64) & 0xFFFFFFFF
        for ct in trees]))
    deltas = ((key >> 32) + (key << 32 >> 32) * width).tolist()
    k = len(deltas)
    if any(max(need) > k for need in needs):
        raise ValueError(f"a corner need counts more than the {k} offsets "
                         "the trees test")
    rows = _CEILING_BLOCK_ROWS
    ceiling = np.zeros(len(pos), dtype=np.int16)
    buf = np.empty((min(rows, len(pos)), k), dtype=np.int16)
    for i in range(0, len(pos), rows):
        p, out = pos[i : i + rows], ceiling[i : i + rows]
        diff = buf[: len(p)]
        for j, delta in enumerate(deltas):
            np.subtract(flat.take(p + delta), centre[i : i + rows],
                        out=diff[:, j])
        diff.sort(axis=1)
        for nb, nd in needs:
            brighter = diff[:, k - nb] if nb else 255
            darker = -diff[:, nd - 1] if nd else 255
            np.maximum(out, np.minimum(brighter, darker), out=out)
    return ceiling


def _score_walk(ct, flat: np.ndarray, width: int, pos: np.ndarray,
                centre: np.ndarray, best: np.ndarray,
                ceiling: np.ndarray) -> None:
    """Raise ``best`` to each position's largest firing t under one tree.

    A work item is (position, node, [a, b]), starting at [best + 1, ceiling]
    for the positions whose best is below their ceiling; no t above the
    ceiling fires, so the others are done. With d = ring - centre,
    thresholds up to |d| see the brighter (d > 0) or darker (d < 0) state
    and higher ones the similar state. So the item moves to the brighter or
    darker child with [a, min(b, |d|)] when that is non-empty, and otherwise
    to the similar child, keeping [a, b]; an item whose interval covers both
    appends a copy for the similar child with [|d| + 1, b]. A corner leaf
    offers b, and items that reach a leaf or an empty interval are dropped.

    The work list is parallel arrays, compacted after each level with
    ``flatnonzero`` and ``take``: the item's position index, its flat pixel
    index p and centre value c (carried, so no level gathers them again),
    its node and its interval. Indices and nodes take ``pos``'s dtype (int32
    below 2^31 pixels, intp otherwise); values and bounds are int16. The
    bound a is raised to the position's best + 1 only after a level on which
    some item reached a corner: ``best`` changes nowhere else, and a split
    copy starts at |d| + 1 > a > best, so every item keeps a > best.
    """
    if ct.root < 0:
        if ct.root == -2:
            np.maximum(best, ceiling, out=best)
        return
    index = pos.dtype
    deltas = (ct.dy.astype(np.intp) * width + ct.dx).astype(index)
    children = np.ascontiguousarray(ct.children, dtype=index).ravel()
    item = np.flatnonzero(best < ceiling).astype(index)
    p = pos.take(item)
    c = centre.take(item)
    cur = np.full(item.shape, ct.root, dtype=index)
    a = best.take(item) + np.int16(1)
    b = ceiling.take(item)
    while item.size:
        d = flat.take(p + deltas.take(cur)).astype(np.int16) - c
        ad = np.abs(d)
        differ = a <= ad  # [a, min(b, |d|)] is non-empty
        split = np.flatnonzero(differ & (ad < b))
        kids = cur * 3
        cur = children.take(kids + 1 + np.sign(d) * differ)
        top = b.take(split)
        np.minimum(b, ad, out=b, where=differ)
        if split.size:
            item = np.concatenate([item, item.take(split)])
            p = np.concatenate([p, p.take(split)])
            c = np.concatenate([c, c.take(split)])
            cur = np.concatenate([cur, children.take(kids.take(split) + 1)])
            a = np.concatenate([a, ad.take(split) + np.int16(1)])
            b = np.concatenate([b, top])
        corner = np.flatnonzero(cur == -2)
        if corner.size:
            np.maximum.at(best, item.take(corner), b.take(corner))
            np.maximum(a, best.take(item) + np.int16(1), out=a)
        keep = np.flatnonzero((cur >= 0) & (a <= b))
        item, p, c, cur = item.take(keep), p.take(keep), c.take(keep), cur.take(keep)
        a, b = a.take(keep), b.take(keep)


def _nms_keep_field(field: np.ndarray) -> np.ndarray:
    """Keep mask for 3x3 non-maximal suppression over a score field.

    A cell survives iff no 8-neighbor scores strictly greater and no
    raster-earlier neighbor scores equal (deterministic plateau rule).
    """
    h, w = field.shape
    keep = np.ones((h, w), dtype=bool)
    earlier = ((-1, -1), (0, -1), (1, -1), (-1, 0))
    later = ((1, 0), (-1, 1), (0, 1), (1, 1))

    def shifted_view(dx, dy):
        # neighbor value at (x+dx, y+dy) aligned to the valid core
        return (
            field[max(0, dy) : h + min(0, dy), max(0, dx) : w + min(0, dx)],
            (slice(max(0, -dy), h + min(0, -dy)), slice(max(0, -dx), w + min(0, -dx))),
        )

    for dx, dy in earlier:
        neigh, core = shifted_view(dx, dy)
        keep[core] &= field[core] > neigh
    for dx, dy in later:
        neigh, core = shifted_view(dx, dy)
        keep[core] &= field[core] >= neigh
    return keep


def suppress_scored_arrays(xs, ys, scores, shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """3x3 non-maximal suppression of detections with positive scores.

    A detection survives iff no 8-neighbor detection scores strictly greater
    and no raster-earlier neighbor scores equal. The score grid over
    ``shape`` takes the dtype of ``scores`` and holds 0 where nothing was
    detected, which no positive score loses to. Returns the surviving
    (xs, ys, scores) in raster order.
    """
    scores = np.asarray(scores)
    grid = np.zeros(shape, dtype=scores.dtype)
    grid[ys, xs] = scores
    keep = _nms_keep_field(grid) & (grid > 0)
    kys, kxs = np.nonzero(keep)
    return kxs.astype(np.int32), kys.astype(np.int32), grid[kys, kxs]


def keypoint_rows(xs, ys, scores) -> np.ndarray:
    """(N, 3) float64 keypoint rows from position and score arrays."""
    return np.column_stack([xs, ys, scores]).astype(np.float64)


def rank_by_score(rows: np.ndarray) -> np.ndarray:
    """Keypoint rows ordered by descending score, raster order within ties."""
    return rows[np.lexsort((rows[:, 0], rows[:, 1], -rows[:, 2]))]


def top_n_by_score(ranked: np.ndarray, n: int, split_ties: bool = False) -> np.ndarray:
    """The n highest-score keypoints: a prefix of rows in ``rank_by_score``
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
