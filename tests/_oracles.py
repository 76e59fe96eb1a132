"""Independent oracle implementations the tests check the package against.

Everything here is deliberately written from scratch (plain Python, no reuse
of package internals) so a bug in the implementation cannot hide in its own
test. The scalar reference paths (pixel-by-pixel tree walk and detection,
the sixteen-fold OR, bisection, iteration and linear-scan scores, the
corner-leaf path counts, the high-speed rejection test, the per-count
repeatability loop) live here: only tests use them, as do
``classify_flat``, the numpy walk over raw pixels that detection used
before it moved onto ternary state planes, and ``smooth_separable``, the
whole-field smoothing passes that the structure tensor used before it
smoothed in row blocks. They read trees, images and offset tables through
their attributes (``offset``/``b``/``s``/``d``/``cls``, ``pixels``,
``xy``/``margin``), compiled trees through ``root``/``dx``/``dy``/
``children``, and detectors through ``detect``; the repeatability loop
takes its point projection as an argument.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


def midpoint_circle_r3() -> set[tuple[int, int]]:
    """Radius-3 Bresenham/midpoint circle point set."""
    pts = set()
    x, y, err = 3, 0, 1 - 3
    while x >= y:
        for px, py in ((x, y), (y, x), (-y, x), (-x, y),
                       (-x, -y), (-y, -x), (y, -x), (x, -y)):
            pts.add((px, py))
        y += 1
        if err < 0:
            err += 2 * y + 1
        else:
            x -= 1
            err += 2 * (y - x) + 1
    return pts


def max_circular_run(mask: int, bits: int = 16) -> int:
    if mask == (1 << bits) - 1:
        return bits
    best = run = 0
    for i in range(2 * bits):
        if (mask >> (i % bits)) & 1:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best


def corner_config_count(n: int) -> int:
    """Number of 3^16 ring configurations passing the segment test, counted
    by enumerating bright masks: positions off the mask may be darker or
    similar, and bright/dark overlap is impossible for n >= 9."""
    total = 0
    for mask in range(1 << 16):
        if max_circular_run(mask) >= n:
            total += 2 ** (16 - bin(mask).count("1"))
    return 2 * total


def segment_label(states, n: int) -> bool:
    """states: 16 ints in {0,1,2} (darker/similar/brighter), ring order."""
    for want in (2, 0):
        run = best = 0
        for i in range(32):
            if states[i % 16] == want:
                run += 1
                best = max(best, run)
            else:
                run = 0
        if min(best, 16) >= n:
            return True
    return False


def tree_depth(tree) -> int:
    """Decision nodes on the longest path from the root to a leaf."""
    if not hasattr(tree, "offset"):
        return 0
    return 1 + max(tree_depth(tree.b), tree_depth(tree.s), tree_depth(tree.d))


def corner_needs(tree) -> set[tuple[int, int]]:
    """The Pareto-minimal (brighter, darker) counts of distinct offset
    indices over the tree's paths that end at a corner leaf, by recursion
    over the nodes."""
    found = set()

    def visit(node, brighter, darker):
        if not hasattr(node, "offset"):
            if node.cls:
                found.add((len(brighter), len(darker)))
            return
        visit(node.b, brighter | {node.offset}, darker)
        visit(node.s, brighter, darker)
        visit(node.d, brighter, darker | {node.offset})

    visit(tree, frozenset(), frozenset())
    return {(b, d) for b, d in found
            if not any((b2, d2) != (b, d) and b2 <= b and d2 <= d
                       for b2, d2 in found)}


def preorder_nodes(tree) -> list:
    """The decision node at each position of the tree, in pre-order with
    children in b, s, d order; an object at several positions is listed at
    each."""
    if not hasattr(tree, "offset"):
        return []
    return [tree, *preorder_nodes(tree.b), *preorder_nodes(tree.s),
            *preorder_nodes(tree.d)]


def brute_best_split(rows, labels, weights, index_base: int = 1):
    """Max-information-gain offset via direct counting; ties to lowest index.

    rows: list of state tuples; returns the external offset index. Gains
    within 1e-9 of the max count as tied.
    """

    def h(c, cbar):
        def xlogx(v):
            return v * math.log2(v) if v > 0 else 0.0

        return xlogx(c + cbar) - xlogx(c) - xlogx(cbar)

    k = len(rows[0])
    tot = Counter()
    for row, lab, wgt in zip(rows, labels, weights):
        tot[bool(lab)] += wgt
    h_parent = h(tot[True], tot[False])
    gains = []
    for col in range(k):
        sub = {v: Counter() for v in (0, 1, 2)}
        for row, lab, wgt in zip(rows, labels, weights):
            sub[row[col]][bool(lab)] += wgt
        h_children = sum(h(c[True], c[False]) for c in sub.values())
        gains.append(h_parent - h_children)
    best = max(gains)
    for col, g in enumerate(gains):
        if g >= best - 1e-9:
            return index_base + col
    raise AssertionError("unreachable")


def nms_oracle(rows):
    """3x3 suppression rule, restated over (x, y, score) rows: drop a point
    when some 8-neighbor point scores higher, or an equal-scoring neighbor
    precedes it in raster order. Returns kept (x, y, score) tuples in raster
    order."""
    pts = [(int(x), int(y), s) for x, y, s in rows]
    by_pos = {(x, y): s for x, y, s in pts}
    kept = []
    for x, y, score in pts:
        suppressed = False
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if (dx, dy) == (0, 0):
                    continue
                s = by_pos.get((x + dx, y + dy))
                if s is None:
                    continue
                if s > score:
                    suppressed = True
                if s == score and (dy, dx) < (0, 0):
                    suppressed = True
        if not suppressed:
            kept.append((x, y, score))
    return sorted(kept, key=lambda p: (p[1], p[0]))


class NotACornerError(ValueError):
    """Scored pixel does not classify as a corner at the minimum threshold."""


def at(img, x: int, y: int) -> int:
    """The value of pixel (x, y)."""
    return int(img.pixels[y, x])


def pixel_state(centre: int, ring: int, t: int) -> int:
    """0 darker (ring <= centre - t), 2 brighter (ring >= centre + t), else
    1 similar."""
    if ring <= centre - t:
        return 0
    if ring >= centre + t:
        return 2
    return 1


def classify_pixel(tree, img, p, t: int, table) -> bool:
    """Walk a node tree at one pixel: each node reads its offset pixel and
    branches on the darker/similar/brighter state."""
    x, y = p
    margin = table.margin
    if not (margin <= x < img.width - margin and margin <= y < img.height - margin):
        raise ValueError(f"({x},{y}) is within {margin} pixels of an edge")
    c = at(img, x, y)
    node = tree
    while hasattr(node, "offset"):
        dx, dy = table.xy(node.offset)
        node = (node.d, node.s, node.b)[pixel_state(c, at(img, x + dx, y + dy), t)]
    return bool(node.cls)


def classify_flat(ct, flat, width: int, pos, t: int):
    """Walk a compiled tree at flat pixel positions of a raveled image, level
    by level from the raw pixels: each position compares its node's offset
    pixel with its own centre +- t at every step."""
    n = pos.shape[0]
    out = np.empty(n, dtype=bool)
    if ct.root < 0:
        out[:] = ct.root == -2
        return out
    cur = np.full(n, ct.root, dtype=np.int32)
    centre = flat[pos].astype(np.int16)
    deltas = ct.dy.astype(np.int64) * width + ct.dx
    active = np.arange(n)
    while active.size:
        ring = flat[pos[active] + deltas[cur]].astype(np.int16)
        state = 1 + (ring >= centre[active] + t).view(np.int8) \
            - (ring <= centre[active] - t).view(np.int8)
        cur = ct.children[cur, state]
        done = cur < 0
        out[active[done]] = cur[done] == -2
        active, cur = active[~done], cur[~done]
    return out


def detect_naive(tree, img, t: int, table) -> list[tuple[int, int]]:
    """Every interior (x, y) the tree classifies as a corner, pixel by pixel
    in raster order."""
    m = table.margin
    return [(x, y) for y in range(m, img.height - m)
            for x in range(m, img.width - m)
            if classify_pixel(tree, img, (x, y), t, table)]


def corner_score_bisect(tree, img, p, table) -> int:
    """Largest t in [1, 255] at which the pixel classifies as a corner,
    found by binary search on the (monotone) classification."""
    if not classify_pixel(tree, img, p, 1, table):
        raise NotACornerError(f"{p} is not a corner at t=1")
    lo, hi = 1, 255
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if classify_pixel(tree, img, p, mid, table):
            lo = mid
        else:
            hi = mid - 1
    return lo


def corner_score_iterate(tree, img, p, table) -> int:
    """Score by repeatedly raising t just past the weakest passing ring pixel.

    A ring pixel passes at threshold t when it differs from the centre by at
    least t; raising t by the minimum pass margin plus one forces a different
    path through the tree. Valid for segment-test trees over the 16-ring,
    where states are a pure function of the ring differences.
    """
    if len(table) != 16:
        raise ValueError("iteration scoring is defined for the 16-ring only")
    x, y = p
    if not classify_pixel(tree, img, p, 1, table):
        raise NotACornerError(f"{p} is not a corner at t=1")
    c = at(img, x, y)
    diffs = [abs(at(img, x + dx, y + dy) - c) for dx, dy in
             (table.xy(i) for i in table.indices())]
    t = 1
    while True:
        margins = [d - t for d in diffs if d >= t]
        if not margins:
            # Tree claims corner with an all-similar ring; not a segment tree.
            raise NotACornerError(f"{p}: no passing ring pixel at t={t}")
        best = min(t + min(margins), 255)
        if best >= 255:
            return 255
        t = best + 1
        if not classify_pixel(tree, img, p, t, table):
            return best


def high_speed_reject(img, p, t: int, ring) -> bool:
    """Fast non-corner rejection for the n=12 test using ring pixels 1, 9, 5, 13.

    ``ring`` lists the 16 ring offsets in order. True means "safe to
    reject": first, pixels 1 and 9 both similar; otherwise fewer than 3 of
    the four are all brighter or all darker. Never rejects a pixel the full
    n=12 test would accept.
    """
    x, y = p
    c = at(img, x, y)

    def state(idx: int) -> int:
        dx, dy = ring[idx - 1]
        return pixel_state(c, at(img, x + dx, y + dy), t)

    s1, s9 = state(1), state(9)
    if s1 == 1 and s9 == 1:
        return True
    four = (s1, s9, state(5), state(13))
    return max(four.count(2), four.count(0)) < 3


def any_within(queries, targets, eps: float):
    """Per-query: any target within Euclidean eps (plain loops).

    Squares are products, rounded once as in NumPy; Python's ``x ** 2``
    calls the C library's pow, which may be one unit in the last place off.
    Only targets in the (2c + 1)^2 box of lattice cells around the query's
    floor cell count, c = ceil(eps). A target outside that box is more than
    c >= eps away, yet the rounded squared distance can still come out at
    eps**2: for the query (4 - 2**-51, 3) and the target (9, 3), 9 - qx
    rounds to 5, so at eps 5 the sum test alone would call it within.
    """
    out = []
    e2 = eps * eps
    c = math.ceil(eps)
    for qx, qy in queries:
        fx, fy = math.floor(qx), math.floor(qy)
        out.append(any(abs(tx - fx) <= c and abs(ty - fy) <= c
                       and (qx - tx) * (qx - tx) + (qy - ty) * (qy - ty) <= e2
                       for tx, ty in targets))
    return out


def repeatability_curve_loop(frames, warps, detector, counts, eps: float,
                             pairs, project):
    """Repeatability against feature count by the per-count loop: at each
    count, detect every frame afresh, project each pair's sources with
    ``project`` (called as ``project(warp, xy)`` -> (coords, valid)), and
    match the valid ones against the target frame's detections with
    ``any_within``. Count 0 reads (0, 0.0)."""
    curve = []
    for count in counts:
        if count == 0:
            curve.append((0, 0.0))
            continue
        dets = [detector.detect(f, count, frame_key=k)
                for k, f in enumerate(frames)]
        useful = repeated = 0
        for i, j in pairs:
            proj, valid = project(warps[(i, j)], dets[i][:, :2])
            queries = proj[valid].tolist()
            useful += len(queries)
            repeated += sum(any_within(queries, dets[j][:, :2].tolist(), eps))
        curve.append((count, repeated / useful if useful else 0.0))
    return curve


def exhaustive_count_table(labels, weights, k: int, fixed):
    """Class weights per column state over the codes 0 .. 3^k - 1.

    Digit j of a code (base 3, least significant first) is the state of
    column j. Only codes whose column j equals ``fixed[j]`` for every key of
    ``fixed`` count. Row j of the returned k x 6 list holds the non-corner
    weight of states 0, 1, 2 of column j, then the corner weight of each.
    """
    table = [[0] * 6 for _ in range(k)]
    for code in range(3**k):
        digits = [(code // 3**j) % 3 for j in range(k)]
        if any(digits[j] != v for j, v in fixed.items()):
            continue
        for j in range(k):
            table[j][3 * int(labels[code]) + digits[j]] += int(weights[code])
    return table


class _MappedTable:
    """An offset table seen through (dx, dy) -> (sx * u, sy * v), where
    (u, v) is (dx, dy), or (dy, dx) when ``swap``."""

    def __init__(self, table, swap: bool, sx: int, sy: int):
        self.table, self.swap, self.sx, self.sy = table, swap, sx, sy
        self.margin = table.margin

    def xy(self, index):
        dx, dy = self.table.xy(index)
        u, v = (dy, dx) if self.swap else (dx, dy)
        return self.sx * u, self.sy * v


class _Inverted:
    """An image with every value v read as 255 - v."""

    def __init__(self, img):
        self.pixels = 255 - img.pixels
        self.width, self.height = img.width, img.height


def dihedral_tables(table):
    """The offset table under each of the 8 rotations and reflections."""
    return [_MappedTable(table, swap, sx, sy) for swap in (False, True)
            for sx in (1, -1) for sy in (1, -1)]


def classify_sixteenfold(tree, img, p, t: int, table) -> bool:
    """OR of the tree over the 8 dihedral maps of its offset table, on the
    image and on its intensity inversion."""
    return any(classify_pixel(tree, view, p, t, mapped)
               for mapped in dihedral_tables(table)
               for view in (img, _Inverted(img)))


def linear_scan_score(fires, img, p, table, t_min: int):
    """Largest t in [t_min, 255] with ``fires(t)``, or None.

    A pixel's state at offset k changes with t only between |ring_k - centre|
    and the next integer, so classification is constant on each run of
    thresholds ending at such a breakpoint or at 255. Scanning those ends
    from the top (breakpoints of every dihedral map of the table) finds the
    largest firing t, whether or not classification is monotone in t.
    """
    x, y = p
    c = at(img, x, y)
    ends = {255}
    for mapped in dihedral_tables(table):
        for idx in table.indices():
            dx, dy = mapped.xy(idx)
            ends.add(abs(at(img, x + dx, y + dy) - c))
    for t in sorted((e for e in ends if t_min <= e <= 255), reverse=True):
        if fires(t):
            return t
    return None


def smooth_separable(field, kernel):
    """Separable convolution over an edge-replicated border, one whole-field
    multiply and add per tap in kernel order: horizontal, then vertical."""
    r = len(kernel) // 2
    h, w = field.shape
    pad = np.pad(field, ((0, 0), (r, r)), mode="edge")
    out = np.zeros_like(field)
    for i, kv in enumerate(kernel):
        out += kv * pad[:, i : i + w]
    pad = np.pad(out, ((r, r), (0, 0)), mode="edge")
    out = np.zeros_like(field)
    for i, kv in enumerate(kernel):
        out += kv * pad[i : i + h, :]
    return out
