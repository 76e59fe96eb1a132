"""Independent oracle implementations the tests check the package against.

Everything here is deliberately written from scratch (plain Python, no reuse
of package internals) so a bug in the implementation cannot hide in its own
test.
"""

from __future__ import annotations

import math
from collections import Counter


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


def nms_oracle(points):
    """3x3 suppression rule, restated: drop a point when some 8-neighbor
    point scores higher, or an equal-scoring neighbor precedes it in raster
    order."""
    by_pos = {(p.x, p.y): p.score for p in points}
    kept = []
    for p in points:
        suppressed = False
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if (dx, dy) == (0, 0):
                    continue
                s = by_pos.get((p.x + dx, p.y + dy))
                if s is None:
                    continue
                if s > p.score:
                    suppressed = True
                if s == p.score and (dy, dx) < (0, 0):
                    suppressed = True
        if not suppressed:
            kept.append(p)
    return sorted(kept, key=lambda p: (p.y, p.x))


def any_within(queries, targets, eps: float):
    """Per-query: any target within Euclidean eps (plain loops).

    Squares are products, rounded once as in NumPy; Python's ``x ** 2``
    calls the C library's pow, which may be one unit in the last place off.
    """
    out = []
    e2 = eps * eps
    for qx, qy in queries:
        out.append(any((qx - tx) * (qx - tx) + (qy - ty) * (qy - ty) <= e2
                       for tx, ty in targets))
    return out


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
