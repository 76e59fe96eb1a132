"""The FAST-n segment test over the 16-pixel ring, as labels of ring
configurations and as a per-pixel score field.

A ring configuration is the ordered 16-tuple of ternary pixel states
(darker=0 / similar=1 / brighter=2, as ``runtime.ternary_planes`` computes
them); its code is the base-3 integer in [0, 3^16) whose digit i holds the
state of ring index i+1 (``learn.codes_from_states``). ``config_labels``
labels given codes and ``label_all_configs`` the whole space, both from one
table of the longest circular run in a 16-bit mask and one table of the
brighter and darker masks of each half code (eight ring states). ID3
learns its trees from these labels, and they are the ground truth every
learned tree is checked against. ``segment_score_field`` is the reference
detector: the largest threshold at which each pixel still passes the test.
It works on the 16 ring offsets as uint8 views of the pixels: the score of
a brighter arc is its least ring value minus the centre, of a darker arc
the centre minus its greatest, and the extremes over all arcs of length n
are built by doubling on lists of planes, in uint8 until the centre is
subtracted once.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .image import RING_MARGIN, RING_OFFSETS, GrayImage

N_RING = 16
N_CONFIGS = 3**N_RING  # 43,046,721

HALF = 3**8  # codes of eight ring states: a config code is hi * HALF + lo

# Pixels per ring plane of a block of the score field: 64 KB planes stay
# below glibc's default 128 KB mmap threshold, so they come from the heap and
# are reused, where whole-frame planes are mapped and faulted in afresh on
# every call (12 ms against 5 ms per 640x480 frame in a fresh process on a
# 2-core Xeon).
_BLOCK_PIXELS = 1 << 16


def check_arc(n: int) -> None:
    """``ValueError`` unless the arc length n is in 9..16."""
    if not 9 <= n <= 16:
        raise ValueError(f"arc length n={n} unsupported (need 9..16)")


@cache
def _circular_run_table() -> np.ndarray:
    """uint8[65536]: max circular run of set bits in a 16-bit word."""
    masks = np.arange(65536, dtype=np.uint32)
    cur = masks | (masks << np.uint32(16))
    run = np.zeros(65536, dtype=np.uint8)
    for length in range(1, 17):
        nz = cur != 0
        if not nz.any():
            break
        run[nz] = length
        cur &= cur << np.uint32(1)
    return run


@cache
def _half_masks() -> np.ndarray:
    """uint16[2, HALF]: row 0 (brighter) and row 1 (darker) hold, for each
    code of eight ring states, the 8-bit mask of positions in that state.
    A config's 16-bit mask is ``half[hi] << 8 | half[lo]``."""
    digits = np.arange(HALF)[:, None] // 3 ** np.arange(8) % 3
    bits = 1 << np.arange(8)
    return np.stack([(digits == 2) @ bits, (digits == 0) @ bits]).astype(np.uint16)


def config_labels(codes: np.ndarray, n: int) -> np.ndarray:
    """True where a config code has >= n circularly contiguous ring
    positions all brighter or all darker (wrap-around counts); 9 <= n <= 16."""
    check_arc(n)
    hit = _circular_run_table() >= n
    hi, lo = np.divmod(np.asarray(codes, dtype=np.int64), HALF)
    out = np.zeros(hi.shape, dtype=bool)
    for half in _half_masks():  # brighter, then darker
        out |= hit[half[hi] << 8 | half[lo]]
    return out


@cache
def label_all_configs(n: int) -> np.ndarray:
    """Segment-test labels for the complete 3^16 configuration space; cached.

    Code hi * HALF + lo is cell [hi, lo] of a HALF x HALF raster, whose masks
    are an outer OR of the half-code masks. A block of 243 hi rows is built
    at a time, so the uint16 masks and the gathers stay a few MB.
    """
    check_arc(n)
    hit = _circular_run_table() >= n
    half = _half_masks()
    labels = np.empty((HALF, HALF), dtype=bool)
    for r in range(0, HALF, 243):
        rows = slice(r, r + 243)
        bright, dark = half[:, rows, None] << 8 | half[:, None]
        labels[rows] = hit[bright] | hit[dark]
    return labels.ravel()


def _best_arc(ring: list, n: int, op, best) -> np.ndarray:
    """For each pixel, ``best`` over the 16 circular arcs of length n of
    ``op`` over the arc's ring planes; op and best are ``np.minimum`` and
    ``np.maximum`` in either order. With op = minimum and best = maximum it
    is the largest least ring value of any arc.

    Arc i covers ring indices i .. i + n - 1 (mod 16). The arcs are built by
    doubling: the level of length 2k holds op(m[i], m[(i + k) % 16]) of the
    level m of length k. With k = 8, arc i of length n is
    op(m[i], m[(i + n - 8) % 16]), two arcs of length 8 that overlap (for
    n = 16 they make the whole ring), and it is folded into the result at
    once."""
    m, k = ring, 1
    while 2 * k < n:
        m = [op(m[i], m[(i + k) % N_RING]) for i in range(N_RING)]
        k *= 2
    acc = op(m[0], m[n - k])
    arc = np.empty_like(acc)
    for i in range(1, N_RING):
        best(acc, op(m[i], m[(i + n - k) % N_RING], out=arc), out=acc)
    return acc


def segment_score_field(img: GrayImage, n: int) -> np.ndarray:
    """Per-pixel maximum threshold at which the segment test still fires.

    int16, shaped like the image; border and non-corner pixels hold 0. A
    brighter arc passes at t while its least ring value is >= centre + t,
    so its score is (least value over the arc) - centre; a darker arc's is
    centre - (greatest value over the arc). The field is
    max(hi - c, c - lo, 0), where hi is the largest least value and lo the
    smallest greatest value over the 16 arcs of length n. It equals
    max{t : detect at t} because the partition is boundary-inclusive and
    monotone in t.

    The ring values are uint8 views of the pixels, hi and lo are reduced
    from them in uint8 (``_best_arc``), and only then widened to int16 to
    subtract the centre. This runs over blocks of rows of at most
    ``_BLOCK_PIXELS`` pixels per plane.
    """
    check_arc(n)
    a = img.pixels
    h, w = a.shape
    out = np.zeros((h, w), dtype=np.int16)
    if h <= 2 * RING_MARGIN or w <= 2 * RING_MARGIN:
        return out
    b = RING_MARGIN
    rows = max(1, _BLOCK_PIXELS // (w - 2 * b))
    for y0 in range(b, h - b, rows):
        y1 = min(y0 + rows, h - b)
        ring = [a[y0 + dy : y1 + dy, b + dx : w - b + dx] for dx, dy in RING_OFFSETS]
        hi = _best_arc(ring, n, np.minimum, np.maximum)
        lo = _best_arc(ring, n, np.maximum, np.minimum)
        centre = a[y0:y1, b : w - b].astype(np.int16)
        core = out[y0:y1, b : w - b]
        np.subtract(hi, centre, out=core)
        np.maximum(core, centre - lo, out=core)
        np.maximum(core, 0, out=core)
    return out
