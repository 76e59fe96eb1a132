"""Reference FAST-n segment test over the 16-pixel ring.

This module is the ground truth that everything learned is checked against.
A ring configuration is the ordered 16-tuple of ternary pixel states
(darker / similar / brighter); it is canonically encoded as a base-3 integer
in [0, 3^16) with digit i holding the state of ring index i+1
(darker=0, similar=1, brighter=2).
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .image import RING_MARGIN, RING_OFFSETS, GrayImage

N_RING = 16
N_CONFIGS = 3**N_RING  # 43,046,721

DARKER, SIMILAR, BRIGHTER = 0, 1, 2


class PixelState(IntEnum):
    DARKER = 0
    SIMILAR = 1
    BRIGHTER = 2


def pixel_state(center: int, ring_pixel: int, t: int) -> PixelState:
    """Three-way partition of a ring pixel against the nucleus.

    Darker iff ring <= center - t; brighter iff ring >= center + t
    (boundary inclusive); similar otherwise. Requires t >= 1.
    """
    if t < 1:
        raise ValueError("threshold must be >= 1")
    if ring_pixel <= center - t:
        return PixelState.DARKER
    if ring_pixel >= center + t:
        return PixelState.BRIGHTER
    return PixelState.SIMILAR


def encode_ring_config(states) -> int:
    """Pack 16 ternary states (ring indices 1..16) into the canonical code."""
    states = list(states)
    if len(states) != N_RING:
        raise ValueError(f"expected {N_RING} states, got {len(states)}")
    code = 0
    for i in range(N_RING - 1, -1, -1):
        s = int(states[i])
        if not 0 <= s <= 2:
            raise ValueError(f"bad state {states[i]}")
        code = code * 3 + s
    return code


def decode_ring_config(code: int) -> tuple[PixelState, ...]:
    if not 0 <= code < N_CONFIGS:
        raise ValueError(f"config code {code} out of range")
    out = []
    for _ in range(N_RING):
        out.append(PixelState(code % 3))
        code //= 3
    return tuple(out)


_RUN_TABLE: np.ndarray | None = None
_LABEL_CACHE: dict[int, np.ndarray] = {}


def _circular_run_table() -> np.ndarray:
    """uint8[65536]: max circular run of set bits in a 16-bit word."""
    global _RUN_TABLE
    if _RUN_TABLE is None:
        masks = np.arange(65536, dtype=np.uint32)
        cur = masks | (masks << np.uint32(16))
        run = np.zeros(65536, dtype=np.uint8)
        for length in range(1, 17):
            nz = cur != 0
            if not nz.any():
                break
            run[nz] = length
            cur &= cur << np.uint32(1)
        _RUN_TABLE = run
    return _RUN_TABLE


def _config_bitmasks(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-config 16-bit masks of brighter and darker ring positions."""
    codes = np.asarray(codes, dtype=np.int64)
    bright = np.zeros(codes.shape, dtype=np.uint16)
    dark = np.zeros(codes.shape, dtype=np.uint16)
    for i in range(N_RING):
        digit = (codes // 3**i) % 3
        bright |= (digit == 2).astype(np.uint16) << np.uint16(i)
        dark |= (digit == 0).astype(np.uint16) << np.uint16(i)
    return bright, dark


def is_corner_config(code: int, n: int) -> bool:
    """True iff the configuration has >= n circularly contiguous positions
    all brighter or all darker (wrap-around counts). Supports 9 <= n <= 16."""
    if not 9 <= n <= 16:
        raise ValueError(f"arc length n={n} unsupported (need 9..16)")
    tbl = _circular_run_table()
    bright, dark = _config_bitmasks(np.array([code]))
    return bool(tbl[bright[0]] >= n or tbl[dark[0]] >= n)


def config_labels(codes: np.ndarray, n: int) -> np.ndarray:
    """Vectorized is_corner_config over an array of config codes."""
    if not 9 <= n <= 16:
        raise ValueError(f"arc length n={n} unsupported (need 9..16)")
    tbl = _circular_run_table()
    bright, dark = _config_bitmasks(codes)
    return (tbl[bright] >= n) | (tbl[dark] >= n)


def label_all_configs(n: int) -> np.ndarray:
    """Segment-test labels for the complete 3^16 configuration space; cached.

    Built by digit-DP over the ring positions rather than per-config decode.
    """
    if not 9 <= n <= 16:
        raise ValueError(f"arc length n={n} unsupported (need 9..16)")
    if n not in _LABEL_CACHE:
        bright = np.zeros(1, dtype=np.uint16)
        dark = np.zeros(1, dtype=np.uint16)
        for i in range(N_RING):
            bit = np.uint16(1 << i)
            # digit i of the code is the slowest-varying over blocks of 3^i
            bright = np.concatenate([bright, bright, bright | bit])
            dark = np.concatenate([dark | bit, dark, dark])
        tbl = _circular_run_table()
        _LABEL_CACHE[n] = (tbl[bright] >= n) | (tbl[dark] >= n)
    return _LABEL_CACHE[n]


def _interior_shifts(pixels: np.ndarray, margin: int):
    """Views of each ring neighbor aligned with the interior block."""
    h, w = pixels.shape
    centre = pixels[margin : h - margin, margin : w - margin]
    shifted = [
        pixels[margin + dy : h - margin + dy, margin + dx : w - margin + dx]
        for dx, dy in RING_OFFSETS
    ]
    return centre, shifted


def ring_state_masks(img: GrayImage, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-interior-pixel 16-bit masks of brighter / darker ring positions.

    Returned arrays have shape (h - 6, w - 6), aligned to interior pixel
    (x, y) = (mask_x + 3, mask_y + 3).
    """
    if t < 1:
        raise ValueError("threshold must be >= 1")
    a = img.pixels.astype(np.int16)
    if img.height <= 2 * RING_MARGIN or img.width <= 2 * RING_MARGIN:
        empty = np.zeros((0, 0), dtype=np.uint16)
        return empty, empty
    centre, shifted = _interior_shifts(a, RING_MARGIN)
    hi = centre + t
    lo = centre - t
    bright = np.zeros(centre.shape, dtype=np.uint16)
    dark = np.zeros(centre.shape, dtype=np.uint16)
    for i, r in enumerate(shifted):
        bright |= (r >= hi).astype(np.uint16) << np.uint16(i)
        dark |= (r <= lo).astype(np.uint16) << np.uint16(i)
    return bright, dark


def ring_config_at(img: GrayImage, x: int, y: int, t: int) -> int:
    """Canonical config code of the ring around (x, y)."""
    if not (RING_MARGIN <= x < img.width - RING_MARGIN
            and RING_MARGIN <= y < img.height - RING_MARGIN):
        raise ValueError(f"({x},{y}) is within {RING_MARGIN} pixels of an edge")
    c = img.at(x, y)
    states = [pixel_state(c, img.at(x + dx, y + dy), t) for dx, dy in RING_OFFSETS]
    return encode_ring_config(states)


def config_field(img: GrayImage, t: int) -> np.ndarray:
    """Config codes for every interior pixel, shape (h - 6, w - 6) int64."""
    bright, dark = ring_state_masks(img, t)
    codes = np.zeros(bright.shape, dtype=np.int64)
    for i in range(N_RING):
        bit = np.uint16(1 << i)
        state = 1 + ((bright & bit) != 0).astype(np.int64) - ((dark & bit) != 0)
        codes += state * 3**i
    return codes


def detect_fast_n(img: GrayImage, n: int, t: int) -> np.ndarray:
    """All interior positions passing the segment test, raster order.

    Returns an (M, 2) int32 array of [x, y]. No non-maximal suppression.
    """
    if not 9 <= n <= 16:
        raise ValueError(f"arc length n={n} unsupported (need 9..16)")
    bright, dark = ring_state_masks(img, t)
    if bright.size == 0:
        return np.zeros((0, 2), dtype=np.int32)
    tbl = _circular_run_table()
    hit = (tbl[bright] >= n) | (tbl[dark] >= n)
    ys, xs = np.nonzero(hit)
    return np.column_stack([xs + RING_MARGIN, ys + RING_MARGIN]).astype(np.int32)


def segment_score_field(img: GrayImage, n: int) -> np.ndarray:
    """Per-pixel maximum threshold at which the segment test still fires.

    Shape matches the image; border and non-corner pixels hold 0. Uses the
    margin formulation: the score of a bright arc is the smallest
    ring-minus-centre difference over the arc, maximized over the 16 arcs of
    length n (darker arcs symmetric). Equals max{t : detect at t} because the
    partition is boundary-inclusive and monotone in t.
    """
    if not 9 <= n <= 16:
        raise ValueError(f"arc length n={n} unsupported (need 9..16)")
    a = img.pixels.astype(np.int16)
    h, w = a.shape
    out = np.zeros((h, w), dtype=np.int16)
    if h <= 2 * RING_MARGIN or w <= 2 * RING_MARGIN:
        return out
    centre, shifted = _interior_shifts(a, RING_MARGIN)
    diffs = np.stack([r - centre for r in shifted])  # (16, h', w')

    def window_min(stack: np.ndarray) -> np.ndarray:
        m = stack
        k = 1
        while k * 2 <= n:
            m = np.minimum(m, np.roll(m, -k, axis=0))
            k *= 2
        if k < n:
            m = np.minimum(m, np.roll(m, -(n - k), axis=0))
        return m.max(axis=0)

    score = np.maximum(window_min(diffs), window_min(-diffs))
    out[RING_MARGIN : h - RING_MARGIN, RING_MARGIN : w - RING_MARGIN] = \
        np.maximum(score, 0)
    return out
