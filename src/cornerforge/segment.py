"""The FAST-n segment test over the 16-pixel ring, as labels of ring
configurations and as a per-pixel score field.

A ring configuration is the ordered 16-tuple of ternary pixel states
(darker=0 / similar=1 / brighter=2, as ``runtime.ternary_planes`` computes
them); its code is the base-3 integer in [0, 3^16) whose digit i holds the
state of ring index i+1 (``learn.codes_from_states``). ``config_labels``
labels given codes and ``label_all_configs`` the whole space, both from one
table of the longest circular run in a 16-bit mask; ID3 learns its trees
from these labels, and they are the ground truth every learned tree is
checked against. ``segment_score_field`` is the reference detector: the
largest threshold at which each pixel still passes the test.
"""

from __future__ import annotations

import numpy as np

from .image import RING_MARGIN, RING_OFFSETS, GrayImage

N_RING = 16
N_CONFIGS = 3**N_RING  # 43,046,721

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


def config_labels(codes: np.ndarray, n: int) -> np.ndarray:
    """True where a config code has >= n circularly contiguous ring
    positions all brighter or all darker (wrap-around counts); 9 <= n <= 16."""
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
    b = RING_MARGIN
    centre = a[b : h - b, b : w - b]
    diffs = np.stack([a[b + dy : h - b + dy, b + dx : w - b + dx] - centre
                      for dx, dy in RING_OFFSETS])  # (16, h', w')

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
    out[b : h - b, b : w - b] = np.maximum(score, 0)
    return out
