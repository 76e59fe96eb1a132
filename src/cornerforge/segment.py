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
The score of a brighter arc is its least ring value minus the centre, of a
darker arc the centre minus its greatest: each arc is a (brighter, darker)
pair of the tree detectors' corner needs, and the field is their one dense
routine, ``runtime.needs_field``, over the arcs of length n.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .image import RING_MARGIN, RING_OFFSETS, GrayImage
from .runtime import needs_field

N_RING = 16
N_CONFIGS = 3**N_RING  # 43,046,721

HALF = 3**8  # codes of eight ring states: a config code is hi * HALF + lo


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


@cache
def _arcs(n: int) -> tuple:
    """The (brighter, darker) pairs of FAST-n as ring indices: each of the
    16 circular arcs of length n (one for n = 16) on one side, nothing on
    the other."""
    arcs = sorted({tuple(sorted((i + k) % N_RING for k in range(n)))
                   for i in range(N_RING)})
    return tuple((arc, ()) for arc in arcs) + tuple(((), arc) for arc in arcs)


def segment_score_field(img: GrayImage, n: int) -> np.ndarray:
    """Per-pixel maximum threshold at which the segment test still fires.

    int16, shaped like the image; border and non-corner pixels hold 0. A
    brighter arc passes at t while its least ring value is >= centre + t,
    so its score is (least value over the arc) - centre; a darker arc's is
    centre - (greatest value over the arc). The field is the largest of
    these over the arcs of length n and 0, ``runtime.needs_field`` of the
    arcs. It equals max{t : detect at t} because the partition is
    boundary-inclusive and monotone in t.
    """
    check_arc(n)
    return needs_field(img, RING_OFFSETS, _arcs(n), RING_MARGIN)
