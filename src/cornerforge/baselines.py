"""Comparison detectors: Harris, Shi-Tomasi, and a random scatter baseline.

Harris and Shi-Tomasi give response fields; their detectors' score grids
are the positive responses (``response_grid``), suppressed and ranked like
every other grid (``runtime.ranked_rows``). The random baseline's keypoint
rows are a seeded permutation of the interior, at least ``RING_MARGIN``
from every edge: its ranking. Gradients are central differences on an
edge-replicated border; the structure tensor is smoothed with a Gaussian
truncated at 3 sigma and renormalized. ``response_grid`` computes gradients,
smoothing and response in one pass over blocks of rows, with temporaries
sized by the block rather than the frame, but each pixel still sums its taps
in kernel order with the same roundings, so the grid is bit-identical to
whole-field passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import RING_MARGIN, GrayImage
from .runtime import keypoint_rows

HARRIS_K = 0.04  # standard free parameter for the det - k*trace^2 response
# Output rows per block of ``response_grid``. Frame 0 of the seed-1 640x480
# set at sigma 2.5, 2-core Xeon, medians of 15 calls per process: 16 rows
# 27-30 ms, 32 rows 32-35 ms, 64 rows 46-49 ms, whole-field passes 35 ms;
# tracemalloc peaks 4.7 MB at 16 rows, 6.4 MB at 32
_GRID_BLOCK_ROWS = 16


@dataclass(frozen=True)
class StructureTensor:
    """Per-pixel 2x2 symmetric matrix [[axx, axy], [axy, ayy]] of smoothed
    gradient products."""

    axx: np.ndarray
    axy: np.ndarray
    ayy: np.ndarray


def kernel_radius(sigma: float) -> int:
    """ceil(3 sigma), the radius at which ``gaussian_kernel`` truncates. The
    rule for sigma: a ``ValueError`` unless sigma > 0 with 3 sigma finite."""
    if not (sigma > 0 and math.isfinite(3.0 * sigma)):
        raise ValueError(f"sigma must be > 0 with 3 sigma finite, got {sigma}")
    return math.ceil(3.0 * sigma)


def gaussian_kernel(sigma: float) -> np.ndarray:
    """1-d Gaussian truncated at 3 sigma and renormalized to unit sum."""
    r = kernel_radius(sigma)
    xs = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2.0 * sigma**2))
    return k / k.sum()


def response_grid(img: GrayImage, sigma: float, response) -> np.ndarray:
    """The positive cells of ``response`` (``harris_response`` or
    ``shi_tomasi_response``) over the structure tensor of ``img`` at
    ``sigma``, as a float64 grid of the image's shape; a non-positive or NaN
    response reads 0.

    The tensor's entries are the products of central-difference gradients
    on an edge-replicated border, each smoothed by ``gaussian_kernel(sigma)``
    of radius r: a horizontal pass, then a vertical one, each over an
    edge-replicated border. One pass over blocks of ``_GRID_BLOCK_ROWS``
    output rows computes the grid, with buffers allocated once per call and
    sized by the block: each pixel row's products are smoothed horizontally
    once, into a rolling window of the block's rows and r rows on either
    side, whose last 2r rows shift to the top for the next block. Every
    pixel sums its taps in kernel order from +0.0, with one rounded product
    and one rounded add per tap, so the grid is the same bit for bit as
    whole-field passes.

    ``ValueError`` before any allocation when r reaches the image's longer
    side.
    """
    r = kernel_radius(sigma)
    h, w = img.shape
    if r >= max(w, h):
        raise ValueError(f"sigma {sigma} smooths over a radius of {r} pixels, "
                         f"not below the {w}x{h} image's longer side")
    kernel = gaussian_kernel(sigma)
    rows = min(_GRID_BLOCK_ROWS, h)
    fresh = rows + r  # the most pixel rows one block smooths: the first's
    a = img.pixels
    pad = np.empty((fresh + 2, w + 2))  # pixel rows on a 1-pixel border
    grad = np.empty((2, fresh, w))
    prod = np.empty((3, fresh, w + 2 * r))  # xx, xy, yy on an r-pixel border
    tmp = np.empty((3, fresh, w))
    window = np.empty((3, rows + 2 * r, w))
    tensor = np.empty((3, rows, w))
    grid = np.zeros((h, w))
    for b in range(0, h, rows):
        # window row i holds the smoothed products of pixel row b + i - r,
        # clamped into the image
        m = min(rows, h - b)
        s = 2 * r if b else 0
        window[:, :s] = window[:, rows : rows + s]
        y0, y1 = max(b + s - r, 0), min(b + m + r, h)
        q = y1 - y0
        if q > 0:
            p = pad[: q + 2]
            p[1:-1, 1:-1] = a[y0:y1]
            p[0, 1:-1] = a[max(y0 - 1, 0)]
            p[-1, 1:-1] = a[min(y1, h - 1)]
            p[:, 0] = p[:, 1]
            p[:, -1] = p[:, -2]
            gx, gy = grad[:, :q]
            np.multiply(np.subtract(p[1:-1, 2:], p[1:-1, :-2], out=gx), 0.5,
                        out=gx)
            np.multiply(np.subtract(p[2:, 1:-1], p[:-2, 1:-1], out=gy), 0.5,
                        out=gy)
            hp = prod[:, :q]
            xx, xy, yy = hp[:, :, r : r + w]
            np.multiply(gx, gx, out=xx)
            np.multiply(gx, gy, out=xy)
            np.multiply(gy, gy, out=yy)
            hp[:, :, :r] = hp[:, :, r : r + 1]
            hp[:, :, r + w :] = hp[:, :, r + w - 1 : r + w]
            o, t = window[:, y0 - b + r : y1 - b + r], tmp[:, :q]
            o.fill(0.0)
            for i, kv in enumerate(kernel):
                o += np.multiply(kv, hp[:, :, i : i + w], out=t)
        if not b:
            window[:, :r] = window[:, r : r + 1]  # above row 0
        below = h - 1 - b + r  # row h - 1
        window[:, max(below + 1, s) : m + 2 * r] = window[:, below : below + 1]
        out, t = tensor[:, :m], tmp[:, :m]
        out.fill(0.0)
        for i, kv in enumerate(kernel):
            out += np.multiply(kv, window[:, i : i + m], out=t)
        res = response(StructureTensor(*out))
        np.copyto(grid[b : b + m], res, where=res > 0)
    return grid


def harris_response(tensor: StructureTensor) -> np.ndarray:
    """det(H) - k * trace(H)^2 per pixel, with k = ``HARRIS_K``."""
    det = tensor.axx * tensor.ayy - tensor.axy**2
    trace = tensor.axx + tensor.ayy
    return det - HARRIS_K * trace**2


def shi_tomasi_response(tensor: StructureTensor) -> np.ndarray:
    """Smallest eigenvalue of the 2x2 tensor, in closed form."""
    half_tr = 0.5 * (tensor.axx + tensor.ayy)
    half_diff = 0.5 * (tensor.axx - tensor.ayy)
    return half_tr - np.sqrt(half_diff**2 + tensor.axy**2)


def detect_random(img: GrayImage, seed) -> np.ndarray:
    """Rows of every interior position in a uniform random order,
    deterministic per seed: the first n rows are a uniform sample of n
    distinct positions. Positions are independent of pixel content; all
    scores are 1.
    """
    m = RING_MARGIN
    iw = img.width - 2 * m
    ih = img.height - 2 * m
    if iw <= 0 or ih <= 0:
        raise ValueError("image too small for the interior margin")
    ys, xs = np.divmod(np.random.default_rng(seed).permutation(iw * ih), iw)
    return keypoint_rows(xs + m, ys + m, 1)
