"""Comparison detectors: Harris, Shi-Tomasi, and a random scatter baseline.

Harris and Shi-Tomasi give response fields; their detectors' score grids
are the positive responses, suppressed like every other grid
(``runtime.suppressed_rows``). The random baseline's keypoint rows are a
seeded permutation of the interior, at least ``RING_MARGIN`` from every
edge: its ranking. Gradients are central differences on an
edge-replicated border; the structure tensor is smoothed with a Gaussian
truncated at 3 sigma and renormalized. Smoothing runs in blocks of rows that
stay in cache, but each pixel still sums its taps in kernel order with the
same roundings, so the result is bit-identical to whole-field passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import RING_MARGIN, GrayImage
from .runtime import keypoint_rows

HARRIS_K = 0.04  # standard free parameter for the det - k*trace^2 response
# Rows per smoothing block: a block of a 640 px field is about 330 kB per
# buffer, so its source, product and output stay in L2; 16 to 128 rows timed
# within noise of each other at 640 px
_SMOOTH_BLOCK_ROWS = 64


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


def _smooth_separable(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable convolution of a float64 field with an odd-length kernel,
    horizontal pass then vertical, each over an edge-replicated border.

    Each pass runs in blocks of ``_SMOOTH_BLOCK_ROWS`` rows so the block and
    its one product buffer stay in cache. Every output pixel still sums its
    taps in kernel order from zero, with one rounded product and one rounded
    add per tap, so the result is the same bit for bit as whole-field
    ``out += kv * pad[...]`` passes.
    """
    r = len(kernel) // 2
    h, w = field.shape
    rows = _SMOOTH_BLOCK_ROWS
    tmp = np.empty((min(rows, h), w))
    hpad = np.empty((h, w + 2 * r))
    hpad[:, r : r + w] = field
    hpad[:, :r] = field[:, :1]
    hpad[:, r + w :] = field[:, -1:]
    vpad = np.zeros((h + 2 * r, w))
    for b in range(0, h, rows):
        e = min(b + rows, h)
        o, t = vpad[r + b : r + e], tmp[: e - b]
        for i, kv in enumerate(kernel):
            np.multiply(kv, hpad[b:e, i : i + w], out=t)
            o += t
    vpad[:r] = vpad[r]
    vpad[r + h :] = vpad[r + h - 1]
    out = np.zeros_like(field)
    for b in range(0, h, rows):
        e = min(b + rows, h)
        o, t = out[b:e], tmp[: e - b]
        for i, kv in enumerate(kernel):
            np.multiply(kv, vpad[b + i : e + i], out=t)
            o += t
    return out


def gradients(img: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference (gx, gy) with clamped-replication borders."""
    a = img.pixels.astype(np.float64)
    pad = np.pad(a, 1, mode="edge")
    gx = 0.5 * (pad[1:-1, 2:] - pad[1:-1, :-2])
    gy = 0.5 * (pad[2:, 1:-1] - pad[:-2, 1:-1])
    return gx, gy


def structure_tensor(img: GrayImage, sigma: float = 2.5) -> StructureTensor:
    """``ValueError`` before any allocation when the smoothing radius reaches
    the image's longer side: each pass pads every row or column by it."""
    r = kernel_radius(sigma)
    if r >= max(img.width, img.height):
        raise ValueError(f"sigma {sigma} smooths over a radius of {r} pixels, "
                         f"not below the {img.width}x{img.height} image's "
                         f"longer side")
    gx, gy = gradients(img)
    k = gaussian_kernel(sigma)
    return StructureTensor(
        axx=_smooth_separable(gx * gx, k),
        axy=_smooth_separable(gx * gy, k),
        ayy=_smooth_separable(gy * gy, k),
    )


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
    flat = np.random.default_rng(seed).permutation(iw * ih)
    return keypoint_rows(flat % iw + m, flat // iw + m, np.ones(len(flat)))
