"""Comparison detectors: Harris, Shi-Tomasi, and a random scatter baseline.

Like the segment-test detectors they return keypoint rows: (N, 3) float64
arrays of x, y, score, at least ``RING_MARGIN`` from every edge, the border
the segment test cannot evaluate. Harris and Shi-Tomasi rows are suppressed
response maxima; the random baseline's rows are a seeded permutation of the
interior, its ranking. Gradients are central differences on an
edge-replicated border; the structure tensor is smoothed with a Gaussian
truncated at 3 sigma and renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import RING_MARGIN, GrayImage
from .runtime import keypoint_rows, suppress_scored_arrays

HARRIS_K = 0.04  # standard free parameter for the det - k*trace^2 response


@dataclass(frozen=True)
class StructureTensor:
    """Per-pixel 2x2 symmetric matrix [[axx, axy], [axy, ayy]] of smoothed
    gradient products."""

    axx: np.ndarray
    axy: np.ndarray
    ayy: np.ndarray


def _kernel_radius(sigma: float) -> int:
    """ceil(3 sigma), the radius at which ``gaussian_kernel`` truncates."""
    if not (sigma > 0 and math.isfinite(3.0 * sigma)):
        raise ValueError(f"sigma must be > 0 with 3 sigma finite, got {sigma}")
    return math.ceil(3.0 * sigma)


def gaussian_kernel(sigma: float) -> np.ndarray:
    """1-d Gaussian truncated at 3 sigma and renormalized to unit sum."""
    r = _kernel_radius(sigma)
    xs = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2.0 * sigma**2))
    return k / k.sum()


def _smooth_separable(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
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
    r = _kernel_radius(sigma)
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


def detect_response(field: np.ndarray) -> np.ndarray:
    """Keypoint rows of a response field: 3x3 non-maximal suppression of its
    positive cells, then only rows at least ``RING_MARGIN`` from the border.

    Only strictly positive responses are candidates (feature-count control is
    equivalent to thresholding on the response). A positive cell is never
    suppressed by a non-positive neighbor, so suppressing among the positive
    cells alone keeps what suppressing the whole field would. Rows are in
    raster order.
    """
    ys, xs = np.nonzero(field > 0)
    kxs, kys, ks = suppress_scored_arrays(xs, ys, field[ys, xs], field.shape)
    h, w = field.shape
    m = RING_MARGIN
    inner = (kxs >= m) & (kxs < w - m) & (kys >= m) & (kys < h - m)
    return keypoint_rows(kxs[inner], kys[inner], ks[inner])


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
