"""Synthetic benchmark data: corner-rich images, random homographies, warps.

Stands in for external evaluation footage: a generated base image is viewed
under bounded random homographies (plus optional per-frame noise) with the
ground-truth point transfer emitted alongside.
"""

from __future__ import annotations

import numpy as np

from .image import GrayImage, add_gaussian_noise, check_magnitude
from .warp import Homography

# on small images a diamond radius reaches 5, and it needs 2 * 5 + 1 pixels
SYNTHETIC_MIN_SIDE = 11


def synthetic_base_image(width: int, height: int, seed: int) -> GrayImage:
    """Deterministic corner-rich test scene: smooth background with scattered
    rectangles and diamonds of varying contrast. ``ValueError`` when a side
    is below ``SYNTHETIC_MIN_SIDE``."""
    if min(width, height) < SYNTHETIC_MIN_SIDE:
        raise ValueError(f"a synthetic image needs at least {SYNTHETIC_MIN_SIDE}"
                         f"x{SYNTHETIC_MIN_SIDE} pixels, got {width}x{height}")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    canvas = 110.0 + 35.0 * xx / width + 25.0 * yy / height

    # low-frequency texture: coarse noise, block-upsampled then box-smoothed
    cell = 16
    coarse = rng.normal(0.0, 18.0, (height // cell + 2, width // cell + 2))
    texture = np.repeat(np.repeat(coarse, cell, axis=0), cell, axis=1)
    texture = texture[:height, :width]
    for _ in range(2):
        padded = np.pad(texture, 4, mode="edge")
        texture = sum(padded[dy : dy + height, dx : dx + width]
                      for dy in range(0, 9, 4) for dx in range(0, 9, 4)) / 9.0
    canvas += texture

    n_rects = max(20, width * height // 4000)
    for _ in range(n_rects):
        rw = int(rng.integers(6, max(8, width // 6)))
        rh = int(rng.integers(6, max(8, height // 6)))
        x0 = int(rng.integers(0, max(1, width - rw)))
        y0 = int(rng.integers(0, max(1, height - rh)))
        val = float(rng.integers(10, 246))
        canvas[y0 : y0 + rh, x0 : x0 + rw] = val

    for _ in range(n_rects // 3):
        r = int(rng.integers(4, max(6, min(width, height) // 10)))
        cx = int(rng.integers(r, width - r))
        cy = int(rng.integers(r, height - r))
        val = float(rng.integers(10, 246))
        mask = (np.abs(xx - cx) + np.abs(yy - cy)) <= r
        canvas[mask] = val

    return GrayImage(np.clip(np.rint(canvas), 0, 255).astype(np.uint8))


def random_homography_matrix(rng: np.random.Generator, width: int, height: int,
                             magnitude: float = 1.0) -> np.ndarray:
    """Bounded perspective + rotation + scale + translation about the centre."""
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    theta = rng.uniform(-0.10, 0.10) * magnitude
    scale = float(np.exp(rng.uniform(-0.08, 0.08) * magnitude))
    tx = rng.uniform(-0.02, 0.02) * magnitude * width
    ty = rng.uniform(-0.02, 0.02) * magnitude * height
    p_scale = 1.2e-4 * magnitude * 300.0 / max(width, height)
    px, py = rng.uniform(-p_scale, p_scale, size=2)

    to_centre = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1]], dtype=np.float64)
    rot = np.array([
        [scale * np.cos(theta), -scale * np.sin(theta), 0],
        [scale * np.sin(theta), scale * np.cos(theta), 0],
        [0, 0, 1],
    ])
    persp = np.array([[1, 0, 0], [0, 1, 0], [px, py, 1]], dtype=np.float64)
    back = np.array([[1, 0, cx + tx], [0, 1, cy + ty], [0, 0, 1]], dtype=np.float64)
    return back @ persp @ rot @ to_centre


def warp_image(img: GrayImage, matrix: np.ndarray) -> GrayImage:
    """Resample under a homography (inverse mapping, bilinear, edge clamp),
    at the image's own size."""
    w, h = img.width, img.height
    inv = np.linalg.inv(np.asarray(matrix, dtype=np.float64))
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    denom = inv[2, 0] * xx + inv[2, 1] * yy + inv[2, 2]
    sx = (inv[0, 0] * xx + inv[0, 1] * yy + inv[0, 2]) / denom
    sy = (inv[1, 0] * xx + inv[1, 1] * yy + inv[1, 2]) / denom

    a = img.pixels.astype(np.float64)
    sx = np.clip(sx, 0, img.width - 1)
    sy = np.clip(sy, 0, img.height - 1)
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, img.width - 1)
    y1 = np.minimum(y0 + 1, img.height - 1)
    fx = sx - x0
    fy = sy - y0
    val = ((1 - fy) * ((1 - fx) * a[y0, x0] + fx * a[y0, x1])
           + fy * ((1 - fx) * a[y1, x0] + fx * a[y1, x1]))
    return GrayImage(np.clip(np.rint(val), 0, 255).astype(np.uint8))


def make_dataset(base: GrayImage, n_frames: int, warp_magnitude: float,
                 noise_sigma: float, seed: int):
    """Warped + noised views of a base image with exact pairwise warps.

    Returns (frames, warps): frame 0 is the base, and ``warps`` maps every
    ordered frame pair (i, j) to a Homography. Both magnitudes must pass
    ``check_magnitude``.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    check_magnitude(warp_magnitude)
    check_magnitude(noise_sigma)
    rng = np.random.default_rng(seed)
    size = (base.width, base.height)
    mats = [np.eye(3)]
    frames = [base]
    for _ in range(1, n_frames):
        m = random_homography_matrix(rng, base.width, base.height, warp_magnitude)
        mats.append(m)
        frames.append(warp_image(base, m))
    if noise_sigma > 0:
        frames = [
            add_gaussian_noise(
                f, noise_sigma,
                int(np.random.SeedSequence((seed, 1, k)).generate_state(1)[0]))
            for k, f in enumerate(frames)
        ]
    warps = {}
    for i in range(n_frames):
        inv_i = np.linalg.inv(mats[i])
        for j in range(n_frames):
            if i != j:
                warps[(i, j)] = Homography(mats[j] @ inv_i, target_size=size)
    return frames, warps
