"""Grayscale images, pixel-exact PGM I/O, ring geometry and pixel noise.

Coordinates are (x, y) with x in [0, width), y in [0, height), y increasing
downward. Pixel data is 8-bit, stored row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PgmError(ValueError):
    """Malformed PGM input: bad magic or header fields, a maxval beyond 8
    bits, a raster shorter than width*height, or a sample above maxval."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable 8-bit single-channel raster.

    ``pixels`` is a read-only (height, width) uint8 array; I(x, y) is
    ``pixels[y, x]``.
    """

    pixels: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.pixels)
        if a.ndim != 2:
            raise ValueError(f"expected 2-d pixel array, got shape {a.shape}")
        if a.dtype != np.uint8:
            raise ValueError(f"expected uint8 pixels, got {a.dtype}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("image must be at least 1x1")
        a.setflags(write=False)
        object.__setattr__(self, "pixels", a)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """(height, width), numpy order."""
        return self.pixels.shape


# The 16 ring offsets on the discretized radius-3 circle, indexed 1..16.
# Index 1 is straight up (0,-3); order proceeds clockwise (y grows downward),
# so index i and index i+8 (mod 16) are antipodal.
RING_OFFSETS: tuple[tuple[int, int], ...] = (
    (0, -3), (1, -3), (2, -2), (3, -1),
    (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1),
    (-3, 0), (-3, -1), (-2, -2), (-1, -3),
)

RING_MARGIN = 3  # candidates closer than this to an edge are never evaluated


def load_pgm(data: bytes) -> GrayImage:
    """Parse a binary (P5) PGM byte string.

    Header comments (``#`` to end of line) are accepted anywhere between
    tokens. Maxval must be <= 255, and no sample may exceed it. Samples are
    kept as stored: a maxval below 255 is not rescaled.
    """
    if not data.startswith(b"P5"):
        if data.startswith(b"P2"):
            raise PgmError("ASCII PGM (P2) is not supported; use binary P5")
        raise PgmError(f"bad magic {data[:2]!r}, expected P5")

    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            eol = data.find(b"\n", pos)
            if eol < 0:
                raise PgmError("unterminated comment in header")
            pos = eol + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PgmError("truncated header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval

    try:
        width, height, maxval = (int(tok) for tok in tokens)
    except ValueError as exc:
        raise PgmError(f"non-numeric header field: {exc}") from None
    if width < 1 or height < 1:
        raise PgmError(f"bad dimensions {width}x{height}")
    if maxval > 255:
        raise PgmError(f"maxval {maxval} exceeds 255 (8-bit only)")
    if maxval < 1:
        raise PgmError(f"bad maxval {maxval}")

    n = width * height
    raster = data[pos : pos + n]
    if len(raster) < n:
        raise PgmError(f"raster has {len(raster)} bytes, expected {n}")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if maxval < 255 and pixels.max() > maxval:
        raise PgmError(f"sample {pixels.max()} exceeds maxval {maxval}")
    return GrayImage(pixels.copy())


def save_pgm(img: GrayImage, comment: str | None = None) -> bytes:
    """Serialize to canonical binary PGM: ``P5\\n<w> <h>\\n255\\n`` + raster.

    An optional single-line comment is placed after the magic.
    """
    head = b"P5\n"
    if comment:
        if "\n" in comment:
            raise ValueError("comment must be a single line")
        head += b"# " + comment.encode() + b"\n"
    head += f"{img.width} {img.height}\n255\n".encode()
    return head + img.pixels.tobytes()


def load_image(path) -> GrayImage:
    """Load a PGM file; falls back to Pillow (grayscale-converted) for other
    formats when it is installed. PGM is the contract format."""
    path = str(path)
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] in (b"P5", b"P2"):
        return load_pgm(data)
    try:
        from PIL import Image
    except ImportError:
        raise PgmError(f"{path}: not a PGM and Pillow is not installed") from None
    with Image.open(path) as im:
        return GrayImage(np.asarray(im.convert("L"), dtype=np.uint8))


def add_gaussian_noise(img: GrayImage, sigma: float, seed: int) -> GrayImage:
    """Per-pixel clamp(round(I + N(0, sigma^2)), 0, 255), deterministic per seed."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return img
    rng = np.random.default_rng(seed)
    noisy = img.pixels.astype(np.float64) + rng.normal(0.0, sigma, img.pixels.shape)
    return GrayImage(np.clip(np.rint(noisy), 0, 255).astype(np.uint8))
