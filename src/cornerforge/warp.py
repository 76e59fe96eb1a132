"""Ground-truth point transfer between frames: homographies.

A warp carries the target frame size so projections can be marked invalid
when they land outside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SingularHomographyError(ValueError):
    pass


@dataclass(frozen=True)
class Homography:
    """3x3 projective point transfer from source to target frame."""

    matrix: np.ndarray
    target_size: tuple[int, int]  # (width, height)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64).reshape(3, 3)
        if not np.isfinite(m).all():
            raise SingularHomographyError("matrix has non-finite entries")
        if abs(np.linalg.det(m)) <= 1e-12:
            raise SingularHomographyError(f"|det|={abs(np.linalg.det(m)):.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def project_points(warp: Homography, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map (N, 2) source positions; returns (coords, valid).

    Valid means not sent to infinity and inside the target frame's
    pixel-center box [0, w-1] x [0, h-1]. A point sent to infinity has
    coordinates (0, 0). Each coordinate is divided in place, only on the
    rows with |z| > 1e-12, and the box test ANDs into ``valid``, so no
    masked copy is made; one 1-D masked division per coordinate runs
    several times faster than one over the (N, 2) block.
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    w, h = warp.target_size
    ones = np.ones((pts.shape[0], 1))
    hom = np.hstack([pts, ones]) @ warp.matrix.T
    zs = hom[:, 2]
    valid = np.abs(zs) > 1e-12
    coords = np.zeros((pts.shape[0], 2))
    for k in range(2):
        np.divide(hom[:, k], zs, out=coords[:, k], where=valid)
    for v, top in ((coords[:, 0], w - 1), (coords[:, 1], h - 1)):
        valid &= v >= 0
        valid &= v <= top
    return coords, valid


def save_homography(f, matrix: np.ndarray) -> None:
    """9 ASCII reals, row-major (Oxford convention); '#' comments allowed."""
    m = np.asarray(matrix, dtype=np.float64).reshape(3, 3)
    for row in m:
        f.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_homography(f, target_size: tuple[int, int]) -> Homography:
    vals: list[float] = []
    for line in f:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        vals.extend(float(tok) for tok in line.split())
    if len(vals) != 9:
        raise ValueError(f"homography file needs 9 reals, got {len(vals)}")
    return Homography(np.array(vals).reshape(3, 3), target_size)
