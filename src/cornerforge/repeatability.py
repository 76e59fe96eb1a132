"""Repeatability evaluation: useful/repeated counting, count sweeps, AUC.

A feature of frame i is useful when its ground-truth projection lands
visibly inside frame j; it is repeated when some detection of frame j lies
within epsilon (Euclidean) of that projection. Several features may match a
single target detection. The sequence score pools counts over all evaluated
pairs, which equals the useful-weighted mean of per-pair ratios.

Detections are integer pixels, so one exact kernel does all matching, here
and in annealing's cost: the targets become a boolean raster with row prefix
sums, and the cells within epsilon of a query form one run of columns per
lattice row, so a query costs 2*ceil(epsilon) + 1 pairs of lookups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .warp import Homography, project_points

CURVE_MAX_COUNT = 2000  # aggregate score integrates R over 0..2000 features
DEFAULT_COUNT_STEP = 25


class MissingWarpError(KeyError):
    pass


@dataclass(frozen=True)
class RepeatSample:
    n_useful: int
    n_repeated: int

    def __post_init__(self):
        if not 0 <= self.n_repeated <= self.n_useful:
            raise ValueError("need 0 <= n_repeated <= n_useful")

    @property
    def ratio(self) -> float:
        return self.n_repeated / self.n_useful if self.n_useful else 0.0


def _row_prefix(raster: np.ndarray) -> np.ndarray:
    """Row prefix sums of an (h, w) boolean raster, shape (h + 1, w + 1).

    Entry [y, x] counts the set cells of row y left of column x; row h is
    all zero, so row indices -1 and h both read an empty row.
    """
    h, w = raster.shape
    prefix = np.zeros((h + 1, w + 1), dtype=np.int32)
    np.cumsum(raster, axis=1, dtype=np.int32, out=prefix[:h, 1:])
    return prefix


def _any_within(qx: np.ndarray, qy: np.ndarray, prefix: np.ndarray,
                epsilon: float, x0: int = 0, y0: int = 0) -> np.ndarray:
    """For each query (qx, qy), is a set cell within Euclidean epsilon.

    ``prefix`` is ``_row_prefix`` of a raster whose cell [0, 0] sits at the
    integer point (x0, y0). The test is ``(cx-qx)**2 + (cy-qy)**2 <=
    epsilon**2`` in float64 on unshifted coordinates; only integer cells are
    shifted into the raster. Rows cy = floor(qy) - c .. floor(qy) + c, with
    c = ceil(epsilon), hold every cell within epsilon. In each row the test
    holds on one run of columns [lo, hi], because the rounded d2 only grows
    with |cx - qx|. The run ends come from sqrt, widened by a slack larger
    than any rounding error and smaller than one cell; one exact d2 test per
    end then moves each end inward by at most one. A hit is a run whose
    prefix-sum difference is positive.
    """
    c = math.ceil(epsilon)
    eps2 = float(epsilon) ** 2
    slack = 1e-6 * (1.0 + epsilon)
    h, w = prefix.shape[0] - 1, prefix.shape[1] - 1
    qx = np.asarray(qx, dtype=np.float64)[:, None]
    qy = np.asarray(qy, dtype=np.float64)[:, None]
    cy = np.floor(qy).astype(np.int64) + np.arange(-c, c + 1)
    dy2 = (cy - qy) ** 2
    r = np.sqrt(np.maximum(eps2 - dy2, 0.0))
    lo = np.ceil(qx - r - slack).astype(np.int64)
    lo += (lo - qx) ** 2 + dy2 > eps2
    hi = np.floor(qx + r + slack).astype(np.int64)
    hi -= (hi - qx) ** 2 + dy2 > eps2
    base = np.clip(cy - y0, -1, h) * (w + 1)
    flat = prefix.ravel()
    count = (flat[base + np.clip(hi + 1 - x0, 0, w)]
             - flat[base + np.clip(lo - x0, 0, w)])
    return (count > 0).any(axis=1)


def match_within(queries: np.ndarray, targets: np.ndarray,
                 epsilon: float) -> np.ndarray:
    """For each query point, is any target within Euclidean distance epsilon.

    Targets are integer pixel positions (``ValueError`` otherwise). They are
    rasterised over their bounding box and ``_any_within`` checks each query
    against it: 2*ceil(epsilon) + 1 lattice rows, one prefix-sum lookup per
    row end. The result equals comparing every query with every target.
    """
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, 2)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 2)
    if not (np.isfinite(targets).all()
            and np.array_equal(np.round(targets), targets)):
        raise ValueError("match targets must be integer pixel positions")
    cells = targets.astype(np.int64)
    if len(queries) == 0 or len(targets) == 0:
        return np.zeros(len(queries), dtype=bool)
    x0, y0 = cells.min(axis=0)
    x1, y1 = cells.max(axis=0)
    raster = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
    raster[cells[:, 1] - y0, cells[:, 0] - x0] = True
    return _any_within(queries[:, 0], queries[:, 1], _row_prefix(raster),
                       epsilon, x0, y0)


def pair_repeatability(det_i: np.ndarray, det_j: np.ndarray, warp: Homography,
                       epsilon: float) -> RepeatSample:
    """Useful/repeated counts for one ordered image pair of keypoint rows."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if len(det_i) == 0:
        return RepeatSample(0, 0)
    proj, valid = project_points(warp, det_i[:, :2])
    n_useful = int(valid.sum())
    if n_useful == 0:
        return RepeatSample(0, 0)
    matched = match_within(proj[valid], det_j[:, :2], epsilon)
    return RepeatSample(n_useful, int(matched.sum()))


def make_pairs(n_frames: int, policy: str = "adjacent2") -> list[tuple[int, int]]:
    """Ordered frame pairs to evaluate. "adjacent2" takes both directions of
    every pair up to two frames apart; "all" takes every ordered pair."""
    if policy == "all":
        return [(i, j) for i in range(n_frames) for j in range(n_frames) if i != j]
    if policy == "adjacent2":
        return [(i, j) for i in range(n_frames) for j in range(n_frames)
                if i != j and abs(i - j) <= 2]
    raise ValueError(f"unknown pair policy {policy!r}")


def _detect_all(frames, detector, n_features):
    return [detector.detect(frame, n_features, frame_key=k)
            for k, frame in enumerate(frames)]


def sequence_repeatability(frames, warps, detector, n_features: int,
                           epsilon: float, pairs=None) -> float:
    """Pooled repeated/useful ratio over all evaluated ordered pairs.

    ``warps`` maps ordered pairs (i, j) to homographies; every evaluated pair
    must be present.
    """
    frames = list(frames)
    if pairs is None:
        pairs = make_pairs(len(frames))
    detections = _detect_all(frames, detector, n_features)
    tot_useful = tot_rep = 0
    for i, j in pairs:
        if (i, j) not in warps:
            raise MissingWarpError(f"no warp for frame pair ({i}, {j})")
        sample = pair_repeatability(detections[i], detections[j],
                                    warps[(i, j)], epsilon)
        tot_useful += sample.n_useful
        tot_rep += sample.n_repeated
    return tot_rep / tot_useful if tot_useful else 0.0


def repeatability_curve(frames, warps, detector, counts=None,
                        epsilon: float = 5.0, pairs=None) -> list[tuple[int, float]]:
    """One sequence evaluation per requested feature count.

    Count 0 is emitted as (0, 0.0) by convention (no useful features).
    """
    if counts is None:
        counts = list(range(0, CURVE_MAX_COUNT + 1, DEFAULT_COUNT_STEP))
    counts = list(counts)
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("counts must be strictly ascending")
    curve = []
    for count in counts:
        if count == 0:
            curve.append((0, 0.0))
            continue
        curve.append((count, sequence_repeatability(
            frames, warps, detector, count, epsilon, pairs)))
    return curve


def area_under_curve(curve) -> float:
    """Trapezoidal integral of R over feature count across [0, 2000].

    The maximum possible value is 2000 (R identically 1).
    """
    pts = sorted((float(c), float(r)) for c, r in curve)
    xs = np.array([p[0] for p in pts])
    rs = np.array([p[1] for p in pts])
    if len(xs) < 2 or xs[0] > 0 or xs[-1] < CURVE_MAX_COUNT:
        raise ValueError(f"curve must cover [0, {CURVE_MAX_COUNT}]")
    grid = np.unique(np.concatenate([xs.clip(0, CURVE_MAX_COUNT),
                                     [0.0, float(CURVE_MAX_COUNT)]]))
    vals = np.interp(grid, xs, rs)
    return float(np.trapezoid(vals, grid))

