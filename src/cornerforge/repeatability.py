"""Repeatability evaluation: useful/repeated counting, count sweeps, AUC.

A feature of frame i is useful when its ground-truth projection lands
visibly inside frame j; it is repeated when some detection of frame j lies
within epsilon (Euclidean) of that projection. Several features may match a
single target detection. The sequence score pools counts over all evaluated
pairs, which equals the useful-weighted mean of per-pair ratios.

Detections are integer pixels. Only the cells of the (2c + 1)^2 box around
a query's floor cell, c = ceil(epsilon), can lie within epsilon of it; the
maybe cells of ``_disc_runs`` are those of the box that can, and one exact
float64 test (``_cells_within``) decides each. The curve reads it over a
raster of ranks and takes the best-ranked passing cell. Annealing's cost
reads it over row prefix sums of a boolean raster, for the few queries
that the sure and maybe runs of ``_disc_runs`` leave open. The curve ranks
each frame once (``all_keypoints``, the random baseline included) and cuts
that ranking at every count with ``top_n_by_score``, as ``detect`` would.
Each frame's pool is its cut at the largest count, which holds every
smaller cut, so one projection and one min-rank match per ordered pair give
the useful and repeated counts at every count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .runtime import top_n_by_score
from .warp import Homography, project_points

CURVE_MAX_COUNT = 2000  # aggregate score integrates R over 0..2000 features


class MissingWarpError(KeyError):
    pass


@dataclass(frozen=True)
class RepeatSample:
    n_useful: int
    n_repeated: int

    def __post_init__(self):
        if not 0 <= self.n_repeated <= self.n_useful:
            raise ValueError("need 0 <= n_repeated <= n_useful")


def check_epsilon(epsilon: float) -> None:
    """``ValueError`` unless the matching radius is finite and positive."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")


def _row_prefix(raster: np.ndarray) -> np.ndarray:
    """Row prefix sums of an (h, w) boolean raster, shape (h + 1, w + 1).

    Entry [y, x] counts the set cells of row y left of column x, so cell
    [y, x] is set when entry [y, x + 1] exceeds entry [y, x].
    """
    h, w = raster.shape
    prefix = np.zeros((h + 1, w + 1), dtype=np.int32)
    np.cumsum(raster, axis=1, dtype=np.int32, out=prefix[:h, 1:])
    return prefix


def _disc_runs(epsilon: float, stride: int):
    """The cells around a unit cell that can lie within epsilon of its
    queries: ``(sure, maybe, cells)``.

    A query (qx, qy) has the floor cell (fx, fy) = (floor(qx), floor(qy)),
    and only the cells (fx + u, fy + v), u, v = -c..c with c = ceil(epsilon),
    can match it (``_cells_within``). The sure cells are those within
    epsilon of every point of the closed cell [0, 1]^2, the maybe cells
    those within epsilon of some point of it. Their squared distances are
    integers, tested against epsilon**2 narrowed (sure) or widened (maybe)
    by a slack, so for every query of the cell its sure cells pass the
    exact test and every cell that passes it is a maybe cell. At epsilon
    0.5 no cell is sure.

    ``sure`` and ``maybe`` are (k, 2) int64 runs, one per row v with a
    nonempty run [u_lo, u_hi], as flat offsets ``(lo, hi)`` = (v * stride +
    u_lo, v * stride + u_hi + 1) into row prefix sums of row stride
    ``stride``. Rows come centre-out, v = 0, 1, -1, 2, ..., so the first run
    is the floor cell's row. ``cells`` lists the maybe cells as (K, 2) int64
    offsets (u, v).
    """
    check_epsilon(epsilon)
    c = math.ceil(epsilon)
    eps2 = float(epsilon) ** 2
    slack = 1e-6 * (1.0 + epsilon)  # far above d2 rounding, far below 1
    k = np.arange(-c, c + 1)
    far = np.maximum(k * k, (k - 1) * (k - 1))
    near = np.maximum(np.maximum(-k, k - 1), 0) ** 2
    sure = far[:, None] + far <= eps2 - slack  # [v + c, u + c]
    maybe = near[:, None] + near <= eps2 + slack
    runs = []
    for mask in (sure, maybe):
        rows = []
        for v in sorted(k.tolist(), key=lambda v: abs(2 * v - 1)):
            us = k[mask[v + c]]  # one run: convex in u
            if len(us):
                rows.append((v * stride + us[0], v * stride + us[-1] + 1))
        runs.append(np.array(rows, dtype=np.int64).reshape(-1, 2))
    return runs[0], runs[1], np.argwhere(maybe)[:, ::-1] - c


def _runs_hit(anchors: np.ndarray, flat: np.ndarray, runs) -> np.ndarray:
    """For each index ``anchors`` into the flattened row prefix sums
    ``flat``, does a run ``(lo, hi)`` of ``_disc_runs`` hold a set cell: is
    ``flat[anchor + hi] - flat[anchor + lo]`` positive for one of them.

    Where detections cluster, the first run, the floor cell's row, settles
    most anchors, so the other runs are read only for the few it leaves
    open, all at once.
    """
    if not len(runs):
        return np.zeros(len(anchors), dtype=bool)
    lo, hi = runs[0]
    hit = flat.take(anchors + hi) > flat.take(anchors + lo)
    open_ = np.flatnonzero(~hit)
    at = anchors.take(open_)[:, None]
    hit[open_] = (flat.take(at + runs[1:, 1])
                  > flat.take(at + runs[1:, 0])).any(axis=1)
    return hit


def _cells_within(qx: np.ndarray, qy: np.ndarray, anchors: np.ndarray,
                  cells: np.ndarray, stride: int, epsilon: float):
    """(index, within), both (N, K): for each float64 query (qx, qy), whose
    floor cell has the flat index ``anchors`` in a raster of row stride
    ``stride``, the flat index of each of its cells (fx + u, fy + v) of
    ``cells``, and whether that cell lies within Euclidean epsilon.

    The test is ``(cx-qx)*(cx-qx) + (cy-qy)*(cy-qy) <= epsilon*epsilon`` in
    float64 on the queries' own coordinates. Only cells in the (2c + 1)^2
    box around the floor cell can match, c = ceil(epsilon): a cell outside
    it is more than c >= epsilon away, even where the rounded test would
    pass (query 4 - 2**-51 against cell 9 at epsilon 5). The maybe cells of
    ``_disc_runs`` hold every cell of the box that passes.
    """
    c = math.ceil(epsilon)
    k = np.arange(-c, c + 1)
    dx = np.floor(qx)[:, None] + k - qx[:, None]  # cx - qx per column offset
    dy = np.floor(qy)[:, None] + k - qy[:, None]
    u, v = cells.T
    within = ((dx * dx)[:, u + c] + (dy * dy)[:, v + c]
              <= float(epsilon) * float(epsilon))
    return anchors[:, None] + (v * stride + u), within


def _rank_raster(targets: np.ndarray, size, c: int) -> np.ndarray:
    """Row k of the (N, 2) integer pixel positions ``targets`` has rank k,
    written at its cell of an int32 raster over the frame of ``size`` (w,
    h), padded by ``c`` cells on every side; every cell without a target
    reads N, and the lowest rank wins where two targets share a cell.
    ``ValueError`` for positions that are not integers or lie outside the
    frame."""
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 2)
    if not (np.isfinite(targets).all()
            and np.array_equal(np.round(targets), targets)):
        raise ValueError("match targets must be integer pixel positions")
    w, h = size
    if ((targets < 0) | (targets > [w - 1, h - 1])).any():
        raise ValueError(f"match targets must lie inside the {w}x{h} frame")
    cells = targets.astype(np.int64) + c
    ranks = np.full((h + 2 * c, w + 2 * c), len(cells), dtype=np.int32)
    # Reversed, so the lowest rank wins where two targets share a cell.
    ranks[cells[::-1, 1], cells[::-1, 0]] = np.arange(
        len(cells) - 1, -1, -1, dtype=np.int32)
    return ranks


def _pair_counts(pool_i: np.ndarray, pool_j: np.ndarray, cuts_i, cuts_j,
                 warp: Homography, epsilon: float):
    """Useful and repeated counts of one ordered pair at several cuts.

    Cut k keeps the first ``cuts_i[k]`` keypoint rows of ``pool_i`` and the
    first ``cuts_j[k]`` of ``pool_j``. The pool of frame i is projected once,
    and each projected source is matched once, to the lowest rank of frame
    j's pool within epsilon: the least ``_rank_raster`` entry over its cells
    that pass ``_cells_within``. At cut k a source is useful when its own
    rank is below ``cuts_i[k]``, and repeated when also its match is below
    ``cuts_j[k]``.
    """
    cuts_i = np.asarray(cuts_i, dtype=np.int64)[:, None]
    cuts_j = np.asarray(cuts_j, dtype=np.int64)[:, None]
    check_epsilon(epsilon)
    proj, valid = project_points(warp, pool_i[:, :2])
    rank = np.flatnonzero(valid)
    c = math.ceil(epsilon)
    ranks = _rank_raster(pool_j[:, :2], warp.target_size, c)
    stride = ranks.shape[1]
    qx, qy = proj[rank, 0], proj[rank, 1]
    anchor = ((np.floor(qy).astype(np.int64) + c) * stride
              + np.floor(qx).astype(np.int64) + c)
    index, within = _cells_within(qx, qy, anchor,
                                  _disc_runs(epsilon, stride)[2], stride,
                                  epsilon)
    match = np.where(within, ranks.ravel().take(index), len(pool_j)).min(
        axis=1, initial=len(pool_j))
    useful = rank < cuts_i
    return (useful.sum(axis=1),
            (useful & (match < cuts_j)).sum(axis=1))


def pair_repeatability(det_i: np.ndarray, det_j: np.ndarray, warp: Homography,
                       epsilon: float) -> RepeatSample:
    """Useful/repeated counts for one ordered image pair of keypoint rows."""
    useful, repeated = _pair_counts(det_i, det_j, [len(det_i)], [len(det_j)],
                                    warp, epsilon)
    return RepeatSample(int(useful[0]), int(repeated[0]))


def make_pairs(n_frames: int, policy: str = "adjacent2") -> list[tuple[int, int]]:
    """Ordered frame pairs to evaluate. "adjacent2" takes both directions of
    every pair up to two frames apart; "all" takes every ordered pair."""
    if policy == "all":
        return [(i, j) for i in range(n_frames) for j in range(n_frames) if i != j]
    if policy == "adjacent2":
        return [(i, j) for i in range(n_frames) for j in range(n_frames)
                if i != j and abs(i - j) <= 2]
    raise ValueError(f"unknown pair policy {policy!r}")


def repeatability_curve(frames, warps, detector, counts, epsilon: float,
                        pairs) -> list[tuple[int, float]]:
    """Pooled repeated/useful ratio over the ordered frame pairs ``pairs``
    (see ``make_pairs``), at each of the strictly ascending feature
    ``counts``, matching within ``epsilon``.

    ``warps`` maps ordered pairs (i, j) to homographies; every evaluated pair
    must be present, and no pair at all is a ``ValueError``. A count without
    useful features, such as count 0, reads 0.0.
    """
    counts = list(counts)
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("counts must be strictly ascending")
    check_epsilon(epsilon)
    if not pairs:
        raise ValueError("no frame pairs to evaluate: the dataset needs at "
                         "least two frames")
    frames = list(frames)
    for pair in pairs:
        if pair not in warps:
            raise MissingWarpError(f"no warp for frame pair {pair}")
    useful = np.zeros(len(counts), dtype=np.int64)
    repeated = np.zeros(len(counts), dtype=np.int64)
    if counts:
        ranked = [detector.all_keypoints(f, k) for k, f in enumerate(frames)]
        pools = [top_n_by_score(rows, counts[-1], detector.split_ties)
                 for rows in ranked]
        cuts = [[len(top_n_by_score(rows, c, detector.split_ties))
                 for c in counts] for rows in ranked]
        for i, j in pairs:
            u, r = _pair_counts(pools[i], pools[j], cuts[i], cuts[j],
                                warps[(i, j)], epsilon)
            useful += u
            repeated += r
    return [(c, r / u if u else 0.0) for c, u, r in
            zip(counts, useful.tolist(), repeated.tolist())]


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

