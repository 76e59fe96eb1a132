"""Repeatability evaluation: useful/repeated counting, count sweeps, AUC.

A feature of frame i is useful when its ground-truth projection lands
visibly inside frame j; it is repeated when some detection of frame j lies
within epsilon (Euclidean) of that projection. Several features may match a
single target detection. The sequence score pools counts over all evaluated
pairs, which equals the useful-weighted mean of per-pair ratios.

Detections are integer pixels, and the cells within epsilon of a query form
one run of columns in each of 2*ceil(epsilon) + 1 lattice rows
(``_row_runs``). Two kernels read those runs. Annealing's cost asks whether
a run holds a detection, through row prefix sums of a boolean raster
(``_any_within``). Before it, two fixed sets of runs per floor cell, the
cells within epsilon of the whole cell and of some point of it
(``_disc_runs``), settle most queries without ``_row_runs``. The curve
asks for the best-ranked detection in the runs, through a raster of ranks
(``_min_rank_within``). Every detector ranks each frame once, the random
baseline included, and its detection at any count is a prefix of that
ranking. So each frame has one pool, its detection at the largest count,
and one projection and one min-rank match per ordered pair give the useful
and repeated counts at every count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _slack(epsilon: float) -> float:
    """A margin on epsilon**2 for the d2 tests: far above any float64
    rounding of a squared distance near epsilon, far below one cell."""
    return 1e-6 * (1.0 + epsilon)


def _row_runs(qx: np.ndarray, qy: np.ndarray, epsilon: float):
    """The lattice cells within Euclidean epsilon of each query (qx, qy), as
    rows ``cy`` and inclusive column runs ``[lo, hi]``, each (N, 2c + 1)
    int64 with c = ceil(epsilon); a run with lo > hi is empty.

    The test is ``(cx-qx)**2 + (cy-qy)**2 <= epsilon**2`` in float64 on the
    queries' own coordinates. Rows cy = floor(qy) - c .. floor(qy) + c hold
    every cell within epsilon. In each row the test holds on one run of
    columns, because the rounded d2 only grows with |cx - qx|, and the run
    lies inside floor(qx) - c .. floor(qx) + c. The run ends come from sqrt,
    widened by a slack larger than any rounding error and smaller than one
    cell; one exact d2 test per end then moves each end inward by at most
    one.
    """
    check_epsilon(epsilon)
    c = math.ceil(epsilon)
    eps2 = float(epsilon) ** 2
    slack = _slack(epsilon)
    qx = np.asarray(qx, dtype=np.float64)[:, None]
    qy = np.asarray(qy, dtype=np.float64)[:, None]
    cy = np.floor(qy).astype(np.int64) + np.arange(-c, c + 1)
    dy2 = (cy - qy) ** 2
    r = np.sqrt(np.maximum(eps2 - dy2, 0.0))
    lo = np.ceil(qx - r - slack).astype(np.int64)
    lo += (lo - qx) ** 2 + dy2 > eps2
    hi = np.floor(qx + r + slack).astype(np.int64)
    hi -= (hi - qx) ** 2 + dy2 > eps2
    return cy, lo, hi


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
    integer point (x0, y0); only integer cells are shifted into the raster.
    A hit is a run of ``_row_runs`` whose prefix-sum difference is positive,
    so a query costs 2*ceil(epsilon) + 1 pairs of lookups.
    """
    cy, lo, hi = _row_runs(qx, qy, epsilon)
    h, w = prefix.shape[0] - 1, prefix.shape[1] - 1
    base = np.clip(cy - y0, -1, h) * (w + 1)
    flat = prefix.ravel()
    count = (flat[base + np.clip(hi + 1 - x0, 0, w)]
             - flat[base + np.clip(lo - x0, 0, w)])
    return (count > 0).any(axis=1)


def _disc_runs(epsilon: float, stride: int):
    """The cells that settle ``_any_within`` for every query of one unit
    cell, as two lists of runs, ``(sure, maybe)``: each a (k, 2) int64
    array whose rows are flat offsets ``(lo, hi)`` into row prefix sums of
    row stride ``stride``.

    A query (qx, qy) has the floor cell (fx, fy) = (floor(qx), floor(qy)),
    and its cells within epsilon lie in rows fy + v and columns fx + u for
    u, v = -c..c, c = ceil(epsilon). In row v the sure run holds the cells u
    within epsilon of every point of the closed cell [0, 1]^2, the maybe
    run those within epsilon of some point of it; a run [u_lo, u_hi] has
    the offsets lo = v * stride + u_lo and hi = v * stride + u_hi + 1, and
    rows with an empty run are left out. Rows come centre-out, v = 0, 1,
    -1, 2, ..., so the first run is the floor cell's row. The squared distances are
    integers, tested against epsilon**2 narrowed (sure) or widened (maybe)
    by the slack of ``_row_runs``, so for every query of the cell its sure
    cells lie within its ``_row_runs``, and those within its maybe cells.
    At epsilon 0.5 no cell is sure.
    """
    check_epsilon(epsilon)
    c = math.ceil(epsilon)
    eps2, slack = float(epsilon) ** 2, _slack(epsilon)
    k = np.arange(-c, c + 1)
    far = np.maximum(k * k, (k - 1) * (k - 1))
    near = np.maximum(np.maximum(-k, k - 1), 0) ** 2
    runs = []
    for d2, limit in ((far, eps2 - slack), (near, eps2 + slack)):
        rows = []
        for v in sorted(k.tolist(), key=lambda v: abs(2 * v - 1)):
            us = k[d2[v + c] + d2 <= limit].tolist()  # one run: convex in u
            if us:
                rows.append((v * stride + us[0], v * stride + us[-1] + 1))
        runs.append(np.array(rows, dtype=np.int64).reshape(-1, 2))
    return tuple(runs)


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


def _rank_raster(targets: np.ndarray):
    """(ranks, x0, y0): row k of the (N, 2) integer pixel positions
    ``targets`` has rank k, written at its cell of an int32 raster over the
    targets' bounding box, whose cell [0, 0] sits at (x0, y0). The raster has
    one extra row and column, and every cell without a target reads N.
    ``ValueError`` for positions that are not integers."""
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 2)
    if not (np.isfinite(targets).all()
            and np.array_equal(np.round(targets), targets)):
        raise ValueError("match targets must be integer pixel positions")
    cells = targets.astype(np.int64)
    if not len(cells):
        return np.zeros((1, 1), dtype=np.int32), 0, 0
    x0, y0 = cells.min(axis=0)
    x1, y1 = cells.max(axis=0)
    ranks = np.full((y1 - y0 + 2, x1 - x0 + 2), len(cells), dtype=np.int32)
    # Reversed, so the lowest rank wins where two targets share a cell.
    ranks[cells[::-1, 1] - y0, cells[::-1, 0] - x0] = np.arange(
        len(cells) - 1, -1, -1, dtype=np.int32)
    return ranks, int(x0), int(y0)


def _min_rank_within(qx: np.ndarray, qy: np.ndarray, ranks: np.ndarray,
                     epsilon: float, x0: int = 0, y0: int = 0) -> np.ndarray:
    """For each query (qx, qy), the lowest rank of ``_rank_raster`` within
    Euclidean epsilon; the raster's empty value where there is none.

    Each query gathers the (2c + 1)^2 cells around (floor(qx), floor(qy)),
    one column offset at a time; cells off its runs of ``_row_runs`` or off
    the raster read the empty extra row.
    """
    cy, lo, hi = _row_runs(qx, qy, epsilon)
    h, w = ranks.shape[0] - 1, ranks.shape[1] - 1
    c = cy.shape[1] // 2
    ry = cy - y0
    row = np.where((ry >= 0) & (ry < h), ry, h) * (w + 1)
    fx = np.floor(np.asarray(qx, dtype=np.float64)).astype(np.int64)[:, None]
    flat = ranks.ravel()
    best = np.full(len(row), flat[-1])
    for dx in range(-c, c + 1):
        cx = fx + dx
        col = np.where((cx >= x0) & (cx < x0 + w), cx - x0, w)
        cell = np.where((lo <= cx) & (cx <= hi), row + col, h * (w + 1))
        np.minimum(best, flat[cell].min(axis=1), out=best)
    return best


def _pair_counts(pool_i: np.ndarray, pool_j: np.ndarray, cuts_i, cuts_j,
                 warp: Homography, epsilon: float):
    """Useful and repeated counts of one ordered pair at several cuts.

    Cut k keeps the first ``cuts_i[k]`` keypoint rows of ``pool_i`` and the
    first ``cuts_j[k]`` of ``pool_j``. The pool of frame i is projected once,
    and each projected source is matched once, to the lowest rank of frame
    j's pool within epsilon. At cut k a source is useful when its own rank
    is below ``cuts_i[k]``, and repeated when also its match is below
    ``cuts_j[k]``.
    """
    cuts_i = np.asarray(cuts_i, dtype=np.int64)[:, None]
    cuts_j = np.asarray(cuts_j, dtype=np.int64)[:, None]
    proj, valid = project_points(warp, pool_i[:, :2])
    rank = np.flatnonzero(valid)
    ranks, x0, y0 = _rank_raster(pool_j[:, :2])
    match = _min_rank_within(proj[rank, 0], proj[rank, 1], ranks, epsilon,
                             x0, y0)
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
    must be present. A count without useful features, such as count 0,
    reads 0.0.
    """
    counts = list(counts)
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("counts must be strictly ascending")
    check_epsilon(epsilon)
    frames = list(frames)
    for pair in pairs:
        if pair not in warps:
            raise MissingWarpError(f"no warp for frame pair {pair}")
    useful = np.zeros(len(counts), dtype=np.int64)
    repeated = np.zeros(len(counts), dtype=np.int64)
    if counts:
        # each frame's detection at a count is a prefix of its ranking, so
        # the detection at the largest count holds all the others
        pools = [detector.detect(f, counts[-1], frame_key=k)
                 for k, f in enumerate(frames)]
        cuts = [[len(detector.detect(f, c, frame_key=k)) for c in counts]
                for k, f in enumerate(frames)]
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

