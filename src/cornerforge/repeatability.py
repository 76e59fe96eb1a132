"""Repeatability evaluation: useful/repeated counting, count sweeps, AUC.

A feature of frame i is useful when its ground-truth projection lands
visibly inside frame j; it is repeated when some detection of frame j lies
within epsilon (Euclidean) of that projection. Several features may match a
single target detection. The sequence score pools counts over all evaluated
pairs, which equals the useful-weighted mean of per-pair ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import GrayImage, add_gaussian_noise
from .warp import WarpModel, project_points

CURVE_MAX_COUNT = 2000  # aggregate score integrates R over 0..2000 features
DEFAULT_COUNT_STEP = 25
BRUTE_FORCE_LIMIT = 10_000  # above this many points, matching uses grid buckets


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


def _keypoints_xy(points) -> np.ndarray:
    if isinstance(points, np.ndarray):
        return points.reshape(-1, 2).astype(np.float64)
    return np.array([(kp.x, kp.y) for kp in points], dtype=np.float64).reshape(-1, 2)


def match_within(queries: np.ndarray, targets: np.ndarray, epsilon: float,
                 method: str = "auto") -> np.ndarray:
    """For each query point, is any target within Euclidean distance epsilon.

    "brute" compares all pairs; "grid" buckets targets into epsilon-sized
    cells and scans the 3x3 cell neighborhood. Both are exact and give
    identical results; "auto" switches to the grid above 10^4 points.
    """
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, 2)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 2)
    nq, nt = len(queries), len(targets)
    if nq == 0 or nt == 0:
        return np.zeros(nq, dtype=bool)
    if method == "auto":
        method = "grid" if max(nq, nt) > BRUTE_FORCE_LIMIT else "brute"
    eps2 = float(epsilon) ** 2

    if method == "brute":
        out = np.zeros(nq, dtype=bool)
        chunk = max(1, 2_000_000 // nt)
        for s in range(0, nq, chunk):
            q = queries[s : s + chunk]
            d2 = ((q[:, None, :] - targets[None, :, :]) ** 2).sum(axis=2)
            out[s : s + chunk] = (d2 <= eps2).any(axis=1)
        return out
    if method != "grid":
        raise ValueError(f"unknown matching method {method!r}")

    cell = float(epsilon)
    tcell = np.floor(targets / cell).astype(np.int64)
    shift = tcell.min(axis=0)
    tcell -= shift
    span = int(tcell[:, 1].max()) + 3
    tkey = tcell[:, 0] * span + tcell[:, 1]
    order = np.argsort(tkey, kind="stable")
    tkey_sorted = tkey[order]
    t_sorted = targets[order]

    qcell = np.floor(queries / cell).astype(np.int64) - shift
    out = np.zeros(nq, dtype=bool)
    for ox in (-1, 0, 1):
        for oy in (-1, 0, 1):
            key = (qcell[:, 0] + ox) * span + (qcell[:, 1] + oy)
            lo = np.searchsorted(tkey_sorted, key, side="left")
            hi = np.searchsorted(tkey_sorted, key, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                continue
            rep_q = np.repeat(np.arange(nq), counts)
            starts = np.repeat(lo, counts)
            within_seg = np.arange(total) - np.repeat(
                np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
            tidx = starts + within_seg
            d2 = ((queries[rep_q] - t_sorted[tidx]) ** 2).sum(axis=1)
            hit = d2 <= eps2
            np.logical_or.at(out, rep_q[hit], True)
    return out


def pair_repeatability(det_i, det_j, warp: WarpModel, epsilon: float,
                       method: str = "auto") -> RepeatSample:
    """Useful/repeated counts for one ordered image pair."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    pts_i = _keypoints_xy(det_i)
    if len(pts_i) == 0:
        return RepeatSample(0, 0)
    proj, valid = project_points(warp, pts_i)
    n_useful = int(valid.sum())
    if n_useful == 0:
        return RepeatSample(0, 0)
    pts_j = _keypoints_xy(det_j)
    matched = match_within(proj[valid], pts_j, epsilon, method)
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
                           epsilon: float, pairs=None,
                           method: str = "auto") -> float:
    """Pooled repeated/useful ratio over all evaluated ordered pairs.

    ``warps`` maps ordered pairs (i, j) to WarpModels; every evaluated pair
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
                                    warps[(i, j)], epsilon, method)
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


def noise_sweep(frames, warps, detector, n_features: int, sigmas,
                seed: int, epsilon: float = 5.0, pairs=None) -> list[tuple[float, float]]:
    """Repeatability at a fixed feature count as per-frame Gaussian noise
    grows; noise is drawn independently per frame and per sigma."""
    frames = list(frames)
    out = []
    for si, sigma in enumerate(sigmas):
        noised = [
            add_gaussian_noise(
                frame, sigma,
                int(np.random.SeedSequence((seed, si, k)).generate_state(1)[0]))
            for k, frame in enumerate(frames)
        ]
        clear = getattr(detector, "clear_cache", None)
        if clear:
            clear()
        out.append((float(sigma), sequence_repeatability(
            noised, warps, detector, n_features, epsilon, pairs)))
    return out
