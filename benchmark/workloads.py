"""The benchmark's workloads: inputs, set-up, timed operations and checks.

Each workload writes its inputs as files (untimed), then builds what its
operations need from those files (``setup``, timed and repeated), then
offers one or more named operations. Every operation's output is checked:
the first output of each kind against an oracle and, for the default seed
and size, a golden digest; later outputs of that kind must equal the first.
Everything goes through the package's public functions, as the CLI does.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# Program functions are called through their modules so that a traced run,
# which replaces module attributes, sees these calls too.
from cornerforge import (annealing, detectors, image, learn, repeatability,
                         segment, trees, warp)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FIXTURES = HERE / "fixtures"
FIXTURE_SHA256 = {
    "fast9_ring16.tree": "e02f415ed34180c9f04ded85595705a9311479b4c21f75098f9ae17e5d86980e",
    "fast9_grid48.tree": "880bd2c70aaa405e7d148782b0ccba0c31e80922cad384cb530c3b4c16ce19d0",
}
GOLDEN_SEED = 1
GOLDEN = json.loads((HERE / "golden.json").read_text())

# The 16-pixel Bresenham circle of radius 3, clockwise from the top.
RING = ((0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
        (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3))


def sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def load_fixture(name: str):
    data = (FIXTURES / name).read_bytes()
    if sha256(data) != FIXTURE_SHA256[name]:
        raise RuntimeError(f"fixture {name} does not match its sha256; "
                           f"rerun benchmark/fixtures/make_fixtures.py")
    return trees.deserialize_tree(data)


def keypoint_rows(points) -> np.ndarray:
    """(N, 3) float64 rows of x, y, score from a keypoint list or arrays."""
    if isinstance(points, tuple):
        return np.column_stack([np.asarray(a, np.float64) for a in points[:3]])
    if isinstance(points, np.ndarray):
        return points.astype(np.float64).reshape(len(points), -1)
    return np.array([(kp.x, kp.y, kp.score) for kp in points],
                    dtype=np.float64).reshape(-1, 3)


def keypoint_text(points) -> str:
    return "".join(f"{int(x)} {int(y)} {s!r}\n" for x, y, s in keypoint_rows(points))


def make_dataset_files(out: Path, size: str, frames: int, seed: int,
                       noise: float = 2.0) -> None:
    """`cornerforge make-dataset` with the workload seed, in a child process
    so that generating inputs leaves no trace in this process's memory."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "cornerforge.cli", "make-dataset",
                    "--synthetic", size, "--frames", str(frames),
                    "--noise", str(noise), "--seed", str(seed), "--out", str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def load_frames(d: Path, pattern: str = "frame_*.pgm") -> list:
    return [image.load_image(p) for p in sorted(d.glob(pattern))]


def load_warps(d: Path, frames, pairs) -> dict:
    warps = {}
    for i, j in pairs:
        with open(d / f"H_{i}_to_{j}.txt") as f:
            warps[(i, j)] = warp.load_homography(f, (frames[j].width, frames[j].height))
    return warps


class Workload:
    """Base: ``kinds`` names the operations; ``setup`` returns their state."""

    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale = scale
        self.golden = GOLDEN.get(self.name, {}) if (
            seed == GOLDEN_SEED and scale == "default") else {}

    def write_inputs(self, d: Path) -> None:
        raise NotImplementedError

    def setup(self, d: Path):
        raise NotImplementedError

    def run(self, state, kind: str):
        raise NotImplementedError

    def digest(self, kind: str, out) -> str:
        raise NotImplementedError

    def verify(self, state, kind: str, out) -> list[str]:
        """Problems with the first output of ``kind``; empty when correct."""
        return []

    def pixels(self, state, kind: str) -> int:
        """Pixels one operation of ``kind`` processes (for MP/s)."""
        return 0

    def layer_counts(self, state, kind: str, out, values: dict) -> dict:
        """Per-layer counts the benchmark derives from an output (traced runs);
        ``values`` holds what the tracer noted during the operation."""
        return {}

    def check_golden(self, kind: str, digest: str) -> list[str]:
        want = self.golden.get(kind)
        if want is not None and want != digest:
            return [f"{kind}: digest {digest[:12]} differs from golden {want[:12]}"]
        return []


# --------------------------------------------------------------------------
# detection


def segment_test(img, xs, ys, t, n: int = 9) -> np.ndarray:
    """Independent FAST-n: n contiguous ring pixels all >= c + t or all
    <= c - t. ``t`` may be per position."""
    a = img.pixels.astype(np.int16)
    c = a[ys, xs]
    ring = np.stack([a[ys + dy, xs + dx] for dx, dy in RING])
    out = np.zeros(len(xs), dtype=bool)
    for side in (ring >= c + t, ring <= c - t):
        twice = np.concatenate([side, side])
        run = np.zeros(len(xs), dtype=np.int16)
        for row in twice:
            run = np.where(row, run + 1, 0)
            out |= run >= n
    return out


class Detect(Workload):
    """Detector passes over the first frames of a sequence with caches
    cleared, `bench`-style."""

    n_features = 500

    def __init__(self, seed, scale, name, t, frames, with_harris):
        self.name = name
        super().__init__(seed, scale)
        self.t = t
        self.frames = frames
        self.size = "640x480" if scale == "default" else "96x80"
        self.kinds = ("fast-ref", "fast-tree", "faster") + (
            ("harris",) if with_harris else ())

    def write_inputs(self, d):
        make_dataset_files(d, self.size, self.frames, self.seed)

    def setup(self, d):
        frames = load_frames(d)
        ring_tree, ring_table = load_fixture("fast9_ring16.tree")
        wide_tree, wide_table = load_fixture("fast9_grid48.tree")
        dets = {
            "fast-ref": detectors.FastRefDetector(n=9, t_min=self.t),
            "fast-tree": detectors.TreeDetector(ring_tree, ring_table, t_min=self.t),
            "faster": detectors.SixteenFoldDetector(wide_tree, wide_table,
                                                    t_min=self.t),
            "harris": detectors.HarrisDetector(sigma=2.5),
        }
        return {"frames": frames, "detectors": dets, "outputs": {}}

    def run(self, state, kind):
        det = state["detectors"][kind]
        det.clear_cache()
        return [det.detect(f, self.n_features) for f in state["frames"]]

    def _full(self, state, kind):
        det = state["detectors"][kind]
        return [det.all_keypoints(f) for f in state["frames"]]

    def digest(self, kind, out):
        return sha256("".join(keypoint_text(p) + "\n" for p in out))

    def pixels(self, state, kind):
        return sum(f.width * f.height for f in state["frames"])

    def verify(self, state, kind, out):
        problems = self.check_golden(kind, self.digest(kind, out))
        full = self._full(state, kind)
        state["outputs"][kind] = (out, full)
        for k, (top, every) in enumerate(zip(out, full)):
            if not self._is_top_n(keypoint_rows(top), keypoint_rows(every),
                                  split_ties=kind == "harris"):
                problems.append(f"{kind} frame {k}: not the top {self.n_features}")
        if kind == "fast-ref":
            problems += self._verify_scores(state["frames"], full)
        elif kind in ("fast-tree", "faster"):
            ref_top, ref_full = state["outputs"]["fast-ref"]
            same = all(np.array_equal(keypoint_rows(a), keypoint_rows(b))
                       for a, b in zip(out + full, ref_top + ref_full))
            if not same:
                problems.append(f"{kind}: keypoints differ from fast-ref-9")
        return problems

    def _is_top_n(self, top, every, split_ties: bool) -> bool:
        """``top`` is the best prefix of ``every`` by (-score, y, x). Its
        length is n, or, when score ties may not be split, the tie boundary
        closest to n (the smaller on a draw)."""
        n = self.n_features
        ranked = every[np.lexsort((every[:, 0], every[:, 1], -every[:, 2]))]
        if split_ties:
            want = min(n, len(ranked))
        else:
            cuts = np.flatnonzero(np.diff(ranked[:, 2]) != 0) + 1
            cuts = np.concatenate([[0], cuts, [len(ranked)]])
            want = int(min(cuts, key=lambda b: (abs(b - n), b)))
        return len(top) == want and np.array_equal(top, ranked[:want])

    def _verify_scores(self, frames, full) -> list[str]:
        """Every fast-ref keypoint fires at its score and not one above."""
        problems = []
        for k, (img, pts) in enumerate(zip(frames, full)):
            rows = keypoint_rows(pts).astype(np.int64)
            xs, ys, s = rows[:, 0], rows[:, 1], rows[:, 2].astype(np.int16)
            fires = segment_test(img, xs, ys, s)
            above = segment_test(img, xs, ys, s + 1) & (s < 255)
            if (s < self.t).any() or not fires.all() or above.any():
                problems.append(f"fast-ref frame {k}: a score is not the "
                                f"largest firing threshold")
        return problems


# --------------------------------------------------------------------------
# repeatability


def oracle_pair(det_i, det_j, matrix, size, epsilon) -> tuple[int, int]:
    """Useful/repeated counts by direct projection and a k-d tree."""
    from scipy.spatial import cKDTree  # only the check needs it

    pi = keypoint_rows(det_i)[:, :2]
    pj = keypoint_rows(det_j)[:, :2]
    w, h = size
    hom = np.column_stack([pi, np.ones(len(pi))]) @ np.asarray(matrix).T
    ok = np.abs(hom[:, 2]) > 1e-12
    proj = np.zeros((len(pi), 2))
    proj[ok] = hom[ok, :2] / hom[ok, 2:3]
    ok &= ((proj[:, 0] >= 0) & (proj[:, 0] <= w - 1)
           & (proj[:, 1] >= 0) & (proj[:, 1] <= h - 1))
    proj = proj[ok]
    if not len(proj) or not len(pj):
        return len(proj), 0
    near = cKDTree(pj).query_ball_point(proj, r=epsilon * (1 + 1e-9))
    eps2 = float(epsilon) ** 2
    repeated = sum(
        1 for q, cand in zip(proj, near)
        if cand and (((pj[cand] - q) ** 2).sum(axis=1) <= eps2).any())
    return len(proj), repeated


class Repeat(Workload):
    """`eval-repeat`: repeatability-vs-count curves for two detectors."""

    name = "repeat"
    kinds = ("fast-tree", "harris")
    epsilon = 5.0

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        if scale == "default":
            self.size, self.counts = "640x480", list(range(0, 2001, 250))
        else:
            self.size, self.counts = "96x80", list(range(0, 201, 50))

    def write_inputs(self, d):
        make_dataset_files(d, self.size, 3, self.seed)

    def setup(self, d):
        frames = load_frames(d)
        pairs = repeatability.make_pairs(len(frames), "adjacent2")
        tree, table = load_fixture("fast9_ring16.tree")
        return {"frames": frames, "pairs": pairs,
                "warps": load_warps(d, frames, pairs),
                "detectors": {
                    "fast-tree": detectors.TreeDetector(tree, table, t_min=1),
                    "harris": detectors.HarrisDetector(sigma=2.5)}}

    def run(self, state, kind):
        det = state["detectors"][kind]
        det.clear_cache()
        return repeatability.repeatability_curve(
            state["frames"], state["warps"], det, self.counts, self.epsilon,
            state["pairs"])

    def digest(self, kind, out):
        return sha256("".join(f"{c},{r:.6f}\n" for c, r in out))

    def verify(self, state, kind, out):
        problems = self.check_golden(kind, self.digest(kind, out))
        if [c for c, _ in out] != self.counts or out[0][1] != 0.0:
            return problems + [f"{kind}: curve counts differ from the request"]
        rs = np.array([r for _, r in out])
        auc = float(np.trapezoid(rs, self.counts))
        if not (np.all((rs >= 0) & (rs <= 1)) and 0 <= auc <= self.counts[-1]):
            problems.append(f"{kind}: repeatability outside [0, 1]")
        det, frames, warps = state["detectors"][kind], state["frames"], state["warps"]
        mid = self.counts[len(self.counts) // 2]
        for count in (mid, self.counts[-1]):
            dets = [det.detect(f, count, frame_key=k) for k, f in enumerate(frames)]
            useful = repeated = 0
            for n, (i, j) in enumerate(state["pairs"]):
                u, r = oracle_pair(dets[i], dets[j], warps[(i, j)].matrix,
                                   warps[(i, j)].target_size, self.epsilon)
                useful += u
                repeated += r
                if n < 2 and count == mid:
                    got = repeatability.pair_repeatability(
                        dets[i], dets[j], warps[(i, j)], self.epsilon)
                    if (got.n_useful, got.n_repeated) != (u, r):
                        problems.append(f"{kind} pair {(i, j)} count {count}: "
                                        f"counts differ from the k-d tree oracle")
            want = repeated / useful if useful else 0.0
            if dict(out)[count] != want:
                problems.append(f"{kind} count {count}: R={dict(out)[count]} "
                                f"but the oracle gives {want}")
        return problems


# --------------------------------------------------------------------------
# annealing


def trace_text(trace) -> str:
    """The rows of an `anneal` run CSV."""
    return "".join(f"{int(r[0])},{r[1]:.6g},{r[2]:.6g},{r[3]:.6g}\n" for r in trace)


class Anneal(Workload):
    """One FAST-ER simulated-annealing run on a small frame set."""

    name = "anneal"
    kinds = ("anneal",)

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        if scale == "default":
            self.size, self.frames, self.i_max = "160x120", 4, 20
        else:
            self.size, self.frames, self.i_max = "48x40", 3, 3

    def write_inputs(self, d):
        make_dataset_files(d, self.size, self.frames, self.seed)

    def setup(self, d):
        frames = load_frames(d)
        pairs = repeatability.make_pairs(len(frames), "adjacent2")
        return {"frames": frames, "warps": load_warps(d, frames, pairs)}

    def run(self, state, kind):
        return annealing.anneal(state["frames"], state["warps"],
                                annealing.CostWeights(i_max=self.i_max),
                                self.seed)

    def digest(self, kind, out):
        return sha256(trace_text(out.trace))

    def verify(self, state, kind, out):
        problems = self.check_golden(kind, self.digest(kind, out))
        trace = np.asarray(out.trace)
        if len(trace) != self.i_max + 1:
            problems.append("anneal: trace has the wrong number of rows")
        best = trace[:, 2]
        if np.any(np.diff(best) > 0) or not np.array_equal(
                best, np.minimum.accumulate(trace[:, 1])):
            problems.append("anneal: best cost is not the running minimum")
        if out.best_cost != best[-1]:
            problems.append("anneal: best_cost differs from the trace")
        return problems

    def layer_counts(self, state, kind, out, values):
        # A proposal was accepted iff the current cost became its cost.
        costs = values.get("annealing.costs", [])
        return {"annealing.accepted": sum(
            1 for row, k_new in zip(out.trace[1:], costs[1:]) if row[1] == k_new)}


# --------------------------------------------------------------------------
# tree learning


def classify_codes(tree, codes: np.ndarray) -> np.ndarray:
    """Route base-3 ring codes through a 16-ring tree (offsets 1..16)."""
    out = np.zeros(len(codes), dtype=bool)
    stack = [(tree, np.arange(len(codes)))]
    while stack:
        t, idx = stack.pop()
        if not hasattr(t, "offset"):
            out[idx] = bool(t.cls)
            continue
        digit = (codes[idx] // 3 ** (t.offset - 1)) % 3
        for v, child in ((0, t.d), (1, t.s), (2, t.b)):
            sel = idx[digit == v]
            if sel.size:
                stack.append((child, sel))
    return out


def tree_shape(tree) -> tuple[int, int]:
    """(distinct decision nodes, depth) of a tree with shared subtrees."""
    depth: dict[int, int] = {}

    def rec(t) -> int:
        if not hasattr(t, "offset"):
            return 0
        if id(t) not in depth:
            depth[id(t)] = 1 + max(rec(t.b), rec(t.s), rec(t.d))
        return depth[id(t)]

    top = rec(tree)
    return len(depth), top


def tests_per_pixel(tree, images, t: int) -> float:
    """Mean decision nodes visited per interior pixel: the paper's speed
    measure for a learned tree."""
    tests = pixels = 0
    for img in images:
        a = img.pixels.astype(np.int16)
        h, w = a.shape
        ys, xs = (v.ravel() for v in np.mgrid[3 : h - 3, 3 : w - 3])
        c = a[ys, xs]
        pixels += len(xs)
        stack = [(tree, np.arange(len(xs)))]
        while stack:
            node, idx = stack.pop()
            if not hasattr(node, "offset"):
                continue
            tests += len(idx)
            dx, dy = RING[node.offset - 1]
            r = a[ys[idx] + dy, xs[idx] + dx]
            state = 1 + (r >= c[idx] + t).astype(np.int8) - (r <= c[idx] - t)
            for v, child in ((0, node.d), (1, node.s), (2, node.b)):
                sel = idx[state == v]
                if sel.size:
                    stack.append((child, sel))
    return tests / pixels if pixels else 0.0


class Learn(Workload):
    """`learn-tree --exhaustive`: ID3 over observed plus all 3^16 configs."""

    name = "learn"
    kinds = ("learn",)
    n, t, n_codes = 9, 35, 1_000_000

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.size = "320x240" if scale == "default" else "32x32"

    def write_inputs(self, d):
        for k in range(3):
            make_dataset_files(d / f"train_{k}", self.size, 1, self.seed + k,
                               noise=0.0)

    def setup(self, d):
        return {"images": load_frames(d, "train_*/frame_000.pgm")}

    def run(self, state, kind):
        ts = learn.extract_training_data(state["images"], self.n, self.t,
                                         weight_scale=256)
        ts = learn.augment_exhaustive(ts, self.n, low_weight=1)
        tree = learn.build_tree(ts)
        return tree, trees.serialize_tree(tree, trees.RING16)

    def digest(self, kind, out):
        return sha256(out[1])

    def verify(self, state, kind, out):
        problems = self.check_golden(kind, self.digest(kind, out))
        rng = np.random.default_rng(self.seed)
        codes = rng.integers(0, 3 ** 16, self.n_codes, dtype=np.int64)
        if not np.array_equal(classify_codes(out[0], codes),
                              segment.config_labels(codes, self.n)):
            problems.append("learn: tree disagrees with the segment test")
        return problems

    def layer_counts(self, state, kind, out, values):
        nodes, depth = tree_shape(out[0])
        return {"learn.tree_nodes": nodes, "learn.tree_depth": depth,
                "learn.tests_per_pixel": tests_per_pixel(out[0], state["images"],
                                                         self.t)}


WORKLOADS = {
    # Pass lengths decide how many samples each detector gets in a run. One
    # frame at t=35 gives faster several; two frames at t=1 give it exactly
    # one, where one frame (about 3.4 s, near its 3.3 s share) gave one or
    # two and made op_s and peak_rss_mb bimodal.
    "detect-t35": lambda seed, scale: Detect(seed, scale, "detect-t35", 35, 1, True),
    "detect-t1": lambda seed, scale: Detect(seed, scale, "detect-t1", 1, 2, False),
    "repeat": Repeat,
    "anneal": Anneal,
    "learn": Learn,
}


def make(name: str, seed: int, scale: str) -> Workload:
    return WORKLOADS[name](seed, scale)
