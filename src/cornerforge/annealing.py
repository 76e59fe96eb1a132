"""Repeatability-optimized detector trees via simulated annealing.

The genome is a ternary tree over a 48-offset neighborhood, applied sixteen
times per pixel (four 90-degree rotations x reflection x intensity inversion,
OR-ed together) so the detector is symmetric by construction. Candidate trees
are scored by a multiplicative cost combining repeatability on training
frames, per-frame corner density, and tree size; proposals are accepted by
the Boltzmann criterion under an exponentially decaying temperature.

The threshold and the training frames are fixed for a whole run, so the
cost evaluator computes the frames' ternary state planes once and each
evaluation only walks the candidate's sixteen variants over them
(``runtime.PlaneWalk``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .learn import InconsistentLabelsError, TrainingSet, build_tree
from .repeatability import _any_within, _row_prefix, check_epsilon, make_pairs
from .runtime import PlaneWalk, _interior_flat_positions, ternary_planes
from .trees import (_DIHEDRAL, CompiledTree, LEAF0, Leaf, Node, OffsetTable,
                    TernaryTree, default_offsets_48, sixteen_fold, tree_size)
from .warp import project_points


@dataclass(frozen=True)
class CostWeights:
    """Optimization parameters; defaults are the reference operating point.

    w_r weights repeatability, w_n scales per-frame corner counts, w_s scales
    tree size; alpha/beta shape the temperature schedule; t is the fixed
    detection threshold; epsilon the matching radius.
    """

    w_r: float = 1.0
    w_n: float = 3500.0
    w_s: float = 10000.0
    alpha: float = 30.0
    beta: float = 100.0
    t: int = 35
    i_max: int = 100_000
    epsilon: float = 5.0

    def __post_init__(self):
        for name in ("w_r", "w_n", "w_s", "alpha", "beta", "t", "i_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        check_epsilon(self.epsilon)


def cost_from_parts(repeatability: float, per_frame_counts, size: int,
                    weights: CostWeights) -> float:
    """(1 + (w_r/r)^2) * (1 + mean((d_i/w_n)^2)) * (1 + (s/w_s)^2);
    +inf when repeatability is zero."""
    if repeatability <= 0:
        return math.inf
    d = np.asarray(per_frame_counts, dtype=np.float64)
    f_rep = 1.0 + (weights.w_r / repeatability) ** 2
    f_count = 1.0 + float(np.mean((d / weights.w_n) ** 2)) if d.size else 1.0
    f_size = 1.0 + (size / weights.w_s) ** 2
    return f_rep * f_count * f_size


def temperature(iteration: int, weights: CostWeights) -> float:
    """Exponential schedule beta * exp(-alpha * I / I_max)."""
    return weights.beta * math.exp(-weights.alpha * iteration / weights.i_max)


def random_depth1_tree(rng: np.random.Generator, table: OffsetTable) -> Node:
    """One decision node with random leaves; the s leaf is constrained to 0."""
    idx = table.index_base + int(rng.integers(0, len(table)))
    return Node(idx,
                b=Leaf(int(rng.integers(0, 2))),
                s=LEAF0,
                d=Leaf(int(rng.integers(0, 2))))


def _positions(tree: TernaryTree):
    """(path, subtree, hangs_on_s_branch) for every tree position."""
    out = []

    def rec(t: TernaryTree, path: tuple, on_s: bool) -> None:
        out.append((path, t, on_s))
        if isinstance(t, Node):
            rec(t.b, path + ("b",), False)
            rec(t.s, path + ("s",), True)
            rec(t.d, path + ("d",), False)

    rec(tree, (), False)
    return out


def _replace(tree: TernaryTree, path: tuple, new: TernaryTree) -> TernaryTree:
    if not path:
        return new
    assert isinstance(tree, Node)
    head = path[0]
    return Node(tree.offset,
                b=_replace(tree.b, path[1:], new) if head == "b" else tree.b,
                s=_replace(tree.s, path[1:], new) if head == "s" else tree.s,
                d=_replace(tree.d, path[1:], new) if head == "d" else tree.d)


_SLOTS = ("b", "s", "d")


def mutate(tree: TernaryTree, rng: np.random.Generator,
           table: OffsetTable) -> TernaryTree:
    """One random structural mutation, preserving the s-leaf constraint.

    A uniformly chosen position is mutated: a leaf either grows into a random
    depth-1 subtree or flips class (flip unavailable when constrained); a
    decision node either gets a fresh random offset, collapses to a
    constraint-respecting random leaf, or has one randomly chosen branch
    overwritten by a copy of another.
    """
    positions = _positions(tree)
    path, target, on_s = positions[int(rng.integers(0, len(positions)))]

    if isinstance(target, Leaf):
        if on_s or int(rng.integers(0, 2)) == 0:
            new = random_depth1_tree(rng, table)
        else:
            new = Leaf(1 - target.cls)
    else:
        choice = int(rng.integers(0, 3))
        if choice == 0:
            idx = table.index_base + int(rng.integers(0, len(table)))
            new = Node(idx, b=target.b, s=target.s, d=target.d)
        elif choice == 1:
            cls = 0 if on_s else int(rng.integers(0, 2))
            new = Leaf(cls)
        else:
            pairs = [
                (src, dst)
                for src in _SLOTS for dst in _SLOTS if src != dst
                and not (dst == "s"
                         and isinstance(getattr(target, src), Leaf)
                         and getattr(target, src).cls == 1)
            ]
            src, dst = pairs[int(rng.integers(0, len(pairs)))]
            kwargs = {slot: getattr(target, slot) for slot in _SLOTS}
            kwargs[dst] = kwargs[src]
            new = Node(target.offset, **kwargs)

    return _replace(tree, path, new)


class CostEvaluator:
    """Evaluates Eq-style detector cost on fixed training frames and warps.

    The ternary state planes of all training frames at ``weights.t`` are
    built once, over the offsets of the table under the eight dihedral maps,
    so every variant of every candidate tree walks the same planes. Per
    ordered pair it keeps the interior source pixels whose projection lands
    inside frame j, and their projected coordinates. An evaluation matches
    the detected ones among them against frame j's detections with the
    repeatability kernel.
    """

    def __init__(self, frames, warps, weights: CostWeights,
                 table: OffsetTable, pairs):
        self.frames = list(frames)
        if not self.frames:
            raise ValueError("empty training set")
        self.weights = weights
        self.table = table
        margin = table.margin
        self.positions = [
            _interior_flat_positions(f, margin, margin, f.height - margin)
            for f in self.frames]
        self.offsets = sorted({(a * dx + b * dy, c * dx + d * dy)
                               for a, b, c, d in _DIHEDRAL
                               for dx, dy in table.offsets})
        self.planes = ternary_planes(self.frames, self.offsets, weights.t,
                                     margin)
        self.projections = {}
        for i, j in pairs:
            if (i, j) not in warps:
                raise KeyError(f"no warp for training pair ({i}, {j})")
            pos, w = self.positions[i], self.frames[i].width
            pts = np.column_stack([pos % w, pos // w]).astype(np.float64)
            proj, valid = project_points(warps[(i, j)], pts)
            self.projections[(i, j)] = (pos[valid], proj[valid, 0],
                                        proj[valid, 1])

    def detect_fields(self, tree: TernaryTree) -> list[np.ndarray]:
        """Per frame, the flat boolean corner field of the symmetrized
        detector: one plane walk of the 16 variants over all frames."""
        walk = PlaneWalk(sixteen_fold(CompiledTree(tree, self.table)),
                         self.offsets)
        hit = walk.fired(self.planes)
        fields = []
        col = 0
        for frame, pos in zip(self.frames, self.positions):
            field = np.zeros(frame.height * frame.width, dtype=bool)
            field[pos] = hit[col : col + pos.size]
            col += pos.size
            fields.append(field)
        return fields

    def evaluate(self, tree: TernaryTree) -> tuple[float, float, list[int]]:
        """(cost, repeatability, per-frame detection counts), detections
        counted before any suppression."""
        fields = self.detect_fields(tree)
        d_counts = [int(f.sum()) for f in fields]
        prefixes = [_row_prefix(f.reshape(frame.height, frame.width))
                    for f, frame in zip(fields, self.frames)]
        tot_useful = tot_rep = 0
        for (i, j), (src, px, py) in self.projections.items():
            useful = fields[i][src]
            tot_useful += int(useful.sum())
            tot_rep += int(_any_within(px[useful], py[useful], prefixes[j],
                                       self.weights.epsilon).sum())
        r = tot_rep / tot_useful if tot_useful else 0.0
        return cost_from_parts(r, d_counts, tree_size(tree), self.weights), r, d_counts


@dataclass(frozen=True)
class AnnealResult:
    best_tree: TernaryTree
    best_cost: float
    trace: np.ndarray  # rows: iteration, cost, best_cost, temperature
    seed: int


def anneal(frames, warps, weights: CostWeights, seed: int,
           table: OffsetTable | None = None, pairs=None) -> AnnealResult:
    """Run one simulated-annealing optimization.

    Starts from a random depth-1 tree; per iteration, mutates the current
    tree, evaluates the cost (the symmetrized detector runs on every frame),
    and accepts with probability min(1, exp((k_cur - k_new) / T)) under the
    exponential temperature schedule. Deterministic for a fixed seed.
    """
    table = table or default_offsets_48()
    frames = list(frames)
    if pairs is None:
        pairs = make_pairs(len(frames))
    ev = CostEvaluator(frames, warps, weights, table, pairs)
    rng = np.random.default_rng(seed)

    tree = best_tree = random_depth1_tree(rng, table)
    k_cur, _, _ = ev.evaluate(tree)
    best_cost = k_cur
    trace = [(0.0, k_cur, k_cur, weights.beta)]

    for it in range(1, weights.i_max + 1):
        temp = temperature(it, weights)
        candidate = mutate(tree, rng, table)
        k_new, _, _ = ev.evaluate(candidate)
        if k_new <= k_cur:
            accept = True
        else:
            arg = (k_cur - k_new) / temp
            p = math.exp(arg) if arg > -745.0 else 0.0
            accept = rng.random() < p
        if accept:
            tree, k_cur = candidate, k_new
            if k_new < best_cost:
                best_tree, best_cost = candidate, k_new
        trace.append((float(it), k_cur, best_cost, temp))

    return AnnealResult(best_tree=best_tree, best_cost=best_cost,
                        trace=np.asarray(trace, dtype=np.float64), seed=seed)


def multi_run(frames, warps, weights: CostWeights, n_runs: int,
              seeds=None, base_seed: int = 0, jobs: int = 1,
              table: OffsetTable | None = None) -> tuple[AnnealResult, list[AnnealResult]]:
    """Independent annealing runs over different seeds; returns the
    minimum-cost result plus every run (traces included). With ``jobs`` > 1
    the runs go to at most min(jobs, n_runs) worker processes."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if seeds is None:
        seeds = [base_seed + k for k in range(n_runs)]
    seeds = list(seeds)
    if len(seeds) != n_runs:
        raise ValueError("need one seed per run")

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at the first submit; start no idle ones
        with ProcessPoolExecutor(max_workers=min(jobs, n_runs)) as pool:
            futures = [pool.submit(anneal, frames, warps, weights, s, table)
                       for s in seeds]
            results = [f.result() for f in futures]
    else:
        results = [anneal(frames, warps, weights, s, table) for s in seeds]
    best = min(results, key=lambda r: (r.best_cost, r.seed))
    return best, results


def distill(tree: TernaryTree, images, t: int = 35,
            table: OffsetTable | None = None) -> TernaryTree:
    """Learn one unsymmetrized tree reproducing the sixteen-fold detector.

    Every interior pixel of the given images is labelled by the symmetrized
    detector and described by its 48 ternary offset states; the ID3 learner
    then builds a single tree with perfect training accuracy. Requires the
    offset table to be closed under the dihedral symmetries (the default is),
    otherwise labels need not be a function of the states.
    """
    table = table or default_offsets_48()
    images = list(images)
    walk = PlaneWalk(sixteen_fold(CompiledTree(tree, table)))
    labels = walk.fired(ternary_planes(images, walk.offsets, t, table.margin))
    states = ternary_planes(images, table.offsets, t, table.margin).T
    if not states.size:
        raise ValueError("no interior pixels to distill from")

    key = np.ascontiguousarray(states).view(
        np.dtype((np.void, states.shape[1])))[:, 0]
    uniq, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True)
    true_per_group = np.bincount(inverse, weights=labels.astype(np.float64))
    mixed = (true_per_group > 0) & (true_per_group < counts)
    if mixed.any():
        raise InconsistentLabelsError(
            "sixteen-fold labels are not a function of the offset states; "
            "is the offset table closed under rotation/reflection?")
    ts = TrainingSet(
        states=np.asfortranarray(states[first]),
        labels=true_per_group > 0,
        weights=counts.astype(np.int64),
        offsets=table,
    )
    return build_tree(ts)
