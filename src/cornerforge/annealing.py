"""Repeatability-optimized detector trees via simulated annealing.

The genome is a ternary tree over a 48-offset neighborhood, applied sixteen
times per pixel (four 90-degree rotations x reflection x intensity inversion,
OR-ed together) so the detector is symmetric by construction. Candidate trees
are scored by a multiplicative cost combining repeatability on training
frames, per-frame corner density, and tree size; proposals are accepted by
the Boltzmann criterion under an exponentially decaying temperature.

The threshold and the training frames are fixed for a whole run, so the
cost evaluator computes the frames' ternary state planes once and keeps
only their distinct state columns, each under the four rotations; the
pixels whose states are all "similar" share one of them. A candidate walks
four of its variants (``runtime.PlaneWalk``) over those: a rotation
applied to the column stands in for the rotation in the variant
(``_sixteen_fold_fired``). ``distill`` labels its training columns the same
way. Pixels stay in the planes' column layout: a frame of h x w pixels is
its (h - 2m) x (w - 2m) interior raster, m being the offset table's margin,
and detection fields are those rasters.

The projections are fixed too, so each source's floor cell in its target
frame is found once, and two fixed disc masks around that cell settle most
matches before the exact test that the curve reads too (``CostEvaluator``).
A candidate that detects the same pixels as the current tree reuses its
match counts; any other candidate has every detected source matched.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .learn import InconsistentLabelsError, TrainingSet, build_tree
from .repeatability import (_cells_within, _disc_runs, _row_prefix,
                            _runs_hit, check_epsilon, check_pairs,
                            make_pairs)
from .runtime import PlaneWalk, check_threshold, ternary_planes
from .trees import (_DIHEDRAL, CompiledTree, LEAF0, Leaf, Node, OffsetTable,
                    TernaryTree, default_offsets_48, sixteen_fold,
                    sixteen_fold_offsets, tree_size)
from .warp import project_points


@dataclass(frozen=True)
class CostWeights:
    """Optimization parameters; defaults are the reference operating point.

    w_r weights repeatability, w_n scales per-frame corner counts, w_s scales
    tree size; alpha/beta shape the temperature schedule; t is the fixed
    detection threshold (``check_threshold``); epsilon the matching radius.
    The weights, alpha, beta and i_max must be finite and strictly positive,
    and i_max an integer.
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
        check_threshold(self.t)
        if not isinstance(self.i_max, numbers.Integral):
            raise ValueError("i_max must be an integer")
        for name in ("w_r", "w_n", "w_s", "alpha", "beta", "i_max"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")
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


# One int64 base-3 code holds a block of 24 states: 3^24 < 2^63.
_CODE_STATES = 24


def _distinct_columns(planes: np.ndarray, cols=None,
                      rows=None) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) over the columns ``cols`` of ``planes`` (every
    column when None). ``first`` holds, as positions in ``cols``, one column
    per distinct state column, in the lexicographic order of its states at
    the plane rows ``rows`` (every row, in order, when None); ``inverse``
    maps each of ``cols`` to its distinct column's position in ``first``.

    Each block of 24 of the rows is one int64 base-3 code, its first row the
    most significant. One ``np.lexsort`` of the codes, the first block the
    primary key, and a neighbour diff of the sorted codes give the groups;
    ``np.unique`` over the columns takes more time and memory.
    """
    rows = range(len(planes)) if rows is None else list(rows)
    n = planes.shape[1] if cols is None else len(cols)
    codes = []
    for lo in range(0, len(rows), _CODE_STATES):
        code = np.zeros(n, dtype=np.int64)
        for k in rows[lo : lo + _CODE_STATES]:
            code *= 3
            code += planes[k] if cols is None else planes[k].take(cols)
        codes.append(code)
    order = np.lexsort(codes[::-1])
    new = np.zeros(n, dtype=bool)  # a sorted column that starts a group
    new[:1] = True
    for code in codes:
        code = code.take(order)
        new[1:] |= code[1:] != code[:-1]
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _quarter_turns(columns: np.ndarray, offsets) -> np.ndarray:
    """The state columns of planes over ``offsets`` under the four
    rotations R of ``_DIHEDRAL``, side by side: row k of block r holds each
    column's state at R_r(offsets[k]). The offsets must be closed under the
    rotations, as ``sixteen_fold_offsets`` are."""
    index = {xy: k for k, xy in enumerate(offsets)}
    return np.concatenate([
        columns.take([index[a * dx + b * dy, c * dx + d * dy]
                      for dx, dy in offsets], axis=0)
        for a, b, c, d in _DIHEDRAL[::2]], axis=1)


def _sixteen_fold_fired(ct: CompiledTree, offsets,
                        views: np.ndarray) -> np.ndarray:
    """Per column given to ``_quarter_turns``, whether any of the sixteen
    variants of ``ct`` fires on it; ``views`` is that function's output.

    Where the tree tests offset o, variant (R∘F^e, inversion) reads the
    column's state at R(F^e(o)): the state that variant (F^e, inversion)
    reads at F^e(o) in the column's R-turned block. So the first four
    variants of ``sixteen_fold`` (the identity and the x-flip, each plain
    and inverted) walk the four blocks, and a column fires when one of its
    four copies does.
    """
    walk = PlaneWalk(itertools.islice(sixteen_fold(ct), 4), offsets)
    fired = walk.fired(views)
    return fired.reshape(4, -1).any(axis=0)


class CostEvaluator:
    """Evaluates Eq-style detector cost on fixed training frames and warps.

    The ternary state planes of all training frames at ``weights.t`` are
    built once, over ``sixteen_fold_offsets`` of the table, so every variant
    of every candidate tree walks the same planes. A frame's pixels are its
    interior raster: the pixels at least the table's margin m from every
    edge, one plane column each, so raster cell [r, c] is pixel (c + m, r + m).
    Per ordered pair of ``make_pairs``, checked by ``check_pairs``, it keeps
    the sources: the pixels of frame i whose projection lands inside frame
    j. Each has its projected coordinates and its anchor, the flat index of
    the projection's floor cell in row prefix sums of frame j's raster
    zero-padded by ``pad`` = ceil(epsilon) + m + 1 cells on every side;
    every cell within epsilon of a point of frame j lies in that padded
    raster, so no lookup is clipped.
    A slot per raster cell of frame i holds its source's index, or -1 for a
    pixel that projects outside frame j. Per frame it keeps the padded row
    stride and ``_disc_runs`` at that stride.

    Only the distinct plane columns are kept: those of the busy columns,
    which have some state other than 1 (similar), found by
    ``_distinct_columns``, then one all-1s column for the flat ones, which
    are most of a smooth frame's columns at t=35 and need no sort. ``views``
    holds them under the four rotations (``_quarter_turns``), and the int32
    ``inverse`` maps each plane column, in plane order, to its distinct
    column. On the 160x120 frames of the annealed fixture at t=35, 17,000
    busy columns hold 4,145 distinct ones, so ``views`` (0.76 MB) is about
    the size of the busy columns' planes, and a candidate walks 4 variants
    over 4 x 4,146 columns instead of 16 over every column
    (``_sixteen_fold_fired``).

    An evaluation pads each detection field and takes its row prefix sums.
    A detected source is repeated when its sure runs hold a detection of
    frame j, and not repeated when its maybe runs hold none; for the others
    a maybe cell that holds a detection and passes ``_cells_within``
    decides. The sure cells of every query pass that test, and every cell
    that passes it is a maybe cell, so the counts are exact on every source.

    ``evaluate`` keeps its latest fields, repeatability and counts, and
    ``commit`` marks them as the current tree's. A later candidate whose
    fields equal the committed ones has the same repeatability and counts,
    so only its size term is new: it skips padding and matching.
    """

    def __init__(self, frames, warps, weights: CostWeights, table: OffsetTable):
        self.frames = list(frames)
        pairs = make_pairs(len(self.frames))
        check_pairs(self.frames, warps, pairs)
        self.weights = weights
        self.table = table
        self.offsets = sixteen_fold_offsets(table)
        m = table.margin
        self.shapes = [(max(f.height - 2 * m, 0), max(f.width - 2 * m, 0))
                       for f in self.frames]
        planes = ternary_planes(self.frames, self.offsets, weights.t, m)
        # flat: the least and the greatest state of the column are both 1
        busy = np.flatnonzero((planes.min(axis=0) != 1)
                              | (planes.max(axis=0) != 1))
        first, inverse = _distinct_columns(planes, busy)
        self.inverse = np.full(planes.shape[1], len(first), dtype=np.int32)
        self.inverse[busy] = inverse
        # the distinct busy columns, then the flat columns' all-1s column
        columns = np.pad(planes.take(busy.take(first), axis=1),
                         ((0, 0), (0, 1)), constant_values=1)
        del planes, busy, first, inverse  # freed before the projections
        self._latest = self._committed = None
        self.pad = pad = math.ceil(weights.epsilon) + m + 1
        self.strides = strides = [w + 2 * pad + 1 for _, w in self.shapes]
        self.runs = [_disc_runs(weights.epsilon, s) for s in strides]
        self.projections = {}
        for i, group in itertools.groupby(pairs, key=lambda pair: pair[0]):
            ys, xs = np.indices(self.shapes[i]).reshape(2, -1) + m
            pts = np.column_stack([xs, ys]).astype(np.float64)
            for _, j in group:
                proj, valid = project_points(warps[(i, j)], pts)
                src = np.flatnonzero(valid)
                px, py = proj[:, 0].take(src), proj[:, 1].take(src)
                fx, fy = (np.floor(v).astype(np.int32) + pad - m
                          for v in (px, py))
                slot = np.full(len(valid), -1, dtype=np.int32)
                slot[src] = np.arange(len(src), dtype=np.int32)
                self.projections[(i, j)] = (slot, fy * strides[j] + fx, px, py)
        # stacked last: built before the projections, the views raised the
        # peak RSS of the benchmark's anneal workload by about 0.6 MB
        self.views = _quarter_turns(columns, self.offsets)

    def detect_fields(self, tree: TernaryTree) -> list[np.ndarray]:
        """Per frame, the boolean interior raster of the symmetrized
        detector's corners: on each column the result of its distinct
        column's walk (``_sixteen_fold_fired``), split by frame."""
        ct = CompiledTree(tree, self.table)
        fired = _sixteen_fold_fired(ct, self.offsets,
                                    self.views).take(self.inverse)
        ends = np.cumsum([h * w for h, w in self.shapes])[:-1]
        return [part.reshape(shape) for part, shape
                in zip(np.split(fired, ends), self.shapes)]

    def evaluate(self, tree: TernaryTree) -> tuple[float, float, list[int]]:
        """(cost, repeatability, per-frame detection counts), detections
        counted before any suppression. Reuses the committed repeatability
        and counts when the fields equal the committed fields."""
        fields = self.detect_fields(tree)
        known = self._committed
        if known is None or not all(map(np.array_equal, fields, known[0])):
            known = (fields, *self._match(fields))
        self._latest = known
        _, r, d_counts = known
        return (cost_from_parts(r, d_counts, tree_size(tree), self.weights),
                r, list(d_counts))

    def _match(self, fields) -> tuple[float, list[int]]:
        """(repeatability, per-frame detection counts) of the fields."""
        detected = [np.flatnonzero(f) for f in fields]
        d_counts = [len(d) for d in detected]
        pad = self.pad
        prefixes = [_row_prefix(np.pad(f, pad)) for f in fields]
        tot_useful = tot_rep = 0
        for (i, j), (slot, anchor, px, py) in self.projections.items():
            useful = slot.take(detected[i])
            useful = useful[useful >= 0]
            flat = prefixes[j].ravel()
            sure, maybe, cells = self.runs[j]
            settled = _runs_hit(anchor[useful], flat, sure)
            rest = useful[~settled]
            rest = rest[_runs_hit(anchor[rest], flat, maybe)]
            index, within = _cells_within(px[rest], py[rest], anchor[rest],
                                          cells, self.strides[j],
                                          self.weights.epsilon)
            exact = within & (flat.take(index + 1) > flat.take(index))
            tot_useful += len(useful)
            tot_rep += int(settled.sum()) + int(exact.any(axis=1).sum())
        return tot_rep / tot_useful if tot_useful else 0.0, d_counts

    def commit(self) -> None:
        """Mark the latest evaluation as the current tree's: later
        candidates with the same fields reuse its repeatability and
        counts."""
        self._committed = self._latest


@dataclass(frozen=True)
class AnnealResult:
    best_tree: TernaryTree
    best_cost: float
    trace: np.ndarray  # rows: iteration, cost, best_cost, temperature
    seed: int


def anneal(frames, warps, weights: CostWeights, seed: int) -> AnnealResult:
    """Run one simulated-annealing optimization over the 48-offset table,
    on the ``make_pairs`` pairs of ``frames``.

    Starts from a random depth-1 tree; per iteration, mutates the current
    tree, evaluates the cost (the symmetrized detector runs on every frame),
    and accepts with probability min(1, exp((k_cur - k_new) / T)) under the
    exponential temperature schedule. Deterministic for a fixed seed.
    """
    table = default_offsets_48()
    ev = CostEvaluator(frames, warps, weights, table)
    rng = np.random.default_rng(seed)

    tree = best_tree = random_depth1_tree(rng, table)
    k_cur, _, _ = ev.evaluate(tree)
    ev.commit()
    best_cost = k_cur
    trace = [(0.0, k_cur, k_cur, weights.beta)]

    for it in range(1, weights.i_max + 1):
        temp = temperature(it, weights)
        candidate = mutate(tree, rng, table)
        k_new, _, _ = ev.evaluate(candidate)
        if k_new <= k_cur:
            accept = True
        else:
            # the temperature underflows to 0 once alpha * I / I_max passes
            # about 745: no worse candidate is accepted from there on
            arg = (k_cur - k_new) / temp if temp else -math.inf
            p = math.exp(arg) if arg > -745.0 else 0.0
            accept = rng.random() < p
        if accept:
            ev.commit()
            tree, k_cur = candidate, k_new
            if k_new < best_cost:
                best_tree, best_cost = candidate, k_new
        trace.append((float(it), k_cur, best_cost, temp))

    return AnnealResult(best_tree=best_tree, best_cost=best_cost,
                        trace=np.asarray(trace, dtype=np.float64), seed=seed)


def multi_run(frames, warps, weights: CostWeights, seeds,
              jobs: int = 1) -> tuple[AnnealResult, list[AnnealResult]]:
    """One independent annealing run per seed; returns the minimum-cost
    result plus every run (traces included). With ``jobs`` > 1 the runs go
    to at most min(jobs, runs) worker processes."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at the first submit; start no idle ones
        with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
            futures = [pool.submit(anneal, frames, warps, weights, s)
                       for s in seeds]
            results = [f.result() for f in futures]
    else:
        results = [anneal(frames, warps, weights, s) for s in seeds]
    best = min(results, key=lambda r: (r.best_cost, r.seed))
    return best, results


def distill(tree: TernaryTree, images, t: int,
            table: OffsetTable) -> TernaryTree:
    """Learn one unsymmetrized tree reproducing the sixteen-fold detector of
    ``tree`` over ``table`` at threshold t.

    Every interior pixel of the given images is labelled by the symmetrized
    detector and described by its 48 ternary offset states; the ID3 learner
    then builds a single tree with perfect training accuracy. Requires the
    offset table to be closed under the dihedral symmetries (as
    ``default_offsets_48`` is), otherwise labels need not be a function of
    the states. The labels come from one walk over the distinct state
    columns (``_distinct_columns``, ``_sixteen_fold_fired``), sorted with
    the table's offsets first, so the columns with equal states at those
    offsets are neighbours and make one weighted training row.
    """
    ct = CompiledTree(tree, table)
    offsets = sixteen_fold_offsets(table)
    planes = ternary_planes(list(images), offsets, t, table.margin)
    if not planes.size:
        raise ValueError("no interior pixels to distill from")
    # the table's offsets lead, in table order, so equal states at them
    # make neighbours among the distinct columns
    own = [offsets.index(xy) for xy in table.offsets]
    first, inverse = _distinct_columns(
        planes, rows=own + sorted(set(range(len(offsets))).difference(own)))
    columns = planes.take(first, axis=1)
    del planes
    labels = _sixteen_fold_fired(ct, offsets, _quarter_turns(columns, offsets))
    counts = np.bincount(inverse, minlength=len(first))
    # one row per distinct state vector at the table's offsets, ascending
    states = columns.T.take(own, axis=1)
    new = np.ones(len(states), dtype=bool)
    new[1:] = (states[1:] != states[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    weights = np.add.reduceat(counts, starts)
    true_per_group = np.add.reduceat(counts * labels, starts)
    mixed = (true_per_group > 0) & (true_per_group < weights)
    if mixed.any():
        raise InconsistentLabelsError(
            "sixteen-fold labels are not a function of the offset states; "
            "is the offset table closed under rotation/reflection?")
    ts = TrainingSet(
        states=np.asfortranarray(states[new]),
        labels=true_per_group > 0,
        weights=weights.astype(np.int64),
        offsets=table,
    )
    return build_tree(ts)
