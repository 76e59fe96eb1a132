"""ID3 compilation of the segment test into a ternary decision tree.

Training data is a weighted set of distinct neighborhood state vectors
(16 ring states, or 48 states for the wide-offset detector) with boolean
corner labels. Splitting maximizes total information gain measured in
weighted-count units; recursion stops exactly at zero-entropy subsets, so a
label-consistent training set is always classified perfectly.

The exhaustive ring set that ``augment_exhaustive`` makes from a set of
observed ring records holds all 3^16 configurations implicitly:
configuration r has the cached label ``label_all_configs(n)[r]`` and one
low weight shared by all, and the observed records on top of them stay
explicit state rows. The label table, viewed as a tensor of shape (3,)*16,
has tensor axis a for ring column 15 - a. A tree node's subset fixes the
columns tested above it, so it is a strided slice of that tensor plus the
observed rows inside it; its class counts per column value are the low
weight times the slice's label axis marginals plus the rows' counts, and
its children are slices and row subsets. Sets of explicit state rows alone
(observed configurations, 48-offset sets) split by index arrays. Both kinds
share one recursion and one split rule, so equal data gives equal trees.

A slice with no observed rows inside it is grown once per call of
``build_tree`` or ``force_shared_second_test`` for each distinct key: its
free-column mask plus its packed labels. Its count table is the low weight
times its label marginals on the free columns, and a fixed column holds all
of the slice's weight at its one value. Whichever value that is, the
column's gain is exactly 0 and it is never the varying column a zero-gain
split takes, so the fixed values cannot change a split, and a slice whose
key was grown before reuses that subtree, so one subtree object can sit at
several positions of the tree (see ``trees``).

Every count is an integer held in a float64 table, exact only below 2^53,
so a set whose total weight reaches 2^53 is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runtime import ternary_planes
from .segment import N_CONFIGS, N_RING, config_labels, label_all_configs
from .trees import LEAF0, LEAF1, Leaf, Node, OffsetTable, RING16, TernaryTree


# Integers below 2^53 are exact in float64, the dtype of the count tables.
MAX_TOTAL_WEIGHT = 2**53


class InconsistentLabelsError(ValueError):
    """The same state vector appears with both labels."""


def _check_total_weight(total: int) -> None:
    if total >= MAX_TOTAL_WEIGHT:
        raise ValueError(f"total training weight {total} reaches 2^53, beyond "
                         "which the float64 count tables are not exact")


@dataclass(frozen=True)
class TrainingSet:
    """Distinct state vectors with labels and multiplicity weights.

    ``states`` is (N, k) uint8 with column j holding the ternary state of
    offset ``offsets.index_base + j``; ``weights`` are N integers >= 0.
    """

    states: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    offsets: OffsetTable

    def __post_init__(self):
        if self.states.ndim != 2 or self.states.dtype != np.uint8:
            raise ValueError("states must be a 2-d uint8 array")
        if self.states.shape[1] != len(self.offsets):
            raise ValueError(f"states have {self.states.shape[1]} columns for "
                             f"{len(self.offsets)} offsets")
        if self.labels.shape != (self.states.shape[0],):
            raise ValueError("labels shape mismatch")
        if self.weights.shape != self.labels.shape:
            raise ValueError("weights shape mismatch")
        if (self.weights < 0).any():
            raise ValueError("weights must be >= 0")

    @property
    def num_records(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class ExhaustiveSet:
    """All 3^16 ring configurations at ``low_weight`` each, with the records
    of ``observed`` (explicit ring state rows) adding their weights on top.

    Configuration r has label ``labels[r]``, the cached read-only
    ``label_all_configs(n)``; no per-configuration weight array exists.
    """

    labels: np.ndarray
    low_weight: int
    observed: TrainingSet

    @property
    def offsets(self) -> OffsetTable:
        return self.observed.offsets

    @property
    def num_records(self) -> int:
        return N_CONFIGS


def states_from_codes(codes: np.ndarray) -> np.ndarray:
    """Decode packed config codes into an (N, 16) uint8 state matrix."""
    codes = np.asarray(codes, dtype=np.int64)
    m = np.empty((codes.size, N_RING), dtype=np.uint8, order="F")
    for i in range(N_RING):
        m[:, i] = ((codes // 3**i) % 3).astype(np.uint8)
    return m


def codes_from_states(states: np.ndarray) -> np.ndarray:
    """Inverse of states_from_codes for 16-column matrices."""
    if states.shape[1] != N_RING:
        raise ValueError("packed codes exist only for 16-offset state rows")
    codes = np.zeros(states.shape[0], dtype=np.int64)
    for i in range(N_RING):
        codes += states[:, i].astype(np.int64) * 3**i
    return codes


def empty_training_set() -> TrainingSet:
    return TrainingSet(
        states=np.zeros((0, N_RING), dtype=np.uint8),
        labels=np.zeros(0, dtype=bool),
        weights=np.zeros(0, dtype=np.int64),
        offsets=RING16,
    )


def extract_training_data(images, n: int, t: int,
                          weight_scale: int = 256) -> TrainingSet:
    """One weighted record per distinct ring configuration observed at the
    interior pixels of the images, in ascending code order.

    Labels come from the segment test for the given arc length; weights are
    occurrence counts scaled by ``weight_scale`` so that observed data
    dominates the low-weight exhaustive padding during split selection.
    """
    images = list(images)
    if not images:
        raise ValueError("need at least one image")
    if weight_scale < 0:
        raise ValueError("weight_scale must be >= 0")
    planes = ternary_planes(images, RING16.offsets, t, RING16.margin)
    _check_total_weight(planes.shape[1] * weight_scale)
    uniq, counts = np.unique(codes_from_states(planes.T), return_counts=True)
    return TrainingSet(
        states=states_from_codes(uniq),
        labels=config_labels(uniq, n),
        weights=counts.astype(np.int64) * weight_scale,
        offsets=RING16,
    )


def augment_exhaustive(ts: TrainingSet, n: int,
                       low_weight: int = 1) -> ExhaustiveSet:
    """Add every one of the 3^16 configurations at ``low_weight``, keeping
    the records of the ring set ``ts`` by weight. The result always covers
    the full space, so the learned tree embodies the segment test exactly.

    The records of ``ts`` stay explicit rows of the result's ``observed``
    set."""
    if low_weight < 1:
        raise ValueError("low_weight must be >= 1")
    if len(ts.offsets) != N_RING:
        raise ValueError("exhaustive augmentation applies to the 16-ring space")
    labels = label_all_configs(n)
    labels.setflags(write=False)
    if not np.array_equal(ts.labels, labels[codes_from_states(ts.states)]):
        raise InconsistentLabelsError(
            "training labels disagree with the segment test; corrupted set")
    # a Python sum: an int64 one can wrap
    _check_total_weight(low_weight * N_CONFIGS + sum(ts.weights.tolist()))
    return ExhaustiveSet(labels=labels, low_weight=low_weight, observed=ts)


def _entropy_vec(c: np.ndarray, cbar: np.ndarray) -> np.ndarray:
    """Total (un-normalized) binary entropy in weighted-count units, per
    element: (c+cbar)*log2(c+cbar) - c*log2(c) - cbar*log2(cbar), with
    0*log2(0) = 0."""

    def xlogx(v):
        out = np.zeros_like(v, dtype=np.float64)
        nz = v > 0
        out[nz] = v[nz] * np.log2(v[nz])
        return out

    return xlogx(c + cbar) - xlogx(c) - xlogx(cbar)


def _axis_marginals(t: np.ndarray) -> np.ndarray:
    """(t.ndim, 3) int64: entry [a, v] is the sum of ``t`` over all entries
    whose index on axis a is v. Every axis must have length 3.

    Divide and conquer: summing out one half of the axes leaves a tensor of
    the other half's marginals and vice versa, so the full tensor is read
    twice whatever its rank. A bool tensor's half sums count at most 3^8
    entries each for rank 16, so they accumulate in uint16, the cheapest
    full read.
    """
    k = t.ndim
    if k == 0:
        return np.zeros((0, 3), dtype=np.int64)
    if k == 1:
        return t.astype(np.int64)[None]
    h = k // 2
    acc = np.uint16 if t.dtype == bool and 3 ** (k - h) < 2**16 else np.int64
    return np.concatenate([
        _axis_marginals(t.sum(axis=tuple(range(h, k)), dtype=acc)),
        _axis_marginals(t.sum(axis=tuple(range(h)), dtype=acc)),
    ])


class _Rows:
    """The records ``idx`` of a set of explicit state rows."""

    def __init__(self, ts: TrainingSet, idx: np.ndarray):
        self.ts, self.idx = ts, idx

    def count_table(self) -> np.ndarray:
        ts, idx = self.ts, self.idx
        if not idx.size:  # a child for a state no record holds
            return np.zeros((len(ts.offsets), 6))
        combo_base = ts.labels[idx].astype(np.uint8) * np.uint8(3)
        w = ts.weights[idx]
        table = np.empty((len(ts.offsets), 6))
        for col in range(len(ts.offsets)):
            table[col] = np.bincount(combo_base + ts.states[idx, col], weights=w,
                                     minlength=6)
        return table

    def split(self, col: int) -> list[_Rows]:
        column = self.ts.states[self.idx, col]
        return [_Rows(self.ts, self.idx[column == v]) for v in range(3)]

    def memo_key(self) -> None:
        """Row sets are grown afresh: they have no memo key."""
        return None


class _Slice:
    """Configurations of an exhaustive set whose columns ``fixed[j] >= 0``
    hold the value ``fixed[j]``.

    ``labels`` views the label tensor with one axis per free column, highest
    column first. Every configuration weighs ``low``, and ``rows`` holds the
    observed records inside the slice, whose weights add on top.
    """

    def __init__(self, labels: np.ndarray, low: int, rows: _Rows,
                 fixed: tuple[int, ...]):
        self.labels, self.low, self.rows, self.fixed = labels, low, rows, fixed

    @classmethod
    def root(cls, labels: np.ndarray, low: int, observed: TrainingSet) -> _Slice:
        k = len(observed.offsets)
        return cls(labels.reshape((3,) * k), low,
                   _Rows(observed, np.arange(observed.num_records)), (-1,) * k)

    def _contiguous(self) -> np.ndarray:
        # Sums over a view with fixed axes run short, strided inner loops; a
        # contiguous copy, made once and alive only while this subtree grows,
        # reads fast.
        self.labels = np.asarray(self.labels, order="C")
        return self.labels

    def memo_key(self) -> tuple | None:
        """For a slice that holds no observed rows, the free-column mask
        plus its packed labels, else None. Row-free slices with equal keys
        grow equal subtrees (see ``build_tree``)."""
        if self.rows.idx.size:
            return None
        return (tuple(v < 0 for v in self.fixed),
                np.packbits(self._contiguous()).tobytes())

    def count_table(self) -> np.ndarray:
        labels = self._contiguous()
        free = [j for j in reversed(range(len(self.fixed))) if self.fixed[j] < 0]
        corner = _axis_marginals(labels)
        c = corner[0].sum() if free else int(labels)
        w = labels.size
        table = np.zeros((len(self.fixed), 6), dtype=np.int64)
        table[free, :3] = w // 3 - corner
        table[free, 3:] = corner
        # A fixed column is constant on the subset: all weight in its one slot,
        # exactly as a row set counts it.
        for j, v in enumerate(self.fixed):
            if v >= 0:
                table[j, v], table[j, 3 + v] = w - c, c
        table = self.low * table
        if self.rows.idx.size:
            return table + self.rows.count_table()
        return table.astype(np.float64)  # the dtype a sum with rows gives

    def split(self, col: int) -> list[_Slice]:
        axis = sum(1 for j in self.fixed[col + 1:] if j < 0)
        lead = (slice(None),) * axis
        return [_Slice(self.labels[lead + (v,)], self.low, rows,
                       self.fixed[:col] + (v,) + self.fixed[col + 1:])
                for v, rows in enumerate(self.rows.split(col))]


def _root_subset(ts: TrainingSet | ExhaustiveSet) -> _Rows | _Slice:
    if isinstance(ts, ExhaustiveSet):
        return _Slice.root(ts.labels, ts.low_weight, ts.observed)
    return _Rows(ts, np.arange(ts.num_records))


def _split_gains(table: np.ndarray) -> np.ndarray:
    """Information gain per column from a (k, 6) count table whose row j
    holds the non-corner then the corner weight for states 0, 1, 2 of column
    j."""
    cbar, c = table[:, :3], table[:, 3:]
    h_parent = _entropy_vec(c[:1].sum(axis=1), cbar[:1].sum(axis=1))
    return h_parent - _entropy_vec(c, cbar).sum(axis=1)


def _pure_leaf(table: np.ndarray) -> Leaf | None:
    """The leaf for a subset of one class, else None."""
    cbar, c = table[0, :3].sum(), table[0, 3:].sum()
    if c == 0.0:
        return LEAF0  # for a zero-weight subset the class is arbitrary
    if cbar == 0.0:
        return LEAF1
    return None


def _pick_column(table: np.ndarray) -> int:
    """Column of maximal information gain for an impure subset's count
    table; ties break to the lowest column."""
    gains = _split_gains(table)
    best_val = float(gains.max())
    if best_val > 1e-9:
        # Ties (within float tolerance) break to the lowest offset index.
        tol = 1e-9 * max(1.0, abs(best_val))
        return int(np.flatnonzero(gains >= best_val - tol)[0])
    # No useful gain. If every column is constant the subset consists of one
    # repeated state with mixed labels; otherwise split on the first
    # non-constant column so recursion still makes progress.
    present = (table[:, :3] + table[:, 3:]) > 0
    varying = np.flatnonzero(present.sum(axis=1) > 1)
    if varying.size:
        return int(varying[0])
    raise InconsistentLabelsError(
        "zero gain everywhere with nonzero entropy: conflicting labels")


def _grow(subset: _Rows | _Slice, base: int, memo: dict) -> TernaryTree:
    """ID3 tree over a subset; children are built d, s, b. A subset whose
    ``memo_key`` is already in ``memo`` returns the subtree grown for it."""
    key = subset.memo_key()
    if key is not None and key in memo:
        return memo[key]
    table = subset.count_table()
    tree = _pure_leaf(table)
    if tree is None:
        col = _pick_column(table)
        # each child goes once its subtree is grown, so a grown slice's
        # contiguous labels do not stay alive while its siblings grow
        subsets = subset.split(col)
        d_child = _grow(subsets.pop(0), base, memo)
        s_child = _grow(subsets.pop(0), base, memo)
        b_child = _grow(subsets.pop(0), base, memo)
        tree = Node(base + col, b=b_child, s=s_child, d=d_child)
    if key is not None:
        memo[key] = tree
    return tree


def build_tree(ts: TrainingSet | ExhaustiveSet) -> TernaryTree:
    """Grow the ID3 tree; every training record ends at a leaf of its own
    label.

    On an exhaustive set the subsets are slices of the (3,)*16 label tensor
    plus the observed rows inside them; otherwise they are row index arrays.
    The split choices, and so the tree, are the same either way. A slice
    without observed rows whose free-column mask and labels equal those of
    one grown earlier in this call reuses its subtree: the values of the
    fixed columns never decide a split (see the module docstring)."""
    if ts.num_records == 0:
        raise ValueError("empty training set")
    return _grow(_root_subset(ts), ts.offsets.index_base, {})


def force_shared_second_test(tree: TernaryTree,
                             ts: TrainingSet | ExhaustiveSet) -> TernaryTree:
    """Rebuild so all non-leaf children of the root test one shared offset.

    The shared offset is the one maximizing the summed information gain over
    the three root subsets; below the second level the build is unconstrained.
    Training classifications are preserved (ID3 exactness). The three
    rebuilds share one memo of row-free slices, as in ``build_tree``.
    """
    kids = (tree.b, tree.s, tree.d) if isinstance(tree, Node) else ()
    second = {c.offset for c in kids if isinstance(c, Node)}
    if not second:
        raise ValueError("tree depth must be >= 2")
    if len(second) == 1:
        return tree

    base = ts.offsets.index_base
    root_col = tree.offset - base
    # a root subset's count table leaves it holding a contiguous copy of its
    # labels, so each goes once counted; the rebuild splits afresh
    subsets = _root_subset(ts).split(root_col)
    tables = [subsets.pop(0).count_table() for _ in range(3)]

    total = np.zeros(len(ts.offsets), dtype=np.float64)
    for table in tables:
        if _pure_leaf(table) is None:
            total += _split_gains(table)
    shared_col = int(np.argmax(total))
    if total[shared_col] <= 0:
        shared_col = root_col  # degenerate; keep something valid

    memo: dict = {}
    subsets = _root_subset(ts).split(root_col)

    def rebuild(state: int) -> TernaryTree:
        # as in ``_grow``, each subset goes once it is split and each child
        # once its subtree is grown, so no grown labels stay alive
        subset, table = subsets.pop(state), tables[state]
        leaf = _pure_leaf(table)
        if leaf is not None:
            return leaf
        children = subset.split(shared_col)
        del subset
        d = _grow(children.pop(0), base, memo)
        s = _grow(children.pop(0), base, memo)
        b = _grow(children.pop(0), base, memo)
        return Node(base + shared_col, b=b, s=s, d=d)

    # b, s, d: popping from the end leaves the other subsets' places alone
    return Node(tree.offset, b=rebuild(2), s=rebuild(1), d=rebuild(0))
