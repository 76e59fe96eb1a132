"""Uniform detector interface for evaluation and the CLI.

A detector turns an image into keypoint rows: an (N, 3) float64 array of
x, y, score. Detectors are stateless: ``all_keypoints(img)`` ranks every
keypoint of the image afresh, and ``detect(img, n)`` cuts that ranking at n
(``top_n_by_score``), so a caller that needs several counts of one frame
ranks it once and cuts it itself, as ``repeatability_curve`` does.
A scored detector is its ``score_grid(img)``, image-shaped and 0 where
nothing is detected: int16 for the segment test and every tree, float64
for Harris and Shi-Tomasi. ``all_keypoints`` suppresses and ranks every
grid by (-score, y, x) through ``ranked_rows``. Detectors
with discrete scores return the closest achievable count instead of
splitting score ties; Harris and Shi-Tomasi split ties in raster order.
The random baseline's ranking is a permutation of the frame's interior
pixels seeded from (seed, frame key), so each count is a uniform sample
without replacement and the samples are nested.

Learned trees detect through one ``TreeDetector``, over one compiled tree
(FAST on the 16-pixel ring) or sixteen (FAST-ER, ``SixteenFoldDetector``).
"""

from __future__ import annotations

import numpy as np

from .baselines import (detect_random, harris_response, response_grid,
                        shi_tomasi_response)
from .image import GrayImage
from .runtime import (PlaneWalk, check_threshold, corner_needs, minimal_pairs,
                      needs_field, pair_mask, ranked_rows, score_positions,
                      top_n_by_score)
from .segment import check_arc, segment_score_field
from .trees import CompiledTree, OffsetTable, TernaryTree, sixteen_fold


class FeatureDetector:
    """Base: ranked keypoint rows + count-controlled detection. Stateless:
    every call ranks the image afresh."""

    name = "base"
    split_ties = False

    def score_grid(self, img: GrayImage) -> np.ndarray:
        """Image-shaped scores, 0 where nothing is detected."""
        raise NotImplementedError

    def all_keypoints(self, img: GrayImage, frame_key=None) -> np.ndarray:
        """Every keypoint row of the image in rank order, as a new array.
        Only the random baseline reads ``frame_key``."""
        return ranked_rows(self.score_grid(img))

    def clear_cache(self) -> None:
        """No-op: detectors keep no state. Kept only because
        ``benchmark/workloads.py`` still calls it."""

    def detect(self, img: GrayImage, n_features: int,
               frame_key=None) -> np.ndarray:
        """The top ``n_features`` rows of ``all_keypoints``
        (``top_n_by_score``), copied so they do not keep the whole ranking
        alive."""
        return top_n_by_score(self.all_keypoints(img, frame_key), n_features,
                              split_ties=self.split_ties).copy()


class FastRefDetector(FeatureDetector):
    """Reference segment test; scores are the exact maximum passing threshold."""

    def __init__(self, n: int = 9, t_min: int = 1):
        check_arc(n)
        check_threshold(t_min)
        self.n = n
        self.t_min = t_min
        self.name = f"fast-ref-{n}"

    def score_grid(self, img: GrayImage) -> np.ndarray:
        """The int16 segment-test field with every cell below ``t_min`` set
        to 0, in place: a product with the mask, since at t=1 a masked store
        writes most of the frame and costs 25 times as much."""
        field = segment_score_field(img, self.n)
        np.multiply(field, field >= self.t_min, out=field)
        return field


class TreeDetector(FeatureDetector):
    """The OR of the compiled trees ``variants`` makes of one tree, compiled
    and prepared for ``PlaneWalk`` once. A position fires when any of them
    classifies it as a corner at ``t_min``; its score is the largest
    threshold at which any still does.

    ``needs`` holds the source tree's ``corner_needs`` mapped onto every
    variant node by node (source node k's offset becomes variant node k's),
    closed under swapping the two sets, since an inversion swaps the
    brighter and darker branches, and cut to its ``minimal_pairs``. A
    position fires only if every offset of some pair is non-similar in the
    pair's state. The ``PlaneWalk`` takes ``needs``, turns them into plane
    rows and marks the pairs it covers. When it covers every pair, as on
    every exhaustive FAST-n tree, ``score_grid`` is the pairs'
    ``needs_field`` cut at ``t_min`` in place, as ``FastRefDetector`` cuts
    its field: no plane is built and no tree walked.
    Empty ``needs`` means no corner leaf, and the field is 0. Otherwise the
    walk detects (``PlaneWalk.detect``; every variant after the first walks
    only the columns that meet a pair) and ``score_positions`` scores the
    detections exactly from the walk's scoring paths, the covered pairs and
    the variants' corner paths that no covered pair holds. The choice rests
    on the tree alone."""

    name = "fast-tree"

    def __init__(self, tree: TernaryTree, table: OffsetTable, t_min: int = 1):
        check_threshold(t_min)
        self.table = table
        source = CompiledTree(tree, self.table)
        self.trees = list(self.variants(source))
        first = {}  # each distinct offset of the source -> its first node
        for k, xy in enumerate(zip(source.dx.tolist(), source.dy.tolist())):
            first.setdefault(xy, k)
        offsets = sorted({xy for ct in self.trees
                          for xy in zip(ct.dx.tolist(), ct.dy.tolist())})
        index = {xy: k for k, xy in enumerate(offsets)}
        needs = corner_needs(source)
        mapped = set()
        for ct in self.trees:
            to = {xy: index[int(ct.dx[k]), int(ct.dy[k])] for xy, k in first.items()}
            for b, d in needs:
                b, d = frozenset(map(to.get, b)), frozenset(map(to.get, d))
                mapped |= {(b, d), (d, b)}
        self.needs = minimal_pairs({pair_mask(b, d) for b, d in mapped}, offsets)
        self.walk = PlaneWalk(self.trees, offsets, self.needs)
        self.t_min = t_min

    @staticmethod
    def variants(ct: CompiledTree) -> list:
        return [ct]

    def score_grid(self, img: GrayImage) -> np.ndarray:
        margin = self.table.margin
        if self.walk.covered.all():
            field = needs_field(img, self.walk.offsets, self.walk.pairs, margin)
            np.multiply(field, field >= self.t_min, out=field)
            return field
        grid = np.zeros(img.shape, dtype=np.int16)
        xs, ys = self.walk.detect(img, self.t_min, margin).T
        grid[ys, xs] = score_positions(self.walk, img, xs, ys, self.t_min)
        return grid


class SixteenFoldDetector(TreeDetector):
    """Symmetrized wide-offset detector: the OR of a 48-offset tree's 16
    variants."""

    name = "faster"
    variants = staticmethod(sixteen_fold)


class HarrisDetector(FeatureDetector):
    name = "harris"
    split_ties = True
    response = staticmethod(harris_response)

    def __init__(self, sigma: float = 2.5):
        self.sigma = sigma

    def score_grid(self, img: GrayImage) -> np.ndarray:
        """The positive responses; non-positive and NaN cells are 0."""
        return response_grid(img, self.sigma, self.response)


class ShiTomasiDetector(HarrisDetector):
    name = "shi-tomasi"
    response = staticmethod(shi_tomasi_response)


class RandomDetector(FeatureDetector):
    """Uniform scatter baseline; positions are independent of pixel content.

    Each frame key gets an independent derived seed, so different frames of
    a sequence receive independent permutations (``detect_random``).
    """

    name = "random"
    split_ties = True

    def __init__(self, seed: int = 0):
        self.seed = seed

    def all_keypoints(self, img: GrayImage, frame_key=None) -> np.ndarray:
        return detect_random(img, int(np.random.SeedSequence(
            (self.seed, 0 if frame_key is None else int(frame_key))
        ).generate_state(1)[0]))
