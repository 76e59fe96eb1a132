"""Uniform detector interface for evaluation and the CLI.

A detector turns an image into keypoint rows: an (N, 3) float64 array of
x, y, score. Detectors are stateless: ``all_keypoints(img)`` ranks every
keypoint of the image afresh, and ``detect(img, n)`` cuts that ranking at n
(``top_n_by_score``), so a caller that needs several counts of one frame
ranks it once and cuts it itself, as ``repeatability_curve`` does.
The scored detectors rank their rows after 3x3 non-maximal suppression by
(-score, y, x). Detectors with discrete scores return the closest achievable
count instead of splitting score ties; Harris and Shi-Tomasi split ties in
raster order. The random baseline's ranking is a permutation of the frame's
interior pixels seeded from (seed, frame key), so each count is a uniform
sample without replacement and the samples are nested.

Learned trees detect through one ``TreeDetector``, over one compiled tree
(FAST on the 16-pixel ring) or sixteen (FAST-ER, ``SixteenFoldDetector``).
"""

from __future__ import annotations

import numpy as np

from .baselines import (detect_random, detect_response, harris_response,
                        shi_tomasi_response, structure_tensor)
from .image import GrayImage
from .runtime import (PlaneWalk, corner_needs, keypoint_rows, rank_by_score,
                      score_positions, suppress_scored_arrays, top_n_by_score)
from .segment import segment_score_field
from .trees import CompiledTree, OffsetTable, TernaryTree, sixteen_fold


class FeatureDetector:
    """Base: ranked keypoint rows + count-controlled detection. Stateless:
    every call ranks the image afresh."""

    name = "base"
    split_ties = False

    def scored_keypoints(self, img: GrayImage) -> np.ndarray:
        """Suppressed keypoint rows of one image, in any order."""
        raise NotImplementedError

    def all_keypoints(self, img: GrayImage, frame_key=None) -> np.ndarray:
        """Every keypoint row of the image in rank order, as a new array.
        Only the random baseline reads ``frame_key``."""
        return rank_by_score(self.scored_keypoints(img))

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
        self.n = n
        self.t_min = t_min
        self.name = f"fast-ref-{n}"

    def scored_keypoints(self, img: GrayImage) -> np.ndarray:
        field = segment_score_field(img, self.n)
        ys, xs = np.nonzero(field >= self.t_min)
        return keypoint_rows(*suppress_scored_arrays(xs, ys, field[ys, xs],
                                                     field.shape))


class TreeDetector(FeatureDetector):
    """The OR of the compiled trees ``variants`` makes of one tree, compiled
    and prepared for ``PlaneWalk`` once. A position fires when any of them
    classifies it as a corner at ``t_min``; its score is the largest
    threshold at which any still does (``score_positions``, exact).

    ``needs`` is the source tree's ``corner_needs`` closed under swapping
    the two counts, so that it holds for every variant: a dihedral map of
    the offsets keeps a path's counts, and an inversion swaps them."""

    name = "fast-tree"

    def __init__(self, tree: TernaryTree, table: OffsetTable, t_min: int = 1):
        self.table = table
        source = CompiledTree(tree, self.table)
        self.trees = self.variants(source)
        needs = corner_needs(source)
        self.needs = needs | {(nd, nb) for nb, nd in needs}
        self.walk = PlaneWalk(self.trees, sorted(
            {xy for ct in self.trees for xy in zip(ct.dx.tolist(), ct.dy.tolist())}))
        self.t_min = t_min

    @staticmethod
    def variants(ct: CompiledTree) -> list:
        return [ct]

    def scored_keypoints(self, img: GrayImage) -> np.ndarray:
        xs, ys = self.walk.detect(img, self.t_min, self.table.margin).T
        scores = score_positions(self.trees, img, xs, ys, self.t_min,
                                 self.needs)
        return keypoint_rows(*suppress_scored_arrays(xs, ys, scores, img.shape))


class SixteenFoldDetector(TreeDetector):
    """Symmetrized wide-offset detector: the OR of a 48-offset tree's 16
    variants."""

    name = "faster"
    variants = staticmethod(sixteen_fold)


class HarrisDetector(FeatureDetector):
    name = "harris"
    split_ties = True

    def __init__(self, sigma: float = 2.5):
        self.sigma = sigma

    def _response(self, img: GrayImage) -> np.ndarray:
        return harris_response(structure_tensor(img, self.sigma))

    def scored_keypoints(self, img: GrayImage) -> np.ndarray:
        return detect_response(self._response(img))


class ShiTomasiDetector(HarrisDetector):
    name = "shi-tomasi"

    def _response(self, img: GrayImage) -> np.ndarray:
        return shi_tomasi_response(structure_tensor(img, self.sigma))


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
