"""Uniform detector interface for evaluation and the CLI.

A detector turns an image into keypoint rows: an (N, 3) float64 array of
x, y, score after 3x3 non-maximal suppression. Each frame's rows are ranked
once by (-score, y, x) and cached, and ``detect(img, n)`` is a prefix of
that ranking (``top_n_by_score``). Detectors with discrete scores return the
closest achievable count instead of splitting score ties; Harris and
Shi-Tomasi split ties in raster order.

Learned trees detect through one ``TreeDetector``, over one compiled tree
(FAST on the 16-pixel ring) or sixteen (FAST-ER, ``SixteenFoldDetector``).
"""

from __future__ import annotations

import numpy as np

from .baselines import (detect_random, detect_response, harris_response,
                        shi_tomasi_response, structure_tensor)
from .image import GrayImage
from .runtime import (PlaneWalk, keypoint_rows, rank_by_score,
                      score_positions, suppress_scored_arrays, top_n_by_score)
from .segment import segment_score_field
from .trees import (CompiledTree, OffsetTable, RING16, TernaryTree,
                    default_offsets_48, sixteen_fold)


class FeatureDetector:
    """Base: cached ranked keypoint rows + count-controlled detection."""

    name = "base"
    split_ties = False

    def __init__(self):
        self._cache: dict[int, tuple[GrayImage, np.ndarray]] = {}

    def scored_keypoints(self, img: GrayImage) -> np.ndarray:
        """Suppressed keypoint rows of one image, in any order."""
        raise NotImplementedError

    def clear_cache(self) -> None:
        self._cache.clear()

    def all_keypoints(self, img: GrayImage) -> np.ndarray:
        """Every suppressed keypoint of the image, ranked by (-score, y, x);
        cached per frame and read-only."""
        entry = self._cache.get(id(img))
        if entry is None or entry[0] is not img:
            ranked = rank_by_score(self.scored_keypoints(img))
            ranked.flags.writeable = False
            entry = self._cache[id(img)] = (img, ranked)
        return entry[1]

    def detect(self, img: GrayImage, n_features: int,
               frame_key=None) -> np.ndarray:
        return top_n_by_score(self.all_keypoints(img), n_features,
                              split_ties=self.split_ties)


class FastRefDetector(FeatureDetector):
    """Reference segment test; scores are the exact maximum passing threshold."""

    def __init__(self, n: int = 9, t_min: int = 1):
        super().__init__()
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
    threshold at which any still does (``score_positions``, exact)."""

    name = "fast-tree"
    default_table = RING16

    def __init__(self, tree: TernaryTree, table: OffsetTable, t_min: int = 1):
        super().__init__()
        self.table = table
        self.trees = self.variants(CompiledTree(tree, self.table))
        self.walk = PlaneWalk(self.trees, sorted(
            {xy for ct in self.trees for xy in zip(ct.dx.tolist(), ct.dy.tolist())}))
        self.t_min = t_min

    @staticmethod
    def variants(ct: CompiledTree) -> list:
        return [ct]

    def scored_keypoints(self, img: GrayImage) -> np.ndarray:
        xs, ys = self.walk.detect(img, self.t_min, self.table.margin).T
        scores = score_positions(self.trees, img, xs, ys, self.t_min)
        return keypoint_rows(*suppress_scored_arrays(xs, ys, scores, img.shape))


class SixteenFoldDetector(TreeDetector):
    """Symmetrized wide-offset detector: the OR of a 48-offset tree's 16
    variants."""

    name = "faster"
    default_table = default_offsets_48()
    variants = staticmethod(sixteen_fold)


class HarrisDetector(FeatureDetector):
    split_ties = True

    def __init__(self, sigma: float = 2.5):
        super().__init__()
        self.sigma = sigma
        self.name = "harris"

    def _response(self, img: GrayImage) -> np.ndarray:
        return harris_response(structure_tensor(img, self.sigma))

    def scored_keypoints(self, img: GrayImage) -> np.ndarray:
        return detect_response(self._response(img))


class ShiTomasiDetector(HarrisDetector):
    def __init__(self, sigma: float = 2.5):
        super().__init__(sigma=sigma)
        self.name = "shi-tomasi"

    def _response(self, img: GrayImage) -> np.ndarray:
        return shi_tomasi_response(structure_tensor(img, self.sigma))


class RandomDetector(FeatureDetector):
    """Uniform scatter baseline; positions are independent of pixel content.

    Each frame key gets an independent derived seed so different frames of a
    sequence receive independent scatters.
    """

    def __init__(self, seed: int = 0):
        super().__init__()
        self.seed = seed
        self.name = "random"

    def scored_keypoints(self, img: GrayImage) -> np.ndarray:
        raise NotImplementedError("random baseline has no response to score")

    def detect(self, img: GrayImage, n_features: int,
               frame_key=None) -> np.ndarray:
        derived = int(np.random.SeedSequence(
            (self.seed, 0 if frame_key is None else int(frame_key))
        ).generate_state(1)[0])
        return detect_random(img, n_features, derived)
