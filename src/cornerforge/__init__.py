"""Corner detection toolkit: segment-test detectors, decision-tree compilation,
repeatability benchmarking, and annealing-based detector optimization."""

__version__ = "0.1.0"

from .image import GrayImage, load_pgm, save_pgm  # noqa: F401
