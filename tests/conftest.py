import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cornerforge import learn
from cornerforge.image import GrayImage

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")


def random_image(rng, w=48, h=40, low=0, high=256) -> GrayImage:
    return GrayImage(rng.integers(low, high, (h, w)).astype(np.uint8))


@pytest.fixture(scope="session")
def fast9_tree():
    """Exhaustively augmented FAST-9 tree: exactly the segment test."""
    ts = learn.augment_exhaustive(learn.empty_training_set(), 9)
    return learn.build_tree(ts)
