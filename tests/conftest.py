import numpy as np
import pytest

from maskdet.anchors import AnchorSet, LevelLayout
from maskdet.model import ModelConfig, build_model, init_reference_weights

# small enough that a full forward takes milliseconds: grids 4/2/1, p = 42
TINY = ModelConfig(input_size=32, fpn_channels=8, cbam_reduction=4)


@pytest.fixture(scope="session")
def tiny_config():
    return TINY


@pytest.fixture(scope="session")
def tiny_store():
    return init_reference_weights(TINY, seed=123)


@pytest.fixture()
def tiny_model(tiny_store):
    return build_model(TINY, dict(tiny_store))


def make_anchor_set(anchors_cs) -> AnchorSet:
    """Ad-hoc anchor set from explicit center-size rows, single fake level."""
    arr = np.asarray(anchors_cs, dtype=np.float64).reshape(-1, 4)
    return AnchorSet(arr, (LevelLayout(arr.shape[0], 1, 1, 1),))
