import warnings

import numpy as np
import pytest

from maskdet.anchors import AnchorSet, LevelLayout
from maskdet.model import ModelConfig, build_model, init_reference_weights

# When a @given test fails, hypothesis's pytest plugin imports this module
# (and libcst) to suggest an explicit example.  libcst's import warns that
# mypy_extensions.TypedDict is deprecated, and the DeprecationWarning filter
# in pyproject.toml turns that into an error inside pytest's report hook,
# which aborts the whole run.  Importing it here first, ignoring only that
# warning, lets a failing property test be reported as one failure.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", r"mypy_extensions\.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # no libcst: hypothesis makes no suggestion
        pass

# small enough that a full forward takes milliseconds: grids 4/2/1, p = 42
TINY = ModelConfig(input_size=32, fpn_channels=8)


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
