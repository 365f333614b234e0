import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from recical.geometry import CouplingModel

# derandomized so that every run of the suite draws the same cases; the
# property tests read only the immutable ``coupling`` fixture
settings.register_profile(
    "recical",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("recical")


@pytest.fixture
def coupling():
    """Default coupling fit used throughout: -20 dB between adjacent elements."""
    return CouplingModel(
        co_slope=-10.0,
        co_intercept=-12.0,
        cross_slope=-10.0,
        cross_intercept=-15.0,
        sigma2=1e-6,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
