import numpy as np
import pytest

from smrates import (
    BackwardState,
    CIRParams,
    RegimeRateModel,
    SemiMarkovKernel,
    SojournDistribution,
    SolverConfig,
    alternating_kernel,
)


@pytest.fixture
def nan_partial_mean(monkeypatch):
    """Every sojourn law's truncated mean, NaN at its middle node."""
    exact = SojournDistribution.partial_mean

    def partial_mean(law, t):
        out = np.array(exact(law, t), dtype=float)
        out.flat[out.size // 2] = np.nan
        return out

    monkeypatch.setattr(SojournDistribution, "partial_mean", partial_mean)


@pytest.fixture(scope="session")
def kern_single():
    """One state that renews itself with exponential(1) sojourns."""
    return SemiMarkovKernel([[1.0]], [[SojournDistribution.exponential(1.0)]])


@pytest.fixture(scope="session")
def kern_alt_exp():
    """Two alternating states, exponential(1) sojourns everywhere."""
    g = SojournDistribution.exponential(1.0)
    return alternating_kernel(g, g)


@pytest.fixture(scope="session")
def kern_testbed():
    """Two alternating states with Weibull(2, 1) sojourns."""
    g = SojournDistribution.weibull(2.0, 1.0)
    return alternating_kernel(g, g, states=("calm", "stressed"))


@pytest.fixture(scope="session")
def vas_single():
    return RegimeRateModel.vasicek([{"a": 1.0, "b": 0.05, "sigma": 0.02}])


@pytest.fixture(scope="session")
def cir_single():
    return RegimeRateModel.cir([CIRParams(0.04, 1.0, 0.1)])


@pytest.fixture(scope="session")
def vas_testbed():
    return RegimeRateModel.vasicek([
        {"a": 1.0, "b": 0.02, "sigma": 0.015},
        {"a": 0.8, "b": 0.06, "sigma": 0.02},
    ])


@pytest.fixture(scope="session")
def cfg_fast():
    """Coarse but honest solver settings for unit tests."""
    return SolverConfig(step=0.01, horizon=2.0, rate_nodes=61, quad_order=24,
                        reference_rate=0.03)


@pytest.fixture(scope="session")
def start0():
    return BackwardState(0, 0.0)
