import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from smrates import SemiMarkovKernel, SojournDistribution


ALL_FAMILIES = [
    SojournDistribution.exponential(2.0),
    SojournDistribution.weibull(2.0, 1.0),
    SojournDistribution.weibull(0.8, 1.5),
    SojournDistribution.gamma(3.0, 0.5),
    SojournDistribution.uniform(0.2, 1.7),
]


@pytest.mark.parametrize("law", ALL_FAMILIES, ids=lambda g: f"{g.family}{g.params}")
def test_cdf_basic_shape(law):
    assert law.cdf(0.0) == 0.0
    assert law.cdf(-1.0) == 0.0
    ts = np.linspace(0.0, law.ppf(1.0 - 1e-9), 400)
    vals = law.cdf(ts)
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[-1] > 1.0 - 1e-8


@pytest.mark.parametrize("law", ALL_FAMILIES, ids=lambda g: f"{g.family}{g.params}")
def test_density_integrates_to_one(law):
    total, err = quad(law.pdf, 0.0, np.inf, limit=200)
    assert abs(total - 1.0) < 1e-8


@pytest.mark.parametrize("law", ALL_FAMILIES, ids=lambda g: f"{g.family}{g.params}")
def test_density_matches_cdf_slope(law):
    for t in (0.3, 0.9, 1.4):
        eps = 1e-6
        slope = (law.cdf(t + eps) - law.cdf(t - eps)) / (2 * eps)
        assert law.pdf(t) == pytest.approx(slope, rel=1e-4, abs=1e-9)


@pytest.mark.parametrize("law", ALL_FAMILIES, ids=lambda g: f"{g.family}{g.params}")
def test_ppf_inverts_cdf(law):
    qs = np.array([0.01, 0.2, 0.5, 0.9, 0.999])
    ws = law.ppf(qs)
    assert np.allclose(law.cdf(ws), qs, atol=1e-10)


def test_weibull_density_value():
    # shape 2, scale 1 at t = 1: 2 * exp(-1)
    law = SojournDistribution.weibull(2.0, 1.0)
    assert law.pdf(1.0) == pytest.approx(2.0 * np.exp(-1.0), abs=1e-12)


def test_weibull_shape_below_one_blows_up_at_origin():
    law = SojournDistribution.weibull(0.5, 1.0)
    assert np.isinf(law.pdf(0.0))


def test_sampling_matches_cdf():
    # the kernel's one sojourn draw, on a state that renews itself
    rng = np.random.default_rng(1)
    law = SojournDistribution.gamma(2.5, 0.8)
    kern = SemiMarkovKernel([[1.0]], [[law]])
    u = rng.random(200000)
    _, draws = kern.sample_sojourns(np.zeros(u.size, dtype=np.int64), 0.0, u, u)
    for q in (0.25, 0.5, 0.9):
        edge = law.ppf(q)
        freq = (draws <= edge).mean()
        assert freq == pytest.approx(q, abs=4 * np.sqrt(q * (1 - q) / draws.size))


def test_mean_matches_quadrature():
    for law in ALL_FAMILIES:
        upper = law.ppf(1.0 - 1e-12)
        num, _ = quad(lambda t: 1.0 - law.cdf(t), 0.0, upper, limit=200)
        assert law.mean() == pytest.approx(num, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    rate=st.floats(0.05, 20.0),
    t=st.floats(0.0, 10.0),
)
def test_exponential_cdf_closed_form(rate, t):
    law = SojournDistribution.exponential(rate)
    assert law.cdf(t) == pytest.approx(1.0 - np.exp(-rate * t), abs=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        SojournDistribution.exponential(0.0)
    with pytest.raises(ValueError):
        SojournDistribution.weibull(-1.0, 1.0)
    with pytest.raises(ValueError):
        SojournDistribution.uniform(1.0, 0.5)
    with pytest.raises(ValueError):
        SojournDistribution("pareto", (1.0,))


def test_round_trip_dict():
    for law in ALL_FAMILIES:
        again = SojournDistribution.from_dict(law.to_dict())
        assert again == law


def test_partial_mean_matches_quadrature():
    for law in ALL_FAMILIES:
        for t in (0.3, 1.1, 2.5):
            num, _ = quad(lambda w: w * law.pdf(w), 0.0, t, limit=200)
            assert law.partial_mean(t) == pytest.approx(num, rel=1e-8, abs=1e-12)
    assert ALL_FAMILIES[0].partial_mean(0.0) == 0.0
