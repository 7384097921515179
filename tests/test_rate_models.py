import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats
from scipy.integrate import quad

from smrates import (
    CIRParams,
    HullWhiteParams,
    PiecewiseLinear,
    RegimeRateModel,
    RngStream,
    VasicekParams,
    cir_joint_laplace,
    cir_laplace_rate,
)
from smrates.errors import NumericsError
from smrates.moment_engine import _law_nodes_weights
from smrates.rate_models import (
    _bessel_series,
    cir_discounted_transition_constants,
    cir_exact_step,
    cir_transition_constants,
    gauss_hermite_rule,
    gauss_jacobi_rule,
    gaussian_quadrature_batch,
    ncx2_pdf,
    ncx2_rule_batch,
)

VAS = dict(a=1.0, b=0.05, sigma=0.02)
CIRP = CIRParams(0.04, 1.0, 0.1)


@pytest.fixture(scope="module")
def vas():
    return RegimeRateModel.vasicek([VAS])


@pytest.fixture(scope="module")
def cir():
    return RegimeRateModel.cir([CIRP])


@pytest.fixture(scope="module")
def hw_const():
    # constant-coefficient tables reproducing the Vasicek fixture
    return RegimeRateModel.hull_white([
        HullWhiteParams.from_constants(VAS["a"] * VAS["b"], VAS["a"], VAS["sigma"])
    ])


# ---------------------------------------------------------------------------
# parameters and tables
# ---------------------------------------------------------------------------

def test_param_validation():
    with pytest.raises(ValueError):
        VasicekParams(0.0, 0.05, 0.02)
    with pytest.raises(ValueError):
        VasicekParams(1.0, 0.05, -0.1)
    with pytest.raises(ValueError):
        CIRParams(-0.1, 1.0, 0.1)
    for bad in (np.nan, np.inf, -np.inf):
        for params in (VasicekParams, CIRParams):
            with pytest.raises(ValueError, match="must be finite"):
                params(1.0, bad, 0.02)
        with pytest.raises(ValueError, match="must be finite"):
            PiecewiseLinear([0.0, 1.0], [0.5, bad])
        with pytest.raises(ValueError, match="must be finite"):
            PiecewiseLinear([0.0, bad], [0.5, 0.5])
    with pytest.warns(UserWarning):
        CIRParams(0.01, 1.0, 0.5)   # attainable origin


def test_piecewise_linear_antiderivative():
    tab = PiecewiseLinear([0.0, 1.0, 3.0], [0.5, 1.5, 0.0])
    for t in (0.0, 0.4, 1.0, 2.2, 3.0, 4.5):
        num, _ = quad(tab, 0.0, t, points=[1.0, 3.0] if t > 1 else None)
        assert tab.antiderivative(t) == pytest.approx(num, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# transition law
# ---------------------------------------------------------------------------

def test_vasicek_mean_examples(vas):
    assert vas.mean(0, 0.03, 0.0) == pytest.approx(0.03, abs=1e-15)
    assert vas.mean(0, 0.03, 80.0) == pytest.approx(0.05, abs=1e-12)
    # frozen closed form b + (r0-b) e^{-a}
    assert vas.mean(0, 0.03, 1.0) == pytest.approx(0.04264241117657115, abs=1e-15)


def test_variance_examples(vas, cir):
    assert vas.variance(0, 0.03, 0.0) == 0.0
    assert cir.variance(0, 0.03, 0.0) == 0.0
    # sigma^2 / (2a) in the long run
    assert vas.variance(0, 0.03, 60.0) == pytest.approx(2.0e-4, abs=1e-12)


def test_cir_moments_vs_laplace_derivatives(cir):
    # first two moments from central differences of the Laplace transform
    t, r0 = 0.7, 0.03
    eps = 2e-3
    f = [cir_laplace_rate(CIRP, k * eps, t, r0) for k in range(5)]
    mean_fd = -(-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * eps)
    second_fd = (35 * f[0] - 104 * f[1] + 114 * f[2] - 56 * f[3] + 11 * f[4]) / (12 * eps**2)
    assert cir.mean(0, r0, t) == pytest.approx(mean_fd, rel=1e-6)
    assert cir.variance(0, r0, t) == pytest.approx(second_fd - mean_fd**2, rel=1e-3)


def test_hull_white_constant_reduces_to_vasicek(vas, hw_const):
    ts = np.array([0.25, 0.9, 1.7, 2.4])
    for op in ("mean", "variance", "integrated_mean", "integrated_variance",
               "integrated_rate_cov"):
        v = np.atleast_1d(getattr(vas, op)(0, 0.03, ts))
        h = np.atleast_1d(getattr(hw_const, op)(0, 0.03, ts))
        assert np.abs(v - h).max() < 1e-10, op
    for s in ts:
        assert vas.bond_laplace(0, 0.03, 2, s) == pytest.approx(
            hw_const.bond_laplace(0, 0.03, 2, s), abs=1e-10)
        assert vas.product_mean(0, 0.03, s, 0.4) == pytest.approx(
            hw_const.product_mean(0, 0.03, s, 0.4), abs=1e-10)
        assert vas.mean_decay(0, s, 0.4) == pytest.approx(
            hw_const.mean_decay(0, s, 0.4), abs=1e-10)


class _CountingTable(PiecewiseLinear):
    """A coefficient table that counts the points it is evaluated at."""

    points = 0

    def __call__(self, t):
        self.points += np.size(t)
        return super().__call__(t)


def test_step_integrals_integrate_each_distinct_pair_once():
    # a Monte Carlo step asks for the same (regime-local time, step) pair
    # on every path that has not jumped; those queries cost one pair's
    # integrals, not one each
    knots = [0.3, 0.7, 1.1]
    alpha = _CountingTable([0.0] + knots, [0.02, 0.05, 0.03, 0.04])
    p = HullWhiteParams(alpha, PiecewiseLinear([0.0, 0.7], [1.2, 0.6]),
                        PiecewiseLinear([0.0, 1.1], [0.015, 0.025]))
    out = p.step_integrals(np.full(10**5, 0.2), 1.3)
    assert alpha.points <= (len(knots) + 1) * 24   # 24-point Gauss-Legendre panels
    for sums, one in zip(out, p.step_integrals(0.2, 1.3), strict=True):
        assert sums.shape == (10**5,)
        assert np.all(sums == one)
    # mixed and repeated pairs give each pair's own bits
    t0 = np.array([[1.5, 0.2], [0.9, 1.5], [0.0, 0.2]])
    dt = np.array([[0.4, 1.3], [0.05, 0.4], [2.0, 1.3]])
    for row, sums in enumerate(p.step_integrals(t0, dt)):
        assert np.array_equal(sums, [[p.step_integrals(a, b)[row] for a, b in zip(ta, da)]
                                     for ta, da in zip(t0, dt)])


@pytest.mark.parametrize("dt", [1e-12, 1e-9, 1e-6])
def test_hull_white_short_step_sd_is_exact_to_rounding(dt):
    # a step inside one knot panel integrates over dt itself, not over
    # (t0 + dt) - t0, which rounds dt's low bits away
    hw = RegimeRateModel.hull_white([HullWhiteParams.from_constants(0.02, 1.0, 0.015)])
    vas = RegimeRateModel.vasicek([dict(a=1.0, b=0.02, sigma=0.015)])
    sd = hw._gaussian_law(0, 0.03, dt, 2.0, False)[1]
    exact = vas._gaussian_law(0, 0.03, dt, 2.0, False)[1]
    assert abs(sd / exact - 1.0) <= 1e-14


def _oracle_gl_cumulative(fn, knots, t):
    """int_0^t fn(u) du for each t: the nested panel-wise Gauss-Legendre
    that integrated the Hull-White laws from 0 before ``step_integrals``
    did, kept as the reference."""
    def panels(lo, width):
        x, w = gauss_jacobi_rule(24, 0.0)
        nodes = lo[:, None] + width[:, None] * (0.5 * (x + 1.0))[None, :]
        return (fn(nodes) * (0.5 * w)[None, :]).sum(axis=1) * width

    t_arr = np.asarray(t, dtype=float)
    flat, back = np.unique(np.ravel(t_arr), return_inverse=True)
    knots = np.unique(np.asarray(knots, dtype=float))
    knots = np.concatenate([[0.0], knots[(knots > 0.0) & (knots < flat.max())]])
    cum = np.concatenate([[0.0], np.cumsum(panels(knots[:-1], np.diff(knots)))])
    last = np.maximum(np.searchsorted(knots, flat) - 1, 0)
    return (cum[last] + panels(knots[last], flat - knots[last]))[back].reshape(t_arr.shape)


def _oracle_hull_white_laws(p, r0, t):
    """(mean, variance, integrated mean, integrated rate covariance,
    integrated variance) from 0, each a nested ``_oracle_gl_cumulative``."""
    def cum(fn):
        return _oracle_gl_cumulative(fn, p.knots, t)

    def drift(u):
        return _oracle_gl_cumulative(lambda v: np.exp(p.k(v)) * p.alpha(v), p.knots, u)

    def noise(u):
        return _oracle_gl_cumulative(lambda v: np.exp(2.0 * p.k(v)) * p.sigma(v) ** 2,
                                     p.knots, u)

    def disc(u):
        return _oracle_gl_cumulative(lambda v: np.exp(-p.k(v)), p.knots, u)

    d = disc(t)
    a0, a1, a2 = (cum(lambda u, n=n: np.exp(2.0 * p.k(u)) * p.sigma(u) ** 2 * disc(u) ** n)
                  for n in range(3))
    return (np.exp(-p.k(t)) * (r0 + drift(t)), np.exp(-2.0 * p.k(t)) * noise(t),
            r0 * d + cum(lambda u: np.exp(-p.k(u)) * drift(u)),
            np.exp(-p.k(t)) * cum(lambda u: np.exp(-p.k(u)) * noise(u)),
            d * d * a0 - 2.0 * d * a1 + a2)


def test_hull_white_laws_match_the_nested_quadrature():
    # every from-0 law is a composition of one step_integrals(0, s) call;
    # the nested cumulative quadrature it replaced is the oracle
    p = HullWhiteParams(PiecewiseLinear([0.0, 0.7, 1.5], [0.02, 0.05, 0.03]),
                        PiecewiseLinear([0.0, 1.5, 2.2], [1.2, 0.6, 0.9]),
                        PiecewiseLinear([0.0, 0.7, 2.2], [0.015, 0.025, 0.02]))
    hw = RegimeRateModel.hull_white([p])
    t = np.union1d(np.linspace(0.0, 3.0, 501), p.knots)
    r0 = 0.03
    oracle = _oracle_hull_white_laws(p, r0, t)
    ops = ("mean", "variance", "integrated_mean", "integrated_rate_cov", "integrated_variance")
    for op, ref in zip(ops, oracle, strict=True):
        got = getattr(hw, op)(0, r0, t)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), op
    for n in (1, 2):
        ref = np.exp(-n * oracle[2] + 0.5 * n * n * oracle[4])
        got = hw.bond_laplace(0, r0, n, t)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), n


def test_hull_white_tabled_against_quadrature():
    # genuinely time-varying tables: oracle by direct numerical integration
    p = HullWhiteParams(
        PiecewiseLinear([0.0, 1.0, 2.0], [0.02, 0.05, 0.03]),
        PiecewiseLinear([0.0, 2.0], [1.2, 0.6]),
        PiecewiseLinear([0.0, 1.5, 2.0], [0.015, 0.025, 0.02]),
    )
    hw = RegimeRateModel.hull_white([p])
    t, r0 = 1.3, 0.03

    knots = [0.5, 1.0]

    def k_num(u):
        val, _ = quad(p.beta, 0.0, u, limit=200, points=knots)
        return val

    mean_num = np.exp(-k_num(t)) * (
        r0 + quad(lambda u: np.exp(k_num(u)) * p.alpha(u), 0.0, t, limit=200,
                  points=knots)[0]
    )
    var_num = np.exp(-2 * k_num(t)) * quad(
        lambda u: np.exp(2 * k_num(u)) * p.sigma(u) ** 2, 0.0, t, limit=200,
        points=knots)[0]
    assert hw.mean(0, r0, t) == pytest.approx(mean_num, rel=1e-9)
    assert hw.variance(0, r0, t) == pytest.approx(var_num, rel=1e-9)

    int_mean_num = quad(lambda u: np.exp(-k_num(u)) * (
        r0 + quad(lambda v: np.exp(k_num(v)) * p.alpha(v), 0.0, u, limit=100)[0]
    ), 0.0, t, limit=100)[0]
    assert hw.integrated_mean(0, r0, t) == pytest.approx(int_mean_num, rel=1e-8)

    disc_t = quad(lambda u: np.exp(-k_num(u)), 0.0, t, limit=200)[0]
    int_var_num = quad(
        lambda u: np.exp(2 * k_num(u)) * p.sigma(u) ** 2
        * (disc_t - quad(lambda v: np.exp(-k_num(v)), 0.0, u, limit=100)[0]) ** 2,
        0.0, t, limit=100)[0]
    assert hw.integrated_variance(0, r0, t) == pytest.approx(int_var_num, rel=1e-7)


# ---------------------------------------------------------------------------
# integrated rate and the discount block
# ---------------------------------------------------------------------------

def test_integrated_moments_examples(vas):
    assert vas.integrated_mean(0, 0.03, 0.0) == 0.0
    assert vas.integrated_variance(0, 0.03, 0.0) == 0.0
    # frozen: b s + (r0 - b)(1 - e^{-2})/a at s = 2
    assert vas.integrated_mean(0, 0.03, 2.0) == pytest.approx(
        0.08270670566473226, abs=1e-15)
    num, _ = quad(lambda u: vas.mean(0, 0.03, u), 0.0, 2.0, limit=200)
    assert vas.integrated_mean(0, 0.03, 2.0) == pytest.approx(num, abs=1e-10)


def test_integrated_variance_vs_covariance_quadrature(vas):
    # Var[int_0^s r] = 2 int_0^s int_0^u Cov(r(u), r(v)) dv du with the
    # exponential-decay covariance of the mean-reverting Gaussian law
    a, sig, s = VAS["a"], VAS["sigma"], 1.4

    def cov(u, v):
        lo, hi = min(u, v), max(u, v)
        return np.exp(-a * (hi - lo)) * sig**2 / (2 * a) * (1 - np.exp(-2 * a * lo))

    inner = quad(lambda u: quad(lambda v: cov(u, v), 0.0, u, limit=100)[0],
                 0.0, s, limit=100)[0]
    assert vas.integrated_variance(0, 0.03, s) == pytest.approx(2 * inner, rel=1e-8)
    assert vas.integrated_rate_cov(0, 0.03, s) == pytest.approx(
        quad(lambda u: cov(u, s), 0.0, s, limit=100)[0], rel=1e-8)


def test_bond_laplace_examples(vas, cir):
    assert vas.bond_laplace(0, 0.03, 1, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert cir.bond_laplace(0, 0.03, 3, 0.0) == pytest.approx(1.0, abs=1e-15)
    # affine-form oracle for the first moment: P = exp(A(s) - B(s) r0)
    a, b, sig, r0, s = VAS["a"], VAS["b"], VAS["sigma"], 0.03, 1.0
    big_b = (1 - np.exp(-a * s)) / a
    big_a = (big_b - s) * (a * a * b - sig**2 / 2) / a**2 - sig**2 * big_b**2 / (4 * a)
    assert vas.bond_laplace(0, r0, 1, s) == pytest.approx(
        np.exp(big_a - big_b * r0), abs=1e-14)
    # order n equals the order-1 transform of the (a, n b, n sigma) model
    # started at n r0: both describe exp(-int of n r)
    scaled = RegimeRateModel.vasicek([{"a": a, "b": 3 * b, "sigma": 3 * sig}])
    assert vas.bond_laplace(0, r0, 3, s) == pytest.approx(
        scaled.bond_laplace(0, 3 * r0, 1, s), rel=1e-12)


def test_gaussian_bond_consistency(vas):
    # definitional identity between the Laplace transform and the
    # integrated-rate normal moments
    for n in (1, 2, 3):
        for s in (0.5, 1.7):
            expected = np.exp(-n * vas.integrated_mean(0, 0.03, s)
                              + 0.5 * n * n * vas.integrated_variance(0, 0.03, s))
            assert vas.bond_laplace(0, 0.03, n, s) == pytest.approx(expected, abs=1e-12)


def test_cir_bond_closed_form(cir):
    # independent transcription of the chi-square closed form; the
    # moment order multiplies the start-rate exponent (it comes from the
    # joint transform at mu = n, so the n = 1 case is the familiar bond)
    a, b, sig = CIRP.a, CIRP.b, CIRP.sigma
    for n in (1, 2):
        for t in (0.5, 2.0):
            g = np.sqrt(b * b + 2 * sig * sig * n)
            den = g - b + np.exp(g * t) * (g + b)
            closed = (2 * g * np.exp(t * (g + b) / 2) / den) ** (2 * a / sig**2) \
                * np.exp(-0.03 * 2 * n * (np.exp(g * t) - 1) / den)
            assert cir.bond_laplace(0, 0.03, n, t) == pytest.approx(closed, rel=1e-12)


def test_cir_bond_deterministic_limit():
    # sigma -> 0: the transform collapses to exp(-n int of the drift flow)
    det = RegimeRateModel.cir([CIRParams(0.04, 1.0, 0.0)])
    a, b, s, r0 = 0.04, 1.0, 1.5, 0.03
    flow_integral = (a / b) * s + (r0 - a / b) * (1 - np.exp(-b * s)) / b
    for n in (1, 2):
        assert det.bond_laplace(0, r0, n, s) == pytest.approx(
            np.exp(-n * flow_integral), rel=1e-12)
    small = RegimeRateModel.cir([CIRParams(0.04, 1.0, 1e-3)])
    assert small.bond_laplace(0, r0, 1, s) == pytest.approx(
        np.exp(-flow_integral), rel=1e-6)


def test_cir_integrated_moments_unsupported(cir):
    with pytest.raises(NotImplementedError):
        cir.integrated_mean(0, 0.03, 1.0)
    with pytest.raises(NotImplementedError):
        cir.integrated_variance(0, 0.03, 1.0)


# ---------------------------------------------------------------------------
# joint Laplace transform (CIR)
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.0, 0.2),
    b=st.floats(-0.5, 2.0),
    sig=st.floats(0.02, 0.3),
    t=st.floats(0.0, 4.0),
    r0=st.floats(0.0, 0.2),
)
def test_cir_joint_laplace_identity(a, b, sig, t, r0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = CIRParams(a, b, sig)
    # sqrt(b*b) can miss b by an ulp, and 2/sigma^2 amplifies that, so
    # "equals one" means one at rounding amplified by the worst factor
    assert cir_joint_laplace(params, 0.0, 0.0, t, r0) == pytest.approx(1.0, abs=1e-10)
    val = cir_joint_laplace(params, 0.7, 1.3, t, r0)
    assert 0.0 < val <= 1.0 + 1e-9


def test_cir_joint_laplace_edge_cases():
    # gamma = 0 branch: b = 0 and mu = 0 against the squared-Bessel form
    params = CIRParams(0.04, 0.0, 0.1)
    lam, t, r0 = 1.5, 0.8, 0.03
    z = 1.0 + 0.5 * params.sigma**2 * lam * t
    expected = z ** (-2 * params.a / params.sigma**2) * np.exp(-r0 * lam / z)
    assert cir_laplace_rate(params, lam, t, r0) == pytest.approx(expected, rel=1e-12)
    # marginal Laplace transform printed form (b != 0)
    lam, t = 1.0, 0.5
    den = CIRP.sigma**2 * lam * (1 - np.exp(-CIRP.b * t)) + 2 * CIRP.b
    marg = (2 * CIRP.b / den) ** (2 * CIRP.a / CIRP.sigma**2) \
        * np.exp(-0.03 * 2 * lam * CIRP.b * np.exp(-CIRP.b * t) / den)
    assert cir_laplace_rate(CIRP, lam, t, 0.03) == pytest.approx(marg, rel=1e-12)


def test_cir_bond_is_joint_laplace_bitwise(cir):
    for n in (1, 2, 3):
        for t in (0.3, 1.0, 2.5):
            assert cir.bond_laplace(0, 0.03, n, t) == cir_joint_laplace(
                CIRP, 0.0, float(n), t, 0.03)


def test_cir_laplace_derivative_matches_mean(cir):
    for t in (0.25, 0.5, 1.5):
        eps = 1e-6
        fd = (cir_laplace_rate(CIRP, eps, t, 0.03)
              - cir_laplace_rate(CIRP, 0.0, t, 0.03)) / eps
        # one-sided difference carries O(eps) curvature; correct it
        fd2 = (cir_laplace_rate(CIRP, 2 * eps, t, 0.03)
               - 2 * cir_laplace_rate(CIRP, eps, t, 0.03) + 1.0) / eps**2
        assert -(fd - 0.5 * eps * fd2) == pytest.approx(
            cir.mean(0, 0.03, t), rel=1e-5)


# ---------------------------------------------------------------------------
# product moment
# ---------------------------------------------------------------------------

def test_product_mean_trivials(vas, cir):
    for model in (vas, cir):
        second = model.mean(0, 0.03, 1.0) ** 2 + model.variance(0, 0.03, 1.0)
        assert model.product_mean(0, 0.03, 1.0, 0.0) == pytest.approx(second, rel=1e-12)
        assert model.product_mean(0, 0.03, 0.0, 0.7) == pytest.approx(
            0.03 * model.mean(0, 0.03, 0.7), rel=1e-12)


def test_product_mean_vs_gaussian_quadrature(vas):
    # oracle: E[r(s) r(s+h)] = E[r(s) * E[r(s+h) | r(s)]] with the outer
    # expectation taken by high-order Gauss-Hermite
    s, h, r0 = 1.0, 0.5, 0.03
    g, w = np.polynomial.hermite.hermgauss(80)
    g = g * np.sqrt(2.0)
    w = w / np.sqrt(np.pi)
    r_s = vas.mean(0, r0, s) + np.sqrt(vas.variance(0, r0, s)) * g
    inner = vas.mean(0, r_s, h)
    assert vas.product_mean(0, r0, s, h) == pytest.approx(
        float(w @ (r_s * inner)), rel=1e-12)


def test_product_mean_vs_mc_two_point(vas):
    rng = RngStream(99).generator()
    s, h, r0, n = 1.0, 0.5, 0.03, 400000
    r_s = vas.mean(0, r0, s) + np.sqrt(vas.variance(0, r0, s)) * rng.standard_normal(n)
    r_sh = vas.mean(0, r_s, h) + np.sqrt(vas.variance(0, r_s[0], h)) * rng.standard_normal(n)
    prod = r_s * r_sh
    se = prod.std(ddof=1) / np.sqrt(n)
    assert abs(prod.mean() - vas.product_mean(0, r0, s, h)) < 3 * se


# ---------------------------------------------------------------------------
# quadrature of the transition law
# ---------------------------------------------------------------------------

def _rule_moments(nodes, weights):
    mean = float(weights @ nodes)
    return mean, float(weights @ (nodes - mean) ** 2)


@pytest.mark.parametrize("rule, args, mass", [(gauss_hermite_rule, (24,), 1.0),
                                              (gauss_jacobi_rule, (24, 0.0), 2.0)],
                         ids=["gauss_hermite_rule-1.0", "gauss_jacobi_rule-2.0"])
def test_cached_rules_are_read_only(rule, args, mass):
    g, w = rule(*args)
    assert rule(*args)[0] is g and rule(*args)[1] is w
    assert not g.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        g[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
    assert g.sum() == pytest.approx(0.0, abs=1e-12)
    assert w.sum() == pytest.approx(mass, abs=1e-14)


@pytest.mark.parametrize("beta", [-0.92, -0.5, 0.5, 1.0, 1.9])
def test_gauss_jacobi_rule_integrates_the_origin_power(beta):
    # beta = 0 is leggauss bit for bit; otherwise the folded weights
    # integrate (1 + x)^beta times any polynomial of degree below 2 order
    legendre = np.polynomial.legendre.leggauss(24)
    assert all(np.array_equal(a, b) for a, b in zip(gauss_jacobi_rule(24, 0.0), legendre))
    x, w = gauss_jacobi_rule(24, beta)
    assert not x.flags.writeable and not w.flags.writeable
    for k in range(48):
        exact = 2.0 ** (beta + k + 1) / (beta + k + 1)
        assert w @ (1.0 + x) ** (beta + k) == pytest.approx(exact, rel=1e-12)


def test_gaussian_quadrature_batch_returns_fresh_arrays():
    means, stds = np.array([0.01, 0.02, 0.03]), np.array([0.01, 0.0, 0.02])
    nodes, weights = gaussian_quadrature_batch(means, stds, 8)
    assert nodes.flags.writeable and weights.flags.writeable
    ref_nodes, ref_weights = nodes.copy(), weights.copy()
    nodes[...] = 7.0
    weights[...] = 7.0
    again = gaussian_quadrature_batch(means, stds, 8)
    assert np.array_equal(again[0], ref_nodes)
    assert np.array_equal(again[1], ref_weights)


def test_quadrature_gaussian(vas):
    nodes, weights = _law_nodes_weights(vas, 0, 0.03, 0.7, 24)
    mean, var = _rule_moments(nodes[0], weights[0])
    assert abs(weights.sum() - 1.0) < 1e-12
    assert abs(mean - vas.mean(0, 0.03, 0.7)) <= 1e-10 * (1 + abs(mean))
    assert abs(var - vas.variance(0, 0.03, 0.7)) < 1e-8
    nodes, weights = _law_nodes_weights(vas, 0, 0.03, 0.7, 1)
    assert nodes[0, 0] == pytest.approx(vas.mean(0, 0.03, 0.7))
    assert weights[0, 0] == 1.0


def test_quadrature_cir(cir):
    nodes, weights = _law_nodes_weights(cir, 0, 0.03, 0.5, 40)
    mean, var = _rule_moments(nodes[0], weights[0])
    assert abs(mean - cir.mean(0, 0.03, 0.5)) < 1e-4
    assert abs(var - cir.variance(0, 0.03, 0.5)) < 1e-4
    assert abs(weights[0] @ np.exp(-nodes[0]) - cir_laplace_rate(CIRP, 1.0, 0.5, 0.03)) < 1e-4


@pytest.mark.parametrize("a_b_sigma", [(0.04, 1.0, 0.1), (0.002, 1.0, 0.1), (0.04, 1.0, 0.0)],
                         ids=["feller", "attainable_origin", "noise_free"])
@pytest.mark.parametrize("tilt", [0, 1, 2])
def test_aged_cir_rules_match_scalar_time_calls(a_b_sigma, tilt):
    # the aged pass builds all elapsed times at once; one scalar-time
    # call per time is the oracle, bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = RegimeRateModel.cir([CIRParams(*a_b_sigma)])
    ts = np.arange(1, 41) * 0.025
    nodes, weights = _law_nodes_weights(model, 0, 0.03, ts, 24, tilt=tilt)
    rules = [_law_nodes_weights(model, 0, 0.03, t, 24, tilt=tilt) for t in ts]
    assert np.array_equal(nodes, np.concatenate([nd for nd, _ in rules]))
    assert np.array_equal(weights, np.concatenate([wt for _, wt in rules]))


# ---------------------------------------------------------------------------
# noncentral chi-square density and quantiles (scipy.stats is the oracle)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("df", [2.0, 3.7, 16.0, 60.0])
@pytest.mark.parametrize("nc", [0.0, 1e-3, 1.0, 50.0, 6000.0])
def test_ncx2_pdf_matches_scipy_stats(df, nc):
    mean, std = df + nc, np.sqrt(2.0 * df + 4.0 * nc)
    # both tails: geometric towards the origin, linear out to 20 std
    x = np.concatenate([np.geomspace(1e-8, mean, 300),
                        np.linspace(max(mean - 12.0 * std, 1e-9), mean + 20.0 * std, 3000)])
    ref = sp_stats.ncx2.pdf(x, df, nc)
    got = ncx2_pdf(x, df, nc)
    seen = ref > 1e-30
    assert seen.sum() > 1000
    assert np.max(np.abs(got[seen] / ref[seen] - 1.0)) <= 1e-12
    assert np.all(got[~seen] < 1e-29)


def test_ncx2_pdf_broadcasts_rows_with_zero_noncentrality():
    x = np.array([[0.0, 0.5, 3.0], [0.0, 0.5, 3.0]])
    nc = np.array([[0.0], [2.0]])
    for df in (2.0, 5.0):
        got = ncx2_pdf(x, df, nc)
        assert np.array_equal(got[0], sp_stats.chi2.pdf(x[0], df))
        # scipy.stats puts the origin outside the noncentral support
        assert np.allclose(got[1, 1:], sp_stats.ncx2.pdf(x[1, 1:], df, 2.0), rtol=1e-13, atol=0.0)
    # at the origin the density is 0.5 exp(-nc/2) for df = 2 and 0 above
    assert ncx2_pdf(0.0, 2.0, 2.0) == pytest.approx(0.5 * np.exp(-1.0), rel=1e-15)
    assert ncx2_pdf(0.0, 5.0, 2.0) == 0.0


def _mp_ncx2_pdf(x, df, nc):
    """The noncentral chi-square density at 40 digits."""
    with mpmath.workdps(40):
        x, df, nc = mpmath.mpf(x), mpmath.mpf(df), mpmath.mpf(nc)
        nu = df / 2 - 1
        if nc == 0:
            return float(mpmath.exp(nu * mpmath.log(x) - x / 2 - mpmath.loggamma(df / 2)
                                    - df / 2 * mpmath.log(2)))
        return float(mpmath.exp(-(x + nc) / 2) * (x / nc) ** (nu / 2)
                     * mpmath.besseli(nu, mpmath.sqrt(nc * x)) / 2)


@pytest.mark.parametrize("df", [2.0, 2.3, 4.0, 16.0, 24.0, 50.0, 100.0, 200.0])
def test_ncx2_pdf_matches_mpmath(df):
    # z = sqrt(nc x) on both sides of the power-series and Hankel switch
    # points and inside the scipy.special.ive range between them
    _, z_power, _, z_hankel = _bessel_series(0.5 * df - 1.0)
    zs = [0.1, 2.0, 0.999 * z_power, 1.001 * z_power, 0.999 * z_hankel, 1.001 * z_hankel,
          2.0 * z_hankel + 5.0]
    if z_hankel > z_power:
        zs.append(np.sqrt(z_power * z_hankel))
    x, nc = [], []
    for z in zs:
        near_mean = z * z / (df + z)    # x = z^2 / nc near the mean df + nc
        for c in (z / 3.0, z, 3.0 * z, near_mean):
            x.append(z * z / c)
            nc.append(c)
    x, nc = np.array(x + [0.5, 0.5 * df, df, 2.0 * df + 10.0]), np.array(nc + [0.0] * 4)
    got = ncx2_pdf(x, df, nc)
    ref = np.array([_mp_ncx2_pdf(a, df, b) for a, b in zip(x, nc)])
    seen = ref > 1e-280
    assert seen.sum() >= 0.75 * ref.size
    assert np.max(np.abs(got[seen] / ref[seen] - 1.0)) <= 1e-12
    assert np.all(got[~seen] <= 1e-279)


@pytest.mark.filterwarnings("error")
def test_ncx2_pdf_limits_of_the_closed_form():
    x = np.linspace(5.0, 120.0, 50)
    # a noncentrality too small to change any digit: the central density,
    # also where the closed form would overflow (subnormal nc)
    for nc in (1e-300, 5e-324, 1e-18):
        assert np.array_equal(ncx2_pdf(x, 60.0, nc), sp_stats.chi2.pdf(x, 60.0))
    # large df with small nc, where ive(nu, sqrt(nc x)) underflows: the
    # power series is exact (the mpmath value)
    assert ncx2_pdf(100.0, 100.0, 1e-12) == pytest.approx(0.02816250316259541, rel=1e-13)
    # a non-finite row is refused
    with pytest.raises(NumericsError, match=r"of 1 rows, 1 non-finite and 0 short of "
                                            r"mass \(no finite captured mass\)"):
        ncx2_rule_batch(1.0, 100.0, np.nan, 48)
    # a finite row is reported by its captured mass, next to the lost one
    with pytest.raises(NumericsError, match=r"of 2 rows, 1 non-finite and 1 short of "
                                            r"mass \(min finite captured 0\.008767\)"):
        ncx2_rule_batch(1.0, 100.0, [np.nan, 5.0], 2)


# df from 0.16 (nu = -0.92) through the Jacobi-Legendre switch at df = 6
# to 200, against noncentralities from 0 to 1e5
_SCAN_DF = np.unique(np.concatenate([np.geomspace(0.16, 200.0, 61), [2.0, 5.99, 6.0, 16.0]]))
_SCAN_NC = np.concatenate([[0.0], 10.0 ** np.arange(-3.0, 6.0)])


def test_ncx2_rule_moment_scan():
    # one rule for every df: below df = 6 (Gauss-Jacobi at the origin)
    # mass, mean and variance are exact to 1e-9 relative; above it
    # Gauss-Legendre, which leaves the x^(df/2 - 1) factor inexact, and
    # its bracket are 1.1e-7 off at worst over this scan
    worst = {}
    for df in _SCAN_DF:
        scale = np.geomspace(1e-4, 1.0, _SCAN_NC.size)   # one per rule, in rate units
        nodes, weights = ncx2_rule_batch(scale, df, _SCAN_NC, 48)
        mean = (weights * nodes).sum(axis=1)
        var = (weights * (nodes - mean[:, None]) ** 2).sum(axis=1)
        worst[df] = max(np.abs(weights.sum(axis=1) - 1.0).max(),
                        np.abs(mean / (scale * (df + _SCAN_NC)) - 1.0).max(),
                        np.abs(var / (scale**2 * (2.0 * df + 4.0 * _SCAN_NC)) - 1.0).max())
    assert max(err for df, err in worst.items() if df < 6.0) <= 1e-9
    assert max(err for df, err in worst.items() if df >= 6.0) <= 1e-6


def test_ncx2_rule_refuses_a_law_with_an_atom():
    with pytest.raises(NumericsError, match="df > 0"):
        ncx2_rule_batch(1.0, 0.0, 0.5, 48)


def test_subnormal_mean_reversion_gives_the_zero_reversion_rule():
    # the scale sigma^2 (1 - e^{-b t}) / (4b) must not underflow to 0
    # for a subnormal b: the law is the b = 0 one to double precision
    tiny, flat = CIRParams(0.03125, 5e-324, 0.25), CIRParams(0.03125, 0.0, 0.25)
    assert cir_transition_constants(tiny, 1.0) == cir_transition_constants(flat, 1.0)
    r0 = np.array([0.0, 0.01, 0.05])
    for tilt in (0, 1):
        rule = _law_nodes_weights(RegimeRateModel.cir([tiny]), 0, r0, 1.0, 48, tilt=tilt)
        flat_rule = _law_nodes_weights(RegimeRateModel.cir([flat]), 0, r0, 1.0, 48, tilt=tilt)
        assert np.array_equal(rule[0], flat_rule[0]) and np.array_equal(rule[1], flat_rule[1])


@settings(max_examples=40, deadline=None)
@given(
    feller=st.floats(0.04, 12.0),
    sig=st.floats(0.02, 0.3),
    b=st.floats(-0.5, 2.0),
    t=st.floats(0.01, 3.0),
    r0=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
    tilt=st.sampled_from([0, 1, 2]),
)
def test_ncx2_rule_batch_reproduces_chi_square_moments(feller, sig, b, t, r0, tilt):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # attainable origin
        params = CIRParams(0.5 * feller * sig * sig, b, sig)
    if tilt:
        c, df, coef = cir_discounted_transition_constants(params, float(tilt), t)
        nc = r0 * coef
    else:
        c, df, decay = cir_transition_constants(params, t)
        nc = r0 * decay / c
    nodes, weights = ncx2_rule_batch(c, df, nc, 48)
    assert abs(weights.sum() - 1.0) <= 1e-12
    mean, var = _rule_moments(nodes[0], weights[0])
    # the rule's own error is below 1e-9 for df < 6 and 1.1e-7 above
    # (test_ncx2_rule_moment_scan); df here runs from 0.16 to 48
    assert mean == pytest.approx(c * (df + nc), rel=1e-6)
    assert var == pytest.approx(c * c * (2.0 * df + 4.0 * nc), rel=1e-6)


# ---------------------------------------------------------------------------
# exact step
# ---------------------------------------------------------------------------

def test_step_deterministic_when_noise_free():
    det_v = RegimeRateModel.vasicek([{"a": 1.0, "b": 0.05, "sigma": 0.0}])
    det_c = RegimeRateModel.cir([CIRParams(0.04, 1.0, 0.0)])
    rng = RngStream(1).generator()
    assert det_v.step(0, 0.03, 0.5, rng) == pytest.approx(det_v.mean(0, 0.03, 0.5), abs=1e-15)
    assert det_c.step(0, 0.03, 0.5, rng) == pytest.approx(det_c.mean(0, 0.03, 0.5), abs=1e-15)


def test_step_moments(vas, cir):
    n = 200000
    for model in (vas, cir):
        rng = RngStream(7).generator()
        draws = model.step(0, np.full(n, 0.03), 0.6, rng)
        m_exp = model.mean(0, 0.03, 0.6)
        v_exp = model.variance(0, 0.03, 0.6)
        se_m = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - m_exp) < 3 * se_m
        se_v = np.sqrt(np.var((draws - m_exp) ** 2) / n)
        assert abs(draws.var() - v_exp) < 4 * se_v
        assert np.all(np.isfinite(draws))
    # CIR draws never go negative
    rng = RngStream(8).generator()
    assert cir.step(0, np.full(1000, 1e-4), 0.01, rng).min() >= 0.0


def test_step_composition_ks(vas, cir):
    # half-step composition has the same law as one full step
    n, dt = 30000, 0.4
    for model, seed in ((vas, 21), (cir, 22)):
        rng = RngStream(seed).generator()
        full = model.step(0, np.full(n, 0.03), dt, rng)
        half = model.step(0, model.step(0, np.full(n, 0.03), dt / 2, rng), dt / 2, rng)
        stat = sp_stats.ks_2samp(full, half)
        assert stat.pvalue > 0.01


# ---------------------------------------------------------------------------
# joint draw of the rate and its integral
# ---------------------------------------------------------------------------

def _hw_tabled():
    return RegimeRateModel.hull_white([HullWhiteParams(
        PiecewiseLinear([0.0, 1.0], [0.03, 0.06]),
        PiecewiseLinear([0.0, 1.0], [1.5, 0.8]),
        PiecewiseLinear([0.0, 1.0], [0.01, 0.03]))])


def _joint(model, r, dt, seed, t0=0.0):
    """One joint step of every entry of r on normals of the seed's stream:
    the rate's, then the integral's."""
    gen = RngStream(seed).generator()
    z = gen.standard_normal(np.shape(r))
    return model.step(0, r, dt, gen, t0=t0, z=z, z_integral=gen.standard_normal(np.shape(r)))


@pytest.mark.parametrize("kind", ["vasicek", "hull_white"])
def test_joint_step_discount_matches_bond_laplace(vas, kind):
    # one step per maturity from the regime clock's 0: at 10^6 draws the
    # mean discount exp(-n I) is the closed-form no-switch discount
    model = vas if kind == "vasicek" else _hw_tabled()
    n = 1_000_000
    for s in (0.5, 1.5):
        _, integral = _joint(model, np.full(n, 0.03), s, seed=int(10 * s))
        for order in (1, 2):
            disc = np.exp(-order * integral)
            se = disc.std(ddof=1) / np.sqrt(n)
            assert abs(disc.mean() - model.bond_laplace(0, 0.03, order, s)) < 3 * se


@pytest.mark.parametrize("kind", ["vasicek", "hull_white"])
def test_joint_step_composition_ks(vas, kind):
    # one joint step of dt against two of dt/2 from t0 > 0 (the
    # Hull-White step crosses its tables' knot at 1): the rate and its
    # integral keep their law
    model = vas if kind == "vasicek" else _hw_tabled()
    n, t0, dt = 100000, 0.3, 0.9
    r0 = np.full(n, 0.03)
    r_full, i_full = _joint(model, r0, dt, 31, t0)
    r_mid, i_first = _joint(model, r0, dt / 2, 32, t0)
    r_half, i_second = _joint(model, r_mid, dt / 2, 33, t0 + dt / 2)
    assert sp_stats.ks_2samp(r_full, r_half).pvalue > 0.01
    assert sp_stats.ks_2samp(i_full, i_first + i_second).pvalue > 0.01


def test_joint_step_keeps_the_rate_draw(vas):
    # the integral's normals change the integral alone
    rng = RngStream(34).generator()
    r, dt, z = np.array([0.03, -0.01, 0.07]), np.array([0.2, 0.0, 1.3]), np.array([0.4, 1.1, -2.0])
    for model in (vas, _hw_tabled()):
        rate, _ = model.step(0, r, dt, rng, t0=0.6, z=z, z_integral=np.array([1.0, -1.0, 0.5]))
        assert np.array_equal(rate, model.step(0, r, dt, rng, t0=0.6, z=z))
    with pytest.raises(ValueError):
        RegimeRateModel.cir([CIRP]).step(0, 0.03, 0.1, rng, z_integral=0.5)


def test_joint_step_of_a_tiny_dt_is_quiet():
    # pyproject turns RuntimeWarning into an error: at dt = 1e-12 the
    # integral's residual variance rounds to zero or below, and a
    # noise-free regime has no rate spread to divide by; the integral is
    # r dt up to the rounding of the closed-form variance
    models = [RegimeRateModel.vasicek([VAS]), _hw_tabled(),
              RegimeRateModel.vasicek([dict(VAS, sigma=0.0)]),
              RegimeRateModel.hull_white([HullWhiteParams.from_constants(0.05, 1.0, 0.0)])]
    r = np.array([0.03, -0.01])
    for model in models:
        rate, integral = model.step(0, r, 1e-12, None, t0=0.4, z=np.array([0.5, -2.0]),
                                    z_integral=np.array([1.0, 3.0]))
        assert np.all(np.isfinite(rate))
        assert np.abs(integral - r * 1e-12).max() < 1e-15


def test_step_broadcasts_regime_step_and_clock():
    # one call moves each entry in its own regime, by its own step, from
    # its own regime-local time; a zero step keeps the rate exactly
    i = np.array([0, 1, 1, 0])
    r = np.array([0.03, 0.05, 0.04, -0.01])
    dt = np.array([0.1, 0.5, 0.0, 0.3])
    t0 = np.array([0.0, 0.2, 0.4, 1.1])
    z = np.array([0.3, -1.2, 0.7, 2.0])
    vas2 = RegimeRateModel.vasicek([VAS, {"a": 0.8, "b": 0.06, "sigma": 0.02}])
    hw2 = RegimeRateModel.hull_white([
        HullWhiteParams.from_constants(0.02, 1.0, 0.015),
        HullWhiteParams(PiecewiseLinear([0.0, 1.0], [0.03, 0.06]),
                        PiecewiseLinear([0.0, 1.0], [1.5, 0.8]),
                        PiecewiseLinear([0.0, 1.0], [0.01, 0.03])),
    ])
    rng = RngStream(3).generator()
    for model in (vas2, hw2):
        out = model.step(i, r, dt, rng, t0=t0, z=z)
        assert out[2] == r[2]
        for k in range(4):
            one = model.step(int(i[k]), r[k], dt[k], rng, t0=t0[k], z=z[k])
            assert out[k] == pytest.approx(one, rel=1e-12, abs=1e-15)
    # CIR draws regime by regime, in index order, only for moving entries
    cir2 = RegimeRateModel.cir([CIRP, CIRParams(0.02, 0.5, 0.1)])
    out = cir2.step(i, np.abs(r), dt, RngStream(4).generator())
    ref = RngStream(4).generator()
    assert out[2] == abs(r[2])
    for k, moving in ((0, [0, 3]), (1, [1])):
        assert np.array_equal(out[moving], cir_exact_step(cir2.params[k], np.abs(r[moving]),
                                                          dt[moving], ref))
    with pytest.raises(ValueError):
        cir2.step(0, 0.03, 0.1, ref, z=0.5)


def test_negative_rates_allowed(vas):
    rng = RngStream(9).generator()
    draws = vas.step(0, np.full(50000, -0.2), 0.05, rng)
    assert draws.mean() < 0  # no flooring anywhere


def test_cir_laplace_vs_exact_draw_mc(cir):
    # one million exact chi-square draws against the closed form
    rng = RngStream(123).generator()
    n = 1000000
    draws = cir.step(0, np.full(n, 0.03), 0.5, rng)
    vals = np.exp(-1.0 * draws)
    se = vals.std(ddof=1) / np.sqrt(n)
    closed = cir_laplace_rate(CIRP, 1.0, 0.5, 0.03)
    assert abs(vals.mean() - closed) < 3 * se


def test_cir_bond_monotone_in_maturity_and_order(cir):
    ss = np.linspace(0.0, 5.0, 26)
    prev = None
    for n in (1, 2, 3):
        vals = np.asarray(cir.bond_laplace(0, 0.03, n, ss))
        assert np.all(np.diff(vals) <= 1e-15)          # nonincreasing in s
        if prev is not None:
            assert np.all(vals <= prev + 1e-15)        # nonincreasing in n
        prev = vals
