import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from smrates import (
    BackwardState,
    CIRParams,
    DegenerateBackwardError,
    GridCoverageError,
    HullWhiteParams,
    LatticeWorkspace,
    PiecewiseLinear,
    RegimeRateModel,
    SemiMarkovKernel,
    SojournDistribution,
    SolverConfig,
    alternating_kernel,
    covariance,
    covariance_surface,
    evaluate_product_moment,
    evaluate_rate_mean,
    evaluate_zcb_moment,
    solve_product_moment,
    solve_rate_mean,
    solve_zcb_moment,
)
from smrates import moment_engine


@pytest.fixture(scope="module")
def solved_single(kern_single, vas_single, cfg_fast):
    ws = LatticeWorkspace(kern_single, vas_single, cfg_fast)
    v1 = solve_zcb_moment(1, kern_single, vas_single, cfg_fast, workspace=ws)
    r = solve_rate_mean(kern_single, vas_single, cfg_fast, workspace=ws)
    xi = solve_product_moment(0.5, kern_single, vas_single, cfg_fast,
                              rate_mean_surface=r, workspace=ws)
    return ws, v1, r, xi


@pytest.fixture(scope="module")
def solved_testbed(kern_testbed, vas_testbed, cfg_fast):
    ws = LatticeWorkspace(kern_testbed, vas_testbed, cfg_fast)
    v1 = solve_zcb_moment(1, kern_testbed, vas_testbed, cfg_fast, workspace=ws)
    v2 = solve_zcb_moment(2, kern_testbed, vas_testbed, cfg_fast, workspace=ws)
    r = solve_rate_mean(kern_testbed, vas_testbed, cfg_fast, workspace=ws)
    xi = solve_product_moment(0.5, kern_testbed, vas_testbed, cfg_fast,
                              rate_mean_surface=r, workspace=ws)
    return ws, v1, v2, r, xi


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(step=-0.01)
    with pytest.raises(ValueError):
        SolverConfig(step=0.03, horizon=1.0)   # not a whole number of steps
    with pytest.raises(ValueError):
        SolverConfig(rate_nodes=1)
    with pytest.raises(ValueError):
        SolverConfig(mc_step=0.0)


def test_initial_conditions(solved_single):
    ws, v1, r, xi = solved_single
    assert np.all(v1.values[:, 0, :] == 1.0)
    assert np.allclose(r.values[:, 0, :], ws.x_nodes, atol=1e-15)
    lag_idx = round(0.5 / ws.config.step)
    assert np.allclose(xi.values[:, 0, :], ws.x_nodes * r.values[:, lag_idx, :],
                       atol=1e-15)


def test_single_regime_zcb_collapse(kern_single, vas_single, cir_single, cfg_fast):
    for model in (vas_single, cir_single):
        ws = LatticeWorkspace(kern_single, model, cfg_fast)
        idx = np.argmin(np.abs(ws.x_nodes - 0.03))
        x0 = ws.x_nodes[idx]
        for n in (1, 2, 3):
            surf = solve_zcb_moment(n, kern_single, model, cfg_fast, workspace=ws)
            closed = np.asarray(model.bond_laplace(0, x0, n, ws.thetas))
            assert np.abs(surf.values[0, :, idx] - closed).max() < 1e-4, (model.kind, n)


@pytest.mark.parametrize("params", [(0.002, 1.0, 0.1), (0.00125, 1.0, 0.05)],
                         ids=["df_0.8", "df_2"])
def test_single_regime_cir_collapse_at_low_df(kern_single, params):
    # Feller-violating (df 0.8) and borderline (df 2) regimes: the
    # chi-square rule must carry the law's mass near the origin, where
    # the density is unbounded or has a cusp
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # attainable origin
        model = RegimeRateModel.cir([CIRParams(*params)])
    cfg = SolverConfig(step=0.02, horizon=1.0, rate_nodes=61, quad_order=24,
                       reference_rate=0.03)
    ws = LatticeWorkspace(kern_single, model, cfg)
    rate = solve_rate_mean(kern_single, model, cfg, workspace=ws)
    zcb = solve_zcb_moment(1, kern_single, model, cfg, workspace=ws)
    core = ws.x_nodes <= 0.6 * ws.x_nodes[-1]   # clear of the clamped upper edge
    x, s = ws.x_nodes[core], ws.thetas[1:, None]
    mean = np.asarray(model.mean(0, x, s))
    bond = np.stack([np.asarray(model.bond_laplace(0, xx, 1, s[:, 0])) for xx in x], axis=1)
    assert np.abs(rate.values[0, 1:, core].T / mean - 1.0).max() <= 1e-4
    assert np.abs(zcb.values[0, 1:, core].T / bond - 1.0).max() <= 1e-4


def test_single_regime_rate_mean_collapse(kern_single, vas_single):
    cfg = SolverConfig(step=0.005, horizon=2.0, rate_nodes=61, reference_rate=0.03)
    ws = LatticeWorkspace(kern_single, vas_single, cfg)
    surf = solve_rate_mean(kern_single, vas_single, cfg, workspace=ws)
    idx = np.argmin(np.abs(ws.x_nodes - 0.03))
    closed = np.asarray(vas_single.mean(0, ws.x_nodes[idx], ws.thetas))
    assert np.abs(surf.values[0, :, idx] - closed).max() < 1e-5


def test_single_regime_product_collapse(solved_single, vas_single):
    ws, _, r, xi = solved_single
    idx = np.argmin(np.abs(ws.x_nodes - 0.03))
    closed = np.asarray(vas_single.product_mean(0, ws.x_nodes[idx], ws.thetas, 0.5))
    assert np.abs(xi.values[0, :, idx] - closed).max() < 1e-4


def _single_regime_model(kind):
    if kind == "vasicek":
        return RegimeRateModel.vasicek([{"a": 1.0, "b": 0.05, "sigma": 0.02}])
    if kind == "cir":
        return RegimeRateModel.cir([CIRParams(0.04, 1.0, 0.1)])
    return RegimeRateModel.hull_white([HullWhiteParams(
        PiecewiseLinear([0.0, 1.0], [0.03, 0.06]), PiecewiseLinear([0.0, 1.0], [1.5, 0.8]),
        PiecewiseLinear([0.0, 1.0], [0.01, 0.025]))])


@pytest.mark.parametrize("kind", ["vasicek", "hull_white", "cir"])
def test_single_regime_rate_moments_are_exact_on_every_row(kind, cfg_fast):
    # no switch before the horizon: the march has no time error, and the
    # rate mean and the product moment at lags 0 and 0.5 are the closed
    # forms on every lattice row, the edge rows included
    model = _single_regime_model(kind)
    kern = SemiMarkovKernel([[1.0]], [[SojournDistribution.uniform(3.0, 4.0)]])
    ws = LatticeWorkspace(kern, model, cfg_fast)
    x, s = ws.x_nodes[None, :], ws.thetas[:, None]
    rate = solve_rate_mean(kern, model, cfg_fast, workspace=ws)
    closed = {"rate mean": np.asarray(model.mean(0, x, s))}
    surfaces = {"rate mean": rate}
    for lag in (0.0, 0.5):
        surfaces[lag] = solve_product_moment(lag, kern, model, cfg_fast, rate, workspace=ws)
        closed[lag] = np.asarray(model.product_mean(0, x, s, lag))
    for label, surface in surfaces.items():
        err = np.abs(surface.values[0] - closed[label]).max()
        assert err <= 1e-14 * np.abs(closed[label]).max(), (label, err)


@pytest.mark.parametrize("kind", ["vasicek", "cir"])
def test_renewing_single_regime_rate_moments_on_every_row(kind, kern_single, cfg_fast):
    # a regime that renews itself: its rate mean is exactly the march's
    # renewal mass M(s), the same trapezoid on the sojourn density, times
    # the closed form, so its error is the mass defect; the product moment
    # stays within that defect of its closed form, on every row
    model = _single_regime_model(kind)
    ws = LatticeWorkspace(kern_single, model, cfg_fast)
    h, q, surv = cfg_fast.step, ws.qdot[:, 0, 0], ws.survival[:, 0]
    mass = np.ones(ws.thetas.size)
    for k in range(1, mass.size):
        mass[k] = (surv[k] + h * (q[1:k] @ mass[k - 1:0:-1]) + 0.5 * h * q[k]) \
            / (1.0 - 0.5 * h * q[0])
    defect = np.abs(mass - 1.0).max()
    x, s = ws.x_nodes[None, :], ws.thetas[:, None]
    rate = solve_rate_mean(kern_single, model, cfg_fast, workspace=ws)
    mean = np.asarray(model.mean(0, x, s))
    assert np.abs(rate.values[0] - mass[:, None] * mean).max() <= 1e-14 * np.abs(mean).max()
    for lag in (0.0, 0.5):
        xi = solve_product_moment(lag, kern_single, model, cfg_fast, rate, workspace=ws)
        closed = np.asarray(model.product_mean(0, x, s, lag))
        assert np.abs(xi.values[0] - closed).max() <= defect * np.abs(closed).max(), lag


def test_lag_zero_is_second_moment(kern_single, vas_single, cfg_fast, solved_single):
    ws, _, r, _ = solved_single
    xi0 = solve_product_moment(0.0, kern_single, vas_single, cfg_fast,
                               rate_mean_surface=r, workspace=ws)
    idx = np.argmin(np.abs(ws.x_nodes - 0.03))
    x0 = ws.x_nodes[idx]
    closed = vas_single.mean(0, x0, ws.thetas) ** 2 + vas_single.variance(0, x0, ws.thetas)
    assert np.abs(xi0.values[0, :, idx] - np.asarray(closed)).max() < 1e-4


def test_jensen_gap(solved_testbed):
    _, v1, v2, _, _ = solved_testbed
    gap = v2.values - v1.values ** 2
    assert gap.min() >= -1e-8


def test_cir_moment_nonincreasing(kern_single, cir_single, cfg_fast):
    surf = solve_zcb_moment(1, kern_single, cir_single, cfg_fast)
    assert np.all(np.diff(surf.values[0], axis=0) <= 1e-12)


def test_evaluators_reduce_to_surface_at_age_zero(solved_testbed):
    ws, v1, v2, r, xi = solved_testbed
    kern, model = ws.kernel, ws.model
    for idx in (10, 30, 50):
        x = ws.x_nodes[idx]
        for s in (0.5, 1.0, 2.0):
            k = ws.grid.index_of(s)
            assert abs(evaluate_zcb_moment(v1, kern, model, 0, 0.0, x, s)
                       - v1.values[0, k, idx]) <= 1e-8
            assert abs(evaluate_rate_mean(r, kern, model, 1, 0.0, x, s)
                       - r.values[1, k, idx]) <= 1e-8
            assert abs(evaluate_product_moment(xi, r, kern, model, 0, 0.0, x, s)
                       - xi.values[0, k, idx]) <= 1e-8


def test_evaluator_trivial_maturities(solved_testbed):
    ws, v1, _, r, xi = solved_testbed
    kern, model = ws.kernel, ws.model
    assert evaluate_zcb_moment(v1, kern, model, 0, 0.7, 0.03, 0.0) == 1.0
    assert evaluate_rate_mean(r, kern, model, 0, 0.7, 0.03, 0.0) == 0.03
    # product at s = 0 collapses to r times the aged rate mean at the lag
    expected = 0.03 * evaluate_rate_mean(r, kern, model, 0, 0.7, 0.03, 0.5)
    assert evaluate_product_moment(xi, r, kern, model, 0, 0.7, 0.03, 0.0) == \
        pytest.approx(expected, rel=1e-12)


def test_evaluator_interpolates_in_maturity(solved_testbed):
    ws, v1, _, r, xi = solved_testbed
    kern, model = ws.kernel, ws.model
    evaluators = (
        lambda u, s: evaluate_zcb_moment(v1, kern, model, 0, u, 0.03, s),
        lambda u, s: evaluate_rate_mean(r, kern, model, 0, u, 0.03, s),
        lambda u, s: evaluate_product_moment(xi, r, kern, model, 0, u, 0.03, s),
    )
    s = 0.503  # off the 0.01 grid on purpose
    k = int(s / ws.config.step)
    w = s / ws.config.step - k
    for evaluate in evaluators:
        for u in (0.0, 0.4):
            lo = evaluate(u, ws.thetas[k])
            hi = evaluate(u, ws.thetas[k + 1])
            assert evaluate(u, s) == pytest.approx((1.0 - w) * lo + w * hi,
                                                   rel=1e-13, abs=1e-13)


def test_rate_grid_refusals(solved_testbed):
    ws, v1, _, r, xi = solved_testbed
    kern, model = ws.kernel, ws.model
    outside = ws.x_nodes[-1] + 0.01
    with pytest.raises(GridCoverageError):
        evaluate_zcb_moment(v1, kern, model, 0, 0.0, outside, 1.0)
    with pytest.raises(GridCoverageError):
        evaluate_zcb_moment(v1, kern, model, 1, 0.0, outside, 1.005)
    with pytest.raises(ValueError):
        evaluate_zcb_moment(v1, kern, model, 0, 0.0, 0.03, ws.thetas[-1] + 1.0)


def test_degenerate_age(solved_testbed):
    ws, v1, _, _, _ = solved_testbed
    g = SojournDistribution.uniform(0.0, 1.0)
    kern = alternating_kernel(g, g)
    cfg = ws.config
    vas = ws.model
    surf = solve_zcb_moment(1, kern, vas, cfg)
    with pytest.raises(DegenerateBackwardError):
        evaluate_zcb_moment(surf, kern, vas, 0, 1.0, 0.03, 0.5)


@pytest.mark.parametrize("bad", ["u", "r"])
@pytest.mark.parametrize("evaluator", ["zcb", "rate_mean", "product"])
def test_evaluators_refuse_a_nan_age_or_rate(solved_testbed, evaluator, bad):
    # a NaN age passed every check (zcb gave 0.98617, the rate mean
    # 0.02607), and a NaN rate read the lattice as NaN
    ws, v1, _, r, xi = solved_testbed
    u, rate = (np.nan, 0.03) if bad == "u" else (0.3, np.nan)
    at = (ws.kernel, ws.model, 0, u, rate, 1.0)
    evaluate = {"zcb": lambda: evaluate_zcb_moment(v1, *at),
                "rate_mean": lambda: evaluate_rate_mean(r, *at),
                "product": lambda: evaluate_product_moment(xi, r, *at)}[evaluator]
    with pytest.raises((ValueError, GridCoverageError)):
        evaluate()
    if bad == "u":
        with pytest.raises(ValueError):
            BackwardState(0, u)

@pytest.fixture(scope="module")
def solved_uniform(vas_testbed):
    """Every quantity solved on alternating uniform(0, 1) sojourns, where
    an age of 1 leaves no mass to condition on."""
    g = SojournDistribution.uniform(0.0, 1.0)
    kern = alternating_kernel(g, g)
    cfg = SolverConfig(step=0.01, horizon=1.0, rate_nodes=41, quad_order=24,
                       reference_rate=0.03)
    ws = LatticeWorkspace(kern, vas_testbed, cfg)
    r = solve_rate_mean(kern, vas_testbed, cfg, workspace=ws)
    return (ws, solve_zcb_moment(1, kern, vas_testbed, cfg, workspace=ws), r,
            solve_product_moment(0.5, kern, vas_testbed, cfg, rate_mean_surface=r, workspace=ws))


@pytest.mark.parametrize("u", [np.nan, -1.0, 1.0], ids=["nan", "negative", "saturating"])
@pytest.mark.parametrize("evaluator", ["zcb", "rate_mean", "product"])
def test_evaluators_refuse_a_bad_age_at_maturity_zero(solved_uniform, evaluator, u):
    # at s = 0 the zcb and rate-mean aged passes read no sojourn law, so
    # these ages used to return 1.0 or the start rate while every s > 0
    # refused them; the product, whose s = 0 value reads r(lag), refused
    ws, v1, r, xi = solved_uniform
    at = (ws.kernel, ws.model, 0, u, 0.03, 0.0)
    evaluate = {"zcb": lambda: evaluate_zcb_moment(v1, *at),
                "rate_mean": lambda: evaluate_rate_mean(r, *at),
                "product": lambda: evaluate_product_moment(xi, r, *at)}[evaluator]
    with pytest.raises((ValueError, DegenerateBackwardError)):
        evaluate()


def test_narrow_grid_raises():
    kern = SemiMarkovKernel([[1.0]], [[SojournDistribution.exponential(1.0)]])
    vas = RegimeRateModel.vasicek([{"a": 1.0, "b": 0.05, "sigma": 0.02}])
    cfg = SolverConfig(step=0.01, horizon=1.0, rate_nodes=21, rate_lo=0.02,
                       rate_hi=0.04, reference_rate=0.03)
    with pytest.raises(GridCoverageError):
        solve_zcb_moment(1, kern, vas, cfg)


def test_product_moment_needs_companion(kern_single, vas_single, cfg_fast):
    with pytest.raises(ValueError):
        solve_product_moment(0.5, kern_single, vas_single, cfg_fast,
                             rate_mean_surface=None)
    other = solve_zcb_moment(1, kern_single, vas_single, cfg_fast)
    with pytest.raises(ValueError):
        solve_product_moment(0.5, kern_single, vas_single, cfg_fast,
                             rate_mean_surface=other)
    good = solve_rate_mean(kern_single, vas_single, cfg_fast)
    with pytest.raises(ValueError):
        solve_product_moment(0.0033, kern_single, vas_single, cfg_fast,
                             rate_mean_surface=good)


def test_aged_evaluations_build_no_transfer_stack(kern_testbed, vas_testbed, monkeypatch):
    # the product surface keeps the coefficients it was marched with, so
    # an evaluation after a discount solve (which leaves the tilted stack
    # held) builds no stack and reads the same
    cfg = SolverConfig(step=0.05, horizon=2.0, rate_nodes=41, reference_rate=0.03)
    ws = LatticeWorkspace(kern_testbed, vas_testbed, cfg)
    r = solve_rate_mean(kern_testbed, vas_testbed, cfg, workspace=ws)
    xi = solve_product_moment(0.5, kern_testbed, vas_testbed, cfg, rate_mean_surface=r,
                              workspace=ws)
    at = (kern_testbed, vas_testbed, 0, 0.3, 0.03, 1.02)
    before = evaluate_product_moment(xi, r, *at)
    v1 = solve_zcb_moment(1, kern_testbed, vas_testbed, cfg, workspace=ws)
    assert ws._held[0] == 1

    def no_build(ws, tilt):
        raise AssertionError(f"an evaluation built the tilt-{tilt} stack")

    monkeypatch.setattr(LatticeWorkspace, "_build", no_build)
    assert evaluate_product_moment(xi, r, *at) == before
    evaluate_rate_mean(r, *at)
    evaluate_zcb_moment(v1, *at)
    covariance(xi, r, kern_testbed, vas_testbed, 0, 0.3, 0.03, 1.0, 0.5)


def test_evaluation_refuses_other_kernel_and_model_objects(solved_single):
    # an evaluation used to rebuild a workspace for them and answer from it
    ws, v1, r, xi = solved_single
    exp20 = SemiMarkovKernel([[1.0]], [[SojournDistribution.exponential(20.0)]])
    twin = SemiMarkovKernel([[1.0]], [[SojournDistribution.exponential(1.0)]])
    vas_twin = RegimeRateModel.vasicek([{"a": 1.0, "b": 0.05, "sigma": 0.02}])
    for kern, model in ((exp20, ws.model), (twin, ws.model), (ws.kernel, vas_twin)):
        at = (kern, model, 0, 0.3, 0.03, 1.0)
        for evaluate in (lambda: evaluate_zcb_moment(v1, *at),
                         lambda: evaluate_rate_mean(r, *at),
                         lambda: evaluate_product_moment(xi, r, *at),
                         lambda: covariance(xi, r, *at, 0.5)):
            with pytest.raises(ValueError, match="objects it was solved with"):
                evaluate()


def test_rate_surface_from_another_workspace_is_refused(solved_single):
    ws, _, r, xi = solved_single
    other = LatticeWorkspace(ws.kernel, ws.model, ws.config, until=0.5)
    r_other = solve_rate_mean(ws.kernel, ws.model, ws.config, workspace=other)
    at = (ws.kernel, ws.model, 0, 0.3, 0.03, 0.5)
    with pytest.raises(ValueError, match="another workspace"):
        evaluate_product_moment(xi, r_other, *at)
    with pytest.raises(ValueError, match="another workspace"):
        solve_product_moment(0.5, ws.kernel, ws.model, ws.config, rate_mean_surface=r_other,
                             workspace=ws)
    with pytest.raises(ValueError, match="rate_mean surface, got zcb_moment"):
        evaluate_product_moment(xi, solved_single[1], *at)


@pytest.mark.parametrize("solve", ["zcb", "rate_mean", "product"])
@pytest.mark.parametrize("mismatch", ["kernel", "model", "config"])
def test_solve_refuses_a_workspace_for_other_inputs(solved_single, solve, mismatch):
    ws, _, r, _ = solved_single
    inputs = {"kernel": ws.kernel, "model": ws.model, "config": ws.config}
    inputs[mismatch] = {
        "kernel": SemiMarkovKernel([[1.0]], [[SojournDistribution.exponential(1.0)]]),
        "model": RegimeRateModel.vasicek([{"a": 1.0, "b": 0.05, "sigma": 0.02}]),
        "config": SolverConfig(step=0.02, horizon=2.0, rate_nodes=61, reference_rate=0.03),
    }[mismatch]
    args = (inputs["kernel"], inputs["model"], inputs["config"])
    with pytest.raises(ValueError, match="the workspace"):
        if solve == "zcb":
            solve_zcb_moment(1, *args, workspace=ws)
        elif solve == "rate_mean":
            solve_rate_mean(*args, workspace=ws)
        else:
            solve_product_moment(0.5, *args, rate_mean_surface=r, workspace=ws)


def test_product_solve_runs_on_its_rate_surface_workspace(solved_single, monkeypatch):
    ws, _, r, xi = solved_single
    def no_workspace(*args, **kwargs):
        raise AssertionError("the product solve built a second workspace")

    monkeypatch.setattr(LatticeWorkspace, "__init__", no_workspace)
    again = solve_product_moment(0.5, ws.kernel, ws.model, ws.config, rate_mean_surface=r)
    assert again.workspace is ws
    assert np.array_equal(again.values, xi.values)


def test_covariance_deterministic_zero():
    kern = SemiMarkovKernel([[1.0]], [[SojournDistribution.exponential(1.0)]])
    det = RegimeRateModel.vasicek([{"a": 1.0, "b": 0.05, "sigma": 0.0}])
    cfg = SolverConfig(step=0.01, horizon=1.0, rate_nodes=41, reference_rate=0.03)
    ws = LatticeWorkspace(kern, det, cfg)
    r = solve_rate_mean(kern, det, cfg, workspace=ws)
    xi = solve_product_moment(0.5, kern, det, cfg, rate_mean_surface=r, workspace=ws)
    cov = covariance(xi, r, kern, det, 0, 0.0, 0.03, 0.5, 0.5)
    # point-mass transition laws still interpolate on the lattice, so
    # "zero" means zero at solver precision
    assert abs(cov) < 1e-8


def test_covariance_single_regime(solved_single, vas_single):
    ws, _, r, xi = solved_single
    kern = ws.kernel
    idx = np.argmin(np.abs(ws.x_nodes - 0.03))
    x0 = ws.x_nodes[idx]
    cov = covariance(xi, r, kern, vas_single, 0, 0.0, x0, 1.0, 0.5)
    closed = np.exp(-0.5) * vas_single.variance(0, x0, 1.0)
    assert cov == pytest.approx(closed, abs=1e-5)


def test_covariance_surface_requires_the_products_companion(vas_single):
    # a rate mean from another workspace used to pass whenever the grids
    # were allclose: exp(20) sojourns against the product's exp(1) gave
    # -0.01177 at (s = 0.25, node 10); the regime renews itself, so the
    # closed form decay(0.25, 0.5) Var(0.25) = 4.77e-5 is right
    cfg = SolverConfig(step=0.05, horizon=2.0, rate_nodes=21, reference_rate=0.03)
    rates = {}
    for name, rate in (("exp1", 1.0), ("exp20", 20.0)):
        kern = SemiMarkovKernel([[1.0]], [[SojournDistribution.exponential(rate)]])
        ws = LatticeWorkspace(kern, vas_single, cfg)
        rates[name] = solve_rate_mean(kern, vas_single, cfg, workspace=ws)
    xi = solve_product_moment(0.5, rates["exp1"].workspace.kernel, vas_single, cfg,
                              rates["exp1"])
    assert np.allclose(rates["exp20"].x_nodes, xi.x_nodes)
    with pytest.raises(ValueError, match="another workspace"):
        covariance_surface(xi, rates["exp20"])
    own = covariance_surface(xi, rates["exp1"]).values[0, 5, 10]
    x = xi.x_nodes[10]
    assert own == pytest.approx(vas_single.mean_decay(0, 0.25, 0.5)
                                * vas_single.variance(0, x, 0.25), rel=0.01)


def test_rate_moments_read_no_transfer_law(kern_testbed, vas_testbed, monkeypatch):
    # the rate mean and the products march their coefficients from the
    # closed-form law: no solve, evaluation or covariance of theirs builds
    # a transfer stack or asks for a transition-law rule
    cfg = SolverConfig(step=0.05, horizon=2.0, rate_nodes=41, reference_rate=0.03)
    ws = LatticeWorkspace(kern_testbed, vas_testbed, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("a rate moment read a transfer law")

    monkeypatch.setattr(LatticeWorkspace, "transfer", refuse)
    monkeypatch.setattr(moment_engine, "_law_nodes_weights", refuse)
    r = solve_rate_mean(kern_testbed, vas_testbed, cfg, workspace=ws)
    for lag in (0.0, 0.5):
        xi = solve_product_moment(lag, kern_testbed, vas_testbed, cfg, r, workspace=ws)
        covariance_surface(xi, r)
        covariance(xi, r, kern_testbed, vas_testbed, 1, 0.3, 0.03, 1.02, lag)
    assert ws._held is None


def test_covariance_lattice_matches_pointwise(solved_testbed):
    ws, _, _, r, xi = solved_testbed
    surf = covariance_surface(xi, r)
    idx = 30
    k = ws.grid.index_of(1.0)
    pointwise = covariance(xi, r, ws.kernel, ws.model, 0, 0.0, ws.x_nodes[idx], 1.0, 0.5)
    assert surf.values[0, k, idx] == pytest.approx(pointwise, abs=1e-12)


def test_nonnegative_variance_floor(solved_testbed, kern_testbed, vas_testbed, cfg_fast):
    ws, _, _, r, _ = solved_testbed
    xi0 = solve_product_moment(0.0, kern_testbed, vas_testbed, cfg_fast,
                               rate_mean_surface=r, workspace=ws)
    surf = covariance_surface(xi0, r)
    assert surf.values.min() >= -1e-6


def test_grid_convergence_second_order(kern_single, vas_single):
    errs = {}
    for h in (0.02, 0.01):
        cfg = SolverConfig(step=h, horizon=2.0, rate_nodes=61, reference_rate=0.03)
        ws = LatticeWorkspace(kern_single, vas_single, cfg)
        surf = solve_zcb_moment(1, kern_single, vas_single, cfg, workspace=ws)
        idx = np.argmin(np.abs(ws.x_nodes - 0.03))
        closed = np.asarray(vas_single.bond_laplace(0, ws.x_nodes[idx], 1, ws.thetas))
        errs[h] = np.abs(surf.values[0, :, idx] - closed).max()
    order = np.log2(errs[0.02] / errs[0.01])
    assert 1.5 <= order <= 2.5


def test_covariance_lag_zero_matches_mc_variance(solved_testbed):
    from smrates import RngStream, simulate_batch

    ws, _, _, r, _ = solved_testbed
    xi0 = solve_product_moment(0.0, ws.kernel, ws.model, ws.config,
                               rate_mean_surface=r, workspace=ws)
    analytic = covariance(xi0, r, ws.kernel, ws.model, 0, 0.0, 0.03, 1.0, 0.0)
    n = 200000
    rates, _ = simulate_batch(ws.kernel, ws.model, BackwardState(0, 0.0), 0.03,
                              [1.0], 0.01, RngStream(29), n)
    sample = rates[0]
    mc_var = sample.var(ddof=1)
    # standard error of a sample variance via its fourth central moment
    m4 = ((sample - sample.mean()) ** 4).mean()
    se = np.sqrt((m4 - mc_var**2) / n)
    assert abs(mc_var - analytic) < 3 * se


def test_covariance_decays_with_lag(kern_alt_exp, vas_testbed, cfg_fast):
    ws = LatticeWorkspace(kern_alt_exp, vas_testbed, cfg_fast)
    r = solve_rate_mean(kern_alt_exp, vas_testbed, cfg_fast, workspace=ws)
    covs = []
    for lag in (0.0, 0.5, 1.0):
        xi = solve_product_moment(lag, kern_alt_exp, vas_testbed, cfg_fast,
                                  rate_mean_surface=r, workspace=ws)
        covs.append(covariance(xi, r, kern_alt_exp, vas_testbed,
                               0, 0.0, 0.03, 1.0, lag))
    assert covs[0] > covs[1] > covs[2] > 0


def test_cir_product_moment_collapse_and_aged_evaluators(kern_single, cir_single):
    from smrates import RngStream, estimate_rate_moments, estimate_zcb_moment

    cfg = SolverConfig(step=0.01, horizon=1.5, rate_nodes=61, quad_order=24,
                       reference_rate=0.03)
    ws = LatticeWorkspace(kern_single, cir_single, cfg)
    idx = int(np.argmin(np.abs(ws.x_nodes - 0.03)))
    x0 = ws.x_nodes[idx]

    r = solve_rate_mean(kern_single, cir_single, cfg, workspace=ws)
    xi = solve_product_moment(0.5, kern_single, cir_single, cfg,
                              rate_mean_surface=r, workspace=ws)
    closed = np.asarray(cir_single.product_mean(0, x0, ws.thetas, 0.5))
    assert np.abs(xi.values[0, :, idx] - closed).max() < 1e-4

    v1 = solve_zcb_moment(1, kern_single, cir_single, cfg, workspace=ws)
    k = ws.grid.index_of(1.0)
    # age-zero evaluation reproduces the lattice through the chi-square rules
    assert abs(evaluate_zcb_moment(v1, kern_single, cir_single, 0, 0.0, x0, 1.0)
               - v1.values[0, k, idx]) <= 1e-8
    assert abs(evaluate_product_moment(xi, r, kern_single, cir_single, 0, 0.0, x0, 1.0)
               - xi.values[0, k, idx]) <= 1e-8
    # aged evaluation against Monte Carlo with the age-conditioned start
    aged = BackwardState(0, 0.4)
    rep = estimate_zcb_moment(kern_single, cir_single, aged, 0.03, 1, 1.0,
                              100000, 37, step=0.01)
    ana = evaluate_zcb_moment(v1, kern_single, cir_single, 0, 0.4, 0.03, 1.0)
    assert abs(rep.z_score(ana)) < 3
    mean_rep, prod_rep = estimate_rate_moments(kern_single, cir_single, aged,
                                               0.03, 0.5, 0.5, 100000, 38, step=0.01)
    mean_ana = evaluate_rate_mean(r, kern_single, cir_single, 0, 0.4, 0.03, 0.5)
    prod_ana = evaluate_product_moment(xi, r, kern_single, cir_single, 0, 0.4, 0.03, 0.5)
    assert abs(mean_rep.z_score(mean_ana)) < 3
    assert abs(prod_rep.z_score(prod_ana)) < 3


@settings(max_examples=12, deadline=None)
@given(
    feller=st.floats(1.0, 6.0),
    sig=st.floats(0.03, 0.1),
    b=st.floats(0.2, 2.0),
    idx=st.integers(0, 30),
    k=st.integers(1, 20),
)
def test_cir_age_zero_evaluation_reproduces_lattice(kern_single, feller, sig, b, idx, k):
    # tilts 0, 1 and 2: the rate mean and the first two bond moments
    model = RegimeRateModel.cir([CIRParams(0.5 * feller * sig * sig, b, sig)])
    cfg = SolverConfig(step=0.05, horizon=1.0, rate_nodes=31, quad_order=24,
                       reference_rate=0.03)
    ws = LatticeWorkspace(kern_single, model, cfg)
    try:
        surfaces = [(solve_zcb_moment(n, kern_single, model, cfg, workspace=ws), evaluate_zcb_moment)
                    for n in (1, 2)]
        surfaces.append((solve_rate_mean(kern_single, model, cfg, workspace=ws), evaluate_rate_mean))
    except GridCoverageError:
        reject()   # the lattice refuses laws it cannot hold; not this property
    x, s = ws.x_nodes[idx], ws.thetas[k]
    for surf, evaluate in surfaces:
        assert abs(evaluate(surf, kern_single, model, 0, 0.0, x, s)
                   - surf.values[0, k, idx]) <= 1e-12


def test_hull_white_renewal_solver_vs_mc(kern_single):
    # time-varying coefficients whose clock restarts at every renewal:
    # the lattice solver and the simulator must agree on the modulated law
    from smrates import (HullWhiteParams, PiecewiseLinear, estimate_zcb_moment,
                         estimate_rate_moments)

    p = HullWhiteParams(
        PiecewiseLinear([0.0, 1.0], [0.03, 0.06]),
        PiecewiseLinear([0.0, 1.0], [1.5, 0.8]),
        PiecewiseLinear([0.0, 1.0], [0.01, 0.025]),
    )
    hw = RegimeRateModel.hull_white([p])
    cfg = SolverConfig(step=0.01, horizon=1.0, rate_nodes=61, quad_order=24,
                       reference_rate=0.03)
    ws = LatticeWorkspace(kern_single, hw, cfg)
    v1 = solve_zcb_moment(1, kern_single, hw, cfg, workspace=ws)
    r = solve_rate_mean(kern_single, hw, cfg, workspace=ws)

    # modest replication counts: per-path regime clocks make Hull-White
    # batches markedly slower than the homogeneous kinds
    # age zero reproduces the lattice through the Gaussian rules
    for idx in (20, 30, 40):
        for k in (37, 100):
            s, x = ws.thetas[k], ws.x_nodes[idx]
            assert abs(evaluate_zcb_moment(v1, kern_single, hw, 0, 0.0, x, s)
                       - v1.values[0, k, idx]) <= 1e-8
            assert abs(evaluate_rate_mean(r, kern_single, hw, 0, 0.0, x, s)
                       - r.values[0, k, idx]) <= 1e-8

    start = BackwardState(0, 0.0)
    rep = estimate_zcb_moment(kern_single, hw, start, 0.03, 1, 1.0, 30000, 51)
    ana = evaluate_zcb_moment(v1, kern_single, hw, 0, 0.0, 0.03, 1.0)
    assert abs(rep.z_score(ana)) < 3
    mean_rep, _ = estimate_rate_moments(kern_single, hw, start, 0.03, 1.0, 0.0,
                                        30000, 52)
    mean_ana = evaluate_rate_mean(r, kern_single, hw, 0, 0.0, 0.03, 1.0)
    assert abs(mean_rep.z_score(mean_ana)) < 3


def test_gamma_kernel_zcb_vs_mc(vas_testbed):
    from smrates import estimate_zcb_moment

    kern = SemiMarkovKernel(
        [[0.0, 1.0], [1.0, 0.0]],
        [
            [None, SojournDistribution.gamma(2.0, 0.5)],
            [SojournDistribution.gamma(3.0, 0.3), None],
        ],
    )
    cfg = SolverConfig(step=0.005, horizon=1.0, rate_nodes=61, reference_rate=0.03)
    surf = solve_zcb_moment(1, kern, vas_testbed, cfg)
    ana = evaluate_zcb_moment(surf, kern, vas_testbed, 0, 0.0, 0.03, 1.0)
    rep = estimate_zcb_moment(kern, vas_testbed, BackwardState(0, 0.0), 0.03,
                              1, 1.0, 100000, 63)
    assert abs(rep.z_score(ana)) < 3


def test_feller_violating_regime_rate_mean_vs_mc():
    # a df 0.8 regime (the origin attainable) alternating with a Feller
    # one; the zcb moment is left out: at march step 0.01 it is 8.8e-5
    # relative off from the march's time error (z near 9 at these paths),
    # in the all-Feller twin too, and step 0.0025 still leaves z near 2
    from smrates import estimate_moments

    kern = alternating_kernel(SojournDistribution.weibull(2.0, 0.5),
                              SojournDistribution.exponential(2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # attainable origin
        model = RegimeRateModel.cir([CIRParams(0.002, 1.0, 0.1), CIRParams(0.04, 1.0, 0.1)])
    cfg = SolverConfig(step=0.01, horizon=1.0, rate_nodes=61, quad_order=24,
                       reference_rate=0.03)
    rate = solve_rate_mean(kern, model, cfg)
    targets = [{"quantity": "rate_mean", "s": s, "reps": 400000} for s in (0.5, 1.0)]
    reps = estimate_moments(kern, model, BackwardState(0, 0.0), 0.03, targets, 41, step=0.01)
    for tgt, rep in zip(targets, reps):
        ana = evaluate_rate_mean(rate, kern, model, 0, 0.0, 0.03, tgt["s"])
        assert abs(rep.z_score(ana)) < 3, tgt
