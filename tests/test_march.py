"""The panel march against the direct march, the rate moments'
coefficient marches against the renewal equation summed term by term,
and the renewal engine's invariants on random kernels.

The discount moments' oracle is the direct scheme: at every step and
for every state it state-mixes the whole known history and applies one
matrix-vector product over the transfer-stack prefix.  The panel march
sums the same terms in another order, so the two must agree to a
tolerance fixed beforehand from the dtype, relative to each surface's
largest value.  The rate moments' oracle holds each moment at three
start rates (a polynomial of degree <= 2 is fixed by them) and sums
every restart, window and history term from the model's closed-form
mean, variance and product mean; it shares no code with the coefficient
march.  Both agreements are held to the same tolerance.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

from smrates import (
    CIRParams,
    GridCoverageError,
    HullWhiteParams,
    LatticeWorkspace,
    PiecewiseLinear,
    RegimeRateModel,
    SemiMarkovKernel,
    SojournDistribution,
    SolverConfig,
    evaluate_product_moment,
    evaluate_rate_mean,
    evaluate_zcb_moment,
    solve_product_moment,
    solve_rate_mean,
    solve_zcb_moment,
)
from smrates import moment_engine
from smrates.moment_engine import _PANEL, _law_nodes_weights, _march

# agreement of the two schemes, relative to the surface's largest value
PANEL_TOL = 1e-13
STEP = 0.025


def _oracle_march(ws, packed, table, initial):
    """Direct trapezoidal march of V_i(s, x) = S_i(s) f_i(x, s) + the
    convolution of qdot with the history read through the stack packed
    (whose rows carry the history's weight), from V = initial at s = 0;
    table[i, k, p] = f_i(x_p, s_k) is also the inner integral of the
    initial block at s_k.  The whole history l = 1..k-1 of every step is
    one matrix-vector product per state."""
    h = ws.config.step
    m, nx = ws.m, ws.x_nodes.size
    qd = ws.qdot
    vals = np.empty((ws.grid.n_steps + 1, m, nx))
    vals[0] = initial
    for k in range(1, ws.grid.n_steps + 1):
        rhs = (ws.survival[k][:, None] * table[:, k]
               + 0.5 * h * (qd[k].sum(axis=1)[:, None] * table[:, k]))
        if k >= 2:
            for i in range(m):
                mixed = np.matmul(qd[1:k, i, None, :], vals[k - 1:0:-1])
                rhs[i] = rhs[i] + h * (packed[i][:, nx:k * nx] @ mixed.ravel())
        vals[k] = ws._a_inv @ rhs
    return vals


def _lattice_table(ws, f):
    """(m, K+1, Nx) table f(i, x, theta) at every state, lattice rate and
    march node."""
    return np.stack([np.asarray(f(i, ws.x_nodes[:, None], ws.thetas)).T for i in range(ws.m)])


def _oracle_zcb(ws, n):
    """The discount moment of order n: the no-switch discount as table
    and row weight (carried by transfer(n)), V = 1 at s = 0."""
    table = _lattice_table(ws, lambda i, x, t: ws.model.bond_laplace(i, x, n, t))
    return _oracle_march(ws, ws.transfer(n), table, 1.0)


def _lattice_rate_mean(ws):
    """The rate mean on the lattice (table the transition mean, start at
    x, plain law), the oracle of its coefficient march on the core rows."""
    return _oracle_march(ws, ws.transfer(0), _lattice_table(ws, ws.model.mean), ws.x_nodes)


def _oracle_terms(ws, xs, i, k, qd, surv, vals, lag=0, rate=None):
    """State i's terms at s_k at the start rates xs, all but the
    elapsed-time-0 one: no switch before s_k + lag (surv[k] is read
    there), the history l = 1..k (the far end with weight h/2) and, for
    a product, the window (s_k, s_k + lag]; qd[l] holds state i's
    densities at theta_l and vals[k, j] the moment at xs.  A restart of
    the polynomial through (xs, v) has expectation c0 + c1 m + c2 (m^2 + var)."""
    model, h = ws.model, ws.config.step
    ts = np.arange(k + lag + 1) * h
    inv = np.linalg.inv(np.vander(xs, 3, increasing=True))
    if rate is None:
        out = surv[k] * np.asarray(model.mean(i, xs, ts[k]))
    else:
        out = surv[k] * np.asarray(model.product_mean(i, xs, ts[k], ts[lag]))
    mean = np.asarray(model.mean(i, xs, ts[1:k + 1, None]))
    powers = np.stack([np.ones_like(mean), mean,
                       mean * mean + model.variance(i, xs, ts[1:k + 1, None])], axis=1)
    weights = np.full(k, h)
    weights[-1] = 0.5 * h
    out = out + np.einsum("l,lj,lje,lep->p", weights, qd[1:k + 1],
                          vals[k - 1::-1] @ inv.T, powers)
    if lag:
        # restart R_j(lag - theta, y) = beta + alpha y after a switch at s_k + theta
        weights = np.full(lag + 1, h)
        weights[[0, -1]] = 0.5 * h
        restart = rate[lag::-1] @ inv.T
        product = np.asarray(model.product_mean(i, xs, ts[k], ts[:lag + 1, None]))
        out = out + np.einsum("l,lj,lj,lp->p", weights, qd[k:k + lag + 1], restart[:, :, 1],
                              product)
        out = out + np.einsum("l,lj,lj->", weights, qd[k:k + lag + 1], restart[:, :, 0]) \
            * np.asarray(model.mean(i, xs, ts[k]))
    return out


def _oracle_rate_moment(ws, xs, lag=0, rate=None):
    """(K+1, m, 3) rate mean (rate None) or product moment at lag steps
    (rate: the oracle's rate mean) at the start rates xs, by the
    trapezoidal march with its implicit elapsed-time-0 end."""
    h, m, k_max = ws.config.step, ws.m, ws.thetas.size - 1
    ts = np.arange(k_max + lag + 1) * h
    qd, surv = ws.kernel.density_matrix(ts), ws.kernel.survival_matrix(ts + lag * h)
    vals = np.empty((k_max + 1, m, xs.size))
    vals[0] = xs if rate is None else xs * rate[lag]
    for k in range(1, k_max + 1):
        rhs = np.stack([_oracle_terms(ws, xs, i, k, qd[:, i], surv[:, i], vals, lag, rate)
                        for i in range(m)])
        vals[k] = np.linalg.solve(np.eye(m) - 0.5 * h * qd[0], rhs)
    return vals


def _oracle_aged(ws, xs, i, u, k, vals, lag=0, rate=None):
    """The aged pass at the start rates xs: densities and survival at
    theta + u over 1 - H_i(u), the elapsed-time-0 end explicit."""
    h = ws.config.step
    ts = np.arange(k + lag + 1) * h + u
    denom = ws.kernel.aged_survival(i, u)
    qd = ws.kernel.density_matrix(ts)[:, i] / denom
    surv = ws.kernel.survival_matrix(ts + lag * h)[:, i] / denom
    return (_oracle_terms(ws, xs, i, k, qd, surv, vals, lag, rate)
            + 0.5 * h * qd[0] @ vals[k])


# ---------------------------------------------------------------------------
# random kernels and models
# ---------------------------------------------------------------------------

@st.composite
def sojourns(draw):
    # shapes >= 1: densities finite at 0, as the moment march needs
    family = draw(st.sampled_from(["exponential", "weibull", "gamma"]))
    if family == "exponential":
        return SojournDistribution.exponential(draw(st.floats(0.5, 3.0)))
    shape, scale = draw(st.floats(1.0, 4.0)), draw(st.floats(0.3, 2.0))
    return getattr(SojournDistribution, family)(shape, scale)


@st.composite
def kernels(draw, m=None):
    m = draw(st.integers(1, 3)) if m is None else m
    if m == 1:
        return SemiMarkovKernel([[1.0]], [[draw(sojourns())]])
    P = np.zeros((m, m))
    laws = [[None] * m for _ in range(m)]
    for i in range(m):
        others = [j for j in range(m) if j != i]
        split = draw(st.floats(0.1, 0.9)) if m == 3 else 1.0
        for j, p in zip(others, (split, 1.0 - split)):
            P[i, j] = p
            laws[i][j] = draw(sojourns())
    return SemiMarkovKernel(P, laws)


@st.composite
def models(draw, m, kinds=("vasicek", "hull_white", "cir")):
    kind = draw(st.sampled_from(kinds))
    if kind == "vasicek":
        return RegimeRateModel.vasicek([
            {"a": draw(st.floats(0.3, 2.0)), "b": draw(st.floats(0.0, 0.08)),
             "sigma": draw(st.floats(0.005, 0.03))} for _ in range(m)])
    if kind == "hull_white":
        def table(lo, hi):
            return PiecewiseLinear([0.0, 0.3], [draw(st.floats(lo, hi)), draw(st.floats(lo, hi))])
        return RegimeRateModel.hull_white([
            HullWhiteParams(table(0.0, 0.08), table(0.5, 2.0), table(0.005, 0.03))
            for _ in range(m)])
    params = []
    for _ in range(m):
        sig = draw(st.floats(0.03, 0.1))
        params.append(CIRParams(0.5 * draw(st.floats(1.0, 6.0)) * sig * sig,
                                draw(st.floats(0.2, 2.0)), sig))
    return RegimeRateModel.cir(params)


def _config(k_steps, **extra):
    return SolverConfig(step=STEP, horizon=k_steps * STEP, rate_nodes=21, quad_order=12,
                        reference_rate=0.03, **extra)


def _close(panel, oracle, label):
    err = np.abs(panel - oracle).max()
    assert err <= PANEL_TOL * np.abs(oracle).max(), (label, err)


# ---------------------------------------------------------------------------
# the panel march against the direct march
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(data=st.data(),
       k_steps=st.sampled_from([1, 2, _PANEL - 1, _PANEL, _PANEL + 1, 3 * _PANEL + 5]),
       history_blocks=st.sampled_from([None, 1, 5]))
def test_panel_march_matches_direct_march(data, k_steps, history_blocks):
    kernel = data.draw(kernels())
    model = data.draw(models(kernel.m))
    lag_steps = data.draw(st.integers(1, k_steps))
    ws = LatticeWorkspace(kernel, model, _config(k_steps))
    blocks = history_blocks or moment_engine._HISTORY_BLOCKS
    with mock.patch.object(moment_engine, "_HISTORY_BLOCKS", blocks):
        try:
            panel = {n: _march(ws, n) for n in (1, 2)}
        except GridCoverageError:
            reject()   # a refused lattice is another property
    for n, vals in panel.items():
        _close(vals, _oracle_zcb(ws, n), f"zcb n={n}")
    # the rate moments at the two edge rates and the middle one
    idx = [0, ws.x_nodes.size // 2, ws.x_nodes.size - 1]
    xs = ws.x_nodes[idx]
    rate = solve_rate_mean(kernel, model, ws.config, workspace=ws)
    oracle_rate = _oracle_rate_moment(ws, xs)
    _close(rate.values[:, :, idx].transpose(1, 0, 2), oracle_rate, "rate mean")
    for lag in (0, lag_steps):
        xi = solve_product_moment(lag * STEP, kernel, model, ws.config, rate, workspace=ws)
        oracle = _oracle_rate_moment(ws, xs, lag, oracle_rate)
        _close(xi.values[:, :, idx].transpose(1, 0, 2), oracle, f"product lag {lag}")
    # the aged pass, window included, against the oracle's
    u = 0.3
    aged = evaluate_product_moment(xi, rate, kernel, model, 0, u, xs[1], k_steps * STEP)
    direct = _oracle_aged(ws, xs, 0, u, k_steps, oracle, lag_steps, oracle_rate)[1]
    assert abs(aged - direct) <= PANEL_TOL * max(abs(direct), np.abs(oracle).max())


def test_coefficient_march_at_the_benchmark_size(kern_testbed, vas_testbed):
    # the testbed at K = 200 (step 0.0125, horizon 2.5) with lags 0 and 40
    # steps, as the moments benchmark marches it: every history product
    # and window sum at full length, against the oracle and the aged pass
    cfg = SolverConfig(step=0.0125, horizon=2.5, rate_nodes=21, quad_order=12,
                       reference_rate=0.03)
    ws = LatticeWorkspace(kern_testbed, vas_testbed, cfg)
    assert ws.thetas.size == 201
    idx = [0, ws.x_nodes.size // 2, ws.x_nodes.size - 1]
    xs = ws.x_nodes[idx]
    rate = solve_rate_mean(kern_testbed, vas_testbed, cfg, workspace=ws)
    oracle_rate = _oracle_rate_moment(ws, xs)
    _close(rate.values[:, :, idx].transpose(1, 0, 2), oracle_rate, "rate mean")
    surfaces = [rate]
    for lag in (0, 40):
        xi = solve_product_moment(lag * cfg.step, kern_testbed, vas_testbed, cfg, rate,
                                  workspace=ws)
        _close(xi.values[:, :, idx].transpose(1, 0, 2),
               _oracle_rate_moment(ws, xs, lag, oracle_rate), f"product lag {lag}")
        surfaces.append(xi)
    # the age-0 aged pass reproduces every marched row at every lattice rate
    for surface in surfaces:
        for k in range(ws.thetas.size):
            for i in range(ws.m):
                aged = moment_engine._horner(
                    moment_engine._aged_coefs(ws, surface.spec, i, 0.0, k), ws.x_nodes)
                err = np.abs(aged - surface.values[i, k]).max()
                assert err <= 1e-12, (surface.quantity, surface.lag, k, i, err)


@pytest.mark.parametrize("kind", ["vasicek", "hull_white", "cir"])
def test_rate_mean_matches_the_lattice_march_on_core_rows(kind):
    # the lattice march of the rate mean interpolates alpha y + beta
    # exactly inside the lattice, so on the core rows it is the coefficient
    # march up to roundoff (Gaussian kinds) or up to the chi-square rule's
    # error in the transition mean (CIR); the edge rows clamp
    kernel, model = _two_regime_kernel(), _two_regime_model(kind)
    ws = LatticeWorkspace(kernel, model, _config(3 * _PANEL + 5))
    rate = solve_rate_mean(kernel, model, ws.config, workspace=ws)
    lattice = _lattice_rate_mean(ws).transpose(1, 0, 2)
    err = np.abs(rate.values - lattice)[:, :, ws._core].max()
    assert err <= (1e-8 if kind == "cir" else 1e-13 * np.abs(lattice).max()), err


def test_history_rows_are_chunked():
    # long enough that a panel's far history takes several products of
    # _HISTORY_BLOCKS lags each, at the shipped chunk size
    kernel = SemiMarkovKernel([[0.0, 1.0], [1.0, 0.0]],
                              [[None, SojournDistribution.weibull(2.0, 1.0)],
                               [SojournDistribution.gamma(2.0, 0.5), None]])
    model = RegimeRateModel.vasicek([{"a": 1.0, "b": 0.02, "sigma": 0.015},
                                     {"a": 0.8, "b": 0.06, "sigma": 0.02}])
    k_steps = 3 * moment_engine._HISTORY_BLOCKS + _PANEL // 2
    ws = LatticeWorkspace(kernel, model, SolverConfig(step=0.005, horizon=k_steps * 0.005,
                                                      rate_nodes=11, quad_order=8))
    _close(_march(ws, 1), _oracle_zcb(ws, 1), "zcb n=1")


# ---------------------------------------------------------------------------
# invariants on random kernels
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(data=st.data(), k_steps=st.integers(1, 24))
def test_age_zero_evaluation_reproduces_lattice(data, k_steps):
    # the rate moments on all three kinds at every lattice rate, and the
    # discount moments on the Gaussian kinds (CIR's have their own test)
    kernel = data.draw(kernels())
    model = data.draw(models(kernel.m))
    cfg = _config(k_steps)
    ws = LatticeWorkspace(kernel, model, cfg)
    rate = solve_rate_mean(kernel, model, cfg, workspace=ws)
    products = [solve_product_moment(lag, kernel, model, cfg, rate, workspace=ws)
                for lag in (0.0, data.draw(st.integers(1, k_steps)) * STEP)]
    try:
        zcb = ([solve_zcb_moment(n, kernel, model, cfg, workspace=ws) for n in (1, 2)]
               if model.gaussian_transition else [])
    except GridCoverageError:
        zcb = []   # a refused lattice is another property
    i = data.draw(st.integers(0, kernel.m - 1))
    idx = data.draw(st.integers(0, cfg.rate_nodes - 1))
    k = data.draw(st.integers(0, k_steps))
    x, s = float(ws.x_nodes[idx]), float(ws.thetas[k])
    for p, y in enumerate(ws.x_nodes):
        for xi in products:
            assert abs(evaluate_product_moment(xi, rate, kernel, model, i, 0.0, y, s)
                       - xi.values[i, k, p]) <= 1e-12
        assert abs(evaluate_rate_mean(rate, kernel, model, i, 0.0, y, s)
                   - rate.values[i, k, p]) <= 1e-12
    if model.gaussian_transition:
        for surf in zcb:
            assert abs(evaluate_zcb_moment(surf, kernel, model, i, 0.0, x, s)
                       - surf.values[i, k, idx]) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(data=st.data(), k_steps=st.integers(1, 40))
def test_jensen_floor(data, k_steps):
    # V2 >= V1^2 holds for the model; the trapezoidal march conserves
    # renewal probability mass only to O(h^3) per step (its mass surface
    # M, the discount moment of order 0, exceeds 1 where the trapezoid
    # overshoots the sojourn law), and the discrete floor moves by that
    # defect times V1^2
    kernel = data.draw(kernels())
    model = data.draw(models(kernel.m))
    cfg = _config(k_steps)
    ws = LatticeWorkspace(kernel, model, cfg)
    try:
        v1, v2 = (solve_zcb_moment(n, kernel, model, cfg, workspace=ws) for n in (1, 2))
    except GridCoverageError:
        reject()
    # the discount moment of order 0: every table and row weight is 1
    mass = _oracle_march(ws, ws.transfer(0), np.ones((ws.m, ws.thetas.size, ws.x_nodes.size)),
                         1.0)
    defect = np.abs(mass - 1.0).max()
    gap = v2.values - v1.values ** 2
    assert gap.min() >= -1e-12 - defect * (v1.values ** 2).max(), (gap.min(), defect)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), below=st.floats(0.002, 0.1), above=st.floats(0.002, 0.1),
       tilt=st.integers(0, 2))
def test_lattice_refusal_never_returns_a_number(data, below, above, tilt):
    # a narrow lattice is refused exactly when some core rate's transition
    # law loses more than coverage_tol off it; the plain law (tilt 0) is
    # built on its own, since no solve reads it any more
    kernel = data.draw(kernels())
    model = data.draw(models(kernel.m))
    cfg = _config(8, rate_lo=0.03 - below, rate_hi=0.03 + above)
    ws = LatticeWorkspace(kernel, model, cfg)
    lo, hi = ws.x_nodes[0], ws.x_nodes[-1]
    slack = 1e-12 * max(1.0, hi - lo)
    worst = 0.0
    for i in range(kernel.m):
        for theta in ws.thetas[1:]:
            nodes, weights = _law_nodes_weights(model, i, ws.x_nodes, float(theta),
                                                cfg.quad_order, tilt=tilt)
            off = ((nodes < lo - slack) | (nodes > hi + slack)) * weights
            worst = max(worst, off.sum(axis=1)[ws._core].max(initial=0.0))
    solve = ((lambda: ws.transfer(0)) if tilt == 0
             else (lambda: solve_zcb_moment(tilt, kernel, model, cfg, workspace=ws).values))
    event("refused" if worst > cfg.coverage_tol else "accepted")
    if worst > cfg.coverage_tol:
        with pytest.raises(GridCoverageError):
            solve()
    else:
        assert np.all(np.isfinite(solve()))


# ---------------------------------------------------------------------------
# a march that ends before the horizon
# ---------------------------------------------------------------------------

def _two_regime_kernel():
    return SemiMarkovKernel([[0.0, 1.0], [1.0, 0.0]],
                            [[None, SojournDistribution.weibull(2.0, 1.0)],
                             [SojournDistribution.gamma(2.0, 0.5), None]])


def _two_regime_model(kind):
    if kind == "vasicek":
        return RegimeRateModel.vasicek([{"a": 1.0, "b": 0.02, "sigma": 0.015},
                                        {"a": 0.8, "b": 0.06, "sigma": 0.02}])
    if kind == "hull_white":
        # a knot at 1.0: the full march's integrals cross it, the short
        # march's do not
        return RegimeRateModel.hull_white([
            HullWhiteParams(PiecewiseLinear([0.0, 1.0], [0.02, 0.05]),
                            PiecewiseLinear([0.0, 1.0], [1.0, 0.6]),
                            PiecewiseLinear([0.0, 1.0], [0.015, 0.025])),
            HullWhiteParams.from_constants(0.048, 0.8, 0.02)])
    return RegimeRateModel.cir([CIRParams(0.04, 1.0, 0.1), CIRParams(0.03, 0.8, 0.08)])


@pytest.mark.parametrize("kind", ["vasicek", "hull_white", "cir"])
def test_short_march_rows_are_the_full_march_rows(kind):
    # a march to an earlier node keeps the full march's panels and build
    # chunks, so every row it computes is the full march's, bit for bit
    kernel, model = _two_regime_kernel(), _two_regime_model(kind)
    cfg = _config(3 * _PANEL + 5)
    lag = 5 * STEP
    rows = {}
    for until in (None, (_PANEL + 3) * STEP):
        ws = LatticeWorkspace(kernel, model, cfg, until=until)
        rate = solve_rate_mean(kernel, model, cfg, workspace=ws)
        rows[until] = {f"zcb n={n}": solve_zcb_moment(n, kernel, model, cfg, workspace=ws)
                       for n in (1, 2)}
        rows[until]["rate mean"] = rate
        for h in (0.0, lag):
            rows[until][f"product lag {h}"] = solve_product_moment(h, kernel, model, cfg, rate,
                                                                   workspace=ws)
    full, short = rows.values()
    for label, surface in short.items():
        k = surface.s_nodes.size
        assert k == 2 * _PANEL + 1, label
        assert np.array_equal(surface.s_nodes, full[label].s_nodes[:k]), label
        assert np.array_equal(surface.values, full[label].values[:, :k]), label


def test_march_ends_at_the_panel_of_the_upper_node():
    kernel, model = _two_regime_kernel(), _two_regime_model("vasicek")
    k_steps = 3 * _PANEL + 5
    cfg = _config(k_steps)
    for until, steps in ((None, k_steps), (0.0, 0), (_PANEL * STEP, _PANEL),
                         (_PANEL * STEP + 1e-12, _PANEL), ((_PANEL + 0.5) * STEP, 2 * _PANEL),
                         (k_steps * STEP, k_steps), (10.0, k_steps)):
        assert LatticeWorkspace(kernel, model, cfg, until=until).thetas.size == steps + 1, until
    # a maturity between nodes reads its upper node, the first of the
    # next panel: the aged value is the full march's
    s = (_PANEL + 0.5) * STEP
    values = []
    for until in (None, s):
        ws = LatticeWorkspace(kernel, model, cfg, until=until)
        zcb = solve_zcb_moment(1, kernel, model, cfg, workspace=ws)
        values.append(evaluate_zcb_moment(zcb, kernel, model, 1, 0.3, 0.03, s))
    assert values[0] == values[1]
    # a lag past the march has no rate rows to read
    rate = solve_rate_mean(kernel, model, cfg, workspace=ws)
    with pytest.raises(ValueError, match="beyond the workspace's march"):
        solve_product_moment((2 * _PANEL + 1) * STEP, kernel, model, cfg, rate, workspace=ws)
