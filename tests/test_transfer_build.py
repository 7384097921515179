"""The packed transfer build against a per-elapsed-time oracle.

The build asks for the rules of a whole chunk of elapsed times in one
call and scatters them in one pass.  The oracle builds every (state,
elapsed time) rule in its own call, scatters it with two np.add.at
passes, stacks the results as (m, K+1, Nx, Nx) and packs them into the
march layout, folding the discount moment's no-switch table into the
rows of a tilted stack.  The chunked build must give the same bits.

The product moment's first-moment law reads the tilt-0 rules themselves:
the lattice fetches them a chunk at a time, as the build does, and the
aged pass one elapsed time at a time, and both must give the same bits.
"""

import warnings

import numpy as np
import pytest

from smrates import (
    CIRParams,
    GridCoverageError,
    HullWhiteParams,
    LatticeWorkspace,
    PiecewiseLinear,
    RegimeRateModel,
    SojournDistribution,
    SolverConfig,
    alternating_kernel,
)
from smrates.moment_engine import (
    _SCATTER_CHUNK,
    _Lattice,
    _law_nodes_weights,
    _Point,
    _rate_spec,
    _scatter,
    _zcb_spec,
)


def _oracle_rule_matrix(x_nodes, nodes, weights):
    n_rows, _ = nodes.shape
    nx = x_nodes.size
    lo, hi = x_nodes[0], x_nodes[-1]
    slack = 1e-12 * max(1.0, hi - lo)
    escape = np.where((nodes < lo - slack) | (nodes > hi + slack), weights, 0.0).sum(axis=1)
    y = np.clip(nodes, lo, hi)
    idx = np.clip(np.searchsorted(x_nodes, y, side="right") - 1, 0, nx - 2)
    gap = x_nodes[idx + 1] - x_nodes[idx]
    frac = np.clip((y - x_nodes[idx]) / gap, 0.0, 1.0)
    mat = np.zeros((n_rows, nx))
    rows = np.broadcast_to(np.arange(n_rows)[:, None], nodes.shape)
    np.add.at(mat, (rows, idx), weights * (1.0 - frac))
    np.add.at(mat, (rows, idx + 1), weights * frac)
    return mat, escape


def _oracle_pack(transfer, weight=None):
    m, kp1, nx, _ = transfer.shape
    out = np.empty((m, nx, kp1 * nx))
    for i in range(m):
        block = transfer[i]
        if weight is not None:
            block = block * weight[i][:, :, None]
        out[i] = np.ascontiguousarray(block.transpose(1, 0, 2)).reshape(nx, kp1 * nx)
    return out


def _oracle_stack(ws, tilt=0):
    m, nx, k_max = ws.m, ws.x_nodes.size, ws.grid.n_steps
    out = np.empty((m, k_max + 1, nx, nx))
    for i in range(m):
        out[i, 0] = np.eye(nx)
        for l in range(1, k_max + 1):
            nodes, weights = _law_nodes_weights(ws.model, i, ws.x_nodes, float(ws.thetas[l]),
                                                ws.config.quad_order, tilt=tilt)
            mat, escape = _oracle_rule_matrix(ws.x_nodes, nodes, weights)
            ws._check_coverage(escape, f"state {i}, elapsed {ws.thetas[l]:.4g}")
            out[i, l] = mat
    weight = None
    if tilt:
        # the row weight is the discount moment's own no-switch table
        table = _zcb_spec(ws, tilt).table
        weight = np.stack([np.asarray(table(i, ws.x_nodes[:, None], ws.thetas)).T
                           for i in range(m)])
    return _oracle_pack(out, weight)


def _models():
    hw = HullWhiteParams(
        PiecewiseLinear([0.0, 0.3], [0.03, 0.06]),
        PiecewiseLinear([0.0, 0.3], [1.5, 0.8]),
        PiecewiseLinear([0.0, 0.3], [0.01, 0.025]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # attainable origin
        attainable = CIRParams(0.01, 1.0, 0.5)
    return {
        "vasicek": RegimeRateModel.vasicek([
            {"a": 1.0, "b": 0.02, "sigma": 0.015},
            {"a": 0.8, "b": 0.06, "sigma": 0.02},
        ]),
        "hull_white": RegimeRateModel.hull_white([hw, HullWhiteParams.from_constants(0.04, 1.0, 0.02)]),
        "cir_feller": RegimeRateModel.cir([CIRParams(0.04, 1.0, 0.1), CIRParams(0.05, 0.8, 0.12)]),
        "cir_attainable": RegimeRateModel.cir([attainable, CIRParams(0.04, 1.0, 0.1)]),
        "cir_noise_free": RegimeRateModel.cir([CIRParams(0.04, 1.0, 0.0), CIRParams(0.05, 0.8, 0.12)]),
    }


# K = 21 elapsed steps: one full chunk and a ragged one
CFG = SolverConfig(step=0.025, horizon=0.525, rate_nodes=31, quad_order=12,
                   reference_rate=0.03)


@pytest.fixture(scope="module")
def kernel():
    return alternating_kernel(SojournDistribution.weibull(2.0, 1.0),
                              SojournDistribution.exponential(1.5))


@pytest.mark.parametrize("name", sorted(_models()))
def test_packed_build_matches_oracle(kernel, name):
    assert CFG.time_grid().n_steps % _SCATTER_CHUNK != 0
    ws = LatticeWorkspace(kernel, _models()[name], CFG)
    for tilt in (0, 1, 2):
        built = ws.transfer(tilt)
        assert built.shape == (2, 31, 22 * 31)
        assert np.array_equal(built, _oracle_stack(ws, tilt=tilt)), (name, tilt)


@pytest.mark.parametrize("name", sorted(_models()))
def test_first_moment_law_is_the_same_on_lattice_and_point(kernel, name):
    ws = LatticeWorkspace(kernel, _models()[name], CFG)
    spec = _rate_spec(ws)
    k_max, nx = ws.grid.n_steps, ws.x_nodes.size
    vs = np.random.default_rng(5).uniform(-1.0, 1.0, (ws.m, nx))
    lattice = _Lattice(ws, spec)
    on_lattice = np.stack([lattice.law_m1(l, vs) for l in range(1, k_max + 1)])
    for i in range(ws.m):
        for p, x in enumerate(ws.x_nodes):
            point = _Point(ws, spec, i, 0.0, x, k_max)
            at_point = [point.law_m1(l, vs[i:i + 1])[0, 0] for l in range(1, k_max + 1)]
            assert np.array_equal(on_lattice[:, i, p], at_point), (name, i, p)
    # the law the first-moment stack held: rules scattered with weight w * y
    for l in range(1, k_max + 1):
        for i in range(ws.m):
            nodes, weights = _law_nodes_weights(ws.model, i, ws.x_nodes, float(ws.thetas[l]),
                                                ws.config.quad_order)
            blocks = _scatter(ws.x_nodes, nodes[None], (weights * nodes)[None])[0]
            assert np.allclose(on_lattice[l - 1, i], blocks @ vs[i], rtol=0.0, atol=1e-15)


def test_narrow_lattice_refusal_matches_oracle():
    # state 0 stays on the lattice; state 1 spreads off it at elapsed step
    # 17, inside the second scatter chunk
    kern = alternating_kernel(SojournDistribution.exponential(1.0),
                              SojournDistribution.exponential(1.0))
    model = RegimeRateModel.vasicek([
        {"a": 1.0, "b": 0.03, "sigma": 0.002},
        {"a": 0.5, "b": 0.03, "sigma": 0.03},
    ])
    cfg = SolverConfig(step=0.025, horizon=0.525, rate_nodes=31, quad_order=12,
                       reference_rate=0.03, rate_lo=-0.09, rate_hi=0.15)
    ws = LatticeWorkspace(kern, model, cfg)
    with pytest.raises(GridCoverageError) as oracle:
        _oracle_stack(ws)
    assert "at state 1, elapsed 0.425;" in str(oracle.value)
    with pytest.raises(GridCoverageError) as built:
        ws.transfer()
    assert str(built.value) == str(oracle.value)
