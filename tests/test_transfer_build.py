"""The packed transfer build against a per-elapsed-time oracle.

The build asks for the rules of a whole chunk of elapsed times in one
call and scatters them in one pass.  The oracle builds every (state,
elapsed time) rule in its own call, scatters it with two np.add.at
passes, stacks the results as (m, K+1, Nx, Nx) and packs them into the
march layout, folding the no-switch discount (``model.bond_laplace``)
into the rows of a tilted stack.  The chunked build must give the same
bits, and so must a build of the same lags split into ranges anywhere.

The plain (tilt-0) rules fetched as a build does (a chunk of elapsed
times at every lattice rate) and as the aged pass does (one rate, every
elapsed time) must give the same bits, and their moments must be the
affine law that the rate moments' coefficient marches read instead of
any rule.
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
    solve_zcb_moment,
)
from smrates.moment_engine import (
    _SCATTER_CHUNK,
    _cell,
    _horner,
    _law_maps,
    _law_nodes_weights,
    build_rate_grid,
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
            ws._check_coverage(escape[None, ws._core], i, ws.thetas[l:l + 1])
            out[i, l] = mat
    weight = None
    if tilt:
        # the row weight is the no-switch discount E[exp(-tilt int_0^theta r)]
        weight = np.stack([np.asarray(ws.model.bond_laplace(i, ws.x_nodes[:, None], tilt,
                                                            ws.thetas)).T
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
        attainable = CIRParams(0.002, 1.0, 0.1)        # df 0.8
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
        built = ws.transfer(tilt, 0, 22)
        assert built.shape == (2, 31, 22 * 31)
        assert np.array_equal(built, _oracle_stack(ws, tilt=tilt)), (name, tilt)


@pytest.mark.parametrize("name", sorted(_models()))
def test_range_builds_are_the_whole_build(kernel, name):
    # the march builds its held lags in one call and the later ones a
    # chunk at a time; any split of [0, K+1) into ranges gives the bits of
    # the one call, at every tilt
    ws = LatticeWorkspace(kernel, _models()[name], CFG)
    nx, kp1 = ws.x_nodes.size, ws.thetas.size
    for tilt in (0, 1, 2):
        whole = ws.transfer(tilt, 0, kp1)
        for cuts in ([1], [5, 17], [16, 17, 18], [2, 3, 9, 20, 21]):
            edges = [0, *cuts, kp1]
            parts = [ws.transfer(tilt, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
            for (lo, hi), part in zip(zip(edges[:-1], edges[1:]), parts):
                assert part.shape == (ws.m, nx, (hi - lo) * nx)
            assert np.array_equal(np.concatenate(parts, axis=2), whole), (name, tilt, cuts)


@pytest.mark.parametrize("name", ["vasicek", "hull_white", "cir_feller"])
def test_cell_is_the_searchsorted_cell(name):
    # the scatter finds a node's cell by arithmetic on the uniform lattice;
    # at and next to every node, at cell midpoints, at the ends and
    # outside them it is the cell a search finds
    model = _models()[name]
    x = build_rate_grid(model, CFG)
    nx, lo, hi = x.size, x[0], x[-1]
    assert np.array_equal(x, np.linspace(lo, hi, CFG.rate_nodes))
    if model.kind == "cir":
        assert lo == 0.0   # the auto-sized lattice is clipped at the origin
    y = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
                        0.5 * (x[1:] + x[:-1]), [lo, hi, lo - 1.0, hi + 1.0, 2.0 * lo - hi,
                                                 2.0 * hi - lo]])
    searched = np.clip(np.searchsorted(x, y, side="right") - 1, 0, nx - 2)
    assert np.array_equal(_cell(x, y), searched), name
    # the scatter reads it on the clipped nodes
    clipped = np.clip(y, lo, hi)
    assert np.array_equal(_cell(x, clipped),
                          np.clip(np.searchsorted(x, clipped, side="right") - 1, 0, nx - 2))


@pytest.mark.parametrize("name", sorted(_models()))
def test_first_moment_law_is_the_same_on_lattice_and_point(kernel, name):
    # the plain rules, a chunk of elapsed times at every lattice rate (the
    # build's call) and every elapsed time at one rate (the aged pass's
    # call), are the same bits; their mass, mean and second moment are the
    # columns of _law_maps, exactly for the Gaussian kinds and within the
    # chi-square rule's moment error for CIR (README: 1.1e-7 relative)
    ws = LatticeWorkspace(kernel, _models()[name], CFG)
    model, order = ws.model, ws.config.quad_order
    rtol = 2e-7 if model.kind == "cir" else 1e-13
    for i in range(ws.m):
        chunks = [_law_nodes_weights(model, i, ws.x_nodes,
                                     ws.thetas[l0:l0 + _SCATTER_CHUNK, None], order)
                  for l0 in range(1, ws.thetas.size, _SCATTER_CHUNK)]
        nodes, weights = (np.concatenate(part) for part in zip(*chunks))
        for p, x in enumerate(ws.x_nodes):
            at_point = _law_nodes_weights(model, i, x, ws.thetas[1:], order)
            assert np.array_equal(nodes[:, p], at_point[0]), (name, i, p)
            assert np.array_equal(weights[:, p], at_point[1]), (name, i, p)
        maps = _law_maps(model, i, ws.thetas[1:])
        for e in range(3):
            moment = np.asarray(_horner(maps[:, None, :, e], ws.x_nodes))
            assert np.allclose((weights * nodes ** e).sum(axis=-1), moment,
                               rtol=rtol, atol=1e-15), (name, i, e)


def test_extreme_attainable_regime_refusal_matches_oracle(kernel):
    # df 0.16: the chi-square rule sees the law's real tail, and 1.6e-5 of
    # it escapes the auto-sized lattice, above coverage_tol; the build and
    # the oracle refuse it with the same message
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = RegimeRateModel.cir([CIRParams(0.01, 1.0, 0.5), CIRParams(0.04, 1.0, 0.1)])
    ws = LatticeWorkspace(kernel, model, CFG)
    with pytest.raises(GridCoverageError) as oracle:
        _oracle_stack(ws)
    assert "at state 0, elapsed" in str(oracle.value)
    with pytest.raises(GridCoverageError) as built:
        ws.transfer(0, 0, ws.thetas.size)
    assert str(built.value) == str(oracle.value)


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
        ws.transfer(0, 0, ws.thetas.size)
    assert str(built.value) == str(oracle.value)
    # the march holds lags 0..16 (K = 21 splits at b = 16) and refuses the
    # escape from the chunk it builds past the split
    with pytest.raises(GridCoverageError, match="at state 1, elapsed 0.425;"):
        solve_zcb_moment(1, kern, model, cfg, workspace=ws)


def test_hull_white_chunk_reads_one_step_integrals_call(kernel, monkeypatch):
    # every law a chunk needs (tilted mean, variance; the affine maps; the
    # discount row weight) comes from one six-sum pass over its times
    calls = []
    step_integrals = HullWhiteParams.step_integrals
    monkeypatch.setattr(HullWhiteParams, "step_integrals",
                        lambda p, t0, dt: calls.append(np.shape(dt)) or step_integrals(p, t0, dt))
    ws = LatticeWorkspace(kernel, _models()["hull_white"], CFG)
    chunk = ws.thetas[1:1 + _SCATTER_CHUNK, None]
    for tilt in (0, 1, 2):
        calls.clear()
        _law_nodes_weights(ws.model, 0, ws.x_nodes, chunk, CFG.quad_order, tilt=tilt)
        assert calls == [(_SCATTER_CHUNK, 1)], tilt
        calls.clear()
        ws.transfer(tilt, 0, ws.thetas.size)
        chunks = -(-(ws.thetas.size - 1) // _SCATTER_CHUNK)
        assert len(calls) == ws.m * (chunks + (tilt > 0)), tilt
    calls.clear()
    _law_maps(ws.model, 0, ws.thetas)
    ws.model.bond_laplace(0, ws.x_nodes[:, None], 1, ws.thetas)
    assert calls == [ws.thetas.shape] * 2
