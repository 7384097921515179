import numpy as np
import pytest

from smrates import (
    BackwardState,
    CIRParams,
    EstimatorReport,
    RegimeRateModel,
    RngStream,
    SemiMarkovKernel,
    SojournDistribution,
    estimate_moments,
    estimate_rate_moments,
    estimate_state_occupancy,
    estimate_zcb_moment,
    simulate_batch,
    simulate_path,
)
from smrates.monte_carlo import _DrawPlan, _grid_nodes, _run_batch, _Skeleton, _walk
from smrates.rate_models import HULL_WHITE
from smrates.semi_markov import TimeGrid, transition_probabilities


def test_rngstream_reproducible_and_distinct():
    a = RngStream(42, 1).generator().standard_normal(8)
    b = RngStream(42, 1).generator().standard_normal(8)
    c = RngStream(42, 2).generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_path_reproducible(kern_testbed, vas_testbed, start0):
    p1 = simulate_path(kern_testbed, vas_testbed, start0, 0.03, 2.0, 0.01, RngStream(5))
    p2 = simulate_path(kern_testbed, vas_testbed, start0, 0.03, 2.0, 0.01, RngStream(5))
    assert np.array_equal(p1.times, p2.times)
    assert np.array_equal(p1.rates, p2.rates)
    assert np.array_equal(p1.integral, p2.integral)


def test_path_structure(kern_testbed, vas_testbed, start0):
    rec = simulate_path(kern_testbed, vas_testbed, start0, 0.03, 3.0, 0.01,
                        RngStream(6))
    assert rec.integral[0] == 0.0
    assert rec.jump_times.size > 0
    assert np.all(np.diff(rec.times) > 0)
    # every jump time is a grid node appearing exactly once, so the rate
    # is single-valued (continuous) through each switch
    for t in rec.jump_times:
        hits = np.flatnonzero(np.isclose(rec.times, t, atol=1e-12))
        assert hits.size == 1
    # states switch exactly at jump nodes
    switches = rec.times[np.flatnonzero(np.diff(rec.states) != 0) + 1]
    assert np.allclose(np.sort(switches), np.sort(rec.jump_times), atol=1e-12)


def test_path_horizon_zero(kern_testbed, vas_testbed, start0):
    rec = simulate_path(kern_testbed, vas_testbed, start0, 0.03, 0.0, 0.01,
                        RngStream(7))
    assert rec.times.tolist() == [0.0]
    assert rec.rates.tolist() == [0.03]
    assert rec.states.tolist() == [0]
    assert rec.jump_times.size == 0


def test_path_jump_states_alternate(kern_testbed, vas_testbed):
    rec = simulate_path(kern_testbed, vas_testbed, BackwardState(1, 0.3), 0.03,
                        4.0, 0.01, RngStream(5))
    assert rec.states[0] == 1
    assert rec.jump_times.size > 0
    assert np.all(np.diff(rec.jump_times) > 0)
    # alternating kernel: states flip at every jump
    assert np.all(np.abs(np.diff(np.concatenate([[1], rec.jump_states]))) == 1)


@pytest.mark.parametrize("model_name", ["vas_testbed", "cir_single"])
def test_path_is_a_one_path_batch(request, kern_testbed, kern_single, start0, model_name):
    # one engine: the path dump is the very numbers a one-path batch
    # computes from the same stream with a snapshot at every grid node
    model = request.getfixturevalue(model_name)
    kern = kern_testbed if model.n_states == 2 else kern_single
    rec = simulate_path(kern, model, start0, 0.03, 2.0, 0.01, RngStream(31, 2))
    grid = _grid_nodes(2.0, 0.01)
    rates, integ = simulate_batch(kern, model, start0, 0.03, grid, 0.01, RngStream(31, 2), 1)
    on_grid = np.isin(rec.times, grid)
    assert np.array_equal(rec.rates[on_grid], rates[:, 0])
    assert np.array_equal(rec.integral[on_grid], integ[:, 0])


def test_path_and_occupancy_walk_share_one_skeleton(kern_testbed):
    # with sigma = 0 no rate step draws, so the stream feeds the skeleton
    # alone: a path and a one-path occupancy walk on the same stream must
    # stand in the same regime after the same number of jumps
    model = RegimeRateModel.cir([CIRParams(0.04, 1.0, 0.0), CIRParams(0.02, 0.5, 0.0)])
    start = BackwardState(1, 0.3)
    jumps = 0
    for stream in range(8):
        rec = simulate_path(kern_testbed, model, start, 0.03, 3.0, 0.01, RngStream(41, stream))
        for t in (0.2, 1.0, 2.5, 3.0):
            state, count = _walk(kern_testbed, start, t,
                                 _DrawPlan(RngStream(41, stream).generator(), 1, False))
            assert state[0] == rec.states[np.searchsorted(rec.times, t, side="right") - 1]
            assert count[0] == np.count_nonzero(rec.jump_times <= t)
            jumps += count[0]
    assert jumps > 0


def test_self_renewals_are_recorded(kern_single, vas_single, start0):
    # P = [[1]]: every jump renews the one state without changing it
    rec = simulate_path(kern_single, vas_single, start0, 0.03, 3.0, 0.01,
                        RngStream(32))
    assert rec.jump_times.size > 0
    assert np.all(rec.jump_states == 0)
    assert np.all(np.isin(rec.jump_times, rec.times))


class _Clockwork(SemiMarkovKernel):
    """Alternating kernel whose sojourns all last exactly 0.5."""

    def sample_sojourns(self, states, age, u_next, u_wait):
        return 1 - states, np.full(states.shape, 0.5)


def test_jump_on_grid_node_is_one_node(vas_testbed, start0):
    g = SojournDistribution.exponential(1.0)
    kern = _Clockwork([[0.0, 1.0], [1.0, 0.0]], [[None, g], [g, None]])
    rec = simulate_path(kern, vas_testbed, start0, 0.03, 2.0, 0.25, RngStream(33))
    assert rec.times.tolist() == [0.25 * k for k in range(9)]
    assert rec.jump_times.tolist() == [0.5, 1.0, 1.5, 2.0]
    assert rec.states.tolist() == [0, 0, 1, 1, 0, 0, 1, 1, 0]


def test_noise_free_path_matches_flow(kern_single):
    det = RegimeRateModel.vasicek([{"a": 1.0, "b": 0.05, "sigma": 0.0}])
    rec = simulate_path(kern_single, det, BackwardState(0, 0.0), 0.03, 1.0, 0.01,
                        RngStream(8))
    flow = det.mean(0, 0.03, rec.times)
    assert np.abs(rec.rates - np.asarray(flow)).max() < 1e-14
    # the integral is drawn from its exact law, a point mass here, so the
    # path's integral is the analytic one at every node
    exact = np.asarray(det.integrated_mean(0, 0.03, rec.times))
    assert np.abs(rec.integral - exact).max() < 1e-15
    flat = RegimeRateModel.vasicek([{"a": 1.0, "b": 0.03, "sigma": 0.0}])
    rec2 = simulate_path(kern_single, flat, BackwardState(0, 0.0), 0.03, 1.0, 0.01,
                         RngStream(9))
    assert rec2.integral[-1] == pytest.approx(0.03, abs=1e-15)


def test_cir_integral_nondecreasing(kern_single, cir_single):
    rec = simulate_path(kern_single, cir_single, BackwardState(0, 0.0), 0.03,
                        2.0, 0.01, RngStream(10))
    assert np.all(np.diff(rec.integral) >= 0)
    assert np.all(rec.rates >= 0)


def test_batch_reproducible(kern_testbed, vas_testbed, start0):
    r1, i1 = simulate_batch(kern_testbed, vas_testbed, start0, 0.03, [0.5, 1.0],
                            0.01, RngStream(11), 500)
    r2, i2 = simulate_batch(kern_testbed, vas_testbed, start0, 0.03, [0.5, 1.0],
                            0.01, RngStream(11), 500)
    assert np.array_equal(r1, r2)
    assert np.array_equal(i1, i2)


def test_batch_single_regime_against_closed_form(kern_single, vas_single, start0):
    n = 100000
    rates, integ = simulate_batch(kern_single, vas_single, start0, 0.03,
                                  [1.0], 0.01, RngStream(12), n)
    m = rates[0].mean()
    se = rates[0].std(ddof=1) / np.sqrt(n)
    assert abs(m - vas_single.mean(0, 0.03, 1.0)) < 3 * se
    v = np.exp(-integ[0])
    se_v = v.std(ddof=1) / np.sqrt(n)
    assert abs(v.mean() - vas_single.bond_laplace(0, 0.03, 1, 1.0)) < 3 * se_v


def test_estimator_trivials(kern_single, vas_single, start0):
    rep = estimate_zcb_moment(kern_single, vas_single, start0, 0.03, 1, 0.0,
                              500, 13)
    assert rep.estimate == 1.0
    assert rep.std_error == 0.0
    with pytest.raises(ValueError):
        estimate_zcb_moment(kern_single, vas_single, start0, 0.03, 1, 1.0, 10, 13)


def test_rate_moments_lag_zero_same_sample(kern_testbed, vas_testbed, start0):
    mean_rep, prod_rep = estimate_rate_moments(kern_testbed, vas_testbed, start0,
                                               0.03, 1.0, 0.0, 2000, 14)
    # at h = 0 the product is the second moment of the same draws
    again_mean, again_prod = estimate_rate_moments(kern_testbed, vas_testbed,
                                                   start0, 0.03, 1.0, 0.0, 2000, 14)
    assert prod_rep.estimate == again_prod.estimate
    assert prod_rep.estimate >= mean_rep.estimate ** 2


def test_se_scaling(kern_testbed, vas_testbed, start0):
    small = estimate_zcb_moment(kern_testbed, vas_testbed, start0, 0.03, 1, 1.0,
                                20000, 15)
    big = estimate_zcb_moment(kern_testbed, vas_testbed, start0, 0.03, 1, 1.0,
                              80000, 15)
    ratio = small.std_error / big.std_error
    assert abs(ratio - 2.0) < 0.4


def test_antithetic_gaussian_only(kern_testbed, vas_testbed, cir_single,
                                  kern_single, start0):
    plain = estimate_zcb_moment(kern_testbed, vas_testbed, start0, 0.03, 1, 1.0,
                                20000, 16)
    anti = estimate_zcb_moment(kern_testbed, vas_testbed, start0, 0.03, 1, 1.0,
                               20000, 16, antithetic=True)
    assert anti.std_error < plain.std_error
    with pytest.raises(ValueError):
        estimate_zcb_moment(kern_single, cir_single, start0, 0.03, 1, 1.0,
                            1000, 16, antithetic=True)


def test_antithetic_is_unbiased(kern_testbed, vas_testbed, start0):
    anti = estimate_zcb_moment(kern_testbed, vas_testbed, start0, 0.03, 1, 1.0,
                               40000, 17, antithetic=True)
    plain = estimate_zcb_moment(kern_testbed, vas_testbed, start0, 0.03, 1, 1.0,
                                200000, 18)
    z = (anti.estimate - plain.estimate) / np.hypot(anti.std_error, plain.std_error)
    assert abs(z) < 4


def _hand_report(samples):
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(samples.size))


@pytest.mark.parametrize("antithetic", [False, True])
def test_zcb_estimator_is_its_batch_plus_the_formula(kern_testbed, vas_testbed, antithetic):
    start = BackwardState(0, 0.5)
    rep = estimate_zcb_moment(kern_testbed, vas_testbed, start, 0.03, 2, 0.75, 600, 31,
                              step=0.02, antithetic=antithetic)
    _, integ = simulate_batch(kern_testbed, vas_testbed, start, 0.03, [0.75], 0.02,
                              RngStream(31), 600, antithetic=antithetic)
    samples = np.exp(-2 * integ[0])
    if antithetic:
        samples = 0.5 * (samples[:300] + samples[300:])
    assert (rep.estimate, rep.std_error) == _hand_report(samples)
    assert rep.replications == samples.size
    assert rep.target == {"quantity": "zcb_moment", "order": 2, "state": 0, "age": 0.5,
                          "r0": 0.03, "s": 0.75}


@pytest.mark.parametrize("lag", [0.0, 0.5])
def test_rate_estimators_are_their_batch_plus_the_formula(kern_testbed, vas_testbed,
                                                          start0, lag):
    mean_rep, prod_rep = estimate_rate_moments(kern_testbed, vas_testbed, start0, 0.03,
                                               1.0, lag, 700, 32, step=0.02)
    snaps = [1.0] if lag == 0 else [1.0, 1.0 + lag]
    rates, _ = simulate_batch(kern_testbed, vas_testbed, start0, 0.03, snaps, 0.02,
                              RngStream(32), 700)
    assert (mean_rep.estimate, mean_rep.std_error) == _hand_report(rates[0])
    assert (prod_rep.estimate, prod_rep.std_error) == _hand_report(rates[0] * rates[-1])
    assert prod_rep.target["lag"] == lag and mean_rep.target["quantity"] == "rate_mean"


def test_estimate_moments_reads_prefixes_of_one_batch(kern_testbed, vas_testbed, start0):
    targets = [{"quantity": "product_moment", "s": 0.5, "lag": 0.5, "reps": 400},
               {"quantity": "zcb_moment", "order": 1, "s": 1.0, "reps": 250},
               {"quantity": "rate_mean", "s": 0.5, "reps": 400}]
    prod, zcb, mean = estimate_moments(kern_testbed, vas_testbed, start0, 0.03, targets,
                                       33, step=0.02)
    rates, integ = simulate_batch(kern_testbed, vas_testbed, start0, 0.03, [0.5, 1.0],
                                  0.02, RngStream(33), 400)
    assert (prod.estimate, prod.std_error) == _hand_report(rates[0] * rates[1])
    assert (zcb.estimate, zcb.std_error) == _hand_report(np.exp(-integ[1, :250]))
    assert (mean.estimate, mean.std_error) == _hand_report(rates[0])
    assert (zcb.replications, mean.replications) == (250, 400)
    with pytest.raises(ValueError, match="one replication count"):
        estimate_moments(kern_testbed, vas_testbed, start0, 0.03, targets, 33,
                         antithetic=True)
    with pytest.raises(ValueError, match="unknown quantity"):
        estimate_moments(kern_testbed, vas_testbed, start0, 0.03,
                         [{"quantity": "sharpe_ratio", "s": 1.0, "reps": 400}], 33)
    assert estimate_moments(kern_testbed, vas_testbed, start0, 0.03, [], 33) == []


def test_occupancy_matches_transition_probabilities(kern_testbed, start0):
    grid = TimeGrid(0.005, 1.0)
    phi = transition_probabilities(kern_testbed, grid)
    freqs, ses = estimate_state_occupancy(kern_testbed, start0, 1.0, 200000, 19)
    assert np.all(np.abs(freqs - phi[-1, 0]) <= 3 * ses)


def test_cir_batch_moments(kern_single, cir_single, start0):
    n = 100000
    rates, _ = simulate_batch(kern_single, cir_single, start0, 0.03, [0.8], 0.01,
                              RngStream(20), n)
    m = rates[0].mean()
    se = rates[0].std(ddof=1) / np.sqrt(n)
    assert abs(m - cir_single.mean(0, 0.03, 0.8)) < 3 * se
    assert rates[0].min() >= 0.0


def test_report_round_trip():
    rep = EstimatorReport(1.0, 0.1, 100, 7, {"quantity": "zcb_moment"})
    d = rep.to_dict()
    assert d["estimate"] == 1.0 and d["target"]["quantity"] == "zcb_moment"
    assert rep.z_score(1.05) == pytest.approx(-0.5)


def test_rate_moments_single_regime_product_oracle(kern_single, vas_single, start0):
    mean_rep, prod_rep = estimate_rate_moments(kern_single, vas_single, start0,
                                               0.03, 1.0, 0.5, 100000, 23)
    rho = vas_single.product_mean(0, 0.03, 1.0, 0.5)
    assert abs(prod_rep.z_score(rho)) < 3
    assert abs(mean_rep.z_score(vas_single.mean(0, 0.03, 1.0))) < 3


def test_absorbing_start_stays_put():
    g = SojournDistribution.exponential(1.0)
    kern = SemiMarkovKernel([[0.0, 1.0], [0.0, 0.0]], [[None, g], [None, None]])
    model = RegimeRateModel.vasicek([
        {"a": 1.0, "b": 0.02, "sigma": 0.01},
        {"a": 1.0, "b": 0.08, "sigma": 0.01},
    ])
    start = BackwardState(1, 0.0)   # absorbing regime
    rates, _ = simulate_batch(kern, model, start, 0.03, [1.0], 0.01,
                              RngStream(40), 20000)
    se = rates[0].std(ddof=1) / np.sqrt(20000)
    assert abs(rates[0].mean() - model.mean(1, 0.03, 1.0)) < 3 * se
    rec = simulate_path(kern, model, start, 0.03, 1.0, 0.01, RngStream(41))
    assert np.all(rec.states == 1)


def test_hull_white_batch_constant_matches_vasicek(kern_testbed, vas_testbed, start0):
    from smrates import HullWhiteParams

    hw = RegimeRateModel.hull_white([
        HullWhiteParams.from_constants(1.0 * 0.02, 1.0, 0.015),
        HullWhiteParams.from_constants(0.8 * 0.06, 0.8, 0.02),
    ])
    r_v, i_v = simulate_batch(kern_testbed, vas_testbed, start0, 0.03, [1.0],
                              0.01, RngStream(44), 2000)
    r_h, i_h = simulate_batch(kern_testbed, hw, start0, 0.03, [1.0],
                              0.01, RngStream(44), 2000)
    # same seed, same draws: the two parameterizations are the same law,
    # so the paths agree to quadrature precision
    assert np.abs(r_v - r_h).max() < 1e-9
    assert np.abs(i_v - i_h).max() < 1e-9


def test_hull_white_batch_time_varying_moments():
    from smrates import HullWhiteParams, PiecewiseLinear

    p = HullWhiteParams(
        PiecewiseLinear([0.0, 1.0], [0.03, 0.06]),
        PiecewiseLinear([0.0, 1.0], [1.5, 0.8]),
        PiecewiseLinear([0.0, 1.0], [0.01, 0.03]),
    )
    hw = RegimeRateModel.hull_white([p])
    # renewals restart the regime-local clock, so compare against the
    # uninterrupted law on a state that never renews
    kern = SemiMarkovKernel([[0.0]], [[None]])
    n = 40000
    rates, _ = simulate_batch(kern, hw, BackwardState(0, 0.0), 0.03,
                              [0.9], 0.01, RngStream(45), n)
    m_exp = hw.mean(0, 0.03, 0.9)
    v_exp = hw.variance(0, 0.03, 0.9)
    se_m = rates[0].std(ddof=1) / np.sqrt(n)
    assert abs(rates[0].mean() - m_exp) < 3 * se_m
    se_v = np.sqrt(np.var((rates[0] - m_exp) ** 2) / n)
    assert abs(rates[0].var() - v_exp) < 4 * se_v


def test_path_records_its_stream(kern_testbed, vas_testbed, start0):
    rec = simulate_path(kern_testbed, vas_testbed, start0, 0.03, 1.0, 0.01,
                        RngStream(77, 3))
    assert rec.seed == (77, 3)


# ---------------------------------------------------------------------------
# the batch engine against the masked engine
# ---------------------------------------------------------------------------

def _masked_run_batch(kernel, model, start, r0, nodes, plan):
    """The oracle: the batch engine as a masked march.  Every advance
    steps the whole batch, or a boolean mask of it, in one ``model.step``
    call with a dt per path, and a jump switches the masked paths; the
    draws come in the same order as in ``_run_batch``: a Gaussian advance
    draws the rate's normals, then the integral's, and adds the integral
    drawn with the rate, and CIR adds the trapezoid."""
    n = plan.n
    cur_r = np.full(n, float(r0))
    cur_i = np.zeros(n)
    cur_t = np.zeros(n)
    reg_start = np.zeros(n)
    skel = _Skeleton(kernel, start, plan)

    def jump(mask):
        skel.state[mask] = skel.next_state[mask]
        u_next = plan.uniform(np.flatnonzero(mask))
        u_wait = plan.uniform(np.flatnonzero(mask))
        skel.next_state[mask], wait = kernel.sample_sojourns(skel.state[mask], 0.0,
                                                             u_next, u_wait)
        skel.next_jump[mask] += wait

    def advance(target, mask):
        nonlocal cur_r, cur_i, cur_t
        dt = np.where(mask, target - cur_t, 0.0)
        r_prev = cur_r
        local_t0 = cur_t - reg_start if model.kind == HULL_WHITE else 0.0
        whole = mask.all()
        if not model.gaussian_transition:
            if whole:
                cur_r = model.step(skel.state, cur_r, dt, plan.gen, t0=local_t0)
            else:
                cur_r = cur_r.copy()
                cur_r[mask] = model.step(skel.state[mask], r_prev[mask], dt[mask], plan.gen,
                                         t0=local_t0[mask] if np.ndim(local_t0) else local_t0)
            cur_i = cur_i + 0.5 * (r_prev + cur_r) * dt
        else:
            sel = None if whole else np.flatnonzero(mask)
            z, z_int = plan.normal(sel), plan.normal(sel)
            sel = slice(None) if whole else mask
            cur_r, cur_i = cur_r.copy(), cur_i.copy()
            cur_r[sel], step_i = model.step(skel.state[sel], r_prev[sel], dt[sel], plan.gen,
                                            t0=local_t0[sel] if np.ndim(local_t0) else local_t0,
                                            z=z, z_integral=z_int)
            cur_i[sel] = cur_i[sel] + step_i
        cur_t = np.where(mask, target, cur_t)

    all_mask = np.ones(n, dtype=bool)
    for tb in nodes:
        while True:
            jumping = skel.next_jump <= tb
            if not jumping.any():
                break
            advance(np.where(jumping, skel.next_jump, cur_t), jumping)
            jump(jumping)
            reg_start[jumping] = cur_t[jumping]
            yield jumping, cur_t, cur_r, cur_i, skel.state
        advance(np.full(n, tb), all_mask)
        yield None, cur_t, cur_r, cur_i, skel.state


def _hull_white_two_regimes():
    from smrates import HullWhiteParams, PiecewiseLinear

    return RegimeRateModel.hull_white([
        HullWhiteParams(PiecewiseLinear([0.0, 0.4], [0.02, 0.05]),
                        PiecewiseLinear([0.0, 0.4], [1.0, 0.6]),
                        PiecewiseLinear([0.0, 0.4], [0.015, 0.025])),
        HullWhiteParams.from_constants(0.048, 0.8, 0.02)])


@pytest.mark.parametrize("case", ["vasicek 1", "vasicek 2", "hull-white", "cir 1", "cir 2",
                                  "antithetic", "aged", "jump on a node", "snapshot by a node"])
def test_batch_engine_matches_masked_engine(case, kern_single, kern_testbed, vas_single,
                                            vas_testbed, cir_single):
    # the per-regime node step and the indexed jump substeps compute every
    # yield of the masked engine bit for bit
    kernel, model, start, antithetic = kern_testbed, vas_testbed, BackwardState(1, 0.0), False
    nodes = _grid_nodes(1.2, 0.05, [0.3, 0.77])
    if case == "vasicek 1":
        kernel, model, start = kern_single, vas_single, BackwardState(0, 0.0)
    elif case == "hull-white":
        model = _hull_white_two_regimes()
    elif case == "cir 1":
        kernel, model, start = kern_single, cir_single, BackwardState(0, 0.0)
    elif case == "cir 2":
        model = RegimeRateModel.cir([CIRParams(0.04, 1.0, 0.1), CIRParams(0.02, 0.5, 0.08)])
    elif case == "antithetic":
        antithetic = True
    elif case == "aged":
        start = BackwardState(0, 0.7)
    elif case == "jump on a node":
        g = SojournDistribution.exponential(1.0)
        kernel = _Clockwork([[0.0, 1.0], [1.0, 0.0]], [[None, g], [g, None]])
    elif case == "snapshot by a node":
        # a node 5e-16 past another: the step between them is below the
        # still threshold, so no rate moves across it
        nodes = _grid_nodes(1.2, 0.05, [0.5 + 5e-16])
        assert np.diff(nodes).min() < 1e-15
    engines = [engine(kernel, model, start, 0.03, nodes,
                      _DrawPlan(RngStream(46, 2).generator(), 400, antithetic))
               for engine in (_run_batch, _masked_run_batch)]
    jumps, on_node, at_node = 0, False, {}
    for (jumped, *arrays), (mask, *expected) in zip(*engines, strict=True):
        assert (jumped is None) == (mask is None)
        if mask is None:
            at_node[float(arrays[0][0])] = arrays[1].copy()
        else:
            assert np.array_equal(jumped, np.flatnonzero(mask))
            jumps += jumped.size
            on_node |= bool(np.isin(arrays[0][jumped], nodes).any())
        for got, want in zip(arrays, expected):
            assert np.array_equal(got, want)
    assert jumps > 0 and list(at_node) == nodes.tolist()
    if case == "jump on a node":
        assert on_node
    if case == "snapshot by a node":
        close = np.flatnonzero(np.diff(nodes) < 1e-15)[0]
        assert np.array_equal(at_node[nodes[close]], at_node[nodes[close + 1]])


def test_antithetic_pairs_negate_both_normals(vas_single):
    # in a regime that never switches, a path's rate and integral are
    # their means plus a fixed multiple of each normal: a pair sums to
    # twice the mean only if the rate's and the integral's normals are
    # both negated
    kern = SemiMarkovKernel([[0.0]], [[None]])
    rates, integ = simulate_batch(kern, vas_single, BackwardState(0, 0.0), 0.03, [0.5, 1.0],
                                  0.01, RngStream(49), 2000, antithetic=True)
    for row, s in enumerate((0.5, 1.0)):
        pair_r = rates[row, :1000] + rates[row, 1000:]
        pair_i = integ[row, :1000] + integ[row, 1000:]
        assert np.abs(pair_r - 2 * vas_single.mean(0, 0.03, s)).max() < 1e-15
        assert np.abs(pair_i - 2 * vas_single.integrated_mean(0, 0.03, s)).max() < 1e-15


@pytest.mark.parametrize("kind", ["vasicek", "hull-white", "cir"])
def test_batch_steps_only_to_snapshots_and_jumps(monkeypatch, kern_testbed, vas_testbed,
                                                 start0, kind):
    # a Gaussian batch draws the integral with the rate, so it stands on
    # no node but its snapshot times; CIR keeps the trapezoid's grid
    model = {"vasicek": vas_testbed, "hull-white": _hull_white_two_regimes(),
             "cir": RegimeRateModel.cir([CIRParams(0.04, 1.0, 0.1),
                                         CIRParams(0.02, 0.5, 0.08)])}[kind]
    node_times, jump_waves = [], []

    def recorded(*args):
        for jumped, times, *rest in _run_batch(*args):
            if jumped is None:
                node_times.append(float(times[0]))
            else:
                jump_waves.append(jumped.size)
            yield (jumped, times, *rest)

    monkeypatch.setattr("smrates.monte_carlo._run_batch", recorded)
    simulate_batch(kern_testbed, model, start0, 0.03, [1.0, 0.5, 1.5, 1.0], 0.01,
                   RngStream(48), 300)
    expected = [0.5, 1.0, 1.5] if model.gaussian_transition else _grid_nodes(1.5, 0.01).tolist()
    assert node_times == expected
    assert len(jump_waves) > 0


def test_node_advance_steps_each_regime_once(kern_testbed, vas_testbed, monkeypatch):
    # a Vasicek node advance moves the paths still on the previous node
    # with one shared-dt call per regime, plus at most one call for the
    # paths a jump moved off it
    calls = []
    real = vas_testbed.step

    def counted(i, r, dt, rng, t0=0.0, z=None, z_integral=None):
        calls.append((np.ndim(i), np.ndim(dt), np.size(r)))
        return real(i, r, dt, rng, t0=t0, z=z, z_integral=z_integral)

    monkeypatch.setattr(vas_testbed, "step", counted)
    n = 2000
    nodes = _grid_nodes(1.0, 0.01)
    off_node = 0
    for jumped, *_ in _run_batch(kern_testbed, vas_testbed, BackwardState(0, 0.0), 0.03,
                                 nodes, _DrawPlan(RngStream(47).generator(), n, False)):
        if jumped is not None:
            assert calls == [(1, 1, jumped.size)]   # one substep of the jumping paths
        else:
            shared = [c for c in calls if c[:2] == (0, 0)]
            own = [c for c in calls if c[:2] != (0, 0)]
            assert 1 <= len(shared) <= vas_testbed.n_states
            assert [c[:2] for c in own] in ([], [(1, 1)])
            assert sum(c[2] for c in calls) == n
            off_node += bool(own)
        calls.clear()
    assert off_node > 0
