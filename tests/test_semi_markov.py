import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats
from scipy.integrate import quad
from scipy.linalg import expm

from smrates import (
    BackwardState,
    DegenerateBackwardError,
    NumericsError,
    RngStream,
    SemiMarkovKernel,
    SojournDistribution,
    TimeGrid,
    alternating_kernel,
    backward_transition_probabilities,
    estimate_state_occupancy,
    transition_probabilities,
)
from smrates.monte_carlo import _DrawPlan, _walk


def two_state_mixed():
    return SemiMarkovKernel(
        [[0.0, 1.0], [1.0, 0.0]],
        [
            [None, SojournDistribution.exponential(2.0)],
            [SojournDistribution.weibull(2.0, 1.0), None],
        ],
    )


# ---------------------------------------------------------------------------
# kernel entries
# ---------------------------------------------------------------------------

def test_kernel_validation():
    g = SojournDistribution.exponential(1.0)
    with pytest.raises(ValueError):
        SemiMarkovKernel([[0.5, 0.4], [1.0, 0.0]], [[None, g], [g, None]])
    with pytest.raises(ValueError):
        # self-transitions excluded for m >= 2
        SemiMarkovKernel([[0.5, 0.5], [1.0, 0.0]], [[g, g], [g, None]])
    with pytest.raises(ValueError):
        # missing sojourn on a used edge
        SemiMarkovKernel([[0.0, 1.0], [1.0, 0.0]], [[None, None], [g, None]])
    with pytest.raises(ValueError):
        SemiMarkovKernel([[0.0, 1.0]], [[None, g]])


def test_absorbing_row_allowed():
    g = SojournDistribution.exponential(1.0)
    kern = SemiMarkovKernel([[0.0, 1.0], [0.0, 0.0]], [[None, g], [None, None]])
    assert kern.is_absorbing(1)
    assert kern.holding_cdf(1, 10.0) == 0.0


def test_kernel_cdf_examples():
    kern = SemiMarkovKernel(
        [[0.0, 0.4, 0.6], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        [
            [None, SojournDistribution.exponential(2.0), SojournDistribution.weibull(2.0, 1.0)],
            [SojournDistribution.exponential(1.0), None, None],
            [SojournDistribution.gamma(2.0, 1.0), None, None],
        ],
    )
    assert kern.cdf(0, 1, 0.0) == 0.0
    # limit is p_ij
    assert kern.cdf(0, 1, 200.0) == pytest.approx(0.4, abs=1e-12)
    # frozen: 0.4 * (1 - exp(-2)), cross-checked by integrating the density
    assert kern.cdf(0, 1, 1.0) == pytest.approx(0.34586588670535495, abs=1e-12)
    num, _ = quad(lambda t: kern.density(0, 1, t), 0.0, 1.0)
    assert kern.cdf(0, 1, 1.0) == pytest.approx(num, abs=1e-10)
    with pytest.raises(ValueError):
        kern.cdf(0, 3, 1.0)


def test_kernel_density_examples():
    kern = two_state_mixed()
    # edge with p_12 = 0.4 and exponential(2): density 0.4 * 2 * exp(-2t),
    # frozen at t = 0.5
    kern2 = SemiMarkovKernel(
        [[0.0, 0.4, 0.6], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        [
            [None, SojournDistribution.exponential(2.0), SojournDistribution.exponential(1.0)],
            [SojournDistribution.exponential(1.0), None, None],
            [SojournDistribution.exponential(1.0), None, None],
        ],
    )
    assert kern2.density(0, 1, 0.5) == pytest.approx(0.29430355293715387, abs=1e-12)
    eps = 1e-6
    fd = (kern2.cdf(0, 1, 0.5 + eps) - kern2.cdf(0, 1, 0.5 - eps)) / (2 * eps)
    assert kern2.density(0, 1, 0.5) == pytest.approx(fd, rel=1e-6)
    # zero edge stays zero
    assert kern.density(0, 0, 0.7) == 0.0
    # density integrates to p_ij
    total, _ = quad(lambda t: kern2.density(0, 1, t), 0.0, np.inf, limit=200)
    assert total == pytest.approx(0.4, abs=1e-6)


def test_holding_cdf_examples(kern_single):
    kern = two_state_mixed()
    assert kern.holding_cdf(0, 0.0) == 0.0
    assert kern_single.holding_cdf(0, 1.0) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)
    assert kern.holding_cdf(0, 100.0) == pytest.approx(1.0, abs=1e-10)
    ts = np.linspace(0, 5, 200)
    assert np.all(np.diff(kern.holding_cdf(0, ts)) >= -1e-15)
    assert np.all(np.diff(np.asarray(kern.cdf(1, 0, ts))) >= -1e-15)


# ---------------------------------------------------------------------------
# interval transition probabilities
# ---------------------------------------------------------------------------

def test_phi_identity_and_single_state(kern_single):
    grid = TimeGrid(0.01, 2.0)
    phi = transition_probabilities(kern_single, grid)
    assert np.allclose(phi[:, 0, 0], 1.0, atol=1e-12)

    kern = two_state_mixed()
    phi2 = transition_probabilities(kern, grid)
    assert np.array_equal(phi2[0], np.eye(2))
    assert np.abs(phi2.sum(axis=2) - 1.0).max() < 1e-6


def test_phi_alternating_exponential_oracle(kern_alt_exp):
    # alternating exponential(1) switching is a two-state Markov chain;
    # cross-check against its matrix exponential
    grid = TimeGrid(0.005, 5.0)
    phi = transition_probabilities(kern_alt_exp, grid)
    gen = np.array([[-1.0, 1.0], [1.0, -1.0]])
    worst = 0.0
    for t in (0.5, 1.0, 2.5, 5.0):
        k = grid.index_of(t)
        worst = max(worst, np.abs(phi[k] - expm(gen * t)).max())
    assert worst < 1e-4
    k1 = grid.index_of(1.0)
    assert phi[k1, 0, 0] == pytest.approx((1.0 + np.exp(-2.0)) / 2.0, abs=1e-4)


def test_phi_singular_density_at_origin():
    # shape < 1 puts an infinite density at 0; the march integrates the
    # kernel through its cdf and truncated mean, so it needs no density
    grid = TimeGrid(0.01, 1.0)
    for family in ("weibull", "gamma"):
        for shape in (0.5, 0.8):
            g = getattr(SojournDistribution, family)(shape, 1.0)
            kern = alternating_kernel(g, g)
            phi = transition_probabilities(kern, grid)
            assert np.abs(phi.sum(axis=2) - 1.0).max() < 1e-13
            aged0 = backward_transition_probabilities(kern, 0.0, grid, phi)
            assert np.abs(aged0 - phi).max() < 1e-13
            freqs, ses = estimate_state_occupancy(kern, BackwardState(0, 0.0), 1.0,
                                                  400000, 29)
            assert np.all(np.abs(freqs - phi[-1, 0]) <= 3 * ses)


def test_backward_degeneracy(kern_testbed):
    grid = TimeGrid(0.01, 2.0)
    phi = transition_probabilities(kern_testbed, grid)
    aged0 = backward_transition_probabilities(kern_testbed, 0.0, grid, phi)
    assert np.abs(aged0 - phi).max() <= 1e-10


def test_backward_rows_and_identity(kern_testbed):
    grid = TimeGrid(0.01, 1.5)
    phi = transition_probabilities(kern_testbed, grid)
    aged = backward_transition_probabilities(kern_testbed, 0.5, grid, phi)
    assert np.array_equal(aged[0], np.eye(2))
    assert np.abs(aged.sum(axis=2) - 1.0).max() < 1e-6


def test_backward_degenerate_conditioning():
    g = SojournDistribution.uniform(0.0, 1.0)
    kern = alternating_kernel(g, g)
    grid = TimeGrid(0.01, 0.5)
    phi = transition_probabilities(kern, grid)
    with pytest.raises(DegenerateBackwardError):
        backward_transition_probabilities(kern, 1.0, grid, phi)


_RATE_LAWS = st.one_of(
    st.builds(SojournDistribution.exponential, st.floats(0.3, 3.0)),
    st.builds(SojournDistribution.weibull, st.floats(1.0, 3.0), st.floats(0.3, 2.0)),
)


@st.composite
def _kernels(draw):
    """Two alternating states, or three states with two successors each
    and no self-transitions."""
    if draw(st.booleans()):
        return alternating_kernel(draw(_RATE_LAWS), draw(_RATE_LAWS))
    p = [draw(st.floats(0.05, 0.95)) for _ in range(3)]
    P = [[0.0, p[0], 1.0 - p[0]], [p[1], 0.0, 1.0 - p[1]], [p[2], 1.0 - p[2], 0.0]]
    laws = [[None if i == j else draw(_RATE_LAWS) for j in range(3)] for i in range(3)]
    return SemiMarkovKernel(P, laws)


@settings(max_examples=20, deadline=None)
@given(kern=_kernels())
def test_phi_rows_stochastic_property(kern):
    # the weights pass constants exactly, so rows sum to 1 up to roundoff
    grid = TimeGrid(0.01, 1.0)
    phi = transition_probabilities(kern, grid)
    assert np.abs(phi.sum(axis=2) - 1.0).max() < 1e-12
    assert phi.min() > -1e-12
    aged0 = backward_transition_probabilities(kern, 0.0, grid, phi)
    assert np.abs(aged0 - phi).max() < 1e-13


def test_non_finite_phi_is_refused():
    # Weibull shape 0.001 overflows gamma(1 + 1/k) in the truncated mean:
    # every weight is NaN, and a NaN row-sum drift must still raise
    g = SojournDistribution.weibull(0.001, 1.0)
    kern = alternating_kernel(g, g)
    grid = TimeGrid(0.005, 1.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericsError, match="nan"):
            transition_probabilities(kern, grid)
        with pytest.raises(NumericsError, match="nan"):
            backward_transition_probabilities(kern, 0.5, grid, np.tile(np.eye(2), (201, 1, 1)))


def _trapezoid_weights(kern, grid, offset):
    """(full, boundary) product-trapezoid weights of the einsum march,
    built from the kernel's cdf and truncated mean on their own."""
    nodes, h = grid.nodes + offset, grid.step
    q_cdf, q_pm = kern.cdf_matrix(nodes), kern.partial_mean_matrix(nodes)
    m0 = q_cdf[1:] - q_cdf[:-1]
    m1 = q_pm[1:] - q_pm[:-1] - offset * m0
    weight_lo = (m0 * grid.nodes[1:, None, None] - m1) / h
    weight_hi = (m1 - m0 * grid.nodes[:-1, None, None]) / h
    full = np.zeros((grid.n_steps + 1, kern.m, kern.m))
    full[:-1] += weight_lo
    full[1:] += weight_hi
    boundary = np.zeros_like(full)
    boundary[:-1] = weight_lo
    return full, boundary


def _einsum_phi(kern, grid):
    """The per-step march over every lag, one einsum per step."""
    m, k_max = kern.m, grid.n_steps
    full, boundary = _trapezoid_weights(kern, grid, 0.0)
    surv = kern.survival_matrix(grid.nodes)
    a_inv = np.linalg.inv(np.eye(m) - full[0])
    phi = np.empty((k_max + 1, m, m))
    phi[0] = np.eye(m)
    for n in range(1, k_max + 1):
        rhs = np.diag(surv[n]).astype(float)
        rhs += np.einsum("lab,lbj->aj", full[1:n + 1], phi[n - 1::-1])
        rhs -= boundary[n]
        phi[n] = a_inv @ rhs
    return phi


def _einsum_aged(kern, age, grid, phi):
    """The aged pass as one einsum over every lag per step."""
    m, k_max = kern.m, grid.n_steps
    denom = np.array([kern.aged_survival(i, age) for i in range(m)])
    full, boundary = _trapezoid_weights(kern, grid, age)
    surv_u = kern.survival_matrix(grid.nodes + age)
    bphi = np.empty_like(phi)
    bphi[0] = np.eye(m)
    for n in range(1, k_max + 1):
        acc = np.diag(surv_u[n]).astype(float)
        acc += np.einsum("lab,lbj->aj", full[:n + 1], phi[n::-1])
        acc -= boundary[n]
        bphi[n] = acc / denom[:, None]
    return bphi


def three_state_with_absorbing():
    # state 0 has two successors, state 2 absorbs
    return SemiMarkovKernel(
        [[0.0, 0.4, 0.6], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[None, SojournDistribution.weibull(0.7, 1.0), SojournDistribution.gamma(2.5, 0.4)],
         [SojournDistribution.uniform(0.2, 1.4), None, None],
         [None, None, None]],
    )


@pytest.mark.parametrize("which, step, horizon", [
    ("testbed", 0.005, 2.5),
    ("three_state", 0.001, 2.0),
])
def test_block_toeplitz_march_matches_einsum_march(kern_testbed, which, step, horizon):
    kern = kern_testbed if which == "testbed" else three_state_with_absorbing()
    grid = TimeGrid(step, horizon)
    phi = transition_probabilities(kern, grid)
    oracle = _einsum_phi(kern, grid)
    assert np.abs(phi - oracle).max() <= 1e-14
    aged = backward_transition_probabilities(kern, 0.3, grid, phi)
    assert np.abs(aged - _einsum_aged(kern, 0.3, grid, phi)).max() <= 1e-14


def test_phi_on_a_shorter_grid_is_a_prefix(kern_testbed):
    h = 0.0125
    short = transition_probabilities(kern_testbed, TimeGrid(h, 1.0))
    long = transition_probabilities(kern_testbed, TimeGrid(h, 2.5))
    assert np.array_equal(short, long[:short.shape[0]])
    kern = three_state_with_absorbing()
    short = transition_probabilities(kern, TimeGrid(0.001, 1.0))
    long = transition_probabilities(kern, TimeGrid(0.001, 2.0))
    assert np.array_equal(short, long[:short.shape[0]])


# ---------------------------------------------------------------------------
# path sampling
# ---------------------------------------------------------------------------

def test_jump_counts_poisson(kern_alt_exp):
    # with exponential(1) sojourns everywhere the jump clock is Poisson(1)
    rng = RngStream(11).generator()
    horizon = 2.0
    _, counts = _walk(kern_alt_exp, BackwardState(0, 0.0), horizon,
                      _DrawPlan(rng, 200000, False))
    top = 10
    observed = np.bincount(np.minimum(counts, top), minlength=top + 1)
    pmf = sp_stats.poisson.pmf(np.arange(top), horizon)
    probs = np.concatenate([pmf, [1.0 - pmf.sum()]])
    chi2 = ((observed - counts.size * probs) ** 2 / (counts.size * probs)).sum()
    # chi-square test at 1%
    assert chi2 < sp_stats.chi2.ppf(0.99, df=top)


def test_occupancy_matches_phi(kern_testbed):
    grid = TimeGrid(0.005, 1.0)
    phi = transition_probabilities(kern_testbed, grid)
    rng = RngStream(17).generator()
    n = 200000
    states = _walk(kern_testbed, BackwardState(0, 0.0), 1.0, _DrawPlan(rng, n, False))[0]
    freq = np.bincount(states, minlength=2) / n
    se = np.sqrt(freq * (1 - freq) / n)
    assert np.all(np.abs(freq - phi[-1, 0]) <= 3 * se)


def test_aged_occupancy_matches_backward(kern_testbed):
    grid = TimeGrid(0.005, 0.5)
    phi = transition_probabilities(kern_testbed, grid)
    aged = backward_transition_probabilities(kern_testbed, 0.5, grid, phi)
    rng = RngStream(19).generator()
    n = 1000000
    states = _walk(kern_testbed, BackwardState(0, 0.5), 0.5, _DrawPlan(rng, n, False))[0]
    freq = np.bincount(states, minlength=2) / n
    se = np.sqrt(freq * (1 - freq) / n)
    assert np.all(np.abs(freq - aged[-1, 0]) <= 3 * se)


def test_aged_first_sojourn_law(kern_testbed):
    # empirical conditional cdf of the first sojourn vs the exact formula
    age = 0.5
    rng = RngStream(23).generator()
    u_wait = rng.random(100000)
    _, w = kern_testbed.sample_sojourns(np.zeros(100000, dtype=np.int64), age,
                                        rng.random(100000), u_wait)
    for q in (0.3, 0.7, 1.2):
        emp = (w <= q).mean()
        exact = float(kern_testbed.aged_holding_cdf(0, age, q))
        assert emp == pytest.approx(exact, abs=4 * np.sqrt(exact * (1 - exact) / w.size))


def test_sojourn_draw_skips_zero_probability_edges():
    # row 2 sums to 1 - 1e-13, inside the row tolerance, and its last
    # column is a zero-probability edge: a u_next above the cumulative
    # total must still land on an edge that exists
    g = SojournDistribution.exponential(1.0)
    kern = SemiMarkovKernel(
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.4999999999999, 0.0]],
        [[None, g, None], [None, None, g], [g, g, None]],
    )
    nxt, w = kern.sample_sojourns(np.array([2]), 0.0, np.array([1.0 - 1e-14]),
                                  np.array([0.5]))
    assert nxt[0] == 1 and w[0] == g.ppf(0.5)
    with pytest.raises(ValueError, match="out of range"):
        kern.sample_sojourns(np.array([3]), 0.0, np.array([0.5]), np.array([0.5]))
    # an edge whose law the age has used up carries no weight either
    short = SojournDistribution.uniform(0.1, 0.5)
    aged = SemiMarkovKernel([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                            [[None, g, short], [g, None, None], [g, None, None]])
    u = np.concatenate([np.linspace(0.0, 1.0, 1001, endpoint=False), [1.0 - 2.0**-53]])
    nxt, w = aged.sample_sojourns(np.zeros(u.size, dtype=np.int64), 0.6, u, u)
    assert np.all(nxt == 1) and np.all(np.isfinite(w)) and np.all(w >= 0.0)


def three_state_two_successors():
    weib = SojournDistribution.weibull(0.7, 1.0)
    gam = SojournDistribution.gamma(2.5, 0.4)
    unif = SojournDistribution.uniform(0.2, 1.4)
    return SemiMarkovKernel(
        [[0.0, 0.4, 0.6], [0.5, 0.0, 0.5], [0.3, 0.7, 0.0]],
        [[None, weib, gam], [unif, None, weib], [gam, unif, None]],
    )


@pytest.mark.parametrize("age", [0.0, 0.3])
def test_multi_successor_sojourn_law(age):
    # joint law of (next state, wait) against
    # p_ij (G_ij(a + q) - G_ij(a)) / (1 - H_i(a))
    kern = three_state_two_successors()
    rng = RngStream(41).generator()
    n = 200000
    for i in range(3):
        nxt, w = kern.sample_sojourns(np.full(n, i), age, rng.random(n), rng.random(n))
        surv = 1.0 - float(kern.holding_cdf(i, age))
        for j in range(3):
            g = kern.sojourn(i, j)
            if g is None:
                assert not np.any(nxt == j)
                continue
            for q in (0.1, 0.4, 0.9, 1.5, np.inf):
                exact = kern.P[i, j] * (g.cdf(age + q) - g.cdf(age)) / surv
                emp = np.mean((nxt == j) & (w <= q))
                se = np.sqrt(exact * (1.0 - exact) / n)
                assert abs(emp - exact) <= 4 * se


def test_multi_successor_aged_occupancy():
    kern = three_state_two_successors()
    grid = TimeGrid(0.005, 1.0)
    phi = transition_probabilities(kern, grid)
    aged = backward_transition_probabilities(kern, 0.3, grid, phi)
    freqs, ses = estimate_state_occupancy(kern, BackwardState(0, 0.3), 1.0, 200000, 43)
    assert np.all(np.abs(freqs - aged[-1, 0]) <= 3.5 * ses)


_FAMILY_LAWS = st.one_of(
    st.builds(SojournDistribution.exponential, st.floats(0.2, 5.0)),
    st.builds(SojournDistribution.weibull, st.floats(0.4, 4.0), st.floats(0.2, 3.0)),
    st.builds(SojournDistribution.gamma, st.floats(0.4, 4.0), st.floats(0.2, 3.0)),
    st.builds(lambda lo, width: SojournDistribution.uniform(lo, lo + width),
              st.floats(0.0, 1.0), st.floats(0.1, 2.0)),
)


@settings(max_examples=40, deadline=None)
@given(law=_FAMILY_LAWS, aged_mass=st.floats(0.0, 0.9),
       u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20))
def test_sojourn_draw_inverts_the_aged_law(law, aged_mass, u):
    kern = alternating_kernel(law, law)
    u_wait = np.array(u)
    states = np.zeros(u_wait.size, dtype=np.int64)
    _, w0 = kern.sample_sojourns(states, 0.0, u_wait, u_wait)
    assert np.array_equal(w0, law.ppf(u_wait))
    age = float(law.ppf(aged_mass))
    _, w = kern.sample_sojourns(states, age, u_wait, u_wait)
    assert np.all(w >= 0.0)
    assert np.abs(kern.aged_holding_cdf(0, age, w) - u_wait).max() <= 1e-9


def test_phi_uniform_and_gamma_families_vs_occupancy():
    # discontinuous (uniform) and heavier-tailed (gamma) holding laws
    # through the full chain: march, age conditioning, and sampling
    kern = SemiMarkovKernel(
        [[0.0, 1.0], [1.0, 0.0]],
        [
            [None, SojournDistribution.uniform(0.2, 1.4)],
            [SojournDistribution.gamma(2.5, 0.4), None],
        ],
    )
    grid = TimeGrid(0.005, 1.0)
    phi = transition_probabilities(kern, grid)
    assert np.abs(phi.sum(axis=2) - 1.0).max() < 1e-6
    rng = RngStream(61).generator()
    n = 200000
    states = _walk(kern, BackwardState(0, 0.0), 1.0, _DrawPlan(rng, n, False))[0]
    freq = np.bincount(states, minlength=2) / n
    se = np.sqrt(freq * (1 - freq) / n)
    assert np.all(np.abs(freq - phi[-1, 0]) <= 3.5 * se)
    aged = backward_transition_probabilities(kern, 0.1, grid, phi)
    states = _walk(kern, BackwardState(0, 0.1), 1.0, _DrawPlan(rng, n, False))[0]
    freq = np.bincount(states, minlength=2) / n
    se = np.sqrt(freq * (1 - freq) / n)
    assert np.all(np.abs(freq - aged[-1, 0]) <= 3.5 * se)
