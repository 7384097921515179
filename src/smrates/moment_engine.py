"""Forward-marched renewal solvers for the modulated-rate moments.

Three quantities satisfy Volterra equations of the second kind in the
time-to-maturity variable s, coupled across regime states and start
rates x:

  * the n-th moment of the discount factor exp(-n int_0^s delta);
  * the first moment of the rate delta(s) itself;
  * the lagged product moment E[delta(s) delta(s+h)].

Each is solved with zero initial age ("backward-zero") by trapezoidal
time marching.  The unknown at the current node enters the quadrature
endpoint at elapsed time 0 with weight h/2, so every step solves one
fixed m x m linear system; the opposite endpoint comes from the known
initial condition.

The discount moments are marched on a (state, s-node, x-node) lattice.
Inner integrals over the arriving rate use the model's transition-law
quadratures, scattered onto the lattice as linear-interpolation weights
("transfer operators") built per (state, elapsed time) for the tilt a
solve marches on.  The workspace holds one transfer stack, laid out as
the march reads it: per state one (Nx, (K+1)*Nx) matrix whose column
block l is the operator at elapsed time theta_l; a discount-tilted
stack carries its no-switch discount as a row weight.  The march
advances in panels of _PANEL steps: the history before a panel is one
matrix-matrix product per state and panel, and only the history inside
the panel is summed step by step (the first level of Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).  Stacks are built a
chunk of elapsed times at a time, one rule call and one
``np.bincount`` scatter per chunk, which sums every lattice cell in the
same order as consecutive ``np.add.at`` passes.

The rate moments need no lattice: every model kind has a transition
mean affine in the start rate and a variance affine or constant in it,
so the rate mean is alpha_i(s) x + beta_i(s) and the product moment a
quadratic in x (the polynomial-process property: Cuchiero,
Keller-Ressel & Teichmann, Finance Stoch. 16, 2012).  Their coefficients
go through the renewal march that phi also uses (semi_markov's module
docstring), with _march's trapezoid and implicit step.

Each quantity has two evaluations: the march (_march on the lattice,
_solve_poly in coefficients) and the aged pass (_aged, _aged_coefs),
which evaluates at a positive initial age u in one quadrature pass over
the stored solution, mirroring the march term by term, so u = 0
reproduces the marched values.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GridCoverageError, NumericsError
from .rate_models import (
    CIR,
    RegimeRateModel,
    _horner,
    cir_discounted_transition_constants,
    cir_transition_constants,
    gaussian_quadrature_batch,
    ncx2_rule_batch,
)
from .semi_markov import SemiMarkovKernel, TimeGrid, _history, _renewal_march

# floor on the Gauss-Legendre order for chi-square transition rules; below
# this the rule cannot resolve the density bump inside its bracket
_CIR_MIN_ORDER = 48
# elapsed times per rule call and scatter pass of a transfer build;
# bounds the temporary arrays
_SCATTER_CHUNK = 16
# march steps per panel: the history before a panel is one matrix-matrix
# product per state with this many right-hand sides
_PANEL = 16
# lags gathered per far-history product; bounds the march's scratch
# buffer to _PANEL * _HISTORY_BLOCKS lattice vectors
_HISTORY_BLOCKS = 128

ZCB_MOMENT = "zcb_moment"
RATE_MEAN = "rate_mean"
PRODUCT_MOMENT = "product_moment"


# ---------------------------------------------------------------------------
# Configuration and result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Discretization knobs shared by the three solvers.

    The rate lattice either uses explicit bounds or is sized
    automatically from the per-state transition moments (padded by
    ``grid_pad`` standard deviations) around ``reference_rate``, which
    must be covered because surfaces get evaluated there.
    ``coverage_tol`` bounds the transition-law mass allowed to leak off
    the lattice from its core nodes; ``mc_step`` is the grid step of the
    Monte Carlo cross-checks driven from the same config, which only CIR
    batches (for their trapezoid integral) and recorded paths march on:
    Gaussian batches draw the integral exactly and step only to their
    snapshot times and jumps.
    """

    step: float = 0.01
    horizon: float = 2.0
    rate_nodes: int = 81
    quad_order: int = 24
    reference_rate: float = 0.03
    rate_lo: float | None = None
    rate_hi: float | None = None
    grid_pad: float = 8.0
    coverage_tol: float = 1e-5
    mc_step: float = 0.01

    def __post_init__(self):
        for name in ("step", "horizon", "mc_step", "reference_rate", "rate_lo", "rate_hi",
                     "grid_pad"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.step <= 0 or self.horizon <= 0:
            raise ValueError("step and horizon must be positive")
        for name, least in (("rate_nodes", 2), ("quad_order", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not self.mc_step > 0:
            raise ValueError("mc_step must be positive")
        if (self.rate_lo is None) != (self.rate_hi is None):
            raise ValueError("rate_lo and rate_hi must be given together")
        if self.rate_lo is not None:
            if not self.rate_lo < self.rate_hi:
                raise ValueError(f"rate_hi {self.rate_hi!r} must exceed rate_lo {self.rate_lo!r}")
            if not self.rate_lo <= self.reference_rate <= self.rate_hi:
                raise ValueError(f"reference_rate {self.reference_rate!r} must lie in "
                                 f"[rate_lo, rate_hi] = [{self.rate_lo!r}, {self.rate_hi!r}]")
        if not self.grid_pad > 0:
            raise ValueError(f"grid_pad must be positive, got {self.grid_pad!r}")
        if not self.coverage_tol >= 0:
            raise ValueError(f"coverage_tol must be nonnegative, got {self.coverage_tol!r}")
        TimeGrid(self.step, self.horizon)  # validates divisibility

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.step, self.horizon)


@dataclass
class MomentSurface:
    """Backward-zero solution on the (state, s-node, x-node) lattice.

    quantity is "zcb_moment" (with ``order`` n), "rate_mean", or
    "product_moment" (with ``lag`` h).  values[i, k, p] holds the
    quantity started in state i at rate x_nodes[p] for time-to-maturity
    s_nodes[k]; reads interpolate linearly in x and s and refuse to
    extrapolate.  A solved surface keeps the workspace it was marched on,
    and a rate moment also its coefficients (``spec``); its aged
    evaluations run on those.
    """

    quantity: str
    s_nodes: np.ndarray
    x_nodes: np.ndarray
    values: np.ndarray
    order: int | None = None
    lag: float | None = None
    workspace: LatticeWorkspace | None = field(default=None, repr=False, compare=False)
    spec: _Poly | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise NumericsError(f"{self.quantity} surface contains non-finite values")
        if self.values.shape != (self.values.shape[0], self.s_nodes.size, self.x_nodes.size):
            raise ValueError("surface value block does not match its grids")

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    @property
    def step(self) -> float:
        """Grid step, from the solver config when there is a workspace
        (a covariance surface at lag = horizon keeps a single row)."""
        if self.workspace is not None:
            return float(self.workspace.config.step)
        if self.s_nodes.size < 2:
            raise ValueError("a one-row surface without a workspace has no step")
        return float(self.s_nodes[1] - self.s_nodes[0])


# ---------------------------------------------------------------------------
# Rate lattice and transition-law transfer operators
# ---------------------------------------------------------------------------

def _rate_envelope(model: RegimeRateModel, config: SolverConfig):
    """(lowest mean, highest mean, largest std) over states, probe times,
    long-run moments, and the reference rate."""
    ref = config.reference_rate
    probe_ts = np.linspace(0.0, config.horizon, 9)[1:]
    means = [ref]
    stds = [1e-6]
    for i in range(model.n_states):
        lrm, lrs = model.long_run_mean(i), model.long_run_std(i)
        if lrm is not None:
            means.append(float(lrm))
        if lrs is not None:
            stds.append(float(lrs))
        means.extend(np.atleast_1d(model.mean(i, ref, probe_ts)).tolist())
        stds.extend(
            np.sqrt(np.atleast_1d(model.variance(i, ref, probe_ts))).tolist()
        )
    return min(means), max(means), max(stds)


def check_lattice_rate(x_nodes: np.ndarray, x: float):
    """Refuse a start rate x outside the lattice x_nodes: every read at
    x interpolates between lattice rates and never extrapolates."""
    if not x_nodes[0] - 1e-12 <= x <= x_nodes[-1] + 1e-12:
        raise GridCoverageError(
            f"rate {x} lies outside the lattice "
            f"[{x_nodes[0]:.6g}, {x_nodes[-1]:.6g}]; "
            "extrapolation is refused"
        )


def build_rate_grid(model: RegimeRateModel, config: SolverConfig) -> np.ndarray:
    """Uniform rate lattice covering every regime's transition laws."""
    if config.rate_lo is not None:
        lo, hi = float(config.rate_lo), float(config.rate_hi)
    else:
        mean_lo, mean_hi, std_max = _rate_envelope(model, config)
        pad = config.grid_pad * std_max
        lo = mean_lo - pad
        hi = mean_hi + pad
    if model.kind == CIR:
        lo = max(lo, 0.0)
    return np.linspace(lo, hi, config.rate_nodes)


def _law_nodes_weights(model: RegimeRateModel, i: int, r0, t, order: int,
                       tilt: int = 0):
    """Quadrature of the transition law r(t) | r(0)=r0.

    ``tilt`` = n > 0 asks for the law under the discount change of
    measure exp(-n int_0^t r): for the Gaussian kinds the terminal-rate
    mean shifts by -n Cov[int r, r(t)] (variance unchanged); for CIR the
    tilted law is a noncentral chi-square with modified constants.  The
    discount-moment solver convolves against this measure so its kernel
    matches the joint law of the accumulated discount and the arriving
    rate; at tilt 0 this is the plain transition law.

    One rule per entry of the broadcast of the start rates r0 (at least
    one) against the elapsed times t: per start rate when t is a scalar,
    per (time, rate) when t is a column of times (the lattice transfer
    build, a chunk of elapsed times at a time), or per elapsed time when
    r0 is one rate and t an array of positive times (the aged pass).
    Each entry's rule depends on its own (r0, t) alone.  Returns (nodes,
    weights) of shape rules + (order,): a point mass at the start rate
    when t = 0 and at the deterministic flow for a noise-free regime
    (the zero-std Gauss-Hermite rule); Gauss-Hermite through mean/std
    for the Gaussian kinds; for CIR the chi-square rule of
    ``ncx2_rule_batch`` (order floored at 48 so the rule resolves the
    density).  The discount moment's march (through the transfer build)
    and its aged pass both come through here, so their discretizations
    coincide.
    """
    t = np.asarray(t, dtype=float)
    r0 = np.atleast_1d(np.asarray(r0, dtype=float))
    shape = np.broadcast_shapes(r0.shape, t.shape)
    if t.ndim == 0 and t <= 0.0:
        return gaussian_quadrature_batch(r0, np.zeros(shape), order)
    if model.gaussian_transition:
        means = np.atleast_1d(model.mean(i, r0, t))
        if tilt:
            means = means - tilt * model.integrated_rate_cov(i, r0, t)
        stds = np.sqrt(np.atleast_1d(model.variance(i, r0, t)))
        return gaussian_quadrature_batch(means, stds, order)
    p = model.params[i]
    if p.sigma == 0.0:
        # deterministic regime: the discount tilt reweights a point mass
        flow = np.broadcast_to(model.mean(i, r0, t), shape)
        return gaussian_quadrature_batch(flow, np.zeros(shape), order)
    if tilt:
        c, df, nc_coef = cir_discounted_transition_constants(p, float(tilt), t)
        nc = r0 * nc_coef
    else:
        c, df, decay = cir_transition_constants(p, t)
        nc = r0 * decay / c
    return ncx2_rule_batch(c, df, nc, max(order, _CIR_MIN_ORDER))


def _escaped(x_nodes, nodes, weights) -> np.ndarray:
    """Quadrature mass falling off the lattice, per rule (row)."""
    lo, hi = x_nodes[0], x_nodes[-1]
    slack = 1e-12 * max(1.0, hi - lo)
    return np.where((nodes < lo - slack) | (nodes > hi + slack), weights, 0.0).sum(axis=-1)


def _cell(x_nodes, y) -> np.ndarray:
    """Index of the lattice cell of each rate y:
    np.searchsorted(x_nodes, y, "right") - 1 clipped to [0, Nx - 2].  The
    lattice is uniform (``build_rate_grid``), so one multiply finds the
    cell up to rounding at its ends, and one comparison each way
    corrects that."""
    nx = x_nodes.size
    lo, hi = x_nodes[0], x_nodes[-1]
    idx = np.clip(np.floor((y - lo) * ((nx - 1) / (hi - lo))), 0, nx - 2).astype(np.intp)
    idx -= x_nodes[idx] > y
    idx += x_nodes[idx + 1] <= y
    return np.clip(idx, 0, nx - 2, out=idx)


def _scatter(x_nodes, nodes, weights) -> np.ndarray:
    """Scatter quadrature rules into lattice interpolation weights.

    nodes, weights have shape (L, Nx, Q): rule q of row p in block l.
    Returns (L, Nx, Nx) blocks whose row p applied to a vector of lattice
    values v gives sum_q w_q * vhat(y_q), with vhat the piecewise-linear
    interpolant clamped at the lattice ends; ``_cell`` finds each node's
    cell with no search.  One bincount over the whole batch; per row it
    adds every (1 - frac) term and then every frac term, in rule order.
    """
    n_blocks, n_rows, q = nodes.shape
    nx = x_nodes.size
    y = np.clip(nodes, x_nodes[0], x_nodes[-1])
    idx = _cell(x_nodes, y)
    gap = x_nodes[idx + 1] - x_nodes[idx]
    frac = np.clip((y - x_nodes[idx]) / gap, 0.0, 1.0)
    cells = np.empty((n_blocks, n_rows, 2 * q), dtype=np.intp)
    np.add(idx, nx * np.arange(n_blocks * n_rows).reshape(n_blocks, n_rows, 1),
           out=cells[..., :q])
    np.add(cells[..., :q], 1, out=cells[..., q:])
    terms = np.empty(cells.shape)
    np.multiply(weights, 1.0 - frac, out=terms[..., :q])
    np.multiply(weights, frac, out=terms[..., q:])
    out = np.bincount(cells.ravel(), weights=terms.ravel(), minlength=n_blocks * n_rows * nx)
    return out.reshape(n_blocks, n_rows, nx)


class LatticeWorkspace:
    """Reusable per-(kernel, model, config) solver state: the rate
    lattice, kernel tables on the time grid, the factored implicit-step
    matrix, and one packed transfer stack, the one last asked for (a rate
    solve frees it).

    Its marches end at the grid node at or above ``until`` (default: the
    config horizon), rounded up to a whole _PANEL of steps and capped at
    the horizon.  Every panel and every build chunk of a shorter march
    then has the shape it has in the full march, so each value it
    computes equals the full march's bit for bit; ``thetas`` holds the
    march's nodes.  The rate lattice, its core rows and the coverage
    check still cover the whole config horizon, so a shorter march
    refuses the same configs.
    """

    def __init__(self, kernel: SemiMarkovKernel, model: RegimeRateModel,
                 config: SolverConfig, until: float | None = None):
        if kernel.m != model.n_states:
            raise ValueError(
                f"kernel has {kernel.m} states but the model has {model.n_states}"
            )
        self.kernel = kernel
        self.model = model
        self.config = config
        self.grid = config.time_grid()
        self.x_nodes = build_rate_grid(model, config)
        k_max = self.grid.n_steps
        if until is not None:
            if until < 0:
                raise ValueError(f"until must be nonnegative, got {until!r}")
            k_need = int(np.ceil(until / config.step - 1e-9))
            k_max = min(-(-k_need // _PANEL) * _PANEL, k_max)
        self.thetas = self.grid.nodes[:k_max + 1]
        self.qdot = kernel.density_matrix(self.thetas)          # (K+1, m, m)
        if not np.all(np.isfinite(self.qdot)):
            raise NumericsError(
                "kernel density is not finite on the grid; the trapezoidal "
                "march needs sojourn densities with finite values"
            )
        self.survival = kernel.survival_matrix(self.thetas)     # (K+1, m)
        self._a_inv = np.linalg.inv(
            np.eye(kernel.m) - 0.5 * config.step * self.qdot[0]
        )
        # rows whose transition laws must stay on the lattice: everything
        # realistically reachable from the reference scenarios
        mean_lo, mean_hi, std_max = _rate_envelope(model, config)
        self._core = (self.x_nodes >= mean_lo - 2.0 * std_max) & (
            self.x_nodes <= mean_hi + 2.0 * std_max
        )
        if not self._core.any():
            self._core = np.ones_like(self.x_nodes, dtype=bool)
        self._held = None   # (tilt, stack)

    @property
    def m(self) -> int:
        return self.kernel.m

    def _check_coverage(self, escape: np.ndarray, i: int, elapsed: np.ndarray):
        """Refuse the first elapsed time whose law, from some core rate,
        escapes more than coverage_tol: escape[l, p] is the mass state i's
        law at elapsed[l] loses from the p-th core rate (the rows of
        ``_core``; no other row is checked)."""
        worst = escape.max(axis=1, initial=0.0)
        bad = np.flatnonzero(worst > self.config.coverage_tol)
        if bad.size:
            l = bad[0]
            raise GridCoverageError(
                f"transition law escapes the rate lattice with mass "
                f"{worst[l]:.2e} (> {self.config.coverage_tol}) at state {i}, "
                f"elapsed {elapsed[l]:.4g}; widen the rate grid"
            )

    def transfer(self, tilt: int = 0) -> np.ndarray:
        """Packed (m, Nx, (K+1)*Nx) stack over the march's K steps:
        column block l of state i's matrix maps lattice values v to
        E[vhat(r(theta_l)) | r(0)=x].
        With tilt = n > 0 the law is the discount-tilted one and row x
        carries the no-switch discount E[exp(-n int_0^theta_l r)], so the
        block maps v to E[exp(-n int_0^theta_l r) vhat(r(theta_l))]."""
        if self._held is None or self._held[0] != tilt:
            self._held = None   # free the held stack before the build
            self._held = (tilt, self._build(tilt))
        return self._held[1]

    def _build(self, tilt: int) -> np.ndarray:
        """One packed stack, _SCATTER_CHUNK elapsed times at a time: one
        rule call and one scatter per chunk; a tilted stack's rows are
        scaled by the discount after the scatter.  The coverage check
        reads the core rows alone, so past the march the chunks build
        the core rates' rules only; each rule depends on its own (rate,
        elapsed time) alone, so the checked figures are unchanged."""
        m, nx, kp1 = self.m, self.x_nodes.size, self.thetas.size
        order = self.config.quad_order
        every = self.grid.nodes
        core_rates = self.x_nodes[self._core]
        packed = np.empty((m, nx, kp1 * nx))
        for i in range(m):
            blocks = packed[i].reshape(nx, -1, nx).transpose(1, 0, 2)   # [l]: at theta_l
            blocks[0] = np.eye(nx)
            for l0 in range(1, every.size, _SCATTER_CHUNK):
                l1 = min(l0 + _SCATTER_CHUNK, every.size)
                marched = l0 < kp1
                nodes, weights = _law_nodes_weights(self.model, i,
                                                    self.x_nodes if marched else core_rates,
                                                    every[l0:l1, None], order, tilt=tilt)
                core = self._core if marched else slice(None)
                self._check_coverage(_escaped(self.x_nodes, nodes[:, core], weights[:, core]),
                                     i, every[l0:l1])
                if marched:
                    blocks[l0:l1] = _scatter(self.x_nodes, nodes, weights)
            if tilt:
                discount = self.model.bond_laplace(i, self.x_nodes[:, None], tilt, self.thetas)
                blocks *= np.asarray(discount).T[:, :, None]
        return packed


# ---------------------------------------------------------------------------
# The discount moments: the lattice march and its aged pass
# ---------------------------------------------------------------------------

def _march(ws: LatticeWorkspace, n: int) -> np.ndarray:
    """Trapezoidal forward march of the discount moment of order n over
    the whole lattice, from V = 1 at s = 0:

      V_i(s, x) = S_i(s) f_i(x, s)
                + int_0^s sum_j qdot_ij(theta) f_i(x, theta)
                    E^n[V_j(s - theta, r(theta)) | r(0) = x] dtheta,

    with f_i the no-switch discount E[exp(-n int_0^theta r)]
    (``model.bond_laplace``) and E^n the discount-tilted law; transfer(n)
    carries f as its row weight.  The known terms at s_k are the
    no-switch one and the far endpoint with weight h/2, whose inner
    integral is f itself (V = 1 has mass 1 under the tilted law), so it
    is never clamped.  The unknown at s_k enters the elapsed-time-0 end
    with weight h/2, where the transfer block is the identity and the row
    weight is 1, so the implicit step matrix absorbs it.  The history
    l = 1..k-1 splits at the start k0 of the step's panel: lags reading
    values before k0 come from the panel's far-history product
    (_far_history), and the lags l = 1..k-k0 inside the panel are one
    matrix-vector product per state.
    """
    h = ws.config.step
    k_max = ws.thetas.size - 1
    m = ws.m
    nx = ws.x_nodes.size
    qd = ws.qdot
    table = np.empty((m, k_max + 1, nx))
    for i in range(m):
        table[i] = np.asarray(ws.model.bond_laplace(i, ws.x_nodes[:, None], n, ws.thetas)).T
    packed = ws.transfer(n)
    vals = np.empty((k_max + 1, m, nx))
    vals[0] = 1.0
    scratch = np.empty(_PANEL * _HISTORY_BLOCKS * nx)
    for k0 in range(1, k_max + 1, _PANEL):
        k1 = min(k0 + _PANEL, k_max + 1)
        far = _far_history(packed, qd, vals, k0, k1, scratch)
        for k in range(k0, k1):
            known = (ws.survival[k][:, None] * table[:, k]
                     + 0.5 * h * (qd[k].sum(axis=1)[:, None] * table[:, k]))
            rhs = known + h * far[:, :, k - k0]
            if k > k0:
                for i in range(m):
                    # state-mix the panel's own values, then one
                    # matrix-vector product for l = 1..k-k0
                    mixed = np.matmul(qd[1:k - k0 + 1, i, None, :], vals[k - 1:k0 - 1:-1])
                    rhs[i] += h * (packed[i][:, nx:(k - k0 + 1) * nx] @ mixed.ravel())
            vals[k] = ws._a_inv @ rhs
    return vals


def _far_history(packed: np.ndarray, qd: np.ndarray, vals: np.ndarray, k0: int, k1: int,
                 scratch: np.ndarray) -> np.ndarray:
    """History sums of steps k0..k1-1 over the values before k0.

    Returns (m, Nx, k1-k0): column b of state i is
    sum_l block_{i,l} @ sum_j qdot[l,i,j] V[k0+b-l, j] over the lags l
    with 1 <= k0+b-l < k0.  Per state, the state-mixed values are
    gathered into a column-major (lags*Nx, k1-k0) right-hand side in
    ``scratch`` (zero where a lag reads no such value) and multiplied by
    the packed stack in one product, _HISTORY_BLOCKS lags at a time.
    """
    m, nx = packed.shape[:2]
    width = k1 - k0
    far = np.zeros((m, nx, width))
    if k0 < 2:
        return far   # the first panel's history lies inside it
    for l_lo in range(1, k1 - 1, _HISTORY_BLOCKS):
        l_hi = min(l_lo + _HISTORY_BLOCKS, k1 - 1)
        rhs = scratch[:width * (l_hi - l_lo) * nx].reshape(width, l_hi - l_lo, nx)
        for i in range(m):
            rhs.fill(0.0)
            for b in range(width):
                k = k0 + b
                lo, hi = max(l_lo, k - k0 + 1), min(l_hi, k)
                if lo < hi:
                    rhs[b, lo - l_lo:hi - l_lo] = np.matmul(qd[lo:hi, i, None, :],
                                                            vals[k - lo:k - hi:-1])[:, 0]
            far[i] += packed[i][:, l_lo * nx:l_hi * nx] @ rhs.reshape(width, -1).T
    return far


def _aged(ws: LatticeWorkspace, surface: MomentSurface, i: int, u: float, r: float,
          pairs) -> float:
    """Aged pass: the discount moment of order surface.order at (state i,
    age u, rate r), read linearly between the maturity nodes ``pairs`` =
    [(k, weight), ...].

    Mirrors _march term by term over the stored lattice, with the kernel
    densities and survival read at theta + u and divided by the aged
    survival 1 - H_i(u), except that the value at s_k is known, so the
    elapsed-time-0 end is explicit: a point mass at r.  The
    transition-law rules for elapsed times 1..k_top are built once and
    their prefixes serve shorter nodes.  At u = 0 it reproduces the
    lattice values.
    """
    n, h, x, vals = surface.order, ws.config.step, ws.x_nodes, surface.values
    r = float(r)
    k_top = max(k for k, _ in pairs)
    if k_top:   # s = 0 reads V = 1 only
        denom = ws.kernel.aged_survival(i, u)
        thetas = ws.thetas[:k_top + 1]
        table = np.asarray(ws.model.bond_laplace(i, r, n, thetas))
        surv = ws.kernel.survival_matrix(thetas + u)[:, i] / denom
        qd = ws.kernel.density_matrix(thetas + u)[:, i, :] / denom
        nodes, weights = _law_nodes_weights(ws.model, i, r, thetas[1:], ws.config.quad_order,
                                            tilt=n)
    total = 0.0
    for k, w in pairs:
        if k == 0:
            total += w
            continue
        acc = float(surv[k] * table[k] + 0.5 * h * (qd[k].sum() * table[k]))
        point = np.array([np.interp(r, x, vals[j, k]) for j in range(ws.m)])
        acc += 0.5 * h * float(qd[0] @ point)
        if k >= 2:
            inner = np.zeros(k - 1)
            for j in range(ws.m):
                tab = vals[j, k - 1:0:-1]                      # row l-1 -> surface at k-l
                inner += qd[1:k, j] * (
                    weights[:k - 1] * _interp_rows(x, tab, nodes[:k - 1])
                ).sum(axis=1)
            acc += h * float((inner * table[1:k]).sum())
        total += w * acc
    return total


def _interp_rows(x_nodes: np.ndarray, table: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """np.interp of table row l at pts[l] for every l (clamped ends)."""
    out = np.empty(pts.shape)
    for l in range(pts.shape[0]):
        out[l] = np.interp(pts[l], x_nodes, table[l])
    return out


def _node_pair(surface: MomentSurface, s: float):
    """Bracketing grid indices and weights for maturity s (linear in s)."""
    if s < -1e-12 or s > surface.s_nodes[-1] + 1e-9:
        raise ValueError(f"maturity {s} outside the solved horizon")
    h = surface.step
    k = s / h
    if abs(k - round(k)) < 1e-9:
        return [(int(round(k)), 1.0)]
    k0 = min(int(np.floor(k)), surface.s_nodes.size - 2)
    w = k - k0
    return [(k0, 1.0 - w), (k0 + 1, w)]


# ---------------------------------------------------------------------------
# The rate moments: coefficient marches in the start rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Poly:
    """A rate moment as coefficients in the start rate: the rate mean
    (degree 1) or the product moment at ``lag`` steps (degree 2), with
    its companion rate mean.  maps[i] is state i's _law_maps on the nodes
    0..K+lag; coefs[k, i, e] multiplies x^e at s_k in state i."""

    maps: np.ndarray
    lag: int = 0
    rate: _Poly | None = None
    coefs: np.ndarray | None = None


def _law_maps(model: RegimeRateModel, i: int, ts: np.ndarray) -> np.ndarray:
    """(T, 3, 3) maps of state i's transition law at elapsed times ts on
    coefficients: column e holds those in x of E[r(t)^e | r(0) = x], so
    maps @ c is the expectation of sum_e c_e r(t)^e.  Exact for every
    kind: E[r(t)] = A x + B and Var[r(t)] = V + W x (W = 0 if Gaussian)."""
    b = np.asarray(model.mean(i, 0.0, ts))
    v = np.asarray(model.variance(i, 0.0, ts))
    a, w = model.mean(i, 1.0, ts) - b, model.variance(i, 1.0, ts) - v
    maps = np.zeros((b.size, 3, 3))
    maps[:, 0, 0] = 1.0
    maps[:, :2, 1] = np.stack([b, a], axis=1)
    maps[:, :, 2] = np.stack([b * b + v, 2.0 * a * b + w, a * a], axis=1)
    return maps


def _known(ws: LatticeWorkspace, poly: _Poly, i: int, qd: np.ndarray, surv: np.ndarray,
           ks: slice) -> np.ndarray:
    """(steps, d) coefficients of state i's terms at the steps ks that
    read no marched value, from its densities qd (rows theta_0, theta_1,
    ...) and survival surv (read at s + lag): no switch before s_k + lag
    (the transition mean, or the regime's E[r(s_k) r(s_k + lag)]) and,
    for a product, the window: a switch to j at s_k + theta_l restarts
    R_j(lag - theta_l, y) = beta + alpha y, which reads
    alpha E[r(s_k) r(s_k + theta_l)] + beta m(s_k).  Every step's row is
    one pass over the (step, window lag) grid, each row summed on its own,
    so a shorter march gives the same bits."""
    maps = poly.maps[i]
    if poly.rate is None:
        return surv[ks, None] * maps[ks, :2, 1]
    width = poly.lag + 1
    at = np.arange(ks.start, ks.stop)[:, None] + np.arange(width)    # [k, l]: node k + l
    # E[r(s) r(s + theta)] = decay E[r(s)^2] + shift m(s),
    # shift = B(s + theta) - decay B(s)
    decay = np.asarray(ws.model.mean_decay(i, ws.thetas[ks, None], ws.thetas[:width]))
    shift = maps[at, 0, 1] - decay * maps[ks, 0, 1, None]
    # weight of E[r(s_k) r(s_k + theta_l)]: the survival at l = lag, alpha
    # of the window's restarts (trapezoid in theta)
    weight = np.zeros(decay.shape)
    weight[:, -1] = surv[ks]
    beta = 0.0
    if poly.lag:
        trap = np.full(width, ws.config.step)
        trap[[0, -1]] *= 0.5
        # [e, j, 0, l]: coefficient e of R_j(lag - theta_l), trapezoid-weighted
        restart = poly.rate.coefs[poly.lag::-1].T[:, :, None] * trap
        dens = qd.T[:, at]                                   # [j, k, l]: qd[k + l, j]
        beta = (dens * restart[0]).sum(axis=0).sum(axis=1)
        weight += (dens * restart[1]).sum(axis=0)
    return ((decay * weight).sum(axis=1)[:, None] * maps[ks, :, 2]
            + ((shift * weight).sum(axis=1) + beta)[:, None] * maps[ks, :, 1])


def _history_blocks(maps: np.ndarray, qd: np.ndarray, d: int) -> np.ndarray:
    """(L*m*d, n*d) history blocks of n row states over the lags
    l = 1..L: maps (n, L, 3, 3) holds their law maps and qd (L, n, m)
    their densities at theta_1..theta_L.  Row (l, j, f), column (i, e) is
    maps[i, l, e, f] qd[l, i, j], so the coefficients c of every state at
    s_{k-1}, ..., s_0, flattened, times the first k*m*d rows give
    sum_l maps[i, l] sum_j qd[l, i, j] c_j(s_{k-l}).  A longer march only
    appends rows."""
    n = maps.shape[0]
    blocks = (maps[:, :, :d, :d].transpose(1, 3, 0, 2)[:, None]
              * qd.transpose(0, 2, 1)[:, :, None, :, None])
    return blocks.reshape(-1, n * d)


def _solve_poly(ws: LatticeWorkspace, quantity: str, steps: int = 0, rate: _Poly | None = None,
                **labels) -> MomentSurface:
    """March a rate moment's coefficients with _march's trapezoid and
    implicit step (the map at elapsed time 0 is the identity); the
    surface holds the polynomial at x_nodes.  The known terms of every
    step (_known, and the far end at s = 0 with weight h/2) are computed
    first; the steps are the shared _renewal_march over the history
    blocks (semi_markov's module docstring), with h outside the product.
    No rate moment reads a transfer stack, so the held one is freed first:
    left below this march's small allocations, its memory could not be
    reused by the next build (moments-testbed peak RSS 69 -> 85 MiB)."""
    ws._held = None
    h, m, k_max = ws.config.step, ws.m, ws.thetas.size - 1
    ts = np.arange(k_max + 1 + steps) * h
    poly = _Poly(np.stack([_law_maps(ws.model, i, ts) for i in range(m)]), steps, rate)
    # x, or x R(lag, x) for a product
    initial = (np.tile([0.0, 1.0], (m, 1)) if rate is None
               else np.concatenate([np.zeros((m, 1)), rate.coefs[steps]], axis=1))
    qd, surv = ws.kernel.density_matrix(ts), ws.kernel.survival_matrix(ws.thetas + ts[steps])
    blocks = _history_blocks(poly.maps[:, 1:k_max + 1], qd[1:k_max + 1], initial.shape[1])
    far = initial.ravel() @ blocks.reshape(k_max, initial.size, initial.size)
    known = (np.stack([_known(ws, poly, i, qd[:, i], surv[:, i], slice(1, k_max + 1))
                       for i in range(m)], axis=1)
             - 0.5 * h * far.reshape((k_max,) + initial.shape))
    coefs = _renewal_march(blocks, ws._a_inv, known, initial, h)
    return MomentSurface(quantity, ws.thetas.copy(), ws.x_nodes.copy(),
                         _horner(coefs.transpose(1, 0, 2)[:, :, None, :], ws.x_nodes),
                         workspace=ws, spec=replace(poly, coefs=coefs), **labels)


def _aged_coefs(ws: LatticeWorkspace, poly: _Poly, i: int, u: float, k: int) -> np.ndarray:
    """Coefficients in r of the moment at s_k for state i entered u years
    ago: the march's known terms and history blocks for state i, built
    from the kernel read at theta + u over 1 - H_i(u), against the marched
    coefficients (one shared _history product, as in the march), and the
    known value at s_k at the elapsed-time-0 end.  u = 0 gives the
    marched row."""
    if k == 0:
        if poly.rate is None:
            return poly.coefs[0, i]
        # delta(0) is the start rate itself: r times the aged rate mean at the lag
        return np.concatenate([[0.0], _aged_coefs(ws, poly.rate, i, u, poly.lag)])
    h, denom, coefs = ws.config.step, ws.kernel.aged_survival(i, u), poly.coefs
    qd = ws.kernel.density_matrix(np.arange(k + 1 + poly.lag) * h + u)[:, i] / denom
    surv = ws.kernel.survival_matrix(ws.thetas[:k + 1] + poly.lag * h + u)[:, i] / denom
    blocks = _history_blocks(poly.maps[i:i + 1, 1:k + 1], qd[1:k + 1, None], coefs.shape[-1])
    known = (_known(ws, poly, i, qd, surv, slice(k, k + 1))[0]
             - 0.5 * h * (coefs[0].ravel() @ blocks[-coefs[0].size:]))
    history = _history(coefs[k - 1::-1].reshape(-1, 1), blocks, coefs[0].size)[0]
    return known + h * history + 0.5 * h * qd[0] @ coefs[k]


# ---------------------------------------------------------------------------
# The three quantities
# ---------------------------------------------------------------------------

def _workspace(kernel: SemiMarkovKernel, model: RegimeRateModel, config: SolverConfig,
               workspace: LatticeWorkspace | None) -> LatticeWorkspace:
    """A new workspace when none is given; a given one must hold these
    kernel and model objects and an equal config."""
    if workspace is None:
        return LatticeWorkspace(kernel, model, config)
    if (workspace.kernel is not kernel or workspace.model is not model
            or workspace.config != config):
        raise ValueError("the workspace was built for other kernel or model objects or config")
    return workspace


def solve_zcb_moment(n: int, kernel: SemiMarkovKernel, model: RegimeRateModel,
                     config: SolverConfig,
                     workspace: LatticeWorkspace | None = None) -> MomentSurface:
    """n-th moment of the discount factor, backward-zero, on the lattice.

    The no-switch part carries the regime's integrated-rate Laplace
    transform over the whole interval; a first switch at elapsed time
    theta contributes the transform up to theta times the surface
    restarted from the arriving rate and regime.  The accumulated
    discount over [0, theta] and the arriving rate r(theta) are
    dependent, so the restart is integrated against the discount-tilted
    transition law (for which all three model kinds stay closed form);
    with that pairing the single-regime case collapses to the plain
    integrated-rate Laplace transform identically.
    """
    if n < 1 or int(n) != n:
        raise ValueError("moment order n must be a positive integer")
    ws = _workspace(kernel, model, config, workspace)
    return MomentSurface(ZCB_MOMENT, ws.thetas.copy(), ws.x_nodes.copy(),
                         _march(ws, int(n)).transpose(1, 0, 2).copy(), order=int(n),
                         workspace=ws)


def solve_rate_mean(kernel: SemiMarkovKernel, model: RegimeRateModel,
                    config: SolverConfig,
                    workspace: LatticeWorkspace | None = None) -> MomentSurface:
    """First moment of the modulated rate, backward-zero:
    alpha_i(s) x + beta_i(s), its coefficients marched in s."""
    ws = _workspace(kernel, model, config, workspace)
    return _solve_poly(ws, RATE_MEAN)


def _require_companion(surface: MomentSurface | None, ws: LatticeWorkspace | None):
    if surface is None or surface.quantity != RATE_MEAN:
        raise ValueError(f"this operation needs the {RATE_MEAN} surface, got "
                         f"{surface and surface.quantity}")
    if surface.workspace is not ws:
        raise ValueError(f"the {RATE_MEAN} surface was solved on another workspace")


def solve_product_moment(h_lag: float, kernel: SemiMarkovKernel,
                         model: RegimeRateModel, config: SolverConfig,
                         rate_mean_surface: MomentSurface,
                         workspace: LatticeWorkspace | None = None) -> MomentSurface:
    """Lagged product moment E[delta(s) delta(s+h)], backward-zero.

    Marched in s for one fixed lag, which must be a node of the solver
    grid, as three coefficients in the start rate (_solve_poly, with its
    no-switch and window terms from _known).  A first switch inside
    (s, s+h] restarts the rate mean at the arriving rate y,
    alpha y + beta, read against r(s): the two rates are correlated, and
    a factorized m(s) * E[R] form would drop that covariance.
    """
    # with no workspace given, march on the rate-mean surface's
    ws = _workspace(kernel, model, config,
                    workspace or getattr(rate_mean_surface, "workspace", None))
    _require_companion(rate_mean_surface, ws)
    steps = ws.grid.index_of(h_lag)
    if steps >= ws.thetas.size:
        raise ValueError(f"lag {h_lag} lies beyond the workspace's march to {ws.thetas[-1]:.6g}")
    return _solve_poly(ws, PRODUCT_MOMENT, steps, rate_mean_surface.spec, lag=float(h_lag))


# ---------------------------------------------------------------------------
# Evaluation with a positive initial age
# ---------------------------------------------------------------------------

def _evaluate(surface: MomentSurface, quantity: str, kernel: SemiMarkovKernel,
              model: RegimeRateModel, i: int, u: float, r: float, s: float) -> float:
    """The aged pass of a solved surface, on its own workspace; kernel
    and model must be that workspace's objects."""
    if surface.quantity != quantity:
        raise ValueError(f"need a {quantity} surface, got {surface.quantity}")
    ws = surface.workspace
    solved = surface.order if quantity == ZCB_MOMENT else surface.spec
    if ws is None or solved is None or kernel is not ws.kernel or model is not ws.model:
        raise ValueError(f"evaluate a solved {quantity} surface with the kernel and model "
                         "objects it was solved with")
    check_lattice_rate(surface.x_nodes, r)
    kernel.aged_survival(i, u)   # refuses the age at every maturity, s = 0 included
    pairs = _node_pair(surface, s)
    if quantity == ZCB_MOMENT:
        return _aged(ws, surface, i, u, r, pairs)
    return sum(w * float(_horner(_aged_coefs(ws, surface.spec, i, u, k), r)) for k, w in pairs)


def evaluate_zcb_moment(surface: MomentSurface, kernel: SemiMarkovKernel,
                        model: RegimeRateModel, i: int, u: float, r: float,
                        s: float) -> float:
    """Discount-factor moment for a start state already u years old.

    One aged pass over the backward-zero surface: survival and switch
    densities are tilted by the age; everything under the integral
    comes from the stored lattice with the same quadratures the solver
    used, so u = 0 reproduces lattice values exactly.
    """
    return _evaluate(surface, ZCB_MOMENT, kernel, model, i, u, r, s)


def evaluate_rate_mean(surface: MomentSurface, kernel: SemiMarkovKernel,
                       model: RegimeRateModel, i: int, u: float, r: float,
                       s: float) -> float:
    """Mean of the modulated rate at s for a start state already u old."""
    return _evaluate(surface, RATE_MEAN, kernel, model, i, u, r, s)


def evaluate_product_moment(surface: MomentSurface, rate_mean_surface: MomentSurface,
                            kernel: SemiMarkovKernel, model: RegimeRateModel,
                            i: int, u: float, r: float, s: float) -> float:
    """Lagged product moment E[delta(s) delta(s+lag)] for an aged start."""
    _require_companion(rate_mean_surface, surface.workspace)
    return _evaluate(surface, PRODUCT_MOMENT, kernel, model, i, u, r, s)


def covariance_surface(xi_surface: MomentSurface,
                       rate_mean_surface: MomentSurface) -> MomentSurface:
    """Backward-zero covariance lattice: Xi(s, lag) - R(s) R(s+lag),
    defined for maturities with s + lag still on the grid."""
    if xi_surface.quantity != PRODUCT_MOMENT:
        raise ValueError("first argument must be a product-moment surface")
    _require_companion(rate_mean_surface, xi_surface.workspace)
    lag_idx = round(float(xi_surface.lag) / xi_surface.step)
    k_top = xi_surface.s_nodes.size - lag_idx
    r_vals = rate_mean_surface.values
    vals = (xi_surface.values[:, :k_top, :]
            - r_vals[:, :k_top, :] * r_vals[:, lag_idx:lag_idx + k_top, :])
    return MomentSurface(
        "covariance", xi_surface.s_nodes[:k_top].copy(), xi_surface.x_nodes.copy(),
        vals, lag=xi_surface.lag, workspace=xi_surface.workspace,
    )


def covariance(xi_surface: MomentSurface, rate_mean_surface: MomentSurface,
               kernel: SemiMarkovKernel, model: RegimeRateModel,
               i: int, u: float, r: float, s: float, h_lag: float) -> float:
    """Cov[delta(s), delta(s+h)] = Xi(s, h) - R(s) R(s+h), aged start."""
    if xi_surface.lag is None or abs(float(xi_surface.lag) - h_lag) > 1e-12:
        raise ValueError(
            f"product-moment surface solved at lag {xi_surface.lag}, asked for {h_lag}"
        )
    if s + h_lag > rate_mean_surface.s_nodes[-1] + 1e-9:
        raise ValueError("s + h exceeds the solved horizon of the rate-mean surface")
    product = evaluate_product_moment(
        xi_surface, rate_mean_surface, kernel, model, i, u, r, s
    )
    mean_s = evaluate_rate_mean(rate_mean_surface, kernel, model, i, u, r, s)
    mean_sh = evaluate_rate_mean(rate_mean_surface, kernel, model, i, u, r, s + h_lag)
    return product - mean_s * mean_sh
