"""Forward-marched renewal solvers for the modulated-rate moments.

Three quantities satisfy Volterra equations of the second kind in the
time-to-maturity variable s, coupled across regime states and across a
lattice of start rates x:

  * the n-th moment of the discount factor exp(-n int_0^s delta);
  * the first moment of the rate delta(s) itself;
  * the lagged product moment E[delta(s) delta(s+h)].

Each is solved with zero initial age ("backward-zero") on a
(state, s-node, x-node) lattice by trapezoidal time marching.  The
unknown at the current node enters the quadrature endpoint at elapsed
time 0 with weight h/2, so every step solves one fixed m x m linear
system per rate node; the opposite endpoint is supplied analytically
from the known initial condition.  Inner integrals over the arriving
rate use the model's transition-law quadratures, scattered onto the
lattice as linear-interpolation weights ("transfer operators") that are
built per (state, elapsed time) for the tilt a solve marches on.

The workspace holds one transfer stack, laid out as the march reads it:
per state one (Nx, (K+1)*Nx) matrix whose column block l is the operator
at elapsed time theta_l.  The product moment's first-moment law is summed
from the tilt-0 rules (_law_m1) in both evaluations.  The march advances
in panels of _PANEL steps: the part of every step's history sum that
reads values from before the panel is one matrix-matrix product per
state and panel, so each block is read once per panel, and only the
history inside the panel is summed step by step (the first level of
Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).  A
discount-tilted stack carries its no-switch discount as a row
weight.  Stacks are built a chunk of elapsed times at a time: the chunk's
rules come from one call and are scattered onto the lattice in one
``np.bincount`` pass, which bounds the temporaries and sums every
lattice cell in the same order as consecutive ``np.add.at`` passes.

Each quantity is written down once, as a small spec (_Spec), and every
spec runs through the same two evaluations: the lattice march and the
aged pass.  Evaluating at a positive initial age u is a single
quadrature pass over the stored backward-zero surface that mirrors the
march term by term, so the u = 0 case reproduces lattice values.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import GridCoverageError, NumericsError
from .rate_models import (
    CIR,
    RegimeRateModel,
    cir_discounted_transition_constants,
    cir_transition_constants,
    gaussian_quadrature_batch,
    ncx2_rule_batch,
)
from .semi_markov import SemiMarkovKernel, TimeGrid

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
    the lattice from its core nodes; ``mc_step`` is the path step used
    by Monte Carlo cross-checks driven from the same config.
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
    extrapolate.  A solved surface keeps the workspace and the spec it
    was marched with; its aged evaluations run on those.
    """

    quantity: str
    s_nodes: np.ndarray
    x_nodes: np.ndarray
    values: np.ndarray
    order: int | None = None
    lag: float | None = None
    workspace: LatticeWorkspace | None = field(default=None, repr=False, compare=False)
    spec: _Spec | None = field(default=None, repr=False, compare=False)

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
    if x < x_nodes[0] - 1e-12 or x > x_nodes[-1] + 1e-12:
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
    density).  Both evaluations of a renewal spec come through here, so
    their discretizations coincide.
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


def _scatter(x_nodes, nodes, weights) -> np.ndarray:
    """Scatter quadrature rules into lattice interpolation weights.

    nodes, weights have shape (L, Nx, Q): rule q of row p in block l.
    Returns (L, Nx, Nx) blocks whose row p applied to a vector of lattice
    values v gives sum_q w_q * vhat(y_q), with vhat the piecewise-linear
    interpolant clamped at the lattice ends.  One bincount over the whole
    batch; per row it adds every (1 - frac) term and then every frac
    term, in rule order.
    """
    n_blocks, n_rows, _ = nodes.shape
    nx = x_nodes.size
    y = np.clip(nodes, x_nodes[0], x_nodes[-1])
    idx = np.clip(np.searchsorted(x_nodes, y, side="right") - 1, 0, nx - 2)
    gap = x_nodes[idx + 1] - x_nodes[idx]
    frac = np.clip((y - x_nodes[idx]) / gap, 0.0, 1.0)
    cells = np.concatenate([idx, idx + 1], axis=-1)
    cells += nx * np.arange(n_blocks * n_rows).reshape(n_blocks, n_rows, 1)
    terms = np.concatenate([weights * (1.0 - frac), weights * frac], axis=-1)
    out = np.bincount(cells.ravel(), weights=terms.ravel(), minlength=n_blocks * n_rows * nx)
    return out.reshape(n_blocks, n_rows, nx)


def _law_m1(x_nodes, nodes, weights, v) -> np.ndarray:
    """sum_q w_q * y_q * vhat(y_q) per rule (last axis q), with vhat the
    interpolant of lattice vector v clamped at the lattice ends."""
    return (weights * nodes * np.interp(nodes, x_nodes, v)).sum(axis=-1)


def _blocks(stack: np.ndarray, i: int) -> np.ndarray:
    """(K+1, Nx, Nx) view of state i's packed transfer matrix: [l] is the
    operator at elapsed time theta_l."""
    nx = stack.shape[1]
    return stack[i].reshape(nx, -1, nx).transpose(1, 0, 2)


class LatticeWorkspace:
    """Reusable per-(kernel, model, config) solver state: the rate
    lattice, kernel tables on the time grid, the factored implicit-step
    matrix, and one packed transfer stack, the one last asked for.

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

    def _check_coverage(self, escape: np.ndarray, where: str):
        worst = float(escape[self._core].max(initial=0.0))
        if worst > self.config.coverage_tol:
            raise GridCoverageError(
                f"transition law escapes the rate lattice with mass "
                f"{worst:.2e} (> {self.config.coverage_tol}) at {where}; "
                "widen the rate grid"
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
        scaled by the discount after the scatter.  Past the march the
        chunks' rules are built for the coverage check alone."""
        m, nx, kp1 = self.m, self.x_nodes.size, self.thetas.size
        order = self.config.quad_order
        every = self.grid.nodes
        packed = np.empty((m, nx, kp1 * nx))
        for i in range(m):
            blocks = _blocks(packed, i)
            blocks[0] = np.eye(nx)
            for l0 in range(1, every.size, _SCATTER_CHUNK):
                l1 = min(l0 + _SCATTER_CHUNK, every.size)
                nodes, weights = _law_nodes_weights(self.model, i, self.x_nodes,
                                                    every[l0:l1, None], order, tilt=tilt)
                for l, escape in zip(range(l0, l1), _escaped(self.x_nodes, nodes, weights)):
                    self._check_coverage(escape, f"state {i}, elapsed {every[l]:.4g}")
                if l0 < kp1:
                    blocks[l0:l1] = _scatter(self.x_nodes, nodes, weights)
            if tilt:
                discount = _no_switch_discount(self.model, tilt)(i, self.x_nodes[:, None],
                                                                 self.thetas)
                blocks *= np.asarray(discount).T[:, :, None]
        return packed


# ---------------------------------------------------------------------------
# Renewal specs and their two evaluations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Spec:
    """One renewal equation, described once for both evaluations:

      V_i(s, x) = S_i(s + shift) f_i(x, s)
                + int_0^s sum_j qdot_ij(theta) w_i(x, theta)
                    E^tilt[V_j(s - theta, r(theta)) | r(0) = x] dtheta
                + window term.

    table(i, r, thetas)  the no-switch moment f_i, broadcast over rates
                         and times.  With tilt = n > 0 the history runs
                         under the discount-tilted law and f is also its
                         row weight w (the discount accumulated before
                         the switch); otherwise w = 1.
                         The march reads the history from transfer(n),
                         which carries that weight; tilt > 0 therefore
                         means the discount moment of order n.
    initial(ctx)         (rows, rates) block at s = 0.
    endpoint(ctx, k)     sum_j qdot_ij(s_k) times the inner integral of
                         the known initial condition, the far end of the
                         convolution, supplied so it is never clamped.
    shift                survival read at s + shift (the product
                         moment's lag: no switch before s + lag).
    window(ctx, k)       optional additive known block reading ``reach``
                         steps of kernel density past s (the product
                         moment's first switch inside (s, s + lag]).
    """

    quantity: str
    table: Callable
    initial: Callable
    endpoint: Callable
    tilt: int = 0
    shift: float = 0.0
    window: Callable | None = None
    reach: int = 0


class _Lattice:
    """Where _march evaluates a spec: every state, every lattice rate,
    age 0."""

    def __init__(self, ws: LatticeWorkspace, spec: _Spec):
        self.ws = ws
        self.h = ws.config.step
        self.rows = range(ws.m)
        self.rates = ws.x_nodes
        self.table = np.empty((ws.m, ws.thetas.size, self.rates.size))
        for i in self.rows:
            self.table[i] = np.asarray(spec.table(i, self.rates[:, None], ws.thetas)).T
        self.surv = (ws.kernel.survival_matrix(ws.thetas + spec.shift)
                     if spec.shift else ws.survival)
        self.qd = (ws.kernel.density_matrix(np.arange(ws.thetas.size + spec.reach) * self.h)
                   if spec.reach else ws.qdot)
        self._chunk_rules = functools.lru_cache(maxsize=1)(lambda l0: [
            _law_nodes_weights(ws.model, i, ws.x_nodes, ws.thetas[l0:l0 + _SCATTER_CHUNK, None],
                               ws.config.quad_order) for i in range(ws.m)])

    def law_m1(self, l: int, vs: np.ndarray) -> np.ndarray:
        """E[r(theta_l) vhat(r(theta_l))], l >= 1, from every lattice rate,
        one lattice vector per row; the tilt-0 rules of l's _SCATTER_CHUNK
        of elapsed times come from the stack build's call, one chunk kept."""
        l0 = l - (l - 1) % _SCATTER_CHUNK
        return np.stack([_law_m1(self.rates, nodes[l - l0], weights[l - l0], vs[i])
                         for i, (nodes, weights) in enumerate(self._chunk_rules(l0))])

    def start(self, spec: _Spec, surface: MomentSurface, k: int) -> np.ndarray:
        """The surface's quantity at s_k, started where this context is."""
        return surface.values[:, k, :]


class _Point:
    """Where the aged pass evaluates a spec: state i entered u years
    ago, one start rate r, maturities up to s_{k_top}.  Kernel
    densities and survival are read at theta + u and divided by the
    aged survival 1 - H_i(u); the transition-law rules for elapsed times
    1..k_top are built once and their prefixes serve shorter nodes."""

    def __init__(self, ws: LatticeWorkspace, spec: _Spec, i: int, u: float, r: float,
                 k_top: int):
        self.ws, self.i, self.u, self.r = ws, i, u, float(r)
        self.h = ws.config.step
        self.rows = [i]
        self.rates = np.array([self.r])
        if k_top == 0:
            return  # s = 0 reads the initial block only
        denom = ws.kernel.aged_survival(i, u)
        thetas = ws.thetas[: k_top + 1]
        self.table = np.asarray(spec.table(i, self.rates[:, None], thetas)).T[None]
        self.surv = ws.kernel.survival_matrix(thetas + spec.shift + u)[:, [i]] / denom
        self.qd = ws.kernel.density_matrix(
            np.arange(k_top + 1 + spec.reach) * self.h + u)[:, [i], :] / denom
        self.nodes, self.weights = _law_nodes_weights(
            ws.model, i, self.r, thetas[1:], ws.config.quad_order, tilt=spec.tilt)

    def law_m1(self, l: int, vs: np.ndarray) -> np.ndarray:
        return np.array([[_law_m1(self.ws.x_nodes, self.nodes[l - 1], self.weights[l - 1],
                                  vs[0])]])

    def start(self, spec: _Spec, surface: MomentSurface, k: int) -> np.ndarray:
        return np.array([[_aged(self.ws, spec, surface, self.i, self.u, self.r,
                                [(k, 1.0)])]])


def _known(spec: _Spec, ctx, k: int) -> np.ndarray:
    """Known blocks at s_k: no-switch survival term, far endpoint (with
    its trapezoid weight h/2), and the optional window."""
    rhs = ctx.surv[k][:, None] * ctx.table[:, k, :] + 0.5 * ctx.h * spec.endpoint(ctx, k)
    if spec.window is not None:
        rhs = rhs + spec.window(ctx, k)
    return rhs


def _march(ws: LatticeWorkspace, spec: _Spec) -> np.ndarray:
    """Trapezoidal forward march of a spec over the whole lattice.

    The unknown at s_k enters the elapsed-time-0 end of the convolution
    with weight h/2, where the transfer block is the identity and the
    row weight is 1, so the implicit step matrix absorbs it.  The
    history l = 1..k-1 (weight-folded when the spec tilts) splits at the
    start k0 of the step's panel: lags reading values before k0 come
    from the panel's far-history product (_far_history), and the lags
    l = 1..k-k0 inside the panel are one matrix-vector product per state.
    """
    ctx = _Lattice(ws, spec)
    h = ctx.h
    k_max = ws.thetas.size - 1
    m = ws.m
    nx = ws.x_nodes.size
    qd = ws.qdot
    packed = ws.transfer(spec.tilt)
    vals = np.empty((k_max + 1, m, nx))
    vals[0] = spec.initial(ctx)
    scratch = np.empty(_PANEL * _HISTORY_BLOCKS * nx)
    for k0 in range(1, k_max + 1, _PANEL):
        k1 = min(k0 + _PANEL, k_max + 1)
        far = _far_history(packed, qd, vals, k0, k1, scratch)
        for k in range(k0, k1):
            rhs = _known(spec, ctx, k) + h * far[:, :, k - k0]
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


def _aged(ws: LatticeWorkspace, spec: _Spec, surface: MomentSurface, i: int,
          u: float, r: float, pairs) -> float:
    """Aged pass: the spec at (state i, age u, rate r), read linearly
    between the maturity nodes ``pairs`` = [(k, weight), ...].

    Mirrors _march term by term over the stored lattice, except that the
    value at s_k is known, so the elapsed-time-0 end is explicit: a
    point mass at r.  At u = 0 it reproduces the lattice values.
    """
    ctx = _Point(ws, spec, i, u, r, max(k for k, _ in pairs))
    h, x, vals = ctx.h, ws.x_nodes, surface.values
    total = 0.0
    for k, w in pairs:
        if k == 0:
            total += w * float(spec.initial(ctx)[0, 0])
            continue
        acc = float(_known(spec, ctx, k)[0, 0])
        point = np.array([np.interp(ctx.r, x, vals[j, k]) for j in range(ws.m)])
        acc += 0.5 * h * float(ctx.qd[0, 0] @ point)
        if k >= 2:
            inner = np.zeros(k - 1)
            for j in range(ws.m):
                tab = vals[j, k - 1:0:-1]                      # row l-1 -> surface at k-l
                inner += ctx.qd[1:k, 0, j] * (
                    ctx.weights[:k - 1] * _interp_rows(x, tab, ctx.nodes[:k - 1])
                ).sum(axis=1)
            if spec.tilt:
                inner = inner * ctx.table[0, 1:k, 0]
            acc += h * float(inner.sum())
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
# The three quantities
# ---------------------------------------------------------------------------

def _closed_endpoint(ctx, k: int) -> np.ndarray:
    # the inner integral of the initial condition is the no-switch table
    # itself: mass 1 under the tilted law for the discount moments, the
    # exact transition mean for the rate mean
    return ctx.qd[k].sum(axis=1)[:, None] * ctx.table[:, k, :]


def _no_switch_discount(model: RegimeRateModel, n: int) -> Callable:
    """(i, r, thetas) -> E[exp(-n int_0^theta r) | r(0) = r] in state i:
    the discount moment's table and the row weight of transfer(n)."""
    return lambda i, r, thetas: model.bond_laplace(i, r, n, thetas)


def _zcb_spec(ws: LatticeWorkspace, n: int) -> _Spec:
    return _Spec(
        ZCB_MOMENT,
        table=_no_switch_discount(ws.model, n),
        initial=lambda ctx: np.ones((len(ctx.rows), ctx.rates.size)),
        endpoint=_closed_endpoint,
        tilt=n,
    )


def _rate_spec(ws: LatticeWorkspace) -> _Spec:
    return _Spec(
        RATE_MEAN,
        table=ws.model.mean,
        initial=lambda ctx: np.broadcast_to(ctx.rates, (len(ctx.rows), ctx.rates.size)).copy(),
        endpoint=_closed_endpoint,
    )


def _product_spec(ws: LatticeWorkspace, lag: float, rate_surface: MomentSurface) -> _Spec:
    lag_idx = ws.grid.index_of(lag)
    if lag_idx >= ws.thetas.size:
        raise ValueError(f"lag {lag} lies beyond the workspace's march to {ws.thetas[-1]:.6g}")
    h = ws.config.step
    model = ws.model
    r_lag = rate_surface.values[:, lag_idx, :]
    # window slices: index l' -> R at remaining time lag - theta_{l'}
    rate_window = rate_surface.values[:, lag_idx::-1, :]      # (m, L+1, Nx)
    win_w = np.ones(lag_idx + 1)
    win_w[0] = win_w[-1] = 0.5

    def initial(ctx):
        # delta(0) is the start rate itself: Xi(0, lag) = r * R(lag, r)
        return ctx.rates[None, :] * ctx.start(_rate_spec(ws), rate_surface, lag_idx)

    def endpoint(ctx, k):
        # inner integral of Xi(0, y) = y * R(lag, y) through the
        # first-moment law at elapsed time s_k
        return ctx.law_m1(k, np.stack([np.einsum("j,jy->y", q, r_lag) for q in ctx.qd[k]]))

    # [i][l, j] = w_l * block_{i,l} @ rate_window[j, l]: the window's
    # restarts read the fixed rate surface, so the march and every aged
    # pass contract this one table, built once here, with their densities
    transfer = ws.transfer()
    table = np.stack([
        (win_w[:, None, None] * np.matmul(_blocks(transfer, i)[:lag_idx + 1],
                                          rate_window.transpose(1, 2, 0))
         ).transpose(0, 2, 1).reshape(-1, ws.x_nodes.size)
        for i in range(ws.m)])                                      # (m, (L+1)*m, Nx)

    def window(ctx, k):
        restarts = [h * (ctx.qd[k:k + lag_idx + 1, row, :].ravel() @ table[i])
                    for row, i in enumerate(ctx.rows)]
        return ctx.law_m1(k, np.stack(restarts))

    return _Spec(
        PRODUCT_MOMENT,
        table=lambda i, r, t: model.product_mean(i, r, t, lag),
        initial=initial,
        endpoint=endpoint,
        shift=lag,
        window=window if lag_idx else None,
        reach=lag_idx,
    )


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


def _solve(ws: LatticeWorkspace, spec: _Spec, **labels) -> MomentSurface:
    vals = _march(ws, spec)
    return MomentSurface(
        spec.quantity, ws.thetas.copy(), ws.x_nodes.copy(), vals.transpose(1, 0, 2).copy(),
        workspace=ws, spec=spec, **labels,
    )


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
    return _solve(ws, _zcb_spec(ws, int(n)), order=int(n))


def solve_rate_mean(kernel: SemiMarkovKernel, model: RegimeRateModel,
                    config: SolverConfig,
                    workspace: LatticeWorkspace | None = None) -> MomentSurface:
    """First moment of the modulated rate, backward-zero, on the lattice."""
    ws = _workspace(kernel, model, config, workspace)
    return _solve(ws, _rate_spec(ws))


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
    grid; three blocks per step.  No switch before s+h: the regime's own
    two-point moment.  First switch inside (s, s+h]: couples the rate at
    s with the rate-mean surface restarted at the switch; evaluated with
    the exact two-stage quadrature E[r(s) * Rhat(arriving rate)] because
    the rate at s and the arriving rate are correlated (a factorized
    m(s) * E[Rhat] form drops that covariance, which Monte Carlo
    resolves at cross-check precision).  First switch before s:
    restarts the product moment itself, the recursive part handled by
    the shared march.
    """
    # with no workspace given, march on the rate-mean surface's
    ws = _workspace(kernel, model, config,
                    workspace or getattr(rate_mean_surface, "workspace", None))
    _require_companion(rate_mean_surface, ws)
    return _solve(ws, _product_spec(ws, h_lag, rate_mean_surface), lag=float(h_lag))


# ---------------------------------------------------------------------------
# Evaluation with a positive initial age
# ---------------------------------------------------------------------------

def _evaluate(surface: MomentSurface, quantity: str, kernel: SemiMarkovKernel,
              model: RegimeRateModel, i: int, u: float, r: float, s: float) -> float:
    """The aged pass of the spec the surface was marched with, on its own
    workspace; kernel and model must be that workspace's objects."""
    if surface.quantity != quantity:
        raise ValueError(f"need a {quantity} surface, got {surface.quantity}")
    ws = surface.workspace
    if ws is None or surface.spec is None or kernel is not ws.kernel or model is not ws.model:
        raise ValueError(f"evaluate a solved {quantity} surface with the kernel and model "
                         "objects it was solved with")
    check_lattice_rate(surface.x_nodes, r)
    return _aged(ws, surface.spec, surface, i, u, r, _node_pair(surface, s))


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
    if rate_mean_surface.quantity != RATE_MEAN:
        raise ValueError("second argument must be a rate-mean surface")
    if (not np.allclose(xi_surface.s_nodes, rate_mean_surface.s_nodes)
            or not np.allclose(xi_surface.x_nodes, rate_mean_surface.x_nodes)):
        raise ValueError("surface grids do not match")
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
