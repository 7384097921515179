"""Markov renewal kernel and everything derived from it.

The kernel is factored as Q_ij(t) = p_ij * G_ij(t): an embedded jump
chain P plus a parametric holding-time law per edge.  On top of that
this module computes the interval transition probabilities phi_ij(t)
(time-marched Volterra equation of the second kind), their aged variant
for a process that entered its current state u years ago, and the one
sojourn draw, ``sample_sojourns``: next state and wait from the kernel
conditioned on the current state's age, each wait by closed-form
inversion of its edge law, with no root finding.  Age 0 is the plain
renewal draw.  The jump skeleton that strings these draws into paths
lives with the path engine in ``monte_carlo``.

It also holds the renewal march that phi and the rate moments of
``moment_engine`` share: each is a known term plus a convolution of the
kernel with the unknown, so on a uniform grid step k reads
x_k = a_inv (known_k + scale * sum_{l=1..k} B_l x_{k-l}), with the lag-0
weight folded into a_inv.  B_l is the same at every step, so each step's
history is one product of the stacked blocks' prefix with the values
newest first (``_history``).  phi has one coefficient per state and one
column per destination state, a rate moment d coefficients per state in
one column.  An aged pass is one such step over the stored solution,
with the weights read at theta + age and the value at s_k known.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBackwardError, NumericsError
from .sojourn import SojournDistribution

_ROW_TOL = 1e-12
_ROWSUM_DRIFT_TOL = 1e-4
# lags per partial sum of a renewal march's history product
_HISTORY_CHUNK = 32
_BELOW_ONE = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class BackwardState:
    """Where the switching process sits now: current state plus its age.

    ``age`` is the time already spent in ``state`` (the initial backward
    value); age 0 means the process has just jumped.
    """

    state: int
    age: float = 0.0

    def __post_init__(self):
        if not self.age >= 0:
            raise ValueError("age must be nonnegative")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time lattice t_k = k*step, k = 0..n_steps."""

    step: float
    horizon: float

    def __post_init__(self):
        if self.step <= 0 or self.horizon <= 0:
            raise ValueError("step and horizon must be positive")
        k = round(self.horizon / self.step)
        if abs(k * self.step - self.horizon) > 1e-12 * max(1.0, self.horizon):
            raise ValueError(
                f"horizon {self.horizon} is not a whole number of steps {self.step}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.step)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.step

    def index_of(self, t: float) -> int:
        """Grid index of t; raises if t is not (close to) a node."""
        k = round(t / self.step)
        if k < 0 or k > self.n_steps or abs(k * self.step - t) > 1e-9:
            raise ValueError(f"time {t} is not a node of the grid (step {self.step})")
        return k


class SemiMarkovKernel:
    """Renewal kernel Q_ij(t) = p_ij * G_ij(t) on m states.

    Rows of P must sum to 1; a row of zeros marks an absorbing state
    (the process never leaves it).  Self-transitions are excluded for
    m >= 2: regimes are meant to change at jumps, and a self-jump would
    silently reset the age process; the single-state kernel keeps
    p_00 = 1 so renewals remain possible.
    """

    def __init__(self, P, sojourns, states=None):
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("P must be a square matrix")
        m = P.shape[0]
        if np.any(P < -_ROW_TOL):
            raise ValueError("P entries must be nonnegative")
        row_sums = P.sum(axis=1)
        for i, s in enumerate(row_sums):
            if not (abs(s - 1.0) <= _ROW_TOL or abs(s) <= _ROW_TOL):
                raise ValueError(
                    f"row {i} of P sums to {s!r}; must be 1 (active) or 0 (absorbing)"
                )
        if m >= 2 and np.any(np.abs(np.diag(P)) > _ROW_TOL):
            raise ValueError("self-transitions p_ii must be 0")

        self.m = m
        self.P = P
        self.states = list(states) if states is not None else [str(i) for i in range(m)]
        if len(self.states) != m:
            raise ValueError("state-name list length must match P")

        self._G = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                if P[i, j] > 0.0:
                    g = sojourns[i][j]
                    if g is None:
                        raise ValueError(f"edge ({i},{j}) has p>0 but no sojourn law")
                    if not isinstance(g, SojournDistribution):
                        g = SojournDistribution.from_dict(g)
                    self._G[i][j] = g
        # the age-0 draw tables, read by every renewal draw
        self._age0_tables = [None if self.is_absorbing(i) else self._draw_table(i, 0.0)
                       for i in range(m)]

    # -- kernel entries ------------------------------------------------

    def sojourn(self, i: int, j: int) -> SojournDistribution | None:
        return self._G[i][j]

    def cdf(self, i: int, j: int, t):
        """Q_ij(t) = p_ij G_ij(t): probability of jumping to j within t."""
        self._check_index(i, j)
        if self.P[i, j] == 0.0:
            return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0
        return self.P[i, j] * self._G[i][j].cdf(t)

    def density(self, i: int, j: int, t):
        """Time derivative of Q_ij; integrates to p_ij over (0, inf)."""
        self._check_index(i, j)
        if self.P[i, j] == 0.0:
            return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0
        return self.P[i, j] * self._G[i][j].pdf(t)

    def holding_cdf(self, i: int, t):
        """H_i(t): probability of leaving state i within time t."""
        self._check_index(i)
        acc = np.zeros_like(np.asarray(t, dtype=float))
        for j in range(self.m):
            if self.P[i, j] > 0.0:
                acc = acc + self.P[i, j] * self._G[i][j].cdf(t)
        return acc if acc.ndim else float(acc)

    def _edge_matrix(self, law, ts) -> np.ndarray:
        """p_ij law(G_ij, t) on every edge: shape (len(ts), m, m), zero
        where p_ij = 0."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.zeros((ts.size, self.m, self.m))
        for i in range(self.m):
            for j in range(self.m):
                if self.P[i, j] > 0.0:
                    out[:, i, j] = self.P[i, j] * law(self._G[i][j], ts)
        return out

    def density_matrix(self, ts) -> np.ndarray:
        """Stacked kernel derivative: shape (len(ts), m, m)."""
        return self._edge_matrix(SojournDistribution.pdf, ts)

    def cdf_matrix(self, ts) -> np.ndarray:
        """Stacked kernel cdf Q_ij: shape (len(ts), m, m)."""
        return self._edge_matrix(SojournDistribution.cdf, ts)

    def partial_mean_matrix(self, ts) -> np.ndarray:
        """Stacked truncated first moments p_ij E[W 1(W <= t)]:
        shape (len(ts), m, m)."""
        return self._edge_matrix(SojournDistribution.partial_mean, ts)

    def survival_matrix(self, ts) -> np.ndarray:
        """1 - H_i at each time: shape (len(ts), m)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((ts.size, self.m))
        for i in range(self.m):
            out[:, i] = 1.0 - self.holding_cdf(i, ts)
        return out

    def is_absorbing(self, i: int) -> bool:
        return self.P[i].sum() <= _ROW_TOL

    def _check_index(self, *idx):
        for k in idx:
            if not (0 <= int(k) < self.m) or int(k) != k:
                raise ValueError(f"state index {k} out of range for m={self.m}")

    # -- the sojourn law, at any age -------------------------------------

    def aged_holding_cdf(self, i: int, age: float, w):
        """P(first jump within w | already age years in i) =
        (H_i(age+w) - H_i(age)) / (1 - H_i(age))."""
        return ((self.holding_cdf(i, age + np.maximum(w, 0.0)) - self.holding_cdf(i, age))
                / self.aged_survival(i, age))

    def aged_survival(self, i: int, age: float) -> float:
        """1 - H_i(age), the mass that conditioning on age divides by;
        raises DegenerateBackwardError when the age leaves none."""
        if not age >= 0:
            raise ValueError("age must be nonnegative")
        h_u = float(self.holding_cdf(i, age))
        if h_u >= 1.0 - 1e-12:
            raise DegenerateBackwardError(
                f"state {i} with age {age}: H_i(age)={h_u} leaves no mass to condition on"
            )
        return 1.0 - h_u

    def _draw_table(self, i: int, age: float):
        """Edges of active state i, their cdfs at ``age``, the cumulative
        edge weights p_ij (1 - G_ij(age)) and the last edge of positive
        weight: every u in [0, 1) picks an edge up to it, also when
        u * total rounds up to the total."""
        edges = np.flatnonzero(self.P[i] > 0.0)
        g_age = np.array([self._G[i][j].cdf(age) for j in edges])
        weights = self.P[i, edges] * (1.0 - g_age)
        return edges, g_age, np.cumsum(weights), np.flatnonzero(weights > 0.0)[-1]

    def sample_sojourns(self, states, age: float, u_next, u_wait):
        """Exact joint draw of the next state and the time left in the
        current one, for paths whose state has already lasted ``age``.

        The next state is j with probability p_ij (1 - G_ij(age)) /
        (1 - H_i(age)), chosen by u_next; given j the wait inverts the
        edge law conditioned on outlasting the age,
        w = G_ij^{-1}(G_ij(age) + u_wait (1 - G_ij(age))) - age, floored
        at 0.  At age 0 this is the renewal draw: weights p_ij and
        w = G_ij^{-1}(u_wait).  An absorbing state keeps its path with an
        infinite wait.  ``states`` picks the kernel row per path; returns
        (next_state, w) arrays of its shape.
        """
        states = np.asarray(states)
        if states.size and (states.min() < 0 or states.max() >= self.m):
            raise ValueError(f"state index out of range for m={self.m}")
        nxt = np.empty(states.shape, dtype=np.int64)
        w = np.empty(states.shape, dtype=float)
        for i in range(self.m):
            sel = states == i
            if not sel.any():
                continue
            if self.is_absorbing(i):
                nxt[sel] = i
                w[sel] = np.inf
                continue
            if age > 0:
                self.aged_survival(i, age)  # raises when the age leaves no mass
                edges, g_age, cum, last = self._draw_table(i, age)
            else:
                edges, g_age, cum, last = self._age0_tables[i]
            pick = np.minimum(np.searchsorted(cum, u_next[sel] * cum[-1], side="right"), last)
            nxt[sel] = edges[pick]
            for e, j in enumerate(edges):
                pair = sel.copy()
                pair[sel] = pick == e
                if pair.any():
                    # kept below 1: a u_wait near 1 would round to an infinite wait
                    left = np.minimum(g_age[e] + u_wait[pair] * (1.0 - g_age[e]), _BELOW_ONE)
                    w[pair] = np.maximum(self._G[i][j].ppf(left) - age, 0.0)
        return nxt, w

    def to_dict(self) -> dict:
        soj = [
            [self._G[i][j].to_dict() if self._G[i][j] is not None else None for j in range(self.m)]
            for i in range(self.m)
        ]
        return {"states": self.states, "P": self.P.tolist(), "sojourns": soj}


def alternating_kernel(g12: SojournDistribution, g21: SojournDistribution,
                       states=("0", "1")) -> SemiMarkovKernel:
    """Two-state kernel that always switches: P = [[0,1],[1,0]]."""
    return SemiMarkovKernel(
        [[0.0, 1.0], [1.0, 0.0]], [[None, g12], [g21, None]], states=states
    )


# ---------------------------------------------------------------------------
# Interval transition probabilities
# ---------------------------------------------------------------------------

def _history(newest_first: np.ndarray, blocks: np.ndarray, md: int) -> np.ndarray:
    """newest_first.T @ blocks[:len(newest_first)], for md rows per lag and
    any number of columns: one batched product gives the partial sums of
    each whole chunk of _HISTORY_CHUNK lags, counted from the newest, which
    are added to the rest's last.  Against one running sum this halves the
    rounding (the rate mean of single_regime_cir, K = 2000, is 5.4e-16 of
    its largest value off a long-double march, not 1.1e-15), and a longer
    march gives the same bits at each shared step."""
    n, cols, size = newest_first.shape[0], newest_first.shape[1], _HISTORY_CHUNK * md
    whole = n - n % size
    out = newest_first[whole:].T @ blocks[whole:n]
    if whole:
        chunks = (newest_first[:whole].reshape(-1, size, cols).transpose(0, 2, 1)
                  @ blocks[:whole].reshape(-1, size, blocks.shape[1]))
        out = out + chunks.sum(axis=0)
    return out


def _renewal_march(blocks: np.ndarray, a_inv: np.ndarray, known: np.ndarray,
                   initial: np.ndarray, scale: float) -> np.ndarray:
    """x_0 = initial and x_k = a_inv (known[k-1] + scale * history_k) for
    values of shape (m, w), as (K+1, m, w); blocks stacks B_1, B_2, ...
    transposed, blocks.shape[1] rows each (module docstring)."""
    steps, md = known.shape[0], blocks.shape[1]
    newest_first = np.empty((steps + 1,) + initial.shape)
    newest_first[steps] = initial
    rows = newest_first.reshape(-1, initial.size // md)
    for k in range(1, steps + 1):
        history = _history(rows[(steps - k + 1) * md:], blocks, md)
        newest_first[steps - k] = a_inv @ (known[k - 1] + scale * history.T.reshape(initial.shape))
    return newest_first[::-1].copy()


def _renewal_terms(kernel: SemiMarkovKernel, grid: TimeGrid, offset: float):
    """Product-trapezoidal weights for int Qdot(offset + s) f(t - s) ds.

    The kernel is integrated exactly (via its cdf and truncated first
    moment) against a piecewise-linear interpolant of f, so constants
    pass through with no quadrature error at all: summing the weights
    over a row reproduces H_i(offset + t) - H_i(offset) exactly, which
    pins the row sums of the transition probabilities to 1.

    Returns (full0, blocks, known): the lag-0 weight, the lags 1..K
    stacked transposed for _history, and per step n diag(1 - H(offset +
    t_n)) less the lag-n panel's far weight, which the last node lacks.
    """
    nodes, h = grid.nodes + offset, grid.step
    q_cdf = kernel.cdf_matrix(nodes)                  # (K+1, m, m)
    q_pm = kernel.partial_mean_matrix(nodes)          # (K+1, m, m)
    m0 = q_cdf[1:] - q_cdf[:-1]                       # per-panel mass
    m1 = q_pm[1:] - q_pm[:-1] - offset * m0           # per-panel first moment (grid clock)
    weight_lo = (m0 * grid.nodes[1:, None, None] - m1) / h    # to f at the near node
    weight_hi = (m1 - m0 * grid.nodes[:-1, None, None]) / h   # to f at the far node

    m = kernel.m
    full = np.zeros((grid.n_steps + 1, m, m))
    full[:-1] += weight_lo
    full[1:] += weight_hi
    known = np.zeros((grid.n_steps, m, m))
    known[:-1] -= weight_lo[1:]
    known[:, range(m), range(m)] += kernel.survival_matrix(nodes[1:])
    return full[0], full[1:].transpose(0, 2, 1).reshape(-1, m), known


def _check_rowsums(table: np.ndarray, what: str, hint: str = ""):
    """Refuse a table whose rows drift from 1 past _ROWSUM_DRIFT_TOL or are NaN."""
    drift = np.abs(table.sum(axis=2) - 1.0).max()
    if not drift <= _ROWSUM_DRIFT_TOL:   # a NaN drift fails too
        raise NumericsError(f"{what} rows drift from 1 by up to {drift:.3e}{hint}")


def transition_probabilities(kernel: SemiMarkovKernel, grid: TimeGrid) -> np.ndarray:
    """Solve phi_ij on the grid by product-trapezoidal forward marching.

    phi_ij(t) = delta_ij (1 - H_i(t)) + sum_k int_0^t Qdot_ik(s) phi_kj(t-s) ds.

    The renewal march with d = 1 and one right-hand column per
    destination j (module docstring).  The convolution integrates the
    kernel exactly against a piecewise-linear interpolant of phi; the
    unknown at the current node appears in the first panel's weight, so
    each step solves one fixed m x m linear system.  The weights read the
    kernel's cdf and truncated mean, never its density, so sojourn
    densities that are infinite at 0 (Weibull or gamma shape < 1) march
    like any other.  Row sums stay at 1 up to roundoff by construction; a
    drift beyond 1e-4, or a non-finite value, raises NumericsError as a
    corruption guard.  Returns an array of shape (n_steps + 1, m, m).
    """
    m = kernel.m
    full0, blocks, known = _renewal_terms(kernel, grid, 0.0)
    phi = _renewal_march(blocks, np.linalg.inv(np.eye(m) - full0), known, np.eye(m), 1.0)
    _check_rowsums(phi, "transition-probability",
                   f"; reduce the grid step (current {grid.step})")
    return phi


def backward_transition_probabilities(
    kernel: SemiMarkovKernel, age: float, grid: TimeGrid, phi: np.ndarray
) -> np.ndarray:
    """Transition probabilities given the start state is already ``age`` old.

    One quadrature pass over the precomputed phi table with the same
    product-trapezoidal weights, age-shifted:
    bphi_ij(u; t) = [delta_ij (1 - H_i(u+t))
                     + sum_k int_0^t Qdot_ik(u+s) phi_kj(t-s) ds] / (1 - H_i(u)),
    so at age 0 it reproduces phi to roundoff.  Step n is a march step with
    phi(t_n) known: the lag-0 weight on it plus one _history product.
    """
    if age < 0:
        raise ValueError("age must be nonnegative")
    m, k_max = kernel.m, grid.n_steps
    if phi.shape != (k_max + 1, m, m):
        raise ValueError("phi table does not match the grid")

    denom = np.array([kernel.aged_survival(i, age) for i in range(m)])
    full0, blocks, known = _renewal_terms(kernel, grid, age)
    rows = phi[::-1].reshape(-1, m)                   # newest first: phi(t_K), ..., phi(0)
    bphi = np.empty_like(phi)
    bphi[0] = np.eye(m)
    for n in range(1, k_max + 1):
        history = _history(rows[(k_max - n + 1) * m:], blocks, m)
        bphi[n] = (known[n - 1] + full0 @ phi[n] + history.T) / denom[:, None]
    _check_rowsums(bphi, "aged transition-probability")
    return bphi
