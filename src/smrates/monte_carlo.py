"""Path simulation and Monte Carlo estimators for the modulated rate.

The simulator reproduces the model exactly up to the time stepping of
the running integral: regime sojourns come from their exact laws (the
first one age-conditioned), the rate moves between grid nodes by exact
transition draws, the grid is refined so every regime switch lands on a
node (the rate is continuous across switches), and the integral of the
rate accumulates by the trapezoid rule, the only source of
discretization bias.

Estimators run all replications through a vectorized batch engine
driven by one counter-based generator, so results are reproducible bit
for bit from (seed, configuration).  They cross-check every analytic
quantity of the solvers: discount-factor moments, the rate mean, the
lagged product moment, and the occupancy law of the switching process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rate_models import CIR, HULL_WHITE, VASICEK, RegimeRateModel, cir_exact_step
from .semi_markov import (
    BackwardState,
    SemiMarkovKernel,
    sample_markov_renewal_path,
    sample_states_at,
)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: the same (seed, stream) always
    replays the identical sequence; distinct stream ids are independent."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % 2**64, self.stream % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or a numpy Generator")


@dataclass
class PathRecord:
    """One simulated trajectory on its (refined) time grid.

    states[k] is the regime in force on [times[k], times[k+1]);
    integral[k] accumulates the rate by the trapezoid rule up to
    times[k].  Jump times are grid nodes and the rate is continuous
    through them by construction.
    """

    times: np.ndarray
    states: np.ndarray
    rates: np.ndarray
    integral: np.ndarray
    jump_times: np.ndarray
    jump_states: np.ndarray
    start: BackwardState
    step: float
    seed: tuple[int, int] | None = None

    def rate_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.rates))

    def integral_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.integral))


@dataclass(frozen=True)
class EstimatorReport:
    """Point estimate with its Monte Carlo standard error."""

    estimate: float
    std_error: float
    replications: int
    seed: int
    target: dict = field(default_factory=dict)

    def z_score(self, reference: float) -> float:
        if self.std_error == 0.0:
            return 0.0 if abs(self.estimate - reference) < 1e-12 else float("inf")
        return (self.estimate - reference) / self.std_error

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "replications": self.replications,
            "seed": self.seed,
            "target": dict(self.target),
        }


def _report(samples: np.ndarray, seed: int, target: dict) -> EstimatorReport:
    n = samples.size
    if n < 2:
        raise ValueError("need at least 2 replications for a standard error")
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n))
    return EstimatorReport(est, se, n, int(seed), target)


# ---------------------------------------------------------------------------
# Single-path simulation
# ---------------------------------------------------------------------------

def simulate_path(kernel: SemiMarkovKernel, model: RegimeRateModel,
                  start: BackwardState, r0: float, horizon: float,
                  step: float, rng) -> PathRecord:
    """Simulate one modulated-rate trajectory up to the horizon.

    Samples the jump skeleton first (aged first sojourn, then plain
    renewal draws), refines the uniform grid with the jump times, and
    advances the rate by exact transition steps between nodes; the
    regime-local clock feeds any time-dependent coefficients.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    seed_info = (rng.seed, rng.stream) if isinstance(rng, RngStream) else None
    gen = _as_generator(rng)

    skeleton = sample_markov_renewal_path(kernel, start, horizon, gen)
    inside = (skeleton.times > 0) & (skeleton.times < horizon)
    jump_times = skeleton.times[inside]
    jump_states = skeleton.states[inside].astype(np.int64)

    if horizon == 0:
        return PathRecord(np.zeros(1), np.array([start.state]), np.array([float(r0)]),
                          np.zeros(1), jump_times, jump_states, start, step,
                          seed=seed_info)

    n_steps = int(np.ceil(horizon / step - 1e-12))
    base = np.arange(n_steps + 1) * step
    base[-1] = horizon
    times = np.unique(np.concatenate([base, jump_times]))

    rates = np.empty_like(times)
    integral = np.zeros_like(times)
    states = np.empty(times.size, dtype=np.int64)
    rates[0] = r0
    states[0] = start.state

    state = start.state
    reg_start = 0.0
    next_idx = 0
    for k in range(1, times.size):
        t_prev, t_cur = times[k - 1], times[k]
        rates[k] = model.step(state, rates[k - 1], t_cur - t_prev, gen,
                              t0=t_prev - reg_start)
        integral[k] = integral[k - 1] + 0.5 * (rates[k - 1] + rates[k]) * (t_cur - t_prev)
        if next_idx < jump_times.size and abs(t_cur - jump_times[next_idx]) < 1e-12:
            state = int(jump_states[next_idx])
            reg_start = t_cur
            next_idx += 1
        states[k] = state
    return PathRecord(times, states, rates, integral, jump_times, jump_states,
                      start, step, seed=seed_info)


# ---------------------------------------------------------------------------
# Vectorized batch engine
# ---------------------------------------------------------------------------

class _DrawPlan:
    """Uniform/normal draws for a batch; in antithetic mode the halves
    form pairs that share their jump uniforms and negate their Gaussian
    increments, so a pair walks the same regime history."""

    def __init__(self, gen: np.random.Generator, n_paths: int, antithetic: bool):
        if antithetic and n_paths % 2:
            raise ValueError("antithetic batches need an even path count")
        self.gen = gen
        self.n = n_paths
        self.anti = antithetic
        self.half = n_paths // 2

    def uniform(self, mask=None) -> np.ndarray:
        if not self.anti:
            return self.gen.random(self.n if mask is None else int(mask.sum()))
        count = self.half if mask is None else int(mask[: self.half].sum())
        u = self.gen.random(count)
        return np.concatenate([u, u])

    def normal(self, mask=None) -> np.ndarray:
        if not self.anti:
            return self.gen.standard_normal(self.n if mask is None else int(mask.sum()))
        count = self.half if mask is None else int(mask[: self.half].sum())
        z = self.gen.standard_normal(count)
        return np.concatenate([z, -z])


def _batch_exact_step(model: RegimeRateModel, states, r, dt, local_t0,
                      plan: _DrawPlan, mask=None) -> np.ndarray:
    """Advance each (masked) path by its own dt with the exact law.
    Entries with dt ~ 0 pass through unchanged; Gaussian kinds still
    consume their draw there so antithetic halves stay aligned."""
    out = r.copy()
    sel = np.ones(r.size, dtype=bool) if mask is None else mask
    live = sel & (dt > 1e-15)
    if not live.any():
        if model.kind in (VASICEK, HULL_WHITE):
            plan.normal(mask)
        return out
    if model.kind == VASICEK:
        z = plan.normal(mask)[live[sel]]
        a = np.array([p.a for p in model.params])[states[live]]
        b = np.array([p.b for p in model.params])[states[live]]
        sg = np.array([p.sigma for p in model.params])[states[live]]
        d = dt[live]
        mean = b + (r[live] - b) * np.exp(-a * d)
        sd = np.sqrt(sg * sg / (2.0 * a) * -np.expm1(-2.0 * a * d))
        out[live] = mean + sd * z
    elif model.kind == HULL_WHITE:
        z = plan.normal(mask)[live[sel]]
        n_live = int(live.sum())
        mean = np.empty(n_live)
        var = np.empty(n_live)
        states_live = states[live]
        t0 = local_t0[live]
        t1 = t0 + dt[live]
        r_live = r[live]
        for i, p in enumerate(model.params):
            here = states_live == i
            if not here.any():
                continue
            k0, k1 = p.k(t0[here]), p.k(t1[here])
            mean[here] = np.exp(-k1) * (
                np.exp(k0) * r_live[here]
                + p.drift_integral(t1[here]) - p.drift_integral(t0[here])
            )
            var[here] = np.exp(-2.0 * k1) * (
                p.variance_integral(t1[here]) - p.variance_integral(t0[here])
            )
        out[live] = mean + np.sqrt(np.maximum(var, 0.0)) * z
    else:  # CIR: draws happen per state group, deterministic group order
        states_live = states[live]
        r_live = r[live]
        d = dt[live]
        new = np.empty(r_live.size)
        for i, p in enumerate(model.params):
            here = states_live == i
            if here.any():
                new[here] = cir_exact_step(p, r_live[here], d[here], plan.gen)
        out[live] = new
    return out


def simulate_batch(kernel: SemiMarkovKernel, model: RegimeRateModel,
                   start: BackwardState, r0: float, snap_times, step: float,
                   rng, n_paths: int, antithetic: bool = False):
    """Run n_paths trajectories at once; returns (rates, integrals) of
    shape (len(snap_times), n_paths) sampled at the requested times.

    The batch marches over the union of the uniform grid and the
    snapshot times; jumps inside a segment are handled by masked
    substeps, so every regime switch happens exactly at its sampled
    time with the rate continuous through it.  Antithetic mode pairs
    path i with path i + n/2 and requires a Gaussian transition law.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if n_paths < 1:
        raise ValueError("need at least one path")
    if antithetic and model.kind == CIR:
        raise ValueError("antithetic variates need a Gaussian transition law")
    snap_times = np.sort(np.atleast_1d(np.asarray(snap_times, dtype=float)))
    if snap_times.size == 0 or np.any(snap_times < 0):
        raise ValueError("snapshot times must be nonnegative and nonempty")
    gen = _as_generator(rng)
    plan = _DrawPlan(gen, n_paths, antithetic)
    horizon = float(snap_times[-1])

    r_out = np.empty((snap_times.size, n_paths))
    i_out = np.empty((snap_times.size, n_paths))

    cur_r = np.full(n_paths, float(r0))
    cur_i = np.zeros(n_paths)
    cur_t = np.zeros(n_paths)
    cur_state = np.full(n_paths, start.state, dtype=np.int64)
    reg_start = np.zeros(n_paths)

    snap_idx = 0
    while snap_idx < snap_times.size and snap_times[snap_idx] <= 1e-15:
        r_out[snap_idx] = cur_r
        i_out[snap_idx] = cur_i
        snap_idx += 1
    if snap_idx == snap_times.size:
        return r_out, i_out

    w, nxt = kernel.sample_aged_first(
        start.state, start.age, plan.uniform(), plan.uniform()
    )
    next_jump = w.copy()
    next_state = nxt.astype(np.int64)

    n_steps = int(np.ceil(horizon / step - 1e-12))
    base = np.arange(1, n_steps + 1) * step
    base[-1] = horizon
    nodes = np.unique(np.concatenate([base, snap_times[snap_idx:]]))

    def advance(target, mask):
        nonlocal cur_r, cur_i, cur_t
        dt = np.where(mask, target - cur_t, 0.0)
        r_prev = cur_r
        cur_r = _batch_exact_step(model, cur_state, cur_r, dt,
                                  cur_t - reg_start, plan, mask=None if mask.all() else mask)
        cur_i = cur_i + 0.5 * (r_prev + cur_r) * dt
        cur_t = np.where(mask, target, cur_t)

    all_mask = np.ones(n_paths, dtype=bool)
    for tb in nodes:
        while True:
            jumping = next_jump <= tb
            if not jumping.any():
                break
            advance(np.where(jumping, next_jump, cur_t), jumping)
            cur_state[jumping] = next_state[jumping]
            reg_start[jumping] = cur_t[jumping]
            nxt2, w2 = kernel.sample_next_unconditional(
                cur_state[jumping], plan.uniform(mask=jumping), plan.uniform(mask=jumping)
            )
            next_state[jumping] = nxt2
            next_jump[jumping] = cur_t[jumping] + w2
        advance(np.full(n_paths, tb), all_mask)
        while snap_idx < snap_times.size and snap_times[snap_idx] <= tb + 1e-12:
            r_out[snap_idx] = cur_r
            i_out[snap_idx] = cur_i
            snap_idx += 1
    return r_out, i_out


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def _pair_average(samples: np.ndarray, antithetic: bool) -> np.ndarray:
    if not antithetic:
        return samples
    half = samples.size // 2
    return 0.5 * (samples[:half] + samples[half:])


def estimate_zcb_moment(kernel: SemiMarkovKernel, model: RegimeRateModel,
                        start: BackwardState, r0: float, n: int, s: float,
                        reps: int, seed: int, step: float = 0.01,
                        antithetic: bool = False) -> EstimatorReport:
    """Monte Carlo estimate of the n-th discount-factor moment over [0, s]:
    the mean of exp(-n * integral of the rate) across replications."""
    if reps < 100:
        raise ValueError("need at least 100 replications")
    if n < 1 or int(n) != n:
        raise ValueError("moment order n must be a positive integer")
    rng = RngStream(int(seed)).generator()
    _, integ = simulate_batch(kernel, model, start, r0, [s], step, rng, reps,
                              antithetic=antithetic)
    samples = _pair_average(np.exp(-n * integ[0]), antithetic)
    target = {"quantity": "zcb_moment", "order": int(n), "state": start.state,
              "age": start.age, "r0": r0, "s": s}
    return _report(samples, seed, target)


def estimate_rate_moments(kernel: SemiMarkovKernel, model: RegimeRateModel,
                          start: BackwardState, r0: float, s: float, h: float,
                          reps: int, seed: int, step: float = 0.01):
    """Joint Monte Carlo estimates of E[rate(s)] and E[rate(s) rate(s+h)]
    sampled on common paths; returns the two reports."""
    if reps < 100:
        raise ValueError("need at least 100 replications")
    if s < 0 or h < 0:
        raise ValueError("s and h must be nonnegative")
    rng = RngStream(int(seed)).generator()
    snaps = [s] if h == 0 else [s, s + h]
    rates, _ = simulate_batch(kernel, model, start, r0, snaps, step, rng, reps)
    r_s = rates[0]
    r_sh = rates[-1]
    base = {"state": start.state, "age": start.age, "r0": r0, "s": s}
    mean_rep = _report(r_s, seed, {"quantity": "rate_mean", **base})
    prod_rep = _report(r_s * r_sh, seed,
                       {"quantity": "product_moment", "lag": h, **base})
    return mean_rep, prod_rep


def estimate_state_occupancy(kernel: SemiMarkovKernel, start: BackwardState,
                             t: float, reps: int, seed: int):
    """Empirical occupancy law of the switching process at time t:
    (frequencies, standard errors) over the m states."""
    if reps < 100:
        raise ValueError("need at least 100 replications")
    rng = RngStream(int(seed)).generator()
    states = sample_states_at(kernel, start, t, reps, rng)
    freqs = np.bincount(states, minlength=kernel.m) / reps
    ses = np.sqrt(np.maximum(freqs * (1.0 - freqs), 0.0) / reps)
    return freqs, ses
