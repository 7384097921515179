"""Path simulation and Monte Carlo estimators for the modulated rate.

The simulator reproduces the model exactly up to the time stepping of
the running integral: every regime sojourn, the age-conditioned first
one included, is one exact inverse-cdf draw
(``SemiMarkovKernel.sample_sojourns``, no bisection), the rate moves
between grid nodes by exact transition draws, the grid is refined so
every regime switch lands on a node (the rate is continuous across
switches), and the integral of the rate accumulates by the trapezoid
rule, the only source of discretization bias.

There is one engine: a vectorized batch march that moves every path by
``RegimeRateModel.step``, the only exact transition draw.  The
estimators read it at snapshot times: ``estimate_moments`` reads several
targets off one batch, each from a prefix of its paths, and the
one-target estimators are calls of it.  ``simulate_path`` is a one-path
run of the engine recorded at every node it visits.  One counter-based
generator drives each run, so results are reproducible bit for bit
from (seed, configuration).  The estimators cross-check every analytic
quantity of the solvers: discount-factor moments, the rate mean, the
lagged product moment, and the occupancy law of the switching process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rate_models import CIR, HULL_WHITE, RegimeRateModel
from .semi_markov import BackwardState, SemiMarkovKernel, sample_states_at

# the estimators' floor on replications
MIN_REPLICATIONS = 100


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
    times[k].  jump_times and jump_states list every jump, self-renewals
    included; each jump time is a node, and the rate is continuous
    through it by construction.
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


@dataclass(frozen=True)
class EstimatorReport:
    """Point estimate with its Monte Carlo standard error, drawn from
    ``RngStream(seed, stream)``."""

    estimate: float
    std_error: float
    replications: int
    seed: int
    target: dict = field(default_factory=dict)
    stream: int = 0

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
            "stream": self.stream,
            "target": dict(self.target),
        }


def _stream(seed) -> RngStream:
    """An estimator's stream: an RngStream as given, an int seed's stream 0."""
    return seed if isinstance(seed, RngStream) else RngStream(int(seed))


def _report(samples: np.ndarray, rng: RngStream, target: dict) -> EstimatorReport:
    n = samples.size
    if n < 2:
        raise ValueError("need at least 2 replications for a standard error")
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n))
    return EstimatorReport(est, se, n, rng.seed, target, rng.stream)


# ---------------------------------------------------------------------------
# The batch engine
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
    """Advance each (masked) path by its own dt through the model's exact
    step on the plan's normals.  Gaussian kinds take a normal for every
    masked path, still ones included, so antithetic halves stay aligned."""
    z = plan.normal(mask) if model.gaussian_transition else None
    if mask is None:
        return model.step(states, r, dt, plan.gen, t0=local_t0, z=z)
    out = r.copy()
    out[mask] = model.step(states[mask], r[mask], dt[mask], plan.gen,
                           t0=local_t0[mask] if np.ndim(local_t0) else local_t0, z=z)
    return out


def _grid_nodes(horizon: float, step: float, extra=()) -> np.ndarray:
    """The uniform grid on (0, horizon], ending exactly at the horizon,
    refined by the extra times."""
    n_steps = int(np.ceil(horizon / step - 1e-12))
    base = np.arange(1, n_steps + 1) * step
    base[-1] = horizon
    return np.unique(np.concatenate([base, extra]))


def _run_batch(kernel: SemiMarkovKernel, model: RegimeRateModel,
               start: BackwardState, r0: float, nodes, plan: _DrawPlan):
    """March every path of the plan over the increasing ``nodes``.

    A path whose next jump falls at or before a node is first advanced
    to its jump time by a masked substep, switches regime there and
    draws its next sojourn (the first one age-conditioned), so every
    switch lands on its sampled time with the rate continuous through
    it.  After every advance the generator yields
    (jumped, times, rates, integrals, states): ``jumped`` marks the
    paths that just switched, or is None once the whole batch stands on
    the node.  The yielded arrays are live; copy what must persist.
    """
    n = plan.n
    cur_r = np.full(n, float(r0))
    cur_i = np.zeros(n)
    cur_t = np.zeros(n)
    cur_state = np.full(n, start.state, dtype=np.int64)
    reg_start = np.zeros(n)
    u_wait = plan.uniform()   # the first draw takes its wait uniforms first
    next_state, next_jump = kernel.sample_sojourns(cur_state, start.age, plan.uniform(), u_wait)

    def advance(target, mask):
        nonlocal cur_r, cur_i, cur_t
        dt = np.where(mask, target - cur_t, 0.0)
        r_prev = cur_r
        # only the Hull-White coefficients read the regime-local clock
        local_t0 = cur_t - reg_start if model.kind == HULL_WHITE else 0.0
        cur_r = _batch_exact_step(model, cur_state, cur_r, dt, local_t0,
                                  plan, mask=None if mask.all() else mask)
        cur_i = cur_i + 0.5 * (r_prev + cur_r) * dt
        cur_t = np.where(mask, target, cur_t)

    all_mask = np.ones(n, dtype=bool)
    for tb in nodes:
        while True:
            jumping = next_jump <= tb
            if not jumping.any():
                break
            advance(np.where(jumping, next_jump, cur_t), jumping)
            cur_state[jumping] = next_state[jumping]
            reg_start[jumping] = cur_t[jumping]
            nxt2, w2 = kernel.sample_sojourns(
                cur_state[jumping], 0.0, plan.uniform(mask=jumping), plan.uniform(mask=jumping)
            )
            next_state[jumping] = nxt2
            next_jump[jumping] = cur_t[jumping] + w2
            yield jumping, cur_t, cur_r, cur_i, cur_state
        advance(np.full(n, tb), all_mask)
        yield None, cur_t, cur_r, cur_i, cur_state


def simulate_batch(kernel: SemiMarkovKernel, model: RegimeRateModel,
                   start: BackwardState, r0: float, snap_times, step: float,
                   rng, n_paths: int, antithetic: bool = False):
    """Run n_paths trajectories at once; returns (rates, integrals) of
    shape (len(snap_times), n_paths) sampled at the requested times.

    The batch marches over the union of the uniform grid and the
    snapshot times, with every path's jumps as extra substeps.
    Antithetic mode pairs path i with path i + n/2 and requires a
    Gaussian transition law.
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
    plan = _DrawPlan(_as_generator(rng), n_paths, antithetic)

    r_out = np.empty((snap_times.size, n_paths))
    i_out = np.empty((snap_times.size, n_paths))
    snap_idx = 0
    while snap_idx < snap_times.size and snap_times[snap_idx] <= 1e-15:
        r_out[snap_idx] = float(r0)
        i_out[snap_idx] = 0.0
        snap_idx += 1
    if snap_idx == snap_times.size:
        return r_out, i_out

    nodes = _grid_nodes(float(snap_times[-1]), step, snap_times[snap_idx:])
    for jumped, times, rates, integrals, _ in _run_batch(kernel, model, start, r0,
                                                         nodes, plan):
        if jumped is not None:
            continue
        while snap_idx < snap_times.size and snap_times[snap_idx] <= times[0] + 1e-12:
            r_out[snap_idx] = rates
            i_out[snap_idx] = integrals
            snap_idx += 1
    return r_out, i_out


def simulate_path(kernel: SemiMarkovKernel, model: RegimeRateModel,
                  start: BackwardState, r0: float, horizon: float,
                  step: float, rng) -> PathRecord:
    """Simulate one modulated-rate trajectory up to the horizon.

    A one-path run of the batch engine, recorded at every node it
    visits: the uniform grid refined by the path's jump times.  Every
    jump is recorded, including a self-renewal that keeps the state;
    a jump on a grid node is one node.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    seed_info = (rng.seed, rng.stream) if isinstance(rng, RngStream) else None
    times, states, rates, integral = [0.0], [start.state], [float(r0)], [0.0]
    jump_times, jump_states = [], []
    if horizon > 0:
        plan = _DrawPlan(_as_generator(rng), 1, False)
        for jumped, t, r, i, state in _run_batch(kernel, model, start, r0,
                                                 _grid_nodes(horizon, step), plan):
            if jumped is not None:
                jump_times.append(t[0])
                jump_states.append(state[0])
            if t[0] == times[-1]:   # zero-length advance: same node, newest state
                states[-1] = state[0]
                continue
            times.append(t[0])
            states.append(state[0])
            rates.append(r[0])
            integral.append(i[0])
    return PathRecord(np.array(times), np.array(states, dtype=np.int64),
                      np.array(rates), np.array(integral), np.array(jump_times),
                      np.array(jump_states, dtype=np.int64), start, step,
                      seed=seed_info)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def _pair_average(samples: np.ndarray, antithetic: bool) -> np.ndarray:
    if not antithetic:
        return samples
    half = samples.size // 2
    return 0.5 * (samples[:half] + samples[half:])


def estimate_moments(kernel: SemiMarkovKernel, model: RegimeRateModel,
                     start: BackwardState, r0: float, targets, seed: int | RngStream,
                     step: float = 0.01, antithetic: bool = False):
    """Monte Carlo estimates of several moments from one batch of paths;
    returns one report per target, in order.

    A target is a dict with ``quantity`` "zcb_moment" (the mean of
    exp(-order * integral of the rate) over [0, s], with an ``order``),
    "rate_mean" (E[rate(s)]) or "product_moment" (E[rate(s) rate(s+lag)],
    with a ``lag``), its maturity ``s`` and its replication count
    ``reps``.  One ``simulate_batch`` of the largest ``reps`` paths runs
    from ``start`` on the stream ``seed`` (an RngStream, or an int for
    ``RngStream(seed)``), with a snapshot at every s and
    s + lag, and each target's report reads the first ``reps`` paths of
    it: the estimates are correlated, and each has its own standard
    error.  Antithetic pairs span the whole batch, so antithetic mode
    needs one ``reps`` for every target.  No target draws no batch.
    """
    targets = list(targets)
    if not targets:
        return []
    for tgt in targets:
        quantity = tgt["quantity"]
        if quantity not in ("zcb_moment", "rate_mean", "product_moment"):
            raise ValueError(f"unknown quantity {quantity!r}")
        if tgt["reps"] < MIN_REPLICATIONS:
            raise ValueError(f"need at least {MIN_REPLICATIONS} replications")
        if quantity == "zcb_moment" and (tgt["order"] < 1 or int(tgt["order"]) != tgt["order"]):
            raise ValueError("moment order n must be a positive integer")
        if tgt["s"] < 0 or tgt.get("lag", 0.0) < 0:
            raise ValueError("s and lag must be nonnegative")
    n_paths = max(tgt["reps"] for tgt in targets)
    if antithetic and any(tgt["reps"] != n_paths for tgt in targets):
        raise ValueError("antithetic targets need one replication count")
    times = np.unique([tgt["s"] for tgt in targets]
                      + [tgt["s"] + tgt["lag"] for tgt in targets
                         if tgt["quantity"] == "product_moment"])
    rng = _stream(seed)
    rates, integ = simulate_batch(kernel, model, start, r0, times, step,
                                  rng, n_paths, antithetic=antithetic)
    row = {t: k for k, t in enumerate(times.tolist())}
    reports = []
    for tgt in targets:
        reps, quantity, s = tgt["reps"], tgt["quantity"], tgt["s"]
        target = {"quantity": quantity, "state": start.state, "age": start.age,
                  "r0": r0, "s": s}
        if quantity == "zcb_moment":
            target["order"] = int(tgt["order"])
            samples = np.exp(-target["order"] * integ[row[s], :reps])
        elif quantity == "rate_mean":
            samples = rates[row[s], :reps]
        else:
            target["lag"] = tgt["lag"]
            samples = rates[row[s], :reps] * rates[row[s + tgt["lag"]], :reps]
        reports.append(_report(_pair_average(samples, antithetic), rng, target))
    return reports


def estimate_zcb_moment(kernel: SemiMarkovKernel, model: RegimeRateModel,
                        start: BackwardState, r0: float, n: int, s: float,
                        reps: int, seed: int | RngStream, step: float = 0.01,
                        antithetic: bool = False) -> EstimatorReport:
    """Monte Carlo estimate of the n-th discount-factor moment over [0, s]:
    the mean of exp(-n * integral of the rate) across replications."""
    target = {"quantity": "zcb_moment", "order": n, "s": s, "reps": reps}
    return estimate_moments(kernel, model, start, r0, [target], seed, step=step,
                            antithetic=antithetic)[0]


def estimate_rate_moments(kernel: SemiMarkovKernel, model: RegimeRateModel,
                          start: BackwardState, r0: float, s: float, h: float,
                          reps: int, seed: int | RngStream, step: float = 0.01):
    """Joint Monte Carlo estimates of E[rate(s)] and E[rate(s) rate(s+h)]
    sampled on common paths; returns the two reports."""
    mean_rep, prod_rep = estimate_moments(
        kernel, model, start, r0,
        [{"quantity": "rate_mean", "s": s, "reps": reps},
         {"quantity": "product_moment", "s": s, "lag": h, "reps": reps}],
        seed, step=step)
    return mean_rep, prod_rep


def estimate_state_occupancy(kernel: SemiMarkovKernel, start: BackwardState,
                             t: float, reps: int, seed: int | RngStream):
    """Empirical occupancy law of the switching process at time t:
    (frequencies, standard errors) over the m states."""
    if reps < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications")
    rng = _stream(seed).generator()
    states = sample_states_at(kernel, start, t, reps, rng)
    freqs = np.bincount(states, minlength=kernel.m) / reps
    ses = np.sqrt(np.maximum(freqs * (1.0 - freqs), 0.0) / reps)
    return freqs, ses
