"""Path simulation and Monte Carlo estimators for the modulated rate.

A path is its regime skeleton plus the rate moved between jumps.  The
skeleton (``_Skeleton``) draws every regime sojourn, the age-conditioned
first one included, by one exact inverse-cdf draw
(``SemiMarkovKernel.sample_sojourns``, no bisection); the rate moves
between nodes by exact transition draws, the nodes are refined so every
regime switch lands on one (the rate is continuous across switches).
For the Gaussian kinds each step draws the integral of the rate jointly
with the rate from their exact bivariate normal law, so the simulation
is exact and a batch steps only to its snapshot times and its jumps.
CIR accumulates the integral by the trapezoid rule on a uniform grid of
step ``step`` (``SolverConfig.mc_step``), the only source of
discretization bias; that grid and path recording are all the step is
used for.

There is one engine: a vectorized batch march that moves every path by
``RegimeRateModel.step``, the only exact transition draw, and switches
it on its skeleton.  The paths still on a node share the step to the
next one, so they move with one call per regime; only the paths a jump
moved off the node, and the jumping paths' own substeps, step path by
path.  The estimators read it at snapshot times:
``estimate_moments`` reads several targets off one batch, each from a
prefix of its paths, and the one-target estimators are calls of it.
``simulate_path`` is a one-path run of the engine recorded at every
node it visits, and the occupancy estimator walks the same skeleton
with no rate at all.  One counter-based generator drives each run, so
results are reproducible bit for bit from (seed, configuration).  The
estimators cross-check every analytic quantity of the solvers:
discount-factor moments, the rate mean, the lagged product moment, and
the occupancy law of the switching process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rate_models import CIR, HULL_WHITE, RegimeRateModel
from .semi_markov import BackwardState, SemiMarkovKernel

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
    integral[k] is the integral of the rate up to times[k]: drawn
    exactly with the rate for the Gaussian kinds, the trapezoid rule for
    CIR.  jump_times and jump_states list every jump, self-renewals
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
    """Uniform/normal draws for a batch, one per path or one per path of
    a sorted index array; in antithetic mode the halves form pairs that
    share their jump uniforms and negate their normals (the rate's and
    the integral's), so a pair walks the same regime history."""

    def __init__(self, gen: np.random.Generator, n_paths: int, antithetic: bool):
        if antithetic and n_paths % 2:
            raise ValueError("antithetic batches need an even path count")
        self.gen = gen
        self.n = n_paths
        self.anti = antithetic
        self.half = n_paths // 2

    def _count(self, idx) -> int:
        """Draws for the paths idx (all when None): in antithetic mode only
        the first half's, which the second half mirrors."""
        if idx is None:
            return self.half if self.anti else self.n
        return int(np.searchsorted(idx, self.half)) if self.anti else idx.size

    def uniform(self, idx=None) -> np.ndarray:
        u = self.gen.random(self._count(idx))
        return np.concatenate([u, u]) if self.anti else u

    def normal(self, idx=None) -> np.ndarray:
        z = self.gen.standard_normal(self._count(idx))
        return np.concatenate([z, -z]) if self.anti else z


class _Skeleton:
    """The regime skeleton of a plan's paths: per path the ``state`` in
    force, the ``next_state`` it jumps to and the time ``next_jump`` of
    that jump.  The first sojourn is drawn at the start's age, every
    later one at age 0 from the jump that begins it."""

    def __init__(self, kernel: SemiMarkovKernel, start: BackwardState, plan: _DrawPlan):
        self.kernel = kernel
        self.plan = plan
        self.state = np.full(plan.n, start.state, dtype=np.int64)
        u_wait = plan.uniform()   # the first draw takes its wait uniforms first
        self.next_state, self.next_jump = kernel.sample_sojourns(
            self.state, start.age, plan.uniform(), u_wait)

    def jump(self, idx):
        """Switch the paths of the sorted indices idx and draw their next
        sojourns, in place."""
        state = self.next_state[idx]
        self.state[idx] = state
        u_next = self.plan.uniform(idx)
        u_wait = self.plan.uniform(idx)
        self.next_state[idx], wait = self.kernel.sample_sojourns(state, 0.0, u_next, u_wait)
        self.next_jump[idx] += wait


def _walk(kernel: SemiMarkovKernel, start: BackwardState, t: float, plan: _DrawPlan):
    """Walk the plan's skeletons to time t; returns the state at t and
    the number of jumps in (0, t] per path."""
    skel = _Skeleton(kernel, start, plan)
    counts = np.zeros(plan.n, dtype=np.int64)
    while (jumping := np.flatnonzero(skel.next_jump <= t)).size:
        counts[jumping] += 1
        skel.jump(jumping)
    return skel.state, counts


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
    to its jump time by a substep of the jumping paths alone and then
    switches regime on its skeleton, so every switch lands on its
    sampled time with the rate continuous through it.  The node advance
    then moves the paths still on the previous node with one
    ``model.step`` call per regime at their shared step; only the paths
    a jump moved off that node step by their own dt.  A Gaussian advance
    draws two normals per path, each in path order: the rate's, then the
    integral's, and adds the integral drawn with the rate.  CIR, which
    draws regime by regime in entry order, moves the whole batch in one
    call and adds the trapezoid.  After every advance the generator
    yields (jumped, times, rates, integrals, states): ``jumped`` holds
    the indices of the paths that just switched, or is None once the
    whole batch stands on the node.  The yielded arrays are live and
    updated in place; copy what must persist.
    """
    n = plan.n
    cur_r = np.full(n, float(r0))
    cur_i = np.zeros(n)
    cur_t = np.zeros(n)
    reg_start = np.zeros(n)
    skel = _Skeleton(kernel, start, plan)
    gaussian = model.gaussian_transition

    def move(idx, states, dt, z):
        """Step the paths idx, in regimes ``states``, by dt on the normal
        pairs z (None for CIR)."""
        r_prev = cur_r[idx]
        # only the Hull-White coefficients read the regime-local clock
        t0 = cur_t[idx] - reg_start[idx] if model.kind == HULL_WHITE else 0.0
        if z is None:
            r_new = model.step(states, r_prev, dt, plan.gen, t0=t0)
            cur_i[idx] += 0.5 * (r_prev + r_new) * dt
        else:
            r_new, step_i = model.step(states, r_prev, dt, plan.gen, t0=t0, z=z[0],
                                       z_integral=z[1])
            cur_i[idx] += step_i
        cur_r[idx] = r_new

    def normals(idx=None):
        return (plan.normal(idx), plan.normal(idx)) if gaussian else None

    every = np.arange(n)
    t_prev = 0.0
    for tb in nodes:
        while (jumping := np.flatnonzero(skel.next_jump <= tb)).size:
            target = skel.next_jump[jumping]
            move(jumping, skel.state[jumping], target - cur_t[jumping], normals(jumping))
            cur_t[jumping] = target
            skel.jump(jumping)
            reg_start[jumping] = target
            yield jumping, cur_t, cur_r, cur_i, skel.state
        if gaussian:
            z_r, z_i = normals()
            on = cur_t == t_prev
            for k in range(model.n_states):
                idx = np.flatnonzero(on & (skel.state == k))
                if idx.size:
                    move(idx, k, tb - t_prev, (z_r[idx], z_i[idx]))
            off = np.flatnonzero(~on)
            if off.size:
                move(off, skel.state[off], tb - cur_t[off], (z_r[off], z_i[off]))
        else:
            move(every, skel.state, tb - cur_t, None)
        cur_t.fill(tb)
        t_prev = tb
        yield None, cur_t, cur_r, cur_i, skel.state


def simulate_batch(kernel: SemiMarkovKernel, model: RegimeRateModel,
                   start: BackwardState, r0: float, snap_times, step: float,
                   rng, n_paths: int, antithetic: bool = False):
    """Run n_paths trajectories at once; returns (rates, integrals) of
    shape (len(snap_times), n_paths) sampled at the requested times.

    A Gaussian batch marches to the snapshot times only, drawing the
    integral exactly with the rate; a CIR batch marches over the union
    of the uniform grid of the given step and the snapshot times, for
    its trapezoid integral.  Every path's jumps are extra substeps.
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

    nodes = snap_times[snap_idx:]
    nodes = np.unique(nodes) if model.gaussian_transition else _grid_nodes(nodes[-1], step, nodes)
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
    ``step`` is the grid of CIR batches' trapezoid integral; Gaussian
    batches are exact and do not read it.
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
    the mean of exp(-n * integral of the rate) across replications; the
    integral is exact for the Gaussian kinds and a trapezoid on the grid
    of ``step`` for CIR."""
    target = {"quantity": "zcb_moment", "order": n, "s": s, "reps": reps}
    return estimate_moments(kernel, model, start, r0, [target], seed, step=step,
                            antithetic=antithetic)[0]


def estimate_rate_moments(kernel: SemiMarkovKernel, model: RegimeRateModel,
                          start: BackwardState, r0: float, s: float, h: float,
                          reps: int, seed: int | RngStream, step: float = 0.01):
    """Joint Monte Carlo estimates of E[rate(s)] and E[rate(s) rate(s+h)]
    sampled on common paths; returns the two reports.  ``step`` is the
    grid of CIR batches, as in ``estimate_moments``."""
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
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        states = np.full(reps, start.state, dtype=np.int64)
    else:
        states = _walk(kernel, start, t, _DrawPlan(_stream(seed).generator(), reps, False))[0]
    freqs = np.bincount(states, minlength=kernel.m) / reps
    ses = np.sqrt(np.maximum(freqs * (1.0 - freqs), 0.0) / reps)
    return freqs, ses
