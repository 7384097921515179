"""Batch front-end: parse an experiment config, run a command, write files.

Commands:
  phi        interval transition probabilities, plain and age-conditioned
  moments    discount-factor moments, rate mean, product moments, covariance
  simulate   path dumps plus Monte Carlo estimates with agreement flags
  validate   Monte-Carlo-versus-analytic cross checks with a pass verdict

Flags select only the command, the config path, the output directory and
an optional seed override; all numerics live in the config file, so a
run is a reproducible artifact.  Exit codes: 0 success, 2 config parse
error, 3 numerical failure, 4 validation failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from .config import ExperimentConfig
from .errors import ConfigError, NumericsError
from .exports import (
    surface_to_json_dict,
    write_json,
    write_path_csv,
    write_phi_csv,
    write_surface_csv,
)
from .moment_engine import (
    LatticeWorkspace,
    MomentSurface,
    build_rate_grid,
    check_lattice_rate,
    covariance_surface,
    evaluate_product_moment,
    evaluate_rate_mean,
    evaluate_zcb_moment,
    solve_product_moment,
    solve_rate_mean,
    solve_zcb_moment,
)
from .monte_carlo import (
    EstimatorReport,
    RngStream,
    estimate_moments,
    estimate_state_occupancy,
    simulate_path,
)
from .semi_markov import (
    BackwardState,
    TimeGrid,
    backward_transition_probabilities,
    transition_probabilities,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smrates",
        description="semi-Markov modulated short-rate model toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("phi", "solve interval transition probabilities"),
        ("moments", "solve the moment surfaces"),
        ("simulate", "simulate paths and run estimators"),
        ("validate", "cross-check Monte Carlo against the solvers"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="experiment config (JSON)")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    command = {
        "phi": cmd_phi,
        "moments": cmd_moments,
        "simulate": cmd_simulate,
        "validate": cmd_validate,
    }[args.command]
    try:
        return command(cfg, out)
    except ConfigError as exc:
        # config defects a command checks before its work, e.g. a
        # simulate target beyond the solver horizon
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def _meta(cfg: ExperimentConfig) -> str:
    return f"config_sha256={cfg.config_hash()} seed={cfg.seed}"


def cmd_phi(cfg: ExperimentConfig, out: Path) -> int:
    grid = TimeGrid(cfg.solver.step, cfg.solver.horizon)
    phi = transition_probabilities(cfg.kernel, grid)
    age = float(cfg.phi.get("age", 0.0))
    aged = backward_transition_probabilities(cfg.kernel, age, grid, phi)
    write_phi_csv(out / "phi.csv", grid, cfg.kernel, phi, aged, age, meta=_meta(cfg))
    return 0


def _surfaces(cfg: ExperimentConfig, orders, lags, rate_mean: bool = False, until=None):
    """The zcb surface of every order, the rate mean (None unless
    rate_mean is set or there is a lag) and the product moment of every
    lag, on one workspace marched to until (default: the horizon)."""
    ws = LatticeWorkspace(cfg.kernel, cfg.model, cfg.solver, until=until)
    # only the discount orders build transfer blocks, each solve its own,
    # none kept past it; no aged evaluation reads any
    zcb = {n: solve_zcb_moment(n, cfg.kernel, cfg.model, cfg.solver, workspace=ws)
           for n in orders}
    if not (rate_mean or lags):
        return zcb, None, {}
    rate = solve_rate_mean(cfg.kernel, cfg.model, cfg.solver, workspace=ws)
    products = {lag: solve_product_moment(lag, cfg.kernel, cfg.model, cfg.solver,
                                          rate_mean_surface=rate, workspace=ws)
                for lag in lags}
    return zcb, rate, products


def _target_surfaces(cfg: ExperimentConfig, targets):
    """The surfaces that estimate_moments targets read, marched to the
    last node they read: each maturity's upper node, and each lag's node
    of the rate mean.  With no target there is no surface to solve."""
    if not targets:
        return {}, None, {}
    orders = sorted({t["order"] for t in targets if t["quantity"] == "zcb_moment"})
    lags = list(dict.fromkeys(t["lag"] for t in targets if t["quantity"] == "product_moment"))
    return _surfaces(cfg, orders, lags,
                     rate_mean=any(t["quantity"] == "rate_mean" for t in targets),
                     until=max(max(t["s"], t.get("lag", 0.0)) for t in targets))


def _analytic(cfg: ExperimentConfig, surfaces, target: dict, start: BackwardState,
              r0: float) -> float:
    """The aged analytic value of one estimate_moments target."""
    zcb, rate, products = surfaces
    at = (cfg.kernel, cfg.model, start.state, start.age, r0, target["s"])
    if target["quantity"] == "zcb_moment":
        return evaluate_zcb_moment(zcb[target["order"]], *at)
    if target["quantity"] == "rate_mean":
        return evaluate_rate_mean(rate, *at)
    return evaluate_product_moment(products[target["lag"]], rate, *at)


def cmd_moments(cfg: ExperimentConfig, out: Path) -> int:
    zcb, rate, products = _surfaces(cfg, [int(n) for n in cfg.moments.get("orders", [1, 2])],
                                    [float(v) for v in cfg.moments.get("lags", [0.0])],
                                    rate_mean=True)
    meta = _meta(cfg)

    def write_csv(name, surf):
        return write_surface_csv(out / name, surf, cfg.kernel, meta=meta)

    def blocks():
        # each block is made from the strings its CSV was just written
        # with, and dropped before the next surface is formatted
        for n, surf in zcb.items():
            yield surface_to_json_dict(surf, write_csv(f"zcb_moment_n{n}.csv", surf))
        yield surface_to_json_dict(rate, write_csv("rate_mean.csv", rate))
        for lag, surf in products.items():
            tag = repr(float(lag)).replace(".", "p")
            yield surface_to_json_dict(surf, write_csv(f"product_moment_h{tag}.csv", surf))
            write_csv(f"covariance_h{tag}.csv", covariance_surface(surf, rate))

    write_json(out / "surfaces.json", {
        "config_sha256": cfg.config_hash(),
        "seed": cfg.seed,
        "surfaces": blocks(),
    })
    if 1 in zcb and 2 in zcb:
        jensen = MomentSurface(
            "zcb_jensen_gap", zcb[1].s_nodes.copy(), zcb[1].x_nodes.copy(),
            zcb[2].values - zcb[1].values ** 2,
        )
        write_csv("zcb_moment_jensen.csv", jensen)
    return 0


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    sim = cfg.simulate
    targets = cfg.simulate_targets()
    start = BackwardState(int(sim.get("start_state", 0)), float(sim.get("age", 0.0)))
    r0 = float(sim.get("r0", cfg.solver.reference_rate))
    horizon = float(sim.get("horizon", cfg.solver.horizon))
    n_paths = int(sim.get("paths", 1))
    step = float(sim.get("step", cfg.solver.mc_step))
    meta = _meta(cfg)
    if targets:   # refused before any path: every analytic value reads the lattice at r0
        check_lattice_rate(build_rate_grid(cfg.model, cfg.solver), r0)

    for p in range(n_paths):
        record = simulate_path(cfg.kernel, cfg.model, start, r0, horizon, step,
                               RngStream(cfg.seed, p)) if horizon > 0 else None
        write_path_csv(out / f"path_{p:03d}.csv", record, meta=meta)

    # a rate_moments target estimates its rate mean and product moment on
    # common paths; each target's batch draws the stream after the paths'
    groups = []
    for tgt in targets:
        s, reps = float(tgt["s"]), int(tgt.get("reps", 10000))
        groups.append(
            [{"quantity": "zcb_moment", "order": int(tgt.get("order", 1)), "s": s, "reps": reps}]
            if tgt["quantity"] == "zcb_moment" else
            [{"quantity": "rate_mean", "s": s, "reps": reps},
             {"quantity": "product_moment", "s": s, "lag": float(tgt.get("lag", 0.0)),
              "reps": reps}])
    surfaces = _target_surfaces(cfg, [t for group in groups for t in group])
    reports = []
    for j, (tgt, group) in enumerate(zip(targets, groups)):
        estimates = estimate_moments(cfg.kernel, cfg.model, start, r0, group,
                                     RngStream(cfg.seed, n_paths + j), step=step,
                                     antithetic=tgt.get("antithetic", False))
        for target, rep in zip(group, estimates):
            analytic = _analytic(cfg, surfaces, target, start, r0)
            z = rep.z_score(analytic)
            reports.append({**rep.to_dict(), "analytic": analytic, "z": z,
                            "within_3se": bool(abs(z) <= 3.0)})
    write_json(out / "estimates.json", {
        "config_sha256": cfg.config_hash(),
        "seed": cfg.seed,
        "reports": reports,
    })
    return 0


def cmd_validate(cfg: ExperimentConfig, out: Path) -> int:
    val = cfg.validate
    maturities, occupancy_times = cfg.validate_times()
    z_max = float(val.get("z_threshold", 3.0))
    r0 = float(val.get("r0", cfg.solver.reference_rate))
    start_state = int(val.get("start_state", 0))
    ages = [float(u) for u in val.get("ages", [0.0])]
    orders = [int(n) for n in val.get("orders", [1])]
    lags = [float(v) for v in val.get("lags", [0.0])]
    reps_occupancy = int(val.get("reps_occupancy", 100000))
    reps_zcb = int(val.get("reps_zcb", 20000))
    reps_rate = int(val.get("reps_rate", 50000))
    mc_step = cfg.solver.mc_step
    if not ages or not (occupancy_times or (maturities and (orders or lags))):
        raise ConfigError("field validate: no check to run; it needs ages, and occupancy "
                          "times or maturities with orders or lags")

    if maturities:   # refused before any Monte Carlo, as in cmd_simulate
        check_lattice_rate(build_rate_grid(cfg.model, cfg.solver), r0)

    checks = []
    # every estimator draws its own stream of the run's seed, numbered in
    # order of use, so runs at different seeds share no stream
    streams = (RngStream(cfg.seed, k) for k in itertools.count())

    def add(name, analytic, rep: EstimatorReport):
        z = rep.z_score(analytic)
        checks.append({
            "check": name,
            "analytic": float(analytic),
            "estimate": float(rep.estimate),
            "std_error": float(rep.std_error),
            "z": float(z),
            "pass": bool(abs(z) <= z_max),
        })

    if occupancy_times:
        # phi is marched to the last occupancy time's node (at least one
        # step), the last node a check reads; its nodes are a prefix of
        # the horizon's
        nodes = [cfg.solver.time_grid().index_of(t) for t in occupancy_times]
        grid = TimeGrid(cfg.solver.step, max(max(nodes), 1) * cfg.solver.step)
        phi = transition_probabilities(cfg.kernel, grid)
        for age in ages:
            aged = backward_transition_probabilities(cfg.kernel, age, grid, phi)
            for t, k in zip(occupancy_times, nodes):
                rng = next(streams)
                freqs, ses = estimate_state_occupancy(
                    cfg.kernel, BackwardState(start_state, age), t, reps_occupancy, rng)
                for j in range(cfg.kernel.m):
                    add(f"occupancy[age={age},t={t},to={cfg.kernel.states[j]}]",
                        aged[k, start_state, j],
                        EstimatorReport(freqs[j], ses[j], reps_occupancy, rng.seed,
                                        stream=rng.stream))

    # one batch of paths per start age, on the streams after the occupancy
    # walks'; each check reads the first reps_zcb or reps_rate paths of its
    # age's batch, and every lag's rate_mean check reads the same one, so
    # with no lag there is no rate check.  The batches run before the
    # solves: solving first left the benchmark's validate-testbed peak RSS
    # 0.0-0.5 MiB higher (four seeds each way)
    targets = {("zcb_moment", n, s): {"quantity": "zcb_moment", "order": n, "s": s,
                                      "reps": reps_zcb}
               for n in orders for s in maturities}
    targets.update({("rate_mean", s): {"quantity": "rate_mean", "s": s, "reps": reps_rate}
                    for s in maturities if lags})
    targets.update({("product_moment", lag, s): {"quantity": "product_moment", "s": s,
                                                 "lag": lag, "reps": reps_rate}
                    for lag in lags for s in maturities})
    starts = [BackwardState(start_state, age) for age in ages]
    estimates = [dict(zip(targets, estimate_moments(cfg.kernel, cfg.model, start, r0,
                                                    targets.values(), next(streams),
                                                    step=mc_step)))
                 for start in starts]

    # one row per check, in order: (age index, target key, check name);
    # every lag's rate_mean check of an age reads one evaluation
    rows = [(a, ("zcb_moment", n, s), f"zcb_moment[n={n},age={age},s={s}]")
            for n in orders for a, age in enumerate(ages) for s in maturities]
    for lag, (a, age), s in itertools.product(lags, enumerate(ages), maturities):
        rows += [(a, ("rate_mean", s), f"rate_mean[age={age},s={s},lag={lag}]"),
                 (a, ("product_moment", lag, s), f"product_moment[age={age},s={s},lag={lag}]")]
    surfaces = _target_surfaces(cfg, list(targets.values()))
    analytic = {}
    for a, key, name in rows:
        if (a, key) not in analytic:
            analytic[a, key] = _analytic(cfg, surfaces, targets[key], starts[a], r0)
        add(name, analytic[a, key], estimates[a][key])

    all_pass = all(c["pass"] for c in checks)
    write_json(out / "validation.json", {
        "config_sha256": cfg.config_hash(),
        "seed": cfg.seed,
        "z_threshold": z_max,
        "checks": checks,
        "all_pass": all_pass,
    })
    summary = "PASS" if all_pass else "FAIL"
    print(f"validate: {sum(c['pass'] for c in checks)}/{len(checks)} checks pass "
          f"({summary})")
    return 0 if all_pass else 4


if __name__ == "__main__":
    sys.exit(main())
