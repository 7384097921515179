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
    estimate_rate_moments,
    estimate_state_occupancy,
    estimate_zcb_moment,
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


def _moment_surfaces(cfg: ExperimentConfig, ws: LatticeWorkspace, orders=None, lags=None,
                     rate_mean: bool = True):
    """The zcb surface of every order, the rate mean and the product
    moment of every lag; orders and lags default to the moments block.
    With no lag, ``rate_mean=False`` skips the rate mean (None)."""
    if orders is None:
        orders = [int(n) for n in cfg.moments.get("orders", [1, 2])]
    if lags is None:
        lags = [float(v) for v in cfg.moments.get("lags", [0.0])]
    # the workspace holds one transfer stack: the plain one, which the aged
    # product evaluations read, is built last (after the discount orders)
    zcb = {n: solve_zcb_moment(n, cfg.kernel, cfg.model, cfg.solver, workspace=ws)
           for n in orders}
    if not (rate_mean or lags):
        return zcb, None, {}
    rate = solve_rate_mean(cfg.kernel, cfg.model, cfg.solver, workspace=ws)
    products = {lag: solve_product_moment(lag, cfg.kernel, cfg.model, cfg.solver,
                                          rate_mean_surface=rate, workspace=ws)
                for lag in lags}
    return zcb, rate, products


def cmd_moments(cfg: ExperimentConfig, out: Path) -> int:
    ws = LatticeWorkspace(cfg.kernel, cfg.model, cfg.solver)
    zcb, rate, products = _moment_surfaces(cfg, ws)
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

    for p in range(n_paths):
        record = simulate_path(cfg.kernel, cfg.model, start, r0, horizon, step,
                               RngStream(cfg.seed, p)) if horizon > 0 else None
        write_path_csv(out / f"path_{p:03d}.csv", record, meta=meta)

    reports = []
    if targets:
        # the march ends at the last node a target reads: its maturity's
        # upper node, or its lag's node for the rate mean
        until = max(max(float(t["s"]), float(t.get("lag", 0.0))) for t in targets)
        ws = LatticeWorkspace(cfg.kernel, cfg.model, cfg.solver, until=until)
        # discount orders first, as in _moment_surfaces: each stack is built once
        zcb_surfaces = {n: solve_zcb_moment(n, cfg.kernel, cfg.model, cfg.solver, workspace=ws)
                        for n in sorted({int(t.get("order", 1)) for t in targets
                                         if t["quantity"] == "zcb_moment"})}
        rate_surface = None
        product_surfaces = {}
        for idx, tgt in enumerate(targets):
            rng = RngStream(cfg.seed, n_paths + idx)   # after the paths' streams
            reps = int(tgt.get("reps", 10000))
            s = float(tgt["s"])
            quantity = tgt["quantity"]
            if quantity == "zcb_moment":
                n = int(tgt.get("order", 1))
                rep = estimate_zcb_moment(cfg.kernel, cfg.model, start, r0, n, s,
                                          reps, rng, step=step,
                                          antithetic=bool(tgt.get("antithetic", False)))
                analytic = evaluate_zcb_moment(zcb_surfaces[n], cfg.kernel, cfg.model,
                                               start.state, start.age, r0, s)
                entries = [(rep, analytic)]
            else:  # rate_moments
                lag = float(tgt.get("lag", 0.0))
                if rate_surface is None:
                    rate_surface = solve_rate_mean(cfg.kernel, cfg.model, cfg.solver,
                                                   workspace=ws)
                if lag not in product_surfaces:
                    product_surfaces[lag] = solve_product_moment(
                        lag, cfg.kernel, cfg.model, cfg.solver,
                        rate_mean_surface=rate_surface, workspace=ws)
                mean_rep, prod_rep = estimate_rate_moments(
                    cfg.kernel, cfg.model, start, r0, s, lag, reps, rng, step=step)
                mean_an = evaluate_rate_mean(rate_surface, cfg.kernel, cfg.model,
                                             start.state, start.age, r0, s)
                prod_an = evaluate_product_moment(
                    product_surfaces[lag], rate_surface, cfg.kernel, cfg.model,
                    start.state, start.age, r0, s)
                entries = [(mean_rep, mean_an), (prod_rep, prod_an)]
            for rep, analytic in entries:
                z = rep.z_score(analytic)
                reports.append({
                    **rep.to_dict(),
                    "analytic": analytic,
                    "z": z,
                    "within_3se": bool(abs(z) <= 3.0),
                })
    write_json(out / "estimates.json", {
        "config_sha256": cfg.config_hash(),
        "seed": cfg.seed,
        "reports": reports,
    })
    return 0


def _validate_surfaces(cfg: ExperimentConfig, maturities, orders, lags):
    """The surfaces validate's checks read, marched to the last node they
    read: each maturity's upper node, and each lag's node of the rate
    mean.  With no maturity no check reads a surface, and with no lag
    none reads the rate mean."""
    if not maturities:
        return {}, None, {}
    ws = LatticeWorkspace(cfg.kernel, cfg.model, cfg.solver, until=max(maturities + lags))
    return _moment_surfaces(cfg, ws, orders, lags, rate_mean=False)


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

    grid = TimeGrid(cfg.solver.step, cfg.solver.horizon)
    phi = transition_probabilities(cfg.kernel, grid)
    for age in ages:
        aged = backward_transition_probabilities(cfg.kernel, age, grid, phi)
        for t in occupancy_times:
            rng = next(streams)
            freqs, ses = estimate_state_occupancy(
                cfg.kernel, BackwardState(start_state, age), t, reps_occupancy, rng)
            k = grid.index_of(t)
            for j in range(cfg.kernel.m):
                add(f"occupancy[age={age},t={t},to={cfg.kernel.states[j]}]",
                    aged[k, start_state, j],
                    EstimatorReport(freqs[j], ses[j], reps_occupancy, rng.seed,
                                    stream=rng.stream))

    # one batch of paths per start age, on the streams after the occupancy
    # walks'; each check reads the first reps_zcb or reps_rate paths of its
    # age's batch, and every lag's rate_mean check reads the same one, so
    # with no lag there is no rate check.  The batches run before the
    # solves, whose peak RSS is about 0.3 MiB higher when the batch arrays
    # have fragmented the heap first
    targets = {("zcb_moment", n, s): {"quantity": "zcb_moment", "order": n, "s": s,
                                      "reps": reps_zcb}
               for n in orders for s in maturities}
    targets.update({("rate_mean", s): {"quantity": "rate_mean", "s": s, "reps": reps_rate}
                    for s in maturities if lags})
    targets.update({("product_moment", lag, s): {"quantity": "product_moment", "s": s,
                                                 "lag": lag, "reps": reps_rate}
                    for lag in lags for s in maturities})
    estimates = []
    for age in ages:
        reports = estimate_moments(cfg.kernel, cfg.model, BackwardState(start_state, age),
                                   r0, targets.values(), next(streams), step=mc_step)
        estimates.append(dict(zip(targets, reports)))

    zcb, rate_surface, products = _validate_surfaces(cfg, maturities, orders, lags)
    for n in orders:
        for age, est in zip(ages, estimates):
            for s in maturities:
                analytic = evaluate_zcb_moment(zcb[n], cfg.kernel, cfg.model,
                                               start_state, age, r0, s)
                add(f"zcb_moment[n={n},age={age},s={s}]", analytic, est["zcb_moment", n, s])
    mean_an = {(a, s): evaluate_rate_mean(rate_surface, cfg.kernel, cfg.model,
                                          start_state, age, r0, s)
               for a, age in enumerate(ages) for s in maturities if lags}
    for lag in lags:
        for a, (age, est) in enumerate(zip(ages, estimates)):
            for s in maturities:
                prod_an = evaluate_product_moment(products[lag], rate_surface, cfg.kernel,
                                                  cfg.model, start_state, age, r0, s)
                add(f"rate_mean[age={age},s={s},lag={lag}]", mean_an[a, s],
                    est["rate_mean", s])
                add(f"product_moment[age={age},s={s},lag={lag}]", prod_an,
                    est["product_moment", lag, s])

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
