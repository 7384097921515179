"""smrates benchmark: three workloads, each run in fresh child processes.

Run from the repository root:

    python3 bench/run.py --workload moments-testbed --seed 1 --seconds 40 --trace 0

Workloads (inputs are generated from --seed; the same seed gives the
same inputs).  All three run on a lattice of K = 200 time steps and
Nx = 81 rate nodes, so that one operation takes a few seconds and a run
times about ten of them:

  moments-testbed   ``smrates moments`` on configs/testbed_weibull_vasicek.json
                    at step 0.0125 (m = 2): transfer builds, five marches
                    and 22 MB of export; no Monte Carlo, no aged
                    evaluation.
                    The command takes no seed, so its inputs are the same
                    for every seed.
  validate-testbed  ``smrates validate`` on the same config and step, with a
                    quarter of its Monte Carlo replications and --seed drawn
                    from the workload seed for each operation: the same
                    builds and marches plus the Monte Carlo cross-checks,
                    the phi march and cheap Gaussian aged evaluations;
                    almost no export.
  cir-pricing       library run on configs/single_regime_cir.json at step
                    0.01: solve zcb_moment n=1 and rate_mean (CIR
                    noncentral chi-square transfer builds), then a seeded
                    batch of aged evaluations over ages, interior lattice
                    rates and maturities on and off the grid nodes.  No
                    export, no Monte Carlo.

A run is closed-loop and single-threaded in the program: one child at a
time, each a fresh ``python3`` process with one BLAS thread, running one
operation of the workload at a time.  With ``--trace 0`` the run first
spawns SETUP_PROBES children that only import smrates and parse the
config, then one workload child that repeats the operation while another
round still ends within --seconds, and prints the end-to-end metrics:
``wall_s`` is the median time of one operation (the child's first,
warm-up operation left out when there are more), ``setup_s`` the median
set-up time of all children, ``peak_rss_mb`` the workload child's own peak
resident set.  With ``--trace 1`` it runs an untraced and a traced
workload child for half the time each, in an order that alternates with
the seed, and prints the per-layer metrics of the traced operations
(medians), the tracing overhead and the time outside any top-level span.

Every operation's outputs are checked; each check is one attempted
operation, and a crash or a failed check is a failed one.  The line
before the last on stdout is a JSON record of the environment, the exact
counts of one operation, the raw samples and the failed checks; the last
line is the result.  The same record, with the spans of a traced run, is
written to .bench_out/.  The benchmark exits with code 2, printing no
result, when the checkout has no smrates sources or configs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

from tracer import self_times  # noqa: E402

SETUP_PROBES = 2
MAX_OPS = 64
RUN_DEADLINE_S = 170.0
# a validate check counts as a failed operation only beyond this |z|;
# 3-sigma misses are expected (at about 7% of seeds on the shipped config)
# and are reported as validate.checks_failed instead.  One check sits near
# z = +1.6 at this lattice size, and 22 runs make about 200 operations:
# at a bound of 5 a correct program would fail about 7% of such sets
# (P(z > 5) = 3.5e-4 per operation), at 6 about 0.1%.
Z_FAIL = 6.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = {
    "moments-testbed": "configs/testbed_weibull_vasicek.json",
    "validate-testbed": "configs/testbed_weibull_vasicek.json",
    "cir-pricing": "configs/single_regime_cir.json",
}
# time step per workload (K = 200 on all three) and the share of the shipped
# Monte Carlo replications validate-testbed runs: one operation takes a few
# seconds, so a run's median is taken over about ten of them
STEP = {"moments-testbed": 0.0125, "validate-testbed": 0.0125, "cir-pricing": 0.01}
VALIDATE_REPS_DIVISOR = 4
CIR_EVALS_PER_QUANTITY = 1
# --size tiny shrinks every lattice and Monte Carlo batch for the smoke test
TINY_SOLVER = {"step": 0.02, "rate_nodes": 21}
TINY_VALIDATE = {"reps_occupancy": 2000, "reps_zcb": 1000, "reps_rate": 1000}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    # name: (unit, span whose presence the metric needs, or None)
    "config.import_s": ("s", "config.import"),
    "config.parse_s": ("s", "config.parse"),
    "cli.self_s": ("s", "cli.main"),
    "moment_engine.workspace_s": ("s", "moment_engine.workspace"),
    "moment_engine.workspaces_built": ("count", "moment_engine.workspace"),
    "moment_engine.transfer.tilt0_s": ("s", "moment_engine.transfer.tilt0"),
    "moment_engine.transfer.tilt1_s": ("s", "moment_engine.transfer.tilt1"),
    "moment_engine.transfer.tilt2_s": ("s", "moment_engine.transfer.tilt2"),
    "moment_engine.transfer.m1_s": ("s", "moment_engine.transfer.m1"),
    "moment_engine.pack_s": ("s", "moment_engine.pack"),
    "rate_models.gauss_rule_s": ("s", "rate_models.gauss_rule"),
    "rate_models.gauss_rule_calls": ("count", "rate_models.gauss_rule"),
    "rate_models.ncx2_rule_s": ("s", "rate_models.ncx2_rule"),
    "rate_models.ncx2_rule_calls": ("count", "rate_models.ncx2_rule"),
    "solve_s": ("s", "moment_engine.solve."),
    "moment_engine.solve.zcb_s": ("s", "moment_engine.solve.zcb"),
    "moment_engine.solve.rate_mean_s": ("s", "moment_engine.solve.rate_mean"),
    "moment_engine.solve.product_s": ("s", "moment_engine.solve.product"),
    "moment_engine.eval.zcb_ms": ("ms", "moment_engine.eval.zcb"),
    "moment_engine.eval.rate_mean_ms": ("ms", "moment_engine.eval.rate_mean"),
    "moment_engine.eval.product_ms": ("ms", "moment_engine.eval.product"),
    "moment_engine.eval.calls": ("count", "moment_engine.eval."),
    "evals_per_s": ("1/s", "moment_engine.eval."),
    "moment_engine.covariance_s": ("s", "moment_engine.covariance"),
    "semi_markov.phi_s": ("s", "semi_markov.phi"),
    "semi_markov.phi_aged_s": ("s", "semi_markov.phi_aged"),
    "monte_carlo.zcb_s": ("s", "monte_carlo.zcb"),
    "monte_carlo.rate_s": ("s", "monte_carlo.rate"),
    "monte_carlo.occupancy_s": ("s", "monte_carlo.occupancy"),
    "monte_carlo.paths": ("count", "monte_carlo."),
    "monte_carlo.paths_per_s": ("1/s", "monte_carlo."),
    "exports.csv_s": ("s", "exports.csv"),
    "exports.json_s": ("s", "exports.json"),
    "exports.bytes": ("B", "exports."),
    "exports.mb_per_s": ("MB/s", "exports."),
    "validate.checks_failed": ("count", None),
    "count.lattice_m": ("count", "moment_engine.workspace"),
    "count.lattice_k": ("count", "moment_engine.workspace"),
    "count.lattice_nx": ("count", "moment_engine.workspace"),
    "count.transfer_stacks": ("count", "moment_engine.transfer."),
    "count.transfer_bytes": ("B", "moment_engine.transfer."),
    "count.march_madds": ("count", "moment_engine.solve."),
    "count.rules_built": ("count", "rate_models."),
    "trace.overhead_s": ("s", None),
    "trace.uncovered_s": ("s", None),
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _config(workload: str, size: str) -> dict:
    cfg = json.loads((ROOT / WORKLOADS[workload]).read_text(encoding="utf-8"))
    cfg["solver"]["step"] = STEP[workload]
    if workload == "validate-testbed":
        for key in ("reps_occupancy", "reps_zcb", "reps_rate"):
            cfg["validate"][key] //= VALIDATE_REPS_DIVISOR
    if size == "tiny":
        cfg["solver"].update(TINY_SOLVER)
        cfg["validate"].update(TINY_VALIDATE)
    return cfg


def _cir_batch(rng: random.Random, horizon: float, step: float, per_quantity: int):
    """Aged evaluations whose total work does not depend on the seed.

    An evaluation costs in proportion to its maturity, twice over off the
    grid nodes, so maturities are stratified over (0, horizon] with a small
    jitter and the on/off-node pattern is fixed.  The first item is the
    age-0, on-node lattice check."""
    n_steps = round(horizon / step)
    batch = [{"quantity": "zcb_moment", "age": 0.0, "rate_frac": rng.uniform(0.3, 0.7),
              "maturity": round(n_steps * rng.uniform(0.45, 0.55)) * step,
              "lattice_check": True}]
    for q, quantity in enumerate(("zcb_moment", "rate_mean")):
        for j in range(per_quantity):
            s = horizon * (j + 0.5 + rng.uniform(-0.1, 0.1)) / per_quantity
            k = min(int(s / step), n_steps - 1)
            on_node = (j + q) % 2 == 0
            batch.append({
                "quantity": quantity,
                "age": rng.uniform(0.0, 1.5),
                "rate_frac": rng.uniform(0.15, 0.85),
                "maturity": k * step if on_node else (k + rng.uniform(0.25, 0.75)) * step,
                "lattice_check": False,
            })
    return batch


def _counts(workload: str, cfg: dict, batch) -> dict:
    """Exact counts of one operation implied by its inputs: lattice,
    computed transfer-stack bytes and march multiply-adds, planned
    evaluations and paths."""
    solver = cfg["solver"]
    m = len(cfg["kernel"]["states"])
    k = round(solver["horizon"] / solver["step"])
    nx = solver["rate_nodes"]
    if workload == "cir-pricing":
        quantities, stacks, evals, paths = 2, 2, len(batch), 0
    else:
        block = cfg["moments"] if workload == "moments-testbed" else cfg["validate"]
        orders, lags = block.get("orders", [1, 2]), block.get("lags", [0.0])
        quantities = len(orders) + 1 + len(lags)
        # one tilted stack per order, the plain stack, the first-moment stack
        stacks = len(orders) + 2
        evals = paths = 0
        if workload == "validate-testbed":
            val = cfg["validate"]
            ages, mats = len(val["ages"]), len(val["maturities"])
            # per age and maturity: zcb per order, rate mean and product per lag
            evals = ages * mats * (len(orders) + 2 * len(lags))
            paths = (ages * len(val["occupancy_times"]) * val["reps_occupancy"]
                     + ages * mats * (len(orders) * val["reps_zcb"]
                                      + len(lags) * val["reps_rate"]))
    stack_bytes = m * (k + 1) * nx * nx * 8
    return {
        "lattice_m": m, "lattice_k": k, "lattice_nx": nx,
        "transfer_stacks": stacks,
        "transfer_stack_bytes": stack_bytes,
        "transfer_bytes": stacks * stack_bytes,
        "march_madds_per_quantity": m * nx * nx * k * (k - 1) // 2,
        "march_madds": quantities * m * nx * nx * k * (k - 1) // 2,
        "aged_evals": evals,
        "mc_paths": paths,
    }


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _environment() -> dict:
    cpu = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "child_threads": {var: "1" for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _spawn(spec: dict, work: Path, deadline: float) -> dict:
    """Run one child to completion; its peak RSS is its own (os.wait4 on
    its pid), not a maximum over earlier children."""
    tag = spec["run_id"]
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / f"{tag}.out", "wb") as out, open(work / f"{tag}.err", "wb") as err:
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path), repr(spawn_t)],
            stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = Path(spec["result"])
    result = None
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    else:
        tail = (work / f"{tag}.err").read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"child {tag} exited with {proc.returncode}:\n{tail}", file=sys.stderr)
    return {"peak_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
            "result": result}


def _ops(child: dict) -> list[dict]:
    return child["result"]["ops"] if child["result"] is not None else []


def _warm(ops: list[dict]) -> list[dict]:
    """The operations a metric is taken over: the first one of a child
    warms it up (lazy imports, first-touch memory) and counts only when it
    is the only one.  Its checks count all the same."""
    return ops[1:] if len(ops) > 1 else ops


def _child_checks(child: dict) -> list[dict]:
    if child["result"] is None:
        return [{"check": "child_completed", "ok": False, "detail": child["exit"]}]
    return [c for op in child["result"]["ops"] for c in op["checks"]]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _layer_metrics(spans: list[dict], wall: float) -> dict:
    """Per-layer metrics of one traced operation: ``*_s`` are self times
    summed over calls, ``*_ms`` mean per-call latencies of the outermost
    calls."""
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = Counter()
    for span, t in zip(spans, own):
        self_s[span["name"]] += t
        calls[span["name"]] += 1

    def total(key, prefix):
        return sum(s.get(key, 0) for s in spans if s["name"].startswith(prefix))

    def is_eval(i):
        return i is not None and spans[i]["name"].startswith("moment_engine.eval.")

    outer_evals = [s for i, s in enumerate(spans) if is_eval(i) and not is_eval(s["parent"])]
    eval_time = sum(s["end"] - s["start"] for s in outer_evals)
    lattice = next((s for s in spans if s["name"] == "moment_engine.workspace"), {})
    m, k, nx = lattice.get("m", 0), lattice.get("k", 0), lattice.get("nx", 0)
    mc_time = sum(t for name, t in self_s.items() if name.startswith("monte_carlo."))
    export_time = self_s["exports.csv"] + self_s["exports.json"]
    solve_spans = [s for s in spans if s["name"].startswith("moment_engine.solve.")]

    out = {
        "solve_s": sum(s["end"] - s["start"] for s in solve_spans),
        "cli.self_s": self_s["cli.main"],
        "moment_engine.workspace_s": self_s["moment_engine.workspace"],
        "moment_engine.workspaces_built": calls["moment_engine.workspace"],
        "moment_engine.pack_s": self_s["moment_engine.pack"],
        "rate_models.gauss_rule_s": self_s["rate_models.gauss_rule"],
        "rate_models.gauss_rule_calls": calls["rate_models.gauss_rule"],
        "rate_models.ncx2_rule_s": self_s["rate_models.ncx2_rule"],
        "rate_models.ncx2_rule_calls": calls["rate_models.ncx2_rule"],
        "moment_engine.eval.calls": len(outer_evals),
        "evals_per_s": len(outer_evals) / eval_time if eval_time > 0 else 0.0,
        "moment_engine.covariance_s": self_s["moment_engine.covariance"],
        "semi_markov.phi_s": self_s["semi_markov.phi"],
        "semi_markov.phi_aged_s": self_s["semi_markov.phi_aged"],
        "monte_carlo.zcb_s": self_s["monte_carlo.zcb"],
        "monte_carlo.rate_s": self_s["monte_carlo.rate"],
        "monte_carlo.occupancy_s": self_s["monte_carlo.occupancy"],
        "monte_carlo.paths": total("paths", "monte_carlo."),
        "monte_carlo.paths_per_s": total("paths", "monte_carlo.") / mc_time if mc_time else 0.0,
        "exports.csv_s": self_s["exports.csv"],
        "exports.json_s": self_s["exports.json"],
        "exports.bytes": total("bytes", "exports."),
        "exports.mb_per_s": total("bytes", "exports.") / 1e6 / export_time if export_time else 0.0,
        "count.lattice_m": m,
        "count.lattice_k": k,
        "count.lattice_nx": nx,
        "count.transfer_stacks": total("stacks", "moment_engine.transfer."),
        "count.transfer_bytes": total("stack_bytes", "moment_engine.transfer."),
        "count.march_madds": len(solve_spans) * m * nx * nx * k * (k - 1) // 2,
        "count.rules_built": total("rules", "rate_models."),
        "trace.uncovered_s": wall - sum(s["end"] - s["start"] for s in spans
                                        if s["parent"] is None),
    }
    for tilt in ("tilt0", "tilt1", "tilt2", "m1"):
        out[f"moment_engine.transfer.{tilt}_s"] = self_s[f"moment_engine.transfer.{tilt}"]
    for q in ("zcb", "rate_mean", "product"):
        out[f"moment_engine.solve.{q}_s"] = self_s[f"moment_engine.solve.{q}"]
        durations = [s["end"] - s["start"] for s in outer_evals
                     if s["name"] == f"moment_engine.eval.{q}"]
        out[f"moment_engine.eval.{q}_ms"] = 1e3 * statistics.fmean(durations) if durations else 0.0
    return out


def _absent(installed: list[str]) -> list[str]:
    """Per-layer metrics whose spans the package no longer offers."""
    return sorted(name for name, (_, span) in PER_LAYER.items()
                  if span is not None
                  and not any(span.startswith(p) or p.startswith(span) for p in installed))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/smrates/__init__.py", WORKLOADS[args.workload])
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not an smrates checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    work = OUT_DIR / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    rng = random.Random(args.seed)
    cfg = _config(args.workload, args.size)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    batches = ([_cir_batch(rng, cfg["solver"]["horizon"], cfg["solver"]["step"],
                           CIR_EVALS_PER_QUANTITY) for _ in range(MAX_OPS)]
               if args.workload == "cir-pricing" else [[] for _ in range(MAX_OPS)])
    base = {"workload": args.workload, "config": str(config_path), "z_fail": Z_FAIL,
            "max_ops": MAX_OPS, "batches": batches,
            "cli_seeds": [rng.randrange(2**31) for _ in range(MAX_OPS)]}

    n_children = 0

    def child(traced: bool, end: float = 0.0, setup_only: bool = False) -> dict:
        nonlocal n_children
        n_children += 1
        run_id = f"c{n_children:02d}"
        spec = dict(base, run_id=run_id, trace=traced, setup_only=setup_only,
                    end=end, out=str(work / run_id),
                    result=str(work / f"{run_id}.result.json"))
        return _spawn(spec, work, deadline)

    probes, runs, traced = [], [], []
    if args.trace == 0:
        probes = [child(False, setup_only=True) for _ in range(SETUP_PROBES)]
        runs.append(child(False, end=start + args.seconds))
    else:
        # alternate which child goes first, so that the overhead estimate
        # carries no order effect across seeds
        traced_first = args.seed % 2 == 1
        for i, is_traced in enumerate((traced_first, not traced_first)):
            now = time.monotonic()
            end = now + (start + args.seconds - now) / (2 - i)
            (traced if is_traced else runs).append(child(is_traced, end=end))

    children = probes + runs + traced
    run_ops = [op for r in runs for op in _ops(r)]
    traced_ops = [op for r in traced for op in _ops(r)]
    timed_run = [op for r in runs for op in _warm(_ops(r))]
    timed_traced = [op for r in traced for op in _warm(_ops(r))]
    setups = [r["result"]["setup_s"] for r in children if r["result"] is not None]
    checks = [c for r in runs + traced for c in _child_checks(r)]
    failed = [c for c in checks if not c["ok"]]
    misses = [op["misses"] for op in run_ops + traced_ops]

    if args.trace == 0:
        metrics = {
            "wall_s": _median([op["wall_s"] for op in timed_run]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
        }
        units = END_TO_END
        absent, spans = [], []
    else:
        ok_traced = [r["result"] for r in traced if r["result"] is not None]
        layers = [_layer_metrics(op["spans"], op["wall_s"])
                  for op in timed_traced if "spans" in op]
        metrics = {name: 0.0 for name in PER_LAYER}
        if layers:
            metrics.update({name: _median([layer[name] for layer in layers])
                            for name in layers[0]})
        setup_self = defaultdict(float)
        for res in ok_traced:
            for span, t in zip(res["setup_spans"], self_times(res["setup_spans"])):
                setup_self[span["name"]] += t / len(ok_traced)
        metrics["config.import_s"] = setup_self["config.import"]
        metrics["config.parse_s"] = setup_self["config.parse"]
        metrics["validate.checks_failed"] = _median(misses)
        metrics["trace.overhead_s"] = (_median([op["wall_s"] for op in timed_traced])
                                       - _median([op["wall_s"] for op in timed_run]))
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        absent = _absent(ok_traced[0]["installed"]) if ok_traced else []
        spans = ([s for res in ok_traced for s in res["setup_spans"]]
                 + [s for op in traced_ops for s in op.get("spans", [])])

    context = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "children": len(children),
        "operations": len(run_ops) + len(traced_ops),
        "environment": _environment(),
        "counts": _counts(args.workload, cfg, batches[0]),
        "failed_frac": len(failed) / len(checks) if checks else 1.0,
        "validate.checks_failed": sum(misses),
        "z_fail": Z_FAIL,
        "failed_checks": failed,
        "absent": absent,
        "samples": {
            "wall_s": [op["wall_s"] for op in run_ops],
            "traced_wall_s": [op["wall_s"] for op in traced_ops],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs + traced],
            "solve_s": [op["solve_s"] for op in run_ops if "solve_s" in op],
            "evals_per_s": [op["evals"] / op["eval_s"] for op in run_ops if "evals" in op],
        },
    }
    result = {
        "correct": not failed and bool(checks),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (OUT_DIR / f"{tag}.json").write_text(
        json.dumps({"context": context, "result": result, "spans": spans}),
        encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
