"""One benchmark child: set up smrates, run one workload repeatedly, report.

Started by ``bench/run.py`` as ``python3 bench/child.py SPEC SPAWN_T`` in a
fresh process with one BLAS thread and ``src`` on ``PYTHONPATH``.  SPEC is
a JSON file the parent wrote with the generated inputs; SPAWN_T is the
parent's ``time.monotonic()`` just before the spawn.

After set-up the child runs one operation of its workload after another,
one at a time, and starts another only while a round as long as the last
one still ends by ``spec["end"]`` (at least one, at most
``spec["max_ops"]``).  Each operation is timed alone; its outputs are
checked after the clock stops.  The child writes its result (set-up time,
per-operation times, checks and, when traced, the spans of each operation)
to ``spec["result"]``.  An error raised by the program ends the loop and is
recorded as a failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYER_TARGETS, Tracer

# the tier-1 acceptance tolerance for the single-regime collapse
# (criterion 03) and the age-0 tolerance of the evaluator tests
CLOSED_FORM_TOL = 1e-4
AGE_ZERO_TOL = 1e-8
# floor the test suite applies to zcb_n2 - zcb_n1^2 (roundoff)
JENSEN_FLOOR = -1e-8
MOMENTS_FILES = 9
# imported in main(), inside the set-up span, as smrates imports it anyway
np = None


# ---------------------------------------------------------------------------
# Operations (timed) and their checks (run after the clock stops)
# ---------------------------------------------------------------------------

def _last_column(path: Path) -> np.ndarray:
    """Value column of a surface CSV (comment lines and header skipped)."""
    head = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            head += 1
            if not line.startswith("#"):
                break
    return np.loadtxt(path, delimiter=",", usecols=-1, skiprows=head, ndmin=1)


def _exit_check(rc: int, ok_codes) -> dict:
    return {"check": "exit_code", "ok": rc in ok_codes, "detail": rc}


def _cli_moments(spec, op, cfg, cli, me, out):
    rc = cli.main(["moments", "--config", spec["config"], "--out", str(out)])
    return {"exit_code": rc}


def _check_moments(spec, res, out: Path):
    checks = [_exit_check(res["exit_code"], (0,))]
    files = sorted(out.glob("*.csv")) + sorted(out.glob("*.json"))
    checks.append({"check": "files_present", "ok": len(files) == MOMENTS_FILES,
                   "detail": len(files)})
    columns = {}
    for path in files:
        if path.suffix == ".csv":
            columns[path.stem] = values = _last_column(path)
            finite = values.size > 0 and bool(np.isfinite(values).all())
        else:
            tables = json.loads(path.read_text(encoding="utf-8"))["surfaces"]
            finite = all(bool(np.isfinite(np.asarray(t["values"], dtype=float)).all())
                         for t in tables)
        checks.append({"check": f"finite[{path.name}]", "ok": finite, "detail": None})
    n1, n2 = columns.get("zcb_moment_n1"), columns.get("zcb_moment_n2")
    gap = (float((n2 - n1 * n1).min())
           if n1 is not None and n2 is not None and n1.size and n1.shape == n2.shape
           else -math.inf)
    checks.append({"check": "jensen_floor", "ok": gap >= JENSEN_FLOOR, "detail": gap})
    return checks, 0


def _cli_validate(spec, op, cfg, cli, me, out):
    rc = cli.main(["validate", "--config", spec["config"], "--out", str(out),
                   "--seed", str(spec["cli_seeds"][op])])
    return {"exit_code": rc}


def _check_validate(spec, res, out: Path):
    """A check fails only beyond |z| > spec["z_fail"]; its 3-sigma misses
    are returned separately (about 7% of seeds show one)."""
    checks = [_exit_check(res["exit_code"], (0, 4))]
    path = out / "validation.json"
    if not path.exists():
        return checks + [{"check": "validation.json", "ok": False, "detail": None}], 0
    rows = json.loads(path.read_text(encoding="utf-8"))["checks"]
    checks += [{"check": row["check"], "ok": abs(row["z"]) <= spec["z_fail"],
                "detail": row["z"]} for row in rows]
    return checks, sum(not row["pass"] for row in rows)


def _cir_pricing(spec, op, cfg, cli, me, out):
    """Solve zcb_moment n=1 and rate_mean, then this operation's aged batch.

    Names are looked up on the module at call time, so traced runs go
    through the tracer's wrappers."""
    kernel, model, solver = cfg.kernel, cfg.model, cfg.solver
    ws = me.LatticeWorkspace(kernel, model, solver)
    t0 = time.monotonic()
    surfaces = {
        "zcb_moment": me.solve_zcb_moment(1, kernel, model, solver, workspace=ws),
        "rate_mean": me.solve_rate_mean(kernel, model, solver, workspace=ws),
    }
    solve_s = time.monotonic() - t0
    x = ws.x_nodes
    evaluate = {"zcb_moment": "evaluate_zcb_moment", "rate_mean": "evaluate_rate_mean"}
    evals = []
    t0 = time.monotonic()
    for item in spec["batches"][op]:
        if item["lattice_check"]:
            p = int(round(item["rate_frac"] * (x.size - 1)))
            r = float(x[p])
        else:
            p, r = None, float(x[0] + item["rate_frac"] * (x[-1] - x[0]))
        value = getattr(me, evaluate[item["quantity"]])(
            surfaces[item["quantity"]], kernel, model, 0, item["age"], r, item["maturity"])
        evals.append((item, p, r, value))
    eval_s = time.monotonic() - t0
    # the closed form is part of the check, so it is computed after the clock
    ref = int(np.argmin(np.abs(x - solver.reference_rate)))
    closed = np.asarray(model.bond_laplace(0, x[ref], 1, ws.thetas))
    return {"surfaces": surfaces, "closed": closed, "ref": ref, "evals": evals,
            "step": solver.step, "solve_s": solve_s, "eval_s": eval_s}


def _check_cir(spec, res, out: Path):
    surfaces = res.pop("surfaces")
    err = float(np.abs(surfaces["zcb_moment"].values[0, :, res.pop("ref")]
                       - res.pop("closed")).max())
    checks = [{"check": "zcb_n1_closed_form", "ok": err <= CLOSED_FORM_TOL, "detail": err}]
    for item, p, r, value in res["evals"]:
        ok = math.isfinite(value) and value >= 0.0
        if item["quantity"] == "zcb_moment":
            ok = ok and value <= 1.0
        detail = value
        if item["lattice_check"]:
            k = int(round(item["maturity"] / res["step"]))
            detail = abs(value - float(surfaces[item["quantity"]].values[0, k, p]))
            ok = ok and detail <= AGE_ZERO_TOL
        checks.append({"check": f"eval[{item['quantity']},u={item['age']:.4f},"
                                f"r={r:.5f},s={item['maturity']:.5f}]",
                       "ok": bool(ok), "detail": detail})
    res["evals"] = len(res["evals"])
    return checks, 0


WORKLOADS = {
    "moments-testbed": (_cli_moments, _check_moments),
    "validate-testbed": (_cli_validate, _check_validate),
    "cir-pricing": (_cir_pricing, _check_cir),
}


def main(spec_path: str, spawn_t: float) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer(spec["run_id"])
    with tracer.span("config.import"):
        import smrates  # noqa: F401
        from smrates import cli, config, moment_engine
    global np
    import numpy as np
    if spec["trace"]:
        tracer.install(LAYER_TARGETS)
    cfg = config.ExperimentConfig.from_file(spec["config"])
    result = {"setup_s": time.monotonic() - spawn_t, "ops": []}
    if spec["trace"]:
        result.update(setup_spans=tracer.spans, installed=sorted(tracer.installed),
                      absent=tracer.absent)
    run, check = WORKLOADS[spec["workload"]]
    while not spec["setup_only"] and len(result["ops"]) < spec["max_ops"]:
        op = len(result["ops"])
        out = Path(spec["out"]) / f"op{op:02d}"
        tracer.spans = []
        tracer.run_id = f"{spec['run_id']}.op{op:02d}"
        t0 = time.monotonic()
        try:
            res = run(spec, op, cfg, cli, moment_engine, out)
        except Exception:
            result["ops"].append({"wall_s": time.monotonic() - t0, "misses": 0, "checks": [
                {"check": "op_completed", "ok": False, "detail": traceback.format_exc()}]})
            break
        wall = time.monotonic() - t0
        checks, misses = check(spec, res, out)
        shutil.rmtree(out, ignore_errors=True)
        record = dict(res, wall_s=wall, checks=checks, misses=misses)
        if spec["trace"]:
            record["spans"] = tracer.spans
        result["ops"].append(record)
        now = time.monotonic()
        if now + (now - t0) > spec["end"]:
            break
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
