"""Smoke test of the benchmark: every workload at --size tiny, untraced and
traced, against the metric names and units declared in BENCHMARK.json.

Run from the repository root:  python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# names later changes cite in their claims; BENCHMARK.json must keep them
NAMED_END_TO_END = {"wall_s", "setup_s", "peak_rss_mb"}
NAMED_PER_LAYER = {
    "solve_s",
    "config.import_s", "config.parse_s",
    "moment_engine.transfer.tilt0_s", "moment_engine.transfer.tilt1_s",
    "moment_engine.transfer.tilt2_s", "moment_engine.transfer.m1_s",
    "moment_engine.pack_s",
    "rate_models.gauss_rule_s", "rate_models.gauss_rule_calls",
    "rate_models.ncx2_rule_s", "rate_models.ncx2_rule_calls",
    "moment_engine.solve.zcb_s", "moment_engine.solve.rate_mean_s",
    "moment_engine.solve.product_s",
    "moment_engine.eval.zcb_ms", "moment_engine.eval.rate_mean_ms",
    "moment_engine.eval.product_ms", "moment_engine.eval.calls", "evals_per_s",
    "moment_engine.workspace_s", "moment_engine.workspaces_built",
    "moment_engine.covariance_s",
    "semi_markov.phi_s", "semi_markov.phi_aged_s",
    "monte_carlo.zcb_s", "monte_carlo.rate_s", "monte_carlo.occupancy_s",
    "monte_carlo.paths", "monte_carlo.paths_per_s",
    "exports.csv_s", "exports.json_s", "exports.bytes", "exports.mb_per_s",
    "validate.checks_failed", "trace.overhead_s", "trace.uncovered_s",
}


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_names():
    assert NAMED_END_TO_END == {m["name"] for m in SPEC["end_to_end"]}
    assert NAMED_PER_LAYER <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_output(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, context_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    context = json.loads(context_line)["context"]
    assert context["absent"] == [] and context["failed_checks"] == []


def test_removed_name_is_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    from tracer import Tracer

    tracer = Tracer("t")
    tracer.install([("smrates.moment_engine", "no_such_function", "moment_engine.pack",
                     None)])
    assert tracer.absent == ["smrates.moment_engine.no_such_function"]
    assert "moment_engine.pack_s" in run._absent(sorted(tracer.installed))


def test_refuses_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
