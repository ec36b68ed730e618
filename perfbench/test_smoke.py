"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Checks that the last stdout line carries exactly the metrics BENCHMARK.json
names, each with its unit, that every output check of the workload ran and
passed, that the per-layer counters do not depend on how many passes fit in
--seconds, and that the benchmark refuses to run without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

EXPECTED_CHECKS = {
    "theory-sweep": {
        "exit_zero", "rows_match_n", "excess_finite_nonnegative", "excess_is_sum_of_parts",
        "lambda_matches_schedule", "region_known", "one_row", "lam_star_on_grid",
        "excess_star_positive", "zone_known", "grid_complete", "lines_header",
        "excess_finite_positive", "fixed_point_converged", "routes_agree"},
    "mc-curves": {
        "exit_zero", "rows_match_n", "full_trial_count", "excess_finite_nonnegative",
        "mc_rows_match_theory", "mc_curve_matches_theory", "slope_finite",
        "all_points_fitted"},
    "estimate-csv": {
        "exit_zero", "report_matches_stdout", "estimates_finite", "all_rows_used",
        "tails_complete", "alpha_recovered", "r_recovered"},
}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(EXPECTED_CHECKS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(EXPECTED_CHECKS))
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))

    reports = dict(line.split(" ", 1) for line in lines[:-1])
    checks = json.loads(reports["checks"])
    assert set(checks) == EXPECTED_CHECKS[workload]
    assert all(c["ran"] >= 1 and c["failed"] == 0 for c in checks.values())
    env = json.loads(reports["env"])
    assert env["seed"] == 0 and env["workload"] == workload


def _reports(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    reports = {key: json.loads(value) for key, value in
               (line.split(" ", 1) for line in lines[:-1])}
    return reports, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(EXPECTED_CHECKS))
def test_layer_counters_do_not_depend_on_seconds(workload):
    args = ("--workload", workload, "--seed", "0", "--trace", "1", "--smoke")
    one, one_result = _reports(_run(ROOT, *args, "--seconds", "0.01"))
    many, many_result = _reports(_run(ROOT, *args, "--seconds", "3"))
    assert one["passes"] == 1 and many["passes"] >= 2
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name.endswith(".self_pct") or name == "trace.wall_s":
            continue  # timings, not counters
        # Bytes written vary by a few bytes a pass: manifests hold elapsed times.
        rel_tol = 1e-3 if metric["unit"] == "B/pass" else 1e-9
        assert math.isclose(one_result["metrics"][name]["value"],
                            many_result["metrics"][name]["value"], rel_tol=rel_tol), name


@pytest.mark.parametrize("scale", [1.25, 0.8])
def test_mc_check_catches_a_shared_bias(tmp_path, monkeypatch, scale):
    """A full-size ridgeless curve passes; the same curve fails once its theory
    column is off by a factor shared by every row."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from workloads import McCurves

    mc = McCurves(seed=0, smoke=False)
    op = next(op for op in mc.pass_ops(0) if op.kind == "simulate" and op.subdir == "spec0")
    outcome = op.run(tmp_path)
    assert all(ok for _, ok in op.check(tmp_path, outcome))

    curve = tmp_path / "curve.csv"
    lines = curve.read_text().splitlines()
    column = lines[0].split(",").index("theory_excess")
    biased = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        fields[column] = repr(float(fields[column]) * scale)
        biased.append(",".join(fields))
    curve.write_text("\n".join(biased) + "\n")
    checks = dict(op.check(tmp_path, outcome))
    assert checks["mc_curve_matches_theory"] is False


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "theory-sweep", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
