"""Benchmark of the krr-regimes toolkit, driven through its CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload theory-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --workload mc-curves --seed 1 --seconds 1 --trace 1 --smoke

One closed-loop client in this process calls ``krr_regimes.cli.main(argv)``
(and, on theory-sweep, the README's library route check) one operation
after another, in passes over the workload's operation list, until the
next pass would end after ``--seconds``; at least one pass always runs.
Outputs are checked after each pass, outside the timing.  The package is
imported from ``src/`` next to this directory.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see tracing.py).  Earlier stdout lines carry the
environment, the pass count, per-command medians, check counts, the Monte
Carlo check's thresholds and, when traced, per-size layer timings; the last line is one JSON object with keys correct,
attempted, failed and metrics.  A traced run writes its spans under
perfbench/_work/results/.  ``--workload all`` runs every workload untraced
and traced in child processes and adds the tracing overhead.  NOTES.md
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from io import StringIO
from pathlib import Path

from tracing import TARGETS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = WORK / "results"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "cmd_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Stats reported for a traced function besides calls and self_pct.  Every
# summed counter is reported per pass.
LAYER_EXTRAS = {
    "spectrum.power_law_spectrum": {"mb_computed": "MB/pass"},
    "theory.solve_z": {"branch_spectral": "count/pass", "branch_regularization": "count/pass",
                       "branch_interpolation": "count/pass", "residual_max": "1"},
    "theory.excess_error_closed": {"errors": "count/pass"},
    "theory.optimal_lambda": {"grid_points": "count/pass"},
    "theory.solve_fixed_point": {"iterations": "count/pass", "unconverged": "count/pass"},
    "simulator.sample_dataset": {"mb_computed": "MB/pass"},
    "simulator.ridge_fit": {"gflop_computed": "GFLOP/pass", "errors": "count/pass"},
    "simulator.grid_search_lambda": {"gflop_computed": "GFLOP/pass"},
    "simulator.learning_curve": {"trials_failed": "count/pass"},
    "dataspec.load_dataset_csv": {"mb_read": "MB/pass"},
    "dataspec.gram_matrix": {"gflop_computed": "GFLOP/pass"},
    "dataspec.feature_decomposition": {"gflop_computed": "GFLOP/pass",
                                       "n_floored": "count/pass"},
    "cli.main": {"bytes_written": "B/pass"},
}
# Counters that hold a maximum over the run rather than a sum.
MAX_COUNTERS = {"theory.solve_z.residual_max"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for target in TARGETS:
        units[target.name + ".calls"] = "count/pass"
        units[target.name + ".self_pct"] = "%"
        for stat, unit in LAYER_EXTRAS.get(target.name, {}).items():
            units[f"{target.name}.{stat}"] = unit
    units["bench.harness.self_pct"] = "%"
    units["trace.wall_s"] = "s"
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up probe, for the smoke test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------------
# environment


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded into this process."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({tok for tok in maps.split() if "openblas" in tok and ".so" in tok})
    threads = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                threads[Path(lib).name] = int(func())
                break
    return threads


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# --------------------------------------------------------------------------
# one workload


def measure_setup(workload, workdir: Path, probes: int) -> float:
    """Median over fresh interpreters of import plus the warm-up call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               *workload.warmup_argv(workdir)],
                              capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S, cwd=str(workdir))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["code"] != 0 or not probe["module"].startswith(str(SRC)):
            raise RuntimeError(f"set-up probe bad result: {probe}")
        times.append(probe["setup_s"])
    return statistics.median(times)


def run_op(op, outdir: Path, tracer):
    """Run one operation; returns (latency_s, outcome or None, error text or None)."""
    outdir.mkdir(parents=True, exist_ok=True)
    span = tracer.span_context(op.span) if tracer and op.span else nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            outcome = op.run(outdir)
    except Exception:  # an operation's crash is counted as a failed op
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, outcome, None


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run_in(workload, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_in(workload, workdir: Path, args) -> int:
    workload.prepare(workdir)
    setup_s = measure_setup(workload, workdir, 1 if args.smoke else SETUP_PROBES)

    import krr_regimes.cli

    if not krr_regimes.cli.__file__.startswith(str(SRC)):
        raise RuntimeError(f"imported {krr_regimes.cli.__file__}, not the tree under {SRC}")
    with redirect_stdout(StringIO()):
        if krr_regimes.cli.main(workload.warmup_argv(workdir)) != 0:
            raise RuntimeError("warm-up call failed")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    pass_walls, records, checks = [], [], {}
    bytes_written = 0
    try:
        started = time.perf_counter()
        k = 0
        while True:
            # One name for every pass, so each pass writes the same bytes.
            pass_dir = workdir / "pass"
            ops = workload.pass_ops(k)
            results = []
            t0 = time.perf_counter()
            for i, op in enumerate(ops):
                results.append(run_op(op, pass_dir / (op.subdir or f"op{i:03d}"), tracer))
            pass_walls.append(time.perf_counter() - t0)
            # Output checks, outside the timing.
            for i, (op, (latency, outcome, error)) in enumerate(zip(ops, results)):
                outdir = pass_dir / (op.subdir or f"op{i:03d}")
                ok = error is None
                if ok:
                    try:
                        op_checks = op.check(outdir, outcome)
                    except Exception:  # an unreadable output fails the op
                        op_checks, error = [("outputs_readable", False)], traceback.format_exc()
                    for name, passed in op_checks:
                        ran, failed = checks.get(name, (0, 0))
                        checks[name] = (ran + 1, failed + (not passed))
                    ok = all(passed for _, passed in op_checks)
                    bytes_written += len(outcome.stdout.encode())
                if error:
                    print(f"operation {op.kind} raised:\n{error}", file=sys.stderr)
                elif not ok:
                    print(f"operation {op.kind} failed its checks: {op_checks}",
                          file=sys.stderr)
                records.append({"kind": op.kind, "variant": op.variant,
                                "latency_s": latency, "ok": ok})
            bytes_written += _dir_bytes(pass_dir)
            shutil.rmtree(pass_dir, ignore_errors=True)
            k += 1
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(pass_walls) > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    return report(args, workload, setup_s, pass_walls, records, checks,
                  bytes_written, tracer)


def _commands(records) -> dict:
    groups: dict[str, list[float]] = {}
    for rec in records:
        keys = [rec["kind"]] + ([f"{rec['kind']}-{rec['variant']}"] if rec["variant"] else [])
        for key in keys:
            groups.setdefault(key, []).append(rec["latency_s"])
    out = {}
    for key, vals in sorted(groups.items()):
        stem = key.replace("-", "_")
        out[stem + "_p50_ms"] = {"value": statistics.median(vals) * 1e3, "unit": "ms",
                                 "samples": len(vals)}
    return out


def _layers(tracer, pass_walls, bytes_written) -> dict:
    """Per-layer metrics.  Counters are per pass, so they do not depend on how
    many passes fit in --seconds; every pass of a run makes the same calls."""
    wall = sum(pass_walls)
    counters = dict(tracer.counters)
    counters["cli.main.bytes_written"] = bytes_written
    values = {}
    for name, unit in per_layer_units().items():
        if name.endswith(".self_pct"):
            fn = name[: -len(".self_pct")]
            if fn == "bench.harness":
                value = 100.0 * (wall - tracer.root_s()) / wall
            else:
                value = 100.0 * tracer.self_s.get(fn, 0.0) / wall
        elif name == "trace.wall_s":
            value = statistics.median(pass_walls)
        elif name in MAX_COUNTERS:
            value = counters.get(name, 0.0)
        else:
            value = counters.get(name, 0.0) / len(pass_walls)
        values[name] = {"value": value, "unit": unit}
    return values


def _per_size(tracer) -> dict:
    groups: dict[str, list[float]] = {}
    for span in tracer.spans:
        if span.size is not None:
            groups.setdefault(f"{span.name}@{span.size}", []).append(span.end - span.start)
    return {key: {"p50_ms": statistics.median(v) * 1e3, "calls": len(v)}
            for key, v in sorted(groups.items())}


def report(args, workload, setup_s, pass_walls, records, checks, bytes_written,
           tracer) -> int:
    failed = sum(not rec["ok"] for rec in records)
    lines = {
        "env": environment(args),
        "passes": len(pass_walls),
        "commands": _commands(records),
        "checks": {name: {"ran": ran, "failed": bad} for name, (ran, bad) in sorted(checks.items())},
    }
    if hasattr(workload, "check_rule"):
        lines["mc_check"] = workload.check_rule()
    if tracer:
        metrics = _layers(tracer, pass_walls, bytes_written)
        lines["per_size"] = _per_size(tracer)
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.dump(RESULTS / f"{args.workload}-seed{args.seed}.spans.json")
    else:
        headline = [rec["latency_s"] for rec in records if rec["kind"] == workload.headline]
        metrics = {
            "wall_s": statistics.median(pass_walls),
            "cmd_p50_ms": statistics.median(headline) * 1e3 if headline else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for key, value in lines.items():
        print(f"{key} {json.dumps(value)}")
    print(json.dumps({"correct": failed == 0 and bool(records), "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


# --------------------------------------------------------------------------
# all workloads


def run_all(args) -> int:
    """Each workload untraced then traced, in child processes, plus tracing overhead."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return 1
            for line in lines[:-1]:
                print(f"{name} trace={trace} {line}")
            runs[trace] = json.loads(lines[-1])
        for trace, res in runs.items():
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
        for metric, entry in runs[0]["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
        traced_wall = runs[1]["metrics"]["trace.wall_s"]["value"]
        summary["metrics"][f"{name}.trace_overhead_s"] = {
            "value": traced_wall - runs[0]["metrics"]["wall_s"]["value"], "unit": "s"}
        for metric, entry in runs[0]["metrics"].items():
            print(f"{name:13s} {metric:14s} {entry['value']:12.4f} {entry['unit']}")
        print(f"{name:13s} {'trace_overhead_s':14s} "
              f"{summary['metrics'][name + '.trace_overhead_s']['value']:12.4f} s")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "krr_regimes" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
