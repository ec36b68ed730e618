"""The benchmark's workloads: the operations of one pass and their output checks.

A workload turns the run's seed into inputs (``prepare``), names the call
that set-up warms with (``warmup_argv``), and lists the operations of pass k
(``pass_ops``).  Every operation is either one ``krr_regimes.cli.main(argv)``
call or one library route check, and carries a check that reads what the
operation produced.  Every pass of a run makes the same calls on the same
inputs; only their order changes from pass to pass.  The seed picks the
random data, the Monte Carlo seeds, the order and the parameters of the
calls whose cost does not depend on them (the optimal-lambda noise level and
the phase-diagram point), never how many calls of each kind run, which of
them uses the large truncation, or the route checks' parameters.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REGIONS = {"GreenNoiselessUnreg", "RedNoisyUnreg", "BlueNoiselessReg", "OrangeNoisyReg"}
ZONES = {"noiseless", "noisy", "transition"}

# Acceptance tolerances the checks use (criteria 1 and 8, and criterion 2's
# relative floor).
ROUTE_REL_TOL = 1e-6
ALPHA_REL_TOL = 0.10
R_REL_TOL = 0.15
MC_REL_FLOOR = 0.10
# Family-wise false-alarm rate of the Monte Carlo checks for one pass of
# mc-curves: half for the per-row rule, split over the pass's rows, and half
# for the per-curve rule, split over its curves (Bonferroni).
MC_FALSE_ALARM_PER_PASS = 1e-3


@dataclass
class Outcome:
    """What an operation produced: the CLI exit code and its stdout, or a value."""

    code: int | None = None
    stdout: str = ""
    value: object = None


@dataclass
class Op:
    """One timed operation and the check of its outputs.

    ``run(outdir)`` performs the operation (outputs go under outdir) and
    returns an Outcome; ``check(outdir, outcome)`` returns (check name, ok)
    pairs.  Operations with the same ``subdir`` in one pass share their
    output directory.  ``span`` names the top-level trace span of a library
    operation; CLI operations are spanned by the traced ``cli.main`` itself.
    ``variant`` splits a command's latencies into a second group.
    """

    kind: str
    run: Callable[[Path], Outcome]
    check: Callable[[Path, Outcome], list[tuple[str, bool]]]
    subdir: str | None = None
    span: str | None = None
    variant: str | None = None


def cli_op(kind: str, argv: list[str], check, out_name: str | None = None,
           subdir: str | None = None, variant: str | None = None) -> Op:
    """Operation calling ``krr_regimes.cli.main``.

    '{outdir}' in an argument is replaced by the output directory, and
    '--out outdir/out_name' is appended when out_name is set.
    """

    def run(outdir: Path) -> Outcome:
        # Imported at call time: run.py puts the package on sys.path after
        # this module loads, and the tracer rebinds cli.main.
        from krr_regimes import cli

        full = [a.replace("{outdir}", str(outdir)) for a in argv]
        if out_name:
            full += ["--out", str(outdir / out_name)]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(full)
        return Outcome(code=code, stdout=buf.getvalue())

    return Op(kind, run, check, subdir, variant=variant)


def _finite_nonneg(x: float) -> bool:
    return math.isfinite(x) and x >= 0.0


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _exit_ok(outcome: Outcome) -> list[tuple[str, bool]]:
    return [("exit_zero", outcome.code == 0)]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# --------------------------------------------------------------------------
# theory-sweep


class TheorySweep:
    """Closed-form curves, optimal ridge, phase diagrams and route checks.

    Runs only the spectrum, theory, regimes and cli layers.
    """

    name = "theory-sweep"
    headline = "theory"

    ALPHAS = (1.5, 2.0, 3.0)
    RS = (0.25, 0.5, 1.5)
    SIGMAS = (0.0, 0.5)
    SCHEDULES = (("--lam", "0"), ("--ell", "1", "--lambda0", "1e-2"))
    NS = (100, 300, 1000, 3000, 10000)
    # The fixed share at the acceptance truncation: this (alpha, r, sigma)
    # under both schedules.
    LARGE_P_POINT = (2.0, 0.5, 0.5)
    LARGE_P = 1_000_000
    OPTIMAL_LAMBDA_POINTS = ((2.0, 0.5, 1000), (1.5, 0.25, 300))
    PHASE_DIAGRAMS_PER_PASS = 2
    # (alpha, r, n, lam, sigma) of the route checks.  The fixed-point
    # iteration count, and so the cost, depends on these, so they are fixed
    # rather than drawn from the seed.  They run from the slowest corner of
    # the grid (alpha 1.5, small n and lam, 61 iterations) to the fastest.
    ROUTE_CHECKS = ((1.5, 0.25, 100, 1e-4, 0.0), (2.0, 0.5, 300, 1e-3, 0.1),
                    (3.0, 1.5, 1000, 1e-2, 0.5), (2.0, 0.25, 1000, 1e-4, 0.5))

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        # Smoke mode shrinks every truncation and grid.
        self.p = 20_000 if smoke else None
        self.large_p = 50_000 if smoke else self.LARGE_P
        self.route_p = 20_000 if smoke else 100_000
        rng = _rng(seed, 0)
        self.optimal_lambda_sigmas = [float(rng.choice([0.1, 0.25, 0.5]))
                                      for _ in self.OPTIMAL_LAMBDA_POINTS]
        self.phase_points = [(float(rng.choice(self.ALPHAS)), float(rng.choice(self.RS)),
                              float(rng.choice([0.05, 0.1, 0.5])),
                              float(rng.choice([1e-2, 1.0])))
                             for _ in range(self.PHASE_DIAGRAMS_PER_PASS)]

    def prepare(self, workdir: Path) -> None:
        pass

    def warmup_argv(self, workdir: Path) -> list[str]:
        return ["theory", "--alpha", "2", "--r", "0.5", "--lam", "1e-3", "--n", "100",
                "--out", str(workdir / "warmup.csv")]

    def _p_flags(self, large: bool) -> list[str]:
        if large:
            return ["--p", str(self.large_p)]
        return ["--p", str(self.p)] if self.p else []

    def pass_ops(self, k: int) -> list[Op]:
        ops = []
        for alpha in self.ALPHAS:
            for r in self.RS:
                for sigma in self.SIGMAS:
                    for sched in self.SCHEDULES:
                        large = (alpha, r, sigma) == self.LARGE_P_POINT
                        argv = ["theory", "--alpha", repr(alpha), "--r", repr(r),
                                "--sigma", repr(sigma), *sched,
                                "--n", ",".join(map(str, self.NS)), *self._p_flags(large)]
                        ops.append(cli_op("theory", argv, self._theory_check(sched),
                                          "curve.csv", variant="large-p" if large else None))
        for (alpha, r, n), sigma in zip(self.OPTIMAL_LAMBDA_POINTS,
                                        self.optimal_lambda_sigmas):
            argv = ["optimal-lambda", "--alpha", repr(alpha), "--r", repr(r),
                    "--sigma", repr(sigma), "--n", str(n), *self._p_flags(False)]
            grid = None
            if self.smoke:
                argv += ["--lam-grid", "1e-8,1,9"]
                grid = np.geomspace(1e-8, 1, 9)
            ops.append(cli_op("optimal-lambda", argv, self._optimal_lambda_check(grid),
                              "optimal.csv"))
        for alpha, r, sigma, lambda0 in self.phase_points:
            argv = ["phase-diagram", "--alpha", repr(alpha), "--r", repr(r),
                    "--sigma", repr(sigma), "--lambda0", repr(lambda0)]
            shape = (25, 33)
            if self.smoke:
                argv += ["--n-grid", "1,1e4,5", "--ell-grid", "0,4,5"]
                shape = (5, 5)
            ops.append(cli_op("phase-diagram", argv, self._phase_check(shape), "pd"))
        for params in self.ROUTE_CHECKS:
            ops.append(self._route_op(*params))
        order = _rng(self.seed, 0, k).permutation(len(ops))
        return [ops[i] for i in order]

    @staticmethod
    def _theory_check(sched):
        def check(outdir: Path, outcome: Outcome):
            if outcome.code != 0:
                return _exit_ok(outcome)
            rows = _read_rows(outdir / "curve.csv")
            ns = [int(row["n"]) for row in rows]
            finite = all(_finite_nonneg(float(row[key])) for row in rows
                         for key in ("sample_variance", "noise_variance", "excess"))
            additive = finite and all(
                abs(float(row["sample_variance"]) + float(row["noise_variance"])
                    - float(row["excess"])) <= 1e-12 * float(row["excess"])
                for row in rows)
            if sched[0] == "--lam":
                lam_ok = all(float(row["lambda"]) == float(sched[1]) for row in rows)
            else:
                ell, lam0 = float(sched[1]), float(sched[3])
                lam_ok = all(math.isclose(float(row["lambda"]), lam0 * int(row["n"]) ** -ell,
                                          rel_tol=1e-12) for row in rows)
            return [("exit_zero", True),
                    ("rows_match_n", ns == list(TheorySweep.NS)),
                    ("excess_finite_nonnegative", finite),
                    ("excess_is_sum_of_parts", additive),
                    ("lambda_matches_schedule", lam_ok),
                    ("region_known", all(row["region"] in REGIONS for row in rows))]
        return check

    @staticmethod
    def _optimal_lambda_check(grid):
        def check(outdir: Path, outcome: Outcome):
            if outcome.code != 0:
                return _exit_ok(outcome)
            full = np.geomspace(1e-10, 1e2, 301) if grid is None else grid
            candidates = np.concatenate([[0.0], full])
            rows = _read_rows(outdir / "optimal.csv")
            on_grid = all(np.isclose(float(row["lam_star"]), candidates,
                                     rtol=1e-12, atol=0.0).any() for row in rows)
            excess_ok = all(_finite_nonneg(float(row["excess_star"]))
                            and float(row["excess_star"]) > 0 for row in rows)
            return [("exit_zero", True), ("one_row", len(rows) == 1),
                    ("lam_star_on_grid", on_grid), ("excess_star_positive", excess_ok),
                    ("zone_known", all(row["zone"] in ZONES for row in rows))]
        return check

    @staticmethod
    def _phase_check(shape):
        def check(outdir: Path, outcome: Outcome):
            if outcome.code != 0:
                return _exit_ok(outcome)
            rows = _read_rows(outdir / "pd_grid.csv")
            with open(outdir / "pd_lines.csv") as f:
                header = f.readline().strip()
            return [("exit_zero", True),
                    ("grid_complete", len(rows) == shape[0] * shape[1]),
                    ("region_known", all(row["region"] in REGIONS for row in rows)),
                    ("lines_header", header == "line_id,n,ell")]
        return check

    def _route_op(self, alpha, r, n, lam, sigma) -> Op:
        """README quickstart: both theory routes on one spectrum must agree."""

        def run(outdir: Path) -> Outcome:
            from krr_regimes import spectrum, theory

            sp = spectrum.power_law_spectrum(spectrum.PowerLawParams(alpha, r, self.route_p))
            closed = theory.excess_error_closed(n, lam, sigma, sp)
            state = theory.solve_fixed_point(n, lam, sigma, sp)
            return Outcome(code=0, value=(closed.total, state.excess, state.converged))

        def check(outdir: Path, outcome: Outcome):
            closed, fixed, converged = outcome.value
            ok = _finite_nonneg(closed) and closed > 0
            rel = abs(closed - fixed) / closed if ok else math.inf
            return [("excess_finite_positive", ok), ("fixed_point_converged", converged),
                    ("routes_agree", rel <= ROUTE_REL_TOL)]

        return Op("route-check", run, check, span="bench.route_check")


# --------------------------------------------------------------------------
# mc-curves


class McCurves:
    """Criterion 2's four Monte Carlo curve specs plus one CV curve, each fitted.

    Runs the simulator layer (and the theory column at the simulation
    truncation); no dataspec code runs.
    """

    name = "mc-curves"
    headline = "simulate"

    SPECS = (("0", ("--lam", "0")), ("0", ("--ell", "1")),
             ("0.5", ("--lam", "0")), ("0.5", ("--ell", "1")), ("0.5", ("--cv",)))

    def __init__(self, seed: int, smoke: bool):
        from scipy import stats

        self.seed = seed
        self.smoke = smoke
        self.p = 400 if smoke else 4000
        self.ns = (16, 32, 64) if smoke else (32, 64, 128, 256, 512, 1024)
        self.trials = 4 if smoke else 6
        self.sim_seeds = [int(x) for x in _rng(seed, 1).integers(0, 2 ** 31, len(self.SPECS))]
        half = MC_FALSE_ALARM_PER_PASS / 2.0
        # Row statistic t = (mean - theory) / (std / sqrt(trials)), modelled
        # as Student t with trials - 1 degrees of freedom.
        self.t_threshold = float(stats.t.isf(half / (len(self.SPECS) * len(self.ns)) / 2.0,
                                             self.trials - 1))
        # Curve statistic: the sum over rows of z^2, where z is the normal
        # quantile with the same two-sided tail probability as the row's t.
        # Under the model it is chi-square with one degree of freedom a row.
        self.chi2_threshold = float(stats.chi2.isf(half / len(self.SPECS), len(self.ns)))
        self.seen = {"worst_abs_t": 0.0, "worst_rel_dev": 0.0, "worst_curve_stat": 0.0,
                     "row_tol_share_max": 0.0}

    def check_rule(self) -> dict:
        """The Monte Carlo checks' thresholds and the largest values seen so far.

        row_tol_share_max is the widest per-row tolerance as a share of theory.
        """
        return {"t_threshold": self.t_threshold, "rel_floor": MC_REL_FLOOR,
                "chi2_threshold": self.chi2_threshold,
                "false_alarm_per_pass": MC_FALSE_ALARM_PER_PASS, **self.seen}

    def prepare(self, workdir: Path) -> None:
        pass

    def warmup_argv(self, workdir: Path) -> list[str]:
        return ["simulate", "--alpha", "2", "--r", "0.5", "--lam", "0", "--p", str(self.p),
                "--n", str(self.ns[0]), "--trials", "2",
                "--out", str(workdir / "warmup.csv")]

    def pass_ops(self, k: int) -> list[Op]:
        ops = []
        for i in _rng(self.seed, 1, k).permutation(len(self.SPECS)):
            sigma, sched = self.SPECS[i]
            argv = ["simulate", "--alpha", "2", "--r", "0.5", "--sigma", sigma, *sched,
                    "--p", str(self.p), "--n", ",".join(map(str, self.ns)),
                    "--trials", str(self.trials), "--seed", str(self.sim_seeds[i])]
            ops.append(cli_op("simulate", argv, self._simulate_check, "curve.csv",
                              f"spec{i}"))
            ops.append(cli_op("fit-slope", ["fit-slope", "{outdir}/curve.csv"],
                              self._fit_slope_check, subdir=f"spec{i}"))
        return ops

    def _simulate_check(self, outdir: Path, outcome: Outcome):
        if outcome.code != 0:
            return _exit_ok(outcome)
        rows = _read_rows(outdir / "curve.csv")
        full = all(int(row["trials"]) == self.trials for row in rows)
        finite = all(_finite_nonneg(float(row[key])) for row in rows
                     for key in ("mean_excess", "std_excess", "theory_excess"))
        rows_agree, curve_agrees = (self._mc_agreement(rows) if finite and full
                                    else (False, False))
        return [("exit_zero", True),
                ("rows_match_n", [int(row["n"]) for row in rows] == list(self.ns)),
                ("full_trial_count", full),
                ("excess_finite_nonnegative", finite),
                ("mc_rows_match_theory", rows_agree),
                ("mc_curve_matches_theory", curve_agrees)]

    def _mc_agreement(self, rows) -> tuple[bool, bool]:
        """Monte Carlo against theory: (every row agrees, the curve as a whole agrees).

        A row fails when |mean - theory| > max(t_threshold * se, 0.10 * theory),
        which catches one grossly wrong row.  The curve fails when its summed
        z^2 exceeds chi2_threshold, which catches a bias shared by its rows
        that is too small for any one row to show.
        """
        from scipy import stats

        mean, theory = (np.array([float(row[key]) for row in rows])
                        for key in ("mean_excess", "theory_excess"))
        se = np.array([float(row["std_excess"]) for row in rows]) / math.sqrt(self.trials)
        dev = np.abs(mean - theory)
        tol = np.maximum(self.t_threshold * se, MC_REL_FLOOR * theory)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(dev > 0, dev / se, 0.0)
            rel_dev, tol_share = dev / theory, tol / theory
        z = stats.norm.isf(stats.t.sf(t, self.trials - 1))
        curve_stat = float(np.sum(z ** 2))
        seen = self.seen
        seen["worst_abs_t"] = max(seen["worst_abs_t"], float(t.max()))
        seen["worst_rel_dev"] = max(seen["worst_rel_dev"], float(rel_dev.max()))
        seen["worst_curve_stat"] = max(seen["worst_curve_stat"], curve_stat)
        seen["row_tol_share_max"] = max(seen["row_tol_share_max"], float(tol_share.max()))
        return bool(np.all(dev <= tol)), curve_stat <= self.chi2_threshold

    def _fit_slope_check(self, outdir: Path, outcome: Outcome):
        if outcome.code != 0:
            return _exit_ok(outcome)
        report = json.loads(outcome.stdout)
        return [("exit_zero", True),
                ("slope_finite", math.isfinite(report["slope"])
                 and math.isfinite(report["stderr"])),
                ("all_points_fitted", report["points"] == len(self.ns))]


# --------------------------------------------------------------------------
# estimate-csv


class EstimateCsv:
    """``estimate`` with three kernels on one planted-exponent dataset CSV.

    Runs only CSV parsing and the dataspec layer.
    """

    name = "estimate-csv"
    headline = "estimate"

    KERNELS = ("linear", "rbf", "polynomial")
    ALPHA, R = 2.0, 0.5

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.rows, self.cols = (400, 200) if smoke else (2000, 784)

    def _write_csv(self, path: Path, rows: int, rng: np.random.Generator) -> None:
        """Planted data: feature k has variance k^-alpha, the label is noiseless
        with teacher_sq_k * k^-alpha = k^-(1 + 2 r alpha)."""
        k = np.arange(1, self.cols + 1, dtype=float)
        features = rng.standard_normal((rows, self.cols)) * k ** (-self.ALPHA / 2)
        theta = k ** ((self.ALPHA - 1.0 - 2.0 * self.R * self.ALPHA) / 2)
        data = np.column_stack([features, features @ theta])
        header = ",".join([f"x{j}" for j in range(1, self.cols + 1)] + ["y"])
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")

    def prepare(self, workdir: Path) -> None:
        rng = _rng(self.seed, 2)
        self.data = workdir / "data.csv"
        self._write_csv(self.data, self.rows, rng)
        self.warmup_data = workdir / "warmup.csv"
        self._write_csv(self.warmup_data, 100, rng)

    def warmup_argv(self, workdir: Path) -> list[str]:
        return ["estimate", str(self.warmup_data), "--kernel", "linear", "--gamma", "1",
                "--out", str(workdir / "warmup")]

    def pass_ops(self, k: int) -> list[Op]:
        rng = _rng(self.seed, 3, k)
        return [cli_op("estimate", ["estimate", str(self.data), "--kernel", self.KERNELS[i],
                                    "--gamma", "1"], self._check(self.KERNELS[i]), "est")
                for i in rng.permutation(len(self.KERNELS))]

    def _check(self, kernel: str):
        def check(outdir: Path, outcome: Outcome):
            if outcome.code != 0:
                return _exit_ok(outcome)
            report = json.loads((outdir / "est_estimate.json").read_text())
            tails = _read_rows(outdir / "est_tails.csv")
            a_hat, r_hat = report["alpha_hat"], report["r_hat"]
            checks = [("exit_zero", True),
                      ("report_matches_stdout", json.loads(outcome.stdout) == report),
                      ("estimates_finite", math.isfinite(a_hat) and math.isfinite(r_hat)),
                      ("all_rows_used", report["n_tot"] == self.rows),
                      ("tails_complete", len(tails) == self.rows)]
            if kernel == "linear":
                checks += [("alpha_recovered", abs(a_hat - self.ALPHA) <= ALPHA_REL_TOL * self.ALPHA),
                           ("r_recovered", abs(r_hat - self.R) <= R_REL_TOL * self.R)]
            return checks
        return check


WORKLOADS = {w.name: w for w in (TheorySweep, McCurves, EstimateCsv)}
