"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of ``krr_regimes`` from outside the
package: every module attribute (and the one class attribute) bound to a
traced function is replaced by a wrapper, so calls made through re-exports
and through other modules' imports -- ``simulator.excess_error_closed``,
the names ``cli`` imports -- are all seen.  Each wrapper records a span
(name, start, end, parent, trace id) and bumps the function's counters;
``uninstall`` puts the original bindings back.

Counters labelled ``*_computed`` are derived from argument and result
shapes with the operation counts given next to each hook, not measured by
hardware counters.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# Flop counts for a symmetric eigendecomposition with eigenvectors and for a
# Cholesky factorization of an m x m matrix (Golub & Van Loan operation
# counts for the symmetric QR algorithm and for Cholesky).
EIGH_FLOPS = 9.0
CHOLESKY_FLOPS = 1.0 / 3.0


@dataclass
class Span:
    span_id: int
    trace_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    size: int | None = None
    child_s: float = 0.0


def _mb(*arrays) -> float:
    return sum(a.nbytes for a in arrays) / 1e6


def _ridge_fit_flops(args, result) -> float:
    n, p = args["features"].shape
    m = min(n, p)
    # Gram or normal matrix, Cholesky, two triangular solves, and the
    # back-projection (dual form) or right-hand side (primal form).
    return 2.0 * n * p * m + CHOLESKY_FLOPS * m ** 3 + 2.0 * m * m + 2.0 * n * p


def _grid_search_flops(args, result) -> float:
    features = args["features"]
    n, p = features.shape
    k_folds = args.get("k_folds", 5)
    grid = args.get("lam_grid")
    g = _default_cv_grid_size() if grid is None else len(grid)
    flops = 2.0 * n * n * p
    for v in _fold_sizes(n, k_folds):
        m = n - v
        # eigh of the training block, its projections, then per grid point
        # one (v x m) matrix-vector product plus the elementwise filter.
        flops += EIGH_FLOPS * m ** 3 + 2.0 * v * m * m + 2.0 * m * m
        flops += g * (2.0 * v * m + 4.0 * m + 3.0 * v)
    return flops


def _fold_sizes(n: int, k_folds: int) -> list[int]:
    return [n // k_folds + (1 if i < n % k_folds else 0) for i in range(k_folds)]


@functools.cache
def _default_cv_grid_size() -> int:
    from krr_regimes.simulator import default_cv_grid
    return int(default_cv_grid().size)


def _hook_spectrum(c, args, result):
    c["spectrum.power_law_spectrum.mb_computed"] += _mb(result.eigenvalues, result.teacher_sq)


def _hook_solve_z(c, args, result):
    c[f"theory.solve_z.branch_{result.branch}"] += 1
    key = "theory.solve_z.residual_max"
    c[key] = max(c[key], result.residual)


def _hook_optimal_lambda(c, args, result):
    c["theory.optimal_lambda.grid_points"] += len(args["lam_grid"])


def _hook_fixed_point(c, args, result):
    c["theory.solve_fixed_point.iterations"] += result.iterations
    c["theory.solve_fixed_point.unconverged"] += 0 if result.converged else 1


def _hook_sample_dataset(c, args, result):
    c["simulator.sample_dataset.mb_computed"] += _mb(*result)


def _hook_ridge_fit(c, args, result):
    c["simulator.ridge_fit.gflop_computed"] += _ridge_fit_flops(args, result) / 1e9


def _hook_grid_search(c, args, result):
    c["simulator.grid_search_lambda.gflop_computed"] += _grid_search_flops(args, result) / 1e9


def _hook_learning_curve(c, args, result):
    config = args["config"]
    requested = config.trials * len(config.n_values)
    c["simulator.learning_curve.trials_failed"] += requested - sum(r.trials for r in result.rows)


def _hook_load_csv(c, args, result):
    c["dataspec.load_dataset_csv.mb_read"] += os.path.getsize(args["path"]) / 1e6


def _hook_gram(c, args, result):
    n, d = args["data"].shape
    c["dataspec.gram_matrix.gflop_computed"] += 2.0 * n * n * d / 1e9


def _hook_decomposition(c, args, result):
    n = result.n_tot
    active = n - result.n_floored
    # eigh of the n x n Gram matrix plus the teacher projection on the
    # active modes.
    c["dataspec.feature_decomposition.gflop_computed"] += (
        EIGH_FLOPS * n ** 3 + 2.0 * n * active) / 1e9
    c["dataspec.feature_decomposition.n_floored"] += result.n_floored


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    hook: Callable | None = None
    needs_args: bool = False
    # Argument whose leading dimension is recorded on the span (for
    # per-size timings), or None.
    size_arg: str | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("spectrum", "power_law_spectrum", _hook_spectrum),
    Target("theory", "solve_z", _hook_solve_z),
    Target("theory", "excess_error_closed"),
    Target("theory", "optimal_lambda", _hook_optimal_lambda, True, "n"),
    Target("theory", "solve_fixed_point", _hook_fixed_point),
    Target("regimes", "classify"),
    Target("regimes", "phase_diagram"),
    Target("regimes", "write_phase_diagram_csv"),
    Target("simulator", "sample_dataset", _hook_sample_dataset, True, "n"),
    Target("simulator", "ridge_fit", _hook_ridge_fit, True, "features"),
    Target("simulator", "excess_error_empirical"),
    Target("simulator", "grid_search_lambda", _hook_grid_search, True, "features"),
    Target("simulator", "learning_curve", _hook_learning_curve, True),
    Target("simulator", "LearningCurve.to_csv"),
    Target("dataspec", "load_dataset_csv", _hook_load_csv, True),
    Target("dataspec", "gram_matrix", _hook_gram, True, "data"),
    Target("dataspec", "feature_decomposition", _hook_decomposition, True, "gram"),
    Target("dataspec", "cumulative_tails"),
    Target("dataspec", "estimate_alpha_r"),
    Target("dataspec", "tails_to_csv"),
    Target("cli", "main"),
)


def _size_of(value) -> int:
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape is not None else int(value)


class Tracer:
    """Records spans and counters for the wrapped functions of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []
        self._traces = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, size: int | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._traces += 1
        span = Span(len(self.spans), self._traces,
                    parent.span_id if parent else None, name, 0.0, size=size)
        self.spans.append(span)
        self._stack.append(span)
        self.counters[name + ".calls"] += 1
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        duration = span.end - span.start
        self.self_s[span.name] += duration - span.child_s
        if self._stack:
            self._stack[-1].child_s += duration

    @contextmanager
    def span_context(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def root_s(self) -> float:
        """Summed duration of the top-level spans."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, target: Target, func):
        name, hook, size_arg = target.name, target.hook, target.size_arg
        sig = inspect.signature(func) if target.needs_args else None
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            size = _size_of(bound[size_arg]) if size_arg else None
            span = self.open(name, size)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                counters[name + ".errors"] += 1
                raise
            finally:
                self.close(span)
            if hook is not None:
                hook(counters, bound, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target inside the loaded package."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "krr_regimes" or key.startswith("krr_regimes.")]
        for target in TARGETS:
            owner = sys.modules["krr_regimes." + target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(target, original))
                self._patched.append((cls, meth, original))
                continue
            original = getattr(owner, target.attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans and counters as JSON (span fields as listed in 'fields')."""
        with open(path, "w") as f:
            json.dump({
                "fields": ["span_id", "trace_id", "parent", "name", "start", "end", "size"],
                "spans": [[s.span_id, s.trace_id, s.parent, s.name, s.start, s.end, s.size]
                          for s in self.spans],
                "counters": dict(self.counters),
                "self_s": dict(self.self_s),
            }, f)
            f.write("\n")
