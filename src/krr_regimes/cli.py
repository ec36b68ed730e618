"""Command-line front end emitting CSV/JSON artifacts.

Subcommands: theory, simulate, phase-diagram, estimate, fit-slope,
optimal-lambda.  A JSON config file may supply any flag (flags given on the
command line win, and a schedule flag given there drops the file's other
schedule flags; a file that sets two of them, with none given there, exits 2);
each value goes through the parser of its flag's text.
Every command but fit-slope writes a run manifest next to its outputs;
identical manifests reproduce the outputs byte-for-byte on the same numpy
build, with the OpenBLAS it bundles, and CPU.  simulate's outputs do not
depend on the BLAS thread count (its solves run OpenBLAS on one thread);
estimate's do, because its eigendecomposition rounds differently at
different thread counts.

main builds the parser tree once per process and reuses it for every call
without config values, so repeated in-process calls do not pay for it
again; a call whose --config file holds values gets a tree of its own,
because those values become that tree's defaults.  Parsed grids are
read-only arrays, so no call can change a default grid that the next one
parses.

Exit codes: 0 success, 2 usage, 3 numerical failure, 4 data/schema problem.
A library warning is printed to stderr as one "warning: <text>" line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .dataspec import (
    LABEL_COLUMN,
    KernelSpec,
    _check_eigen_floor,
    _decompose,
    cumulative_tails,
    estimate_alpha_r,
    gram_matrix,
    load_dataset_csv,
    tails_to_csv,
)
from .errors import (
    InvalidParameterError,
    SchemaError,
    SolverError,
)
from .regimes import Region, noisy_optimum, optimal_decay, phase_diagram, region_exponent, \
    write_crossover_lines_csv, write_phase_diagram_csv
from .simulator import LamSchedule, LearningCurve, SimConfig, fit_decay_exponent, \
    learning_curve
from .spectrum import DEFAULT_P_SIMULATION, DEFAULT_P_THEORY, PowerLawParams, \
    power_law_spectrum
from .table import write_table
from .theory import excess_error_closed, optimal_lambda

OUTDIR_ENV = "KRR_REGIMES_OUTDIR"

USAGE_EXIT = 2
NUMERICAL_EXIT = 3
DATA_EXIT = 4


def _write_manifest(path, args, t0: float, outputs: list[str], seed: int | None = None,
                    **results) -> None:
    """Manifest of a finished command: its params (results recorded among them),
    seed and outputs.  They reproduce the outputs byte-for-byte on the same
    numpy and BLAS build and CPU; estimate's outputs also need the same BLAS
    thread count (see the module docstring)."""
    _write_json(path, {"command": args.command, "version": __version__,
                       "params": {**_params_of(args), **results}, "master_seed": seed,
                       "outputs": outputs, "wall_time_s": time.time() - t0})


def _write_json(path, obj) -> None:
    with open(path, "w") as f:
        f.write(_json_text(obj) + "\n")


def _json_text(obj) -> str:
    """Strict JSON: infinite floats become the strings "inf" and "-inf"; NaN is refused."""
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False)


def _plain(value):
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _outpath(path: str) -> str:
    """An output path as given, or in the output directory if it names no directory."""
    if os.path.dirname(path):
        return path
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), path)


def _int(value) -> int:
    """An integer: an int as it is, integer text exactly, or a whole number in
    float notation such as 1e6, as text or a float; bools, 1.5, inf and nan are
    refused."""
    number = value
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            return int(value)
        with contextlib.suppress(ValueError):
            number = float(value)
    if type(number) is int:
        return number
    if not (isinstance(number, float) and number.is_integer()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    return int(number)


def _seed(value) -> int:
    """A seed: an integer >= 0, as numpy's SeedSequence takes."""
    seed = _int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value!r}")
    return seed


def _items(value) -> list:
    """The comma-separated tokens of command-line text, or a JSON list as it is."""
    if isinstance(value, str):
        return value.split(",")
    if not isinstance(value, list):
        raise argparse.ArgumentTypeError(f"expected a list, got {value!r}")
    return value


def _int_list(value) -> list[int]:
    """Sample counts: at least one, each >= 1."""
    values = [_int(item) for item in _items(value) if item != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one integer, got {value!r}")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected sample counts >= 1, got {value!r}")
    return values


def _positive(value) -> float:
    """A finite number > 0."""
    number = float(value)
    if not 0 < number < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {value!r}")
    return number


def _int_pair(value, low: int) -> tuple[int, int]:
    """lo,hi with low <= lo < hi."""
    items = _items(value)
    if len(items) != 2:
        raise argparse.ArgumentTypeError("expected lo,hi")
    lo, hi = _int(items[0]), _int(items[1])
    if not low <= lo < hi:
        raise argparse.ArgumentTypeError(f"expected {low} <= lo < hi, got {value!r}")
    return lo, hi


def _fit_range(value) -> tuple[int, int]:
    """A tail-fit range of 1-based mode indices."""
    return _int_pair(value, 1)


def _window(value) -> tuple[int, int]:
    """A slope-fit window of 0-based row indices."""
    return _int_pair(value, 0)


def _grid(value, log: bool) -> np.ndarray:
    """min,max,count text spaced linearly or, on a log grid, geometrically; or the
    explicit non-empty list of finite numbers that a manifest records."""
    items, text = _items(value), isinstance(value, str)
    if text and len(items) != 3:
        raise argparse.ArgumentTypeError("expected min,max,count")
    points = [float(item) for item in items[:2]] if text else items
    # Finite before geomspace or linspace sees them, which would warn.
    if not (points and all(type(v) in (int, float) and math.isfinite(v) for v in points)):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {value!r}")
    if text:
        (lo, hi), count = points, _int(items[2])
        if lo > hi or (log and lo <= 0) or count < 1 or (lo == hi and count != 1):
            raise argparse.ArgumentTypeError(
                "grid needs min <= max, count >= 1 and, on a log grid, min > 0")
        grid = (np.geomspace if log else np.linspace)(lo, hi, count)
    else:
        grid = np.array(points, dtype=float)
    # Read-only, because a default grid is one array shared by every call
    # that parses with the same parser.
    grid.flags.writeable = False
    return grid


def _log_grid(value) -> np.ndarray:
    return _grid(value, log=True)


def _lin_grid(value) -> np.ndarray:
    return _grid(value, log=False)


def _schedule_of(args) -> LamSchedule:
    """Ridge schedule named by the --lam / --ell / --cv flags."""
    if getattr(args, "cv", False):
        return LamSchedule("cv")
    if args.ell is not None:
        return LamSchedule("power", lambda0=args.lambda0, ell=args.ell)
    return LamSchedule("fixed", lam=args.lam)


def cmd_theory(args) -> int:
    t0 = time.time()
    spectrum = power_law_spectrum(PowerLawParams(args.alpha, args.r, args.p))
    schedule = _schedule_of(args)
    rows = []
    for n in args.n:
        lam = schedule.lam_at(n)
        dec = excess_error_closed(n, lam, args.sigma, spectrum)
        label = schedule.label(args.alpha, args.r, args.sigma, n, lam)
        rows.append([n, lam, dec.sample_variance, dec.noise_variance, dec.total,
                     label.region.value, label.exponent])
    out = _outpath(args.out or "theory_curve.csv")
    write_table(out, ["n", "lambda", "sample_variance", "noise_variance",
                      "excess", "region", "exponent"], rows)
    _write_manifest(out + ".manifest.json", args, t0, [out])
    print(out)
    return 0


def cmd_simulate(args) -> int:
    t0 = time.time()
    spectrum = power_law_spectrum(PowerLawParams(args.alpha, args.r, args.p))
    theory_spectrum = None
    if args.theory_p is not None and args.theory_p != args.p:
        theory_spectrum = power_law_spectrum(PowerLawParams(args.alpha, args.r, args.theory_p))
    config = SimConfig(spectrum=spectrum, n_values=tuple(args.n), sigma=args.sigma,
                       lam_schedule=_schedule_of(args), trials=args.trials,
                       master_seed=args.seed, theory_spectrum=theory_spectrum)
    curve = learning_curve(config)
    out = _outpath(args.out or "learning_curve.csv")
    curve.to_csv(out)
    _write_manifest(out + ".manifest.json", args, t0, [out], seed=args.seed)
    print(out)
    return 0


def cmd_phase_diagram(args) -> int:
    t0 = time.time()
    diagram = phase_diagram(args.alpha, args.r, args.sigma, args.lambda0,
                            args.n_grid, args.ell_grid)
    base = _outpath(args.out or "phase_diagram")
    grid_out = base + "_grid.csv"
    lines_out = base + "_lines.csv"
    write_phase_diagram_csv(diagram, grid_out)
    write_crossover_lines_csv(diagram.lines, lines_out)
    _write_manifest(base + ".manifest.json", args, t0, [grid_out, lines_out],
                    optimal_point=list(diagram.lines.optimal_point))
    print(grid_out)
    print(lines_out)
    return 0


def cmd_estimate(args) -> int:
    t0 = time.time()
    if math.isnan(args.ell):
        # inf is legal: it encodes zero ridge.
        raise InvalidParameterError("--ell must be a number or +-inf, got nan")
    if args.cap < 1 or (args.subsample is not None and args.subsample < 1):
        raise InvalidParameterError(
            f"--cap and --subsample must be >= 1, got {args.cap} and {args.subsample}")
    kernel = KernelSpec(args.kernel, gamma=args.gamma, degree=args.degree)
    _check_eigen_floor(args.eigen_floor)
    features, labels = load_dataset_csv(args.dataset)
    if labels is None:
        raise SchemaError(f"{args.dataset}: missing required label column {LABEL_COLUMN!r}")
    n_tot = features.shape[0]
    if n_tot > args.cap and args.subsample is None:
        raise SchemaError(
            f"dataset has {n_tot} rows, above the dense-eigendecomposition cap "
            f"{args.cap}; pass --subsample to draw a random subset")
    if args.subsample is not None and args.subsample < n_tot:
        rng = np.random.default_rng(args.seed)
        keep = np.sort(rng.choice(n_tot, size=args.subsample, replace=False))
        features, labels = features[keep], labels[keep]
        n_tot = args.subsample

    gram = gram_matrix(features, kernel)
    del features
    # The only reference to the Gram matrix: it is decomposed in its own buffer.
    dec = _decompose(gram, labels, args.eigen_floor)
    del gram
    cap_tail, src_tail = cumulative_tails(dec.eigenvalues, dec.theta_star ** 2)
    est = estimate_alpha_r(cap_tail, src_tail, args.fit_range_capacity,
                           args.fit_range_source)

    a_hat, r_hat, ell = est.alpha_hat, est.r_hat, args.ell
    ell_star, noisy_rate = noisy_optimum(a_hat, r_hat)
    report = {
        "alpha_hat": a_hat,
        "r_hat": r_hat,
        "r2_capacity": est.r2_capacity,
        "r2_source": est.r2_source,
        "fit_range_capacity": list(est.fit_range_capacity),
        "fit_range_source": list(est.fit_range_source),
        "n_tot": n_tot,
        "eigenvalue_floor": dec.floor,
        "n_floored": dec.n_floored,
        "predicted_exponents": {
            "GreenNoiselessUnreg": region_exponent(Region.GREEN_NOISELESS_UNREG, a_hat, r_hat),
            "RedNoisyUnreg": region_exponent(Region.RED_NOISY_UNREG, a_hat, r_hat),
            "BlueNoiselessReg_at_ell": region_exponent(Region.BLUE_NOISELESS_REG, a_hat, r_hat, ell),
            "OrangeNoisyReg_at_ell": region_exponent(Region.ORANGE_NOISY_REG, a_hat, r_hat, ell),
            "ell_used": ell,
            "noisy_optimal": noisy_rate,
            "optimal_decay_ell": ell_star,
        },
    }
    base = _outpath(args.out or "estimate")
    json_out = base + "_estimate.json"
    tails_out = base + "_tails.csv"
    _write_json(json_out, report)
    tails_to_csv(cap_tail, src_tail, tails_out)
    outputs = [json_out, tails_out]
    if args.decomposition_out:
        outputs.append(_outpath(args.decomposition_out))
        dec.to_csv(outputs[-1])
    _write_manifest(base + ".manifest.json", args, t0, outputs, seed=args.seed)
    print(_json_text(report))
    return 0


def cmd_fit_slope(args) -> int:
    curve = LearningCurve.from_csv(args.curve)
    lo, hi = args.window if args.window else (0, len(curve.rows) - 1)
    slope, stderr = fit_decay_exponent(curve, (lo, hi))
    report = {"slope": slope, "stderr": stderr, "window": [lo, hi],
              "points": hi - lo + 1}
    if args.out:
        _write_json(_outpath(args.out), report)
    print(_json_text(report))
    return 0


def cmd_optimal_lambda(args) -> int:
    t0 = time.time()
    spectrum = power_law_spectrum(PowerLawParams(args.alpha, args.r, args.p))
    grid = np.concatenate([[0.0], args.lam_grid]) if args.include_zero else args.lam_grid
    rows = []
    for n in args.n:
        lam_star, excess_star = optimal_lambda(n, args.sigma, spectrum, grid)
        decay = optimal_decay(args.alpha, args.r, args.sigma, float(n))
        rows.append([n, lam_star, excess_star, decay.zone])
    out = _outpath(args.out or "optimal_lambda.csv")
    write_table(out, ["n", "lam_star", "excess_star", "zone"], rows)
    _write_manifest(out + ".manifest.json", args, t0, [out])
    print(out)
    return 0


def _params_of(args) -> dict:
    return {key: value for key, value in sorted(vars(args).items())
            if key not in ("func", "config")}


def build_parser(supplied=()):
    """The CLI parser and its subparsers by name.

    Flags named in supplied (the keys of a config file) are not required,
    since the file provides them.
    """

    def required(*dests) -> bool:
        return not set(dests) & set(supplied)

    parser = argparse.ArgumentParser(
        prog="krr-regimes",
        description="Learning-curve regimes for ridge regression with power-law spectra.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON file supplying flag defaults")
        p.add_argument("--out", help="output path or prefix")
        p.set_defaults(func=func)
        subparsers[name] = p
        return p

    def model(p, p_default):
        """Flags of the power-law model, its noise, truncation and sample counts."""
        p.add_argument("--alpha", type=float, required=required("alpha"))
        p.add_argument("--r", type=float, required=required("r"))
        p.add_argument("--sigma", type=float, default=0.0)
        p.add_argument("--p", type=_int, default=p_default)
        p.add_argument("--n", type=_int_list, required=required("n"),
                       help="comma-separated sample counts")

    def schedule(p, *more):
        """The ridge schedule group; more names its further members."""
        p.add_argument("--lambda0", type=_positive, default=1.0)
        group = p.add_mutually_exclusive_group(required=required("lam", "ell", *more))
        group.add_argument("--lam", type=float, help="fixed regularization")
        group.add_argument("--ell", type=float,
                           help="decay exponent of lambda0 * n^-ell ('inf' for zero)")
        return group

    p = add("theory", cmd_theory, help="closed-form learning curve")
    model(p, DEFAULT_P_THEORY)
    schedule(p)

    p = add("simulate", cmd_simulate, help="Monte-Carlo learning curve with theory column")
    model(p, DEFAULT_P_SIMULATION)
    schedule(p, "cv").add_argument("--cv", action="store_true",
                                   help="pick lambda by cross-validation")
    p.add_argument("--theory-p", type=_int, default=None,
                   help="separate truncation for the theory column")
    p.add_argument("--trials", type=_int, default=100)
    p.add_argument("--seed", type=_seed, default=0)

    p = add("phase-diagram", cmd_phase_diagram, help="regime grid plus crossover lines")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--lambda0", type=_positive, default=1.0)
    p.add_argument("--n-grid", type=_log_grid, default=_log_grid("1,1e6,25"))
    p.add_argument("--ell-grid", type=_lin_grid, default=_lin_grid("0,4,33"))
    # The manifest records the asymptotic optimum among the params; this
    # default lets those params be fed back through --config.
    p.set_defaults(optimal_point=None)

    p = add("estimate", cmd_estimate, help="capacity/source estimation from a dataset CSV")
    p.add_argument("dataset")
    p.add_argument("--kernel", choices=["rbf", "polynomial", "linear"],
                   required=required("kernel"))
    p.add_argument("--gamma", type=float, required=required("gamma"))
    p.add_argument("--degree", type=_int, default=5)
    p.add_argument("--fit-range-capacity", type=_fit_range, default=None)
    p.add_argument("--fit-range-source", type=_fit_range, default=None)
    p.add_argument("--cap", type=_int, default=8000,
                   help="refuse datasets above this size unless --subsample is given; "
                   "the decomposition needs about 24 bytes per row^2, so the default "
                   "implies about 1.5 GB of memory")
    p.add_argument("--subsample", type=_int, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--eigen-floor", type=float, default=1e-12)
    p.add_argument("--ell", type=float, default=1.0,
                   help="decay used for the regularized-regime exponent report")
    p.add_argument("--decomposition-out", default=None)

    p = add("fit-slope", cmd_fit_slope, help="log-log slope of a learning-curve CSV")
    p.add_argument("curve")
    p.add_argument("--window", type=_window, default=None,
                   help="inclusive 0-based row range lo,hi")

    p = add("optimal-lambda", cmd_optimal_lambda, help="per-n optimal regularization")
    model(p, DEFAULT_P_THEORY)
    p.add_argument("--lam-grid", type=_log_grid, default=_log_grid("1e-10,1e2,301"))
    p.add_argument("--include-zero", action=argparse.BooleanOptionalAction, default=True,
                   help="also try lam = 0")

    return parser, subparsers


@functools.cache
def _default_parser():
    """build_parser() for every call without config values, built once per process.

    Parsing leaves the tree unchanged: only a config file's defaults would
    change it, and they go into a tree of their own.
    """
    return build_parser()


def _typed_config(sub, config: dict) -> dict:
    """config with each value run through its flag's type, the parser of the
    flag's command-line text; exits 2 naming a bad key.

    A switch takes only true or false, a flag without a type only a string,
    and no other flag a bool; null leaves a flag whose default is None unset.
    """
    actions = {action.dest: action for action in sub._actions}
    typed = dict(config)
    for key, value in config.items():
        action = actions.get(key)
        if action is None or (value is None and action.default is None):
            continue
        if (value is None or isinstance(value, bool) != isinstance(action.default, bool)
                or (action.type is None and not isinstance(value, (bool, str)))
                or (action.choices is not None and value not in action.choices)):
            sub.error(f"config key {key!r}: {value!r} is not a value its flag takes")
        if action.type is not None:
            try:
                typed[key] = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError, OverflowError) as err:
                sub.error(f"config key {key!r}: {err}")
    return typed


def _unshadowed(sub, args, config: dict) -> dict:
    """config without its values for the other members of each mutually
    exclusive group, such as the ridge schedule, that the command line sets a
    member of.  args is the command line parsed without config defaults, so
    a member it holds at other than its default was given there.  Where the
    command line sets none, a config that sets more than one (a value other
    than null, or false for a switch) exits 2 naming them."""
    dropped = set()
    for group in sub._mutually_exclusive_groups:
        unset = {a.dest for a in group._group_actions if getattr(args, a.dest) == a.default}
        if len(unset) < len(group._group_actions):
            dropped |= unset
            continue
        both = [a.dest for a in group._group_actions
                if config.get(a.dest) is not None and config[a.dest] is not False]
        if len(both) > 1:
            sub.error(f"config keys {' and '.join(map(repr, both))} are mutually exclusive")
    return {key: value for key, value in config.items() if key not in dropped}


@functools.cache
def _config_parser():
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    return pre


def _read_config(argv) -> dict:
    """The JSON object named by --config PATH or --config=PATH, or {} without one."""
    path = _config_parser().parse_known_args(argv)[0].config
    if path is None:
        return {}
    with open(path) as f:
        config = json.load(f)
    if not isinstance(config, dict):
        raise ValueError("expected a JSON object")
    return config


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A library warning as one stderr line, without its source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        config = _read_config(argv)
    except (argparse.ArgumentError, OSError, ValueError) as err:
        print(f"error: cannot read config file: {err}", file=sys.stderr)
        return USAGE_EXIT
    if config:
        # null (or false for a switch) leaves a required flag to the command line.
        parser, subparsers = build_parser(
            [key for key, value in config.items() if value is not None and value is not False])
    else:
        parser, subparsers = _default_parser()
    try:
        # Two passes: the first finds the command and its options, the
        # second parses again with the config values as defaults, so flags
        # given on the command line win.
        args = parser.parse_args(argv)
        if config:
            sub = subparsers[args.command]
            # A key is known if the manifest would record it among the params.
            unknown = sorted(set(config) - set(_params_of(args)))
            if unknown:
                sub.error(f"unknown config key(s): {', '.join(unknown)}")
            if config.get("command", args.command) != args.command:
                sub.error(f"config file is for the {config['command']!r} command")
            sub.set_defaults(**_typed_config(sub, _unshadowed(sub, args, config)))
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.func(args)
    except InvalidParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except SolverError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return NUMERICAL_EXIT
    except (SchemaError, ValueError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
