import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from krr_regimes import cli, simulator
from krr_regimes.cli import build_parser, main
from krr_regimes.simulator import LearningCurve
from krr_regimes.spectrum import PowerLawParams, power_law_spectrum
from krr_regimes.simulator import sample_dataset


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_theory_command(tmp_path):
    out = tmp_path / "theory.csv"
    code = main(["theory", "--alpha", "2", "--r", "0.5", "--sigma", "0",
                 "--lam", "0", "--p", "100000", "--n", "100,1000",
                 "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["n", "lambda", "sample_variance", "noise_variance",
                       "excess", "region", "exponent"]
    assert len(rows) == 3
    e100, e1000 = float(rows[1][4]), float(rows[2][4])
    slope = np.log(e1000 / e100) / np.log(10.0)
    assert slope == pytest.approx(-2.0, abs=0.05)
    assert (tmp_path / "theory.csv.manifest.json").exists()


def test_theory_noise_column_zero_without_noise(tmp_path):
    out = tmp_path / "t.csv"
    main(["theory", "--alpha", "2", "--r", "0.5", "--lam", "1e-3", "--p", "1000",
          "--n", "50,100,200", "--out", str(out)])
    rows = _read_csv(out)
    assert all(float(r[3]) == 0.0 for r in rows[1:])


def test_theory_ell_matches_fixed_lambda_equivalent(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["theory", "--alpha", "2", "--r", "0.5", "--sigma", "0.1",
          "--ell", "2", "--lambda0", "0.5", "--p", "2000", "--n", "100",
          "--out", str(a)])
    lam = 0.5 * 100.0 ** -2.0
    main(["theory", "--alpha", "2", "--r", "0.5", "--sigma", "0.1",
          "--lam", f"{lam:.17g}", "--p", "2000", "--n", "100", "--out", str(b)])
    ra, rb = _read_csv(a)[1], _read_csv(b)[1]
    assert ra[1:5] == rb[1:5]  # lambda and error columns identical


def test_theory_usage_error_on_conflicting_flags(tmp_path):
    code = main(["theory", "--alpha", "2", "--r", "0.5", "--lam", "0",
                 "--ell", "1", "--n", "100"])
    assert code == 2
    code = main(["theory", "--alpha", "2", "--r", "0.5", "--n", "100"])
    assert code == 2


def test_theory_invalid_alpha_is_usage_error(tmp_path):
    code = main(["theory", "--alpha", "0.9", "--r", "0.5", "--lam", "0",
                 "--n", "100", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    # a non-finite ridge or noise level is a usage error, not a solver failure
    for flag, value in (("--lam", "nan"), ("--lam", "inf"), ("--sigma", "nan"),
                        ("--sigma", "inf")):
        args = {"--lam": "1e-3", "--sigma": "0.1", flag: value}
        code = main(["theory", "--alpha", "2", "--r", "0.5", "--p", "1000", "--n", "100",
                     *(tok for item in args.items() for tok in item),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2, (flag, value)
    # a non-finite sample count is rejected where it enters
    for value in ("inf", "1e400", "nan", "100,inf"):
        code = main(["theory", "--alpha", "2", "--r", "0.5", "--lam", "0", "--n", value,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2, value


def test_non_integral_sample_count_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for value in ("1.5", "100,100.5", "1e-1"):
        code = main(["theory", "--alpha", "2", "--r", "0.5", "--lam", "0", "--p", "1000",
                     "--n", value, "--out", str(out)])
        assert code == 2, value
        bad = value.split(",")[-1]
        assert repr(bad) in capsys.readouterr().err, value
        assert not out.exists()
    # an integral value in float notation is still a sample count
    assert main(["theory", "--alpha", "2", "--r", "0.5", "--lam", "0", "--p", "1000",
                 "--n", "1e2,200.0", "--out", str(out)]) == 0
    assert [r[0] for r in _read_csv(out)[1:]] == ["100", "200"]
    # the same holds for a config file, as a string or as a list
    cfg = tmp_path / "cfg.json"
    for n in ("1.5", [1.5], [100, 2.5]):
        cfg.write_text(json.dumps({"alpha": 2.0, "r": 0.5, "lam": 0.0, "p": 1000, "n": n}))
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2, n
        assert "'n'" in capsys.readouterr().err, n


@pytest.mark.parametrize("command, flags, empty", [
    ("theory", ["--ell", "1"], ","),
    ("optimal-lambda", ["--lam-grid", "1e-6,1,5"], ","),
    ("simulate", ["--lam", "0", "--trials", "2"], ""),
])
def test_empty_sample_count_list_is_usage_error(tmp_path, capsys, command, flags, empty):
    args = [command, "--alpha", "2", "--r", "0.5", "--p", "1000", *flags,
            "--out", str(tmp_path / "x.csv")]
    assert main([*args, "--n", empty]) == 2
    assert "--n: expected at least one integer" in capsys.readouterr().err
    # and so is an empty list from a config file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": []}))
    assert main([*args, "--config", str(cfg)]) == 2
    assert "config key 'n'" in capsys.readouterr().err
    # and so is a count below 1 (at n = 0, lambda0 * n^-ell divided by zero)
    for n, listed in (("0", [0]), ("100,-5", [100, -5])):
        assert main([*args, "--n", n]) == 2
        assert "--n: expected sample counts >= 1" in capsys.readouterr().err
        cfg.write_text(json.dumps({"n": listed}))
        assert main([*args, "--config", str(cfg)]) == 2
        assert "config key 'n'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


_TRUNCATION_ARGS = {
    "theory": ["--alpha", "2", "--r", "0.5", "--lam", "0", "--n", "100"],
    "optimal-lambda": ["--alpha", "2", "--r", "0.5", "--sigma", "0.5", "--n", "100",
                       "--lam-grid", "1e-6,1,5"],
    "simulate": ["--alpha", "2", "--r", "0.5", "--lam", "0", "--n", "16", "--trials", "2"],
}


@pytest.mark.parametrize("command", sorted(_TRUNCATION_ARGS))
def test_truncation_flags_take_integers_in_float_notation(tmp_path, capsys, command):
    flags = ["--p"] if command != "simulate" else ["--p", "--theory-p"]
    args = [command, *_TRUNCATION_ARGS[command]]
    out = tmp_path / "x.csv"
    for flag in flags:
        good = "1e6" if command != "simulate" else "1e2"
        assert main([*args, flag, good, "--out", str(out)]) == 0, flag
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        value = manifest["params"][flag[2:].replace("-", "_")]
        assert value == int(float(good)) and isinstance(value, int), flag
        # the manifest replays through --config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(manifest["params"]))
        replay = tmp_path / "replay.csv"
        assert main([command, "--config", str(cfg), "--out", str(replay)]) == 0, flag
        assert replay.read_bytes() == out.read_bytes(), flag
        out.unlink()
        for bad in ("1.5", "0"):
            assert main([*args, flag, bad, "--out", str(out)]) == 2, (flag, bad)
            err = capsys.readouterr().err
            assert ("'1.5'" if bad == "1.5" else ">= 1, got 0") in err, (flag, bad)
            assert not out.exists(), (flag, bad)


_SIMULATE_ARGS = ["simulate", "--alpha", "2", "--r", "0.5", "--sigma", "0.1",
                  "--lam", "0", "--p", "400", "--n", "32,64", "--trials", "4",
                  "--seed", "11"]


def test_simulate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(_SIMULATE_ARGS + ["--out", str(a)]) == 0
    assert main(_SIMULATE_ARGS + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    curve = LearningCurve.from_csv(a)
    assert [r.n for r in curve.rows] == [32, 64]
    assert all(r.regime for r in curve.rows)


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--lam", "inf"]),
    ("simulate", ["--ell", "1", "--lambda0", "inf"]),
    ("simulate", ["--ell=-inf"]),
    ("theory", ["--ell=-inf"]),
    ("theory", ["--ell", "1", "--lambda0", "inf"]),
    # lambda0 is checked whatever the schedule
    ("theory", ["--lam", "0", "--lambda0", "nan"]),
    ("simulate", ["--lam", "0", "--lambda0", "nan"]),
    ("simulate", ["--cv", "--lambda0", "-3"]),
], ids=["simulate-lam-inf", "simulate-lambda0-inf", "simulate-ell-minus-inf",
        "theory-ell-minus-inf", "theory-lambda0-inf", "theory-lam-lambda0-nan",
        "simulate-lam-lambda0-nan", "simulate-cv-lambda0-negative"])
@pytest.mark.parametrize("n", ["100", "1000"])
def test_non_finite_schedule_is_usage_error_before_any_output(tmp_path, monkeypatch,
                                                             command, flags, n):
    def no_trial(*args):
        raise AssertionError("a trial ran before the schedule was checked")

    monkeypatch.setattr(simulator, "ridge_fit", no_trial)
    out = tmp_path / "x.csv"
    trials = ["--trials", "2"] if command == "simulate" else []
    code = main([command, "--alpha", "2", "--r", "0.5", "--sigma", "0.1", "--p", "1000",
                 "--n", n, *trials, *flags, "--out", str(out)])
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_noise_is_usage_error_before_any_trial(tmp_path, monkeypatch, capsys,
                                                          sigma):
    fits = []
    real_fit = simulator.ridge_fit

    def counting_fit(*args):
        fits.append(args)
        return real_fit(*args)

    monkeypatch.setattr(simulator, "ridge_fit", counting_fit)
    code = main(["simulate", "--alpha", "2", "--r", "0.5", "--sigma", sigma, "--lam", "0",
                 "--p", "100", "--n", "16,32", "--trials", "3",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert len(fits) == 0
    assert "noise std must be finite and >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", ["1", "10", "100"])
def test_square_interpolation_exits_0_without_noise_and_3_with_it(tmp_path, monkeypatch, n):
    # At p = n and lam = 0 the noiseless excess is exactly 0; with noise the
    # closed form's denominator 1 - S2 vanishes.
    square = ["--alpha", "2", "--r", "0.5", "--p", n, "--n", n]
    # With --include-zero this grid holds lam = 0 twice.
    zero_grid = tmp_path / "zero_grid.json"
    zero_grid.write_text(json.dumps({"lam_grid": [0.0]}))
    fits = []
    real_fit = simulator.ridge_fit

    def counting_fit(*args):
        fits.append(args)
        return real_fit(*args)

    monkeypatch.setattr(simulator, "ridge_fit", counting_fit)
    for sigma, code in (("0", 0), ("0.5", 3)):
        fits.clear()
        for argv in (["theory", "--lam", "0"], ["simulate", "--lam", "0", "--trials", "2"],
                     ["optimal-lambda", "--config", str(zero_grid)]):
            out = tmp_path / f"{argv[0]}_{sigma}.csv"
            assert main([*argv, *square, "--sigma", sigma, "--out", str(out)]) == code, argv
        # With noise the row's theory column raises before any trial is submitted.
        assert len(fits) == (2 if code == 0 else 0)
    assert _read_csv(tmp_path / "theory_0.csv")[1][2:5] == ["0", "0", "0"]
    out = tmp_path / "default_grid.csv"
    assert main(["optimal-lambda", *square, "--sigma", "0", "--out", str(out)]) == 0
    assert _read_csv(out)[1][1:] == ["0", "0", "noiseless"]


def test_simulate_usage_error(tmp_path):
    assert main(["simulate", "--alpha", "2", "--r", "0.5", "--lam", "0",
                 "--ell", "1", "--n", "32"]) == 2


@pytest.mark.parametrize("argv", [
    ["theory", "--lam", "1e308", "--p", "100"],
    ["theory", "--lam", "1e308", "--p", "1000000"],
    ["simulate", "--lam", "1e308", "--p", "100", "--trials", "2"],
    ["optimal-lambda", "--lam-grid", "1e300,1e308,3", "--no-include-zero", "--p", "100"],
    ["theory", "--ell=-300", "--p", "100"],
    ["simulate", "--ell=-300", "--p", "100", "--trials", "2"]],
    ids=["theory-lam", "theory-lam-large-p", "simulate-lam", "optimal-lambda-grid",
         "theory-ell", "simulate-ell"])
def test_a_ridge_whose_n_times_lam_overflows_is_usage_error_before_any_output(
        tmp_path, monkeypatch, capsys, argv):
    # At n = 10, lam = 1e308 makes n * lam overflow; --ell -300 gives 1e300 at
    # n = 10, and n^300 overflows at n = 100.
    def no_draw(*args):
        raise AssertionError("a design was drawn before every ridge was checked")

    monkeypatch.setattr(simulator, "sample_dataset", no_draw)
    code = main([*argv, "--alpha", "2", "--r", "0.5", "--n", "10,100",
                 "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and "n=10" in err and "warning" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, config, flags, lams, recorded", [
    ("theory", {"ell": 1.0}, ["--lam", "0.5"], ["0.5", "0.5"], {"lam": 0.5, "ell": None}),
    ("theory", {"lam": 0.5}, ["--ell", "1"], ["0.10000000000000001", "0.050000000000000003"],
     {"lam": None, "ell": 1.0}),
    ("simulate", {"cv": True}, ["--lam", "0"], ["0", "0"],
     {"lam": 0.0, "ell": None, "cv": False}),
    ("simulate", {"ell": 1.0, "lam": None}, ["--lam", "0"], ["0", "0"],
     {"lam": 0.0, "ell": None, "cv": False}),
    ("simulate", {"lam": 0.5}, ["--cv"], None, {"lam": None, "ell": None, "cv": True})],
    ids=["theory-lam-over-ell", "theory-ell-over-lam", "simulate-lam-over-cv",
         "simulate-lam-over-ell", "simulate-cv-over-lam"])
def test_a_schedule_flag_beats_the_config_schedule(tmp_path, command, config, flags, lams,
                                                   recorded):
    # The config's values for the schedule's other flags are dropped, so
    # neither the curve nor the manifest keeps them.
    cfg = tmp_path / "cfg.json"
    extra = {"trials": 2, "sigma": 0.1} if command == "simulate" else {}
    cfg.write_text(json.dumps({"alpha": 2, "r": 0.5, "n": [10, 20], "p": 60, **extra,
                               **config}))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), *flags, "--out", str(out)]) == 0
    if lams is not None:
        assert [row[1] for row in _read_csv(out)[1:]] == lams
    params = json.loads((tmp_path / "out.csv.manifest.json").read_text())["params"]
    assert {key: params[key] for key in recorded} == recorded


@pytest.mark.parametrize("command, config", [
    ("theory", {"lam": 0.5, "ell": 1.0}),
    ("simulate", {"cv": True, "lam": 0}),
    ("simulate", {"ell": 1.0, "cv": True}),
    ("simulate", {"lam": 0.0, "ell": 1.0, "cv": True})],
    ids=["theory-lam-ell", "simulate-cv-lam", "simulate-ell-cv", "simulate-all-three"])
def test_a_config_that_sets_two_schedule_flags_is_usage_error(tmp_path, capsys, command,
                                                               config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2, "r": 0.5, "n": [10, 20], "p": 60, **config}))
    (tmp_path / "out").mkdir()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out" / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert all(repr(key) in err for key in config) and "mutually exclusive" in err
    assert list((tmp_path / "out").iterdir()) == []


def test_a_recorded_schedule_with_its_unset_members_replays(tmp_path):
    # A manifest records null for the unset members, and false for --cv.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2, "r": 0.5, "n": [10, 20], "p": 60, "trials": 2,
                               "lam": None, "ell": 1.0, "cv": False}))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert [row[1] for row in _read_csv(out)[1:]] == ["0.10000000000000001",
                                                      "0.050000000000000003"]


def test_phase_diagram_outputs(tmp_path):
    base = tmp_path / "pd"
    code = main(["phase-diagram", "--out", str(base)])
    assert code == 0
    grid = _read_csv(tmp_path / "pd_grid.csv")
    assert grid[0] == ["n", "ell", "region", "exponent"]
    regions = {row[2] for row in grid[1:]}
    assert regions == {"GreenNoiselessUnreg", "RedNoisyUnreg",
                       "BlueNoiselessReg", "OrangeNoisyReg"}
    lines = _read_csv(tmp_path / "pd_lines.csv")
    assert lines[0] == ["line_id", "n", "ell"]
    manifest = json.loads((tmp_path / "pd.manifest.json").read_text())
    assert manifest["command"] == "phase-diagram"
    assert "optimal_point" in manifest["params"]


def test_phase_diagram_small_prefactor_bends_reg_line(tmp_path):
    base = tmp_path / "pd2"
    main(["phase-diagram", "--lambda0", "1e-4", "--sigma", "1e-5",
          "--ell-grid", "0,4,17", "--out", str(base)])
    lines = _read_csv(tmp_path / "pd2_lines.csv")
    reg_ns = {row[1] for row in lines[1:] if row[0] == "regularization"}
    assert len(reg_ns) > 1  # boundary varies with ell, no longer horizontal


def test_phase_diagram_degenerate_grid(tmp_path):
    base = tmp_path / "pd3"
    code = main(["phase-diagram", "--n-grid", "10,10,1", "--ell-grid", "1,1,1",
                 "--out", str(base)])
    assert code == 0
    grid = _read_csv(tmp_path / "pd3_grid.csv")
    assert len(grid) == 2
    # non-finite grid ends and point values are rejected where they enter
    for flag, value in (("--n-grid", "1,inf,5"), ("--n-grid", "nan,10,5"),
                        ("--ell-grid", "0,inf,5"), ("--ell-grid", "-inf,1,5"),
                        ("--alpha", "inf"), ("--r", "inf"), ("--sigma", "inf"),
                        ("--lambda0", "inf"), ("--lambda0", "nan"), ("--lambda0", "-3")):
        code = main(["phase-diagram", flag, value, "--out", str(tmp_path / "pd4")])
        assert code == 2, (flag, value)
    # and so are non-finite grid points given through --config
    cfg = tmp_path / "cfg.json"
    for key, value in (("n_grid", "[1, 10, Infinity]"), ("ell_grid", "[0, NaN]")):
        cfg.write_text(f'{{"{key}": {value}}}')
        code = main(["phase-diagram", "--config", str(cfg), "--out", str(tmp_path / "pd4")])
        assert code == 2, (key, value)
    assert not list(tmp_path.glob("pd4*"))
    code = main(["optimal-lambda", "--alpha", "2", "--r", "0.5", "--n", "100",
                 "--lam-grid", "nan,1,5", "--out", str(tmp_path / "opt.csv")])
    assert code == 2


def _planted_csv(path, n_tot=600, p=400, seed=3):
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, p))
    X, y = sample_dataset(sp, n_tot, 0.0, seed)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"x{j}" for j in range(p)] + ["y"])
        for i in range(n_tot):
            w.writerow([f"{v:.17g}" for v in X[i]] + [f"{y[i]:.17g}"])


def test_estimate_planted_csv(tmp_path, monkeypatch):
    grams = []
    real_decomposition = cli.feature_decomposition

    def counting_decomposition(gram, *args):
        grams.append(gram.flags.c_contiguous and gram.flags.writeable)
        return real_decomposition(gram, *args)

    monkeypatch.setattr(cli, "feature_decomposition", counting_decomposition)
    data = tmp_path / "data.csv"
    _planted_csv(data)
    base = tmp_path / "est"
    code = main(["estimate", str(data), "--kernel", "linear", "--gamma", "1",
                 "--out", str(base)])
    assert code == 0
    assert grams == [True]  # the public decomposition, in the Gram matrix's own buffer
    report = json.loads((tmp_path / "est_estimate.json").read_text())
    assert abs(report["alpha_hat"] - 2.0) / 2.0 < 0.15
    assert abs(report["r_hat"] - 0.5) / 0.5 < 0.3
    assert report["predicted_exponents"]["GreenNoiselessUnreg"] == pytest.approx(
        2 * report["alpha_hat"] * min(report["r_hat"], 1.0))
    tails = _read_csv(tmp_path / "est_tails.csv")
    assert tails[0] == ["k", "cap_tail", "src_tail"]
    assert len(tails) == 601
    # NaN --ell is a usage error; inf means zero ridge and stays legal
    code = main(["estimate", str(data), "--kernel", "linear", "--gamma", "1",
                 "--ell", "nan", "--out", str(tmp_path / "est_nan")])
    assert code == 2
    assert not (tmp_path / "est_nan_estimate.json").exists()
    code = main(["estimate", str(data), "--kernel", "linear", "--gamma", "1",
                 "--ell", "inf", "--out", str(tmp_path / "est_inf")])
    assert code == 0
    report = _strict_json(tmp_path / "est_inf_estimate.json")
    assert grams == [True, True]
    assert report["predicted_exponents"]["ell_used"] == "inf"
    assert report["predicted_exponents"]["OrangeNoisyReg_at_ell"] == "-inf"
    assert _strict_json(tmp_path / "est_inf.manifest.json")["params"]["ell"] == "inf"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _strict_json(source):
    """JSON from a path or a string, refusing NaN and +-Infinity as strict readers do."""
    text = source.read_text() if isinstance(source, Path) else source
    return json.loads(text, parse_constant=_reject_constant)


def test_estimate_inf_ell_stdout_is_strict_json(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _planted_csv(data, n_tot=80, p=30)
    assert main(["estimate", str(data), "--kernel", "linear", "--gamma", "1",
                 "--ell", "inf", "--out", str(tmp_path / "e")]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["predicted_exponents"]["BlueNoiselessReg_at_ell"] == "inf"
    assert report == _strict_json(tmp_path / "e_estimate.json")


def test_estimate_missing_label_column(tmp_path):
    data = tmp_path / "nolabel.csv"
    data.write_text("x1,x2\n1.0,2.0\n3.0,4.0\n")
    code = main(["estimate", str(data), "--kernel", "rbf", "--gamma", "1e-4",
                 "--out", str(tmp_path / "e")])
    assert code == 4


def test_estimate_cap_refusal_and_subsample(tmp_path):
    data = tmp_path / "data.csv"
    _planted_csv(data, n_tot=120, p=30)
    code = main(["estimate", str(data), "--kernel", "linear", "--gamma", "1",
                 "--cap", "100", "--out", str(tmp_path / "e")])
    assert code == 4
    code = main(["estimate", str(data), "--kernel", "linear", "--gamma", "1",
                 "--cap", "100", "--subsample", "80", "--seed", "5",
                 "--out", str(tmp_path / "e2")])
    assert code == 0
    report = json.loads((tmp_path / "e2_estimate.json").read_text())
    assert report["n_tot"] == 80


@pytest.mark.parametrize("flags, message", [
    (["--subsample", "-5"], "--subsample"), (["--subsample", "0"], "--subsample"),
    (["--cap", "0"], "--cap"), (["--eigen-floor", "nan"], "eigenvalue floor"),
    (["--eigen-floor", "-1"], "eigenvalue floor"), (["--eigen-floor", "1"], "eigenvalue floor"),
    (["--kernel", "polynomial", "--gamma", "1e100"], "non-finite entry inf"),
    (["--fit-range-capacity", "5,2"], "--fit-range-capacity: expected 1 <= lo < hi"),
    (["--fit-range-source", "0,20"], "--fit-range-source: expected 1 <= lo < hi")])
def test_estimate_rejects_bad_flags(tmp_path, capsys, flags, message):
    data = tmp_path / "data.csv"
    _planted_csv(data, n_tot=60, p=5)
    code = main(["estimate", str(data), "--kernel", "linear", "--gamma", "1", *flags,
                 "--out", str(tmp_path / "e")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "e_estimate.json").exists()


def test_library_warnings_print_as_one_line_each(tmp_path, capsys, recwarn):
    data = tmp_path / "data.csv"
    _planted_csv(data, n_tot=100, p=30)
    assert main(["estimate", str(data), "--kernel", "rbf", "--gamma", "1",
                 "--out", str(tmp_path / "e")]) == 0
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("warning: tail fits explain little variance (r2 capacity ")
    assert len(recwarn) == 0


def test_kernel_overflow_exits_2_without_a_numpy_warning(tmp_path):
    # The overflow is reported once, as a non-finite Gram entry.
    data = tmp_path / "data.csv"
    _planted_csv(data, n_tot=60, p=5)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "krr_regimes.cli", "estimate", str(data),
                           "--kernel", "polynomial", "--gamma", "1e100",
                           "--out", str(tmp_path / "e")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "non-finite entry inf" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def _data_calls(monkeypatch) -> list:
    """The names of the dataset reads and Gram builds the estimate command makes."""
    called = []
    for name in ("load_dataset_csv", "gram_matrix"):
        def counting(*args, name=name, real=getattr(cli, name)):
            called.append(name)
            return real(*args)
        monkeypatch.setattr(cli, name, counting)
    return called


@pytest.mark.parametrize("kernel", ["linear", "rbf", "polynomial"])
def test_estimate_infinite_gamma_is_usage_error_before_the_data_is_read(tmp_path, capsys,
                                                                       monkeypatch, kernel):
    data = tmp_path / "data.csv"
    _planted_csv(data, n_tot=60, p=5)
    called = _data_calls(monkeypatch)
    code = main(["estimate", str(data), "--kernel", kernel, "--gamma", "inf",
                 "--out", str(tmp_path / "e")])
    assert code == 2
    assert called == []
    assert "gamma must be finite and > 0, got inf" in capsys.readouterr().err
    assert not (tmp_path / "e_estimate.json").exists()


@pytest.mark.parametrize("floor", ["nan", "-0.1", "1.0", "inf"])
def test_estimate_bad_eigen_floor_is_usage_error_before_the_data_is_read(tmp_path, capsys,
                                                                        monkeypatch, floor):
    data = tmp_path / "data.csv"
    _planted_csv(data, n_tot=50, p=5)
    called = _data_calls(monkeypatch)
    code = main(["estimate", str(data), "--kernel", "linear", "--gamma", "1",
                 "--eigen-floor", floor, "--out", str(tmp_path / "e")])
    assert code == 2
    assert called == []
    assert f"eigenvalue floor must be in [0, 1), got {float(floor)}" in capsys.readouterr().err
    assert not (tmp_path / "e_estimate.json").exists()


def test_estimate_subsample_above_cap_is_usage_error_before_the_data_is_read(tmp_path, capsys,
                                                                         monkeypatch):
    data = tmp_path / "data.csv"
    _planted_csv(data, n_tot=30, p=5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cap": 10, "subsample": 20}))
    called = _data_calls(monkeypatch)
    for flags in (["--cap", "10", "--subsample", "20"], ["--config", str(cfg)]):
        code = main(["estimate", str(data), "--kernel", "rbf", "--gamma", "0.1", *flags,
                     "--out", str(tmp_path / "e")])
        assert code == 2, flags
        assert "--subsample 20 is above --cap 10" in capsys.readouterr().err
    assert called == []
    assert not (tmp_path / "e_estimate.json").exists()


def test_estimate_rejects_nan_cell(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _planted_csv(data, n_tot=60, p=5)
    lines = data.read_text().splitlines()
    cells = lines[8].split(",")
    cells[2] = "nan"
    lines[8] = ",".join(cells)
    data.write_text("\n".join(lines) + "\n")
    code = main(["estimate", str(data), "--kernel", "linear", "--gamma", "1",
                 "--out", str(tmp_path / "e")])
    assert code == 4
    assert "data row 8, column 'x2'" in capsys.readouterr().err


def _slope_csv(path, values):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["n", "lambda", "mean_excess", "std_excess", "trials",
                    "theory_excess", "regime"])
        for n, v in values:
            w.writerow([n, "0", f"{v:.17g}", "0", "1", "0", ""])


def test_fit_slope_power_law(tmp_path, capsys):
    path = tmp_path / "c.csv"
    _slope_csv(path, [(n, n ** -2.0) for n in (10, 30, 100, 300, 1000)])
    assert main(["fit-slope", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["slope"] == pytest.approx(-2.0, abs=1e-10)


def test_fit_slope_constant(tmp_path, capsys):
    path = tmp_path / "c.csv"
    _slope_csv(path, [(n, 0.25) for n in (10, 100, 1000)])
    assert main(["fit-slope", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["slope"] == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_degenerate_window(tmp_path, capsys):
    path = tmp_path / "c.csv"
    _slope_csv(path, [(10, 1.0), (100, 0.5), (1000, 0.25)])
    assert main(["fit-slope", str(path), "--window", "0,1"]) == 4
    # a window must be an increasing row range inside the curve
    _slope_csv(path, [(10, 1.0), (100, 0.5), (1000, 0.25), (10000, 0.125)])
    assert main(["fit-slope", str(path), "--window=0,100"]) == 4
    for window in ("-1,3", "2,1"):
        assert main(["fit-slope", str(path), f"--window={window}"]) == 2, window
    # rows that share one n, as simulate --n 24,24,24 writes them, have no slope
    _slope_csv(path, [(24, 1.0), (24, 0.5), (24, 0.25)])
    assert main(["fit-slope", str(path)]) == 4
    assert "two distinct x values" in capsys.readouterr().err
    # a row shorter than the header is a schema error, not a crash
    with open(path, "a", newline="") as f:
        f.write("10000,0,0.125\r\n")
    assert main(["fit-slope", str(path)]) == 4


def test_fit_slope_rejects_non_finite_excess(tmp_path, capsys):
    path = tmp_path / "c.csv"
    for bad in (float("nan"), float("inf")):
        _slope_csv(path, [(10, 1.0), (100, bad), (1000, 0.25)])
        out = tmp_path / "slope.json"
        assert main(["fit-slope", str(path), "--out", str(out)]) == 4, bad
        assert f"y holds {bad}" in capsys.readouterr().err, bad
        assert not out.exists()


def test_optimal_lambda_command(tmp_path):
    out = tmp_path / "opt.csv"
    code = main(["optimal-lambda", "--alpha", "2", "--r", "0.5", "--sigma", "0.5",
                 "--p", "5000", "--n", "100,200", "--lam-grid", "1e-6,1,49",
                 "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["n", "lam_star", "excess_star", "zone"]
    assert float(rows[1][1]) > 0


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2.0, "r": 0.5, "lam": 0.0,
                               "p": 1000, "n": [50, 100]}))
    out = tmp_path / "t.csv"
    code = main(["theory", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert [r[0] for r in rows[1:]] == ["50", "100"]
    # explicit flag wins over the file
    out2 = tmp_path / "t2.csv"
    code = main(["theory", "--config", str(cfg), "--n", "75", "--out", str(out2)])
    assert code == 0
    assert [r[0] for r in _read_csv(out2)[1:]] == ["75"]


def test_optimal_lambda_include_zero_toggle(tmp_path):
    args = ["optimal-lambda", "--alpha", "2", "--r", "0.5", "--sigma", "0", "--p", "2000",
            "--n", "100", "--lam-grid", "1e-6,1,13"]
    assert main(args + ["--out", str(tmp_path / "with.csv")]) == 0
    assert float(_read_csv(tmp_path / "with.csv")[1][1]) == 0.0
    assert main(args + ["--no-include-zero", "--out", str(tmp_path / "without.csv")]) == 0
    # without noise the smallest ridge wins, so dropping 0 leaves the smallest grid point
    assert float(_read_csv(tmp_path / "without.csv")[1][1]) == np.geomspace(1e-6, 1, 13)[0]


def test_config_equals_form_and_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2.0, "r": 0.5, "lam": 0.0, "p": 1000, "n": [50]}))
    out = tmp_path / "t.csv"
    assert main(["theory", f"--config={cfg}", "--out", str(out)]) == 0
    assert [r[0] for r in _read_csv(out)[1:]] == ["50"]
    cfg.write_text(json.dumps({"alpha": 2.0, "r": 0.5, "lam": 0.0, "n": [50], "sigmaa": 0.1}))
    assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
    assert "sigmaa" in capsys.readouterr().err
    cfg.write_text(json.dumps({"command": "simulate", "alpha": 2.0, "r": 0.5, "lam": 0.0,
                               "n": [50]}))
    assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
    # a value of another shape than its flag produces names the key
    cfg.write_text(json.dumps({"alpha": 2.0, "r": 0.5, "lam": 0.0, "n": 50}))
    assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'n'" in capsys.readouterr().err
    # simulate takes no workers, which older manifests record
    cfg.write_text(json.dumps({"alpha": 2.0, "r": 0.5, "lam": 0.0, "p": 50, "n": [8],
                               "trials": 2, "workers": None}))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown config key(s): workers" in capsys.readouterr().err


_REPLAY_ARGS = {
    "theory": ["--alpha", "2", "--r", "0.5", "--sigma", "0.1", "--ell", "1",
               "--lambda0", "0.01", "--p", "2000", "--n", "100,300"],
    "simulate": ["--alpha", "2", "--r", "0.5", "--sigma", "0.1", "--lam", "0", "--p", "200",
                 "--n", "16,32", "--trials", "3", "--seed", "4"],
    "phase-diagram": ["--lambda0", "1e-4", "--n-grid", "1,1e4,5", "--ell-grid", "0,4,5"],
    "optimal-lambda": ["--alpha", "2", "--r", "0.5", "--sigma", "0.5", "--p", "2000",
                       "--n", "100,200", "--lam-grid", "1e-6,1,13"],
    "estimate": ["--kernel", "linear", "--gamma", "1"],
}


@pytest.mark.parametrize("command", sorted(_REPLAY_ARGS))
def test_manifest_params_replay_byte_identical(tmp_path, command):
    positional = []
    if command == "estimate":
        positional = [str(tmp_path / "data.csv")]
        _planted_csv(positional[0], n_tot=80, p=30)
    first, replay = tmp_path / "first", tmp_path / "replay"
    first.mkdir()
    replay.mkdir()
    assert main([command, *positional, *_REPLAY_ARGS[command],
                 "--out", str(first / "out")]) == 0
    (manifest_path,) = first.glob("*.manifest.json")
    manifest = json.loads(manifest_path.read_text())
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(manifest["params"]))
    assert main([command, *positional, "--config", str(cfg),
                 "--out", str(replay / "out")]) == 0
    for output in manifest["outputs"]:
        name = os.path.basename(output)
        assert (replay / name).read_bytes() == (first / name).read_bytes(), name


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("KRR_REGIMES_OUTDIR", str(tmp_path))
    code = main(["theory", "--alpha", "2", "--r", "0.5", "--lam", "1e-2",
                 "--p", "500", "--n", "100"])
    assert code == 0
    assert (tmp_path / "theory_curve.csv").exists()


def test_outdir_env_var_places_the_decomposition_output_too(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    _planted_csv(data, n_tot=80, p=30)
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    monkeypatch.setenv("KRR_REGIMES_OUTDIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    assert main(["estimate", str(data), "--kernel", "linear", "--gamma", "1",
                 "--decomposition-out", "dec.csv"]) == 0
    assert not (tmp_path / "dec.csv").exists()
    manifest = json.loads((outdir / "estimate.manifest.json").read_text())
    assert manifest["outputs"] == [str(outdir / name) for name in
                                   ("estimate_estimate.json", "estimate_tails.csv", "dec.csv")]
    assert all(os.path.isfile(output) for output in manifest["outputs"])


def test_manifest_contents(tmp_path):
    out = tmp_path / "t.csv"
    main(["theory", "--alpha", "2", "--r", "0.5", "--lam", "0", "--p", "500",
          "--n", "100", "--out", str(out)])
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert manifest["command"] == "theory"
    assert manifest["params"]["alpha"] == 2.0
    assert manifest["outputs"] == [str(out)]
    assert manifest["version"]


def test_csv_values_roundtrip_exactly(tmp_path):
    out = tmp_path / "t.csv"
    main(["theory", "--alpha", "2", "--r", "0.5", "--sigma", "0.3", "--lam", "1e-3",
          "--p", "2000", "--n", "100", "--out", str(out)])
    from krr_regimes.spectrum import PowerLawParams, power_law_spectrum
    from krr_regimes.theory import excess_error_closed
    row = _read_csv(out)[1]
    dec = excess_error_closed(100, 1e-3, 0.3, power_law_spectrum(PowerLawParams(2, 0.5, 2000)))
    assert float(row[2]) == dec.sample_variance
    assert float(row[3]) == dec.noise_variance
    assert float(row[4]) == dec.total


_THEORY_ARGS = ["theory", "--alpha", "2", "--r", "0.5", "--lam", "1e-3", "--p", "1000",
                "--n", "100,200"]


def test_calls_without_config_build_the_parser_once(tmp_path, monkeypatch):
    built = []

    def counting_build(*args):
        built.append(args)
        return build_parser(*args)

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._default_parser.cache_clear()
    for name in ("a.csv", "b.csv"):
        assert main([*_THEORY_ARGS, "--out", str(tmp_path / name)]) == 0
    assert built == [()]
    # a config file's defaults go into a tree of their own, on every call
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma": 0.1}))
    for name in ("c.csv", "d.csv"):
        assert main([*_THEORY_ARGS, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    assert built == [(), (["sigma"],), (["sigma"],)]
    assert main([*_THEORY_ARGS, "--out", str(tmp_path / "e.csv")]) == 0
    assert len(built) == 3


def test_config_defaults_do_not_leak_into_later_calls(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2.0, "sigma": 0.3}))
    no_alpha = ["theory", "--r", "0.5", "--lam", "1e-3", "--p", "1000", "--n", "100"]
    assert main([*no_alpha, "--out", str(tmp_path / "a.csv")]) == 2
    capsys.readouterr()
    assert main([*no_alpha, "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
    assert main([*no_alpha, "--out", str(tmp_path / "c.csv")]) == 2
    assert "the following arguments are required: --alpha" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()
    # nor does the config's sigma
    assert main([*no_alpha, "--alpha", "2", "--out", str(tmp_path / "d.csv")]) == 0
    assert json.loads((tmp_path / "d.csv.manifest.json").read_text())["params"]["sigma"] == 0.0


# A good call per command, and flags that each make it exit 2.
_AFTER_AN_ERROR = {
    "theory": (_THEORY_ARGS, [["--ell", "1"], ["--n", ","], ["--alpha", "0.9"],
                              ["--sigma", "nan"]]),
    "phase-diagram": (["phase-diagram", "--lambda0", "1e-4"],
                      [["--n-grid", "1,inf,5"], ["--ell-grid", "4,0,5"], ["--bogus"]]),
    "optimal-lambda": (["optimal-lambda", "--alpha", "2", "--r", "0.5", "--sigma", "0.5",
                        "--p", "2000", "--n", "100,200"],
                       [["--lam-grid", "nan,1,5"], ["--n", "1.5"], ["--alpha", "0.9"]]),
}


def _manifest_without_paths(path):
    manifest = json.loads(path.read_text())
    del manifest["wall_time_s"], manifest["outputs"], manifest["params"]["out"]
    return manifest


@pytest.mark.parametrize("command", sorted(_AFTER_AN_ERROR))
def test_a_usage_error_leaves_the_next_call_unchanged(tmp_path, command):
    good, bad_flags = _AFTER_AN_ERROR[command]
    first, later = tmp_path / "first", tmp_path / "later"
    first.mkdir()
    later.mkdir()
    assert main([*good, "--out", str(first / "out")]) == 0
    for flags in bad_flags:
        assert main([*good, *flags, "--out", str(tmp_path / "bad")]) == 2, flags
    assert main([*good, "--out", str(later / "out")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first", "later"]
    for path in sorted(first.iterdir()):
        if path.name.endswith(".manifest.json"):
            assert _manifest_without_paths(later / path.name) == _manifest_without_paths(path)
        else:
            assert (later / path.name).read_bytes() == path.read_bytes(), path.name


def test_default_grids_are_read_only():
    _, subparsers = cli._default_parser()
    for command, dest in (("phase-diagram", "n_grid"), ("phase-diagram", "ell_grid"),
                          ("optimal-lambda", "lam_grid")):
        grid = subparsers[command].get_default(dest)
        assert not grid.flags.writeable, dest
        with pytest.raises(ValueError):
            grid[0] = 0.0


@pytest.mark.parametrize("argv", [["--version"], ["theory", "-h"]])
def test_reused_parser_prints_what_a_fresh_one_prints(tmp_path, capsys, argv):
    assert main([*_THEORY_ARGS, "--out", str(tmp_path / "t.csv")]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    reused = capsys.readouterr()
    parser, _ = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == reused
    assert reused.out


# Flags every call of a command gets unless the case under test sets them.
_SAME_VALUE_BASE = {
    "theory": {"--alpha": "2", "--r": "0.5", "--lam": "0", "--p": "1000", "--n": "100"},
    "simulate": {"--alpha": "2", "--r": "0.5", "--lam": "0", "--p": "50", "--n": "8",
                 "--trials": "2"},
    "optimal-lambda": {"--alpha": "2", "--r": "0.5", "--sigma": "0.5", "--p": "1000",
                       "--n": "100", "--lam-grid": "1e-6,1,5"},
    "phase-diagram": {"--n-grid": "1,1e4,5", "--ell-grid": "0,4,5"},
    "estimate": {"--kernel": "linear", "--gamma": "1"},
    "fit-slope": {},
}

# (command, config key, command-line tokens, config value, exit code): the tokens and
# the config value are the same value, so both must give the exit code.  Tokens are
# None where the config value has no command-line form.
_SAME_VALUE_CASES = [
    # int
    ("theory", "p", ["--p", "1e4"], 1e4, 0),
    ("theory", "p", ["--p", "1.5"], 1.5, 2),
    ("simulate", "seed", ["--seed", str(2 ** 53 + 1)], 2 ** 53 + 1, 0),
    ("simulate", "seed", ["--seed", "true"], True, 2),
    ("simulate", "trials", ["--trials", "2.5"], 2.5, 2),
    ("estimate", "degree", ["--degree", "3e0"], 3.0, 0),
    # int list
    ("theory", "n", ["--n", "1e2"], [1e2], 0),
    ("theory", "n", ["--n", "100,2.5"], [100, 2.5], 2),
    ("theory", "n", ["--n", ","], [], 2),
    ("theory", "n", None, 50, 2),
    # int pair
    ("fit-slope", "window", ["--window", "0,1e1"], [0, 1e1], 0),
    ("fit-slope", "window", ["--window", "0,1,2"], [0, 1, 2], 2),
    # log grid
    ("optimal-lambda", "lam_grid", ["--lam-grid", "1e-6,1,3"], [1e-6, 1e-3, 1.0], 0),
    ("optimal-lambda", "lam_grid", ["--lam-grid", ""], [], 2),
    ("optimal-lambda", "lam_grid", ["--lam-grid", "nan,1,3"], [float("nan"), 1.0], 2),
    ("optimal-lambda", "lam_grid", None, [1e-6, True], 2),
    # lin grid
    ("phase-diagram", "ell_grid", ["--ell-grid", "0,4,3"], [0, 2, 4], 0),
    ("phase-diagram", "ell_grid", ["--ell-grid", "0,inf,3"], [0, float("inf")], 2),
    # float
    ("theory", "sigma", ["--sigma", "2"], 2, 0),
    ("theory", "sigma", ["--sigma", "true"], True, 2),
    ("theory", "sigma", ["--sigma", "abc"], "abc", 2),
    # string
    ("estimate", "kernel", ["--kernel", "linear"], "linear", 0),
    ("estimate", "kernel", ["--kernel", "cubic"], "cubic", 2),
    ("estimate", "kernel", None, 1, 2),
    # switch
    ("optimal-lambda", "include_zero", ["--no-include-zero"], False, 0),
    ("optimal-lambda", "include_zero", None, "false", 2),
    # seed, an integer >= 0
    ("simulate", "seed", ["--seed", "-1"], -1, 2),
    ("estimate", "seed", ["--seed", "-3"], -3, 2),
    # int pairs with their bounds: a fit range 1 <= lo < hi, a window 0 <= lo < hi
    ("fit-slope", "window", ["--window", "3,1"], [3, 1], 2),
    ("fit-slope", "window", ["--window=-1,3"], [-1, 3], 2),
    ("estimate", "fit_range_capacity", ["--fit-range-capacity", "5,2"], [5, 2], 2),
    ("estimate", "fit_range_source", ["--fit-range-source", "0,20"], [0, 20], 2),
]


@pytest.mark.parametrize("command, key, tokens, value, code", _SAME_VALUE_CASES)
def test_config_and_command_line_take_the_same_values(tmp_path, command, key, tokens, value,
                                                      code):
    base = dict(_SAME_VALUE_BASE[command])
    base.pop(f"--{key.replace('_', '-')}", None)
    positional = []
    if command == "estimate":
        positional = [str(tmp_path / "data.csv")]
        _planted_csv(positional[0], n_tot=80, p=30)
    elif command == "fit-slope":
        positional = [str(tmp_path / "c.csv")]
        _slope_csv(positional[0], [(n, n ** -2.0) for n in range(10, 130, 10)])
    args = [command, *positional, *(tok for item in base.items() for tok in item)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    runs = {"config": ["--config", str(cfg)]}
    if tokens is not None:
        runs["flag"] = tokens
    for name, extra in runs.items():
        (tmp_path / name).mkdir()
        assert main([*args, *extra, "--out", str(tmp_path / name / "out")]) == code, name
    if code != 0 or tokens is None:
        return
    for path in sorted((tmp_path / "flag").iterdir()):
        replay = tmp_path / "config" / path.name
        if path.name.endswith(".manifest.json"):
            assert _manifest_without_paths(replay) == _manifest_without_paths(path)
            if key == "seed":
                assert json.loads(replay.read_text())["params"]["seed"] == 2 ** 53 + 1
        else:
            assert replay.read_bytes() == path.read_bytes(), path.name


# A minimal valid call per command, with a value for each flag whose default is None
# or whose value a manifest records as a string.
_MINIMAL_ARGS = {
    "theory": ["--alpha", "2", "--r", "0.5", "--ell", "inf", "--n", "100"],
    "simulate": ["--alpha", "2", "--r", "0.5", "--cv", "--n", "8,16", "--theory-p", "1e3"],
    "phase-diagram": [],
    "estimate": ["data.csv", "--kernel", "rbf", "--gamma", "1", "--fit-range-capacity", "1,5",
                 "--fit-range-source", "2,6", "--subsample", "50", "--ell=-inf",
                 "--decomposition-out", "dec.csv"],
    "fit-slope": ["curve.csv", "--window", "0,3"],
    "optimal-lambda": ["--alpha", "2", "--r", "0.5", "--n", "100", "--no-include-zero"],
}


@pytest.mark.parametrize("command", sorted(_MINIMAL_ARGS))
def test_every_recorded_value_comes_back_through_its_flag(command):
    parser, subparsers = build_parser()
    assert set(subparsers) == set(_MINIMAL_ARGS)
    args = parser.parse_args([command, *_MINIMAL_ARGS[command], "--out", "x"])
    params = cli._params_of(args)
    replayed = cli._typed_config(subparsers[command], json.loads(cli._json_text(params)))
    assert replayed.keys() == params.keys()
    for key, value in params.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(replayed[key], value), key
        else:
            assert replayed[key] == value and type(replayed[key]) is type(value), key
