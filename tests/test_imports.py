"""The package's export table, and which modules each CLI command loads.

The command checks run in a fresh interpreter and read sys.modules after
cli.main returns: they guard what start-up pays for, not how long it takes.
"""

import ast
import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import krr_regimes
from krr_regimes.simulator import sample_dataset
from krr_regimes.spectrum import PowerLawParams, power_law_spectrum

ENV = {**os.environ, "PYTHONPATH": str(Path(krr_regimes.__file__).resolve().parents[1])}

# Runs cli.main(argv) and prints, as its last line, the exit code and the
# scipy and krr_regimes modules loaded.
_PROBE = """
import json, sys
from krr_regimes import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(
    m for m in sys.modules if m.split(".")[0] in ("scipy", "krr_regimes"))}))
"""


def _loaded_by(argv, cwd) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=cwd, env=ENV,
                          capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return set(result["modules"])


def _scipy(modules) -> list[str]:
    return sorted(m for m in modules if m.split(".")[0] == "scipy")


def test_every_export_is_its_submodule_attribute():
    assert len(krr_regimes.__all__) == len(set(krr_regimes.__all__)) == 41
    for module, names in krr_regimes._EXPORTS.items():
        owner = importlib.import_module("krr_regimes." + module)
        for name in names:
            assert getattr(krr_regimes, name) is getattr(owner, name), name
    assert set(dir(krr_regimes)) >= set(krr_regimes.__all__) | {"__version__"}


def test_star_import_binds_every_export():
    namespace = {}
    exec("from krr_regimes import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(krr_regimes.__all__)
    assert namespace["solve_z"] is krr_regimes.theory.solve_z


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        krr_regimes.no_such_name
    assert not hasattr(krr_regimes, "no_such_name")
    # ... which is what lets `from krr_regimes import cli` find the submodule
    from krr_regimes import cli
    assert cli is sys.modules["krr_regimes.cli"]


def test_cli_import_loads_every_module_and_no_scipy(tmp_path):
    # The benchmark's tracer looks each traced module up in sys.modules after
    # importing krr_regimes.cli; --version returns before any command runs.
    modules = _loaded_by(["--version"], tmp_path)
    for name in ("cli", "dataspec", "regimes", "simulator", "spectrum", "theory"):
        assert "krr_regimes." + name in modules, name
    assert _scipy(modules) == []


def _planted_csv(path, n_tot=40, p=30):
    features, labels = sample_dataset(power_law_spectrum(PowerLawParams(2.0, 0.5, p)),
                                      n_tot, 0.0, 3)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"x{j}" for j in range(p)] + ["y"])
        w.writerows([f"{v:.17g}" for v in (*row, y)] for row, y in zip(features, labels))


def _curve_csv(path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["n", "lambda", "mean_excess", "std_excess", "trials", "theory_excess",
                    "regime"])
        w.writerows([n, 0, n ** -1.5, 0, 1, 0, ""] for n in (10, 100, 1000))


@pytest.mark.parametrize("kernel", ["linear", "rbf", "polynomial"])
def test_estimate_loads_no_scipy(tmp_path, kernel):
    _planted_csv(tmp_path / "data.csv")
    modules = _loaded_by(["estimate", "data.csv", "--kernel", kernel, "--gamma", "0.1",
                          "--out", "e"], tmp_path)
    assert _scipy(modules) == []


def test_phase_diagram_and_fit_slope_load_no_scipy(tmp_path):
    modules = _loaded_by(["phase-diagram", "--n-grid", "1,1e4,5", "--ell-grid", "0,4,5",
                          "--out", "pd"], tmp_path)
    assert _scipy(modules) == []
    _curve_csv(tmp_path / "c.csv")
    assert _scipy(_loaded_by(["fit-slope", "c.csv"], tmp_path)) == []


@pytest.mark.parametrize("argv", [
    ["theory", "--alpha", "2", "--r", "0.5", "--lam", "0", "--n", "100,1000"],
    ["optimal-lambda", "--alpha", "2", "--r", "0.5", "--sigma", "0.5", "--p", "2000",
     "--n", "100", "--lam-grid", "1e-6,1,13"],
])
def test_theory_commands_load_no_scipy(tmp_path, argv):
    modules = _loaded_by([*argv, "--out", "t.csv"], tmp_path)
    assert "krr_regimes.theory" in modules
    assert _scipy(modules) == []


@pytest.mark.parametrize("argv", [
    ["--lam", "0", "--n", "16,32"],
    ["--cv", "--sigma", "0.5", "--n", "16,32"],
    ["--ell", "1", "--sigma", "0.5", "--n", "32,64"],  # n = 64 > p: the normal equations
], ids=["ridgeless", "cv", "n-at-least-p"])
def test_simulate_loads_no_scipy(tmp_path, argv):
    modules = _loaded_by(["simulate", "--alpha", "2", "--r", "0.5", "--p", "40", "--trials",
                          "2", *argv, "--out", "s.csv"], tmp_path)
    assert "krr_regimes.simulator" in modules
    assert _scipy(modules) == []


# Runs cli.main on each argv of a JSON list with scipy unimportable and no
# handle on numpy's OpenBLAS, so every LAPACK call takes numpy's fallback, and
# prints the exit codes.
_NUMPY_ONLY_PROBE = """
import json, sys
sys.modules["scipy"] = None
from krr_regimes import _openblas, cli
_openblas._library = lambda: None
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_every_command_runs_on_numpy_alone(tmp_path):
    _planted_csv(tmp_path / "data.csv")
    _curve_csv(tmp_path / "c.csv")
    model = ["--alpha", "2", "--r", "0.5"]
    simulate = ["simulate", *model, "--p", "40", "--trials", "2"]
    argvs = [
        ["theory", *model, "--lam", "0", "--n", "100,1000", "--out", "t.csv"],
        ["optimal-lambda", *model, "--sigma", "0.5", "--p", "2000", "--n", "100",
         "--lam-grid", "1e-6,1,13", "--out", "o.csv"],
        ["phase-diagram", "--n-grid", "1,1e4,5", "--ell-grid", "0,4,5", "--out", "pd"],
        [*simulate, "--lam", "0", "--n", "16,32", "--out", "s1.csv"],
        [*simulate, "--ell", "1", "--sigma", "0.5", "--n", "32,64", "--out", "s2.csv"],
        [*simulate, "--cv", "--sigma", "0.5", "--n", "16,32", "--out", "s3.csv"],
        *(["estimate", "data.csv", "--kernel", kernel, "--gamma", "0.1", "--out", kernel]
          for kernel in ("linear", "rbf", "polynomial")),
        ["fit-slope", "c.csv"],
    ]
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_PROBE, json.dumps(argvs)],
                          cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(argvs), proc.stderr


def test_only_the_openblas_module_imports_ctypes():
    # One module holds every foreign call, so one seam turns them all off.
    package = Path(krr_regimes.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) \
                else [node.module] if isinstance(node, ast.ImportFrom) else []
            if any(name and name.split(".")[0] == "ctypes" for name in names):
                importers.add(path.name)
    assert importers == {"_openblas.py"}
    assert (package / "_openblas.py").read_text().count("ctypes.CDLL(") == 1
