"""Golden outputs: the SHA-256 of every file a set of CLI calls writes.

Outputs are promised byte-identical only on the same numpy build and CPU, so
the digests in golden.json are keyed by the numpy version and the
configuration string of the OpenBLAS that numpy bundles.  On a key with no
record the test skips and prints the digests it computed; a change that
moves an output on purpose records the new digests there.  Manifests are
compared without their wall time.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from krr_regimes import _openblas, cli

GOLDEN = Path(__file__).with_name("golden.json")

_MODEL = ["--alpha", "2", "--r", "0.5"]
_MC_NS = "32,64,128,256,512,1024"
# The benchmark's mc-curves specs, each with its own seed.
_MC_SPECS = [("0", ["--lam", "0"]), ("0", ["--ell", "1"]), ("0.5", ["--lam", "0"]),
             ("0.5", ["--ell", "1"]), ("0.5", ["--cv"])]

_CASES = {
    **{f"mc{i}": ["simulate", *_MODEL, "--sigma", sigma, *sched, "--p", "4000",
                  "--n", _MC_NS, "--trials", "6", "--seed", str(9300 + i)]
       for i, (sigma, sched) in enumerate(_MC_SPECS)},
    "cv-dup": ["simulate", *_MODEL, "--sigma", "0.5", "--cv", "--p", "300",
               "--n", "96,24,160,24,96", "--trials", "3", "--seed", "7"],
    "theory-lam": ["theory", *_MODEL, "--sigma", "0.5", "--lam", "0",
                   "--n", "100,1000,10000"],
    "theory-ell": ["theory", "--alpha", "1.5", "--r", "1.5", "--sigma", "0.1", "--ell", "1",
                   "--lambda0", "1e-2", "--p", "1000000", "--n", "100,3000"],
    "optlam": ["optimal-lambda", *_MODEL, "--sigma", "0.5", "--n", "100,1000"],
    "optlam-nozero": ["optimal-lambda", "--alpha", "3", "--r", "0.25", "--sigma", "0.1",
                      "--p", "20000", "--n", "300", "--lam-grid", "1e-8,1,9",
                      "--no-include-zero"],
    "pd": ["phase-diagram"],
    "pd-small": ["phase-diagram", "--alpha", "1.5", "--r", "1.5", "--sigma", "0.5",
                 "--lambda0", "1e-2", "--n-grid", "1,1e4,5", "--ell-grid", "0,4,5"],
    **{f"est-{kernel}": ["estimate", "data.csv", "--kernel", kernel, "--gamma", gamma,
                         "--decomposition-out", f"est-{kernel}_dec.csv"]
       for kernel, gamma in (("linear", "1"), ("rbf", "0.05"), ("polynomial", "0.02"))},
    "slope": ["fit-slope", "mc0.csv", "--window", "1,5"],
}
# The --out of a case: a file name, or the prefix of the files it writes.
_OUT_SUFFIX = {"simulate": ".csv", "theory": ".csv", "optimal-lambda": ".csv",
               "fit-slope": ".json", "phase-diagram": "", "estimate": ""}


def _golden_key() -> str | None:
    config = _openblas._function("scipy_openblas_get_config64_", (), ctypes.c_char_p)
    if config is None:
        return None
    return f"numpy {np.__version__}; {config().decode()}"


def _write_dataset(path: str) -> None:
    """A planted linear-teacher CSV: 150 rows, 100 features of variance k^-2."""
    rng = np.random.default_rng(20260)
    k = np.arange(1, 101)
    features = rng.standard_normal((150, 100)) * k ** -1.0
    labels = features @ (k ** -1.0) + 0.01 * rng.standard_normal(150)
    np.savetxt(path, np.column_stack([features, labels]), delimiter=",", fmt="%.17g",
               header=",".join([f"x{j}" for j in k] + ["y"]), comments="")


def _digest(path: Path) -> str:
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(path.read_text())
        del manifest["wall_time_s"]
        manifest["outputs"] = [os.path.basename(out) for out in manifest["outputs"]]
        data = json.dumps(manifest, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def test_outputs_match_their_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    _write_dataset("data.csv")
    # One BLAS thread, because estimate's eigendecomposition rounds differently
    # at different thread counts.
    with _openblas._one_blas_thread(), contextlib.redirect_stdout(io.StringIO()):
        for name, argv in _CASES.items():
            assert cli.main([*argv, "--out", name + _OUT_SUFFIX[argv[0]]]) == 0, name
    digests = {path.name: _digest(path) for path in sorted(tmp_path.iterdir())
               if path.name != "data.csv"}
    key = _golden_key()
    recorded = json.loads(GOLDEN.read_text()).get(key)
    if recorded is None:
        pytest.skip(f"no golden digests for this build; computed:\n"
                    f"{json.dumps({key: digests}, indent=2, sort_keys=True)}")
    assert digests.keys() == recorded.keys()
    moved = sorted(name for name in digests if digests[name] != recorded[name])
    assert not moved, f"outputs differ from their golden digests: {moved}"
