import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krr_regimes
from krr_regimes import _openblas, dataspec
from krr_regimes.cli import main
from krr_regimes.dataspec import (
    KernelSpec,
    cumulative_tails,
    default_fit_range,
    estimate_alpha_r,
    feature_decomposition,
    gram_matrix,
    load_dataset_csv,
    tails_to_csv,
)
from krr_regimes.errors import (
    DegenerateRangeError,
    IndefiniteMatrixError,
    InvalidParameterError,
    SchemaError,
)
from krr_regimes.simulator import sample_dataset
from krr_regimes.spectrum import PowerLawParams, power_law_spectrum


def _rbf_scalar(a, b, gamma):
    d = a - b
    return float(np.exp(-0.5 * gamma * d @ d))


def _poly_scalar(a, b, gamma, degree):
    return float((1.0 + gamma * a @ b) ** degree)


def test_rbf_diagonal_is_one():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 7)) * 100
    K = gram_matrix(X, KernelSpec("rbf", gamma=1e-4))
    assert np.array_equal(np.diag(K), np.ones(5))


def test_polynomial_self_value():
    x = np.zeros((1, 1000))
    x[0, :] = 1.0  # <x, x> = 1000
    K = gram_matrix(x, KernelSpec("polynomial", gamma=1e-3, degree=5))
    assert K[0, 0] == pytest.approx(32.0, rel=1e-12)


def test_gram_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 4))
    for spec, scalar in [
        (KernelSpec("rbf", gamma=0.3), lambda a, b: _rbf_scalar(a, b, 0.3)),
        (KernelSpec("polynomial", gamma=0.1, degree=5),
         lambda a, b: _poly_scalar(a, b, 0.1, 5)),
        (KernelSpec("linear", gamma=2.0), lambda a, b: float(2.0 * a @ b)),
    ]:
        K = gram_matrix(X, spec)
        for i in range(3):
            for j in range(3):
                assert K[i, j] == pytest.approx(scalar(X[i], X[j]), rel=1e-10, abs=1e-12)
        assert np.array_equal(K, K.T)


def test_kernel_spec_validation():
    with pytest.raises(InvalidParameterError):
        KernelSpec("sigmoid", gamma=1.0)
    with pytest.raises(InvalidParameterError):
        KernelSpec("rbf", gamma=0.0)
    with pytest.raises(InvalidParameterError, match="finite"):
        KernelSpec("linear", math.inf)
    with pytest.raises(InvalidParameterError):
        KernelSpec("polynomial", gamma=1.0, degree=0)


def test_decomposition_isotropic_gram():
    n = 40
    rng = np.random.default_rng(2)
    y = rng.standard_normal(n)
    dec = _assert_decomposition_matches(n * np.eye(n), y)
    assert np.allclose(dec.eigenvalues, 1.0)
    assert _interpolation_error(n * np.eye(n), dec, y) < 1e-10


@pytest.mark.parametrize("n", [50, 200, 600])
def test_decomposition_invariants_random_spd(n):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 2 * n))
    K = X @ X.T
    y = rng.standard_normal(n)
    dec = _assert_decomposition_matches(K, y)
    assert _interpolation_error(K, dec, y) <= 1e-6 * np.abs(y).max()
    assert np.all(np.diff(dec.eigenvalues) <= 0)


def test_decomposition_floors_null_modes():
    # rank-deficient gram: the null modes carry no teacher coefficient
    n = 30
    rng = np.random.default_rng(5)
    X = rng.standard_normal((n, 10))
    K = X @ X.T
    y = X @ rng.standard_normal(10)  # in the column span, still interpolable
    dec = _assert_decomposition_matches(K, y)
    assert dec.n_floored == n - 10
    assert np.all(dec.theta_star[-dec.n_floored:] == 0.0)
    assert _interpolation_error(K, dec, y) <= 1e-6 * np.abs(y).max()


def test_decomposition_rejects_indefinite():
    with pytest.raises(IndefiniteMatrixError):
        feature_decomposition(-np.eye(5), np.ones(5))


@pytest.fixture(scope="module")
def planted_decomposition():
    # One planted run shared by the eigenvalue-recovery and pipeline tests
    # (the dense eigendecomposition dominates the cost).
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 3000))
    X, y = sample_dataset(sp, 4000, 0.0, 11)
    K = gram_matrix(X, KernelSpec("linear", gamma=1.0))
    return sp, feature_decomposition(K, y)


def test_planted_eigenvalues_recovered(planted_decomposition):
    sp, dec = planted_decomposition
    rel = np.abs(dec.eigenvalues[:20] - sp.eigenvalues[:20]) / sp.eigenvalues[:20]
    assert rel.max() < 0.05


def test_cumulative_tails_exact_power_law():
    k = np.arange(1, 100_001, dtype=float)
    lam = k ** -2.0
    cap, src = cumulative_tails(lam, np.ones_like(lam))
    idx = np.arange(10, 1001)
    slope = np.polyfit(np.log(idx), np.log(cap[idx - 1]), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.01)


def test_cumulative_tails_single_eigenvalue():
    cap, src = cumulative_tails(np.array([3.0]), np.array([2.0]))
    assert cap.tolist() == [3.0]
    assert src.tolist() == [6.0]


def test_cumulative_tails_planted_source_slope():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 100_000))
    cap, src = cumulative_tails(sp.eigenvalues, sp.teacher_sq)
    idx = np.arange(10, 1001)
    slope = np.polyfit(np.log(idx), np.log(src[idx - 1]), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.06)  # -2 r alpha, within 3%


def test_tails_nonincreasing_nonnegative():
    rng = np.random.default_rng(8)
    lam = np.sort(rng.random(500))[::-1]
    tsq = rng.random(500)
    cap, src = cumulative_tails(lam, tsq)
    for tail in (cap, src):
        assert np.all(tail >= 0)
        assert np.all(np.diff(tail) <= 1e-15)


def test_estimate_exact_planted():
    sp = power_law_spectrum(PowerLawParams(2.0, 0.5, 100_000))
    cap, src = cumulative_tails(sp.eigenvalues, sp.teacher_sq)
    est = estimate_alpha_r(cap, src, (10, 1000), (10, 1000))
    assert 1.96 <= est.alpha_hat <= 2.04
    assert 0.46 <= est.r_hat <= 0.54
    assert est.r2_capacity > 0.999 and est.r2_source > 0.999


def test_estimate_constant_tail_flags_boundary():
    tail = np.ones(1000)
    with pytest.warns(UserWarning):
        est = estimate_alpha_r(tail, tail, (10, 500), (10, 500))
    assert est.alpha_hat == pytest.approx(1.0, abs=1e-12)


def test_estimate_degenerate_range():
    cap = np.ones(100)
    with pytest.raises(DegenerateRangeError):
        estimate_alpha_r(cap, cap, (10, 12), (10, 50))
    with pytest.raises(DegenerateRangeError):
        estimate_alpha_r(cap, cap, (0, 50), (10, 50))


def test_default_fit_range():
    lo, hi = default_fit_range(4000)
    assert lo == max(2, round(4000 ** 0.1))
    assert hi == round(4000 ** 0.6)


def test_pipeline_recovers_planted_exponents(planted_decomposition):
    # full chain on simulator-generated data with a linear kernel
    _, dec = planted_decomposition
    cap, src = cumulative_tails(dec.eigenvalues, dec.theta_star ** 2)
    est = estimate_alpha_r(cap, src)
    assert est.alpha_hat == pytest.approx(2.0, rel=0.10)
    assert est.r_hat == pytest.approx(0.5, rel=0.15)


def test_decomposition_and_tails_csv(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 40))
    dec = feature_decomposition(X @ X.T, rng.standard_normal(20))
    dec_path = tmp_path / "dec.csv"
    dec.to_csv(dec_path)
    lines = dec_path.read_text().strip().splitlines()
    assert lines[0] == "k,eigenvalue,theta_star"
    assert len(lines) == 21
    cap, src = cumulative_tails(dec.eigenvalues, dec.theta_star ** 2)
    tails_path = tmp_path / "tails.csv"
    tails_to_csv(cap, src, tails_path)
    assert tails_path.read_text().splitlines()[0] == "k,cap_tail,src_tail"


def test_load_dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,y\n1.0,2.0,0.5\n3.0,4.0,-0.5\n")
    features, labels = load_dataset_csv(path)
    assert features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert labels.tolist() == [0.5, -0.5]
    no_label = tmp_path / "nolabel.csv"
    no_label.write_text("x1,x2\n1.0,2.0\n")
    features, labels = load_dataset_csv(no_label)
    assert labels is None
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n1.0,oops\n")
    with pytest.raises(SchemaError):
        load_dataset_csv(bad)


def _reference_load(path, label_column="y"):
    """The loader as it was before the C parser: one Python float per cell."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: missing header row")
        header = [h.strip() for h in header]
        rows = [row for row in reader if row]
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    try:
        values = np.array(rows, dtype=float)
    except ValueError as err:
        raise SchemaError(f"{path}: non-numeric entries ({err})") from err
    if values.shape[1] != len(header):
        raise SchemaError(f"{path}: row width differs from header width")
    if label_column in header:
        j = header.index(label_column)
        return np.delete(values, j, axis=1), values[:, j]
    return values, None


_MAX = float(np.finfo(float).max)
_CSV_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, _MAX, -_MAX, 1.0]


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(table=st.integers(1, 5).flatmap(lambda cols: st.lists(
           st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.sampled_from(_CSV_EXTREMES)), min_size=cols, max_size=cols),
           min_size=1, max_size=6)),
       label_at=st.integers(0, 5), style=st.data())
def test_loader_matches_reference_bit_for_bit(csv_dir, table, label_at, style):
    cols = len(table[0])
    header = [f"x{j}" for j in range(cols)]
    if label_at < cols:
        header[label_at] = "y"
    eol = style.draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for row in table:
        cells = [style.draw(st.sampled_from(["%.17g" % v, repr(v)])) for v in row]
        cells = [f'"{c}"' if style.draw(st.booleans()) else c for c in cells]
        lines += [""] * style.draw(st.integers(0, 2)) + [",".join(cells)]
    path = csv_dir / "table.csv"
    path.write_bytes((eol.join(lines) + eol * style.draw(st.integers(0, 2))).encode())
    features, labels = load_dataset_csv(path)
    want_features, want_labels = _reference_load(path)
    assert features.shape == want_features.shape
    assert features.tobytes() == want_features.tobytes()
    assert (labels is None) == (want_labels is None)
    if labels is not None:
        assert labels.tobytes() == want_labels.tobytes()
        assert labels.base is None  # a copy, not a view into the parsed table


@pytest.mark.parametrize("label_at", [0, 2, 4])
def test_loader_moves_the_label_column_across_row_blocks(tmp_path, label_at):
    # The label column is shifted out one block of rows at a time.
    table = np.random.default_rng(25).standard_normal((2 * dataspec._BLOCK + 37, 5))
    header = [f"x{j}" for j in range(5)]
    header[label_at] = "y"
    path = tmp_path / "table.csv"
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    features, labels = load_dataset_csv(path)
    assert features.tobytes() == np.delete(table, label_at, axis=1).tobytes()
    assert labels.tobytes() == table[:, label_at].tobytes()


@pytest.mark.parametrize("text, message", [
    ("", "missing header row"),
    ("x,y\n", "no data rows"),
    ("x,y\r\n\r\n\n", "no data rows"),
    ("x,y\n1,2\n3\n", "non-numeric"),
    ("x,y\n1,2\n# comment\n", "non-numeric"),
    ("x,y\n1,2\n   \n3,4\n", "non-numeric"),
    ("y\n1\n \n", "non-numeric"),
    ("x,y\n1,oops\n", "non-numeric"),
    ("x,y\n1_000,2\n", "non-numeric"),
    ("x,y\n1,2,3\n", "row width"),
    ("x, y ,y\n1,2,2\n", "column 'y' appears more than once"),
])
def test_loader_schema_errors(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match=message):
            load_dataset_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
def test_loader_rejects_non_finite_values(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"a,b,y\n1,2,3\n4,{cell},6\n7,8,nan\n")
    with pytest.raises(SchemaError, match="data row 2, column 'b'"):
        load_dataset_csv(path)


def _gram_reference(data, kernel):
    data = np.asarray(data, dtype=float)
    inner = data @ data.T
    if kernel.kind == "linear":
        gram = kernel.gamma * inner
    elif kernel.kind == "polynomial":
        gram = (1.0 + kernel.gamma * inner) ** kernel.degree
    else:
        sq = np.diag(inner)
        dist = np.clip(sq[:, None] + sq[None, :] - 2.0 * inner, 0.0, None)
        gram = np.exp(-0.5 * kernel.gamma * dist)
    gram = 0.5 * (gram + gram.T)
    if kernel.kind == "rbf":
        np.fill_diagonal(gram, 1.0)
    return gram


def _decomposition_reference(gram, labels, floor_rel=1e-12):
    """eigh's descending eigenvalues of the symmetrized gram / n_tot, the
    feature basis phi (eigenvectors times sqrt(n_tot)) and the labels'
    projections onto the eigenvectors, zero on the floored modes."""
    n_tot = gram.shape[0]
    evals, evecs = np.linalg.eigh(0.5 * (gram + gram.T) / n_tot)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    phi = np.sqrt(n_tot) * evecs[:, order]
    floor = floor_rel * evals[0] if evals[0] > 0 else 0.0
    proj = np.where(evals > floor, evecs[:, order].T @ labels, 0.0)
    return evals, phi, proj


# Largest |proj - proj_ref| / ||labels|| allowed, proj being a projection of the
# labels onto an eigenvector.  The projections from dstedc's eigenvectors and
# eigh's agree to rounding: at most 3.2e-16 measured on these tests' matrices.
_PROJECTION_BOUND = 1e-13


def _assert_theta_matches(dec, evals, proj, labels):
    """theta_star is zero on the floored modes and, converted back to the
    projections (theta = proj / sqrt(eigenvalue * n_tot)), within
    _PROJECTION_BOUND of proj on the others."""
    assert np.all(dec.theta_star[dec.n_tot - dec.n_floored:] == 0.0)
    gap = np.abs(dec.theta_star * np.sqrt(evals * dec.n_tot) - proj)
    assert gap.max() <= _PROJECTION_BOUND * np.linalg.norm(labels)


def _assert_decomposition_matches(gram, labels):
    dec = feature_decomposition(gram.copy(), labels)
    evals, _, proj = _decomposition_reference(gram, labels)
    assert dec.eigenvalues.tobytes() == evals.tobytes()
    assert dec.n_floored == int(np.sum(evals <= dec.floor))
    _assert_theta_matches(dec, evals, proj, labels)
    return dec


def _interpolation_error(gram, dec, labels):
    """max |phi Sigma^(1/2) theta_star - labels|, phi from eigh."""
    _, phi, _ = _decomposition_reference(gram, labels)
    return np.abs(phi * np.sqrt(dec.eigenvalues) @ dec.theta_star - labels).max()


_KERNELS = [KernelSpec("linear", gamma=1.7), KernelSpec("rbf", gamma=0.05),
            KernelSpec("polynomial", gamma=0.02, degree=5),
            KernelSpec("polynomial", gamma=0.02, degree=2)]


@pytest.mark.parametrize("kernel", _KERNELS, ids=lambda k: f"{k.kind}{k.degree}")
def test_gram_and_decomposition_bit_identical_to_reference(kernel):
    rng = np.random.default_rng(21)
    base = rng.standard_normal((70, 43))
    layouts = {"c": np.ascontiguousarray(base[:, :40]), "fortran": np.asfortranarray(base[:, :40]),
               "column_slice": base[:, 3:43], "strided": base[:, ::2],
               "rank_deficient": base[:, :12]}
    for data in layouts.values():
        gram = gram_matrix(data, kernel)
        assert gram.tobytes() == _gram_reference(data, kernel).tobytes()
        _assert_decomposition_matches(gram, rng.standard_normal(data.shape[0]))


# Below one block of the in-place passes, and a size that is not a multiple of it.
_BLOCKED_SIZES = [dataspec._BLOCK // 3, 2 * dataspec._BLOCK + 37]


@pytest.mark.parametrize("eigensolver", ["dsyevd", "eigh"])
@pytest.mark.parametrize("kernel", _KERNELS, ids=lambda k: f"{k.kind}{k.degree}")
@pytest.mark.parametrize("n", _BLOCKED_SIZES)
def test_blocked_gram_and_decomposition_bit_identical_to_reference(n, kernel, eigensolver,
                                                                   monkeypatch):
    if eigensolver == "eigh":
        monkeypatch.setattr(_openblas, "_lapack", lambda name: None)
    rng = np.random.default_rng(n)
    data = rng.standard_normal((n, 40))
    gram = gram_matrix(data, kernel)
    assert gram.tobytes() == _gram_reference(data, kernel).tobytes()
    dec = _assert_decomposition_matches(gram, rng.standard_normal(n))
    if kernel.kind == "linear":  # rank 40: the other modes fall below the floor
        assert dec.n_floored == n - 40


@pytest.mark.parametrize("eigensolver", ["dsyevd", "eigh"])
@pytest.mark.parametrize("n", _BLOCKED_SIZES)
def test_decomposition_bit_identical_with_tied_eigenvalues(n, eigensolver, monkeypatch):
    if eigensolver == "eigh":
        monkeypatch.setattr(_openblas, "_lapack", lambda name: None)
    y = np.random.default_rng(n).standard_normal(n)
    dec = _assert_decomposition_matches(n * np.eye(n), y)
    assert dec.n_floored == 0


def test_decomposition_bit_identical_on_nearly_symmetric_gram():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((60, 80))
    gram = X @ X.T
    y = rng.standard_normal(60)
    signed_zero = gram.copy()
    signed_zero[1, 0], signed_zero[0, 1] = -0.0, 0.0  # equal as numbers, not as bits
    _assert_decomposition_matches(signed_zero, y)
    gram[3, 7] *= 1 + 1e-12  # asymmetric, but well inside the 1e-8 check
    assert not np.array_equal(gram, gram.T)
    _assert_decomposition_matches(gram, y)


def test_gram_and_decomposition_bit_identical_above_half_max():
    # Doubling an entry above max / 2 overflows.  gram_matrix does not
    # symmetrize, so it keeps the product's finite bits; the decomposition,
    # which does, refuses such an entry instead of symmetrizing it to inf.
    data = np.zeros((4, 3))
    data[0, 0] = 1e154
    data[1:, :] = np.arange(9.0).reshape(3, 3)
    gram = gram_matrix(data, KernelSpec("linear", gamma=1.0))
    assert gram.tobytes() == (data @ data.T).tobytes()
    assert gram[0, 0] > _MAX / 2
    with pytest.raises(InvalidParameterError, match=r"entry 1(\.\d+)?e\+308 at \(0, 0\)"):
        feature_decomposition(gram, np.ones(4))
    with pytest.raises(InvalidParameterError, match=r"entry 1\.6\d*e\+308 at \(0, 0\)"):
        feature_decomposition(np.diag([0.9 * _MAX, 2.0, 1.0]), np.ones(3))


@pytest.mark.parametrize("kernel", _KERNELS, ids=lambda k: f"{k.kind}{k.degree}")
def test_gram_matrix_is_exactly_symmetric(kernel):
    # gram_matrix has no symmetrization pass: numpy's syrk product and the
    # kernel's elementwise steps keep it symmetric to the bit, whatever the
    # layout of the data, the loader's column view included.
    table = np.random.default_rng(23).standard_normal((2 * dataspec._BLOCK + 37, 41))
    for data in (np.ascontiguousarray(table[:, :40]), np.asfortranarray(table[:, :40]),
                 table[:, :-1]):
        gram = gram_matrix(data, kernel)
        assert gram.tobytes() == gram.T.tobytes()


def test_decomposition_rejects_entries_whose_symmetrization_overflows():
    for entry, at in ((1e308, (0, 0)), (-2.0 ** 1023, (1, 2))):
        gram = np.diag([8e307, 5e307, 2.5e307])
        gram[at] = gram[at[::-1]] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=re.escape(f"entry {entry} at {at}")):
                feature_decomposition(gram, np.ones(3))
    # Below 2**1023 an entry and its mirror add up to at most the largest float.
    below = np.diag([np.nextafter(2.0 ** 1023, 0.0), 5e307, 2.5e307])
    dec = _assert_decomposition_matches(below, np.ones(3))
    assert np.isfinite(dec.eigenvalues).all()


@pytest.mark.parametrize("floor_rel", [float("nan"), float("inf"), -1.0, 1.0])
def test_decomposition_rejects_bad_floor(floor_rel):
    with pytest.raises(InvalidParameterError):
        feature_decomposition(np.eye(3), np.ones(3), floor_rel=floor_rel)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decomposition_rejects_non_finite_labels(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match=f"non-finite value {bad} at row 1"):
            feature_decomposition(3 * np.eye(3), [1.0, bad, 2.0])


def test_decomposition_rejects_empty_gram():
    with pytest.raises(InvalidParameterError, match="at least one row"):
        feature_decomposition(np.zeros((0, 0)), np.zeros(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["linear", "rbf", "polynomial"])
def test_gram_rejects_non_finite_data(kind, bad):
    data = np.ones((4, 3))
    data[2, 1] = bad
    with pytest.raises(InvalidParameterError, match=f"non-finite value {bad} at row 2, column 1"):
        gram_matrix(data, KernelSpec(kind, gamma=1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decomposition_rejects_non_finite_gram(bad):
    gram = np.eye(4)
    gram[1, 2] = gram[2, 1] = bad
    with pytest.raises(InvalidParameterError, match=rf"non-finite entry {bad} at \(1, 2\)"):
        feature_decomposition(gram, np.ones(4))


def test_decomposition_consumes_only_a_writeable_c_contiguous_input():
    rng = np.random.default_rng(24)
    X = rng.standard_normal((60, 30))
    big = X @ X.T
    read_only = big[:30, :30].copy()
    read_only.flags.writeable = False
    layouts = {"c": big[:30, :30].copy(), "fortran": np.asfortranarray(big[:30, :30]),
               "strided": big[::2, ::2], "read_only": read_only}
    y = rng.standard_normal(30)
    for name, gram in layouts.items():
        evals, _, proj = _decomposition_reference(np.ascontiguousarray(gram), y)
        before = gram.tobytes(order="A")
        dec = feature_decomposition(gram, y)
        # Only the writeable C-contiguous float64 input is decomposed in its own
        # buffer, which then holds dstedc's orthogonal eigenvector matrix.
        assert (gram.tobytes(order="A") == before) == (name != "c"), name
        if name == "c" and _openblas._lapack("dstedc") is not None:
            assert np.abs(gram @ gram.T - np.eye(30)).max() <= 1e-12
        assert dec.eigenvalues.tobytes() == evals.tobytes(), name
        _assert_theta_matches(dec, evals, proj, y)


def _estimate_outputs(data: Path, outdir: Path) -> dict[str, dict]:
    """Each kernel's estimate report, and its tails and decomposition CSVs as
    columns of floats."""
    outputs = {}
    for kind in ("linear", "rbf", "polynomial"):
        base = outdir / kind
        assert main(["estimate", str(data), "--kernel", kind, "--gamma", "0.01",
                     "--out", str(base), "--decomposition-out", f"{base}_dec.csv"]) == 0
        outputs[kind + "_estimate.json"] = json.loads(Path(f"{base}_estimate.json").read_text())
        for suffix in ("_tails.csv", "_dec.csv"):
            with open(f"{base}{suffix}", newline="") as f:
                header, *rows = csv.reader(f)
            outputs[kind + suffix] = dict(zip(header, np.array(rows, dtype=float).T))
    return outputs


def test_decomposition_without_the_lapack_symbol_is_bit_identical(tmp_path, monkeypatch):
    rng = np.random.default_rng(25)
    X = rng.standard_normal((90, 40)) * np.arange(1, 41) ** -1.0
    y = X @ np.arange(1, 41) ** -0.5
    data = tmp_path / "data.csv"
    np.savetxt(data, np.column_stack([X, y]), fmt="%.17g", delimiter=",", comments="",
               header=",".join([f"x{j}" for j in range(40)] + ["y"]))
    grams = [gram_matrix(X, kernel) for kernel in _KERNELS]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # low-r2 fits on this small set
        (tmp_path / "in_place").mkdir()
        in_place = [feature_decomposition(g.copy(), y) for g in grams]
        in_place_files = _estimate_outputs(data, tmp_path / "in_place")
        monkeypatch.setattr(_openblas, "_lapack", lambda name: None)
        (tmp_path / "fallback").mkdir()
        fallback = [feature_decomposition(g.copy(), y) for g in grams]
        fallback_files = _estimate_outputs(data, tmp_path / "fallback")
    for a, b in zip(in_place, fallback):
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.n_floored == b.n_floored
        _assert_theta_matches(a, b.eigenvalues, b.theta_star * np.sqrt(b.eigenvalues * b.n_tot), y)
    # What the eigenvalues alone determine has the same bits; what the
    # projections enter agrees within the bound they imply.
    n, norm = len(y), np.linalg.norm(y)
    for kind in ("linear", "rbf", "polynomial"):
        got, want = ({suffix: files[kind + suffix] for suffix in ("_estimate.json", "_tails.csv",
                                                                   "_dec.csv")}
                     for files in (in_place_files, fallback_files))
        r_keys = ("r_hat", "r2_source", "predicted_exponents")
        report, want_report = got["_estimate.json"], want["_estimate.json"]
        assert ({k: v for k, v in report.items() if k not in r_keys}
                == {k: v for k, v in want_report.items() if k not in r_keys})
        for key in r_keys:
            assert report[key] == pytest.approx(want_report[key], rel=1e-12), key
        dec, want_dec = got["_dec.csv"], want["_dec.csv"]
        assert np.array_equal(dec["eigenvalue"], want_dec["eigenvalue"])
        gap = np.abs(dec["theta_star"] - want_dec["theta_star"])
        assert (gap * np.sqrt(want_dec["eigenvalue"] * n)).max() <= _PROJECTION_BOUND * norm
        tails, want_tails = got["_tails.csv"], want["_tails.csv"]
        assert np.array_equal(tails["cap_tail"], want_tails["cap_tail"])
        # src_tail sums proj^2 / n, so projection gaps of at most d move it by at
        # most 2 d sum |proj| / n <= 2 d sqrt(n) ||y|| / n, d being bound * ||y||.
        src_gap = np.abs(tails["src_tail"] - want_tails["src_tail"]).max()
        assert src_gap <= 2 * _PROJECTION_BOUND * norm ** 2 / np.sqrt(n)


def test_dsyevd_found_with_numpy_ilp64_openblas():
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):
        pytest.skip("numpy does not report its LAPACK build")
    if lapack.get("name") != "scipy-openblas" or \
            "USE64BITINT" not in lapack.get("openblas configuration", ""):
        pytest.skip(f"numpy links {lapack.get('name')!r}, not the ILP64 scipy-openblas")
    for name in ("dsytrd", "dormtr", "dstedc"):
        assert _openblas._lapack(name) is not None, name


@pytest.fixture(params=[1, 2], ids=["1-thread", "2-threads"])
def blas_threads(request):
    setter = _openblas._setter()
    if setter is None:
        pytest.skip("no OpenBLAS per-thread setter found")
    before = setter(request.param)
    yield
    setter(before)


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
@pytest.mark.parametrize("n", [1, 2, 26, 150, 600])
def test_eigh_projections_match_eigh(n, scale, blas_threads):
    # Past 2**485 and below 2**-485 the bits hold only because dsyevd's scaling
    # is mirrored.  The second matrix has each eigenvalue n // 2 times or more.
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n + 3))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    tied = (q * np.resize([2.0, 0.5], n)) @ q.T
    y, block = rng.standard_normal(n), np.asfortranarray(rng.standard_normal((n, 5)))
    for a in (x @ x.T / n, 0.5 * (tied + tied.T)):
        a *= scale
        want, vecs = np.linalg.eigh(a)
        for rhs in (y, block):
            got, proj = _openblas._eigh_projections(a.copy(), rhs.copy(order="F"))
            assert got.tobytes() == want.tobytes()
            bound = _PROJECTION_BOUND * np.linalg.norm(rhs, axis=0)
            assert (np.abs(proj - vecs.T @ rhs) <= bound).all()


# Resident memory just before a call on n x n data, and the peak after it, in
# units of one n x n float64 array.  The peak is VmHWM, the high-water mark of
# this process's own address space: ru_maxrss keeps the parent's peak across
# fork and exec.  The 40-column data is made first, and for the decomposition
# its Gram matrix too.  Kind "estimate" instead runs the estimate command three
# times on the data.csv of its working directory, writing its outputs there,
# and reports how far the third call's peak rose above the first call's.
_MEMORY_PROBE = """
import json, os, sys
import numpy as np
from krr_regimes import cli, dataspec

def vmhwm():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmHWM:"))

n, kind = int(sys.argv[1]), sys.argv[2]
if kind == "estimate":
    peaks = []
    for kernel in ("linear", "rbf", "polynomial"):
        cli.main(["estimate", "data.csv", "--kernel", kernel, "--gamma", "1", "--out", kernel,
                  "--decomposition-out", kernel + "_dec.csv"])
        peaks.append(vmhwm())
    with open("linear_estimate.json") as f:
        n = json.load(f)["n_tot"]
    print((peaks[2] - peaks[0]) / (n * n * 8))
    sys.exit()
x = np.random.default_rng(0).standard_normal((n, 40))
if kind == "decompose":
    gram = x @ x.T
    del x
with open("/proc/self/statm") as f:
    before = int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
if kind == "decompose":
    dataspec.feature_decomposition(gram, np.ones(n))
else:
    dataspec.gram_matrix(x, dataspec.KernelSpec(kind, gamma=0.01))
print((vmhwm() - before) / (n * n * 8))
"""


def _peak_memory(kind: str, workdir: Path | None = None) -> float:
    """The probe's reading for kind, run in workdir (by default the current directory)."""
    env = {**os.environ, "PYTHONPATH": str(Path(krr_regimes.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _MEMORY_PROBE, "1500", kind], env=env,
                          cwd=workdir, capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])  # after the estimate reports


def _has_vmhwm() -> bool:
    try:
        with open("/proc/self/status") as f:
            return any(line.startswith("VmHWM:") for line in f)
    except OSError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
def test_in_place_decomposition_peak_memory():
    # The in-place decomposition (dstedc's n^2 workspace plus OpenBLAS's own
    # buffers) measures about 1.09 on x86-64.  Each further n x n temporary adds
    # 1: the asymmetry check's difference, numpy's buffered copy in an in-place
    # gram + gram.T, an eigenvector matrix apart from the Gram buffer, or the
    # 2 n^2 workspace of dsyevd('V').
    if any(_openblas._lapack(name) is None for name in ("dsytrd", "dormtr", "dstedc")):
        pytest.skip("numpy's LAPACK lacks dsytrd, dormtr or dstedc; eigh needs more memory")
    assert _peak_memory("decompose") <= 1.5


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
@pytest.mark.parametrize("kind", ["linear", "rbf", "polynomial"])
def test_gram_matrix_peak_memory(kind):
    # The product itself is 1; the blocked kernel adds a few row blocks.  A
    # symmetrized copy, or rbf's full distance matrix, adds 1 each.
    assert _peak_memory(kind) <= 1.5


@pytest.mark.skipif(not _has_vmhwm(), reason="/proc/self/status has no VmHWM")
def test_repeated_estimate_peak_memory(tmp_path, monkeypatch):
    # Three estimate calls in one process, as a library user or notebook makes
    # them.  Measured on x86-64 with glibc, in units of one n x n float64 array:
    # the third call peaks 0.14-0.16 above the first, 0.46-0.48 with the heap
    # trim patched out, and 0.81-0.84 with the loader's column-deletion copy
    # as well.  Once the first call frees its mmapped Gram matrix, glibc serves
    # the later calls' tables and Gram matrices from the heap, and the
    # eigensolver's n^2 workspace would sit on top of their resident pages.
    if _openblas._malloc_trim() is None:
        pytest.skip("the C library has no malloc_trim")
    if any(_openblas._lapack(name) is None for name in ("dsytrd", "dormtr", "dstedc")):
        pytest.skip("numpy's LAPACK lacks dsytrd, dormtr or dstedc; eigh needs more memory")
    rng = np.random.default_rng(24)
    k = np.arange(1, 401, dtype=float)
    features = rng.standard_normal((1000, k.size)) / k
    header = ",".join([f"x{j}" for j in range(k.size)] + ["y"])
    np.savetxt(tmp_path / "data.csv", np.column_stack([features, features @ (1 / k)]),
               fmt="%.17g", delimiter=",", header=header, comments="")
    assert _peak_memory("estimate", tmp_path) <= 0.3
    # The trim only hands pages back: without it the outputs keep their bytes.
    monkeypatch.setattr(_openblas, "_trim_heap", lambda: None)
    for kernel in ("linear", "rbf", "polynomial"):
        base = tmp_path / f"{kernel}_no_trim"
        assert main(["estimate", str(tmp_path / "data.csv"), "--kernel", kernel, "--gamma", "1",
                     "--out", str(base), "--decomposition-out", f"{base}_dec.csv"]) == 0
        for suffix in ("_estimate.json", "_tails.csv", "_dec.csv"):
            got = Path(f"{base}{suffix}").read_bytes()
            assert got == (tmp_path / f"{kernel}{suffix}").read_bytes(), (kernel, suffix)
