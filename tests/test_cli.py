"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import witnesslab
import witnesslab.witnesses
from witnesslab import cli
from witnesslab import linalg as la
from witnesslab import verify
from witnesslab.cli import main, parse_algebra, sector_basis_permutation
from witnesslab.verify import check_entanglement_witness
from witnesslab.witnesses import (QubitQWParams, ShiftedSwapParams, qubit_qw,
                                  shifted_swap_factors, shifted_swap_stack,
                                  swap_operator)

RT2 = math.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_text(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# -------------------------------------------------------------- construct

def test_construct_swap(tmp_path, capsys):
    out = tmp_path / "swap3.json"
    code, _, _ = run_cli(capsys, "construct", "swap", "--d", "3",
                         "--out", str(out))
    assert code == 0
    m = la.load_matrix(out)
    assert m.shape == (9, 9)
    assert np.array_equal(m, swap_operator(3))


def test_construct_swap_paper_basis(tmp_path, capsys):
    out = tmp_path / "swap3p.json"
    code, _, _ = run_cli(capsys, "construct", "swap", "--d", "3",
                         "--paper-basis", "--out", str(out))
    assert code == 0
    m = la.load_matrix(out)
    perm = sector_basis_permutation(3)
    assert np.array_equal(m, swap_operator(3)[np.ix_(perm, perm)])
    doc = json.loads(out.read_text())
    assert doc["provenance"]["params"]["basis"] == "sector"


def test_construct_shifted_swap(tmp_path, capsys):
    out = tmp_path / "shift.json"
    code, stdout, _ = run_cli(capsys, "construct", "shifted-swap",
                              "--d", "2", "--xi", "0.5", "--phi", "0",
                              "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["provenance"]["factorization_residual"] < 1e-10
    x = la.load_matrix(tmp_path / "shift.X.json")
    y = la.load_matrix(tmp_path / "shift.Y.json")
    q = la.load_matrix(tmp_path / "shift.Q.json")
    assert la.frobenius(x @ y + y @ x - q) < 1e-10
    assert la.frobenius(q - 0.5 * np.eye(4) - swap_operator(2)) < 1e-12


def test_construct_shifted_swap_rejects_boundary(capsys):
    code, _, err = run_cli(capsys, "construct", "shifted-swap",
                           "--xi", "1.0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("xi", ["1e-320", "1e-20", "1e-12"])
def test_construct_shifted_swap_refuses_lost_precision(xi, capsys):
    # The 1/(2 sqrt(xi)) scale leaves {X, Y} far from xi*I + S here.
    code, out, err = run_cli(capsys, "construct", "shifted-swap",
                             "--xi", xi, "--d", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("d", [2, 3, 8])
def test_shifted_swap_stack_holds_at_the_smallest_scan_shift(d):
    xi = 1.0 / (cli.MAX_SCAN_ROWS + 1)
    *_, residual = shifted_swap_stack(np.array([xi, 0.5]), d=d)
    assert (residual <= la.TOL * d).all()


def test_construct_bell_provenance(tmp_path, capsys):
    out = tmp_path / "bell.json"
    code, _, _ = run_cli(capsys, "construct", "bell", "--sign", "minus",
                         "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["provenance"]["s_bell_residual"] < 1e-12
    m = la.load_matrix(out)
    w = la.hermitian_eigensystem(m).eigenvalues
    assert abs(w[0] - (2 - 2 * RT2)) < 1e-10


def test_construct_qubit_qw(tmp_path, capsys):
    out = tmp_path / "qw.json"
    code, stdout, _ = run_cli(capsys, "construct", "qubit-qw",
                              "--alpha", "1", "--beta", "1",
                              "--u", "0,0,1", "--v", "1,0,0",
                              "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["provenance"]["lambda_minus"] < 0
    q = la.load_matrix(tmp_path / "qw.Q.json")
    assert q.shape == (2, 2)


def test_construct_avr_identity_residual(tmp_path, capsys):
    for kind in ("avr-asym", "avr-sym"):
        out = tmp_path / f"{kind}.json"
        code, stdout, _ = run_cli(capsys, "construct", kind,
                                  "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["provenance"]["identity_residual"] < 1e-12


def test_construct_to_stdout(capsys):
    code, stdout, _ = run_cli(capsys, "construct", "swap", "--d", "2")
    assert code == 0
    doc = json.loads(stdout)
    assert np.array_equal(la.matrix_from_json(doc["Q"]), swap_operator(2))


def test_construct_rejects_bad_bloch_vector(capsys):
    code, _, err = run_cli(capsys, "construct", "qubit-qw", "--u", "1,2")
    assert code == 2
    assert "error" in err


def test_construct_avr_reports_spectrum(capsys):
    code, stdout, _ = run_cli(capsys, "construct", "avr-asym")
    assert code == 0
    spectrum = json.loads(stdout)["provenance"]["spectrum"]
    assert len(spectrum) == 4
    assert abs(spectrum[0] - (12 - 8 * RT2)) < 1e-10


# ----------------------------------------------------------------- verify

def test_verify_ew_swap(tmp_path, capsys):
    op = tmp_path / "swap2.json"
    la.save_matrix(op, swap_operator(2))
    code, stdout, _ = run_cli(capsys, "verify", "ew", "--in", str(op),
                              "--dims", "2", "2")
    assert code == 0
    report = json.loads(stdout)
    assert report["verdict"] == "confirmed"
    assert abs(report["min_eigenvalue"] + 1.0) < 1e-12


def test_verify_qw_identity_refuted(tmp_path, capsys):
    op = tmp_path / "eye.json"
    la.save_matrix(op, np.eye(4))
    code, stdout, _ = run_cli(capsys, "verify", "qw", "--in", str(op),
                              "--alg", "2;2")
    assert code == 0
    assert json.loads(stdout)["verdict"] == "refuted"


def test_verify_both_bell(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "construct", "bell",
                         "--out", str(tmp_path / "bell.json"))
    assert code == 0
    code, stdout, _ = run_cli(capsys, "verify", "both",
                              "--in", str(tmp_path / "bell.json"),
                              "--dims", "2", "2")
    assert code == 0
    report = json.loads(stdout)
    assert report["ew"]["verdict"] == "confirmed"
    assert report["qw"]["verdict"] == "confirmed"


def test_verify_round_trip_matches_in_memory(tmp_path, capsys):
    op_path = tmp_path / "swap2.json"
    la.save_matrix(op_path, swap_operator(2))
    code, stdout, _ = run_cli(capsys, "verify", "ew", "--in", str(op_path),
                              "--dims", "2", "2", "--seed", "42",
                              "--restarts", "32")
    assert code == 0
    in_memory = check_entanglement_witness(swap_operator(2), 2, 2,
                                           restarts=32, seed=42)
    assert json.loads(stdout) == json.loads(
        json.dumps(in_memory.to_json()))


def test_verify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "ew", "--in", str(bad),
                           "--dims", "2", "2")
    assert code == 2
    assert err


def test_verify_rejects_bool_dim(tmp_path, capsys):
    bad = tmp_path / "bool_dim.json"
    bad.write_text(json.dumps({"dim": True, "re": [1.0], "im": [0.0]}))
    code, _, err = run_cli(capsys, "verify", "qw", "--in", str(bad),
                           "--dims", "1", "1")
    assert code == 2
    assert err.startswith("error:")


def test_verify_missing_file(capsys):
    code, _, _ = run_cli(capsys, "verify", "ew", "--in", "/nonexistent.json",
                         "--dims", "2", "2")
    assert code == 2


def test_verify_dim_mismatch(tmp_path, capsys):
    op = tmp_path / "swap2.json"
    la.save_matrix(op, swap_operator(2))
    code, _, _ = run_cli(capsys, "verify", "ew", "--in", str(op),
                         "--dims", "2", "3")
    assert code == 2


def test_verify_rejects_nonpositive_dims(tmp_path):
    # -2 x -2 matches the dimension 4 of swap2; numpy's reshape used to
    # fail on it instead.
    op = tmp_path / "swap2.json"
    la.save_matrix(op, swap_operator(2))
    env = dict(os.environ,
               PYTHONPATH=str(Path(witnesslab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "witnesslab.cli", "verify", "ew",
         "--in", str(op), "--dims", "-2", "-2"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert "-2x-2" in proc.stderr


@pytest.mark.parametrize("mode,dims", [("qw", ("0", "4")),
                                       ("both", ("4", "0")),
                                       ("ew", ("0", "4"))])
def test_verify_rejects_nonpositive_dims_in_every_mode(tmp_path, capsys,
                                                      mode, dims):
    # verify qw used to name an internal field ("blocks_a must contain
    # positive integers") instead of the --dims it was given.
    op = tmp_path / "swap2.json"
    la.save_matrix(op, swap_operator(2))
    code, out, err = run_cli(capsys, "verify", mode, "--in", str(op),
                             "--dims", *dims)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err == f"error: dims must be positive, got {'x'.join(dims)}\n"


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    op = tmp_path / "swap2.json"
    la.save_matrix(op, swap_operator(2))
    monkeypatch.setenv("WITNESSLAB_SEED", "7")
    code, with_env, _ = run_cli(capsys, "verify", "ew", "--in", str(op),
                                "--dims", "2", "2")
    assert code == 0
    monkeypatch.delenv("WITNESSLAB_SEED")
    code, with_flag, _ = run_cli(capsys, "verify", "ew", "--in", str(op),
                                 "--dims", "2", "2", "--seed", "7")
    assert code == 0
    assert with_env == with_flag


def test_seed_env_is_read_on_every_call(capsys, monkeypatch):
    # The parser is built once; the environment default is not.
    seeds = []
    for env in ("5", "9"):
        monkeypatch.setenv("WITNESSLAB_SEED", env)
        code, out, _ = run_cli(capsys, "probe", "lemma", "--alg", "2;2",
                               "--trials", "1")
        assert code == 0
        seeds.append(json.loads(out)["seed"])
    assert seeds == [5, 9]


@pytest.mark.parametrize("argv", [
    ["construct", "swap"],
    ["verify", "ew", "--in", "missing.json", "--dims", "2", "2"],
    ["scan", "chi-threshold"],
    ["probe", "lemma", "--alg", "2;2", "--trials", "1", "--seed", "3"],
    ["--version"],
])
def test_seed_env_not_an_integer_exits_2_everywhere(capsys, monkeypatch,
                                                    argv):
    monkeypatch.setenv("WITNESSLAB_SEED", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: WITNESSLAB_SEED must be an integer, got 'abc'\n"


def test_seed_env_not_an_integer():
    env = dict(os.environ, WITNESSLAB_SEED="abc",
               PYTHONPATH=str(Path(witnesslab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "witnesslab.cli", "probe", "lemma",
         "--alg", "2;2", "--trials", "1"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: WITNESSLAB_SEED")


# ------------------------------------------------------------------- scan

def test_scan_chi_threshold(tmp_path, capsys):
    out = tmp_path / "chi.csv"
    code, _, _ = run_cli(capsys, "scan", "chi-threshold",
                         "--steps", "2000", "--out", str(out))
    assert code == 0
    header, rows = read_csv_text(out.read_text())
    assert header == ["re_ab", "exp_S", "exp_EBell"]
    assert len(rows) == 2000
    data = np.array([[float(x) for x in row] for row in rows])
    assert np.isfinite(data).all()
    # spot values: S detects at -0.1 where Bell does not; both detect -0.3
    idx = int(np.argmin(np.abs(data[:, 0] + 0.1)))
    assert data[idx, 1] < 0 and data[idx, 2] > 0
    idx = int(np.argmin(np.abs(data[:, 0] + 0.3)))
    assert data[idx, 1] < 0 and data[idx, 2] < 0
    # crossings localized within one grid step
    re_ab, exp_s, exp_e = data[:, 0], data[:, 1], data[:, 2]
    flips = np.nonzero(np.sign(exp_s[:-1]) != np.sign(exp_s[1:]))[0]
    assert any(min(re_ab[i + 1], re_ab[i]) <= 0.0 <= max(re_ab[i + 1],
                                                         re_ab[i])
               for i in flips)
    threshold = -(RT2 - 1) / 2
    flips = np.nonzero(np.sign(exp_e[:-1]) != np.sign(exp_e[1:]))[0]
    assert any(min(re_ab[i + 1], re_ab[i]) <= threshold
               <= max(re_ab[i + 1], re_ab[i]) for i in flips)


def test_scan_fig1(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    code, _, _ = run_cli(capsys, "scan", "fig1", "--steps", "8",
                         "--out", str(out))
    assert code == 0
    header, rows = read_csv_text(out.read_text())
    assert header == ["u", "v", "bound", "min_ratio"]
    assert len(rows) == 64
    by_uv = {(float(r[0]), float(r[1])): r for r in rows}
    row = by_uv[(1.0, 1.0)]
    assert abs(float(row[2]) - 1.0) < 1e-12
    assert float(row[3]) < -0.99
    row = by_uv[(0.5, 0.5)]
    assert abs(float(row[2]) + 8.0) < 1e-12
    assert row[3] == ""             # never a witness there


def test_scan_ratio_theta(tmp_path, capsys):
    out = tmp_path / "ratio.csv"
    code, _, _ = run_cli(capsys, "scan", "ratio-theta", "--steps", "200",
                         "--out", str(out))
    assert code == 0
    header, rows = read_csv_text(out.read_text())
    assert header == ["theta", "lambda_plus", "lambda_minus", "ratio",
                      "ratio_formula"]
    for row in rows:
        ratio, formula = float(row[3]), float(row[4])
        assert abs(ratio - formula) < 1e-10


def test_scan_xi_sweep(tmp_path, capsys):
    out = tmp_path / "xi.csv"
    code, _, _ = run_cli(capsys, "scan", "xi-sweep", "--steps", "50",
                         "--d", "2", "--out", str(out))
    assert code == 0
    header, rows = read_csv_text(out.read_text())
    assert header == ["xi", "residual", "min_eig_X", "min_eig_Y",
                      "min_eig_shifted"]
    for row in rows:
        xi, residual, min_x, min_y, min_s = map(float, row)
        assert residual < 1e-10
        assert min_x > -1e-9 and min_y > -1e-9
        assert abs(min_s - (xi - 1.0)) < 1e-10


def test_scan_rejects_bad_grid(capsys):
    code, _, _ = run_cli(capsys, "scan", "chi-threshold", "--steps", "1")
    assert code == 2


@pytest.mark.parametrize("kind", ["chi-threshold", "fig1", "ratio-theta",
                                  "xi-sweep"])
def test_scan_rejects_zero_steps(tmp_path, capsys, kind):
    # --steps 0 is an invalid grid, not a request for the default one
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(capsys, "scan", kind, "--steps", "0",
                           "--out", str(out))
    assert code == 2
    assert err.startswith("error:")
    assert not out.exists()


def _ratio_theta_rows(steps):
    """The per-row loop the stacked ratio-theta scan replaced."""
    rows = []
    for theta in np.linspace(0.0, math.pi, steps + 2)[1:-1]:
        params = QubitQWParams(1.0, 1.0, (0.0, 0.0, 1.0),
                               (math.sin(theta), 0.0, math.cos(theta)))
        _, _, q, _, _ = qubit_qw(params)
        w = la.hermitian_eigensystem(q).eigenvalues
        lam_minus, lam_plus = float(w[0]), float(w[-1])
        rows.append((float(theta), lam_plus, lam_minus,
                     lam_minus / lam_plus, -math.tan(theta / 4.0) ** 2))
    return rows


def _xi_sweep_rows(steps, d, phi):
    """The per-row loop the stacked xi-sweep scan replaced."""
    s_op = swap_operator(d)
    rows = []
    for xi in np.linspace(0.0, 1.0, steps + 2)[1:-1]:
        x, y, residual = shifted_swap_factors(
            ShiftedSwapParams(xi=float(xi), phi=phi, d=d))
        min_x = float(la.hermitian_eigensystem(x).eigenvalues[0])
        min_y = float(la.hermitian_eigensystem(y).eigenvalues[0])
        shifted = float(xi) * np.eye(d * d) + s_op
        min_s = float(la.hermitian_eigensystem(shifted).eigenvalues[0])
        rows.append((float(xi), float(residual), min_x, min_y, min_s))
    return rows


def _reference_csv(header, rows):
    """CSV text as the per-cell writer the scans used to have wrote it."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if x is None else repr(float(x)) for x in row])
    return buf.getvalue()


def _scan_csv(tmp_path, kind, rows):
    path = tmp_path / f"{kind}.csv"
    cli._write_csv(path, cli._SCAN_HEADERS[kind], rows)
    return path.read_bytes().decode()


_STACKED_SCANS = (
    [("ratio-theta", steps, {}) for steps in (1, 2, 3, 60, 1000)]
    + [("xi-sweep", steps, {"d": 2, "phi": 0.7})
       for steps in (1, 2, 3, 60, 1000)]
    + [("xi-sweep", 60, {"d": d, "phi": phi})
       for d in (2, 3, 4) for phi in (0.0, 0.7, -2.0, 3.1)])


@pytest.mark.parametrize("kind, steps, kw", _STACKED_SCANS)
def test_stacked_scan_matches_per_row_loop(tmp_path, kind, steps, kw):
    if kind == "ratio-theta":
        got, want = cli.ratio_theta_scan(steps), _ratio_theta_rows(steps)
    else:
        got = cli.xi_sweep_scan(steps, **kw)
        want = _xi_sweep_rows(steps, kw["d"], kw["phi"])
    header = cli._SCAN_HEADERS[kind]
    assert _scan_csv(tmp_path, kind, got) == _reference_csv(header, want)


@pytest.mark.parametrize("kind, d, block_rows", [
    ("ratio-theta", 2, 16),     # 4^3 // 2^2
    ("xi-sweep", 2, 4),         # 4^3 // 4^2
    ("xi-sweep", 3, 1),         # a 9 x 9 row is a block of its own
    ("xi-sweep", 4, 1)])
def test_stacked_scan_spans_blocks(tmp_path, monkeypatch, kind, d,
                                   block_rows):
    # blocks hold at most MAX_D^3 matrix entries; a smaller cap makes the
    # 61 rows span several blocks
    monkeypatch.setattr(cli, "MAX_D", 4)
    builder = "qubit_qw_stack" if kind == "ratio-theta" \
        else "shifted_swap_stack"
    sizes = []
    real = getattr(cli, builder)

    def spy(*args):
        out = real(*args)
        sizes.append(len(out[2]))           # rows of Q, or of xi*I + S
        return out

    monkeypatch.setattr(cli, builder, spy)
    if kind == "ratio-theta":
        got, want = cli.ratio_theta_scan(61), _ratio_theta_rows(61)
    else:
        got, want = cli.xi_sweep_scan(61, d, 1.3), _xi_sweep_rows(61, d, 1.3)
    assert sizes == [block_rows] * (61 // block_rows) + (
        [61 % block_rows] if 61 % block_rows else [])
    header = cli._SCAN_HEADERS[kind]
    assert _scan_csv(tmp_path, kind, got) == _reference_csv(header, want)


@pytest.mark.parametrize("kind, steps", [("chi-threshold", 400),
                                         ("fig1", 12)])
def test_scan_csv_writer_formats_as_before(tmp_path, kind, steps):
    rows = (cli.chi_threshold_scan(steps) if kind == "chi-threshold"
            else witnesslab.witnesses.fig1_surfaces(steps))
    assert any(None in row for row in rows) == (kind == "fig1")
    header = cli._SCAN_HEADERS[kind]
    assert _scan_csv(tmp_path, kind, rows) == _reference_csv(header, rows)


def test_scan_rejects_non_finite_phase(capsys, monkeypatch):
    monkeypatch.setattr(cli, "hermitian_eigenvalues", _refuse)
    for phi in ("nan", "inf", "-inf"):
        code, out, err = run_cli(capsys, "scan", "xi-sweep", f"--phi={phi}")
        assert (code, out, err) == (2, "", "error: phi must be finite\n")


def _run_quiet(argv):
    """Exit code, stdout, stderr and the warnings raised by one call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def _assert_clean_exit(code, err, caught):
    event(f"exit {code}")
    assert code in (0, 2), err
    assert "Traceback" not in err and "Warning" not in err
    assert [str(w.message) for w in caught] == []


_REAL = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "1e-320",
                     "5e-324", "1e200", "1e308", "-1e308", "x", ""]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
_SMALL_INT = st.one_of(st.integers(-3, 6).map(str),
                       st.sampled_from(["33", "1000001", "nan", "1.5", ""]))


@settings(deadline=None, max_examples=80)
@given(kind=st.sampled_from(["chi-threshold", "fig1", "ratio-theta",
                             "xi-sweep"]),
       steps=st.one_of(st.integers(-3, 40).map(str),
                       st.sampled_from(["1001", "1000001", "nan", ""])),
       d=_SMALL_INT, phi=_REAL)
def test_scan_fuzz_never_tracebacks(kind, steps, d, phi):
    code, out, err, caught = _run_quiet(
        ["scan", kind, f"--steps={steps}", f"--d={d}", f"--phi={phi}"])
    _assert_clean_exit(code, err, caught)
    if code == 0:
        header, rows = read_csv_text(out)
        assert header == cli._SCAN_HEADERS[kind]
        assert len(rows) == (int(steps) ** 2 if kind == "fig1"
                             else int(steps))


_VEC = st.one_of(st.tuples(_REAL, _REAL, _REAL).map(",".join),
                 st.sampled_from(["1,0", "0,0,1,0", "a,b,c", ""]))


@settings(deadline=None, max_examples=120)
@given(kind=st.sampled_from(["swap", "bell", "avr-asym", "avr-sym",
                             "qubit-qw", "shifted-swap"]),
       d=_SMALL_INT, xi=_REAL, phi=_REAL, alpha=_REAL, beta=_REAL,
       u=_VEC, v=_VEC)
def test_construct_fuzz_never_tracebacks(kind, d, xi, phi, alpha, beta, u,
                                         v):
    code, out, err, caught = _run_quiet(
        ["construct", kind, f"--d={d}", f"--xi={xi}", f"--phi={phi}",
         f"--alpha={alpha}", f"--beta={beta}", f"--u={u}", f"--v={v}"])
    _assert_clean_exit(code, err, caught)
    if code == 0:
        doc = json.loads(out, parse_constant=_refuse)   # no NaN, Infinity
        assert "Q" in doc and doc["provenance"]["kind"] == kind
        for name in set(doc) - {"provenance"}:
            la.matrix_from_json(doc[name])


_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.floats() | st.sampled_from([10 ** 400, 1e308]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "re", "im", "x"]), inner,
                      max_size=4),
    max_leaves=10)
_NUMBERS = st.lists(st.integers(-2, 2) | st.floats(-2, 2), min_size=1,
                    max_size=4)
_MATRIX_DOC = st.fixed_dictionaries(
    {"dim": st.sampled_from([1, 2, 0, -1, True, 1.0, "1", None]),
     "re": _NUMBERS | _JSON_VALUE, "im": _NUMBERS | _JSON_VALUE})


_FILE_TEXT = st.one_of(
    _MATRIX_DOC.map(json.dumps), _JSON_VALUE.map(json.dumps),
    st.text(max_size=20),
    st.sampled_from(["", "[" * 50_000, '{"dim": 1',
                     '{"dim": 1, "re": [NaN], "im": [0]}',
                     '{"dim": 1, "re": [1e999], "im": [0]}']))


@settings(deadline=None, max_examples=120)
@given(text=_FILE_TEXT,
       argv=st.sampled_from([["qw", "--alg", "1"], ["qw", "--alg", "2"],
                             ["qw", "--alg", "1,1"],
                             ["ew", "--dims", "2", "2", "--restarts", "2"]]))
def test_verify_fuzz_on_malformed_files(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        code, out, err, caught = _run_quiet(["verify", *argv, "--in", path])
    _assert_clean_exit(code, err, caught)
    if code == 0:
        assert json.loads(out)["verdict"]


_EXTREME = st.one_of(
    st.floats(-1e308, 1e308),
    st.builds(lambda sign, k: sign * 10.0 ** k, st.sampled_from([1, -1]),
              st.integers(-323, 308)),
    st.sampled_from([0.0, 1e308, -1e308, 1.3e154, 5e-324]))


@settings(deadline=None, max_examples=120)
@given(argv=st.sampled_from([(["qw", "--alg", "1"], 1),
                             (["qw", "--alg", "1,1"], 2),
                             (["qw", "--alg", "2;2"], 4),
                             (["ew", "--dims", "2", "2", "--restarts", "2"], 4),
                             (["both", "--dims", "1", "2", "--restarts", "2"],
                              2)]),
       hermitian=st.booleans(), data=st.data())
def test_verify_fuzz_on_extreme_entries(argv, hermitian, data):
    # Well-formed files whose entries run up to +-1e308: the checks refuse
    # what they cannot scale (exit 2) or finish without a warning.
    argv, dim = argv
    entries = st.lists(_EXTREME, min_size=dim * dim, max_size=dim * dim)
    re = np.array(data.draw(entries)).reshape(dim, dim)
    im = np.array(data.draw(entries)).reshape(dim, dim)
    if hermitian:
        lower = np.tril_indices(dim, -1)
        re[lower] = re.T[lower]
        im[lower] = -im.T[lower]
        np.fill_diagonal(im, 0.0)
    doc = {"dim": dim, "re": re.ravel().tolist(), "im": im.ravel().tolist()}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, out, err, caught = _run_quiet(["verify", *argv, "--in", path])
    _assert_clean_exit(code, err, caught)
    if code == 0:
        doc = json.loads(out)
        reports = doc.values() if argv[0] == "both" else [doc]
        assert all(report["verdict"] for report in reports)


def test_verify_malformed_entries_exit_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    for doc in ({"dim": 1, "re": {"a": 1}, "im": [0]},
                {"dim": 1, "re": ["1"], "im": [0]},
                {"dim": 1, "re": [True], "im": [0]}):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "qw", "--alg", "1",
                                 "--in", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: matrix JSON 're'/'im' must be lists of "
                       "numbers\n")


def _refuse(*_args, **_kwargs):
    raise AssertionError("built an operator, a scan or a probe above the cap")


@pytest.fixture
def no_builders(monkeypatch):
    """Replace every size-driven builder, so a value over a cap is
    checked without allocating anything."""
    for name in ("swap_operator", "shifted_swap_factors",
                 "chi_threshold_scan", "ratio_theta_scan", "xi_sweep_scan",
                 "theorem1_probe", "classical_lemma_test"):
        monkeypatch.setattr(cli, name, _refuse)
    monkeypatch.setattr(witnesslab.witnesses, "fig1_surfaces", _refuse)
    return monkeypatch


@pytest.mark.parametrize("argv", [
    ["construct", "swap", "--d", "200"],
    ["construct", "shifted-swap", "--d", "33"],
    ["scan", "xi-sweep", "--d", "33"],
    ["scan", "chi-threshold", "--steps", "1000000000"],
    ["scan", "ratio-theta", "--steps", "1000001"],
    ["scan", "fig1", "--steps", "1001"],         # 1,002,001 rows
    ["probe", "lemma", "--alg", "2000", "--trials", "1000"],
    ["probe", "theorem1", "--alg", "6;6"],
    ["probe", "lemma", "--alg", "1,1,1;11"],     # 3 x 11 = 33
])
def test_sizes_above_the_caps_exit_2(no_builders, capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "above the cap" in err


def test_sizes_at_the_caps_pass(no_builders, tmp_path, capsys):
    no_builders.setattr(cli, "swap_operator", lambda d: np.eye(1))
    no_builders.setattr(witnesslab.witnesses, "fig1_surfaces",
                        lambda steps: [])
    no_builders.setattr(cli, "classical_lemma_test",
                        verify.classical_lemma_test)
    assert cli.MAX_D == 32 and cli.MAX_SCAN_ROWS == 10**6
    assert cli.MAX_PROBE_DIM == 32
    code, _, _ = run_cli(capsys, "construct", "swap", "--d", "32",
                         "--out", str(tmp_path / "s.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "scan", "fig1", "--steps", "1000")
    assert (code, out) == (0, "u,v,bound,min_ratio\r\n")
    code, out, _ = run_cli(capsys, "probe", "lemma", "--alg", "4,4;2,2",
                           "--trials", "1")
    assert code == 0 and json.loads(out)["algebra"]["blocks_b"] == [2, 2]


# ------------------------------------------------------------------ probe

def test_probe_theorem1_commutative(capsys):
    code, stdout, _ = run_cli(capsys, "probe", "theorem1",
                              "--alg", "1,1;1,1", "--trials", "2000")
    assert code == 0
    report = json.loads(stdout)
    assert report["violations"] == 0
    assert report["commutative"]


def test_probe_theorem1_noncommutative(capsys):
    code, stdout, _ = run_cli(capsys, "probe", "theorem1", "--alg", "2;2",
                              "--trials", "500")
    assert code == 0
    report = json.loads(stdout)
    assert report["witness_found"]
    assert report["witness_lambda_min"] < 0
    assert report["witness_x"]["dim"] == 4


def test_probe_lemma(capsys):
    code, stdout, _ = run_cli(capsys, "probe", "lemma", "--alg", "2;2",
                              "--trials", "2000")
    assert code == 0
    report = json.loads(stdout)
    assert report["passed"]


_ALG_TOKEN = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", " ", "x", "1.5", "1e3", "+2", "-", "99999999999",
                     "٣", "2 2", "\x00"]))
_ALG_SIDE = st.lists(_ALG_TOKEN, min_size=0, max_size=3).map(",".join)
_GOOD_SIDE = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(
    lambda sizes: ",".join(map(str, sizes)))


@settings(deadline=None, max_examples=80)
@given(alg=st.one_of(st.tuples(_GOOD_SIDE, _GOOD_SIDE).map(";".join),
                     _GOOD_SIDE, _ALG_SIDE,
                     st.tuples(_ALG_SIDE, _ALG_SIDE).map(";".join),
                     st.text(max_size=8)),
       kind=st.sampled_from(["lemma", "theorem1"]),
       trials=st.integers(-2, 300),
       seed=st.one_of(st.none(), st.integers(-2, 2**64).map(str),
                      st.sampled_from(["abc", "", "1.0", "0x10"])),
       env=st.one_of(st.none(), st.integers(-2, 2**40).map(str),
                     st.sampled_from(["abc", "", " 7 "])))
def test_probe_fuzz_never_tracebacks(alg, kind, trials, seed, env):
    argv = ["probe", kind, f"--alg={alg}", f"--trials={trials}"]
    if seed is not None:
        argv.append(f"--seed={seed}")
    environ = {} if env is None else {"WITNESSLAB_SEED": env}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, environ), \
            redirect_stdout(out), redirect_stderr(err):
        if env is None:
            os.environ.pop("WITNESSLAB_SEED", None)
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["kind"] == kind


def test_probe_bad_algebra_string(capsys):
    code, _, _ = run_cli(capsys, "probe", "lemma", "--alg", "2;x")
    assert code == 2


# --------------------------------------------------------------- plumbing

def test_parse_algebra():
    alg = parse_algebra("2,1;3")
    assert alg.blocks_a == (2, 1) and alg.blocks_b == (3,)
    alg = parse_algebra("2,2")
    assert alg.blocks_a == (2, 2) and alg.blocks_b == (1,)
    with pytest.raises(ValueError):
        parse_algebra(";2")


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert main(["probe", "theorem1"]) == 2


def test_sector_permutation_qubits_is_identity():
    assert list(sector_basis_permutation(2)) == [0, 1, 2, 3]


def test_sector_permutation_qutrits():
    # {00,01,10,02,20,11,12,21,22} in lexicographic indices
    assert list(sector_basis_permutation(3)) == [0, 1, 3, 2, 6, 4, 5, 7, 8]
