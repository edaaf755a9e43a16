"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import witnesslab
from witnesslab import linalg as la
from witnesslab.cli import main, parse_algebra, sector_basis_permutation
from witnesslab.verify import check_entanglement_witness
from witnesslab.witnesses import swap_operator

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
