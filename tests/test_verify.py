"""Tests for the witness certifiers and randomized probes."""

import json
import math
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from witnesslab import linalg as la
from witnesslab import states as ws
from witnesslab import verify
from witnesslab.algebra import (BipartiteAlgebra, _random_block_raw,
                                block_layout, classical_state, full_algebra,
                                in_algebra, random_algebra_element,
                                require_in_algebra, sector_indices,
                                sector_labels)
from witnesslab.cli import main
from witnesslab.verify import (check_entanglement_witness,
                               check_quantumness_witness,
                               classical_lemma_test, ew_implies_qw,
                               theorem1_probe)
from witnesslab.witnesses import (QubitQWParams, ShiftedSwapParams, bell_chsh,
                                  qubit_qw, shifted_swap_factors,
                                  standard_bell_settings, swap_operator)

RT2 = math.sqrt(2.0)
DATA = Path(__file__).parent / "data"
# Report JSON keys, in the order they are written.
REPORT_KEYS = ["verdict", "min_classical_expectation",
               "min_product_expectation", "min_eigenvalue", "certificate",
               "violating_vertex", "restarts_used", "tolerance", "heuristic"]
PROBE_KEYS = ["kind", "algebra", "trials", "violations", "passed", "seed",
              "commutative", "witness_found", "fallback_used",
              "witness_lambda_min", "min_anticommutator_expectation",
              "min_cross_term", "max_identity_residual", "witness_x",
              "witness_y"]


# ------------------------------------------------------- quantumness side

def test_qw_swap_confirmed():
    report = check_quantumness_witness(swap_operator(2), full_algebra(2, 2))
    assert report.verdict == "confirmed"
    assert abs(report.min_classical_expectation - 0.5) < 1e-12
    assert abs(report.min_eigenvalue + 1.0) < 1e-12
    assert not report.heuristic
    # the certificate reproduces the extremal expectation
    val = la.expectation(report.certificate_state, swap_operator(2))
    assert abs(val - report.min_eigenvalue) < 1e-9


def test_qw_identity_refuted():
    report = check_quantumness_witness(np.eye(4), full_algebra(2, 2))
    assert report.verdict == "refuted"
    assert report.min_eigenvalue >= 1.0 - 1e-12
    # even the no-negativity refutation carries a reproducible certificate
    val = la.expectation(report.certificate_state, np.eye(4))
    assert abs(val - report.min_eigenvalue) < 1e-9


def test_qw_embedded_qubit_witness():
    # Q (x) I over the full 2x2 algebra stays a quantumness witness
    _, _, q, _, lam_minus = qubit_qw(
        QubitQWParams(1.0, 1.0, (0, 0, 1), (1, 0, 0)))
    q_total = la.tensor(q, np.eye(2))
    report = check_quantumness_witness(q_total, full_algebra(2, 2))
    assert report.verdict == "confirmed"
    assert abs(report.min_eigenvalue - lam_minus) < 1e-10
    # only classical vertex of the full algebra is I/4
    assert abs(report.min_classical_expectation
               - np.trace(q_total).real / 4.0) < 1e-12


def test_qw_vertex_violation_certificate():
    # -swap is negative on the classical vertex I/4
    report = check_quantumness_witness(-swap_operator(2), full_algebra(2, 2))
    assert report.verdict == "refuted"
    assert report.violating_vertex == 0
    val = la.expectation(report.certificate_state, -swap_operator(2))
    assert abs(val - report.min_classical_expectation) < 1e-9


def test_qw_reducible_algebra():
    alg = BipartiteAlgebra((2,), (1, 1))
    # swap in the interleaved embedding: diag blocks on indices {0,2},{1,3}
    q = np.zeros((4, 4))
    q[np.ix_([0, 2], [0, 2])] = np.array([[0.0, 1.0], [1.0, 0.0]])
    q[np.ix_([1, 3], [1, 3])] = np.eye(2)
    report = check_quantumness_witness(q, alg)
    assert report.verdict == "confirmed"
    assert abs(report.min_classical_expectation - 0.0) < 1e-12
    assert abs(report.min_eigenvalue + 1.0) < 1e-12


def test_qw_rejects_operator_outside_algebra():
    alg = BipartiteAlgebra((1, 1), (2,))
    q = la.tensor(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2))
    with pytest.raises(ValueError):
        check_quantumness_witness(q, alg)


def test_qw_rejects_non_hermitian():
    with pytest.raises(ValueError):
        check_quantumness_witness(np.triu(np.ones((4, 4))),
                                  full_algebra(2, 2))


# Layouts of tests/test_algebra.py, plus two whose Hermiticity test runs
# over several blocks of rows (n = 144 and n = 108).
QW_LAYOUTS = [((2,), (2,)), ((2,), (1, 1)), ((2, 1), (3,)), ((1, 2), (2, 1)),
              ((3, 1, 2), (1, 3)), ((1,) * 5, (2, 1, 1)),
              ((1,) * 12, (1,) * 12), ((5, 4, 3), (2, 3, 4))]
QW_DEFECTS = ("none", "off-sector pair", "Hermiticity pair", "both", "nan",
              "inf", "non-square", "wrong dimension")


def qw_validation_reference(q, alg):
    """The message with which the two-step validation refuses ``q``, or
    None if it accepts it."""
    try:
        require_in_algebra(la.hermitian_with_norm(q, "witness")[0], alg)
    except ValueError as err:
        return str(err)
    return None


def qw_validation_written_out(q, alg):
    """The same validation with the formulas written out: the whole
    |q - q^dag| and the sector mask, against TOL * max(1, ||q||_F)."""
    try:
        q = la.as_matrix(q)
    except ValueError as err:
        return str(err)
    cutoff = 1e-9 * max(1.0, la.frobenius(q))
    if not np.abs(q - q.conj().T).max() <= cutoff:
        return "witness is not Hermitian within tolerance"
    if q.shape != (alg.total_dim,) * 2:
        return (f"shape {q.shape} does not match algebra dimension "
                f"{alg.total_dim}")
    label = sector_labels(alg)
    off = np.abs(q[label[:, None] != label[None, :]])
    if off.size and not off.max() <= cutoff:
        return ("operator is not in the algebra "
                "(support crosses sector boundaries)")
    return None


@settings(deadline=None, max_examples=150)
@given(layout=st.sampled_from(QW_LAYOUTS), defect=st.sampled_from(QW_DEFECTS),
       factor=st.sampled_from([0.5, 2.0]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**31))
def test_qw_validates_as_the_two_step_composition(layout, defect, factor,
                                                  scale, seed):
    # One entry moved by factor * TOL * max(1, ||q||_F), or a malformed q:
    # the check accepts and refuses what the composition does, with its
    # message.  An off-sector pair moved on both sides stays Hermitian; a
    # one-sided move ("both", and the wrong dimension) also breaks
    # Hermiticity, whose message must win at 2x.
    alg = BipartiteAlgebra(*layout)
    n = alg.total_dim
    rng = np.random.default_rng(seed)
    q = scale * random_algebra_element(
        full_algebra(n + 1, 1) if defect == "wrong dimension" else alg, seed)
    step = factor * 1e-9 * max(1.0, la.frobenius(q)) * rng.choice(
        [1, -1, 1j, -1j])
    label = sector_labels(alg)
    off = np.argwhere(label[:, None] != label[None, :])
    i, j = rng.choice(np.argwhere(~np.eye(n, dtype=bool)))
    if defect in ("off-sector pair", "both") and len(off):
        i, j = rng.choice(off)
        q[j, i] += np.conj(step) if defect == "off-sector pair" else 0.0
    if defect in ("off-sector pair", "both", "Hermiticity pair",
                  "wrong dimension"):
        q[i, j] += step
    elif defect in ("nan", "inf"):
        q[i, j] = np.nan if defect == "nan" else np.inf
    elif defect == "non-square":
        q = q[:, 1:] if seed % 2 else q[1:]
    expected = qw_validation_reference(q, alg)
    assert qw_validation_written_out(q, alg) == expected
    try:
        check_quantumness_witness(q, alg)
    except ValueError as err:
        assert str(err) == expected
    else:
        assert expected is None
    if factor == 2.0 and defect in ("both", "wrong dimension"):
        assert expected == "witness is not Hermitian within tolerance"


def dense_qw_reference(q, alg):
    """The quantumness check written out densely: one full classical state
    per vertex and one eigensolve per sector, in block_layout order.
    Returns (verdict, classical minimum, min eigenvalue, vertex,
    certificate)."""
    q = la.as_matrix(q)
    shape = (len(alg.blocks_a), len(alg.blocks_b))
    vertices, values = [], []
    min_eig, bottom = math.inf, None
    for j, (k, l, _, _) in enumerate(block_layout(alg)):
        onehot = np.zeros(shape)
        onehot[k, l] = 1.0
        vertices.append(classical_state(alg, onehot))
        values.append(la.expectation(vertices[-1], q))
        idx = sector_indices(alg)[j]
        w, v = np.linalg.eigh(la.hermitian_part(q[np.ix_(idx, idx)]))
        if w[0] < min_eig:
            min_eig = float(w[0])
            bottom = np.zeros(alg.total_dim, dtype=complex)
            bottom[idx] = v[:, 0]
    worst = int(np.argmin(values))
    if min(values) < -la.TOL:
        return "refuted", min(values), min_eig, worst, vertices[worst]
    verdict = "confirmed" if min_eig < -la.TOL else "refuted"
    return verdict, min(values), min_eig, None, ws.pure_state(bottom)


def assert_matches_dense(q, alg):
    verdict, classical, min_eig, vertex, cert = dense_qw_reference(q, alg)
    report = check_quantumness_witness(q, alg)
    assert report.verdict == verdict
    assert report.min_classical_expectation == classical
    assert report.min_eigenvalue == min_eig
    assert report.violating_vertex == vertex
    assert np.array_equal(report.certificate_state, cert)
    return report


def sample_witness(alg, seed, lift):
    """A random element with sub-TOL anti-Hermitian noise; ``lift`` moves
    its smallest vertex value to 0.1, so the vertices pass."""
    q = random_algebra_element(alg, seed)
    q = q + 1e-12j * random_algebra_element(alg, seed + 1)
    if lift:
        classical = dense_qw_reference(q, alg)[1]
        q = q + (0.1 - classical) * np.eye(alg.total_dim)
    return q


@settings(deadline=None, max_examples=60)
@given(blocks_a=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       blocks_b=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       seed=st.integers(0, 2**31), lift=st.booleans())
def test_qw_matches_dense_reference(blocks_a, blocks_b, seed, lift):
    alg = BipartiteAlgebra(tuple(blocks_a), tuple(blocks_b))
    assert_matches_dense(sample_witness(alg, seed, lift), alg)


@pytest.mark.parametrize("seed,lift", [(3, False), (4, True)])
def test_qw_matches_dense_reference_144_sectors(seed, lift):
    alg = BipartiteAlgebra((1,) * 12, (1,) * 12)
    report = assert_matches_dense(sample_witness(alg, seed, lift), alg)
    # One-dimensional sectors: the eigenvalues are the vertex values.
    assert report.verdict == "refuted"
    assert (report.violating_vertex is None) == lift


@settings(deadline=None, max_examples=60)
@given(blocks_a=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       blocks_b=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       seed=st.integers(0, 2**31))
def test_qw_certificate_is_the_dense_one_bit_for_bit(blocks_a, blocks_b,
                                                      seed):
    # Off its sector, pure_state's projector holds -0.0 wherever the signs
    # of the factors give it; the report prints those zeros as "-0.0".
    alg = BipartiteAlgebra(tuple(blocks_a), tuple(blocks_b))
    q = sample_witness(alg, seed, lift=True)
    cert = dense_qw_reference(q, alg)[4]
    report = check_quantumness_witness(q, alg)
    assert report.certificate_state.tobytes() == cert.tobytes()


def test_qw_ties_go_to_first_sector_in_layout_order():
    # The size-3 sector comes first in the layout but is solved after the
    # size-2 stack; both reach -1.
    alg = BipartiteAlgebra((3, 2), (1,))
    q = np.diag([2.0, 0.0, -1.0, 1.0, -1.0])
    report = assert_matches_dense(q, alg)
    assert report.verdict == "confirmed"
    assert np.array_equal(report.certificate_state,
                          ws.pure_state(np.eye(5)[2]))
    report = assert_matches_dense(-np.eye(5), alg)
    assert report.violating_vertex == 0


def test_qw_imaginary_vertex_residual_raises(tmp_path):
    # Hermitian within TOL, but vertex 1 (indices 1, 2) has tr(v q) with
    # imaginary part -5e-10, beyond RESIDUAL_TOL.
    alg = BipartiteAlgebra((1, 2), (1,))
    q = np.diag([1.0, 2.0 - 5e-10j, 2.0 - 5e-10j])
    la.hermitian_with_norm(q)
    vertex = classical_state(alg, [[0.0], [1.0]])
    with pytest.raises(ValueError) as dense:
        la.expectation(vertex, q)
    with pytest.raises(ValueError) as fast:
        check_quantumness_witness(q, alg)
    assert str(fast.value) == str(dense.value)
    assert "-5.000e-10" in str(fast.value)
    path = tmp_path / "q.json"
    la.save_matrix(path, q)
    assert main(["verify", "qw", "--in", str(path), "--alg", "1,2;1"]) == 2


def test_qw_144_sectors_builds_no_dense_vertices():
    # One dense 144 x 144 state per vertex took about 48 MB.
    alg = BipartiteAlgebra((1,) * 12, (1,) * 12)
    q = random_algebra_element(alg, 5)
    tracemalloc.start()
    try:
        check_quantumness_witness(q, alg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


METAMORPHIC_ALGEBRAS = [((2, 1), (3,)), ((1, 2), (2, 1)), ((3, 1, 2), (1, 3)),
                        ((1, 1, 1), (1, 1)), ((1,) * 5, (2, 1, 1))]
METAMORPHIC_SHIFTS = (-3.0, -0.4, 0.6, 4.0)


def metamorphic_witnesses(blocks):
    """Random elements shifted so that every case clears TOL by far."""
    alg = BipartiteAlgebra(*blocks)
    for seed in range(12):
        q = random_algebra_element(alg, seed)
        for shift in METAMORPHIC_SHIFTS:
            yield alg, q + shift * np.eye(alg.total_dim)


def assert_far_from_tol(report, scale=1.0):
    assert abs(report.min_classical_expectation) * scale > 1e3 * la.TOL
    assert abs(report.min_eigenvalue) * scale > 1e3 * la.TOL


@pytest.mark.parametrize("blocks", METAMORPHIC_ALGEBRAS)
@pytest.mark.parametrize("k", [-3, 5])
def test_qw_invariant_under_power_of_two_scaling(blocks, k):
    for alg, q in metamorphic_witnesses(blocks):
        base = check_quantumness_witness(q, alg)
        scaled = check_quantumness_witness(2.0 ** k * q, alg)
        assert_far_from_tol(base, min(1.0, 2.0 ** k))
        assert scaled.verdict == base.verdict
        assert scaled.violating_vertex == base.violating_vertex
        assert np.array_equal(scaled.certificate_state,
                              base.certificate_state)
        assert scaled.min_classical_expectation == \
            2.0 ** k * base.min_classical_expectation
        assert scaled.min_eigenvalue == 2.0 ** k * base.min_eigenvalue


def reversed_a_blocks(alg):
    """The algebra with its A blocks reversed, and the full-space index
    permutation p that carries an operator q of ``alg`` to q[p][:, p]."""
    offsets = np.cumsum((0,) + alg.blocks_a)
    perm_a = np.concatenate([np.arange(offsets[k], offsets[k + 1])
                             for k in reversed(range(len(alg.blocks_a)))])
    p = (perm_a[:, None] * alg.dim_b + np.arange(alg.dim_b)).ravel()
    return BipartiteAlgebra(alg.blocks_a[::-1], alg.blocks_b), p


@pytest.mark.parametrize("blocks", METAMORPHIC_ALGEBRAS)
def test_qw_invariant_under_reversed_a_blocks(blocks):
    n_a, n_b = len(blocks[0]), len(blocks[1])
    for alg, q in metamorphic_witnesses(blocks):
        rev, p = reversed_a_blocks(alg)
        base = check_quantumness_witness(q, alg)
        moved = check_quantumness_witness(q[np.ix_(p, p)], rev)
        assert_far_from_tol(base)
        assert moved.verdict == base.verdict
        assert moved.min_eigenvalue == base.min_eigenvalue
        assert moved.min_classical_expectation == pytest.approx(
            base.min_classical_expectation, rel=1e-12, abs=0.0)
        if base.violating_vertex is None:
            assert moved.violating_vertex is None
        else:
            k, l = divmod(base.violating_vertex, n_b)
            assert moved.violating_vertex == (n_a - 1 - k) * n_b + l


# ------------------------------------------------------ entanglement side

def test_ew_swap_confirmed():
    report = check_entanglement_witness(swap_operator(2), 2, 2, seed=42)
    assert report.verdict == "confirmed"
    assert abs(report.min_product_expectation) < 1e-9
    assert abs(report.min_eigenvalue + 1.0) < 1e-12
    assert report.heuristic
    # certificate is the singlet projector and reproduces the eigenvalue
    fid = la.expectation(report.certificate_state, ws.bell_state("psi-"))
    assert abs(fid - 1.0) < 1e-9
    val = la.expectation(report.certificate_state, swap_operator(2))
    assert abs(val - report.min_eigenvalue) < 1e-9


def test_ew_bell_confirmed():
    e = bell_chsh(standard_bell_settings(+1))
    report = check_entanglement_witness(e, 2, 2, seed=42)
    assert report.verdict == "confirmed"
    assert report.min_product_expectation >= -1e-9
    assert abs(report.min_eigenvalue - (2 - 2 * RT2)) < 1e-10


def test_ew_embedded_qubit_witness_refuted():
    _, _, q, _, lam_minus = qubit_qw(
        QubitQWParams(1.0, 1.0, (0, 0, 1), (1, 0, 0)))
    q_total = la.tensor(q, np.eye(2))
    report = check_entanglement_witness(q_total, 2, 2, seed=42)
    assert report.verdict == "refuted"
    assert report.min_product_expectation < -1e-3
    assert abs(report.min_product_expectation - lam_minus) < 1e-9
    # separable certificate reproduces the violation
    val = la.expectation(report.certificate_state, q_total)
    assert abs(val - report.min_product_expectation) < 1e-9
    pt_min = la.hermitian_eigensystem(la.partial_transpose(
        report.certificate_state, 2, 2)).eigenvalues[0]
    assert pt_min >= -1e-9          # certificate really is separable


def test_ew_identity_refuted_without_negativity():
    report = check_entanglement_witness(np.eye(4), 2, 2, seed=1)
    assert report.verdict == "refuted"
    assert report.min_eigenvalue >= 1.0 - 1e-12


@pytest.mark.parametrize("shift,verdict", [
    (0.0, "confirmed"),
    (0.5e-12, "confirmed"),         # inside the noise floor 1e-12 * ||E||_F
    (1e-10, "inconclusive"),
    (5e-10, "inconclusive"),
    (2e-9, "refuted"),              # below -TOL = -1e-9
])
def test_ew_verdict_boundaries(shift, verdict):
    # swap has product minimum exactly 0, so S - shift*I sits at -shift
    e = swap_operator(2) - shift * np.eye(4)
    report = check_entanglement_witness(e, 2, 2, seed=42)
    assert report.verdict == verdict
    assert abs(report.min_product_expectation + shift) < 1e-12


def test_ew_seesaw_deterministic():
    e = bell_chsh(standard_bell_settings(+1))
    first = check_entanglement_witness(e, 2, 2, restarts=8, seed=11)
    second = check_entanglement_witness(e, 2, 2, restarts=8, seed=11)
    assert json.dumps(first.to_json()) == json.dumps(second.to_json())


def test_ew_dimension_mismatch():
    with pytest.raises(ValueError):
        check_entanglement_witness(swap_operator(2), 2, 3)


@pytest.mark.parametrize("dims", [(-2, -2), (-1, -4), (0, 4), (4, 0)])
def test_ew_rejects_nonpositive_dims(dims):
    message = f"dims must be positive, got {dims[0]}x{dims[1]}"
    with pytest.raises(ValueError, match=message):
        check_entanglement_witness(swap_operator(2), *dims)
    with pytest.raises(ValueError, match=message):
        ew_implies_qw(swap_operator(2), *dims)


def test_ew_report_json_schema():
    report = check_entanglement_witness(swap_operator(2), 2, 2)
    assert list(report.to_json()) == REPORT_KEYS
    report = check_quantumness_witness(swap_operator(2), full_algebra(2, 2))
    assert list(report.to_json()) == REPORT_KEYS


def test_both_and_probe_report_json_key_order(tmp_path, capsys):
    path = tmp_path / "swap2.json"
    la.save_matrix(path, swap_operator(2))
    assert main(["verify", "both", "--in", str(path), "--dims", "2", "2",
                 "--restarts", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["ew", "qw"]
    assert list(doc["ew"]) == list(doc["qw"]) == REPORT_KEYS
    for report in (classical_lemma_test(full_algebra(2, 2), 3),
                   theorem1_probe(BipartiteAlgebra((1, 1), (1, 1)), 3),
                   theorem1_probe(full_algebra(2, 2), 3)):
        assert list(report.to_json()) == PROBE_KEYS


def test_ew_qutrit_swap():
    report = check_entanglement_witness(swap_operator(3), 3, 3, seed=42)
    assert report.verdict == "confirmed"
    assert report.min_product_expectation >= -1e-9
    assert abs(report.min_eigenvalue + 1.0) < 1e-12


def _embedded_pair_witness(d_a, d_b):
    # partial transpose of a maximally entangled qubit pair embedded in
    # d_a x d_b: nonnegative on products, bottom eigenvalue -1/2
    psi = np.zeros(d_a * d_b, dtype=complex)
    psi[0 * d_b + 0] = psi[1 * d_b + 1] = 1 / RT2
    return la.partial_transpose(np.outer(psi, psi.conj()), d_a, d_b)


@pytest.mark.parametrize("d_a,d_b", [(2, 3), (3, 2)])
def test_ew_rectangular_dims(d_a, d_b):
    # 2x3 and 3x2 exercise both orientations of the party contractions
    witness = _embedded_pair_witness(d_a, d_b)
    report = check_entanglement_witness(witness, d_a, d_b, seed=42)
    assert report.verdict == "confirmed"
    assert report.min_product_expectation >= -1e-9
    assert abs(report.min_eigenvalue + 0.5) < 1e-12


def test_ew_consistency_with_sampler():
    # sampler and certifier agree that these witnesses are nonnegative
    # on separable states
    for op in (swap_operator(2), bell_chsh(standard_bell_settings(+1))):
        for seed in range(100):
            rho, _ = ws.random_separable(2, 2, seed=seed)
            assert la.expectation(rho, op) >= -1e-9


def choi_witness():
    """Choi matrix of Choi's positive, indecomposable map on 3x3,
    X -> D(X) - X with D(X) diagonal, entries 2 x_ii + x_{i+2,i+2}: an
    entanglement witness with product minimum 0."""
    w = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            unit = np.zeros((3, 3))
            unit[i, j] = 1.0
            diag = np.diag([2 * unit[k, k] + unit[(k + 2) % 3, (k + 2) % 3]
                            for k in range(3)])
            w += np.kron(unit, diag - unit)
    return w


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


# The starts as they were drawn before they were stacked: one unit vector
# at a time, a (real, then imaginary), then b, per restart.

def _unit_draw(rng, d) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("count", [1, 7, 32])
@pytest.mark.parametrize("seed", [0, 17, 42, 2**31 - 1])
def test_stacked_draw_matches_unit_draws(count, seed):
    for d_a in range(1, 5):
        for d_b in range(1, 5):
            rng = np.random.default_rng(seed)
            a, b = ws.random_unit_pairs(rng, count, d_a, d_b)
            rng = np.random.default_rng(seed)
            pairs = [(_unit_draw(rng, d_a), _unit_draw(rng, d_b))
                     for _ in range(count)]
            assert np.array_equal(a, np.array([p[0] for p in pairs]))
            assert np.array_equal(b, np.array([p[1] for p in pairs]))


# The see-saw as it ran before restarts were stacked: one start at a
# time, two 4-index contractions and a 5-operand evaluation per sweep.

def _product_value(e4, a, b) -> float:
    return float(np.einsum("i,j,ijkl,k,l->", a.conj(), b.conj(),
                           e4, a, b).real)


def _seesaw_from(e4, a, b):
    """Alternate bottom-eigenvector updates until the value stalls."""
    value = _product_value(e4, a, b)
    for _ in range(verify.SEESAW_MAX_ITERS):
        m_a = np.einsum("ijkl,j,l->ik", e4, b.conj(), b)
        _, vecs = np.linalg.eigh(la.hermitian_part(m_a))
        a = vecs[:, 0]
        m_b = np.einsum("ijkl,i,k->jl", e4, a.conj(), a)
        _, vecs = np.linalg.eigh(la.hermitian_part(m_b))
        b = vecs[:, 0]
        new_value = _product_value(e4, a, b)
        if abs(new_value - value) < verify.SEESAW_CONVERGENCE:
            value = new_value
            break
        value = new_value
    return value, a, b


def seesaw_per_restart(e4, a, b):
    runs = [_seesaw_from(e4, a_r, b_r) for a_r, b_r in zip(a, b)]
    values, a, b = zip(*runs)
    return np.array(values), np.array(a), np.array(b)


def assert_matches_per_restart(e, d_a, d_b, restarts, seed):
    """The stacked see-saw against the sweep-only reference.

    The bound on the minimum is one-way: the reference stops on a small
    move and can end above its own local minimum, which the Newton finish
    reaches, so the change may land lower (by 3e-12 * scale on the
    ``@example`` below) but never more than 1e-12 * scale higher, and
    never below the spectrum.
    """
    with mock.patch.object(verify, "_seesaw", seesaw_per_restart):
        ref = check_entanglement_witness(e, d_a, d_b, restarts, seed)
    report = check_entanglement_witness(e, d_a, d_b, restarts, seed)
    scale = max(1.0, la.frobenius(e))
    product = report.min_product_expectation
    assert product <= ref.min_product_expectation + 1e-12 * scale
    assert product >= report.min_eigenvalue - 1e-12 * scale
    assert ((report.verdict, report.heuristic, report.restarts_used,
             report.min_eigenvalue)
            == (ref.verdict, ref.heuristic, ref.restarts_used,
                ref.min_eigenvalue))
    product_backed = report.verdict == "inconclusive" or product < -la.TOL
    if not product_backed:
        assert np.array_equal(report.certificate_state, ref.certificate_state)
    value = la.expectation(report.certificate_state, e)
    backs = product if product_backed else report.min_eigenvalue
    assert abs(value - backs) <= 1e-9 * scale
    return report


@settings(deadline=None, max_examples=30)
@given(d_a=st.integers(1, 4), d_b=st.integers(1, 4),
       restarts=st.integers(1, 8), seed=st.integers(0, 2**31),
       lift=st.booleans())
# The Newton finish lands 3.0e-12 * scale below the reference here.
@example(d_a=4, d_b=4, restarts=1, seed=842682600, lift=True)
def test_ew_stacked_seesaw_matches_per_restart(d_a, d_b, restarts, seed,
                                               lift):
    e = random_hermitian(d_a * d_b, seed)
    if lift:
        # Move the product minimum to 0.1, so the verdict is confirmed
        # wherever a negative eigenvalue is left.
        minimum = check_entanglement_witness(
            e, d_a, d_b).min_product_expectation
        e = e + (0.1 - minimum) * np.eye(d_a * d_b)
    assert_matches_per_restart(e, d_a, d_b, restarts, seed)


def test_ew_stacked_seesaw_matches_per_restart_on_choi():
    # 8 of Choi's 32 starts run to SEESAW_MAX_ITERS inside the stack.
    report = assert_matches_per_restart(choi_witness(), 3, 3, 32, 42)
    assert (report.verdict, report.heuristic) == ("confirmed", True)


def test_ew_restarts_beyond_one_stack(monkeypatch):
    sizes = []

    def recording(e4, a, b):
        sizes.append(len(a))
        return seesaw_per_restart(e4, a, b)

    def all_tied(e4, a, b):
        return np.full(len(a), -1.0), a, b

    e = random_hermitian(9, 5)
    monkeypatch.setattr(verify, "PROBE_BLOCK", 5)
    assert_matches_per_restart(e, 3, 3, 8, 17)
    monkeypatch.setattr(verify, "_seesaw", recording)
    check_entanglement_witness(e, 3, 3, 8, 17)
    assert sizes == [5, 3]
    # Ties across stacks go to the first start, as the strict < did.
    monkeypatch.setattr(verify, "_seesaw", all_tied)
    report = check_entanglement_witness(e, 3, 3, 8, 17)
    rng = np.random.default_rng(17)
    first = np.kron(_unit_draw(rng, 3), _unit_draw(rng, 3))
    assert np.array_equal(report.certificate_state, ws.pure_state(first))


@pytest.mark.parametrize("seed,minimum", enumerate([
    -4.989564806588436, -4.806591006435335, -4.919137689357677,
    -4.739600274892901, -3.5763266691225324, -5.070494717345994]))
def test_ew_keeps_the_seed_stream(seed, minimum):
    # Values of one restart from the per-restart code.  From another start
    # seeds 1 and 5 reach another local minimum, so these pin the draws:
    # restart r draws a (real, then imaginary), then b.
    e = random_hermitian(16, 100 + seed)
    report = check_entanglement_witness(e, 4, 4, restarts=1, seed=seed)
    assert (abs(report.min_product_expectation - minimum)
            <= 1e-12 * max(1.0, la.frobenius(e)))


def _degenerate_cases():
    cases = []
    dims = ((1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 2), (4, 4))
    for d_a, d_b in dims:
        n = d_a * d_b
        a = random_hermitian(d_a, n)
        b = random_hermitian(d_b, n + 1)
        cases += [(f"zero-{d_a}x{d_b}", np.zeros((n, n)), d_a, d_b),
                  (f"1xB-{d_a}x{d_b}", np.kron(np.eye(d_a), b), d_a, d_b),
                  (f"Ax1-{d_a}x{d_b}", np.kron(a, np.eye(d_b)), d_a, d_b),
                  (f"AxB-{d_a}x{d_b}", np.kron(a, b), d_a, d_b)]
    return pytest.mark.parametrize("e,d_a,d_b", [c[1:] for c in cases],
                                   ids=[c[0] for c in cases])


@_degenerate_cases()
@pytest.mark.parametrize("restarts", [1, 4, 32])
def test_ew_degenerate_inputs_match_the_sweeps(e, d_a, d_b, restarts):
    # E = 0, a party's identity, a product operator, a scalar party: the
    # finish must not warn or fail where its Hessian is singular or empty.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_matches_per_restart(e, d_a, d_b, restarts, 42)


def test_ew_refuses_an_overflowing_norm():
    for e in (1e300 * np.eye(4), np.full((4, 4), 1e308)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="norm overflows"):
                check_entanglement_witness(e, 2, 2)


def test_qw_refuses_an_overflowing_norm():
    # The quantumness check refuses what the entanglement check refuses.
    for q, alg in ((np.full((4, 4), 1e308), full_algebra(2, 2)),
                   (np.diag([1e308, -1e308, 1.0, 1.0]),
                    BipartiteAlgebra((1, 1), (1, 1))),
                   (1e300 * np.eye(4), full_algebra(2, 2))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="witness Frobenius norm overflows"):
                check_quantumness_witness(q, alg)


@pytest.mark.parametrize("count", [2, 4])
def test_one_matrix_checks_refuse_a_stack(count):
    stack = np.array([np.eye(4)] * count)
    alg = full_algebra(2, 2)
    for check in (lambda: la.is_positive_semidefinite(stack),
                  lambda: in_algebra(stack, alg),
                  lambda: check_quantumness_witness(stack, alg),
                  lambda: check_entanglement_witness(stack, 2, 2)):
        with pytest.raises(ValueError, match="shape"):
            check()


def test_ew_refuses_values_that_are_not_finite(monkeypatch):
    def nan_values(e4, a, b):
        return np.full(len(a), np.nan), a, b

    monkeypatch.setattr(verify, "_seesaw", nan_values)
    with pytest.raises(ValueError, match="not finite"):
        check_entanglement_witness(swap_operator(2), 2, 2)


def test_ew_choi_starts_finish_within_the_budget(monkeypatch):
    # Each pass of the see-saw loop, a sweep or a Newton step, calls
    # _local_operators at least twice, so at most 2 * SEESAW_MAX_ITERS
    # calls (one goes to the first evaluation) mean that no start used up
    # its budget.  With sweeps alone 8 of these 32 starts did.
    calls = []
    local_operators = verify._local_operators

    def counting(e_x, v):
        calls.append(len(v))
        return local_operators(e_x, v)

    monkeypatch.setattr(verify, "_local_operators", counting)
    report = check_entanglement_witness(choi_witness(), 3, 3, 32, 42)
    assert (report.verdict, report.heuristic) == ("confirmed", True)
    assert len(calls) <= 2 * verify.SEESAW_MAX_ITERS


@pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1])
def test_eigh_reads_the_lower_triangle_and_the_real_diagonal(seed):
    # The see-saw hands np.linalg.eigh its local operators as one GEMM
    # leaves them, Hermitian only up to rounding, and relies on eigh
    # seeing the Hermitian matrix built from their lower triangle and the
    # real part of their diagonal.  A numpy that changes this fails here
    # first.
    rng = np.random.default_rng(seed)
    for d in range(1, 5):
        m = (rng.standard_normal((8, d, d))
             + 1j * rng.standard_normal((8, d, d)))
        u, v = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        m[0] = 0.0
        m[1] = np.outer(u, v)
        m[2] = np.outer(u, u.conj())
        m[3] *= 1e-300
        low = np.tril(m, -1)
        h = low + low.conj().swapaxes(1, 2)
        h[:, range(d), range(d)] = np.diagonal(m, axis1=1, axis2=2).real
        for raw, built in zip(np.linalg.eigh(m), np.linalg.eigh(h)):
            assert np.array_equal(raw, built)


@pytest.mark.parametrize("failure", ["inf", "linalg"])
@pytest.mark.parametrize("e,d_a,d_b", [(choi_witness(), 3, 3),
                                       (random_hermitian(16, 4), 4, 4)],
                         ids=["choi", "random-4x4"])
def test_ew_first_newton_stack_fails(monkeypatch, failure, e, d_a, d_b):
    # Every start of the first Newton stack fails at the top rung, with
    # every row at +inf or with a singular solve: each drops to the base
    # rung, sweeps on and still finishes within the budget.
    calls, steps = [], []
    local_operators, newton_step = verify._local_operators, verify._newton_step

    def counting(e_x, v):
        calls.append(len(v))
        return local_operators(e_x, v)

    def failing_once(e4, e_a, e_b, a, b, value):
        steps.append(len(a))
        if len(steps) > 1:
            return newton_step(e4, e_a, e_b, a, b, value)
        if failure == "linalg":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(len(a), np.inf), a, b

    monkeypatch.setattr(verify, "_local_operators", counting)
    monkeypatch.setattr(verify, "_newton_step", failing_once)
    assert_matches_per_restart(e, d_a, d_b, 32, 42)
    assert len(steps) > 1
    assert len(calls) <= 2 * verify.SEESAW_MAX_ITERS


def test_finish_rungs(monkeypatch):
    # A start enters the finish once a sweep moves its value by less than
    # the top rung cbrt(SEESAW_CONVERGENCE) * ||E||_F; with the switch at
    # the base rung sqrt(SEESAW_CONVERGENCE) * ||E||_F alone, none would
    # enter after a larger move.  A failed first step drops it to the
    # base rung, so it enters again only after a move below that.  One
    # start at a time: every second eigh call gives that start's value.
    e = random_hermitian(16, 4)
    e4 = e.reshape(4, 4, 4, 4)
    top = verify.SEESAW_CONVERGENCE ** (1 / 3) * la.frobenius(e)
    base = math.sqrt(verify.SEESAW_CONVERGENCE) * la.frobenius(e)
    values, entries, eigh = [], [], np.linalg.eigh

    class Entered(Exception):
        pass

    def recording(m):
        w, v = eigh(m)
        values.append(w[0, 0])
        return w, v

    def failing(e4, e_a, e_b, a, b, value):
        entries.append(abs(values[-1] - values[-3]))
        if len(entries) % 2 == 0:
            raise Entered
        return np.full(len(a), np.inf), a, b

    monkeypatch.setattr(np.linalg, "eigh", recording)
    monkeypatch.setattr(verify, "_newton_step", failing)
    for a, b in zip(*ws.random_unit_pairs(np.random.default_rng(42), 8, 4, 4)):
        values.clear()
        with pytest.raises(Entered):
            verify._seesaw(e4, a[None], b[None])
    first, second = np.array(entries[::2]), np.array(entries[1::2])
    assert (first < top).all() and (first >= base).any()
    assert (second < base).all()


@settings(deadline=None, max_examples=40)
@given(d_a=st.integers(1, 4), d_b=st.integers(1, 4),
       count=st.integers(1, 8), seed=st.integers(0, 2**31))
def test_seesaw_returns_unit_pairs_at_their_values(d_a, d_b, count, seed):
    e = random_hermitian(d_a * d_b, seed)
    e4 = e.reshape(d_a, d_b, d_a, d_b)
    starts = ws.random_unit_pairs(np.random.default_rng(seed), count, d_a,
                                  d_b)
    values, a, b = verify._seesaw(e4, *starts)
    scale = la.frobenius(e)
    for v in (a, b):
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0.0,
                           atol=la.EXACT_TOL)
    for value, a_r, b_r in zip(values, a, b):
        assert abs(_product_value(e4, a_r, b_r) - value) <= 1e-12 * scale


@pytest.mark.parametrize("name,d_a,d_b,minimum", [
    ("ew_two_basins_2x2.json", 2, 2, -2.6210030876),
    ("ew_two_basins_2x3.json", 2, 3, -3.0508594885),
])
def test_ew_finds_the_deeper_close_basin(name, d_a, d_b, minimum, capsys):
    # Two basins' minima lie 1.6e-4 (2x2) and 2.3e-4 (2x3) apart; the
    # default restarts reach the deeper one at either seed.
    e = la.load_matrix(DATA / name)
    for seed in (42, 7):
        report = check_entanglement_witness(e, d_a, d_b, seed=seed)
        assert report.verdict == "refuted"
        assert abs(report.min_product_expectation - minimum) < 1e-9
    assert main(["verify", "ew", "--in", str(DATA / name),
                 "--dims", str(d_a), str(d_b)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "refuted"


def _bloch_grid_floor(e, d_a, d_b) -> float:
    """Least <ab|E|ab> with the qubit party on a 5-degree theta-phi grid
    and the other party's bottom eigenvector: every grid point is a
    product state, so this upper-bounds the product minimum."""
    t, p = np.meshgrid(np.deg2rad(np.arange(0.0, 185.0, 5.0)),
                       np.deg2rad(np.arange(0.0, 360.0, 5.0)), indexing="ij")
    grid = np.stack([np.cos(t / 2) + 0j, np.exp(1j * p) * np.sin(t / 2)],
                    axis=-1).reshape(-1, 2)
    e4 = e.reshape(d_a, d_b, d_a, d_b)
    if d_a == 2:
        local = np.einsum("gi,ijkl,gk->gjl", grid.conj(), e4, grid)
    else:
        local = np.einsum("gj,ijkl,gl->gik", grid.conj(), e4, grid)
    return float(np.linalg.eigvalsh(la.hermitian_part(local))[:, 0].min())


@pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 2)])
def test_default_restarts_reach_the_bloch_grid_floor(d_a, d_b):
    # The default restarts cover every basin a dense grid over the qubit
    # party finds, and a refuting minimum is backed by a product state.
    for op_seed in range(40):
        e = random_hermitian(d_a * d_b, op_seed)
        scale = max(1.0, la.frobenius(e))
        report = check_entanglement_witness(e, d_a, d_b)
        minimum = report.min_product_expectation
        assert minimum <= _bloch_grid_floor(e, d_a, d_b) + la.EXACT_TOL * scale
        if minimum < -la.TOL:
            assert report.verdict == "refuted" and not report.heuristic
            value = la.expectation(report.certificate_state, e)
            assert abs(value - minimum) <= 1e-9 * scale
            pt_min = la.hermitian_eigensystem(la.partial_transpose(
                report.certificate_state, d_a, d_b)).eigenvalues[0]
            assert pt_min >= -1e-9


def test_cli_ew_one_restart_still_refutes(capsys):
    # One restart misses this operator's deepest basin (-1.229) and lands
    # at -0.746; that is still a refutation, not a crash.
    path = DATA / "ew_missed_basin_2x2.json"
    assert main(["verify", "ew", "--in", str(path), "--dims", "2", "2",
                 "--restarts", "1", "--seed", "42"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["verdict"] == "refuted"
    assert "Traceback" not in err


# Exchange of the parties and local unitaries leave the product minimum
# and the verdict as they are.

def _exchange(e, d_a, d_b):
    e4 = e.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2)
    return e4.reshape(d_a * d_b, d_a * d_b), d_b, d_a


def _local_unitary(e, d_a, d_b, seed=3):
    rng = np.random.default_rng(seed)
    u = [np.linalg.qr(rng.standard_normal((d, d))
                      + 1j * rng.standard_normal((d, d)))[0]
         for d in (d_a, d_b)]
    w = np.kron(*u)
    return w @ e @ w.conj().T, d_a, d_b


def _metamorphic_cases():
    cases = [(f"swap-d{d}", swap_operator(d), d, d) for d in (2, 3, 4)]
    cases.append(("bell-chsh", bell_chsh(standard_bell_settings(+1)), 2, 2))
    cases += [(f"xi-swap-d{d}", 0.4 * np.eye(d * d) + swap_operator(d), d, d)
              for d in (2, 3)]
    cases.append(("choi", choi_witness(), 3, 3))
    cases += [(f"random-{d_a}x{d_b}-{seed}",
               random_hermitian(d_a * d_b, seed), d_a, d_b)
              for d_a, d_b in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4))
              for seed in range(3)]
    return pytest.mark.parametrize("e,d_a,d_b",
                                   [c[1:] for c in cases],
                                   ids=[c[0] for c in cases])


@_metamorphic_cases()
@pytest.mark.parametrize("transform", [_exchange, _local_unitary],
                         ids=["exchange", "local-unitary"])
def test_ew_metamorphic(e, d_a, d_b, transform):
    before = check_entanglement_witness(e, d_a, d_b)
    after = check_entanglement_witness(*transform(e, d_a, d_b))
    minimum = before.min_product_expectation
    assert abs(minimum) < la.EXACT_TOL or abs(minimum) > 1e3 * la.TOL
    assert after.verdict == before.verdict
    assert (abs(after.min_product_expectation - minimum)
            <= 1e-9 * max(1.0, la.frobenius(e)))


@_metamorphic_cases()
@pytest.mark.parametrize("k", [-20, -3, 5, 20])
def test_ew_invariant_under_power_of_two_scaling(e, d_a, d_b, k):
    # Every see-saw rule scales with ||E||_F and scaling by 2^k is exact,
    # so the minimum scales bit for bit (measured: 0 difference); with
    # absolute rules 2^-20 moved it by up to 4.4e-7 * max(1, ||E||_F).
    before = check_entanglement_witness(e, d_a, d_b)
    after = check_entanglement_witness(2.0**k * e, d_a, d_b)
    assert after.verdict == before.verdict
    assert (abs(after.min_product_expectation / 2.0**k
                - before.min_product_expectation)
            <= 1e-14 * max(1.0, la.frobenius(e)))


# ------------------------------------------------------------ implication

def test_ew_implies_qw_canonical_witnesses():
    cases = [
        (swap_operator(2), 2, 2),
        (swap_operator(3), 3, 3),
        (bell_chsh(standard_bell_settings(+1)), 2, 2),
        (bell_chsh(standard_bell_settings(-1)), 2, 2),
        (0.5 * np.eye(4) + swap_operator(2), 2, 2),
    ]
    for op, d_a, d_b in cases:
        ew, qw = ew_implies_qw(op, d_a, d_b, seed=42)
        assert ew.verdict == "confirmed"
        assert qw.verdict == "confirmed"


def test_converse_fails_for_local_witness():
    _, _, q, _, _ = qubit_qw(QubitQWParams(1.0, 1.0, (0, 0, 1), (1, 0, 0)))
    q_total = la.tensor(q, np.eye(2))
    ew, qw = ew_implies_qw(q_total, 2, 2, seed=42)
    assert qw.verdict == "confirmed"
    assert ew.verdict == "refuted"


def test_shifted_swap_monotonicity():
    for xi in (0.1, 0.5, 0.9):
        shifted = xi * np.eye(4) + swap_operator(2)
        min_eig = la.hermitian_eigensystem(shifted).eigenvalues[0]
        assert abs(min_eig - (xi - 1.0)) < 1e-10
        x, y, residual = shifted_swap_factors(ShiftedSwapParams(xi=xi, d=2))
        assert residual < 1e-10


# ----------------------------------------------------------------- probes

def test_theorem1_commutative_clean():
    report = theorem1_probe(BipartiteAlgebra((1, 1, 1), (1, 1)), 2000,
                            seed=3)
    assert report.commutative
    assert report.violations == 0
    assert report.passed


def test_theorem1_noncommutative_finds_witness():
    report = theorem1_probe(full_algebra(2, 2), 500, seed=3)
    assert not report.commutative
    assert report.witness_found
    assert report.witness_lambda_min < 0.0
    # reported pair reproduces the negativity
    anti = la.anticommutator(report.witness_x, report.witness_y)
    min_eig = la.hermitian_eigensystem(anti).eigenvalues[0]
    assert abs(min_eig - report.witness_lambda_min) < 1e-9
    ok_x, _ = la.is_positive_semidefinite(report.witness_x)
    ok_y, _ = la.is_positive_semidefinite(report.witness_y)
    assert ok_x and ok_y


def test_theorem1_single_factor_input():
    report = theorem1_probe([2], 200, seed=5)
    assert not report.commutative
    assert report.witness_found


def test_theorem1_fallback_pair_negative():
    # force the fallback by giving the random search a single hopeless try
    # on an algebra where one draw rarely goes negative
    report = theorem1_probe(BipartiteAlgebra((2,), (1,)), 1, seed=0)
    if report.fallback_used:
        assert report.witness_lambda_min < 0.0
    anti = la.anticommutator(report.witness_x, report.witness_y)
    assert la.hermitian_eigensystem(anti).eigenvalues[0] < 0.0


def test_lemma_probe_clean():
    for blocks in [((2,), (2,)), ((2, 1), (3,)), ((1, 1), (1, 1))]:
        report = classical_lemma_test(BipartiteAlgebra(*blocks), 1000,
                                      seed=9)
        assert report.violations == 0
        assert report.passed
        assert report.min_anticommutator_expectation > -1e-9
        assert report.min_cross_term > -1e-9


def test_blocks_are_made_one_at_a_time():
    # --trials and --restarts take any integer: no list of every size.
    tracemalloc.start()
    try:
        assert next(verify._blocks(10**18)) == verify.PROBE_BLOCK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [list(verify._blocks(t)) for t in (1, 1024, 1025, 2500)] == \
        [[1], [1024], [1024, 1], [1024, 1024, 452]]


# The lemma probe as it ran before its draws went into block buffers: one
# rng.dirichlet and one _random_block_raw call per trial, then the same
# stacked evaluation per block.

def _lemma_per_trial(alg, trials, seed):
    rng = np.random.default_rng(seed)
    n_k, m_l, n = len(alg.blocks_a), len(alg.blocks_b), alg.total_dim
    alpha = np.ones(n_k * m_l)
    violations, min_anti, min_cross, max_residual = 0, math.inf, math.inf, 0.0
    for count in verify._blocks(trials):
        weights = np.empty((count, n_k * m_l))
        factors = np.empty((count, 2, n, n), dtype=complex)
        for t in range(count):
            weights[t] = rng.dirichlet(alpha)
            factors[t] = _random_block_raw(alg, rng, (2,))
        rho = classical_state(alg, weights.reshape(count, n_k, m_l))
        p = np.diagonal(rho, axis1=-2, axis2=-1).real.copy()
        a, b = factors[:, 0], factors[:, 1]
        x = a.conj().swapaxes(-1, -2) @ a
        y = b.conj().swapaxes(-1, -2) @ b
        c = a @ b.conj().swapaxes(-1, -2)
        xy = np.einsum("tij,tji->ti", x, y)
        yx = np.einsum("tij,tji->ti", y, x)
        cc = np.einsum("tji,tji->ti", c.conj(), c)
        anti = np.sum(p * (xy + yx), axis=-1).real
        cross = np.sum(p * xy, axis=-1)
        csqr = np.sum(p * cc, axis=-1).real
        residual = np.abs(cross - csqr)
        min_anti = min(min_anti, float(anti.min()))
        min_cross = min(min_cross, float(csqr.min()))
        max_residual = max(max_residual, float(residual.max()))
        scale = np.maximum(1.0, np.abs(csqr))
        violations += int(np.count_nonzero(
            (anti < -la.TOL) | (csqr < -la.TOL) | (residual > la.TOL * scale)))
    return verify.ProbeReport(
        kind="lemma", algebra=alg, trials=trials, violations=violations,
        passed=violations == 0, seed=seed, commutative=alg.is_commutative,
        min_anticommutator_expectation=min_anti, min_cross_term=min_cross,
        max_identity_residual=max_residual)


@settings(deadline=None, max_examples=40)
@given(blocks_a=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       blocks_b=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       trials=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_lemma_matches_per_trial_draws(blocks_a, blocks_b, trials, seed):
    # Blocks of 5 split most runs mid-way, so the draw order across block
    # boundaries is checked too.
    alg = BipartiteAlgebra(tuple(blocks_a), tuple(blocks_b))
    with mock.patch.object(verify, "PROBE_BLOCK", 5):
        assert (classical_lemma_test(alg, trials, seed).to_json()
                == _lemma_per_trial(alg, trials, seed).to_json())


@pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1, 2**63])
def test_dirichlet_is_normalized_exponentials(seed):
    # The lemma draws its weights as k standard exponentials times the
    # reciprocal of their sequential sum; this is what numpy's dirichlet
    # does for unit concentrations, and it must leave the stream in the
    # same place.  A numpy that changes that fails here first.
    for k in range(1, 41):
        ref, fast = np.random.default_rng(seed), np.random.default_rng(seed)
        weights = ref.dirichlet(np.ones(k))
        expo = np.empty((1, k))
        fast.standard_exponential(out=expo[0])
        assert np.array_equal(
            weights, (expo * (1.0 / np.cumsum(expo, axis=1)[:, -1:]))[0])
        assert np.array_equal(ref.standard_normal(3), fast.standard_normal(3))


def test_lemma_vertex_square_nonnegative():
    from witnesslab.algebra import classical_state_vertices
    alg = BipartiteAlgebra((2,), (2,))
    x = np.diag([1.0, 2.0, 0.5, 0.1])
    for vertex in classical_state_vertices(alg):
        assert la.expectation(vertex, x @ x) >= 0.0


def test_lemma_counterexample_nonclassical_state():
    # the bottom eigenstate of a qubit witness sees the negativity
    x, y, q, _, lam_minus = qubit_qw(
        QubitQWParams(1.0, 1.0, (0, 0, 1), (1, 0, 0)))
    vec = la.hermitian_eigensystem(q).eigenvectors[:, 0]
    rho = ws.pure_state(vec)
    assert la.expectation(rho, la.anticommutator(x, y)) < -1e-3
    assert abs(la.expectation(rho, q) - lam_minus) < 1e-10


def test_probe_report_json():
    report = theorem1_probe(full_algebra(2, 2), 50, seed=2)
    doc = report.to_json()
    assert doc["kind"] == "theorem1"
    assert doc["algebra"] == {"blocks_a": [2], "blocks_b": [2]}
    assert isinstance(doc["passed"], bool)
    report = classical_lemma_test(BipartiteAlgebra((2,), (2,)), 50, seed=2)
    doc = report.to_json()
    assert doc["kind"] == "lemma"
    assert doc["max_identity_residual"] < 1e-9


def test_probe_rejects_bad_trials():
    with pytest.raises(ValueError):
        theorem1_probe(full_algebra(2, 2), 0)
    with pytest.raises(ValueError):
        classical_lemma_test(full_algebra(2, 2), -5)
