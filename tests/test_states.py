"""Tests for state construction and the random samplers."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from platform_pin import build_note

from witnesslab import linalg as la
from witnesslab import states as ws
from witnesslab.witnesses import bell_chsh, standard_bell_settings, swap_operator

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def partial_trace_b(rho, d_a, d_b):
    return np.trace(rho.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)


def partial_trace_a(rho, d_a, d_b):
    return np.trace(rho.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)


# -------------------------------------------------------------- pure_state

def test_pure_state_basis_vector():
    assert np.array_equal(ws.pure_state([1, 0]), np.diag([1.0, 0.0]))


def test_pure_state_plus():
    got = ws.pure_state(np.array([1, 1]) / math.sqrt(2))
    assert np.allclose(got, (np.eye(2) + SX) / 2, atol=1e-15)


def test_pure_state_normalizes():
    assert np.allclose(ws.pure_state([2, 0]), np.diag([1.0, 0.0]), atol=1e-15)


def test_pure_state_rejects_zero():
    with pytest.raises(ValueError):
        ws.pure_state([0, 0, 0])


# -------------------------------------------------------------- bell_state

def test_bell_states_against_swap():
    s = swap_operator(2)
    assert abs(la.expectation(ws.bell_state("psi-"), s) + 1.0) < 1e-12
    assert abs(la.expectation(ws.bell_state("phi+"), s) - 1.0) < 1e-12


def test_bell_states_maximally_entangled():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        rho = ws.bell_state(kind)
        assert np.allclose(partial_trace_a(rho, 2, 2), np.eye(2) / 2,
                           atol=1e-12)
        assert np.allclose(partial_trace_b(rho, 2, 2), np.eye(2) / 2,
                           atol=1e-12)


def test_bell_state_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ws.bell_state("omega+")


# --------------------------------------------------------------- chi_state

def test_chi_swap_expectation_formula():
    s = swap_operator(2)
    rng = np.random.default_rng(21)
    for _ in range(25):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        rho = ws.chi_state(a, b)
        expected = 2 * (a.conjugate() * b).real / (abs(a) ** 2 + abs(b) ** 2)
        assert abs(la.expectation(rho, s) - expected) < 1e-12


def test_chi_product_case():
    assert abs(la.expectation(ws.chi_state(1.0, 0.0), swap_operator(2))) < 1e-12


def test_chi_is_singlet_for_antisymmetric_amplitudes():
    rho = ws.chi_state(1.0, -1.0)
    fidelity = la.expectation(rho, ws.bell_state("psi-"))
    assert abs(fidelity - 1.0) < 1e-12


def test_chi_rejects_zero_amplitudes():
    with pytest.raises(ValueError):
        ws.chi_state(0.0, 0.0)


def test_chi_detection_dichotomy():
    # sign of <S> equals sign of Re(a* b) on the real unit circle
    s = swap_operator(2)
    ts = np.linspace(0.0, np.pi, 1000)
    for t in ts[::7]:
        a, b = math.cos(t), math.sin(t)
        re_ab = a * b
        if abs(re_ab) <= 1e-8:
            continue
        val = la.expectation(ws.chi_state(a, b), s)
        assert np.sign(val) == np.sign(re_ab)


def test_chi_bell_threshold():
    # E_Bell(+) goes negative exactly below Re(a*b) = -(sqrt2 - 1)/2
    e_op = bell_chsh(standard_bell_settings(+1))
    threshold = -(math.sqrt(2.0) - 1.0) / 2.0
    ts = np.linspace(np.pi / 4, 3 * np.pi / 4, 1000)
    for t in ts:
        a, b = math.cos(t), math.sin(t)
        re_ab = a * b
        if abs(re_ab - threshold) <= 1e-6:
            continue
        val = la.expectation(ws.chi_state(a, b), e_op)
        assert (val < 0) == (re_ab < threshold)


# ---------------------------------------------------------------- samplers

def test_product_sample_is_ppt():
    for seed in range(8):
        rho, _ = ws.random_pure_product(2, 3, seed)
        w = la.hermitian_eigensystem(la.partial_transpose(rho, 2, 3))
        assert w.eigenvalues[0] >= -1e-10


def test_product_sample_swap_range():
    for seed in range(8):
        for d in (2, 3):
            rho, _ = ws.random_pure_product(d, d, seed)
            val = la.expectation(rho, swap_operator(d))
            assert -1e-10 <= val <= 1.0 + 1e-10


def test_product_sample_deterministic():
    first, dec1 = ws.random_pure_product(3, 2, seed=7)
    second, dec2 = ws.random_pure_product(3, 2, seed=7)
    assert np.array_equal(first, second)
    assert np.array_equal(dec1.terms[0][1], dec2.terms[0][1])


def test_product_decomposition_reassembles():
    rho, dec = ws.random_pure_product(2, 2, seed=3)
    assert np.allclose(dec.state(), rho, atol=1e-15)
    assert len(dec.terms) == 1


def test_separable_sample_swap_nonnegative():
    s = swap_operator(2)
    for seed in range(40):
        rho, _ = ws.random_separable(2, 2, seed=seed)
        assert la.expectation(rho, s) >= -1e-9


def test_separable_sample_bell_nonnegative():
    for sign in (+1, -1):
        e_op = bell_chsh(standard_bell_settings(sign))
        for seed in range(40):
            rho, _ = ws.random_separable(2, 2, seed=seed)
            assert la.expectation(rho, e_op) >= -1e-9


def test_separable_decomposition_consistent():
    rho, dec = ws.random_separable(2, 3, num_terms=5, seed=17)
    assert len(dec.terms) == 5
    assert np.allclose(dec.state(), rho, atol=1e-12)
    ws.assert_density_matrix(rho)


def test_separable_default_term_count():
    _, dec = ws.random_separable(2, 2, seed=1)
    assert len(dec.terms) == 2 * 2 * 2


def test_separable_single_term_is_pure_product():
    rho, dec = ws.random_separable(2, 2, num_terms=1, seed=5)
    assert len(dec.terms) == 1
    # rank one and PPT, exactly like random_pure_product output
    w = la.hermitian_eigensystem(rho).eigenvalues
    assert abs(w[-1] - 1.0) < 1e-12 and abs(w[0]) < 1e-12
    pt_min = la.hermitian_eigensystem(
        la.partial_transpose(rho, 2, 2)).eigenvalues[0]
    assert pt_min >= -1e-10


SAMPLER_PARITY = json.loads(
    (Path(__file__).parent / "data" / "state_sampler_parity.json").read_text())
BUILD = build_note(SAMPLER_PARITY)


def test_separable_samples_match_pinned_outputs():
    # Recorded from the term-by-term sampler (one standard_normal call per
    # real or imaginary part); the stacked draw must give the same bits.
    assert len(SAMPLER_PARITY["cases"]) >= 10
    for case in SAMPLER_PARITY["cases"]:
        rho, dec = ws.random_separable(case["d_a"], case["d_b"],
                                       num_terms=case["num_terms"],
                                       seed=case["seed"])
        assert la.matrix_to_json(rho) == case["rho"], BUILD
        assert dec.to_json() == case["decomposition"], BUILD


def test_pure_product_samples_match_pinned_outputs():
    for case in SAMPLER_PARITY["pure_product"]:
        rho, dec = ws.random_pure_product(case["d_a"], case["d_b"],
                                          case["seed"])
        assert la.matrix_to_json(rho) == case["rho"], BUILD
        assert dec.to_json() == case["decomposition"], BUILD


def test_random_density_invariants():
    for seed in range(6):
        rho = ws.random_density(4, seed)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        ok, _ = la.is_positive_semidefinite(rho)
        assert ok
        assert np.array_equal(rho, ws.random_density(4, seed))


def test_sampler_outputs_are_density_matrices():
    for seed in range(4):
        ws.assert_density_matrix(ws.random_pure_product(2, 2, seed)[0])
        ws.assert_density_matrix(ws.random_separable(2, 3, seed=seed)[0])
        ws.assert_density_matrix(ws.random_density(5, seed))


def test_density_validator_rejects_bad_states():
    with pytest.raises(ValueError):
        ws.assert_density_matrix(np.eye(2))            # trace 2
    with pytest.raises(ValueError):
        ws.assert_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_decomposition_json_round_trip():
    _, dec = ws.random_separable(2, 2, num_terms=3, seed=23)
    rebuilt = ws.SeparableDecomposition.from_json(dec.to_json())
    assert np.allclose(rebuilt.state(), dec.state(), atol=1e-15)


def test_decomposition_validation():
    with pytest.raises(ValueError):
        ws.SeparableDecomposition([])
    with pytest.raises(ValueError):
        ws.SeparableDecomposition([(0.4, np.eye(2) / 2, np.eye(2) / 2)])
