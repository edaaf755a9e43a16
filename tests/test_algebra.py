"""Tests for the block-algebra layout and classical states."""

import numpy as np
import pytest

from witnesslab import algebra as ba
from witnesslab import linalg as la

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ba.BipartiteAlgebra((), (1,))
    with pytest.raises(ValueError):
        ba.BipartiteAlgebra((2, 0), (1,))
    alg = ba.BipartiteAlgebra((2, 1), (3,))
    assert alg.total_dim == 9
    assert not alg.is_commutative
    assert ba.BipartiteAlgebra((1, 1), (1,)).is_commutative


def test_algebra_json_round_trip():
    alg = ba.BipartiteAlgebra((2, 1), (1, 3))
    assert ba.BipartiteAlgebra.from_json(alg.to_json()) == alg
    with pytest.raises(ValueError):
        ba.BipartiteAlgebra.from_json({"blocks_a": [2]})


# ---------------------------------------------------------------- layout

def test_block_layout_single_block():
    assert ba.block_layout(ba.BipartiteAlgebra((2,), (2,))) == [(0, 0, 0, 4)]


def test_block_layout_reducible_a():
    alg = ba.BipartiteAlgebra((1, 1), (2,))
    assert ba.block_layout(alg) == [(0, 0, 0, 2), (1, 0, 2, 2)]


def test_block_layout_reducible_b_interleaved():
    # index oracle: sector (k, l) sits on the grid where the k-th A range
    # meets the l-th B range under i*dim_b + j indexing
    alg = ba.BipartiteAlgebra((2,), (1, 1))
    assert ba.block_layout(alg) == [(0, 0, 0, 2), (0, 1, 2, 2)]
    assert list(ba.block_indices(alg, 0, 0)) == [0, 2]
    assert list(ba.block_indices(alg, 0, 1)) == [1, 3]


def test_block_indices_match_definition():
    alg = ba.BipartiteAlgebra((2, 1), (1, 2))
    dim_b = alg.dim_b
    for k, l, _, size in ba.block_layout(alg):
        a_off = sum(alg.blocks_a[:k])
        b_off = sum(alg.blocks_b[:l])
        expected = [(a_off + r) * dim_b + (b_off + s)
                    for r in range(alg.blocks_a[k])
                    for s in range(alg.blocks_b[l])]
        assert list(ba.block_indices(alg, k, l)) == expected
        assert size == len(expected)


def test_embedding_permutation_is_permutation():
    for blocks in [((2,), (1, 1)), ((2, 1), (3,)), ((1, 2), (2, 1))]:
        alg = ba.BipartiteAlgebra(*blocks)
        p = ba.embedding_permutation(alg)
        assert sorted(p) == list(range(alg.total_dim))
    # with a single B block the canonical order is already physical
    alg = ba.BipartiteAlgebra((2, 1), (3,))
    assert np.array_equal(ba.embedding_permutation(alg),
                          np.arange(alg.total_dim))


# ------------------------------------------------------- classical states

def test_classical_state_full_block_is_maximally_mixed():
    alg = ba.BipartiteAlgebra((2,), (2,))
    rho = ba.classical_state(alg, [[1.0]])
    assert np.allclose(rho, np.eye(4) / 4, atol=1e-15)


def test_classical_state_diagonal_weights():
    alg = ba.BipartiteAlgebra((1, 1), (1, 1))
    rho = ba.classical_state(alg, [[0.5, 0.0], [0.0, 0.5]])
    assert np.allclose(rho, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-15)


def test_classical_state_matches_single_vertex():
    alg = ba.BipartiteAlgebra((2,), (2,))
    rho = ba.classical_state(alg, [[1.0]])
    (vertex,) = ba.classical_state_vertices(alg)
    assert np.array_equal(rho, vertex)


def test_classical_state_rejects_bad_weights():
    alg = ba.BipartiteAlgebra((2,), (2,))
    with pytest.raises(ValueError):
        ba.classical_state(alg, [[0.5, 0.5]])       # wrong shape
    with pytest.raises(ValueError):
        ba.classical_state(alg, [[-0.2]])           # negative
    with pytest.raises(ValueError):
        ba.classical_state(alg, [[0.7]])            # not normalized


def test_classical_state_stacked_weights():
    rng = np.random.default_rng(8)
    for blocks in [((2,), (2,)), ((2, 1), (3,)), ((1, 1), (1, 1))]:
        alg = ba.BipartiteAlgebra(*blocks)
        shape = (len(alg.blocks_a), len(alg.blocks_b))
        w = rng.dirichlet(np.ones(shape[0] * shape[1]), size=(2, 3))
        w = w.reshape((2, 3) + shape)
        stacked = ba.classical_state(alg, w)
        assert stacked.shape == (2, 3, alg.total_dim, alg.total_dim)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(stacked[i, j],
                                      ba.classical_state(alg, w[i, j]))


def test_classical_state_stack_rejects_any_bad_row():
    alg = ba.BipartiteAlgebra((1, 1), (1,))
    good = [[0.25], [0.75]]
    for bad in ([[-0.2], [1.2]],           # negative
                [[0.5], [0.7]],            # not normalized
                [[np.nan], [1.0]]):        # not a number
        with pytest.raises(ValueError):
            ba.classical_state(alg, [good, bad, good])
    with pytest.raises(ValueError):
        ba.classical_state(alg, [0.25, 0.75])    # missing the (k, l) axes


def test_classical_state_invariants():
    rng = np.random.default_rng(6)
    for blocks in [((2,), (2,)), ((2, 1), (3,)), ((1, 1), (1, 1))]:
        alg = ba.BipartiteAlgebra(*blocks)
        shape = (len(alg.blocks_a), len(alg.blocks_b))
        w = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        rho = ba.classical_state(alg, w)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        ok, _ = la.is_positive_semidefinite(rho)
        assert ok
        assert ba.in_algebra(rho, alg)


def test_vertices_enumeration():
    assert len(ba.classical_state_vertices(ba.BipartiteAlgebra((2,), (2,)))) == 1
    verts = ba.classical_state_vertices(ba.BipartiteAlgebra((1, 1), (1, 1)))
    assert len(verts) == 4
    for v in verts:
        assert np.count_nonzero(v) == 1          # rank-one diagonal
        assert abs(np.trace(v).real - 1.0) < 1e-15
    verts = ba.classical_state_vertices(ba.BipartiteAlgebra((2,), (1, 1)))
    assert len(verts) == 2
    assert np.allclose(verts[0], np.diag([0.5, 0.0, 0.5, 0.0]), atol=1e-15)
    assert np.allclose(verts[1], np.diag([0.0, 0.5, 0.0, 0.5]), atol=1e-15)


# ---------------------------------------------------------- classicality

def test_maximally_mixed_is_classical():
    alg = ba.BipartiteAlgebra((2,), (2,))
    assert ba.is_classical_state(np.eye(4) / 4, alg)


def test_unbalanced_mixture_is_not_classical():
    alg = ba.BipartiteAlgebra((2,), (2,))
    rho = np.diag([0.7, 0.0, 0.0, 0.3])
    assert not ba.is_classical_state(rho, alg)


def test_classical_state_round_trip():
    rng = np.random.default_rng(12)
    for blocks in [((2,), (2,)), ((2, 1), (3,)), ((2,), (1, 1))]:
        alg = ba.BipartiteAlgebra(*blocks)
        shape = (len(alg.blocks_a), len(alg.blocks_b))
        w = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        assert ba.is_classical_state(ba.classical_state(alg, w), alg)


def test_fully_commutative_diagonal_states_classical():
    alg = ba.BipartiteAlgebra((1, 1), (1, 1))
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho = np.diag(rng.dirichlet(np.ones(4)))
        assert ba.is_classical_state(rho, alg)


def test_out_of_algebra_state_rejected():
    # sx on the A side crosses the 1+1 block split
    alg = ba.BipartiteAlgebra((1, 1), (2,))
    rho = la.tensor(0.5 * (np.eye(2) + SX), np.eye(2) / 2)
    with pytest.raises(ValueError):
        ba.is_classical_state(rho, alg)


def test_classicality_certificate_for_coherence():
    alg = ba.BipartiteAlgebra((2,), (2,))
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    cert = ba.classicality_violation(rho, alg)
    assert cert is not None
    x, y, value = cert
    assert abs(value) > 1e-6
    # certificate re-evaluates to the reported violation
    recomputed = np.trace(rho @ (x @ y - y @ x))
    assert abs(recomputed - value) < 1e-12


def test_classicality_certificate_for_imbalance():
    alg = ba.BipartiteAlgebra((2,), (2,))
    rho = np.diag([0.7, 0.1, 0.1, 0.1])
    cert = ba.classicality_violation(rho, alg)
    assert cert is not None
    _, _, value = cert
    assert abs(value) > 1e-6


def test_classical_state_has_no_certificate():
    alg = ba.BipartiteAlgebra((2, 1), (2,))
    w = np.array([[0.25], [0.75]])
    assert ba.classicality_violation(ba.classical_state(alg, w), alg) is None


# ------------------------------------------------------- random elements

def test_random_element_scalar_algebra():
    alg = ba.BipartiteAlgebra((1,), (1,))
    x = ba.random_algebra_element(alg, seed=1, positive=True)
    assert x.shape == (1, 1)
    assert x[0, 0].real >= 0.0


def test_random_element_respects_layout():
    alg = ba.BipartiteAlgebra((2,), (1, 1))
    x = ba.random_algebra_element(alg, seed=2)
    assert ba.in_algebra(x, alg)
    assert la.is_hermitian(x)


def test_random_positive_element_is_psd():
    for seed in range(5):
        alg = ba.BipartiteAlgebra((2, 1), (2,))
        x = ba.random_algebra_element(alg, seed=seed, positive=True)
        ok, _ = la.is_positive_semidefinite(x)
        assert ok


def test_random_element_deterministic():
    alg = ba.BipartiteAlgebra((2,), (2,))
    assert np.array_equal(ba.random_algebra_element(alg, seed=42),
                          ba.random_algebra_element(alg, seed=42))


def test_definitional_classicality_property():
    # classical states annihilate all commutators of algebra elements
    rng = np.random.default_rng(99)
    for blocks in [((2,), (2,)), ((2, 1), (3,)), ((1, 1), (1, 1))]:
        alg = ba.BipartiteAlgebra(*blocks)
        shape = (len(alg.blocks_a), len(alg.blocks_b))
        w = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        rho = ba.classical_state(alg, w)
        for _ in range(500):
            x = ba._random_element(alg, rng, positive=False)
            y = ba._random_element(alg, rng, positive=False)
            val = np.trace(rho @ la.commutator(x, y))
            assert abs(val) < 1e-9
