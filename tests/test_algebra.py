"""Tests for the block-algebra layout and classical states."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab import algebra as ba
from witnesslab import linalg as la
from witnesslab.verify import check_quantumness_witness

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
    assert list(ba.sector_indices(alg)[0]) == [0, 2]
    assert list(ba.sector_indices(alg)[1]) == [1, 3]


def test_sector_indices_match_definition():
    alg = ba.BipartiteAlgebra((2, 1), (1, 2))
    dim_b = alg.dim_b
    for j, (k, l, _, size) in enumerate(ba.block_layout(alg)):
        a_off = sum(alg.blocks_a[:k])
        b_off = sum(alg.blocks_b[:l])
        expected = [(a_off + r) * dim_b + (b_off + s)
                    for r in range(alg.blocks_a[k])
                    for s in range(alg.blocks_b[l])]
        assert list(ba.sector_indices(alg)[j]) == expected
        assert size == len(expected)


def test_embedding_permutation_is_permutation():
    for blocks in [((2,), (1, 1)), ((2, 1), (3,)), ((1, 2), (2, 1))]:
        alg = ba.BipartiteAlgebra(*blocks)
        p = alg.sector_index[1]
        assert sorted(p) == list(range(alg.total_dim))
    # with a single B block the canonical order is already physical
    alg = ba.BipartiteAlgebra((2, 1), (3,))
    assert np.array_equal(alg.sector_index[1], np.arange(alg.total_dim))


_BLOCKS = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


@settings(deadline=None, max_examples=60)
@given(blocks_a=_BLOCKS, blocks_b=_BLOCKS)
def test_sector_index_is_built_once_and_read_only(blocks_a, blocks_b):
    alg = ba.BipartiteAlgebra(blocks_a, blocks_b)
    twin = ba.BipartiteAlgebra(blocks_a, blocks_b)
    text, doc = repr(alg), alg.to_json()
    assert "sector_index" not in alg.__dict__
    labels, order, sizes = index = alg.sector_index
    assert alg.sector_index is index
    k = np.repeat(np.arange(len(blocks_a)), blocks_a)
    l = np.repeat(np.arange(len(blocks_b)), blocks_b)
    expected = (k[:, None] * len(blocks_b) + l[None, :]).ravel()
    assert np.array_equal(labels, expected)
    assert np.array_equal(order, np.argsort(expected, kind="stable"))
    assert np.array_equal(sizes, np.bincount(expected))
    for array in index:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert alg.sector_index[0] is labels
    assert alg.sector_index[1] is order
    # The index is no field: built or not, equal algebras stay equal.
    assert alg == twin and hash(alg) == hash(twin)
    assert (repr(alg), alg.to_json()) == (text, doc)
    assert text == f"BipartiteAlgebra(blocks_a={blocks_a}, " \
        f"blocks_b={blocks_b})"
    slots = alg.draw_slots
    assert alg.draw_slots is slots and "draw_slots" not in twin.__dict__
    with pytest.raises(ValueError, match="read-only"):
        slots[0] = 0
    assert "sector_index" not in twin.__dict__


def test_construction_builds_no_index():
    # The index of this algebra would hold 10^10 labels.
    alg = ba.BipartiteAlgebra((10**5,), (10**5,))
    assert alg.total_dim == 10**10 and not alg.is_commutative
    with pytest.raises(ValueError, match="does not match algebra dimension"):
        ba.in_algebra(np.eye(4), alg)
    with pytest.raises(ValueError, match="does not match algebra dimension"):
        check_quantumness_witness(np.eye(4), alg)
    for name in ("sector_index", "support_index", "vertex_diagonals",
                 "draw_slots"):
        assert name not in alg.__dict__


@pytest.mark.parametrize("blocks", [((2, 1), (1, 2)), ((1,) * 12, (1,) * 12)])
def test_support_index_and_vertex_diagonals_are_built_once(blocks):
    alg = ba.BipartiteAlgebra(*blocks)
    n = alg.total_dim
    mask = np.zeros((n, n), dtype=bool)
    for idx in ba.sector_indices(alg):
        mask[np.ix_(idx, idx)] = True
    assert np.array_equal(alg.support_index, np.flatnonzero(mask))
    vertices = ba.classical_state_vertices(alg)
    assert vertices.diagonals is alg.vertex_diagonals
    assert ba.classical_state_vertices(alg).diagonals is vertices.diagonals
    for array in (alg.support_index, alg.vertex_diagonals):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


LAYOUTS = [((2,), (2,)), ((2,), (1, 1)), ((2, 1), (3,)), ((1, 2), (2, 1)),
           ((3, 1, 2), (1, 3)), ((1,) * 5, (2, 1, 1))]


@pytest.mark.parametrize("blocks", LAYOUTS)
def test_sector_labels_sort_into_the_block_index_concatenation(blocks):
    alg = ba.BipartiteAlgebra(*blocks)
    label, order, _ = alg.sector_index
    sectors = ba.sector_indices(alg)
    concatenated = np.concatenate(sectors)
    assert np.array_equal(np.argsort(label, kind="stable"), concatenated)
    assert np.array_equal(order, concatenated)
    assert [idx.size for idx in sectors] == \
        [size for _, _, _, size in ba.block_layout(alg)]
    for j, idx in enumerate(sectors):
        assert np.array_equal(np.flatnonzero(label == j), np.sort(idx))


@pytest.mark.parametrize("blocks", LAYOUTS)
def test_in_algebra_agrees_with_the_sector_mask_loop(blocks):
    alg = ba.BipartiteAlgebra(*blocks)
    n = alg.total_dim
    mask = np.zeros((n, n), dtype=bool)
    for idx in ba.sector_indices(alg):
        mask[np.ix_(idx, idx)] = True
    rng = np.random.default_rng(n)
    inside = ba.random_algebra_element(alg, seed=n)
    assert ba.in_algebra(inside, alg)
    for i, j in zip(*np.nonzero(~mask)):
        for size in (0.5e-9, 2e-9):        # TOL * max(1, ||M||_F)
            m = inside / np.linalg.norm(inside)
            m[i, j] += size * rng.choice([1, -1, 1j])
            assert ba.in_algebra(m, alg) == (size < 1e-9)


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


@pytest.mark.parametrize("offset,accepted", [(0.5e-12, True),
                                             (2e-12, False)])
def test_classical_state_weight_boundary(offset, accepted):
    # absolute cutoff EXACT_TOL = 1e-12 on the weight sum and the signs
    alg = ba.BipartiteAlgebra((1, 1), (1, 1))
    off_sum = [[0.25, 0.25], [0.25, 0.25 + offset]]
    negative = [[0.5 + offset, 0.5], [0.0, -offset]]
    for weights in (off_sum, negative):
        if accepted:
            ba.classical_state(alg, weights)
        else:
            with pytest.raises(ValueError):
                ba.classical_state(alg, weights)


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


@pytest.mark.parametrize("blocks", LAYOUTS)
def test_vertices_are_the_one_hot_classical_states(blocks):
    alg = ba.BipartiteAlgebra(*blocks)
    shape = (len(alg.blocks_a), len(alg.blocks_b))
    vertices = ba.classical_state_vertices(alg)
    assert vertices.diagonals.shape == (shape[0] * shape[1], alg.total_dim)
    for j, (k, l, _, _) in enumerate(ba.block_layout(alg)):
        onehot = np.zeros(shape)
        onehot[k, l] = 1.0
        dense = ba.classical_state(alg, onehot)
        assert np.array_equal(vertices[j], dense)
        assert np.array_equal(vertices.diagonals[j], np.diagonal(dense).real)
    assert len(list(vertices)) == len(vertices) == shape[0] * shape[1]


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


def test_overflowing_norm_is_refused_not_classified():
    # At 1.0 the off-sector entries keep this matrix out of the algebra; at
    # 1e300 a cutoff of TOL * ||m||_F would be inf and let them in.
    alg = ba.BipartiteAlgebra((1, 1), (1,))
    assert not ba.in_algebra(np.full((2, 2), 1.0), alg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (ba.in_algebra, ba.is_classical_state,
                      ba.classicality_violation):
            with pytest.raises(ValueError, match="Frobenius norm overflows"):
                check(np.full((2, 2), 1e300), alg)


def _unit(n, i, j):
    """The matrix unit E_ij of size n."""
    unit = np.zeros((n, n), dtype=complex)
    unit[i, j] = 1.0
    return unit


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
    # The pair (0, 1) already shows an imbalance of 0.5 and the coherence
    # at (0, 3) only ties it, so the imbalance probe (E_01, E_10) wins.
    assert np.array_equal(x, _unit(4, 0, 1))
    assert np.array_equal(y, _unit(4, 1, 0))
    assert abs(value - 0.5) < 1e-12


def test_classicality_certificate_for_a_lone_coherence():
    # |+><+| on "2;1" has no imbalance: the coherence probe (E_00, E_01).
    alg = ba.BipartiteAlgebra((2,), (1,))
    rho = np.full((2, 2), 0.5, dtype=complex)
    x, y, value = ba.classicality_violation(rho, alg)
    assert np.array_equal(x, _unit(2, 0, 0))
    assert np.array_equal(y, _unit(2, 0, 1))
    assert value == 0.5
    assert np.trace(rho @ (x @ y - y @ x)) == value


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
    la.hermitian_with_norm(x)


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
