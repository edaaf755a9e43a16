"""Unit tests for the dense complex matrix kernel."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab import linalg as la

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def rand_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_hermitian(rng, n):
    g = rand_complex(rng, n)
    return (g + g.conj().T) / 2


# ---------------------------------------------------------------- tensor

def test_tensor_identity():
    assert np.array_equal(la.tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_sigma_x_pair_is_antidiagonal():
    # hand expansion of sx (x) sx: ones exactly on the antidiagonal
    assert np.array_equal(la.tensor(SX, SX), np.fliplr(np.eye(4)))


def test_tensor_matrix_units():
    # |0><1| (x) |1><0| has its single 1 at row 0*2+1, column 1*2+0
    e01 = np.zeros((2, 2)); e01[0, 1] = 1
    e10 = np.zeros((2, 2)); e10[1, 0] = 1
    expected = np.zeros((4, 4))
    expected[1, 2] = 1
    assert np.array_equal(la.tensor(e01, e10), expected)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       da=st.integers(1, 3), db=st.integers(1, 3), dc=st.integers(1, 3))
def test_tensor_associative(seed, da, db, dc):
    rng = np.random.default_rng(seed)
    a, b, c = rand_complex(rng, da), rand_complex(rng, db), rand_complex(rng, dc)
    left = la.tensor(la.tensor(a, b), c)
    right = la.tensor(a, la.tensor(b, c))
    assert la.frobenius(left - right) < 1e-12


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       da=st.integers(1, 3), db=st.integers(1, 3))
def test_tensor_bilinear(seed, da, db):
    rng = np.random.default_rng(seed)
    a1, a2 = rand_complex(rng, da), rand_complex(rng, da)
    b = rand_complex(rng, db)
    alpha = complex(rng.standard_normal(), rng.standard_normal())
    left = la.tensor(alpha * a1 + a2, b)
    right = alpha * la.tensor(a1, b) + la.tensor(a2, b)
    assert la.frobenius(left - right) < 1e-12


def test_tensor_rejects_non_square():
    with pytest.raises(ValueError):
        la.tensor(np.ones((2, 3)), np.eye(2))


# ------------------------------------------------------------ direct_sum

def test_direct_sum_identities():
    assert np.array_equal(la.direct_sum([np.eye(1), np.eye(2)]), np.eye(3))


def test_direct_sum_mixed_blocks():
    got = la.direct_sum([SZ, [[2.0]]])
    assert np.array_equal(got, np.diag([1.0, -1.0, 2.0]))


def test_direct_sum_two_sigma_x_blocks():
    got = la.direct_sum([SX, SX])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = 1
    expected[2, 3] = expected[3, 2] = 1
    assert np.array_equal(got, expected)


def test_direct_sum_empty_rejected():
    with pytest.raises(ValueError):
        la.direct_sum([])


# -------------------------------------------- commutator / anticommutator

def test_commutator_with_self_vanishes():
    assert la.frobenius(la.commutator(SX, SX)) == 0.0


def test_pauli_commutator():
    # 2x2 multiplication oracle: sx.sy = i sz, sy.sx = -i sz
    assert np.allclose(la.commutator(SX, SY), 2j * SZ, atol=1e-15)


def test_pauli_anticommutator_vanishes():
    assert la.frobenius(la.anticommutator(SX, SY)) == 0.0


def test_commutator_dim_mismatch():
    with pytest.raises(ValueError):
        la.commutator(SX, np.eye(3))


def test_hermitian_pair_commutator_structure():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(2, 6)
        a, b = rand_hermitian(rng, n), rand_hermitian(rng, n)
        comm = la.commutator(a, b)
        anti = la.anticommutator(a, b)
        assert la.frobenius(comm + comm.conj().T) < 1e-12
        assert la.frobenius(anti - anti.conj().T) < 1e-12


def test_commuting_psd_pair_has_psd_anticommutator():
    # commuting PSD pair built over a common eigenbasis: {X,Y} = 2XY >= 0
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        g = rand_complex(rng, n)
        u, _ = np.linalg.qr(g)
        x = (u * rng.uniform(0, 3, n)) @ u.conj().T
        y = (u * rng.uniform(0, 3, n)) @ u.conj().T
        assert la.frobenius(la.commutator(x, y)) < 1e-12
        ok, _ = la.is_positive_semidefinite(la.anticommutator(x, y))
        assert ok


# ----------------------------------------------------------- eigensystem

def test_eigensystem_sigma_z():
    w, v = la.hermitian_eigensystem(SZ)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-14)


def _swap2():
    s = np.zeros((4, 4))
    s[0, 0] = s[1, 2] = s[2, 1] = s[3, 3] = 1.0
    return s


def test_eigensystem_swap_matches_characteristic_polynomial():
    s = _swap2()
    w = la.hermitian_eigensystem(s).eigenvalues
    assert np.allclose(w, [-1.0, 1.0, 1.0, 1.0], atol=1e-10)
    # brute-force oracle: roots of the characteristic polynomial
    roots = np.sort(np.roots(np.poly(s)).real)
    assert np.allclose(w, roots, atol=1e-4)


def test_eigensystem_matches_closed_form_anticommutator():
    # alpha = beta = 1, unit Bloch vectors at right angle
    x = 0.5 * (np.eye(2) + SZ)
    y = 0.5 * (np.eye(2) + SX)
    q = x @ y + y @ x
    w = la.hermitian_eigensystem(q).eigenvalues
    lam_minus = 0.5 * (1.0 - np.sqrt(2.0))
    lam_plus = 0.5 * (1.0 + np.sqrt(2.0))
    assert np.allclose(w, [lam_minus, lam_plus], atol=1e-12)


def test_eigensystem_reconstruction_invariant():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        h = rand_hermitian(rng, n)
        w, v = la.hermitian_eigensystem(h)
        rebuilt = (v * w) @ v.conj().T
        assert la.frobenius(rebuilt - h) < 1e-10 * max(1.0, la.frobenius(h))
        assert np.all(np.diff(w) >= -1e-14)
        assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-10
        # per-column residual bound ||H v_i - w_i v_i|| <= tol * ||H||_F
        residuals = np.linalg.norm(h @ v - v * w, axis=0)
        assert residuals.max() <= la.TOL * la.frobenius(h)


def test_eigensystem_deterministic():
    rng = np.random.default_rng(5)
    h = rand_hermitian(rng, 6)
    first = la.hermitian_eigensystem(h)
    second = la.hermitian_eigensystem(h.copy())
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


@pytest.mark.parametrize("scale", [0.01, 50.0])
@pytest.mark.parametrize("factor,accepted", [(0.5, True), (2.0, False)])
def test_is_hermitian_boundary(scale, factor, accepted):
    # cutoff TOL * max(1, ||M||_F) with TOL = 1e-9, on max |M - M^dag|
    h = scale * rand_hermitian(np.random.default_rng(3), 4)
    cutoff = 1e-9 * max(1.0, la.frobenius(h))
    anti = np.zeros((4, 4), dtype=complex)
    anti[0, 1], anti[1, 0] = 0.5, -0.5        # max |A - A^dag| = 1
    assert la.is_hermitian(h + factor * cutoff * anti) == accepted


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError):
        la.hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_stacked_eigenvalues_match_one_matrix_at_a_time():
    rng = np.random.default_rng(12)
    for n in (1, 2, 4, 9):
        stack = np.array([rand_hermitian(rng, n) for _ in range(7)])
        w = la.hermitian_eigenvalues(stack)
        for h, row in zip(stack, w):
            assert row.tobytes() == \
                la.hermitian_eigensystem(h).eigenvalues.tobytes()


@pytest.mark.parametrize("scale", [0.01, 50.0])
@pytest.mark.parametrize("factor,accepted", [(0.5, True), (2.0, False)])
def test_stacked_eigenvalues_hermitian_boundary(scale, factor, accepted):
    # each matrix of the stack is held to its own cutoff
    rng = np.random.default_rng(3)
    good = rand_hermitian(rng, 4)
    h = scale * rand_hermitian(rng, 4)
    cutoff = 1e-9 * max(1.0, la.frobenius(h))
    anti = np.zeros((4, 4), dtype=complex)
    anti[0, 1], anti[1, 0] = 0.5, -0.5
    stack = np.array([good, h + factor * cutoff * anti, good])
    if accepted:
        assert la.hermitian_eigenvalues(stack).shape == (3, 4)
    else:
        with pytest.raises(ValueError, match="Hermitian"):
            la.hermitian_eigenvalues(stack)


def test_stacked_eigenvalues_reject_non_finite():
    stack = np.array([np.eye(2), [[1.0, 0.0], [0.0, np.inf]]])
    with pytest.raises(ValueError, match="NaN or Inf"):
        la.hermitian_eigenvalues(stack)


# ------------------------------------------------------------------- psd

def test_psd_identity():
    ok, min_eig = la.is_positive_semidefinite(np.eye(4))
    assert ok and abs(min_eig - 1.0) < 1e-14


def test_psd_swap_negative():
    ok, min_eig = la.is_positive_semidefinite(_swap2())
    assert not ok and abs(min_eig + 1.0) < 1e-12


def test_psd_sigma_z_negative():
    ok, min_eig = la.is_positive_semidefinite(SZ)
    assert not ok and abs(min_eig + 1.0) < 1e-14


# ----------------------------------------------------------- expectation

def test_expectation_traceless():
    assert la.expectation(np.eye(2) / 2, SZ) == 0.0


def test_expectation_singlet_bell():
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    e_bell = 2 * np.eye(4) + np.sqrt(2) * (np.kron(SX, SX) + np.kron(SY, SY))
    # oracle: <sx sx> = <sy sy> = -1 on the singlet
    assert abs(la.expectation(rho, e_bell) - (2 - 2 * np.sqrt(2))) < 1e-12


def test_expectation_chi_on_swap():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    chi = (np.kron(plus, minus) - np.kron(minus, plus)) / np.sqrt(2)
    rho = np.outer(chi, chi.conj())
    assert abs(la.expectation(rho, _swap2()) + 1.0) < 1e-12


def test_expectation_linear():
    rng = np.random.default_rng(11)
    rho1, rho2 = rand_hermitian(rng, 3), rand_hermitian(rng, 3)
    o1, o2 = rand_hermitian(rng, 3), rand_hermitian(rng, 3)
    c = 0.37
    left = la.expectation(rho1, o1 + c * o2)
    right = la.expectation(rho1, o1) + c * la.expectation(rho1, o2)
    assert abs(left - right) < 1e-12
    left = la.expectation(rho1 + c * rho2, o1)
    right = la.expectation(rho1, o1) + c * la.expectation(rho2, o1)
    assert abs(left - right) < 1e-12


def test_expectation_dim_mismatch():
    with pytest.raises(ValueError):
        la.expectation(np.eye(2), np.eye(3))


def test_expectation_flags_corrupted_inputs():
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        la.expectation(nilpotent, SY)


@pytest.mark.parametrize("residual,accepted", [(0.5e-10, True),
                                               (2e-10, False)])
def test_expectation_imaginary_residual_boundary(residual, accepted):
    # absolute cutoff RESIDUAL_TOL = 1e-10 on the imaginary part
    rho = np.diag([1.0, 0.0])
    o = np.diag([1.0 + 1j * residual, 0.0])
    if accepted:
        assert la.expectation(rho, o) == 1.0
    else:
        with pytest.raises(ValueError):
            la.expectation(rho, o)


# ----------------------------------------------------- partial transpose

def test_partial_transpose_identity():
    assert np.array_equal(la.partial_transpose(np.eye(4), 2, 2), np.eye(4))


def test_partial_transpose_singlet_npt():
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    w = la.hermitian_eigensystem(la.partial_transpose(rho, 2, 2)).eigenvalues
    assert abs(w[0] + 0.5) < 1e-12


def test_partial_transpose_involution():
    rng = np.random.default_rng(3)
    m = rand_complex(rng, 6)
    twice = la.partial_transpose(la.partial_transpose(m, 2, 3), 2, 3)
    assert np.array_equal(twice, m)


def test_partial_transpose_entry_map():
    # index oracle: entry ((i,j),(k,l)) moves to ((i,l),(k,j))
    rng = np.random.default_rng(4)
    m = rand_complex(rng, 6)
    pt = la.partial_transpose(m, 2, 3)
    for i in range(2):
        for j in range(3):
            for k in range(2):
                for l in range(3):
                    assert pt[3 * i + j, 3 * k + l] == m[3 * i + l, 3 * k + j]


def test_partial_transpose_dim_mismatch():
    with pytest.raises(ValueError):
        la.partial_transpose(np.eye(6), 2, 2)


# ------------------------------------------------------------------ json

def test_matrix_json_round_trip():
    rng = np.random.default_rng(9)
    m = rand_complex(rng, 5)
    assert np.array_equal(la.matrix_from_json(la.matrix_to_json(m)), m)


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    m = rand_hermitian(rng, 4)
    path = tmp_path / "op.json"
    la.save_matrix(path, m, provenance={"kind": "test"})
    assert np.array_equal(la.load_matrix(path), m)


@pytest.mark.parametrize("payload", [
    {"dim": 2, "re": [0.0] * 4},                       # missing im
    {"dim": 0, "re": [], "im": []},                    # bad dim
    {"dim": 2, "re": [0.0] * 3, "im": [0.0] * 4},      # wrong length
    {"dim": 2, "re": [0.0] * 4, "im": [float("nan")] * 4},
    [1, 2, 3],                                         # not an object
    {"dim": 1, "re": {"a": 1}, "im": [0]},             # re not a list
    {"dim": 1, "re": [1], "im": None},
    {"dim": 1, "re": ["1"], "im": [0]},                # a string
    {"dim": 1, "re": [True], "im": [0]},               # a boolean
    {"dim": 2, "re": [1.0, 2.0, 3.0, False], "im": [0] * 4},
    {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [0] * 4},  # nested
    {"dim": 1, "re": [[1.0]], "im": [0]},
    {"dim": 1, "re": [10 ** 400], "im": [0]},          # beyond float range
    {"dim": 1, "re": [None], "im": [0]},
    {"dim": 4, "re": np.diag([1e300] * 4).ravel().tolist(),
     "im": [0] * 16},                                  # ||M||_F overflows
    {"dim": 1, "re": [1e200], "im": [1e200]},
])
def test_matrix_json_rejects_malformed(payload):
    with pytest.raises(ValueError):
        la.matrix_from_json(payload)


def test_matrix_json_accepts_integers():
    m = la.matrix_from_json({"dim": 2, "re": [1, 0, 0.5, -2],
                             "im": [0, 3, -3.0, 0]})
    assert np.array_equal(m, [[1, 3j], [0.5 - 3j, -2]])


def test_load_matrix_refuses_deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ValueError, match="nests too deeply"):
        la.load_matrix(path)


_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e-300,
                            1.0, -3.0, 2.0 ** 60, 0.1])
_ENTRY = st.floats(allow_nan=False, allow_infinity=False) | _SPECIAL
_JSON_LEAF = (st.none() | st.booleans() | st.integers() | st.text()
              | st.floats(allow_nan=False) | _SPECIAL)
_PROVENANCE = st.recursive(
    _JSON_LEAF, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12)


@settings(deadline=None, max_examples=120)
@given(data=st.data(), dim=st.integers(1, 4),
       provenance=st.none() | st.dictionaries(st.text(max_size=5),
                                              _PROVENANCE, max_size=4))
def test_save_matrix_writes_what_json_dump_writes(tmp_path_factory, data,
                                                  dim, provenance):
    entries = data.draw(st.lists(_ENTRY, min_size=2 * dim * dim,
                                 max_size=2 * dim * dim))
    m = (np.array(entries[:dim * dim])
         + 1j * np.array(entries[dim * dim:])).reshape(dim, dim)
    path = tmp_path_factory.mktemp("save") / "m.json"
    la.save_matrix(path, m, provenance)
    doc = {"dim": dim, "re": [float(x) for x in m.real.ravel()],
           "im": [float(x) for x in m.imag.ravel()]}
    if provenance is not None:
        doc["provenance"] = provenance
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(m)
    if np.isfinite(norm):
        assert np.array_equal(la.load_matrix(path), m)
    else:
        # Reading refuses what no cutoff can scale by.
        with pytest.raises(ValueError, match="Frobenius norm overflows"):
            la.load_matrix(path)
