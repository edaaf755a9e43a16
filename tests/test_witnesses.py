"""Tests for the witness constructions and their operator identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesslab import linalg as la
from witnesslab import states as ws
from witnesslab import witnesses as w
from witnesslab.cli import to_sector_basis

RT2 = math.sqrt(2.0)


def random_dichotomic(rng, d=2):
    """Random +/-1-spectrum observable via a Haar unitary."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    signs = rng.choice([-1.0, 1.0], size=d)
    return (q * signs) @ q.conj().T


def random_settings(rng, sign=+1):
    return w.DichotomicSettings(
        a1=random_dichotomic(rng), a2=random_dichotomic(rng),
        b1=random_dichotomic(rng), b2=random_dichotomic(rng), sign=sign)


# ------------------------------------------------------------------- swap

def test_swap_qubit_matrix():
    s = w.swap_operator(2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 2] = expected[2, 1] = expected[3, 3] = 1.0
    assert np.array_equal(s, expected)


def test_swap_qutrit_sector_display():
    # in the sector-grouped basis {00,01,10,02,20,11,12,21,22} the matrix
    # is block-diagonal with 1 and off-diagonal 2x2 sectors
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = la.direct_sum([[[1.0]], sx, sx, [[1.0]], sx, [[1.0]]])
    assert np.array_equal(to_sector_basis(w.swap_operator(3), 3), expected)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_swap_spectrum_multiplicities(d):
    # oracle: symmetric/antisymmetric subspace dimensions d(d+1)/2, d(d-1)/2
    eigs = la.hermitian_eigensystem(w.swap_operator(d)).eigenvalues
    plus = int(np.sum(np.abs(eigs - 1.0) < 1e-8))
    minus = int(np.sum(np.abs(eigs + 1.0) < 1e-8))
    assert plus == d * (d + 1) // 2
    assert minus == d * (d - 1) // 2
    assert plus + minus == d * d


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_swap_squares_to_identity(d):
    s = w.swap_operator(d)
    assert la.frobenius(s @ s - np.eye(d * d)) == 0.0


def test_swap_rejects_small_dimension():
    with pytest.raises(ValueError):
        w.swap_operator(1)


# --------------------------------------------------------------- settings

def test_standard_settings_dichotomic():
    s = w.standard_bell_settings()
    assert np.allclose(s.b1 @ s.b1, np.eye(2), atol=1e-15)
    assert np.allclose(s.b2 @ s.b2, np.eye(2), atol=1e-15)


def test_standard_settings_bell_observable():
    for sign in (+1, -1):
        e = w.bell_chsh(w.standard_bell_settings(sign))
        expected = 2 * np.eye(4) + sign * RT2 * (
            la.tensor(w.SIGMA_X, w.SIGMA_X) + la.tensor(w.SIGMA_Y, w.SIGMA_Y))
        assert la.frobenius(e - expected) < 1e-14


def test_standard_settings_noncommuting():
    s = w.standard_bell_settings()
    assert np.allclose(la.commutator(s.a1, s.a2), 2j * w.SIGMA_Z, atol=1e-15)


def test_settings_reject_non_dichotomic():
    with pytest.raises(ValueError):
        w.DichotomicSettings(a1=np.diag([1.0, 0.5]), a2=w.SIGMA_X,
                             b1=w.SIGMA_X, b2=w.SIGMA_Y)


def test_settings_reject_bad_sign():
    with pytest.raises(ValueError):
        w.DichotomicSettings(a1=w.SIGMA_X, a2=w.SIGMA_Y,
                             b1=w.SIGMA_X, b2=w.SIGMA_Y, sign=2)


# -------------------------------------------------------------- bell_chsh

def test_s_bell_relation_both_signs():
    s_op = w.swap_operator(2)
    p00_p11 = np.diag([1.0, 0.0, 0.0, 1.0])
    for sign in (+1, -1):
        e = w.bell_chsh(w.standard_bell_settings(sign))
        rebuilt = p00_p11 + sign * (e - 2 * np.eye(4)) / (2 * RT2)
        assert la.frobenius(s_op - rebuilt) < 1e-12


def test_bell_singlet_violation():
    e = w.bell_chsh(w.standard_bell_settings(+1))
    val = la.expectation(ws.bell_state("psi-"), e)
    assert abs(val - (2 - 2 * RT2)) < 1e-12


def test_bell_minimum_eigenvalue():
    e = w.bell_chsh(w.standard_bell_settings(+1))
    assert abs(la.hermitian_eigensystem(e).eigenvalues[0] - (2 - 2 * RT2)) \
        < 1e-12


def test_bell_nonnegative_on_separable_samples():
    e = w.bell_chsh(w.standard_bell_settings(+1))
    for seed in range(10_000):
        rho, _ = ws.random_separable(2, 2, seed=seed)
        assert la.expectation(rho, e) >= -1e-9


# ------------------------------------------------------------- avr pairs

def test_avr_asymmetric_identity_standard():
    s = w.standard_bell_settings(+1)
    x, y, q = w.avr_asymmetric(s)
    target = 4 * w.bell_chsh(s) - la.tensor(la.commutator(s.a1, s.a2),
                                            la.commutator(s.b1, s.b2))
    assert la.frobenius(q - target) < 1e-12


def test_avr_asymmetric_nonnegative_on_bell_states():
    _, _, q = w.avr_asymmetric(w.standard_bell_settings(+1))
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        assert la.expectation(ws.bell_state(kind), q) >= -1e-9


def test_avr_asymmetric_standard_spectrum():
    # Bell-basis sign oracle: eigenvalues 8 + 4*sqrt2*(sxx+syy) - 4*szz
    # over the sign patterns of the four Bell states
    _, _, q = w.avr_asymmetric(w.standard_bell_settings(+1))
    eigs = la.hermitian_eigensystem(q).eigenvalues
    expected = sorted([12 - 8 * RT2, 4.0, 4.0, 12 + 8 * RT2])
    assert np.allclose(eigs, expected, atol=1e-12)


def test_avr_asymmetric_commuting_a_side():
    s = w.DichotomicSettings(a1=w.SIGMA_X, a2=w.SIGMA_X,
                             b1=(w.SIGMA_X + w.SIGMA_Y) / RT2,
                             b2=(w.SIGMA_X - w.SIGMA_Y) / RT2)
    _, _, q = w.avr_asymmetric(s)
    assert la.frobenius(q - 4 * w.bell_chsh(s)) < 1e-12


def test_avr_symmetric_equals_four_bell():
    s = w.standard_bell_settings(+1)
    x, y, q = w.avr_symmetric(s)
    assert la.frobenius(q - 4 * w.bell_chsh(s)) < 1e-12
    ok_x, _ = la.is_positive_semidefinite(x)
    ok_y, _ = la.is_positive_semidefinite(y)
    assert ok_x and ok_y


def test_avr_symmetric_minimum_eigenvalue():
    _, _, q = w.avr_symmetric(w.standard_bell_settings(+1))
    assert abs(la.hermitian_eigensystem(q).eigenvalues[0]
               - 4 * (2 - 2 * RT2)) < 1e-10


def test_avr_symmetric_cross_term_identity():
    s = w.standard_bell_settings(+1)
    x, y, _ = w.avr_symmetric(s)
    eye2 = np.eye(2)
    target = (2 * w.bell_chsh(s)
              + la.tensor(la.commutator(s.a1, s.a2), eye2)
              + la.tensor(eye2, la.commutator(s.b1, s.b2)))
    assert la.frobenius(x @ y - target) < 1e-12


def test_avr_identities_random_settings():
    rng = np.random.default_rng(314)
    for _ in range(500):
        sign = 1 if rng.random() < 0.5 else -1
        s = random_settings(rng, sign)
        x, y, q = w.avr_asymmetric(s)
        target = 4 * w.bell_chsh(s) - la.tensor(
            la.commutator(s.a1, s.a2), la.commutator(s.b1, s.b2))
        assert la.frobenius(q - target) < 1e-10
        x, y, q = w.avr_symmetric(s)
        assert la.frobenius(q - 4 * w.bell_chsh(s)) < 1e-10


# -------------------------------------------------------------- qubit qw

def test_qubit_qw_aligned_vectors_not_witness():
    x, y, q, lam_plus, lam_minus = w.qubit_qw(
        w.QubitQWParams(1.0, 1.0, (0, 0, 0.8), (0, 0, 0.8)))
    assert lam_minus >= 0.0
    ok, _ = la.is_positive_semidefinite(q)
    assert ok


def test_qubit_qw_right_angle_unit_vectors():
    # paper closed forms at u=v=1: lam+ = 2 cos(t/2) cos^2(t/4),
    # lam- = -2 cos(t/2) sin^2(t/4) at t = pi/2
    x, y, q, lam_plus, lam_minus = w.qubit_qw(
        w.QubitQWParams(1.0, 1.0, (0, 0, 1), (1, 0, 0)))
    t = math.pi / 2
    assert abs(lam_plus - 2 * math.cos(t / 2) * math.cos(t / 4) ** 2) < 1e-12
    assert abs(lam_minus + 2 * math.cos(t / 2) * math.sin(t / 4) ** 2) < 1e-12
    eigs = la.hermitian_eigensystem(q).eigenvalues
    assert np.allclose(eigs, [lam_minus, lam_plus], atol=1e-12)


def test_qubit_qw_ratio_formula():
    for theta in np.linspace(0.05, math.pi - 0.05, 40):
        _, _, _, lam_plus, lam_minus = w.qubit_qw(w.QubitQWParams(
            0.7, 1.3, (0, 0, 1), (math.sin(theta), 0, math.cos(theta))))
        assert abs(lam_minus / lam_plus + math.tan(theta / 4) ** 2) < 1e-12


def test_qubit_qw_formula_matches_eigensolver():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        alpha, beta = rng.uniform(0.1, 3.0, size=2)
        u = rng.standard_normal(3)
        u *= rng.uniform(0.0, 1.0) / np.linalg.norm(u)
        v = rng.standard_normal(3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        x, y, q, lam_plus, lam_minus = w.qubit_qw(
            w.QubitQWParams(alpha, beta, u, v))
        ok_x, _ = la.is_positive_semidefinite(x)
        ok_y, _ = la.is_positive_semidefinite(y)
        assert ok_x and ok_y
        eigs = la.hermitian_eigensystem(q).eigenvalues
        worst = max(worst, abs(eigs[0] - lam_minus), abs(eigs[1] - lam_plus))
    assert worst < 1e-10


def test_qubit_qw_rejects_invalid_params():
    with pytest.raises(ValueError):
        w.QubitQWParams(0.0, 1.0, (0, 0, 1), (1, 0, 0))
    with pytest.raises(ValueError):
        w.QubitQWParams(1.0, 1.0, (0, 0, 1.5), (1, 0, 0))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("alpha, beta, u, v", [
    (NAN, 1.0, (0, 0, 1), (1, 0, 0)),
    (1.0, NAN, (0, 0, 1), (1, 0, 0)),
    (INF, 1.0, (0, 0, 1), (1, 0, 0)),
    (1.0, INF, (0, 0, 1), (1, 0, 0)),
    (-INF, 1.0, (0, 0, 1), (1, 0, 0)),
    (1.0, 1.0, (NAN, 0, 0), (1, 0, 0)),
    (1.0, 1.0, (0, 0, 1), (0, NAN, 0)),
    (1.0, 1.0, (INF, 0, 0), (1, 0, 0)),
])
def test_qubit_qw_rejects_non_finite_params(alpha, beta, u, v):
    with pytest.raises(ValueError):
        w.QubitQWParams(alpha, beta, u, v)
    with pytest.raises(ValueError):
        w.qubit_qw_stack([1.0, alpha], [1.0, beta], [(0, 0, 1), u],
                         [(1, 0, 0), v])


def _qubit_qw_reference(p):
    """The per-matrix construction the stacked builder replaced."""
    def bloch(vec):
        return sum(c * m for c, m in zip(vec, w.PAULI))

    eye = np.eye(2)
    x = 0.5 * p.alpha * (eye + bloch(p.u))
    y = 0.5 * p.beta * (eye + bloch(p.v))
    return x, y, la.anticommutator(x, y)


_UNIT = st.floats(-1.0, 1.0).filter(lambda c: c != 0.0) | st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324])


@settings(deadline=None, max_examples=60)
@given(alpha=st.floats(1e-3, 1e3), beta=st.floats(1e-3, 1e3),
       u=st.tuples(_UNIT, _UNIT, _UNIT), v=st.tuples(_UNIT, _UNIT, _UNIT))
def test_qubit_qw_matches_per_matrix_reference(alpha, beta, u, v):
    u = np.array(u) / max(1.0, float(np.linalg.norm(u)))
    v = np.array(v) / max(1.0, float(np.linalg.norm(v)))
    p = w.QubitQWParams(alpha, beta, u, v)
    got = w.qubit_qw(p)[:3]
    stacked = w.qubit_qw_stack([alpha] * 3, [beta] * 3, [u] * 3, [v] * 3)
    for want, one, many in zip(_qubit_qw_reference(p), got, stacked):
        assert one.tobytes() == want.tobytes()
        assert all(m.tobytes() == want.tobytes() for m in many)


# -------------------------------------------------------------- condition

def test_condition_right_angle_unit_lengths():
    assert w.qubit_qw_condition(1.0, 1.0, math.pi / 2)


def test_condition_short_vectors_never_witness():
    # premise u^2 + v^2 <= 1 held with a definite margin; exactly on the
    # circle the rounded inputs may legitimately tip either way
    for u in np.linspace(0.0, 1.0, 21):
        for v in np.linspace(0.0, math.sqrt(max(1 - u * u, 0.0)), 11):
            if u * u + v * v > 1.0 - 1e-12:
                continue
            for theta in np.linspace(0.0, math.pi, 13):
                assert not w.qubit_qw_condition(u, v, theta)


def test_condition_aligned_vectors_never_witness():
    for u in np.linspace(0.0, 1.0, 21):
        for v in np.linspace(0.0, 1.0, 21):
            assert not w.qubit_qw_condition(u, v, 0.0)


def test_condition_agrees_with_lambda_sign():
    grid = np.linspace(0.02, 1.0, 25)
    thetas = np.linspace(0.0, math.pi, 25)
    for u in grid:
        for v in grid:
            for theta in thetas:
                dot = u * v * math.cos(theta)
                lam_minus = 0.5 * (1 + dot
                                   - math.sqrt(u * u + v * v + 2 * dot))
                if abs(lam_minus) <= 1e-8:
                    continue
                assert w.qubit_qw_condition(u, v, theta) == (lam_minus < 0)


def test_condition_rejects_out_of_range():
    with pytest.raises(ValueError):
        w.qubit_qw_condition(1.2, 0.5, 0.3)


# ----------------------------------------------------------- fig1 surfaces

def test_fig1_rows():
    rows = w.fig1_surfaces(4)
    assert len(rows) == 16
    table = {(round(u, 6), round(v, 6)): (bound, ratio)
             for u, v, bound, ratio in rows}
    bound, ratio = table[(1.0, 1.0)]
    assert abs(bound - 1.0) < 1e-12
    assert ratio is not None and ratio < -0.99
    bound, ratio = table[(0.5, 0.5)]
    assert abs(bound + 8.0) < 1e-12
    assert ratio is None            # never a witness in this region


def test_fig1_ratio_range():
    for u, v, bound, ratio in w.fig1_surfaces(8):
        if ratio is not None:
            assert -1.0 < ratio < 0.0


def test_fig1_rejects_tiny_grid():
    with pytest.raises(ValueError):
        w.fig1_surfaces(1)


# ------------------------------------------------------------ shifted swap

def test_shifted_swap_qubit_display():
    # explicit 4x4 construction evaluated from the displayed closed forms
    xi, phi = 0.5, 0.0
    x, y, residual = w.shifted_swap_factors(
        w.ShiftedSwapParams(xi=xi, phi=phi, d=2))
    assert residual < 1e-10
    corner = math.sqrt((1 + xi) / 2)           # sqrt(3)/2 at xi = 1/2
    assert abs(corner - math.sqrt(3) / 2) < 1e-15
    off = math.sqrt(1 - xi * xi)
    for m, pm in ((x, +1), (y, -1)):
        expected = np.array([
            [corner, 0, 0, 0],
            [0, (1 + pm * off * math.cos(phi)) / (2 * math.sqrt(xi)),
             (xi + pm * 1j * off * math.sin(phi)) / (2 * math.sqrt(xi)), 0],
            [0, (xi - pm * 1j * off * math.sin(phi)) / (2 * math.sqrt(xi)),
             (1 - pm * off * math.cos(phi)) / (2 * math.sqrt(xi)), 0],
            [0, 0, 0, corner]], dtype=complex)
        assert la.frobenius(m - expected) < 1e-12
    anti = la.anticommutator(x, y)
    assert la.frobenius(anti - xi * np.eye(4) - w.swap_operator(2)) < 1e-12


def test_shifted_swap_qutrit():
    x, y, residual = w.shifted_swap_factors(
        w.ShiftedSwapParams(xi=0.3, phi=math.pi / 3, d=3))
    assert residual < 1e-10
    ok_x, _ = la.is_positive_semidefinite(x)
    ok_y, _ = la.is_positive_semidefinite(y)
    assert ok_x and ok_y


@pytest.mark.parametrize("xi", [0.0, 1.0, -0.2, 1.7, NAN, INF])
def test_shifted_swap_rejects_boundary_xi(xi):
    with pytest.raises(ValueError):
        w.ShiftedSwapParams(xi=xi, phi=0.0, d=2)
    with pytest.raises(ValueError, match="xi"):
        w.shifted_swap_stack([0.5, xi], 0.0, 2)


@pytest.mark.parametrize("phi", [NAN, INF, -INF])
def test_shifted_swap_rejects_non_finite_phase(phi):
    with pytest.raises(ValueError, match="phi"):
        w.ShiftedSwapParams(xi=0.5, phi=phi, d=2)
    with pytest.raises(ValueError, match="phi"):
        w.shifted_swap_stack([0.5], phi, 2)


def _shifted_swap_reference(p):
    """The per-sector loop of outer products the stacked builder replaced."""
    d, xi, phi = p.d, p.xi, p.phi
    n = d * d
    x = np.zeros((n, n), dtype=complex)
    y = np.zeros((n, n), dtype=complex)
    for i in range(d):
        x[i * d + i, i * d + i] = y[i * d + i, i * d + i] = \
            math.sqrt((1.0 + xi) / 2.0)
    scale = 1.0 / (2.0 * math.sqrt(xi))
    off = math.sqrt(1.0 - xi * xi)
    for i in range(d):
        for j in range(i + 1, d):
            lam_p = np.zeros(n, dtype=complex)
            lam_m = np.zeros(n, dtype=complex)
            lam_p[i * d + j] = lam_p[j * d + i] = 1.0 / math.sqrt(2.0)
            lam_m[i * d + j] = 1.0 / math.sqrt(2.0)
            lam_m[j * d + i] = -1.0 / math.sqrt(2.0)
            diag = ((1.0 + xi) * np.outer(lam_p, lam_p.conj())
                    + (1.0 - xi) * np.outer(lam_m, lam_m.conj()))
            cross = off * (np.exp(-1j * phi) * np.outer(lam_p, lam_m.conj())
                           + np.exp(1j * phi) * np.outer(lam_m, lam_p.conj()))
            x += scale * (diag + cross)
            y += scale * (diag - cross)
    shifted = xi * np.eye(n) + w.swap_operator(d)
    return x, y, la.frobenius(la.anticommutator(x, y) - shifted)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("phi", [0.0, 0.7, -2.0, 3.1, -1e-17, 2 * math.pi])
def test_shifted_swap_matches_per_sector_reference(d, phi):
    xis = np.linspace(0.0, 1.0, 9)[1:-1]
    x, y, shifted, residual = w.shifted_swap_stack(xis, phi, d)
    for k, xi in enumerate(xis):
        p = w.ShiftedSwapParams(xi=xi, phi=phi, d=d)
        want = _shifted_swap_reference(p)
        got = w.shifted_swap_factors(p)
        assert [m.tobytes() for m in got[:2]] == \
            [m.tobytes() for m in want[:2]]
        assert got[2] == want[2]
        assert x[k].tobytes() == want[0].tobytes()
        assert y[k].tobytes() == want[1].tobytes()
        assert residual[k] == want[2]
        assert shifted[k].tobytes() == (
            xi * np.eye(d * d) + w.swap_operator(d)).tobytes()


@settings(deadline=None, max_examples=200)
@given(phi=st.floats(-1e3, 1e3) | st.sampled_from(
    [-1e-17, -5e-324, -2e-16, -2 * math.pi - 1e-16, 2 * math.pi]))
def test_shifted_swap_phase_lies_in_its_range(phi):
    reduced = w.ShiftedSwapParams(xi=0.5, phi=phi).phi
    assert 0.0 <= reduced < 2 * math.pi
    assert w.ShiftedSwapParams(xi=0.5, phi=reduced).phi == reduced


@pytest.mark.parametrize("phi", [-1e-17, -5e-324, -2e-16])
def test_a_phase_that_rounds_up_to_2pi_builds_phase_zero(phi):
    # phi % 2 pi rounds to 2 pi itself here; the builder takes 0 instead.
    got = w.shifted_swap_factors(w.ShiftedSwapParams(xi=0.5, phi=phi, d=3))
    want = w.shifted_swap_factors(w.ShiftedSwapParams(xi=0.5, phi=0.0, d=3))
    assert [m.tobytes() for m in got[:2]] == [m.tobytes() for m in want[:2]]
    assert got[2] == want[2]


def test_dichotomic_settings_refuse_an_overflowing_norm():
    s = w.standard_bell_settings()
    with pytest.raises(ValueError, match="^operator Frobenius norm overflows$"):
        w.DichotomicSettings(1e300 * s.a1, s.a2, s.b1, s.b2)


def test_shifted_swap_random_parameters():
    rng = np.random.default_rng(77)
    for _ in range(50):
        params = w.ShiftedSwapParams(
            xi=rng.uniform(0.05, 0.95),
            phi=rng.uniform(0.0, 2 * math.pi),
            d=int(rng.integers(2, 5)))
        x, y, residual = w.shifted_swap_factors(params)
        assert residual < 1e-10
        ok_x, _ = la.is_positive_semidefinite(x)
        ok_y, _ = la.is_positive_semidefinite(y)
        assert ok_x and ok_y
        shifted = params.xi * np.eye(params.d ** 2) \
            + w.swap_operator(params.d)
        min_eig = la.hermitian_eigensystem(shifted).eigenvalues[0]
        assert abs(min_eig - (params.xi - 1.0)) < 1e-10
        assert min_eig < 0.0


# ----------------------------------------------------------- hermiticity

def test_constructors_return_hermitian_operators():
    rng = np.random.default_rng(88)
    ops = [w.swap_operator(3),
           w.bell_chsh(w.standard_bell_settings(-1))]
    ops.extend(w.avr_asymmetric(w.standard_bell_settings(+1)))
    ops.extend(w.avr_symmetric(random_settings(rng)))
    x, y, q, _, _ = w.qubit_qw(w.QubitQWParams(1.0, 2.0, (0, 0, 1),
                                               (0.6, 0.0, 0.3)))
    ops.extend([x, y, q])
    x, y, _ = w.shifted_swap_factors(w.ShiftedSwapParams(0.4, 1.1, 3))
    ops.extend([x, y])
    for op in ops:
        assert np.abs(op - op.conj().T).max() < 1e-12
