"""Witness operators: swap, Bell-CHSH, anticommutator forms, shifted swap.

All full-space operators use lexicographic |ij> ordering of the product
basis (index i*d + j).  The +/- branch that appears in the Bell-CHSH
observable and in the anticommutator factor pairs is an explicit ``sign``
parameter carried by the settings; the default is +.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (EXACT_TOL, RESIDUAL_TOL, TOL, _row_norms, anticommutator,
                     as_matrix, frobenius, is_positive_semidefinite, tensor)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def swap_operator(d: int) -> np.ndarray:
    """Exchange of the two tensor factors of C^d (x) C^d.

    The matrix is the permutation |i>|j> -> |j>|i|>; it squares to the
    identity, so its spectrum is +/-1 (symmetric resp. antisymmetric
    subspace).
    """
    if d < 2:
        raise ValueError("swap operator needs local dimension >= 2")
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def _require_dichotomic(m, name):
    m = as_matrix(m)
    if frobenius(m @ m - np.eye(m.shape[0])) > RESIDUAL_TOL:
        raise ValueError(f"{name} is not dichotomic (square != identity)")
    return m


@dataclass
class DichotomicSettings:
    """Two +/-1-valued observables per side plus the +/- branch choice."""

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    sign: int = +1

    def __post_init__(self):
        self.a1 = _require_dichotomic(self.a1, "A1")
        self.a2 = _require_dichotomic(self.a2, "A2")
        self.b1 = _require_dichotomic(self.b1, "B1")
        self.b2 = _require_dichotomic(self.b2, "B2")
        if self.a1.shape != self.a2.shape or self.b1.shape != self.b2.shape:
            raise ValueError("settings dimensions mismatch within a side")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def dim(self) -> int:
        return self.a1.shape[0] * self.b1.shape[0]


def standard_bell_settings(sign: int = +1) -> DichotomicSettings:
    """A1 = sx, A2 = sy, B1 = (sx+sy)/sqrt2, B2 = (sx-sy)/sqrt2."""
    rt2 = math.sqrt(2.0)
    return DichotomicSettings(
        a1=SIGMA_X,
        a2=SIGMA_Y,
        b1=(SIGMA_X + SIGMA_Y) / rt2,
        b2=(SIGMA_X - SIGMA_Y) / rt2,
        sign=sign,
    )


def _chsh_combination(s: DichotomicSettings) -> np.ndarray:
    return (tensor(s.a1, s.b1) + tensor(s.a1, s.b2)
            + tensor(s.a2, s.b1) - tensor(s.a2, s.b2))


def bell_chsh(s: DichotomicSettings) -> np.ndarray:
    """Bell-CHSH observable 2 +/- (A1B1 + A1B2 + A2B1 - A2B2)."""
    return 2.0 * np.eye(s.dim) + s.sign * _chsh_combination(s)


def _require_psd(m, name):
    ok, min_eig = is_positive_semidefinite(m)
    if not ok:
        raise ValueError(f"{name} is not PSD (min eigenvalue {min_eig:.3e})")
    return m


def avr_asymmetric(s: DichotomicSettings):
    """Anticommutator pair X = 2 +/- A1(B1+B2), Y = 2 +/- A2(B1-B2).

    Returns (X, Y, {X,Y}).  The anticommutator equals
    4 E_Bell - [A1,A2] (x) [B1,B2]; both factors are PSD for any
    dichotomic settings.
    """
    eye = np.eye(s.dim)
    x = 2.0 * eye + s.sign * (tensor(s.a1, s.b1) + tensor(s.a1, s.b2))
    y = 2.0 * eye + s.sign * (tensor(s.a2, s.b1) - tensor(s.a2, s.b2))
    _require_psd(x, "X")
    _require_psd(y, "Y")
    return x, y, anticommutator(x, y)


def avr_symmetric(s: DichotomicSettings):
    """Exchange-symmetric pair X = 2 +/- (A1B1 - A2B2), Y = 2 +/- (A1B2 + A2B1).

    Returns (X, Y, {X,Y}) with {X,Y} = 4 E_Bell, which exhibits the
    Bell-CHSH observable itself as an anticommutator of positive factors.
    """
    eye = np.eye(s.dim)
    x = 2.0 * eye + s.sign * (tensor(s.a1, s.b1) - tensor(s.a2, s.b2))
    y = 2.0 * eye + s.sign * (tensor(s.a1, s.b2) + tensor(s.a2, s.b1))
    _require_psd(x, "X")
    _require_psd(y, "Y")
    return x, y, anticommutator(x, y)


@dataclass
class QubitQWParams:
    """Parameters of the generic qubit anticommutator pair.

    X = alpha/2 (1 + u.sigma) and Y = beta/2 (1 + v.sigma) with
    alpha, beta > 0 and Bloch vectors of length at most 1.
    """

    alpha: float
    beta: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.alpha = float(self.alpha)
        self.beta = float(self.beta)
        self.u = np.asarray(self.u, dtype=float).reshape(3)
        self.v = np.asarray(self.v, dtype=float).reshape(3)
        _check_qubit_rows(self.alpha, self.beta, self.u, self.v)


def _check_qubit_rows(alpha, beta, u, v) -> None:
    """Raise unless every row has finite alpha, beta > 0 and Bloch vectors
    u, v (along the last axis) of length at most 1; rows broadcast."""
    if not (np.all(alpha > 0.0) and np.all(beta > 0.0)):
        raise ValueError("alpha and beta must be strictly positive")
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ValueError("alpha and beta must be finite")
    with np.errstate(over="ignore"):     # a huge entry is an infinite length
        lengths = np.linalg.norm(u, axis=-1), np.linalg.norm(v, axis=-1)
    if not all(np.all(n <= 1.0 + EXACT_TOL) for n in lengths):
        raise ValueError("Bloch vectors must have length <= 1")


def _bloch(vec) -> np.ndarray:
    """u.sigma for every Bloch vector along the last axis of ``vec``."""
    return sum(c[..., None, None] * p
               for c, p in zip(np.moveaxis(vec, -1, 0), PAULI))


def qubit_qw_stack(alpha, beta, u, v):
    """X, Y and Q = {X, Y} of the qubit pair for a stack of parameters.

    ``alpha`` and ``beta`` have shape (...), ``u`` and ``v`` shape
    (..., 3); the three results have shape (..., 2, 2).  Every row is
    checked as QubitQWParams checks one.
    """
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    _check_qubit_rows(alpha, beta, u, v)
    eye = np.eye(2)
    x = (0.5 * alpha)[..., None, None] * (eye + _bloch(u))
    y = (0.5 * beta)[..., None, None] * (eye + _bloch(v))
    with np.errstate(over="ignore", invalid="ignore"):
        q = x @ y + y @ x
    if not np.isfinite(q).all():
        raise ValueError("{X, Y} overflows: alpha * beta is too large")
    return x, y, q


def qubit_qw(p: QubitQWParams):
    """Qubit anticommutator witness and its closed-form eigenvalues.

    Returns (X, Y, Q, lambda_plus, lambda_minus) with
    Q = {X,Y} = alpha*beta/2 [1 + u.v + (u+v).sigma] and
    lambda_pm = alpha*beta/2 (1 + u.v +/- |u+v|).
    """
    x, y, q = qubit_qw_stack(p.alpha, p.beta, p.u, p.v)
    half_ab = 0.5 * p.alpha * p.beta
    dot = float(np.dot(p.u, p.v))
    plus_len = float(np.linalg.norm(p.u + p.v))
    lam_plus = half_ab * (1.0 + dot + plus_len)
    lam_minus = half_ab * (1.0 + dot - plus_len)
    if not math.isfinite(lam_plus):
        raise ValueError("lambda_plus overflows: alpha * beta is too large")
    return x, y, q, lam_plus, lam_minus


def qubit_qw_condition(u_len: float, v_len: float, theta: float) -> bool:
    """Witness condition cos^2(theta) < (u^2 + v^2 - 1) / (u^2 v^2).

    Equivalent to lambda_minus < 0 for Bloch lengths (u_len, v_len) at
    relative angle theta.  Evaluated in the cancellation-free factored
    form sin^2(theta) u^2 v^2 > (1 - u^2)(1 - v^2), which is exact at the
    boundary cases (aligned vectors, unit lengths, zero lengths).
    """
    if not (0.0 <= u_len <= 1.0 and 0.0 <= v_len <= 1.0):
        raise ValueError("Bloch lengths must lie in [0, 1]")
    u2, v2 = u_len * u_len, v_len * v_len
    sin_t = math.sin(theta)
    return sin_t * sin_t * u2 * v2 > (1.0 - u2) * (1.0 - v2)


def fig1_surfaces(grid_n: int):
    """Witnessability bound and extremal eigenvalue ratio over (0,1]^2.

    For each (u, v) on a uniform grid of (0,1]^2 the bound is
    (u^2+v^2-1)/(u^2 v^2) (an upper bound on cos^2 theta); min_ratio is
    the smallest lambda_minus/lambda_plus over 1024 angles in [0, pi] with
    lambda_minus < 0, or None when no angle witnesses.
    Returns rows (u, v, bound, min_ratio).
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    axis = np.arange(1, grid_n + 1) / grid_n
    thetas = np.linspace(0.0, math.pi, 1024)
    cos_t = np.cos(thetas)
    rows = []
    for u in axis:
        for v in axis:
            bound = (u * u + v * v - 1.0) / (u * u * v * v)
            dot = u * v * cos_t
            plus_len = np.sqrt(u * u + v * v + 2.0 * dot)
            lam_minus = 0.5 * (1.0 + dot - plus_len)
            lam_plus = 0.5 * (1.0 + dot + plus_len)
            mask = lam_minus < 0.0
            if mask.any():
                min_ratio = float((lam_minus[mask] / lam_plus[mask]).min())
            else:
                min_ratio = None
            rows.append((float(u), float(v), float(bound), min_ratio))
    return rows


@dataclass
class ShiftedSwapParams:
    """Shift 0 < xi < 1, free phase phi, local dimension d >= 2."""

    xi: float
    phi: float = 0.0
    d: int = 2

    def __post_init__(self):
        xi, self.phi = _checked_shift(self.xi, self.phi)
        self.xi = float(xi)
        self.d = int(self.d)
        if self.d < 2:
            raise ValueError("local dimension must be >= 2")


def _checked_shift(xi, phi):
    """The shifts as a checked array, and the phase reduced to [0, 2 pi)."""
    xi = np.asarray(xi, dtype=float)
    if not np.all((0.0 < xi) & (xi < 1.0)):
        raise ValueError("xi must lie strictly inside (0, 1)")
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    phi %= 2.0 * math.pi            # a tiny negative phi rounds up to 2 pi
    return xi, phi if phi < 2.0 * math.pi else 0.0


def shifted_swap_stack(xi, phi: float = 0.0, d: int = 2):
    """The factorization of shifted_swap_factors for a stack of shifts.

    ``xi`` has shape (...) and shares one phase and dimension; shifts and
    phase are checked and reduced as ShiftedSwapParams does.  Returns
    (X, Y, xi*I + S, residuals): three stacks of shape (..., d^2, d^2) and
    the Frobenius residuals, shape (...), each the bits of ``frobenius``
    on its matrix alone.
    """
    swap = swap_operator(d)
    xi, phi = _checked_shift(xi, phi)
    n = d * d
    x = np.zeros(xi.shape + (n, n), dtype=complex)
    y = np.zeros_like(x)
    ii = np.arange(d) * (d + 1)
    x[..., ii, ii] = y[..., ii, ii] = np.sqrt((1.0 + xi) / 2.0)[..., None]
    # Every sector span{|ij>, |ji>} carries the same 2x2 block in the basis
    # (|ij>, |ji>), so the block is computed once and added at each sector.
    r = 1.0 / math.sqrt(2.0)
    lam_p = np.array([r, r], dtype=complex)
    lam_m = np.array([r, -r], dtype=complex)
    col = xi[..., None, None]
    diag2 = ((1.0 + col) * np.outer(lam_p, lam_p.conj())
             + (1.0 - col) * np.outer(lam_m, lam_m.conj()))
    cross = np.sqrt(1.0 - col * col) * (
        np.exp(-1j * phi) * np.outer(lam_p, lam_m.conj())
        + np.exp(1j * phi) * np.outer(lam_m, lam_p.conj()))
    scale = 1.0 / (2.0 * np.sqrt(col))
    ij, ji = np.array([(i * d + j, j * d + i) for i in range(d)
                       for j in range(i + 1, d)]).T
    rows = np.stack([ij, ij, ji, ji], axis=-1).ravel()
    cols = np.stack([ij, ji, ij, ji], axis=-1).ravel()
    for out, block in ((x, scale * (diag2 + cross)),
                       (y, scale * (diag2 - cross))):
        out[..., rows, cols] += np.tile(block.reshape(xi.shape + (4,)),
                                        len(ij))
    shifted = col * np.eye(n) + swap
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _row_norms((x @ y + y @ x - shifted).reshape(
            xi.shape + (n * n,)))
    # Below xi ~ 1e-8 the 1/(2 sqrt(xi)) scale cancels away the precision
    # of {X, Y}; the negation also refuses a residual that overflowed.
    if not (residual <= TOL * np.maximum(
            1.0, np.linalg.norm(shifted, axis=(-2, -1)))).all():
        raise ValueError("{X, Y} misses xi*I + S by more than TOL: "
                         "xi is too small")
    return x, y, shifted, residual


def shifted_swap_factors(p: ShiftedSwapParams):
    """PSD factors with {X, Y} = xi*I + S, built sector by sector.

    Each two-dimensional sector span{|ij>, |ji>} (i < j) carries the
    qubit construction with unit Bloch vectors at angle theta fixed by
    xi = cos(theta/2) and weights alpha = beta = 1/sqrt(xi); written in
    the eigenbasis |lambda_pm> = (|ij> +/- |ji>)/sqrt2 the factors are

        [ (1+xi) |+><+| + (1-xi) |-><-|
          +/- sqrt(1-xi^2) (e^{-i phi} |+><-| + e^{i phi} |-><+|) ]
        / (2 sqrt(xi)),

    X taking the upper sign and Y the lower.  Every diagonal |ii> entry
    of both factors is sqrt((1+xi)/2).  Returns (X, Y, residual) with
    residual = ||{X,Y} - (xi*I + S)||_F.
    """
    x, y, _, residual = shifted_swap_stack(p.xi, p.phi, p.d)
    return x, y, float(residual)
