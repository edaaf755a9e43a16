"""Density-matrix construction and sampling.

States are numpy density matrices: Hermitian, positive semidefinite and
unit trace.  Samplers take explicit integer seeds and are reproducible
bit-for-bit for a fixed seed.  Mixed states are drawn from the
Hilbert-Schmidt-like ensemble G^dag G / tr; separable states are
Dirichlet-weighted mixtures of Haar-random pure product states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (EXACT_TOL, _dots, _row_norms, is_positive_semidefinite,
                     matrix_from_json, matrix_to_json, tensor)

KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def assert_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; return the matrix."""
    ok, min_eig = is_positive_semidefinite(rho, "state")
    rho = np.asarray(rho, dtype=complex)    # checked just now
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > EXACT_TOL:
        raise ValueError(f"state trace {tr} is not 1")
    if not ok:
        raise ValueError(f"state has negative eigenvalue {min_eig:.3e}")
    return rho


def pure_state(amplitudes) -> np.ndarray:
    """Normalized projector v v^dag / |v|^2 onto a nonzero vector."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    norm_sq = float(np.vdot(v, v).real)
    if norm_sq == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return np.outer(v, v.conj()) / norm_sq


_BELL_VECTORS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2.0),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0),
}


def bell_state(kind: str) -> np.ndarray:
    """One of the four maximally entangled two-qubit projectors."""
    try:
        v = _BELL_VECTORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown Bell state {kind!r}; expected one of "
            f"{sorted(_BELL_VECTORS)}") from None
    return pure_state(v)


def chi_state(a, b) -> np.ndarray:
    """Projector onto a|+->|--> + b|-->|+->, normalized."""
    v = a * np.kron(KET_PLUS, KET_MINUS) + b * np.kron(KET_MINUS, KET_PLUS)
    if np.abs(v).max() == 0.0:
        raise ValueError("chi state requires (a, b) != (0, 0)")
    return pure_state(v)


@dataclass
class SeparableDecomposition:
    """Explicit convex combination sum_k p_k rho_k (x) sigma_k."""

    terms: list[tuple[float, np.ndarray, np.ndarray]] = field(
        default_factory=list)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("decomposition needs at least one term")
        weights = np.array([p for p, _, _ in self.terms], dtype=float)
        if weights.min() <= 0.0:
            raise ValueError("decomposition weights must be positive")
        if abs(weights.sum() - 1.0) > EXACT_TOL:
            raise ValueError("decomposition weights must sum to 1")

    def state(self) -> np.ndarray:
        return sum(p * tensor(ra, rb) for p, ra, rb in self.terms)

    def to_json(self) -> dict:
        return {"terms": [{"p": float(p),
                           "rhoA": matrix_to_json(ra),
                           "rhoB": matrix_to_json(rb)}
                          for p, ra, rb in self.terms]}

    @classmethod
    def from_json(cls, obj) -> "SeparableDecomposition":
        if not isinstance(obj, dict) or "terms" not in obj:
            raise ValueError("decomposition JSON needs a 'terms' list")
        terms = [(float(t["p"]),
                  matrix_from_json(t["rhoA"]),
                  matrix_from_json(t["rhoB"]))
                 for t in obj["terms"]]
        return cls(terms)


def _unit_rows(re, im) -> np.ndarray:
    """``v / np.linalg.norm(v)`` for each row v = re + i im, with the same
    arithmetic."""
    v = re + 1j * im
    return v / _row_norms(v)[:, None]


def _projectors(v) -> np.ndarray:
    """``pure_state(v)`` for each row v, with the same arithmetic."""
    norm_sq = _dots(v.conj(), v).real
    return v[:, :, None] * v.conj()[:, None, :] / norm_sq[:, None, None]


def random_unit_pairs(rng, count: int, d_a: int, d_b: int):
    """``count`` Haar-random unit vectors per factor from one
    ``standard_normal`` call, pair by pair: re a, im a, re b, im b."""
    z = rng.standard_normal((count, 2 * (d_a + d_b)))
    re_a, im_a, re_b, im_b = np.split(z, np.cumsum([d_a, d_a, d_b]), axis=1)
    return _unit_rows(re_a, im_a), _unit_rows(re_b, im_b)


def random_pure_product(d_a: int, d_b: int, seed: int):
    """Haar-random pure product state with its one-term decomposition."""
    if d_a < 1 or d_b < 1:
        raise ValueError("local dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    (rho_a,), (rho_b,) = map(_projectors, random_unit_pairs(rng, 1, d_a, d_b))
    decomp = SeparableDecomposition([(1.0, rho_a, rho_b)])
    return tensor(rho_a, rho_b), decomp


def random_separable(d_a: int, d_b: int, num_terms: int | None = None,
                     seed: int = 0):
    """Dirichlet-weighted mixture of random pure product states.

    ``num_terms`` defaults to 2 * d_a * d_b, enough to land in the
    interior of the separable set generically.  With num_terms=1 the
    output is a pure product state (drawn after one Dirichlet call, so
    the stream differs from random_pure_product at equal seeds).
    """
    if num_terms is None:
        num_terms = 2 * d_a * d_b
    if num_terms < 1:
        raise ValueError("num_terms must be >= 1")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(num_terms))
    rho_a, rho_b = map(_projectors,
                       random_unit_pairs(rng, num_terms, d_a, d_b))
    n = d_a * d_b
    # tensor(rho_a, rho_b) per term: (i*d_b+k, j*d_b+l) <- a[i,j] * b[k,l]
    products = (rho_a[:, :, None, :, None]
                * rho_b[:, None, :, None, :]).reshape(num_terms, n, n)
    rho = np.zeros((n, n), dtype=complex)
    for p, product in zip(weights, products):
        rho += p * product
    terms = [(float(p), a, b) for p, a, b in zip(weights, rho_a, rho_b)]
    return rho, SeparableDecomposition(terms)


def random_density(d: int, seed: int) -> np.ndarray:
    """Full-rank Hilbert-Schmidt-like sample G^dag G / tr(G^dag G)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g.conj().T @ g
    return rho / np.trace(rho).real
