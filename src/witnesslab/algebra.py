"""Reducible bipartite operator algebras and their classical states.

An algebra is described by the block sizes of its two factors: the A
factor splits into full matrix blocks of sizes ``blocks_a = (n_0, n_1,
...)`` and the B factor into ``blocks_b = (m_0, m_1, ...)``.  Elements of
the product algebra are supported on the sectors where an A block meets a
B block.

Basis convention (shared by every module): the full space is the tensor
product C^(sum n_k) (x) C^(sum m_l) with lexicographic pair indexing
``i * dim_b + j``; the A blocks occupy consecutive index ranges of the
first factor, the B blocks of the second.  Sector (k, l) therefore lives
on the index grid (range of block k) x (range of block l), which is not
contiguous in general.  ``block_layout`` reports the canonical contiguous
ordering (k-major, then l) and ``embedding_permutation`` maps it onto the
interleaved physical indices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, frobenius, require_hermitian

BLOCK_SCALAR_TOL = 1e-9


@dataclass(frozen=True)
class BipartiteAlgebra:
    """Block-structure descriptor for (+)_k B(C^n_k) (x) (+)_l B(C^m_l)."""

    blocks_a: tuple[int, ...]
    blocks_b: tuple[int, ...]

    def __post_init__(self):
        for name in ("blocks_a", "blocks_b"):
            raw = getattr(self, name)
            blocks = tuple(int(n) for n in raw)
            if len(blocks) == 0:
                raise ValueError(f"{name} must be nonempty")
            if any(n < 1 for n in blocks):
                raise ValueError(f"{name} must contain positive integers")
            object.__setattr__(self, name, blocks)

    @property
    def dim_a(self) -> int:
        return sum(self.blocks_a)

    @property
    def dim_b(self) -> int:
        return sum(self.blocks_b)

    @property
    def total_dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def is_commutative(self) -> bool:
        """True iff every sector is one-dimensional."""
        return all(n == 1 for n in self.blocks_a) and \
            all(m == 1 for m in self.blocks_b)

    def to_json(self) -> dict:
        return {"blocks_a": list(self.blocks_a),
                "blocks_b": list(self.blocks_b)}

    @classmethod
    def from_json(cls, obj) -> "BipartiteAlgebra":
        if not isinstance(obj, dict) or \
                "blocks_a" not in obj or "blocks_b" not in obj:
            raise ValueError("algebra JSON needs 'blocks_a' and 'blocks_b'")
        return cls(tuple(obj["blocks_a"]), tuple(obj["blocks_b"]))


def full_algebra(dim_a: int, dim_b: int) -> BipartiteAlgebra:
    """The irreducible algebra B(C^dim_a) (x) B(C^dim_b)."""
    return BipartiteAlgebra((dim_a,), (dim_b,))


def block_layout(alg: BipartiteAlgebra) -> list[tuple[int, int, int, int]]:
    """Canonical (k, l, offset, size) list, k-major then l.

    Offsets partition [0, total_dim) in the canonical contiguous ordering
    of sectors; sizes are n_k * m_l.
    """
    layout = []
    offset = 0
    for k, nk in enumerate(alg.blocks_a):
        for l, ml in enumerate(alg.blocks_b):
            size = nk * ml
            layout.append((k, l, offset, size))
            offset += size
    return layout


def block_indices(alg: BipartiteAlgebra, k: int, l: int) -> np.ndarray:
    """Full-space indices of sector (k, l), row-major within the sector."""
    a_off = sum(alg.blocks_a[:k])
    b_off = sum(alg.blocks_b[:l])
    rows = (a_off + np.arange(alg.blocks_a[k])) * alg.dim_b
    cols = b_off + np.arange(alg.blocks_b[l])
    return (rows[:, None] + cols[None, :]).ravel()


def embedding_permutation(alg: BipartiteAlgebra) -> np.ndarray:
    """Permutation p with p[canonical position] = physical index."""
    return np.concatenate(
        [block_indices(alg, k, l) for k, l, _, _ in block_layout(alg)])


def extract_block(m, alg: BipartiteAlgebra, k: int, l: int) -> np.ndarray:
    idx = block_indices(alg, k, l)
    return as_matrix(m)[np.ix_(idx, idx)]


def in_algebra(m, alg: BipartiteAlgebra, tol: float | None = None) -> bool:
    """True iff ``m`` is supported only on the sector grids of ``alg``."""
    m = as_matrix(m)
    if m.shape[0] != alg.total_dim:
        raise ValueError(
            f"dimension {m.shape[0]} does not match algebra "
            f"dimension {alg.total_dim}")
    if tol is None:
        tol = BLOCK_SCALAR_TOL * max(1.0, frobenius(m))
    mask = np.zeros(m.shape, dtype=bool)
    for k, l, _, _ in block_layout(alg):
        idx = block_indices(alg, k, l)
        mask[np.ix_(idx, idx)] = True
    off = np.abs(m[~mask])
    return off.size == 0 or float(off.max()) <= tol


def require_in_algebra(m, alg: BipartiteAlgebra) -> np.ndarray:
    m = as_matrix(m)
    if not in_algebra(m, alg):
        raise ValueError("operator is not in the algebra "
                         "(support crosses sector boundaries)")
    return m


@functools.lru_cache(maxsize=64)
def _draw_slots(alg: BipartiteAlgebra) -> np.ndarray:
    """Where each draw of ``_random_block_raw`` lands in a full-space
    complex matrix viewed as 2 * total_dim**2 floats: the real part of
    entry (i, j) sits at ``2 * (i * total_dim + j)``, its imaginary part
    right after.  Built once per algebra; the array is shared, hence
    read-only.
    """
    n = alg.total_dim
    slots = []
    for k, l, _, _ in block_layout(alg):
        idx = block_indices(alg, k, l)
        entries = 2 * (idx[:, None] * n + idx[None, :]).ravel()
        slots += [entries, entries + 1]    # real parts, then imaginary
    out = np.concatenate(slots)
    out.flags.writeable = False
    return out


def classical_state(alg: BipartiteAlgebra, weights) -> np.ndarray:
    """Density matrices (+)_{k,l} p_kl * I / (n_k m_l).

    ``weights`` has shape ``(..., len(blocks_a), len(blocks_b))``: every
    trailing (k, l) slice is one state's sector weights, nonnegative reals
    summing to 1 within 1e-12.  The leading axes are kept, so the result
    has shape ``(..., total_dim, total_dim)``; a single (k, l) array gives
    a single matrix.  Any invalid slice rejects the whole stack.
    """
    p = np.asarray(weights, dtype=float)
    shape = (len(alg.blocks_a), len(alg.blocks_b))
    if p.shape[-2:] != shape:
        raise ValueError(f"weight shape {p.shape} does not match {shape}")
    if not (p >= -1e-12).all():
        raise ValueError("classical-state weights must be nonnegative")
    if not (abs(p.sum(axis=(-2, -1)) - 1.0) <= 1e-12).all():
        raise ValueError("classical-state weights must sum to 1")
    rho = np.zeros(p.shape[:-2] + (alg.total_dim, alg.total_dim),
                   dtype=complex)
    # The transposed views put the sector and matrix axes first, so one
    # assignment per sector fills its diagonal in every state of a stack.
    p_t, rho_t = p.T, rho.T
    for k, l, _, size in block_layout(alg):
        idx = block_indices(alg, k, l)
        rho_t[idx, idx] = p_t[l, k] / size
    return rho


def classical_state_vertices(alg: BipartiteAlgebra) -> list[np.ndarray]:
    """Extreme points of the classical-state simplex, one per sector."""
    vertices = []
    nk_count, ml_count = len(alg.blocks_a), len(alg.blocks_b)
    for k, l, _, _ in block_layout(alg):
        w = np.zeros((nk_count, ml_count))
        w[k, l] = 1.0
        vertices.append(classical_state(alg, w))
    return vertices


def is_classical_state(rho, alg: BipartiteAlgebra,
                       tol: float = BLOCK_SCALAR_TOL) -> bool:
    """Structural classicality test: every sector a scalar multiple of I.

    States supported outside the sector grids are not elements of the
    algebra at all and are rejected with an error rather than classified.
    """
    rho = require_in_algebra(rho, alg)
    for k, l, _, size in block_layout(alg):
        sub = extract_block(rho, alg, k, l)
        scalar = np.trace(sub) / size
        if np.abs(sub - scalar * np.eye(size)).max() > tol:
            return False
    return True


def classicality_violation(rho, alg: BipartiteAlgebra):
    """Certificate (X, Y, tr(rho [X,Y])) for a non-classical state.

    Probes are matrix units within a sector: off-diagonal coherence
    rho_ij != 0 is caught by (E_ii, E_ij) since [E_ii, E_ij] = E_ij, and a
    diagonal imbalance by (E_ij, E_ji) since [E_ij, E_ji] = E_ii - E_jj.
    Returns the strongest certificate, or None if all probes vanish.
    """
    rho = require_in_algebra(rho, alg)
    dim = alg.total_dim
    best = None
    best_val = 0.0

    def unit(i, j):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, j] = 1.0
        return e

    for k, l, _, _ in block_layout(alg):
        idx = block_indices(alg, k, l)
        for a in range(idx.size):
            for b in range(a + 1, idx.size):
                i, j = int(idx[a]), int(idx[b])
                coherence = rho[j, i]          # tr(rho E_ij)
                if abs(coherence) > abs(best_val):
                    best_val = coherence
                    best = (unit(i, i), unit(i, j))
                imbalance = rho[i, i] - rho[j, j]
                if abs(imbalance) > abs(best_val):
                    best_val = imbalance
                    best = (unit(i, j), unit(j, i))
    if best is None or abs(best_val) == 0.0:
        return None
    x, y = best
    value = complex(np.trace(rho @ (x @ y - y @ x)))
    return x, y, value


def _random_block_raw(alg: BipartiteAlgebra, rng: np.random.Generator,
                      shape: tuple[int, ...] = ()) -> np.ndarray:
    """Complex Gaussian matrices supported on the sector grids.

    Returns an array of shape ``shape + (total_dim, total_dim)`` from a
    single ``rng.standard_normal`` call.  Each matrix consumes
    2 * sum(size**2) draws: per sector in ``block_layout`` order, the real
    parts of its entries (row-major), then their imaginary parts.  A
    stacked call therefore draws exactly what the same number of
    unstacked calls would, in the same order.
    """
    slots = _draw_slots(alg)
    n = alg.total_dim
    out = np.zeros(shape + (2 * n * n,))
    out[..., slots] = rng.standard_normal(shape + slots.shape)
    return out.view(complex).reshape(shape + (n, n))


def _random_element(alg: BipartiteAlgebra, rng: np.random.Generator,
                    positive: bool,
                    shape: tuple[int, ...] = ()) -> np.ndarray:
    """Hermitian (G + G^dag)/2, or G^dag G if ``positive``, stacked over
    ``shape`` like ``_random_block_raw``."""
    g = _random_block_raw(alg, rng, shape)
    g_dag = g.conj().swapaxes(-1, -2)
    if positive:
        return g_dag @ g
    return (g + g_dag) / 2.0


def random_algebra_element(alg: BipartiteAlgebra, seed: int,
                           positive: bool = False) -> np.ndarray:
    """Seeded Hermitian element of the algebra; G^dag G per sector if
    ``positive``."""
    rng = np.random.default_rng(seed)
    return require_hermitian(_random_element(alg, rng, positive))
