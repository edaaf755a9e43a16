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
interleaved physical indices.  ``BipartiteAlgebra.sector_index`` is the
one sector index, built on first use and kept: each physical index's
sector (``sector_labels``), their stable argsort (the embedding) and the
sector sizes; ``sector_indices`` splits the embedding per sector, and
everything else reads it, or the support index, vertex diagonals and draw
slots built from it on first use; only an indexed vertex is made dense.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import (EXACT_TOL, TOL, finite_with_norm, hermitian_part,
                     hermitian_with_norm)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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

    @functools.cached_property
    def sector_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (labels, order, sizes), built on first use: each
        full-space index's ``block_layout`` position, their stable argsort
        and the sector sizes."""
        k = np.repeat(np.arange(len(self.blocks_a)), self.blocks_a)
        l = np.repeat(np.arange(len(self.blocks_b)), self.blocks_b)
        labels = (k[:, None] * len(self.blocks_b) + l[None, :]).ravel()
        return tuple(map(_read_only, (
            labels, np.argsort(labels, kind="stable"), np.bincount(labels))))

    @functools.cached_property
    def support_index(self) -> np.ndarray:
        """Read-only flat indices of the entries on the sector grids."""
        label = self.sector_index[0]
        return _read_only(np.flatnonzero(label[:, None] == label[None, :]))

    @functools.cached_property
    def vertex_diagonals(self) -> np.ndarray:
        """Read-only (S, n): row j holds 1/size_j on sector j's indices."""
        label, _, sizes = self.sector_index
        return _read_only(np.where(np.arange(sizes.size)[:, None] == label,
                                   1.0 / sizes[label], 0.0))

    @functools.cached_property
    def draw_slots(self) -> np.ndarray:
        """Read-only float offsets of ``_random_block_raw``'s draws: entry
        (i, j) has Re at ``2 * (i * total_dim + j)`` and Im right after."""
        n = self.total_dim
        slots = []
        for idx in sector_indices(self):
            entries = 2 * (idx[:, None] * n + idx[None, :]).ravel()
            slots += [entries, entries + 1]    # real parts, then imaginary
        return _read_only(np.concatenate(slots))

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


def sector_labels(alg: BipartiteAlgebra) -> np.ndarray:
    """The ``block_layout`` position of each full-space index's sector."""
    return alg.sector_index[0]


def embedding_permutation(alg: BipartiteAlgebra) -> np.ndarray:
    """Permutation p with p[canonical position] = physical index."""
    return alg.sector_index[1]


def sector_indices(alg: BipartiteAlgebra) -> list[np.ndarray]:
    """Full-space indices of each sector, in ``block_layout`` order and
    ascending (row-major) within the sector."""
    _, order, sizes = alg.sector_index
    return np.split(order, np.cumsum(sizes)[:-1])


def in_algebra(m, alg: BipartiteAlgebra, *, norm=None) -> bool:
    """True iff no entry of ``m`` off the sector grids exceeds TOL * max(1,
    ||m||_F); pass ``norm`` = ||m||_F to skip checking an ``m`` again."""
    if norm is None:
        m, norm = finite_with_norm(m)
    if m.shape != (alg.total_dim,) * 2:
        raise ValueError(f"shape {m.shape} does not match algebra "
                         f"dimension {alg.total_dim}")
    off = np.abs(m)
    off.flat[alg.support_index] = 0.0
    return float(off.max()) <= TOL * max(1.0, norm)


def require_in_algebra(m, alg: BipartiteAlgebra, *, norm=None) -> np.ndarray:
    m = np.asarray(m, dtype=complex)     # in_algebra or the caller checks it
    if not in_algebra(m, alg, norm=norm):
        raise ValueError("operator is not in the algebra "
                         "(support crosses sector boundaries)")
    return m


def classical_state(alg: BipartiteAlgebra, weights) -> np.ndarray:
    """Density matrices (+)_{k,l} p_kl * I / (n_k m_l).

    ``weights`` has shape ``(..., len(blocks_a), len(blocks_b))``: every
    trailing (k, l) slice is one state's sector weights, nonnegative reals
    summing to 1 within EXACT_TOL.  The leading axes are kept, so the result
    has shape ``(..., total_dim, total_dim)``; a single (k, l) array gives
    a single matrix.  Any invalid slice rejects the whole stack.
    """
    p = np.asarray(weights, dtype=float)
    shape = (len(alg.blocks_a), len(alg.blocks_b))
    if p.shape[-2:] != shape:
        raise ValueError(f"weight shape {p.shape} does not match {shape}")
    if not (p >= -EXACT_TOL).all():
        raise ValueError("classical-state weights must be nonnegative")
    if not (abs(p.sum(axis=(-2, -1)) - 1.0) <= EXACT_TOL).all():
        raise ValueError("classical-state weights must sum to 1")
    n, (label, _, sizes) = alg.total_dim, alg.sector_index
    rho = np.zeros(p.shape[:-2] + (n, n), dtype=complex)
    flat = p.reshape(p.shape[:-2] + (-1,))       # weights in layout order
    rho[..., range(n), range(n)] = flat[..., label] / sizes[label]
    return rho


@dataclass(frozen=True, eq=False)
class ClassicalVertices(Sequence):
    """Vertex states, one per row of ``diagonals``, built on demand."""

    diagonals: np.ndarray

    def __len__(self) -> int:
        return len(self.diagonals)

    def __getitem__(self, j: int) -> np.ndarray:
        return np.diag(self.diagonals[j].astype(complex))


def classical_state_vertices(alg: BipartiteAlgebra) -> ClassicalVertices:
    """Vertices of the classical simplex, on ``alg.vertex_diagonals``."""
    return ClassicalVertices(alg.vertex_diagonals)


def is_classical_state(rho, alg: BipartiteAlgebra) -> bool:
    """Structural classicality test: every sector a scalar multiple of I.

    States supported outside the sector grids are not elements of the
    algebra at all and are rejected with an error rather than classified.
    """
    rho = require_in_algebra(rho, alg)
    for idx in sector_indices(alg):
        sub = rho[np.ix_(idx, idx)]
        scalar = np.trace(sub) / idx.size
        if np.abs(sub - scalar * np.eye(idx.size)).max() > TOL:
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
    best = None
    best_val = 0.0
    for idx in sector_indices(alg):
        for i, j in itertools.combinations(idx.tolist(), 2):
            coherence = rho[j, i]          # tr(rho E_ij)
            if abs(coherence) > abs(best_val):
                best_val = coherence
                best = ((i, i), (i, j))
            imbalance = rho[i, i] - rho[j, j]
            if abs(imbalance) > abs(best_val):
                best_val = imbalance
                best = ((i, j), (j, i))
    if best is None or abs(best_val) == 0.0:
        return None
    x, y = np.zeros((2, alg.total_dim, alg.total_dim), dtype=complex)
    x[best[0]] = y[best[1]] = 1.0
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
    return _blocks_from_draws(
        alg, rng.standard_normal(shape + alg.draw_slots.shape))


def _blocks_from_draws(alg: BipartiteAlgebra, draws) -> np.ndarray:
    """Scatter ``draws`` of shape ``(..., 2 * sum(size**2))``, laid out as
    ``_random_block_raw`` consumes them, into ``(..., total_dim,
    total_dim)`` complex matrices supported on the sector grids."""
    n = alg.total_dim
    out = np.zeros(draws.shape[:-1] + (2 * n * n,))
    out[..., alg.draw_slots] = draws
    return out.view(complex).reshape(draws.shape[:-1] + (n, n))


def _random_element(alg: BipartiteAlgebra, rng: np.random.Generator,
                    positive: bool,
                    shape: tuple[int, ...] = ()) -> np.ndarray:
    """Hermitian (G + G^dag)/2, or G^dag G if ``positive``, stacked over
    ``shape`` like ``_random_block_raw``."""
    g = _random_block_raw(alg, rng, shape)
    if positive:
        return g.conj().swapaxes(-1, -2) @ g
    return hermitian_part(g)


def random_algebra_element(alg: BipartiteAlgebra, seed: int,
                           positive: bool = False) -> np.ndarray:
    """Seeded Hermitian element of the algebra; G^dag G per sector if
    ``positive``."""
    rng = np.random.default_rng(seed)
    return hermitian_with_norm(_random_element(alg, rng, positive))[0]
