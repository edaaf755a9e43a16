"""Dense complex matrix kernel.

All operators and states in this package are plain numpy arrays of
complex128, square and row-major.  Dimensions stay small (a few dozen at
most), so every routine favors clarity and strict validation over
asymptotic cleverness.  All functions are pure; thread safety is by
immutability.

The shared on-disk format for matrices is

    {"dim": n, "re": [n*n floats, row-major], "im": [n*n floats, row-major]}

with exactly those field names.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

# Tolerances for deciding Hermiticity / positivity at desk scale.  The
# Hermiticity and PSD cutoffs scale with max(1, ||M||_F).
HERMITICITY_TOL = 1e-9
PSD_TOL = 1e-9
EIG_RESIDUAL_TOL = 1e-9
IMAG_EXPECTATION_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def frobenius(m) -> float:
    return float(np.linalg.norm(m))


def is_hermitian(m, tol: float | None = None) -> bool:
    m = as_matrix(m)
    if tol is None:
        tol = HERMITICITY_TOL * max(1.0, frobenius(m))
    return float(np.abs(m - m.conj().T).max()) <= tol


def require_hermitian(m, what: str = "operator") -> np.ndarray:
    m = as_matrix(m)
    if not is_hermitian(m):
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return m


def tensor(a, b) -> np.ndarray:
    """Kronecker product; index (i*db+k, j*db+l) carries a[i,j]*b[k,l]."""
    return np.kron(as_matrix(a), as_matrix(b))


def direct_sum(blocks) -> np.ndarray:
    """Block-diagonal matrix from a nonempty list of square blocks."""
    blocks = [as_matrix(b) for b in blocks]
    if not blocks:
        raise ValueError("direct_sum of an empty list")
    total = sum(b.shape[0] for b in blocks)
    out = np.zeros((total, total), dtype=complex)
    at = 0
    for b in blocks:
        n = b.shape[0]
        out[at:at + n, at:at + n] = b
        at += n
    return out


def _pair(a, b):
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def commutator(a, b) -> np.ndarray:
    a, b = _pair(a, b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    a, b = _pair(a, b)
    return a @ b + b @ a


class EigenSystem(NamedTuple):
    """Spectral decomposition: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigensystem(h) -> EigenSystem:
    """Full spectral decomposition of a Hermitian matrix.

    Eigenvalues come back ascending; eigenvectors are the paired columns.
    Backed by LAPACK through numpy, which is deterministic for a fixed
    input.  Raises if ``h`` is not Hermitian within tolerance.
    """
    h = require_hermitian(h)
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    return EigenSystem(w, v)


def is_positive_semidefinite(h) -> tuple[bool, float]:
    """(PSD verdict, minimum eigenvalue) for a Hermitian matrix."""
    h = require_hermitian(h)
    min_eig = float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])
    return min_eig >= -PSD_TOL * max(1.0, frobenius(h)), min_eig


def expectation(rho, o) -> float:
    """tr(rho @ o) as a real number.

    The imaginary residual must stay below IMAG_EXPECTATION_TOL; a larger
    one signals corrupted (non-Hermitian) inputs and raises.
    """
    rho, o = _pair(rho, o)
    val = complex(np.trace(rho @ o))
    if abs(val.imag) > IMAG_EXPECTATION_TOL:
        raise ValueError(f"expectation has imaginary residual {val.imag:.3e}")
    return val.real


def partial_transpose(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of a dim_a*dim_b matrix."""
    m = as_matrix(m)
    if dim_a * dim_b != m.shape[0]:
        raise ValueError(
            f"cannot factor dim {m.shape[0]} as {dim_a}x{dim_b}")
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    return t.transpose(0, 3, 2, 1).reshape(m.shape)


# ---------------------------------------------------------------------------
# JSON matrix format


def matrix_to_json(m) -> dict:
    m = as_matrix(m)
    n = m.shape[0]
    return {
        "dim": n,
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise ValueError(f"matrix JSON missing field '{key}'")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("matrix JSON 'dim' must be a positive integer")
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (dim * dim,) or im.shape != (dim * dim,):
        raise ValueError("matrix JSON 're'/'im' must hold dim*dim floats")
    m = (re + 1j * im).reshape(dim, dim)
    return as_matrix(m)


def save_matrix(path, m, provenance: dict | None = None) -> None:
    """Write a matrix (plus an optional provenance block) to ``path``."""
    doc = matrix_to_json(m)
    if provenance is not None:
        doc["provenance"] = provenance
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))
