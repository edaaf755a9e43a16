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

# Tolerance policy: every "is this zero?" decision in the package uses one
# of these cutoffs.  README, "Tolerances", lists which call sites scale
# them by max(1, ||M||_F) and which compare absolutely.
TOL = 1e-9            # Hermiticity, PSD, sectors, verdicts, probe checks
EXACT_TOL = 1e-12     # unit traces, weights, Bloch lengths, the noise floor
RESIDUAL_TOL = 1e-10  # imaginary parts of expectations, M^2 = I


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


def _hermitian_scale(m: np.ndarray) -> float | None:
    """max(1, ||M||_F) of a checked matrix M, or None if M is not Hermitian
    within TOL at that scale."""
    scale = max(1.0, frobenius(m))
    return scale if np.abs(m - m.conj().T).max() <= TOL * scale else None


def is_hermitian(m) -> bool:
    return _hermitian_scale(as_matrix(m)) is not None


def hermitian_part(m) -> np.ndarray:
    """(M + M^dag) / 2, over the last two axes of a matrix or a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def require_hermitian(m, what: str = "operator") -> np.ndarray:
    m = as_matrix(m)
    if _hermitian_scale(m) is None:
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
    w, v = np.linalg.eigh(hermitian_part(h))
    return EigenSystem(w, v)


def hermitian_eigenvalues(stack) -> np.ndarray:
    """Ascending eigenvalues of every matrix of a stack (..., n, n).

    The whole stack is checked as ``require_hermitian`` checks one matrix:
    finite entries, each matrix Hermitian within TOL * max(1, ||M||_F).
    Each row equals ``hermitian_eigensystem(matrix).eigenvalues`` bit for
    bit: the same ``eigh`` of the same Hermitian part.
    """
    m = np.asarray(stack, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    scale = np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
    deviation = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if not (deviation <= TOL * scale).all():
        raise ValueError("operator is not Hermitian within tolerance")
    return np.linalg.eigh(hermitian_part(m))[0]


def is_positive_semidefinite(h, what: str = "operator") -> tuple[bool, float]:
    """(PSD verdict, minimum eigenvalue) for a Hermitian matrix."""
    h = as_matrix(h)
    scale = _hermitian_scale(h)
    if scale is None:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    min_eig = float(np.linalg.eigvalsh(hermitian_part(h))[0])
    return min_eig >= -TOL * scale, min_eig


def expectation(rho, o) -> float:
    """tr(rho @ o) as a real number.

    The imaginary residual must stay within RESIDUAL_TOL; a larger one
    signals corrupted (non-Hermitian) inputs and raises.
    """
    rho, o = _pair(rho, o)
    val = complex(np.trace(rho @ o))
    if abs(val.imag) > RESIDUAL_TOL:
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
    return {"dim": m.shape[0], "re": m.real.ravel().tolist(),
            "im": m.imag.ravel().tolist()}


def matrix_from_json(obj) -> np.ndarray:
    """The matrix of a matrix JSON object, as ``json.load`` returns it.

    ``re`` and ``im`` must be flat lists of JSON numbers (int or float;
    booleans, strings and nested values are refused), and the matrix must
    have a finite Frobenius norm: every later cutoff scales by it.
    """
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    for key in ("dim", "re", "im"):
        if key not in obj:
            raise ValueError(f"matrix JSON missing field '{key}'")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("matrix JSON 'dim' must be a positive integer")
    parts = obj["re"], obj["im"]
    if not all(isinstance(p, list) and set(map(type, p)) <= {int, float}
               for p in parts):
        raise ValueError("matrix JSON 're'/'im' must be lists of numbers")
    if len(parts[0]) != dim * dim or len(parts[1]) != dim * dim:
        raise ValueError("matrix JSON 're'/'im' must hold dim*dim floats")
    try:
        re, im = (np.array(p, dtype=float) for p in parts)
    except OverflowError:
        raise ValueError("matrix JSON entry too large for a float") from None
    m = as_matrix((re + 1j * im).reshape(dim, dim))
    with np.errstate(over="ignore"):
        norm = frobenius(m)
    if not np.isfinite(norm):
        raise ValueError("matrix JSON entries too large: the Frobenius "
                         "norm overflows")
    return m


def save_matrix(path, m, provenance: dict | None = None) -> None:
    """Write a matrix (plus an optional provenance block) to ``path``.

    The text is what ``json.dump(doc, fh, indent=2)`` and a newline would
    write.  json's indenting encoder runs in pure Python, so the two float
    lists are joined here and only the provenance goes through ``json``.
    """
    doc = matrix_to_json(m)
    fields = [f'"dim": {doc["dim"]}']
    for key in ("re", "im"):
        numbers = ",\n    ".join(map(float.__repr__, doc[key]))
        fields.append(f'"{key}": [\n    {numbers}\n  ]')
    if provenance is not None:
        fields.append('"provenance": ' + json.dumps(
            provenance, indent=2).replace("\n", "\n  "))
    with open(path, "w") as fh:
        fh.write("{\n  " + ",\n  ".join(fields) + "\n}\n")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("matrix JSON nests too deeply") from None
    return matrix_from_json(doc)
