"""Dense complex matrix kernel.

All operators and states in this package are plain numpy arrays of
complex128, square and row-major.  The checks and the eigensolver also
take a stack (..., n, n) and treat each matrix as they treat it alone.
Dimensions stay small (a few dozen at most), so every routine favors
clarity and strict validation over asymptotic cleverness.  All
functions are pure; thread safety is by immutability.

The shared on-disk format for matrices is

    {"dim": n, "re": [n*n floats, row-major], "im": [n*n floats, row-major]}

with exactly those field names.
"""

from __future__ import annotations

import functools
import json
import math
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


def _dots(x, y):
    """Row-wise x . y as a stacked vector product, which runs the BLAS dot
    that ``norm`` and ``vdot`` run on one vector."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _row_norms(v) -> np.ndarray:
    """``np.linalg.norm`` of each row of v, with the same arithmetic."""
    return np.sqrt(_dots(v.real, v.real) + _dots(v.imag, v.imag))


def finite_with_norm(m, what: str = "operator"):
    """(M, ||M||_F) for a square matrix, or (M, each matrix's norm) for a
    stack (..., n, n).  Each norm sums the entries in row-major order, so a
    matrix alone and as a row of a stack, in any memory layout, gets the
    same bits.  Refuses, in order, a shape that is not square, NaN or Inf
    entries and an overflowing norm."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore"):    # frobenius is faster on one matrix
        norm = frobenius(np.ascontiguousarray(m)) if m.ndim == 2 else \
            _row_norms(m.reshape(m.shape[:-2] + (m.shape[-1] ** 2,)))
    # One matrix takes the scalar test: 2 us less, 1.5% of a small qw check.
    if (math.isfinite(norm) if m.ndim == 2 else np.isfinite(norm).all()):
        return m, norm
    if not np.isfinite(m).all():      # a finite norm implies finite entries
        raise ValueError("matrix contains NaN or Inf entries")
    raise ValueError(f"{what} Frobenius norm overflows")


def _hermitian(m, norm):
    """Whether each matrix is within TOL * max(1, norm) of its adjoint: the
    upper triangle of |M - M^dag|, at most 8192 entries per matrix a block."""
    n = m.shape[-1]
    rows = 8192 // (n or 1) or 1    # 0 x 0 is refused: no .max() of nothing
    deviation = functools.reduce(np.maximum, (
        np.abs(m[..., i:i + rows, i:]
               - m[..., i:, i:i + rows].conj().swapaxes(-1, -2)
               ).max(axis=(-2, -1)) for i in range(0, n or 1, rows)))
    return deviation <= TOL * np.maximum(1.0, norm)


def hermitian_with_norm(m, what: str = "operator"):
    """``finite_with_norm``, refusing a matrix that ``_hermitian`` fails."""
    m, norm = finite_with_norm(m, what)
    ok = _hermitian(m, norm)
    if (ok if m.ndim == 2 else ok.all()):   # .all() costs 1.5 us on one
        return m, norm
    raise ValueError(f"{what} is not Hermitian within tolerance")


def hermitian_part(m) -> np.ndarray:
    """(M + M^dag) / 2, over the last two axes of a matrix or a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


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
    """Full spectral decomposition of a Hermitian matrix, or of each matrix
    of a stack (..., n, n), bit for bit as that matrix alone.

    Eigenvalues come back ascending; eigenvectors are the paired columns.
    Backed by LAPACK through numpy, which is deterministic for a fixed
    input.  Raises as ``hermitian_with_norm`` does.
    """
    h = hermitian_with_norm(h)[0]
    return EigenSystem(*np.linalg.eigh(hermitian_part(h)))


def is_positive_semidefinite(h, what: str = "operator") -> tuple[bool, float]:
    """(PSD verdict, minimum eigenvalue) for a Hermitian matrix."""
    h, norm = hermitian_with_norm(h, what)
    if h.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    min_eig = float(np.linalg.eigvalsh(hermitian_part(h))[0])
    return min_eig >= -TOL * max(1.0, norm), min_eig


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
    return finite_with_norm((re + 1j * im).reshape(dim, dim),
                            "matrix JSON")[0]


def json_text(doc, indent: str = "") -> str:
    """``json.dumps(doc, indent=2)``, nested at ``indent``.  json indents in
    pure Python, so numbers, literals, string-keyed dicts and the lists of
    floats that hold matrix entries are written here, as json writes them.
    """
    inner = indent + "  "
    kind = type(doc)
    if kind is int or kind is float and math.isfinite(doc):
        return repr(doc)
    if kind is bool or doc is None:
        return {True: "true", False: "false", None: "null"}[doc]
    if kind is dict and doc and all(type(k) is str for k in doc):
        items = (",\n" + inner).join(f"{json.dumps(k)}: {json_text(v, inner)}"
                                     for k, v in doc.items())
        return "{\n" + inner + items + "\n" + indent + "}"
    if kind is list and doc:
        try:
            numbers = (",\n" + inner).join(map(float.__repr__, doc))
        except TypeError:                    # an item that is no float
            pass
        else:
            if "n" not in numbers:   # json spells inf and nan its own way
                return "[\n" + inner + numbers + "\n" + indent + "]"
    return json.dumps(doc, indent=2).replace("\n", "\n" + indent)


def save_matrix(path, m, provenance: dict | None = None) -> None:
    """Write a matrix (plus an optional provenance block) to ``path``, as
    ``json.dump(doc, fh, indent=2)`` and a newline would write it."""
    doc = matrix_to_json(m)
    if provenance is not None:
        doc["provenance"] = provenance
    with open(path, "w") as fh:
        fh.write(json_text(doc) + "\n")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("matrix JSON nests too deeply") from None
    return matrix_from_json(doc)
