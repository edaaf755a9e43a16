"""Witness certification: quantumness over classical states, entanglement
over separable states, plus randomized probes of the underlying algebra
facts.

The quantumness side is decided exactly: the classical states form a
simplex whose vertices are the per-sector normalized identities, so a
linear expectation is minimized at a vertex.  Vertex values come from the
operator's diagonal and eigenvalues from one stacked eigensolve per sector
size; only a refuting vertex is built as a dense state.  The entanglement
side has no exact decision procedure; the product-state minimum is
estimated by see-saw alternation from seeded random starts (an upper
bound on the true minimum), with all restarts run as one stack of GEMMs
and eigensolves.
Reports always carry enough data to re-evaluate the verdict
independently; their JSON is their dataclass fields in declaration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

# _random_block_raw is unused here but stays a module attribute: the
# benchmark's layer timing patches verify._random_block_raw.
from .algebra import (BipartiteAlgebra, classical_state,
                      classical_state_vertices, embedding_permutation,
                      full_algebra, require_in_algebra, sector_indices,
                      sector_labels, _blocks_from_draws, _draw_slots,
                      _random_block_raw, _random_element)
from .linalg import (EXACT_TOL, RESIDUAL_TOL, TOL, anticommutator, frobenius,
                     hermitian_part, matrix_to_json, require_hermitian)
from .states import pure_state, random_unit_pairs
from .witnesses import QubitQWParams, qubit_qw

DEFAULT_RESTARTS = 32
DEFAULT_SEED = 42
SEESAW_CONVERGENCE = 1e-12
SEESAW_MAX_ITERS = 500
# The noncommutative theorem-1 search takes a pair only when {X, Y} has an
# eigenvalue this far below zero, clear of rounding.
THEOREM1_SEARCH_MARGIN = 1e-8
# Probe trials and see-saw restarts are evaluated this many at a time as
# stacked arrays, so memory stays flat however many are asked for.
PROBE_BLOCK = 1024


def _report_json(report) -> dict:
    """A report's fields in declaration order, keyed by name or by the
    field's ``json`` metadata; matrices go out as matrix JSON."""
    doc = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if isinstance(value, np.ndarray):
            value = matrix_to_json(value)
        elif isinstance(value, BipartiteAlgebra):
            value = value.to_json()
        doc[f.metadata.get("json", f.name)] = value
    return doc


@dataclass
class WitnessReport:
    """Verdict plus the numeric certificates that back it."""

    verdict: str                                # confirmed/refuted/inconclusive
    min_classical_expectation: float | None
    min_product_expectation: float | None
    min_eigenvalue: float
    certificate_state: np.ndarray | None = field(
        metadata={"json": "certificate"})
    violating_vertex: int | None
    restarts_used: int
    tolerance: float
    heuristic: bool

    to_json = _report_json


def check_quantumness_witness(q, alg: BipartiteAlgebra) -> WitnessReport:
    """Decide whether ``q`` is a quantumness witness over ``alg``.

    Condition (i) (nonnegative on classical states) is exact: the minimum
    of a linear functional over the classical simplex sits at a vertex.
    Condition (ii) (some state goes negative) is the minimum eigenvalue,
    computed sector by sector; the certificate is the projector onto the
    most negative eigenvector.  Both conditions compare against TOL.
    Ties go to the first vertex or sector in ``block_layout`` order.
    """
    q = require_in_algebra(require_hermitian(q, "witness"), alg)

    # Vertex values are diagonal row sums, added as np.trace(v @ q) adds.
    vertices = classical_state_vertices(alg)
    values = (vertices.diagonals * np.diagonal(q)).sum(axis=1)
    bad = values.imag[abs(values.imag) > RESIDUAL_TOL]
    if bad.size:
        raise ValueError(f"expectation has imaginary residual {bad[0]:.3e}")
    worst_vertex = int(np.argmin(values.real))
    min_classical = values.real[worst_vertex]

    # One stacked eigensolve per sector size; `lowest` holds each sector's
    # bottom eigenvector on that sector's own indices.
    label, order = sector_labels(alg), embedding_permutation(alg)
    sizes = np.bincount(label)
    sector_min = np.empty(sizes.size)
    lowest = np.empty(alg.total_dim, dtype=complex)
    for size in sorted(set(sizes.tolist())):   # np.unique maps ~0.4 MB more
        idx = order[sizes[label[order]] == size].reshape(-1, size)
        w, v = np.linalg.eigh(hermitian_part(q[idx[:, :, None],
                                                 idx[:, None, :]]))
        sector_min[sizes == size] = w[:, 0]
        lowest[idx] = v[:, :, 0]
    best = int(np.argmin(sector_min))
    min_eig = float(sector_min[best])

    # A vertex below -TOL refutes; else the bottom eigenvector decides.
    classical_ok = min_classical >= -TOL
    verdict = "confirmed" if classical_ok and min_eig < -TOL else "refuted"
    if classical_ok:
        certificate = pure_state(np.where(label == best, lowest, 0))
        vertex = None
    else:
        certificate = vertices[worst_vertex]
        vertex = worst_vertex
    return WitnessReport(
        verdict=verdict,
        min_classical_expectation=float(min_classical),
        min_product_expectation=None,
        min_eigenvalue=min_eig,
        certificate_state=certificate,
        violating_vertex=vertex,
        restarts_used=0,
        tolerance=TOL,
        heuristic=False,
    )


# ---------------------------------------------------------------------------
# Product-state minimization for entanglement witnesses


def _party_matrices(e4):
    """E as e_a, e_b: <b|E|b> = e_a vec(conj(b) b^T), and alike for a."""
    d_a, d_b = e4.shape[:2]
    return (e4.transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b),
            e4.transpose(1, 3, 0, 2).reshape(d_b * d_b, d_a * d_a))


def _local_operators(e_x, v):
    """Hermitian parts of <v|E|v> on the other party, one per row of ``v``:
    the outer products conj(v) v^T times ``e_x``^T in one GEMM."""
    r, d = v.shape
    outer = (v.conj()[:, :, None] * v[:, None, :]).reshape(r, d * d)
    n = math.isqrt(e_x.shape[0])
    return hermitian_part((outer @ e_x.T).reshape(r, n, n))


def _seesaw(e4, a, b):
    """Alternate bottom-eigenvector updates from the starts ``a`` (R, d_a)
    and ``b`` (R, d_b) as one stack; a start leaves it with its last
    (value, a, b) once a sweep moves its value by less than
    SEESAW_CONVERGENCE, or after SEESAW_MAX_ITERS sweeps.  After a b-step
    <ab|E|ab> is that step's bottom eigenvalue."""
    e_a, e_b = _party_matrices(e4)
    a, b = a.copy(), b.copy()
    value = np.einsum("rj,rjl,rl->r", b.conj(), _local_operators(e_b, a),
                      b).real
    active = np.arange(len(a))
    for _ in range(SEESAW_MAX_ITERS):
        a[active] = np.linalg.eigh(_local_operators(e_a, b[active]))[1][..., 0]
        w, vecs = np.linalg.eigh(_local_operators(e_b, a[active]))
        b[active] = vecs[..., 0]
        stalled = abs(w[:, 0] - value[active]) < SEESAW_CONVERGENCE
        value[active] = w[:, 0]
        active = active[~stalled]
        if not active.size:
            break
    return value, a, b


def require_dims(d_a: int, d_b: int) -> None:
    if d_a < 1 or d_b < 1:
        raise ValueError(f"dims must be positive, got {d_a}x{d_b}")


def check_entanglement_witness(e, d_a: int, d_b: int,
                               restarts: int = DEFAULT_RESTARTS,
                               seed: int = DEFAULT_SEED) -> WitnessReport:
    """Certify ``e`` as an entanglement witness on C^d_a (x) C^d_b.

    The separable minimum equals the pure-product minimum by convexity;
    it is estimated with ``restarts`` independent see-saw runs, stacked
    PROBE_BLOCK at a time (the first best start wins, so a fixed seed
    reproduces the report exactly), and a product state realises the
    value.  Too few restarts can miss the deepest basin at any size.  A
    nonnegative estimate only upper-bounds the truth, so a confirmed
    verdict is flagged heuristic.  An estimate between -TOL and minus the
    noise floor EXACT_TOL * max(1, ||E||_F) is a real sub-tolerance
    signal (swap and Bell sit exactly at zero) and is reported as
    inconclusive.
    """
    require_dims(d_a, d_b)
    e = require_hermitian(e, "witness")
    if d_a * d_b != e.shape[0]:
        raise ValueError(
            f"witness dimension {e.shape[0]} does not match "
            f"{d_a}x{d_b}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    e4 = e.reshape(d_a, d_b, d_a, d_b)

    noise = EXACT_TOL * max(1.0, frobenius(e))
    rng = np.random.default_rng(seed)

    # Restart r draws a (real, then imaginary), then b.
    best_value = math.inf
    for count in _blocks(restarts):
        values, a, b = _seesaw(e4, *random_unit_pairs(rng, count, d_a, d_b))
        r = int(np.argmin(values))
        if values[r] < best_value:
            best_value = float(values[r])
            best_pair = (a[r], b[r])

    w, v = np.linalg.eigh(hermitian_part(e))
    min_eig = float(w[0])
    eigen_certificate = pure_state(v[:, 0])
    product_certificate = pure_state(np.kron(*best_pair))

    if best_value < -TOL:
        verdict = "refuted"            # negative on a separable state
        certificate = product_certificate
        heuristic = False
    elif best_value < -noise:
        verdict = "inconclusive"       # boundary case, reported as-is
        certificate = product_certificate
        heuristic = True
    elif min_eig < -TOL:
        verdict = "confirmed"
        certificate = eigen_certificate
        heuristic = True               # see-saw only upper-bounds the minimum
    else:
        verdict = "refuted"            # no negative state exists
        certificate = eigen_certificate
        heuristic = False
    return WitnessReport(
        verdict=verdict,
        min_classical_expectation=None,
        min_product_expectation=float(best_value),
        min_eigenvalue=min_eig,
        certificate_state=certificate,
        violating_vertex=None,
        restarts_used=restarts,
        tolerance=TOL,
        heuristic=heuristic,
    )


def ew_implies_qw(e, d_a: int, d_b: int, restarts: int = DEFAULT_RESTARTS,
                  seed: int = DEFAULT_SEED):
    """Run both certifiers over the full product algebra.

    For the irreducible algebra the only classical state is the maximally
    mixed one, so the quantumness side reduces to tr(E) >= 0 plus a
    negative eigenvalue.  A confirmed entanglement witness must come out
    a confirmed quantumness witness; anything else is an internal error.
    """
    ew = check_entanglement_witness(e, d_a, d_b, restarts, seed)
    qw = check_quantumness_witness(e, full_algebra(d_a, d_b))
    if ew.verdict == "confirmed" and qw.verdict != "confirmed":
        raise RuntimeError(
            "confirmed entanglement witness failed the quantumness check; "
            "this contradicts classical-states-are-separable")
    return ew, qw


# ---------------------------------------------------------------------------
# Randomized probes


@dataclass
class ProbeReport:
    """Outcome of a randomized algebra probe."""

    kind: str
    algebra: BipartiteAlgebra
    trials: int
    violations: int
    passed: bool
    seed: int
    commutative: bool | None = None
    witness_found: bool | None = None
    fallback_used: bool | None = None
    witness_lambda_min: float | None = None
    min_anticommutator_expectation: float | None = None
    min_cross_term: float | None = None
    max_identity_residual: float | None = None
    witness_x: np.ndarray | None = None
    witness_y: np.ndarray | None = None

    to_json = _report_json


def _coerce_algebra(alg) -> BipartiteAlgebra:
    """Accept a bipartite algebra or a bare single-factor block list."""
    if isinstance(alg, BipartiteAlgebra):
        return alg
    return BipartiteAlgebra(tuple(alg), (1,))


def _blocks(trials: int) -> list[int]:
    """Sizes of the consecutive evaluation blocks that cover ``trials``."""
    return [min(PROBE_BLOCK, trials - start)
            for start in range(0, trials, PROBE_BLOCK)]


def theorem1_probe(alg, trials: int, seed: int = DEFAULT_SEED) -> ProbeReport:
    """Probe the commutativity/anticommutator-positivity equivalence.

    Commutative algebra: every random positive pair must commute and have
    a PSD anticommutator (violations are counted).  Noncommutative
    algebra: search random positive pairs for a negative anticommutator
    eigenvalue; if the search misses, fall back to the deterministic
    qubit pair (unit Bloch vectors at right angle) embedded in the first
    sector of dimension >= 2, which always produces one.

    Seed contract: trial t draws X then Y, each G^dag G from one
    ``_random_block_raw`` matrix, and nothing else, so a seed fixes every
    trial.  The commutative case draws and evaluates PROBE_BLOCK trials
    at a time as stacked arrays; the noncommutative search goes trial by
    trial and stops at the first witness.
    """
    alg = _coerce_algebra(alg)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)

    if alg.is_commutative:
        violations = 0
        min_seen = math.inf
        for count in _blocks(trials):
            pairs = _random_element(alg, rng, True, (count, 2))
            x, y = pairs[:, 0], pairs[:, 1]
            xy, yx = x @ y, y @ x
            anti = xy + yx
            scale = np.maximum(1.0, np.linalg.norm(anti, axis=(-2, -1)))
            min_eig = np.linalg.eigvalsh(hermitian_part(anti))[:, 0]
            noncommuting = np.linalg.norm(xy - yx, axis=(-2, -1)) > TOL * scale
            violations += int(np.count_nonzero(
                (min_eig < -TOL * scale) | noncommuting))
            min_seen = min(min_seen, float(min_eig.min()))
        return ProbeReport(
            kind="theorem1", algebra=alg, trials=trials,
            violations=violations, passed=violations == 0, seed=seed,
            commutative=True,
            min_anticommutator_expectation=min_seen)

    witness = None
    lam_min = math.inf
    searched = 0
    for _ in range(trials):
        searched += 1
        x = _random_element(alg, rng, positive=True)
        y = _random_element(alg, rng, positive=True)
        anti = anticommutator(x, y)
        min_eig = float(np.linalg.eigvalsh(hermitian_part(anti))[0])
        if min_eig < -THEOREM1_SEARCH_MARGIN:
            witness = (x, y)
            lam_min = min_eig
            break
    fallback = witness is None
    if fallback:
        idx = next(idx for idx in sector_indices(alg) if idx.size >= 2)[:2]
        x2, y2, _, _, lam_minus = qubit_qw(QubitQWParams(
            alpha=1.0, beta=1.0, u=(0.0, 0.0, 1.0), v=(1.0, 0.0, 0.0)))
        x = np.zeros((alg.total_dim, alg.total_dim), dtype=complex)
        y = np.zeros_like(x)
        x[np.ix_(idx, idx)] = x2
        y[np.ix_(idx, idx)] = y2
        witness = (x, y)
        lam_min = min(lam_minus, 0.0)
    return ProbeReport(
        kind="theorem1", algebra=alg, trials=searched,
        violations=0, passed=lam_min < 0.0, seed=seed,
        commutative=False, witness_found=True, fallback_used=fallback,
        witness_lambda_min=lam_min,
        witness_x=witness[0], witness_y=witness[1])


def classical_lemma_test(alg, trials: int,
                         seed: int = DEFAULT_SEED) -> ProbeReport:
    """Randomized evidence that classical states see PSD anticommutators.

    Each trial draws a random classical state (Dirichlet sector weights)
    and a positive pair X = A^dag A, Y = B^dag B from random sector
    factors, then asserts tr(rho {X,Y}) >= -TOL together with the
    factorization step tr(rho X Y) = tr(rho C^dag C) >= -TOL for
    C = A B^dag (the identity within TOL * max(1, |tr(rho C^dag C)|)).
    No trace is computed from another: tr(rho {X,Y}) sums
    the diagonals of X Y and Y X, the cross term takes that of X Y, and
    tr(rho C^dag C) comes from C alone.

    Seed contract: trial t draws k = len(blocks_a) * len(blocks_b) standard
    exponentials, normalized by their sequential sum, then A and B with one
    ``standard_normal`` call laid out as ``_random_block_raw`` lays it out,
    and nothing else: bit for bit what one ``rng.dirichlet`` call and one
    ``_random_block_raw`` call per trial drew.  The draws go trial by trial
    into buffers of PROBE_BLOCK trials; everything after them is evaluated
    a block at a time as stacked arrays.
    """
    alg = _coerce_algebra(alg)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n_k, m_l = len(alg.blocks_a), len(alg.blocks_b)

    violations = 0
    min_anti = math.inf
    min_cross = math.inf
    max_residual = 0.0
    for count in _blocks(trials):
        expo = np.empty((count, n_k * m_l))
        draws = np.empty((count, 2, _draw_slots(alg).size))
        for t in range(count):
            rng.standard_exponential(out=expo[t])
            rng.standard_normal(out=draws[t])
        # rng.dirichlet with unit concentrations multiplies by the
        # reciprocal of the sequential sum; cumsum sums in that order.
        weights = expo * (1.0 / np.cumsum(expo, axis=1)[:, -1:])
        factors = _blocks_from_draws(alg, draws)
        # Classical states are diagonal, so tr(rho M) = sum_i rho_ii M_ii
        # needs only the diagonals of rho and of X Y, Y X and C^dag C.
        rho = classical_state(alg, weights.reshape(count, n_k, m_l))
        p = np.diagonal(rho, axis1=-2, axis2=-1).real.copy()
        del rho                     # keep only the diagonals in memory
        a, b = factors[:, 0], factors[:, 1]
        x = a.conj().swapaxes(-1, -2) @ a
        y = b.conj().swapaxes(-1, -2) @ b
        c = a @ b.conj().swapaxes(-1, -2)
        xy = np.einsum("tij,tji->ti", x, y)
        yx = np.einsum("tij,tji->ti", y, x)
        cc = np.einsum("tji,tji->ti", c.conj(), c)
        anti = np.sum(p * (xy + yx), axis=-1).real
        cross = np.sum(p * xy, axis=-1)
        csqr = np.sum(p * cc, axis=-1).real
        residual = np.abs(cross - csqr)

        min_anti = min(min_anti, float(anti.min()))
        min_cross = min(min_cross, float(csqr.min()))
        max_residual = max(max_residual, float(residual.max()))
        scale = np.maximum(1.0, np.abs(csqr))
        violations += int(np.count_nonzero(
            (anti < -TOL) | (csqr < -TOL) | (residual > TOL * scale)))
    return ProbeReport(
        kind="lemma", algebra=alg, trials=trials, violations=violations,
        passed=violations == 0, seed=seed,
        commutative=alg.is_commutative,
        min_anticommutator_expectation=min_anti,
        min_cross_term=min_cross,
        max_identity_residual=max_residual)
