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
and eigensolves.  Starts whose sweeps have slowed down finish with
stacked Newton steps on the product of the two unit spheres, a failed
step sends a start back to sweeps a rung lower, and every see-saw rule
scales with ||E||_F.
Reports always carry enough data to re-evaluate the verdict
independently; their JSON is their dataclass fields in declaration order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

import numpy as np

# _random_block_raw is unused here but stays a module attribute: the
# benchmark's layer timing patches verify._random_block_raw.
from .algebra import (BipartiteAlgebra, classical_state,
                      classical_state_vertices, full_algebra,
                      require_in_algebra, sector_indices, _blocks_from_draws,
                      _random_block_raw, _random_element)
from .linalg import (EXACT_TOL, RESIDUAL_TOL, TOL, anticommutator, frobenius,
                     hermitian_part, hermitian_with_norm, matrix_to_json)
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
    Ties go to the first vertex or sector in ``block_layout`` order.  ``q``
    is checked once: finite, norm finite, Hermitian, in the algebra.
    """
    q, norm = hermitian_with_norm(q, "witness")
    require_in_algebra(q, alg, norm=norm)

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
    labels, order, sizes = alg.sector_index
    sector_min = np.empty(sizes.size)
    lowest = np.empty(alg.total_dim, dtype=complex)
    for size in sorted(set(sizes.tolist())):   # np.unique maps ~0.4 MB more
        idx = order[np.repeat(sizes, sizes) == size].reshape(-1, size)
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
        # pure_state(v) bit for bit, signed zeros included: only the rows
        # and columns on the sector hold more than products of zeros, and
        # the rows go last, full length as np.outer computes them.
        idx = np.flatnonzero(labels == best)
        v = np.zeros_like(lowest)
        v[idx] = lowest[idx]
        norm_sq = float(np.vdot(v, v).real)
        certificate = np.zeros((v.size, v.size), dtype=complex)
        certificate[:, idx] = np.outer(v, v[idx].conj()) / norm_sq
        certificate[idx] = np.outer(v[idx], v.conj()) / norm_sq
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
    """<v|E|v> on the other party, one per row of ``v``: the outer products
    conj(v) v^T times ``e_x``^T in one GEMM.  They are Hermitian up to
    rounding and are not symmetrized: np.linalg.eigh reads only the lower
    triangle and the real part of the diagonal."""
    r, d = v.shape
    outer = (v.conj()[:, :, None] * v[:, None, :]).reshape(r, d * d)
    n = math.isqrt(e_x.shape[0])
    return (outer @ e_x.T).reshape(r, n, n)


def _complement(v):
    """Orthonormal bases Q (R, d, d-1) of the complements of the unit rows
    of ``v``: the last columns of the Householder reflection
    I - w w^H / (1 + |v_0|), w = v + phase(v_0) e_1, which takes e_1 onto
    v's line.  Adding the phase of v_0 cancels nothing."""
    head = v[:, :1]
    size = abs(head)
    phase = np.ones_like(head)
    np.divide(head, size, out=phase, where=size > 0)
    w = v.copy()
    w[:, :1] += phase
    return (np.eye(v.shape[1])[:, 1:]
            - w[:, :, None] * (v[:, 1:].conj() / (1.0 + size))[:, None, :])


def _newton_step(e4, e_a, e_b, a, b, value):
    """One Newton step per row from the unit pairs (a, b) at ``value``, on
    the product of the two unit spheres modulo phases; returns the trial
    (value, a, b).

    A move takes (a, b) to (a + Q_a x, b + Q_b y), normalized, where Q_a
    and Q_b come from ``_complement`` and w = (x, y) is complex; let
    T = diag(Q_a, Q_b).  To second order it changes <ab|E|ab> by
    2 Re(w^H g) + w^H G w + Re(w^H S conj(w)), with
    g = T^H S_f conj(a, b), G = T^H H_f T - value I, S = T^H S_f conj(T),
    H_f = [[M_a, K], [K^H, M_b]] and S_f = [[0, L], [L^T, 0]], from
    M_a = <b|E|b>, M_b = <a|E|a>, K_il = sum_jk conj(b_j) E_ijkl a_k and
    L = E(a (x) b) as d_a x d_b.  The real system in (Re w, Im w),
    regularized by |g| I, is solved for all rows at once.
    """
    (r, d_a), d_b = a.shape, b.shape[1]
    d, m, n = d_a + d_b, d_a + d_b - 2, d_a * d_b
    e = e4.reshape(n, n)
    e_k = e4.transpose(0, 3, 1, 2).reshape(n, n)   # rows (i, l), cols (j, k)
    full = np.zeros((2, r, d, d), dtype=complex)               # H_f, S_f
    full[0, :, :d_a, :d_a] = _local_operators(e_a, b)
    full[0, :, d_a:, d_a:] = _local_operators(e_b, a)
    k = (b.conj()[:, :, None] * a[:, None, :]).reshape(r, -1) @ e_k.T
    full[0, :, :d_a, d_a:] = k = k.reshape(r, d_a, d_b)
    full[0, :, d_a:, :d_a] = k.conj().swapaxes(1, 2)
    l = (a[:, :, None] * b[:, None, :]).reshape(r, -1) @ e.T
    full[1, :, :d_a, d_a:] = l = l.reshape(r, d_a, d_b)
    full[1, :, d_a:, :d_a] = l.swapaxes(1, 2)
    # [T | 0] and [conj(T) | conj(a, b)]: G, S and g from one product.
    right = np.zeros((2, r, d, m + 1), dtype=complex)
    right[0, :, :d_a, :d_a - 1] = _complement(a)
    right[0, :, d_a:, d_a - 1:m] = _complement(b)
    t = right[0, :, :, :m]
    right[1, :, :, :m] = t.conj()
    ab = np.concatenate([a, b], axis=1)
    right[1, :, :, m] = ab.conj()
    out = t.conj().swapaxes(1, 2) @ full @ right
    g, s, grad = out[0, :, :, :m], out[1, :, :, :m], out[1, :, :, m]
    # Re(w^H G w) + Re(w^H S conj(w)) = z^T P z for z = (Re w, Im w).
    u, v = g + s, g - s
    p = np.empty((r, 2 * m, 2 * m))
    p[:, :m, :m], p[:, m:, :m] = u.real, u.imag
    p[:, :m, m:], p[:, m:, m:] = -v.imag, v.real
    rhs = np.concatenate([grad.real, grad.imag], axis=1)
    shift = np.sqrt((rhs ** 2).sum(axis=1)) - value
    p.reshape(r, -1)[:, ::2 * m + 1] += shift[:, None]
    z = np.linalg.solve(p, rhs[:, :, None])[:, :, 0]
    ab -= (t @ (z[:, :m] + 1j * z[:, m:])[:, :, None])[:, :, 0]
    norms = np.sqrt(np.add.reduceat(abs(ab) ** 2, [0, d_a], axis=1))
    ab /= np.repeat(norms, (d_a, d_b), axis=1)
    a, b = ab[:, :d_a], ab[:, d_a:]
    psi = (a[:, :, None] * b[:, None, :]).reshape(r, -1)
    trial = np.einsum("ri,ri->r", psi.conj(), psi @ e.T).real
    # Where the regularized Hessian is indefinite, the Newton direction
    # need not descend; such a row comes back at +inf, so it is swept.
    trial[(rhs * z).sum(axis=1) <= 0] = np.inf
    return trial, a, b


def _seesaw(e4, a, b):
    """Minimize <ab|E|ab> from the starts ``a`` (R, d_a) and ``b`` (R, d_b)
    as one stack: sweeps, then a Newton finish.

    A sweep sets a to the bottom eigenvector of <b|E|b>, then b to that of
    <a|E|a>, whose bottom eigenvalue is the new value.  Each start keeps
    its own stopping rule, scaled by ||E||_F: it leaves with its last
    (value, a, b) once a sweep or a Newton step moves its value by less
    than SEESAW_CONVERGENCE * ||E||_F, or after SEESAW_MAX_ITERS sweeps
    and steps in all.  A start whose sweep moves its value by less than
    its switch goes to the finish; once no start is left sweeping, the
    switched ones take ``_newton_step`` as one stack.  The switch starts
    on the top rung, cbrt(SEESAW_CONVERGENCE) * ||E||_F.  A step is taken
    only if it does not raise the value; a rise too small to count as a
    move stops the start where it was.  A larger rise, a step that is no
    descent direction and every step of a stack whose solve fails send
    the start back to sweeps a rung lower: to the base rung
    sqrt(SEESAW_CONVERGENCE) * ||E||_F, and from there to 0, which holds
    it on sweeps.  A sweep that moves the value by at least a rung lifts
    the switch back to that rung, as when the start leaves the saddle that
    stalled it.  A start's sweeps and steps do not depend on the other
    starts, so waiting for the stack changes no result.  At d_a or d_b = 1
    a sweep is already exact and no start switches.  At E = 0 every value
    is 0, and the starts come back as drawn.
    """
    d_a, d_b = e4.shape[:2]
    e_a, e_b = _party_matrices(e4)
    a, b = a.copy(), b.copy()
    value = np.einsum("rj,rjl,rl->r", b.conj(), _local_operators(e_b, a),
                      b).real
    scale = frobenius(e4)
    if not scale:
        return value, a, b
    stop = SEESAW_CONVERGENCE * scale
    # No start switches where one party is a scalar: a sweep is exact.
    rung = scale * (min(d_a, d_b) > 1)
    top = SEESAW_CONVERGENCE ** (1 / 3) * rung
    base = math.sqrt(SEESAW_CONVERGENCE) * rung
    moved = np.full_like(value, np.inf)

    def sweep(rows):
        a[rows] = np.linalg.eigh(_local_operators(e_a, b[rows]))[1][..., 0]
        w, vecs = np.linalg.eigh(_local_operators(e_b, a[rows]))
        b[rows] = vecs[..., 0]
        moved[rows] = abs(w[:, 0] - value[rows])
        value[rows] = w[:, 0]

    # Plain sweeps until an active start switches: until then every active
    # start has swept `passes` times, and none is finishing or held.
    active, passes = np.arange(len(a)), 0
    while active.size and not (moved[active] < top).any():
        passes += 1
        sweep(active)
        active = active[(moved[active] >= stop) & (passes < SEESAW_MAX_ITERS)]
    finish = moved < top
    steps = np.full(len(a), passes)
    switch = np.full(len(a), top)                  # 0 while a start is held
    dropped = False
    # A Newton stack holds about 10 (d_a + d_b)^2 entries per start, so
    # it takes at most this many starts at a time.
    stack = max(1, PROBE_BLOCK // (d_a + d_b))
    while active.size:
        swept = active[~finish[active]]
        if swept.size:
            steps[swept] += 1
        else:                             # the finish, once none sweeps
            stepped = active[:stack]
            steps[stepped] += 1
            try:
                trial, t_a, t_b = _newton_step(e4, e_a, e_b, a[stepped],
                                               b[stepped], value[stepped])
            except np.linalg.LinAlgError:
                swept = stepped
            else:
                ok = trial <= value[stepped]
                moved[stepped] = abs(trial - value[stepped])
                took = stepped[ok]
                value[took], a[took], b[took] = trial[ok], t_a[ok], t_b[ok]
                # A rise too small to count as a move stops the start
                # where it was; after a larger one it drops a rung.
                swept = stepped[~ok & (moved[stepped] >= stop)]
            switch[swept] = np.where(switch[swept] > base, base, 0.0)
            dropped = dropped or bool(swept.size)
        if swept.size:
            sweep(swept)
            if dropped:       # a sweep that moves by a rung lifts it there
                up = np.where(moved[swept] >= top, top,
                              base * (moved[swept] >= base))
                switch[swept] = np.maximum(switch[swept], up)
            finish[swept] = moved[swept] < switch[swept]
        active = active[(moved[active] >= stop)
                        & (steps[active] < SEESAW_MAX_ITERS)]
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
    e, norm = hermitian_with_norm(e, "witness")
    if e.shape != (d_a * d_b,) * 2:
        raise ValueError(f"witness shape {e.shape} does not match "
                         f"{d_a}x{d_b}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    noise = EXACT_TOL * max(1.0, norm)
    h = hermitian_part(e)
    e4 = h.reshape(d_a, d_b, d_a, d_b)
    rng = np.random.default_rng(seed)

    # Restart r draws a (real, then imaginary), then b.
    best_value, best_pair = math.inf, None
    for count in _blocks(restarts):
        values, a, b = _seesaw(e4, *random_unit_pairs(rng, count, d_a, d_b))
        r = int(np.argmin(values))
        if values[r] < best_value:
            best_value = float(values[r])
            best_pair = (a[r], b[r])
    if best_pair is None:
        raise ValueError("see-saw values are not finite")

    w, v = np.linalg.eigh(h)
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


def _blocks(trials: int) -> Iterator[int]:
    """Sizes of the consecutive evaluation blocks that cover ``trials``."""
    return (min(PROBE_BLOCK, left) for left in range(trials, 0, -PROBE_BLOCK))


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
        draws = np.empty((count, 2, alg.draw_slots.size))
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
