"""Command-line front end.

Subcommands: ``construct`` (build witness operators and write them as
JSON matrices with a provenance block), ``verify`` (run the witness
certifiers on an operator file), ``scan`` (emit CSV datasets for the
threshold and surface plots) and ``probe`` (randomized algebra probes).
The ``ratio-theta`` and ``xi-sweep`` scans build and solve their rows in
stacked blocks of at most MAX_D^3 matrix entries, so their stacked arrays
do not grow with --steps.

Exit codes: 0 the computation completed (verdicts are data, not exit
status), 1 a probe failed or ``verify both`` found a confirmed
entanglement witness that is no quantumness witness, 2 invalid input
(sizes above MAX_D, MAX_SCAN_ROWS and MAX_PROBE_DIM included).  The
default seed is 42, overridable by the WITNESSLAB_SEED environment
variable and the --seed flag, in that order of precedence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .algebra import BipartiteAlgebra, full_algebra
from .linalg import (as_matrix, hermitian_eigensystem, json_text,
                     load_matrix, matrix_to_json, save_matrix, tensor)
from .states import KET_MINUS, KET_PLUS
from .verify import (DEFAULT_RESTARTS, DEFAULT_SEED,
                     check_entanglement_witness, check_quantumness_witness,
                     classical_lemma_test, ew_implies_qw, require_dims,
                     theorem1_probe)
from .witnesses import (QubitQWParams, ShiftedSwapParams, bell_chsh,
                        qubit_qw, qubit_qw_stack, shifted_swap_factors,
                        shifted_swap_stack, standard_bell_settings,
                        swap_operator)

DEFAULT_STEPS = 1000
DEFAULT_FIG1_STEPS = 64
DEFAULT_TRIALS = 1000
# Caps on outside input, checked before anything is allocated: a swap
# operator on C^d (x) C^d is a d^2 x d^2 complex matrix, 16 MB at d = 32,
# and one block of 1024 lemma trials holds 32 MB of factors at dimension 32.
MAX_D = 32
MAX_SCAN_ROWS = 10**6
MAX_PROBE_DIM = 32


def require_at_most(what: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{what} is {value}, above the cap of {cap}")


def default_seed() -> int:
    text = os.environ.get("WITNESSLAB_SEED", str(DEFAULT_SEED))
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"WITNESSLAB_SEED must be an integer, got {text!r}") from None


def parse_algebra(text: str) -> BipartiteAlgebra:
    """Parse "n1,n2;m1,m2" (bipartite) or "n1,n2" (single factor)."""
    def side(chunk):
        parts = [p.strip() for p in chunk.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"empty algebra side in {text!r}")
        return tuple(int(p) for p in parts)

    try:
        if ";" in text:
            left, right = text.split(";", 1)
            return BipartiteAlgebra(side(left), side(right))
        return BipartiteAlgebra(side(text), (1,))
    except ValueError as exc:
        raise ValueError(f"cannot parse algebra {text!r}: {exc}") from exc


def parse_vec3(text: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated reals, got {text!r}")
    return tuple(float(p) for p in parts)


def sector_basis_permutation(d: int) -> np.ndarray:
    """Lexicographic indices reordered by exchange sectors.

    Pairs are grouped by the unordered sector {i, j} (sectors sorted
    lexicographically, |ij> before |ji> inside each); for d = 3 this is
    the ordering {00, 01, 10, 02, 20, 11, 12, 21, 22} used for displaying
    the swap operator block structure.
    """
    order = []
    for i in range(d):
        for j in range(i, d):
            order.append(i * d + j)
            if i != j:
                order.append(j * d + i)
    return np.array(order)


def to_sector_basis(m, d: int) -> np.ndarray:
    perm = sector_basis_permutation(d)
    return np.asarray(m)[np.ix_(perm, perm)]


# ---------------------------------------------------------------------------
# Scan datasets


def chi_threshold_scan(steps: int):
    """Rows (re_ab, exp_S, exp_EBell) over real unit-circle amplitudes.

    The grid walks (a, b) = (cos t, sin t) with t in [pi/4, 3pi/4], so
    Re(a*b) decreases monotonically from 1/2 to -1/2 and the two detection
    thresholds are each crossed exactly once.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    t = np.linspace(math.pi / 4.0, 3.0 * math.pi / 4.0, steps)
    a, b = np.cos(t), np.sin(t)
    kets = (a[:, None] * np.kron(KET_PLUS, KET_MINUS)[None, :]
            + b[:, None] * np.kron(KET_MINUS, KET_PLUS)[None, :])
    s_op = swap_operator(2)
    e_op = bell_chsh(standard_bell_settings(+1))
    exp_s = np.einsum("bi,ij,bj->b", kets.conj(), s_op, kets).real
    exp_e = np.einsum("bi,ij,bj->b", kets.conj(), e_op, kets).real
    return list(zip((a * b).tolist(), exp_s.tolist(), exp_e.tolist()))


def _blocks(values: np.ndarray, n: int):
    """Consecutive slices of ``values``, one scan block each.

    A block of n x n matrices holds at most MAX_D^3 entries (512 KB per
    complex stack), so the stacks do not grow with --steps; a row at the
    size cap (MAX_D^4 entries) is a block of its own.  (n = 0 comes from
    --d 0, which the block's builder then refuses.)
    """
    size = max(1, MAX_D ** 3 // max(1, n * n))
    return (values[at:at + size] for at in range(0, len(values), size))


def ratio_theta_scan(steps: int):
    """Rows (theta, lambda_plus, lambda_minus, ratio, ratio_formula).

    Unit Bloch vectors at angle theta with alpha = beta = 1; eigenvalues
    come from the eigensolver, the formula column from -tan^2(theta/4).
    Endpoints are excluded because the ratio degenerates there.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rows = []
    for block in _blocks(np.linspace(0.0, math.pi, steps + 2)[1:-1], 2):
        thetas = block.tolist()
        v = np.array([(math.sin(t), 0.0, math.cos(t)) for t in thetas])
        w = hermitian_eigensystem(qubit_qw_stack(
            1.0, 1.0, (0.0, 0.0, 1.0), v)[2]).eigenvalues
        lam_minus, lam_plus = w[:, 0], w[:, -1]
        rows += zip(thetas, lam_plus.tolist(), lam_minus.tolist(),
                    (lam_minus / lam_plus).tolist(),
                    [-math.tan(t / 4.0) ** 2 for t in thetas])
    return rows


def xi_sweep_scan(steps: int, d: int = 2, phi: float = 0.0):
    """Rows (xi, residual, min_eig_X, min_eig_Y, min_eig_shifted)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rows = []
    for xis in _blocks(np.linspace(0.0, 1.0, steps + 2)[1:-1], d * d):
        x, y, shifted, residual = shifted_swap_stack(xis, phi, d)
        rows += zip(xis.tolist(), residual.tolist(),
                    *(hermitian_eigensystem(m).eigenvalues[:, 0].tolist()
                      for m in (x, y, shifted)))
    return rows


_SCAN_HEADERS = {
    "chi-threshold": ["re_ab", "exp_S", "exp_EBell"],
    "fig1": ["u", "v", "bound", "min_ratio"],
    "ratio-theta": ["theta", "lambda_plus", "lambda_minus", "ratio",
                    "ratio_formula"],
    "xi-sweep": ["xi", "residual", "min_eig_X", "min_eig_Y",
                 "min_eig_shifted"],
}


def _write_csv(out_path, header, rows):
    """Write the rows, tuples of floats and None, as ``csv.writer`` writes
    them: a float as its repr, None as "", lines ended by \\r\\n."""
    line = ",".join(["%r"] * len(header)) + "\r\n"
    # No float's repr holds "None".
    text = (",".join(header) + "\r\n"
            + "".join([line % row for row in rows]).replace("None", ""))
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Commands


def _sign_value(text: str) -> int:
    return +1 if text == "plus" else -1


def _emit_operators(operators: dict, provenance: dict, out_path):
    """Write one matrix file per operator, provenance embedded in each.

    A single operator goes to ``out_path`` itself; several go to
    ``<stem>.<NAME>.json`` siblings.  Without --out the document is
    printed to stdout instead.  Every operator is checked before the first
    file is written, so a refused one leaves no file behind.
    """
    if out_path is None:
        doc = {name: matrix_to_json(m) for name, m in operators.items()}
        doc["provenance"] = provenance
        print(json_text(doc))
        return
    stem = str(out_path).removesuffix(".json")
    written = [str(out_path)] if len(operators) == 1 else [
        f"{stem}.{name}.json" for name in operators]
    for m in operators.values():
        as_matrix(m)
    for path, m in zip(written, operators.values()):
        save_matrix(path, m, provenance)
    print(json_text({"written": written, "provenance": provenance}))


def cmd_construct(args) -> int:
    require_at_most("--d", args.d, MAX_D)
    kind = args.kind
    if kind == "swap":
        s = swap_operator(args.d)
        basis = "sector" if args.paper_basis else "lexicographic"
        if args.paper_basis:
            s = to_sector_basis(s, args.d)
        operators = {"Q": s}
        provenance = {"kind": "swap", "params": {"d": args.d, "basis": basis}}
    elif kind == "bell":
        sign = _sign_value(args.sign)
        settings = standard_bell_settings(sign)
        e = bell_chsh(settings)
        # S - (P00 + P11 +/- (E-2)/(2 sqrt 2)) residual, fixed by the
        # standard settings
        proj = np.zeros((4, 4), dtype=complex)
        proj[0, 0] = proj[3, 3] = 1.0
        residual = float(np.linalg.norm(
            swap_operator(2) - (proj + sign * (e - 2.0 * np.eye(4))
                                / (2.0 * math.sqrt(2.0)))))
        operators = {"Q": e}
        provenance = {"kind": "bell", "params": {"sign": args.sign},
                      "s_bell_residual": residual}
    elif kind in ("avr-asym", "avr-sym"):
        sign = _sign_value(args.sign)
        settings = standard_bell_settings(sign)
        if kind == "avr-asym":
            from .witnesses import avr_asymmetric
            x, y, q = avr_asymmetric(settings)
            target = 4.0 * bell_chsh(settings) - tensor(
                settings.a1 @ settings.a2 - settings.a2 @ settings.a1,
                settings.b1 @ settings.b2 - settings.b2 @ settings.b1)
        else:
            from .witnesses import avr_symmetric
            x, y, q = avr_symmetric(settings)
            target = 4.0 * bell_chsh(settings)
        residual = float(np.linalg.norm(q - target))
        spectrum = [float(v) for v in hermitian_eigensystem(q).eigenvalues]
        operators = {"X": x, "Y": y, "Q": q}
        provenance = {"kind": kind, "params": {"sign": args.sign},
                      "identity_residual": residual, "spectrum": spectrum}
    elif kind == "qubit-qw":
        params = QubitQWParams(args.alpha, args.beta,
                               parse_vec3(args.u), parse_vec3(args.v))
        x, y, q, lam_plus, lam_minus = qubit_qw(params)
        operators = {"X": x, "Y": y, "Q": q}
        provenance = {"kind": "qubit-qw",
                      "params": {"alpha": params.alpha, "beta": params.beta,
                                 "u": list(params.u), "v": list(params.v)},
                      "lambda_plus": lam_plus, "lambda_minus": lam_minus}
    else:
        params = ShiftedSwapParams(xi=args.xi, phi=args.phi, d=args.d)
        x, y, residual = shifted_swap_factors(params)
        operators = {"X": x, "Y": y, "Q": params.xi * np.eye(params.d ** 2)
                     + swap_operator(params.d)}
        provenance = {"kind": "shifted-swap",
                      "params": {"d": params.d, "xi": params.xi,
                                 "phi": params.phi},
                      "factorization_residual": float(residual)}
    _emit_operators(operators, provenance, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.dims is not None:
        require_dims(*args.dims)
    op = load_matrix(getattr(args, "in"))
    mode = args.mode
    if mode == "qw":
        if args.alg is not None:
            alg = parse_algebra(args.alg)
        elif args.dims is not None:
            alg = full_algebra(*args.dims)
        else:
            raise ValueError("verify qw needs --alg or --dims")
        doc = check_quantumness_witness(op, alg).to_json()
    elif args.dims is None:
        raise ValueError(f"verify {mode} needs --dims A B")
    elif mode == "ew":
        doc = check_entanglement_witness(
            op, *args.dims, restarts=args.restarts, seed=args.seed).to_json()
    else:
        ew, qw = ew_implies_qw(op, *args.dims,
                               restarts=args.restarts, seed=args.seed)
        doc = {"ew": ew.to_json(), "qw": qw.to_json()}
    print(json_text(doc))
    return 0


def cmd_scan(args) -> int:
    kind = args.kind
    steps = args.steps
    if steps is None:
        steps = DEFAULT_FIG1_STEPS if kind == "fig1" else DEFAULT_STEPS
    require_at_most("--d", args.d, MAX_D)
    require_at_most("the scan's row count", steps ** 2 if kind == "fig1"
                    else steps, MAX_SCAN_ROWS)
    if kind == "chi-threshold":
        rows = chi_threshold_scan(steps)
    elif kind == "fig1":
        from .witnesses import fig1_surfaces
        rows = fig1_surfaces(steps)
    elif kind == "ratio-theta":
        rows = ratio_theta_scan(steps)
    else:
        rows = xi_sweep_scan(steps, d=args.d, phi=args.phi)
    _write_csv(args.out, _SCAN_HEADERS[kind], rows)
    return 0


def cmd_probe(args) -> int:
    alg = parse_algebra(args.alg)
    require_at_most("the algebra's total dimension", alg.total_dim,
                    MAX_PROBE_DIM)
    if args.kind == "theorem1":
        report = theorem1_probe(alg, args.trials, seed=args.seed)
    else:
        report = classical_lemma_test(alg, args.trials, seed=args.seed)
    print(json_text(report.to_json()))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witnesslab",
        description="Construct and certify quantumness/entanglement "
                    "witnesses.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Built once, so --seed has no default of its own: without the flag the
    # WITNESSLAB_SEED value that main reads on every call is kept.
    seed = argparse.SUPPRESS

    c = sub.add_parser("construct", help="build a witness operator")
    c.add_argument("kind", choices=["swap", "bell", "avr-asym", "avr-sym",
                                    "qubit-qw", "shifted-swap"])
    c.add_argument("--d", type=int, default=2, help="local dimension")
    c.add_argument("--sign", choices=["plus", "minus"], default="plus")
    c.add_argument("--xi", type=float, default=0.5)
    c.add_argument("--phi", type=float, default=0.0)
    c.add_argument("--alpha", type=float, default=1.0)
    c.add_argument("--beta", type=float, default=1.0)
    c.add_argument("--u", default="0,0,1", help="Bloch vector x,y,z")
    c.add_argument("--v", default="1,0,0", help="Bloch vector x,y,z")
    c.add_argument("--paper-basis", action="store_true",
                   help="emit swap in the sector-grouped display basis")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="certify an operator file")
    v.add_argument("mode", choices=["qw", "ew", "both"])
    v.add_argument("--in", required=True, help="operator JSON file")
    v.add_argument("--dims", type=int, nargs=2, metavar=("A", "B"))
    v.add_argument("--alg", help='algebra blocks "a1,a2;b1,b2"')
    v.add_argument("--seed", type=int, default=seed)
    v.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("scan", help="emit a CSV dataset")
    s.add_argument("kind", choices=["chi-threshold", "fig1", "ratio-theta",
                                    "xi-sweep"])
    s.add_argument("--steps", type=int, default=None,
                   help=f"grid points (default {DEFAULT_STEPS}, "
                        f"fig1 {DEFAULT_FIG1_STEPS} per axis)")
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--phi", type=float, default=0.0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_scan)

    p = sub.add_parser("probe", help="randomized algebra probes")
    p.add_argument("kind", choices=["theorem1", "lemma"])
    p.add_argument("--alg", required=True,
                   help='algebra blocks "a1,a2;b1,b2"')
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            argv, argparse.Namespace(seed=default_seed()))
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
