"""Command-line front end.

Subcommands: ``construct`` (build witness operators and write them as
JSON matrices with a provenance block), ``verify`` (run the witness
certifiers on an operator file), ``scan`` (emit CSV datasets for the
threshold and surface plots) and ``probe`` (randomized algebra probes).

Exit codes: 0 the computation completed (verdicts are data, not exit
status), 1 a probe or internal cross-check assertion failed, 2 invalid
input.  The default seed is 42, overridable by the WITNESSLAB_SEED
environment variable and the --seed flag, in that order of precedence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .algebra import BipartiteAlgebra, full_algebra
from .linalg import (hermitian_eigensystem, load_matrix, matrix_to_json,
                     save_matrix, tensor)
from .states import KET_MINUS, KET_PLUS
from .verify import (check_entanglement_witness, check_quantumness_witness,
                     classical_lemma_test, ew_implies_qw, theorem1_probe)
from .witnesses import (QubitQWParams, ShiftedSwapParams, bell_chsh,
                        qubit_qw, shifted_swap_factors,
                        standard_bell_settings, swap_operator)

DEFAULT_RESTARTS = 32
DEFAULT_STEPS = 1000
DEFAULT_FIG1_STEPS = 64
DEFAULT_TRIALS = 1000


def default_seed() -> int:
    text = os.environ.get("WITNESSLAB_SEED", "42")
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
    re_ab = a * b
    return [(float(r), float(es), float(ee))
            for r, es, ee in zip(re_ab, exp_s, exp_e)]


def ratio_theta_scan(steps: int):
    """Rows (theta, lambda_plus, lambda_minus, ratio, ratio_formula).

    Unit Bloch vectors at angle theta with alpha = beta = 1; eigenvalues
    come from the eigensolver, the formula column from -tan^2(theta/4).
    Endpoints are excluded because the ratio degenerates there.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    thetas = np.linspace(0.0, math.pi, steps + 2)[1:-1]
    rows = []
    for theta in thetas:
        params = QubitQWParams(1.0, 1.0, (0.0, 0.0, 1.0),
                               (math.sin(theta), 0.0, math.cos(theta)))
        _, _, q, _, _ = qubit_qw(params)
        w = hermitian_eigensystem(q).eigenvalues
        lam_minus, lam_plus = float(w[0]), float(w[-1])
        rows.append((float(theta), lam_plus, lam_minus,
                     lam_minus / lam_plus, -math.tan(theta / 4.0) ** 2))
    return rows


def xi_sweep_scan(steps: int, d: int = 2, phi: float = 0.0):
    """Rows (xi, residual, min_eig_X, min_eig_Y, min_eig_shifted)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    xis = np.linspace(0.0, 1.0, steps + 2)[1:-1]
    s_op = swap_operator(d)
    rows = []
    for xi in xis:
        x, y, residual = shifted_swap_factors(
            ShiftedSwapParams(xi=float(xi), phi=phi, d=d))
        min_x = float(hermitian_eigensystem(x).eigenvalues[0])
        min_y = float(hermitian_eigensystem(y).eigenvalues[0])
        shifted = float(xi) * np.eye(d * d) + s_op
        min_s = float(hermitian_eigensystem(shifted).eigenvalues[0])
        rows.append((float(xi), float(residual), min_x, min_y, min_s))
    return rows


def fig1_scan(grid_n: int):
    from .witnesses import fig1_surfaces
    return fig1_surfaces(grid_n)


_SCAN_HEADERS = {
    "chi-threshold": ["re_ab", "exp_S", "exp_EBell"],
    "fig1": ["u", "v", "bound", "min_ratio"],
    "ratio-theta": ["theta", "lambda_plus", "lambda_minus", "ratio",
                    "ratio_formula"],
    "xi-sweep": ["xi", "residual", "min_eig_X", "min_eig_Y",
                 "min_eig_shifted"],
}


def _write_csv(out_path, header, rows):
    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if x is None else repr(float(x))
                             for x in row])

    if out_path is None:
        emit(sys.stdout)
    else:
        with open(out_path, "w", newline="") as fh:
            emit(fh)


# ---------------------------------------------------------------------------
# Commands


def _sign_value(text: str) -> int:
    return +1 if text == "plus" else -1


def _emit_operators(operators: dict, provenance: dict, out_path):
    """Write one matrix file per operator, provenance embedded in each.

    A single operator goes to ``out_path`` itself; several go to
    ``<stem>.<NAME>.json`` siblings.  Without --out the document is
    printed to stdout instead.
    """
    if out_path is None:
        doc = {name: matrix_to_json(m) for name, m in operators.items()}
        doc["provenance"] = provenance
        print(json.dumps(doc, indent=2))
        return
    if len(operators) == 1:
        (name, m), = operators.items()
        save_matrix(out_path, m, provenance)
        written = [str(out_path)]
    else:
        stem = str(out_path)
        if stem.endswith(".json"):
            stem = stem[:-len(".json")]
        written = []
        for name, m in operators.items():
            path = f"{stem}.{name}.json"
            save_matrix(path, m, provenance)
            written.append(path)
    print(json.dumps({"written": written, "provenance": provenance},
                     indent=2))


def cmd_construct(args) -> int:
    kind = args.kind
    if kind == "swap":
        s = swap_operator(args.d)
        basis = "sector" if args.paper_basis else "lexicographic"
        if args.paper_basis:
            s = to_sector_basis(s, args.d)
        _emit_operators(
            {"Q": s},
            {"kind": "swap", "params": {"d": args.d, "basis": basis}},
            args.out)
        return 0
    if kind == "bell":
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
        _emit_operators(
            {"Q": e},
            {"kind": "bell", "params": {"sign": args.sign},
             "s_bell_residual": residual},
            args.out)
        return 0
    if kind in ("avr-asym", "avr-sym"):
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
        _emit_operators(
            {"X": x, "Y": y, "Q": q},
            {"kind": kind, "params": {"sign": args.sign},
             "identity_residual": residual,
             "spectrum": spectrum},
            args.out)
        return 0
    if kind == "qubit-qw":
        params = QubitQWParams(args.alpha, args.beta,
                               parse_vec3(args.u), parse_vec3(args.v))
        x, y, q, lam_plus, lam_minus = qubit_qw(params)
        _emit_operators(
            {"X": x, "Y": y, "Q": q},
            {"kind": "qubit-qw",
             "params": {"alpha": params.alpha, "beta": params.beta,
                        "u": list(params.u), "v": list(params.v)},
             "lambda_plus": lam_plus, "lambda_minus": lam_minus},
            args.out)
        return 0
    if kind == "shifted-swap":
        params = ShiftedSwapParams(xi=args.xi, phi=args.phi, d=args.d)
        x, y, residual = shifted_swap_factors(params)
        shifted = params.xi * np.eye(params.d ** 2) + swap_operator(params.d)
        _emit_operators(
            {"X": x, "Y": y, "Q": shifted},
            {"kind": "shifted-swap",
             "params": {"d": params.d, "xi": params.xi, "phi": params.phi},
             "factorization_residual": float(residual)},
            args.out)
        return 0
    raise ValueError(f"unknown construct kind {kind!r}")


def cmd_verify(args) -> int:
    op = load_matrix(getattr(args, "in"))
    mode = args.mode
    if mode == "qw":
        if args.alg is not None:
            alg = parse_algebra(args.alg)
        elif args.dims is not None:
            alg = full_algebra(*args.dims)
        else:
            raise ValueError("verify qw needs --alg or --dims")
        report = check_quantumness_witness(op, alg)
        print(json.dumps(report.to_json(), indent=2))
        return 0
    if args.dims is None:
        raise ValueError(f"verify {mode} needs --dims A B")
    d_a, d_b = args.dims
    if mode == "ew":
        report = check_entanglement_witness(
            op, d_a, d_b, restarts=args.restarts, seed=args.seed)
        print(json.dumps(report.to_json(), indent=2))
        return 0
    if mode == "both":
        ew, qw = ew_implies_qw(op, d_a, d_b,
                               restarts=args.restarts, seed=args.seed)
        print(json.dumps({"ew": ew.to_json(), "qw": qw.to_json()},
                         indent=2))
        return 0
    raise ValueError(f"unknown verify mode {mode!r}")


def cmd_scan(args) -> int:
    kind = args.kind
    if kind == "chi-threshold":
        rows = chi_threshold_scan(args.steps or DEFAULT_STEPS)
    elif kind == "fig1":
        rows = fig1_scan(args.steps or DEFAULT_FIG1_STEPS)
    elif kind == "ratio-theta":
        rows = ratio_theta_scan(args.steps or DEFAULT_STEPS)
    elif kind == "xi-sweep":
        rows = xi_sweep_scan(args.steps or DEFAULT_STEPS, d=args.d,
                             phi=args.phi)
    else:
        raise ValueError(f"unknown scan kind {kind!r}")
    _write_csv(args.out, _SCAN_HEADERS[kind], rows)
    return 0


def cmd_probe(args) -> int:
    alg = parse_algebra(args.alg)
    if args.kind == "theorem1":
        report = theorem1_probe(alg, args.trials, seed=args.seed)
    elif args.kind == "lemma":
        report = classical_lemma_test(alg, args.trials, seed=args.seed)
    else:
        raise ValueError(f"unknown probe kind {args.kind!r}")
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witnesslab",
        description="Construct and certify quantumness/entanglement "
                    "witnesses.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    seed = default_seed()

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
        args = build_parser().parse_args(argv)
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
