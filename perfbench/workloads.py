"""The benchmark's four closed-loop workloads and their reference answers.

A workload is a fixed cycle of ops, one op being one certification, one
probe call or one ``cli.main`` invocation.  All inputs come from the
workload seed.  Where a workload draws random operators, cycle ``i``
takes the ``i``-th operator of a pool built at set-up, so a run averages
over many operators and its cost does not hinge on a single draw.  Ops
reach witnesslab through module attributes looked up at call time, which
is what lets a traced run put spans around them (see ``layers``).

Every op has a reference check that runs outside its timed span.
Verdicts of the named witnesses are known in closed form; every
certificate must re-evaluate to the value it backs; every probe must pass;
every CLI call must exit 0 and leave output that parses with the expected
row count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from witnesslab import cli, linalg, verify, witnesses
from witnesslab.algebra import BipartiteAlgebra, random_algebra_element

RESTARTS = 32
# Closed-form product minima are matched to this; the see-saw stops once a
# step changes the value by less than 1e-12.
REFERENCE_TOL = 1e-6
# Random operators per kind: each ew-seesaw cycle takes the next
# EW_PER_CYCLE of a pool of EW_POOL.  Their see-saw cost varies by a factor
# of two or more from one operator to the next, so a run needs many of
# them for its throughput and tail to settle.
EW_POOL = 128
EW_PER_CYCLE = 4
QW_POOL = 4
PROBE_TRIALS = 200


class WrongAnswer(Exception):
    """An op's result disagrees with its reference answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def scale_of(op: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(op)))


def check_certificate(certificate, op, value, tol) -> None:
    got = linalg.expectation(certificate, op)
    expect(abs(got - value) <= tol * scale_of(op),
           f"certificate evaluates to {got!r}, report backs {value!r}")


def choi_witness() -> np.ndarray:
    """Choi matrix of Choi's positive, indecomposable map on 3x3.

    The map is Phi[2,0,1](X) = D(X) - X with D(X) diagonal, entries
    2 x_ii + x_{i+2,i+2} (indices mod 3).  Positive but not completely
    positive, so its Choi matrix is an entanglement witness with product
    minimum 0 and a negative eigenvalue.
    """
    w = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            unit = np.zeros((3, 3), dtype=complex)
            unit[i, j] = 1.0
            diag = np.diag([2 * unit[k, k] + unit[(k + 2) % 3, (k + 2) % 3]
                            for k in range(3)])
            w += np.kron(unit, diag - unit)
    return w


# ---------------------------------------------------------------------------
# ew-seesaw


def _check_ew(e, d_a, d_b, seed):
    return verify.check_entanglement_witness(e, d_a, d_b, restarts=RESTARTS,
                                             seed=seed)


class EwSeesaw:
    """Entanglement certification of named and random witnesses."""

    RANDOM_DIMS = ((2, 2), (2, 3), (2, 4), (3, 3), (4, 4))

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        settings = witnesses.standard_bell_settings(+1)
        rt2 = math.sqrt(2.0)
        # kind -> (operator, d_a, d_b, (verdict, heuristic, product minimum))
        self.named = {
            f"swap-d{d}": (witnesses.swap_operator(d), d, d,
                           ("confirmed", True, 0.0)) for d in (2, 3, 4)}
        self.named["bell-chsh"] = (witnesses.bell_chsh(settings), 2, 2,
                                   ("confirmed", True, 2.0 - rt2))
        self.named["avr-asym"] = (witnesses.avr_asymmetric(settings)[2], 2, 2,
                                  ("refuted", False, 8.0 - 4.0 * rt2))
        for d in (2, 3):
            xi = float(rng.uniform(0.2, 0.8))
            op = xi * np.eye(d * d) + witnesses.swap_operator(d)
            self.named[f"xi-swap-d{d}"] = (op, d, d, ("confirmed", True, xi))
        self.named["choi-3x3"] = (choi_witness(), 3, 3,
                                  ("confirmed", True, 0.0))
        self.pools = {
            f"random-{d_a}x{d_b}": [
                (random_hermitian(rng, d_a * d_b), d_a, d_b, None)
                for _ in range(EW_POOL)]
            for d_a, d_b in self.RANDOM_DIMS}
        self.verdicts: dict[str, str] = {}

    def inputs(self, i: int):
        out = list(self.named.items())
        for kind, pool in self.pools.items():
            out += [(kind, pool[(i * EW_PER_CYCLE + j) % len(pool)])
                    for j in range(EW_PER_CYCLE)]
        return out

    def cycle(self, i: int, rec=None) -> list[Op]:
        return [Op(kind, partial(_check_ew, e, d_a, d_b,
                                 derived_seed(self.seed, i, k)),
                   partial(self.check, kind, e, ref))
                for k, (kind, (e, d_a, d_b, ref)) in enumerate(self.inputs(i))]

    def check(self, kind, e, ref, report) -> None:
        tol = report.tolerance
        slack = tol * scale_of(e)
        min_eig = float(np.linalg.eigvalsh(e)[0])
        product = report.min_product_expectation
        expect(abs(report.min_eigenvalue - min_eig) <= slack,
               f"{kind}: min eigenvalue {report.min_eigenvalue!r}, "
               f"numpy gives {min_eig!r}")
        expect(product >= min_eig - slack,
               f"{kind}: product minimum {product!r} below the spectrum")
        if product < -tol or min_eig >= -tol:
            expect(report.verdict == "refuted",
                   f"{kind}: verdict {report.verdict} for product minimum "
                   f"{product!r}, min eigenvalue {min_eig!r}")
        else:
            expect(report.verdict in ("confirmed", "inconclusive"),
                   f"{kind}: verdict {report.verdict}")
        product_backed = report.verdict == "inconclusive" or (
            report.verdict == "refuted" and product < -tol)
        check_certificate(report.certificate_state, e,
                          product if product_backed else min_eig, tol)
        if ref is not None:
            verdict, heuristic, minimum = ref
            expect((report.verdict, report.heuristic) == (verdict, heuristic),
                   f"{kind}: {report.verdict}/heuristic={report.heuristic}, "
                   f"expected {verdict}/heuristic={heuristic}")
            expect(abs(product - minimum) <= REFERENCE_TOL,
                   f"{kind}: product minimum {product!r}, "
                   f"expected {minimum!r}")
            self.verdicts[kind] = report.verdict

    def calibrate(self, passes: int) -> dict[str, float]:
        """One see-saw restart, and the final eigensolve, timed apart.

        ``verify.ew.restart_ms`` is the mean time of
        ``check_entanglement_witness(restarts=1)`` over the inputs above the
        grid-oracle range; ``linalg.eigh.busy_s`` is one
        ``hermitian_eigensystem`` call on every input in turn.  Each is the
        median over ``passes`` passes.
        """
        inputs = [v for _, v in self.inputs(0)]
        large = [(e, d_a, d_b) for e, d_a, d_b, _ in inputs if d_a * d_b > 6]
        restart, eigh = [], []
        for p in range(passes):
            seed = derived_seed(self.seed, p, 1)
            t0 = time.perf_counter()
            for e, d_a, d_b in large:
                verify.check_entanglement_witness(e, d_a, d_b, restarts=1,
                                                  seed=seed)
            restart.append((time.perf_counter() - t0) / len(large))
            t0 = time.perf_counter()
            for e, _, _, _ in inputs:
                linalg.hermitian_eigensystem(e)
            eigh.append(time.perf_counter() - t0)
        return {"verify.ew.restart_ms": statistics.median(restart) * 1e3,
                "linalg.eigh.busy_s": statistics.median(eigh)}


# ---------------------------------------------------------------------------
# qw-sectors


def ones(n: int) -> str:
    return ",".join(["1"] * n)


def sector_blocks(alg: BipartiteAlgebra, m: np.ndarray):
    """Diagonal sector blocks of ``m``, indexed as in the algebra docs."""
    a_off = np.cumsum((0,) + alg.blocks_a)
    b_off = np.cumsum((0,) + alg.blocks_b)
    for k, n in enumerate(alg.blocks_a):
        for l, size_b in enumerate(alg.blocks_b):
            rows = (a_off[k] + np.arange(n)) * alg.dim_b
            idx = (rows[:, None] + b_off[l] + np.arange(size_b)).ravel()
            yield m[np.ix_(idx, idx)]


def _check_qw(q, alg):
    return verify.check_quantumness_witness(q, alg)


class QwSectors:
    """Quantumness certification from one sector up to 144 sectors."""

    ALGEBRAS = ("4;4", "2,1;3", "2,2,1;2,1", "3,3;2,2",
                f"{ones(4)};{ones(4)}", f"{ones(6)};{ones(6)}",
                f"{ones(8)};{ones(8)}", f"{ones(12)};{ones(12)}")
    # Shifted operators have every vertex value at least this large.
    MARGIN = 0.1

    def __init__(self, seed: int):
        self.pools = {}
        for a, text in enumerate(self.ALGEBRAS):
            alg = cli.parse_algebra(text)
            for shift in (1, 0):
                kind = f"{text}/{'shifted' if shift else 'raw'}"
                self.pools[kind] = [
                    self._input(alg, derived_seed(seed, a, j, shift), shift)
                    for j in range(QW_POOL)]

    def _input(self, alg, seed, shift):
        """(operator, algebra, min vertex value, min eigenvalue)."""
        def min_vertex(q):
            return min(float(np.trace(b).real) / b.shape[0]
                       for b in sector_blocks(alg, q))

        q = random_algebra_element(alg, seed)
        if shift and min_vertex(q) < self.MARGIN:
            q = q + (self.MARGIN - min_vertex(q)) * np.eye(alg.total_dim)
        min_eig = min(float(np.linalg.eigvalsh(b)[0])
                      for b in sector_blocks(alg, q))
        return q, alg, min_vertex(q), min_eig

    def cycle(self, i: int, rec=None) -> list[Op]:
        ops = []
        for kind, pool in self.pools.items():
            q, alg, min_vertex, min_eig = pool[i % len(pool)]
            ops.append(Op(kind, partial(_check_qw, q, alg),
                          partial(self.check, kind, q, min_vertex, min_eig)))
        return ops

    def check(self, kind, q, min_vertex, min_eig, report) -> None:
        tol = report.tolerance
        slack = tol * scale_of(q)
        classical = report.min_classical_expectation
        expect(abs(classical - min_vertex) <= slack,
               f"{kind}: classical minimum {classical!r}, "
               f"expected {min_vertex!r}")
        expect(abs(report.min_eigenvalue - min_eig) <= slack,
               f"{kind}: min eigenvalue {report.min_eigenvalue!r}, "
               f"expected {min_eig!r}")
        confirmed = min_vertex >= -tol and min_eig < -tol
        expected = "confirmed" if confirmed else "refuted"
        expect(report.verdict == expected,
               f"{kind}: verdict {report.verdict}, expected {expected}")
        if report.violating_vertex is not None:
            expect(min_vertex < -tol, f"{kind}: spurious violating vertex")
            backs = report.min_classical_expectation
        else:
            backs = report.min_eigenvalue
        check_certificate(report.certificate_state, q, backs, tol)


# ---------------------------------------------------------------------------
# probe-trials


def _probe(fn_name, alg, seed):
    return getattr(verify, fn_name)(alg, PROBE_TRIALS, seed=seed)


class ProbeTrials:
    """Randomized lemma and theorem-1 probes at a fixed trial count."""

    ALGEBRAS = ("2;2", "2,1;3", "1,1;1,1")
    PROBES = ("classical_lemma_test", "theorem1_probe")

    def __init__(self, seed: int):
        self.seed = seed
        self.kinds = [(f"{probe}/{text}", probe, cli.parse_algebra(text))
                      for probe in self.PROBES for text in self.ALGEBRAS]

    def cycle(self, i: int, rec=None) -> list[Op]:
        return [Op(kind, partial(_probe, probe, alg,
                                 derived_seed(self.seed, i, k)),
                   partial(self.check, kind, alg))
                for k, (kind, probe, alg) in enumerate(self.kinds)]

    def check(self, kind, alg, report) -> None:
        expect(report.passed and report.violations == 0,
               f"{kind}: probe failed with {report.violations} violations")
        runs_all = report.kind == "lemma" or alg.is_commutative
        if runs_all:
            expect(report.trials == PROBE_TRIALS,
                   f"{kind}: ran {report.trials} of {PROBE_TRIALS} trials")
        else:
            expect(1 <= report.trials <= PROBE_TRIALS,
                   f"{kind}: ran {report.trials} trials")
            x, y = report.witness_x, report.witness_y
            anti = x @ y + y @ x
            lam = float(np.linalg.eigvalsh((anti + anti.conj().T) / 2)[0])
            slack = 1e-9 * max(scale_of(x), scale_of(y)) ** 2
            expect(min(np.linalg.eigvalsh(x)[0], np.linalg.eigvalsh(y)[0])
                   >= -slack, f"{kind}: witness pair is not positive")
            expect(lam < 0 and report.witness_lambda_min < 0,
                   f"{kind}: anticommutator minimum {lam!r} is not negative")
            if not report.fallback_used:
                expect(abs(lam - report.witness_lambda_min) <= slack,
                       f"{kind}: anticommutator minimum {lam!r}, report says "
                       f"{report.witness_lambda_min!r}")


# ---------------------------------------------------------------------------
# cli-roundtrip


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def _run_cli(argv, rec):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if rec is not None:
        rec.count("cli.out_bytes", len(text.encode()))
    return CliResult(code, text, err.getvalue())


SCAN_HEADERS = {
    "chi-threshold": ["re_ab", "exp_S", "exp_EBell"],
    "ratio-theta": ["theta", "lambda_plus", "lambda_minus", "ratio",
                    "ratio_formula"],
    "xi-sweep": ["xi", "residual", "min_eig_X", "min_eig_Y",
                 "min_eig_shifted"],
    "fig1": ["u", "v", "bound", "min_ratio"],
}


class CliRoundtrip:
    """construct -> verify -> scan through in-process ``cli.main`` calls."""

    SWAP_DIMS = (2, 3, 4, 5, 6)
    # scan kind -> (--steps, expected data rows)
    SCANS = {"chi-threshold": (400, 400), "ratio-theta": (60, 60),
             "xi-sweep": (60, 60), "fig1": (12, 144)}

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.dir = Path(workdir)
        xi = float(rng.uniform(0.2, 0.8))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        u, v = (0.0, 0.0, 1.0), (math.sin(theta), 0.0, math.cos(theta))
        verify_seed = derived_seed(seed, 0)

        def path(name):
            return str(self.dir / name)

        # file -> expected matrix (None: only dimension and Hermiticity)
        self.files = {path(f"swap{d}.json"): witnesses.swap_operator(d)
                      for d in self.SWAP_DIMS}
        self.files[path("bell.json")] = witnesses.bell_chsh(
            witnesses.standard_bell_settings(+1))
        self.files[path("shift.Q.json")] = (
            xi * np.eye(4) + witnesses.swap_operator(2))
        _, _, qubit_q, _, lam_minus = witnesses.qubit_qw(
            witnesses.QubitQWParams(1.0, 1.0, u, v))
        self.files[path("qw.Q.json")] = qubit_q
        for stem in ("shift", "qw"):
            for part in ("X", "Y"):
                self.files[path(f"{stem}.{part}.json")] = None

        steps = []
        for d in self.SWAP_DIMS:
            steps.append((f"construct swap d={d}",
                          ["construct", "swap", "--d", str(d),
                           "--out", path(f"swap{d}.json")],
                          [path(f"swap{d}.json")]))
        steps.append(("construct bell",
                      ["construct", "bell", "--sign", "plus",
                       "--out", path("bell.json")], [path("bell.json")]))
        steps.append(("construct shifted-swap",
                      ["construct", "shifted-swap", "--d", "2",
                       "--xi", repr(xi), "--phi", repr(phi),
                       "--out", path("shift.json")],
                      [path(f"shift.{p}.json") for p in "XYQ"]))
        steps.append(("construct qubit-qw",
                      ["construct", "qubit-qw", "--alpha", "1", "--beta", "1",
                       "--u", ",".join(map(repr, u)),
                       "--v", ",".join(map(repr, v)),
                       "--out", path("qw.json")],
                      [path(f"qw.{p}.json") for p in "XYQ"]))
        self.construct_steps = steps

        seed_args = ["--seed", str(verify_seed)]
        # (kind, argv, file, {report key: expected verdict}, min eigenvalue)
        specs = [
            ("verify ew swap d=2", ["verify", "ew", "--dims", "2", "2"],
             "swap2.json", {None: "confirmed"}, -1.0),
            ("verify ew swap d=3", ["verify", "ew", "--dims", "3", "3"],
             "swap3.json", {None: "confirmed"}, -1.0),
            ("verify qw swap d=3", ["verify", "qw", "--alg", "3;3"],
             "swap3.json", {None: "confirmed"}, -1.0),
            ("verify both bell", ["verify", "both", "--dims", "2", "2"],
             "bell.json", {"ew": "confirmed", "qw": "confirmed"},
             2.0 - 2.0 * math.sqrt(2.0)),
            ("verify ew shifted-swap", ["verify", "ew", "--dims", "2", "2"],
             "shift.Q.json", {None: "confirmed"}, xi - 1.0),
            ("verify qw qubit-qw", ["verify", "qw", "--alg", "2"],
             "qw.Q.json", {None: "confirmed"}, lam_minus),
        ]
        self.verify_steps = [
            (kind, argv + ["--in", path(name)] + seed_args, path(name),
             expected, min_eig)
            for kind, argv, name, expected, min_eig in specs]
        self.scan_steps = [
            (f"scan {kind}", ["scan", kind, "--steps", str(n),
                              "--out", path(f"{kind}.csv")],
             path(f"{kind}.csv"), kind, rows)
            for kind, (n, rows) in self.SCANS.items()]

    def cycle(self, i: int, rec=None) -> list[Op]:
        ops = [Op(kind, partial(_run_cli, argv, rec),
                  partial(self.check_construct, kind, written))
               for kind, argv, written in self.construct_steps]
        ops += [Op(kind, partial(_run_cli, argv, rec),
                   partial(self.check_verify, kind, path, expected, min_eig))
                for kind, argv, path, expected, min_eig in self.verify_steps]
        ops += [Op(kind, partial(_run_cli, argv, rec),
                   partial(self.check_scan, kind, path, scan, rows))
                for kind, argv, path, scan, rows in self.scan_steps]
        return ops

    @staticmethod
    def _exit_ok(kind, result) -> None:
        expect(result.code == 0,
               f"{kind}: exit code {result.code}: {result.err.strip()}")

    def check_construct(self, kind, written, result) -> None:
        self._exit_ok(kind, result)
        expect(json.loads(result.out)["written"] == written,
               f"{kind}: wrote {result.out!r}")
        for path in written:
            with open(path) as fh:
                doc = json.load(fh)
            m = (np.asarray(doc["re"]) + 1j * np.asarray(doc["im"])).reshape(
                doc["dim"], doc["dim"])
            expected = self.files[path]
            if expected is None:
                expect(np.allclose(m, m.conj().T, atol=1e-12),
                       f"{kind}: {path} is not Hermitian")
            else:
                expect(m.shape == expected.shape
                       and np.allclose(m, expected, atol=1e-12),
                       f"{kind}: {path} holds the wrong matrix")

    def check_verify(self, kind, path, expected, min_eig, result) -> None:
        self._exit_ok(kind, result)
        doc = json.loads(result.out)
        op = self.files[path]
        for key, verdict in expected.items():
            report = doc if key is None else doc[key]
            expect(report["verdict"] == verdict,
                   f"{kind}: verdict {report['verdict']}, expected {verdict}")
            expect(abs(report["min_eigenvalue"] - min_eig) <= 1e-9,
                   f"{kind}: min eigenvalue {report['min_eigenvalue']!r}, "
                   f"expected {min_eig!r}")
            certificate = linalg.matrix_from_json(report["certificate"])
            check_certificate(certificate, op, report["min_eigenvalue"],
                              report["tolerance"])

    def check_scan(self, kind, path, scan, rows, result) -> None:
        self._exit_ok(kind, result)
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        expect(table[0] == SCAN_HEADERS[scan], f"{kind}: header {table[0]}")
        expect(len(table) - 1 == rows,
               f"{kind}: {len(table) - 1} rows, expected {rows}")
        for row in table[1:]:
            expect(len(row) == len(table[0]), f"{kind}: ragged row {row}")
            for cell in row:
                expect(cell == "" or math.isfinite(float(cell)),
                       f"{kind}: bad cell {cell!r}")


def build(name: str, seed: int, workdir: Path):
    if name == "ew-seesaw":
        return EwSeesaw(seed)
    if name == "qw-sectors":
        return QwSectors(seed)
    if name == "probe-trials":
        return ProbeTrials(seed)
    if name == "cli-roundtrip":
        return CliRoundtrip(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
