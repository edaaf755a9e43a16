"""Closed-loop benchmark of witnesslab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client in one process, with
no worker threads and BLAS pinned to one thread, sends each op only after
the previous one returned, cycling through the workload's inputs in whole
cycles until ``--seconds`` have passed.  Each result is checked against a
reference answer outside the op's timed span.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with spans around the calls into each layer,
and reports the per-layer metrics read from those spans together with the
cost of tracing.  ``--smoke`` runs a single cycle per phase, for the
self-check test.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run's environment and result, and the spans of a
traced run, are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# Set-up is repeated in fresh interpreters and the median reported.
SETUP_SAMPLES = 5
CALIBRATION_PASSES = 21
MAX_REPORTED_FAILURES = 5


@dataclass
class Phase:
    """Latencies of one timed loop, keyed by input kind."""

    latencies: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy_s


def report_failure(phase: Phase, kind: str) -> None:
    phase.failed += 1
    if phase.failed <= MAX_REPORTED_FAILURES:
        print(f"op {kind!r} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def run_phase(workload, seconds: float, smoke: bool, rec=None) -> Phase:
    """Closed loop over whole cycles; only ``op.call`` is timed."""
    phase = Phase()
    start = time.perf_counter()
    cycle = 0
    while True:
        for op in workload.cycle(cycle, rec):
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                if rec is None:
                    result = op.call()
                else:
                    with rec.op(phase.attempted):
                        result = op.call()
            except Exception:
                phase.busy_s += time.perf_counter() - t0
                report_failure(phase, op.kind)
                continue
            elapsed = time.perf_counter() - t0
            phase.busy_s += elapsed
            try:
                op.check(result)
            except Exception:
                report_failure(phase, op.kind)
                continue
            phase.latencies[op.kind].append(elapsed)
        cycle += 1
        if smoke or time.perf_counter() - start >= seconds:
            return phase


def all_measured(phases) -> bool:
    """Metrics need at least one correct op in every timed phase."""
    if all(p.attempted > p.failed for p in phases):
        return True
    print("error: every op of a timed phase failed", file=sys.stderr)
    return False


def end_to_end(phase: Phase, setup_s: list[float]) -> dict[str, float]:
    """p50 is the geometric mean over input kinds of each kind's median
    latency, so it does not jump between kinds from run to run; p90 is
    pooled over all ops."""
    pooled = [x for xs in phase.latencies.values() for x in xs]
    medians = [statistics.median(xs) for xs in phase.latencies.values()]
    p50 = math.exp(statistics.fmean(math.log(m) for m in medians))
    p90 = statistics.quantiles(pooled, n=10)[-1] if len(pooled) > 1 \
        else pooled[0]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ops_per_s": phase.ops_per_s, "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3, "setup_s": statistics.median(setup_s),
            "peak_rss_mb": rss_kib / 1024.0}


def timed_setup(name: str, seed: int, workdir: Path):
    """Import witnesslab and build the workload's inputs."""
    t0 = time.perf_counter()
    import witnesslab
    if not Path(witnesslab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported witnesslab from {witnesslab.__file__}, "
                         f"not from {SRC}")
    import workloads
    workload = workloads.build(name, seed, workdir)
    return workload, time.perf_counter() - t0


def setup_in_children(args, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np
    digest = hashlib.sha256()
    for path in sorted((SRC / "witnesslab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"seed": seed, "commit": git_commit(),
            "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one cycle per phase, one set-up sample")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "witnesslab" / "__init__.py").is_file():
        print(f"error: no witnesslab sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:        # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload, setup_s = timed_setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        return measure(args, workload, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup_s: float) -> int:
    smoke = args.smoke
    # One untimed cycle first, so that lazy imports and first-call costs
    # are not charged to the first inputs; its results are checked too.
    warmup = [] if smoke else [run_phase(workload, 0.0, True)]
    if args.trace:
        import layers
        from spans import Recorder, patched

        untraced = run_phase(workload, args.seconds / 2, smoke)
        rec = Recorder()
        with patched(layers.targets(rec)):
            traced = run_phase(workload, args.seconds / 2, smoke, rec)
        phases = (untraced, traced)
        if not all_measured(phases):
            return 1
        calibrate = getattr(workload, "calibrate", None)
        calibration = calibrate(3 if smoke else CALIBRATION_PASSES) \
            if calibrate else {}
        values = layers.metrics(rec, calibration, untraced.ops_per_s,
                                traced.ops_per_s)
        rec.write(OUT / f"{args.workload}.spans.jsonl")
        extra = {"layers": layers.self_times(values)}
    else:
        phase = run_phase(workload, args.seconds, smoke)
        phases = (phase,)
        if not all_measured(phases):
            return 1
        samples = [setup_s]
        if not smoke:
            samples += setup_in_children(args, SETUP_SAMPLES - 1)
        values = end_to_end(phase, samples)
        extra = {"setup_samples_s": samples,
                 "ops": sum(len(xs) for xs in phase.latencies.values()),
                 "input_kinds": len(phase.latencies)}

    attempted = sum(p.attempted for p in warmup + list(phases))
    failed = sum(p.failed for p in warmup + list(phases))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise RuntimeError(f"BENCHMARK.json lists {sorted(units)}, "
                           f"the run measured {sorted(values)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    env = environment(args.seed)
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':<34} {failed / attempted:.6g} ratio")
    for key, value in extra.items():
        print(f"{key} {json.dumps(value)}")
    verdicts = getattr(workload, "verdicts", {})
    print(f"verdicts {json.dumps(verdicts, sort_keys=True)}")
    print(f"environment {json.dumps(env)}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, smoke=smoke, environment=env,
                  verdicts=verdicts, **extra)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
