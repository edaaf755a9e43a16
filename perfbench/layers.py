"""Layer boundaries of witnesslab and the per-layer metrics read from them.

Each entry of ``targets`` names a function of one module, the module
attribute through which callers reach it, and the layer span it opens.
The probes' per-trial draws are private helpers of ``algebra`` that
``verify`` imports; they are the only way to time that layer from outside.  Callers look these functions up as module globals at call time,
so patching the attribute puts a span around every call, including the
calls one module makes into another (``cli`` into ``linalg``, ``verify``
into ``algebra``).
"""

from __future__ import annotations

import os

from witnesslab import algebra, cli, verify, witnesses

from spans import Recorder, traced

# Layers that report a self time; the smoke test checks that every one of
# them is exercised by at least one workload.
LAYERS = (
    "verify.ew", "verify.qw", "verify.probe",
    "algebra.vertices", "algebra.in_algebra", "algebra.random_element",
    "algebra.classical_state",
    "linalg.save", "linalg.load", "linalg.eigh",
    "witnesses.construct", "cli.main",
)

# Entanglement checks on d_a * d_b <= this are also run through the grid
# oracle, so they are timed apart from the larger ones.
ORACLE_MAX_DIM = 6


def ew_span(args) -> str:
    small = args["d_a"] * args["d_b"] <= ORACLE_MAX_DIM
    return "verify.ew.small" if small else "verify.ew.large"


def targets(rec: Recorder):
    """(module, attribute, wrapper factory) for every layer boundary."""

    def span(name, before=None, after=None):
        return lambda fn: traced(rec, fn, name, before, after)

    def ew_counts(_, report):
        rec.count("verify.ew.restarts", report.restarts_used)
        rec.count("verify.ew.heuristic", int(report.heuristic))

    def qw_counts(args):
        rec.count("verify.qw.sectors", len(algebra.block_layout(args["alg"])))

    def probe_counts(_, report):
        rec.count("verify.probe.trials", report.trials)

    def saved_bytes(args, _):
        rec.count("linalg.save.bytes", os.path.getsize(args["path"]))

    def loaded_bytes(args):
        rec.count("linalg.load.bytes", os.path.getsize(args["path"]))

    def exit_code(_, code):
        rec.count("cli.main.nonzero_exits", int(code != 0))

    ew = span(ew_span, after=ew_counts)
    qw = span("verify.qw", before=qw_counts)
    probe = span("verify.probe", after=probe_counts)
    construct = span("witnesses.construct")
    out = []
    for module in (verify, cli):
        out += [(module, "check_entanglement_witness", ew),
                (module, "check_quantumness_witness", qw),
                (module, "theorem1_probe", probe),
                (module, "classical_lemma_test", probe)]
    out += [
        (verify, "classical_state_vertices", span("algebra.vertices")),
        (algebra, "in_algebra", span("algebra.in_algebra")),
        (verify, "_random_element", span("algebra.random_element")),
        (verify, "_random_block_raw", span("algebra.random_element")),
        (verify, "classical_state", span("algebra.classical_state")),
        (cli, "save_matrix", span("linalg.save", after=saved_bytes)),
        (cli, "load_matrix", span("linalg.load", before=loaded_bytes)),
        (cli, "main", span("cli.main", after=exit_code)),
    ]
    out += [(cli, name, construct)
            for name in ("swap_operator", "bell_chsh",
                         "standard_bell_settings", "qubit_qw",
                         "shifted_swap_factors")]
    # cmd_construct and fig1_scan import these lazily from the module.
    out += [(witnesses, name, construct)
            for name in ("fig1_surfaces", "avr_asymmetric", "avr_symmetric")]
    return out


def metrics(rec: Recorder, calibration: dict, untraced_ops_per_s: float,
            traced_ops_per_s: float) -> dict[str, float]:
    """Per-layer values from one traced run.

    ``busy_s`` is a layer's self time: its spans' durations minus the
    spans of other layers nested inside them.  ``calibration`` holds the
    values measured outside the loop (``verify.ew.restart_ms`` and
    ``linalg.eigh.busy_s``); workloads that do not measure them report 0,
    as they do for every layer they do not call.
    """
    own = rec.self_times()
    calls = rec.calls()
    counts = rec.counts
    probe_s = rec.total_times().get("verify.probe", 0.0)
    values = {
        "verify.ew.calls": calls["verify.ew.small"] + calls["verify.ew.large"],
        "verify.ew.busy_s": (own.get("verify.ew.small", 0.0)
                             + own.get("verify.ew.large", 0.0)),
        "verify.ew.small.busy_s": own.get("verify.ew.small", 0.0),
        "verify.ew.large.busy_s": own.get("verify.ew.large", 0.0),
        "verify.ew.restarts": counts["verify.ew.restarts"],
        "verify.ew.heuristic": counts["verify.ew.heuristic"],
        "verify.ew.restart_ms": calibration.get("verify.ew.restart_ms", 0.0),
        "verify.qw.sectors": counts["verify.qw.sectors"],
        "verify.probe.trials": counts["verify.probe.trials"],
        "verify.probe.trials_per_s": (
            counts["verify.probe.trials"] / probe_s if probe_s else 0.0),
        "linalg.save.bytes": counts["linalg.save.bytes"],
        "linalg.load.bytes": counts["linalg.load.bytes"],
        "linalg.eigh.busy_s": calibration.get("linalg.eigh.busy_s", 0.0),
        "cli.main.nonzero_exits": counts["cli.main.nonzero_exits"],
        "cli.out_bytes": counts["cli.out_bytes"],
        "tracing.overhead": untraced_ops_per_s / traced_ops_per_s - 1.0,
    }
    for layer in ("verify.qw", "verify.probe", "linalg.save", "linalg.load",
                  "witnesses.construct", "cli.main"):
        values[f"{layer}.calls"] = calls[layer]
    for layer in LAYERS:
        values.setdefault(f"{layer}.busy_s", own.get(layer, 0.0))
    return values


def self_times(per_layer: dict[str, float]) -> dict[str, float]:
    """Self time per layer, as listed in LAYERS."""
    return {layer: per_layer[f"{layer}.busy_s"] for layer in LAYERS}
