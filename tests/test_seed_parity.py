"""Seed parity of the randomized probes and of random algebra elements.

``data/probe_seed_parity.json`` holds reports and matrices recorded from
the trial-by-trial implementation of the probes (commit c0078c2) on five
algebras at fixed seeds.  The cases include trial counts past one
evaluation block, searches that find their witness on a later trial and
one that falls back to the fixed qubit pair.  A seed must keep giving the
same draws, so counts, verdicts and matrices match exactly and the minima
match to rounding.  The file is the reference for the current code: never
regenerate it from the current code.  Its ``"platform"`` entry names the
numpy build it was recorded on; a failing pin quotes it next to the
running build.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from platform_pin import build_note

from witnesslab.algebra import (_random_block_raw, _random_element,
                                random_algebra_element)
from witnesslab.cli import parse_algebra
from witnesslab.linalg import matrix_to_json
from witnesslab.verify import (PROBE_BLOCK, classical_lemma_test,
                               theorem1_probe)

PINNED = json.loads(
    (Path(__file__).parent / "data" / "probe_seed_parity.json").read_text())
BUILD = build_note(PINNED)
PROBES = {"lemma": classical_lemma_test, "theorem1": theorem1_probe}
ALGEBRAS = sorted({case["alg"] for case in PINNED["elements"]})

EXACT = ("kind", "algebra", "trials", "violations", "passed", "seed",
         "commutative", "witness_found", "fallback_used",
         "witness_x", "witness_y")
MINIMA = ("witness_lambda_min", "min_anticommutator_expectation",
          "min_cross_term")
# Minima are sums over a trial's entries; stacking may reorder them.
MINIMA_REL = 1e-12
# |tr(rho XY) - tr(rho C^dag C)| is itself a rounding residual.
RESIDUAL_ABS = 1e-12


def case_id(case):
    return f"{case['probe']}-{case['alg']}-t{case['trials']}-s{case['seed']}"


def test_pinned_cases_cover_blocks_and_fallback():
    cases = PINNED["probes"]
    for probe in PROBES:
        assert any(case["probe"] == probe and case["trials"] > PROBE_BLOCK
                   for case in cases)
    assert any(case["report"]["fallback_used"] for case in cases)


@pytest.mark.parametrize("case", PINNED["probes"], ids=case_id)
def test_probe_report_matches_pinned(case):
    expected = case["report"]
    report = PROBES[case["probe"]](parse_algebra(case["alg"]),
                                   case["trials"], seed=case["seed"])
    got = json.loads(json.dumps(report.to_json()))
    assert set(got) == set(expected)
    for key in EXACT:
        assert got[key] == expected[key], f"{key}; {BUILD}"
    for key in MINIMA:
        if expected[key] is None:
            assert got[key] is None, f"{key}; {BUILD}"
        else:
            assert got[key] == pytest.approx(expected[key], rel=MINIMA_REL,
                                             abs=0.0), f"{key}; {BUILD}"
    if expected["max_identity_residual"] is None:
        assert got["max_identity_residual"] is None, BUILD
    else:
        assert 0.0 <= got["max_identity_residual"] <= RESIDUAL_ABS, BUILD


@pytest.mark.parametrize("text", ALGEBRAS)
def test_random_algebra_element_matches_pinned(text):
    for case in PINNED["elements"]:
        if case["alg"] == text:
            m = random_algebra_element(parse_algebra(text), case["seed"],
                                       case["positive"])
            assert matrix_to_json(m) == case["matrix"], (BUILD, case)


@pytest.mark.parametrize("text", ALGEBRAS)
def test_stacked_draw_equals_sequential_draws(text):
    alg = parse_algebra(text)
    stacked = _random_block_raw(alg, np.random.default_rng(5), (3, 2))
    rng = np.random.default_rng(5)
    sequential = [[_random_block_raw(alg, rng) for _ in range(2)]
                  for _ in range(3)]
    assert np.array_equal(stacked, np.array(sequential))
    positive = _random_element(alg, np.random.default_rng(5), True, (3, 2))
    assert np.array_equal(positive, stacked.conj().swapaxes(-1, -2) @ stacked)
