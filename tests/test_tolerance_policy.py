"""Guard for the tolerance policy.

Every "is this zero?" decision goes through the three cutoffs of
``witnesslab.linalg`` (TOL, EXACT_TOL, RESIDUAL_TOL), and the see-saw
and theorem-1 search keep one named constant each in
``witnesslab.verify``.  The guard reads the sources, so a cutoff written
inline or a ``tol`` parameter added anywhere fails here before it can
drift apart from the others.
"""

import ast
from pathlib import Path

import pytest

from witnesslab import linalg, verify

SRC = Path(linalg.__file__).parent
# name -> (module, value)
POLICY = {
    "TOL": (linalg, 1e-9),
    "EXACT_TOL": (linalg, 1e-12),
    "RESIDUAL_TOL": (linalg, 1e-10),
    "SEESAW_CONVERGENCE": (verify, 1e-12),
    "THEOREM1_SEARCH_MARGIN": (verify, 1e-8),
}
# Floats this small are cutoffs, not data.
CUTOFF_SCALE = 1e-6


def policy_literals(tree):
    """Constant nodes that are the value of a module-level policy name."""
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and all(
                isinstance(t, ast.Name) and t.id in POLICY
                for t in node.targets):
            allowed.update(id(n) for n in ast.walk(node.value))
    return allowed


def small_float_literals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = policy_literals(tree)
    return [f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0.0 < abs(node.value) < CUTOFF_SCALE
            and id(node) not in allowed]


def tol_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
            if "tol" in names:
                found.append(f"{path.name}:{node.lineno}: "
                             f"{getattr(node, 'name', 'lambda')}")
    return found


SOURCES = sorted(SRC.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"linalg.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_inline_cutoffs(path):
    assert small_float_literals(path) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_tol_parameters(path):
    assert tol_parameters(path) == []


@pytest.mark.parametrize("name", sorted(POLICY))
def test_policy_names_hold_documented_values(name):
    module, value = POLICY[name]
    assert getattr(module, name) == value


def test_guard_catches_seeded_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("TOL = 1e-9\n"
                   "def f(x, tol=None):\n"
                   "    return x > 1.0 + 1e-12\n")
    assert small_float_literals(bad) == ["bad.py:3: 1e-12"]
    assert tol_parameters(bad) == ["bad.py:2: f"]
