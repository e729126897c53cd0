"""Where the package checks a model, a consensus h and a ``--vary`` range's length.

Each rule has one checker, in the layer that owns it.  A model is checked
when it is built, so no function re-checks a built one.  ``run_consensus``
owns the rule that h is positive and finite; ``verify_consensus`` reports
its ParameterError as a trial note instead of screening h itself.  The
``--vary`` loop's guard is the one test of ``_MAX_RANGE_POINTS``.  This
test walks the package's source and pins each, so a second checker
cannot creep in beside the first.
"""

import ast
import importlib

import consensus_spectra
from source_walk import SRC, sites

# (module, top-level name) of each place allowed to test an h
H_CHECKS = {("simulate", "run_consensus")}


def _is_h(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "h") or (
        isinstance(node, ast.Attribute) and node.attr == "h"
    )


def _tests_h(node) -> bool:
    """A call of ``isfinite`` on an h, or a comparison of an h with 0."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == "isfinite" and any(map(_is_h, node.args))
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return any(map(_is_h, operands)) and any(
            isinstance(sub, ast.Constant) and sub.value == 0 for sub in operands
        )
    return False


def _reads_cap(node) -> bool:
    return isinstance(node, ast.Compare) and any(
        isinstance(sub, ast.Name) and sub.id == "_MAX_RANGE_POINTS" for sub in ast.walk(node)
    )


def test_no_module_defines_or_exports_validate():
    defines = sites(lambda node: isinstance(node, ast.FunctionDef) and node.name == "validate")
    assert defines == set()
    modules = [consensus_spectra] + [
        importlib.import_module(f"consensus_spectra.{path.stem}")
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    ]
    assert [module.__name__ for module in modules if hasattr(module, "validate")] == []


def test_only_run_consensus_tests_h():
    assert sites(_tests_h) == H_CHECKS


def test_the_range_cap_is_compared_once():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert sum(_reads_cap(node) for tree in trees for node in ast.walk(tree)) == 1


def test_the_walk_sees_each_form_of_h_test():
    forms = [
        "def f(h):\n    return h > 0 and math.isfinite(h)",
        "def f(d):\n    return not math.isfinite(d.h)",
        "def f(d):\n    return d.h <= 0.0",
        "def f(h):\n    return 0 < h",
        "def f(h):\n    return np.isfinite(h)",
    ]
    for form in forms:
        assert any(_tests_h(node) for node in ast.walk(ast.parse(form))), form
    for other in ["def f(t):\n    return t > 0 and math.isfinite(t)", "def f(h):\n    return h < 1"]:
        assert not any(_tests_h(node) for node in ast.walk(ast.parse(other))), other
