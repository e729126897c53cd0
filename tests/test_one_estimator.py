"""Where the package measures a trace's late-window contraction.

The paper checks a derived rate against the contraction the iteration
shows: the geometric mean of the last error-norm ratios.  The package
has one estimate of it, ``SimulationTrace.empirical_factor``, over the
last ``DEFAULT_WINDOW`` steps.  This test walks the package's source and
pins the single place that calls the estimator, so a second route with
its own window cannot creep in beside the trace's factor.
"""

import ast
import importlib

import consensus_spectra
from source_walk import SRC

# (module, qualified name) of each place that calls the estimator
CALLERS = {("simulate", "SimulationTrace.empirical_factor")}

ERRORS = {
    "ConsensusSpectraError",
    "ParameterError",
    "DegenerateError",
    "UnsupportedParityError",
    "DivergenceError",
}


def _calls_estimator(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "_late_window_factor") or (
        isinstance(func, ast.Attribute) and func.attr == "_late_window_factor"
    )


def _callers(tree) -> set:
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif _calls_estimator(child):
                found.add(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return found


def call_sites() -> set:
    return {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _callers(ast.parse(path.read_text()))
    }


def test_only_the_trace_calls_the_estimator():
    assert call_sites() == CALLERS


def test_no_second_route_or_its_error():
    modules = [consensus_spectra] + [
        importlib.import_module(f"consensus_spectra.{path.stem}")
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    ]
    for module in modules:
        assert not hasattr(module, "empirical_contraction"), module.__name__
        assert not hasattr(module, "InsufficientDataError"), module.__name__


def test_errors_defines_exactly_the_five_classes():
    tree = ast.parse((SRC / "errors.py").read_text())
    assert {node.name for node in tree.body if isinstance(node, ast.ClassDef)} == ERRORS


def test_the_walk_sees_each_form_of_call():
    forms = {
        "_late_window_factor(e, 5)": "<module>",
        "def f(t):\n    return simulate._late_window_factor(t, 5)": "f",
        "class T:\n    @property\n    def g(self):\n        return _late_window_factor(self.e, 5)": "T.g",
        "def f(t):\n    def g():\n        return h(_late_window_factor(t, 5))\n    return g": "f.g",
    }
    for form, scope in forms.items():
        assert _callers(ast.parse(form)) == {scope}, form
    assert _callers(ast.parse("def _late_window_factor(e, w):\n    return late(e, w)")) == set()
