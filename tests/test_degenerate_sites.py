"""Where the package raises and catches DegenerateError.

The paper's pair design solves |1 - h*l_s| = |1 - h*l_l|, which has no
nonzero solution when the two moduli coincide (the 3-node ring).  That
equation is the one thing that can be degenerate: the pair exists for
every model and so does the minimax design.  This test walks the
package's source and pins the single place that raises the error and
the single place that catches it, so a second refusal cannot creep in
beside the solve.
"""

import ast

from source_walk import sites

# (module, top-level name) of each place that raises or catches it
RAISERS = {("design", "solve_h_pair")}
CATCHERS = {("cli", "_design")}


def _names_degenerate(node) -> bool:
    return any(
        (isinstance(sub, ast.Name) and sub.id == "DegenerateError")
        or (isinstance(sub, ast.Attribute) and sub.attr == "DegenerateError")
        for sub in ast.walk(node)
    )


def _raises(node) -> bool:
    return isinstance(node, ast.Raise) and node.exc is not None and _names_degenerate(node.exc)


def _catches(node) -> bool:
    return (
        isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and _names_degenerate(node.type)
    )


def test_only_the_equal_modulus_solve_raises():
    assert sites(_raises) == RAISERS


def test_only_the_design_command_catches():
    assert sites(_catches) == CATCHERS


def test_the_walk_sees_each_form():
    raising = [
        "raise DegenerateError('x')",
        "raise errors.DegenerateError",
        "raise DegenerateError from None",
    ]
    for form in raising:
        assert any(_raises(node) for node in ast.walk(ast.parse(form))), form
    catching = [
        "try:\n    f()\nexcept DegenerateError:\n    pass",
        "try:\n    f()\nexcept (A, DegenerateError) as e:\n    pass",
    ]
    for form in catching:
        assert any(_catches(node) for node in ast.walk(ast.parse(form))), form
    other = ast.parse("try:\n    f()\nexcept ParameterError:\n    raise ParameterError('x')")
    assert not any(_raises(node) or _catches(node) for node in ast.walk(other))
