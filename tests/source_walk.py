"""The walk the structure pins share: every top-level statement of the
package's modules, named by the scope it defines.

A pin passes a node test to ``sites`` and compares the (module, name)
pairs it returns with its table, so code that moves between scopes
shows up as a changed table.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "consensus_spectra"


def scope_name(statement) -> str:
    """A function's or class's name, an assignment's targets, else the
    statement's first line."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return statement.name
    if isinstance(statement, ast.Assign):
        return ",".join(ast.unparse(target) for target in statement.targets)
    return ast.unparse(statement).splitlines()[0]


def sites(test) -> set:
    """(module, scope name) of each top-level statement holding a node
    that passes ``test``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            if any(test(node) for node in ast.walk(statement)):
                found.add((path.stem, scope_name(statement)))
    return found
