"""Where the package reaches the closed-form catalog.

The catalog's h and rate entries are defined only where the model's pair
design exists: the odd-ring entries are 0/0 on the 3-node ring, and
their rounding noise there is no consensus parameter.  So the entries
are reached through one table, ``_CATALOG``, the table is read by one
function, ``design._catalog``, and that function takes the pipeline
design its caller already holds.  This test walks the package's source
and pins those places, so a second catalog entry point cannot come back
beside them.
"""

import ast

from source_walk import sites

# (module, top-level name) of each place that reads the table, names an
# entry, or evaluates the catalog
TABLE_READERS = {("design", "_catalog")}
ENTRY_NAMERS = {("design", "_CATALOG")}
CATALOG_CALLERS = {("design", "closed_form_R"), ("design", "closed_design")}


def _is_entry(name: str) -> bool:
    return name.startswith(("_h_", "_R_"))


def _loads(node, test) -> bool:
    if isinstance(node, ast.Name):
        return isinstance(node.ctx, ast.Load) and test(node.id)
    return isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and test(node.attr)


def loaders(test) -> set:
    return sites(lambda node: _loads(node, test))


def test_only_the_catalog_function_reads_the_table():
    assert loaders(lambda name: name == "_CATALOG") == TABLE_READERS


def test_only_the_table_names_an_entry():
    assert loaders(_is_entry) == ENTRY_NAMERS


def test_only_the_closed_routes_evaluate_the_catalog():
    assert loaders(lambda name: name == "_catalog") == CATALOG_CALLERS


def test_the_walk_sees_each_form():
    reads = ["x = _CATALOG[case]", "x = design._CATALOG", "def f():\n    return _CATALOG.get(c)"]
    for form in reads:
        tree = ast.parse(form)
        assert any(_loads(node, lambda n: n == "_CATALOG") for node in ast.walk(tree)), form
    # defining the table is no read of it
    tree = ast.parse("_CATALOG = {'ring-even': (_h_ring_even, _R_ring_even, None)}")
    assert not any(_loads(node, lambda n: n == "_CATALOG") for node in ast.walk(tree))
    assert any(_loads(node, _is_entry) for node in ast.walk(tree))
