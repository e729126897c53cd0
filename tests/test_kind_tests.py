"""Where the package tests a model's kind.

The four families differ only in their circulant factors, so most code
reads ``model.factors`` or the field table and never asks for the kind.
This test walks the package's source and lists every place that does: a
comparison with a ``Kind`` member or a ``.kind`` attribute, or a ``Kind``
member used as a table key.  The list is pinned, so a new kind test
fails here and a removed one must be struck from it (and from ROADMAP
item 10's list).
"""

import ast

from source_walk import sites

# (module, top-level name) of each place allowed to test the kind: the
# grammar's field table alone
KIND_TESTS = {("topology", "_KIND_FIELDS")}


def _is_kind_member(node) -> bool:
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "Kind"


def _tests_kind(node) -> bool:
    if isinstance(node, ast.Compare):
        return any(
            _is_kind_member(sub) or (isinstance(sub, ast.Attribute) and sub.attr == "kind")
            for sub in ast.walk(node)
        )
    return isinstance(node, ast.Dict) and any(_is_kind_member(key) for key in node.keys)


def test_kind_is_tested_only_in_the_pinned_places():
    assert sites(_tests_kind) == KIND_TESTS


def test_the_walk_sees_each_form_of_kind_test():
    forms = [
        "def f(m):\n    return m.kind is Kind.TORUS",
        "def f(m):\n    return m.kind.value == 'torus'",
        "def f(m):\n    return m.kind in (Kind.RING, Kind.TORUS)",
        "TABLE = {Kind.RING: 1}",
    ]
    for form in forms:
        assert any(_tests_kind(node) for node in ast.walk(ast.parse(form))), form
    assert not any(_tests_kind(node) for node in ast.walk(ast.parse("m = ring(4, Kind.RING)")))
