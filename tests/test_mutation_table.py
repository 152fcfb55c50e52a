"""The mutation table of scripts/mutation_check.py matches the source.

Only the table is checked here; the mutation runs themselves take
minutes and stay outside tier 1.  A refactor that moves or rewrites a
snippet fails this test, so no row is skipped in silence.
"""

import importlib.util
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "mutation_check", _REPO / "scripts" / "mutation_check.py")
mutation_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutation_check)


@pytest.mark.parametrize("row", mutation_check.MUTATIONS,
                         ids=[m.name for m in mutation_check.MUTATIONS])
def test_each_snippet_occurs_once_in_src(row):
    text = (_REPO / "src" / row.path).read_text()
    assert text.count(row.snippet) == 1
    assert row.replacement != row.snippet and row.tests
    for test in row.tests:
        path, _, name = test.partition("::")
        assert f"def {name}(" in (_REPO / path).read_text(), test


def test_row_names_are_distinct():
    names = [m.name for m in mutation_check.MUTATIONS]
    assert len(set(names)) == len(names)
