import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", _SCRIPT)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)


def test_counts_code_lines_only(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('''"""Module docstring
over two lines."""

# a comment
x = (1,
     2)  # trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Method docstring."""
        return """not a docstring
spanning two lines"""
''')
    # x = (1, / 2), class A:, def f, and the two-line return string.
    assert count_code_lines.count_code_lines(source) == 6
