import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Eight code lines: the import, `def`, both lines of the bracketed sum,
# `return`, `class` and both lines of the string that is not a docstring.
FIXTURE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# A comment line.


def f(x):
    """A function docstring."""
    # Another comment.
    total = (x +
             1)
    return total


class C:
    """A class docstring
    of two lines."""

    text = """a string
that is not a docstring"""
'''


def test_counts_code_lines_without_blanks_comments_or_docstrings():
    assert code_lines.code_lines(FIXTURE) == 8


def test_prints_a_count_per_file_and_the_total(tmp_path, capsys):
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    paths[0].write_text(FIXTURE)
    paths[1].write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(p) for p in paths]) == 0
    assert capsys.readouterr().out.splitlines() == [f"     8 {paths[0]}", f"     1 {paths[1]}", "     9 total"]
