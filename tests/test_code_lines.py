"""The code-line counter of ``tools/code_lines.py``: blank lines, comment
lines and module, class and function docstrings are not code; every other
line, a string that is not a docstring included, is."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from code_lines import code_lines  # noqa: E402

SOURCE = '''"""Module
docstring."""

import os  # a trailing comment


# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
        that is not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_only_code_lines():
    # import, class, def, the two lines of the string, the two of the return
    assert code_lines(SOURCE) == 7


def test_a_module_without_code_has_none():
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
