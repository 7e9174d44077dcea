"""The repository's code-line counter, tools/code_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line does not
class Box:
    """Class docstring."""

    def size(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return len(
            text
        )


"""A string after the first statement is no docstring."""
'''


def test_counts_code_lines_only():
    # import, class, def, text (2 lines), return (3 lines), the last string
    assert code_lines.code_lines(SOURCE) == 9


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Doc."""\ny = [\n    2,\n]\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     1  a.py", "     3  sub/b.py", "     4  total", ""]
