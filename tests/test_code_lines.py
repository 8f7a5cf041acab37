"""tools/code_lines.py counts code lines without docstrings, comments or
blank lines."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import code_lines  # noqa: E402

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    x = 1


def f(a,
      b):
    """Function docstring."""
    text = """a string that is
not a docstring"""
    return (a +
            b)
'''


def test_code_lines_counts_code_only():
    # import, class, x = 1, def (two lines), text (two lines), return (two lines)
    assert code_lines.code_lines(SOURCE) == 9
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_code_lines_main_prints_files_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "sub" / "b.py")],
        ["10", "total"],
    ]
