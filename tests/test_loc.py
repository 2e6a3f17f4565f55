import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parent.parent / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment

# a comment line


def area(r):
    """A function docstring."""
    return (math.pi
            * r * r)


TEXT = """a string
that is not a docstring"""
'''


def test_count_skips_blank_lines_comments_and_docstrings():
    # import, def, the two lines of the return and the two of TEXT
    assert loc.count_lines(FIXTURE) == 6


def test_count_of_each_module_and_total_without_main(tmp_path, capsys):
    (tmp_path / "shapes.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "__main__.py").write_text("from .shapes import area\n\narea(1)\n",
                                          encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "__main__.py 2\nshapes.py 6\ntotal 6\n"
