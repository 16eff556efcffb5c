"""The code-line counter of tests/code_lines.py on a small fixture."""

import code_lines

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide the code


# a comment line
def area(r):
    """Docstring."""
    text = """a string
    that is not a docstring"""
    return math.pi * r**2, text
'''


def test_the_counter_leaves_out_blank_comment_and_docstring_lines():
    # counted: the import, the def, the two lines of the string assigned to
    # text, and the return
    assert code_lines.count_code_lines(FIXTURE) == 5


def test_the_counter_reads_files_and_directories(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["5", "1", "6"]
    assert lines[-1].split() == ["6", "total"]
