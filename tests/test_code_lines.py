"""The code-line counter that CHANGES.md and ROADMAP.md cite for src/gdr."""
import subprocess
import sys
from pathlib import Path

from code_lines import code_lines, count

HERE = Path(__file__).resolve().parent

SAMPLE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment


# a comment line
def f(x):
    """One-line docstring."""
    "a bare string statement"
    y = (
        x + 1
    )
    return f"{y}" + """a
multi-line string that is a value"""


class C:
    """Docstring."""

    z = 1
'''


def test_sample_counts_only_code():
    # import, def, the three lines of y, the two of return, class, z
    assert code_lines(SAMPLE) == 9


def test_blank_comment_and_docstring_only_sources_have_no_code():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_command_line_prints_the_count_of_a_tree(tmp_path):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert count(tmp_path) == 10
    result = subprocess.run(
        [sys.executable, str(HERE / "code_lines.py"), str(tmp_path)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "10\n"
