"""scripts/code_lines.py: the code-line count of the package's modules."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SNIPPET = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a string that is not a docstring
    spans two lines"""

    def f(self):
        """Function docstring,
        over two lines."""
        return (1,
                2)


def g(): "one-line docstring"; return os.sep


async def h():
    """Coroutine docstring."""
    "a second string is not a docstring"
'''


def _script():
    return runpy.run_path(str(ROOT / "scripts" / "code_lines.py"))


def test_code_lines_of_a_fixed_snippet():
    # import, class, x (two lines), def f, return (two lines), def g (its
    # docstring shares the line with code), async def h and the second
    # string of h
    assert _script()["code_lines"](_SNIPPET) == 10


def test_code_lines_counts_each_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "src" / "nullsl2"
    package.mkdir(parents=True)
    (package / "a.py").write_text(_SNIPPET)
    (package / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    (package / "notes.txt").write_text("x = 1\n")
    assert _script()["main"](["--tree", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "10"], ["b.py", "1"], ["total", "11"]]
