"""The package's size rule: the code-only line count of ``src/cauchykit/*.py``
stays at or below a pinned bound.

A line counts when it holds a token that is not a comment, a docstring or
layout (newlines, indents). A docstring is a string that is a whole
statement on its own, which in this package is always a module, class or
function docstring. Print the per-module counts with::

    python tests/test_size.py
"""

from __future__ import annotations

import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cauchykit"
BOUND = 1499
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)]
    lines = set()
    for k, t in enumerate(tokens):
        statement_start = k == 0 or tokens[k - 1].type in (tokenize.NEWLINE, tokenize.INDENT,
                                                            tokenize.DEDENT)
        docstring = (t.type == tokenize.STRING and statement_start
                     and tokens[k + 1].type == tokenize.NEWLINE)
        if t.type not in LAYOUT and not docstring:
            lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def counts() -> dict:
    """Module file name -> code-only line count."""
    return {path.name: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_code_lines_within_bound():
    total = sum(counts().values())
    assert total <= BOUND, (
        f"src/cauchykit has {total} code-only lines, over the bound of {BOUND}. A change that "
        "grows the count raises BOUND here and names the trade-off in CHANGES.md.")


def test_docstrings_comments_and_blank_lines_are_not_counted(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""Module\ndocstring."""\n\n# a comment\n\n\ndef f(x):\n'
                    '    """Docstring."""\n    s = """a\nb"""  # a string that is not a docstring\n'
                    '    return (x,\n            s)\n')
    assert code_lines(path) == 5


if __name__ == "__main__":
    table = counts()
    for name, n in table.items():
        print(f"{name:<14} {n:>5}")
    print(f"{'total':<14} {sum(table.values()):>5}  (bound {BOUND})")
