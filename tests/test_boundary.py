"""The integer-pair kernel stays inside :mod:`cauchykit.cauchy`.

Read with ``ast``: no module but ``cauchy`` reads a spec's ``_int_pairs``,
none imports a private ``cauchy`` name other than the entry helper
``_entries``, and ``minmat`` imports nothing from ``cauchy`` at all. A name
counts as imported from ``cauchy`` whether it comes by ``from .cauchy import``
or as an attribute of the module bound by ``from . import cauchy``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cauchykit"
ENTRY_HELPER = "_entries"
OTHERS = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "cauchy.py")


def _is_cauchy(node: ast.ImportFrom) -> bool:
    return node.module in ("cauchykit.cauchy", "cauchy" if node.level else None)


def uses(source: str) -> tuple[set, set]:
    """The names ``source`` takes from ``cauchy``, and the attributes it reads."""
    tree = ast.parse(source)
    taken, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_cauchy(node):
            taken.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "cauchykit"):
            for alias in node.names:
                if alias.name == "cauchy":
                    taken.add("cauchy")
                    modules.add(alias.asname or "cauchy")
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    taken |= {node.attr for node in reads if isinstance(node.value, ast.Name) and node.value.id in modules}
    return taken, {node.attr for node in reads}


def source(name: str) -> str:
    return (PACKAGE / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", OTHERS)
def test_only_cauchy_reads_the_kept_pairs(name):
    assert "_int_pairs" not in uses(source(name))[1]


@pytest.mark.parametrize("name", OTHERS)
def test_only_the_entry_helper_leaves_cauchy(name):
    private = {n for n in uses(source(name))[0] if n.startswith("_")}
    assert private <= {ENTRY_HELPER}, private


def test_minmat_imports_nothing_from_cauchy():
    assert not uses(source("minmat.py"))[0]


@pytest.mark.parametrize("text, taken, reads_pairs", (
    ("from .cauchy import CauchySpec, _sums", {"CauchySpec", "_sums"}, False),
    ("from cauchykit.cauchy import _entries", {"_entries"}, False),
    ("from . import cauchy as c\nc._uppers(v, 0)", {"cauchy", "_uppers"}, False),
    ("from . import densela\ndef f(spec):\n    return spec._int_pairs", set(), True),
), ids=("relative", "absolute", "module-attribute", "kept-pairs"))
def test_the_reading_sees_each_way_in(text, taken, reads_pairs):
    names, attrs = uses(text)
    assert names == taken
    assert ("_int_pairs" in attrs) == reads_pairs
