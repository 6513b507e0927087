"""Two boundaries between the package's modules.

The integer-pair kernel stays inside :mod:`cauchykit.cauchy`. Read with
``ast``: no module but ``cauchy`` reads a spec's ``_int_pairs``, none imports
a private ``cauchy`` name other than the entry helper ``_entries``, and
``minmat`` imports nothing from ``cauchy`` at all. A name counts as imported
from ``cauchy`` whether it comes by ``from .cauchy import`` or as an
attribute of the module bound by ``from . import cauchy``.

The closed forms load no oracle code. Read with ``ast``: ``__init__``,
``matrix``, ``cauchy``, ``minmat`` and ``canary`` import nothing from
``densela``, but for the one import inside ``matrix._oracle``. Run in a
subprocess: the closed forms and the canary leave ``cauchykit.densela``
unloaded, and the first oracle method on a matrix loads it. The names that
``densela`` re-exports from ``matrix`` are the same objects."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cauchykit
from cauchykit import densela, matrix

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cauchykit"
ENTRY_HELPER = "_entries"
OTHERS = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "cauchy.py")
WITHOUT_ORACLES = ("__init__.py", "canary.py", "cauchy.py", "matrix.py", "minmat.py")


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


def _names_densela(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return (node.module in ("cauchykit.densela", "densela" if node.level else None)
                or node.module in (None, "cauchykit") and any(a.name == "densela" for a in node.names))
    return isinstance(node, ast.Import) and any(a.name == "cauchykit.densela" for a in node.names)


def densela_imports(source: str) -> list:
    """For each import of ``densela`` in ``source``, the name of the function
    it sits in (the outermost one), or None at module level."""
    tree = ast.parse(source)
    scope = {}
    for fn in ast.walk(tree):  # breadth first: outer functions come first
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                scope.setdefault(node, fn.name)
    return [scope.get(node) for node in ast.walk(tree) if _names_densela(node)]


@pytest.mark.parametrize("name", WITHOUT_ORACLES)
def test_closed_forms_import_no_oracle_code(name):
    assert densela_imports(source(name)) == (["_oracle"] if name == "matrix.py" else [])


@pytest.mark.parametrize("text, scopes", (
    ("from .densela import Matrix", [None]),
    ("from cauchykit.densela import _eliminate", [None]),
    ("from . import densela as d", [None]),
    ("import cauchykit.densela", [None]),
    ("def f():\n    from . import densela\n    return densela", ["f"]),
    ("from . import ring\nfrom .dense import x", []),
), ids=("relative", "absolute", "module", "import", "in-function", "others"))
def test_the_oracle_reading_sees_each_way_in(text, scopes):
    assert densela_imports(text) == scopes


CLOSED_FORMS = """
import json, sys
from fractions import Fraction as F
import cauchykit
from cauchykit import canary, cauchy, minmat
for spec in (cauchykit.CauchySpec([F(1, 2), 2, F(7, 3)], [1, F(5, 4), 3], cauchykit.RationalRing()),
             cauchykit.CauchySpec([1, 2, 3], [4, 5, 7], cauchykit.PrimeField(2**31 - 1))):
    cauchy.build(spec), cauchy.det_closed(spec), cauchy.inverse_closed(spec)
    cauchy.inverse_entry_sum(spec), cauchy.adjugate_entry_sum_closed(spec)
    cauchy.bordered_det_closed(spec), cauchy.is_invertible_spec(spec)
s = minmat.normalize(cauchykit.MinSpec([5, 1, 3], [2, 6, 4]))
minmat.det_closed(s), minmat.det_zero_predicate(s)
minmat.inverse_entry_sum(s), minmat.inverse_column_sums(s)
canary.run_canary(canary.hilbert_spec(6))
before = "cauchykit.densela" in sys.modules
det = cauchy.build(spec).det_fast() == cauchy.det_closed(spec)
print(json.dumps([before, "cauchykit.densela" in sys.modules, det]))
"""


def test_closed_forms_never_load_the_oracle_layer():
    # -S keeps site (and any .pth file) from loading modules before the import
    src = str(Path(cauchykit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", CLOSED_FORMS], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    before, after, det = json.loads(proc.stdout)
    assert not before, "a closed form or the canary loaded cauchykit.densela"
    assert after and det, "Matrix.det_fast did not load the oracle layer"


@pytest.mark.parametrize("name", ("Matrix", "ShapeError", "SizeLimitError", "WeightVectors"))
def test_moved_names_are_one_object_everywhere(name):
    assert getattr(cauchykit, name) is getattr(densela, name) is getattr(matrix, name)
    assert getattr(matrix, name).__module__ == "cauchykit.matrix"


def test_densela_re_exports_the_cofactor_guard():
    assert densela.COFACTOR_MAX is matrix.COFACTOR_MAX
