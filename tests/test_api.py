"""The exported API is pinned: ``cauchykit.__all__`` and the public names of
each exported class, inherited ones included. A refactor that moves a method
to a base class keeps these names; one that drops or renames a public member
fails here. Names every exception inherits from ``Exception`` (``args``,
``with_traceback`` and, from Python 3.11, ``add_note``) are left out, so the
pins do not depend on the Python version."""

import pytest

import cauchykit

EXCEPTION = frozenset(dir(Exception))
RING = ["cmp", "coerce", "inv", "inv_all", "is_invertible", "is_ordered", "kind", "one", "parse",
        "render", "zero"]
PUBLIC = {
    "CauchyKitError": [],
    "ContextMismatchError": [],
    "FpElement": ["p", "value"],
    "NotInvertibleError": [],
    "PrimeField": sorted(RING + ["p"]),
    "RationalRing": RING,
    "UnorderedRingError": [],
    "Matrix": ["adjugate", "adjugate_entry_sum", "charpoly", "cols", "column", "column_sum", "ctx",
               "det_berkowitz", "det_cofactor", "det_fast", "entries", "entry", "entry_sum",
               "from_rows", "identity", "inverse", "is_square", "row", "rows", "to_rows", "trace",
               "transpose"],
    "ShapeError": [],
    "SizeLimitError": [],
    "WeightVectors": ["xs", "ys"],
    "CauchySpec": ["ctx", "n", "weight_sum", "xs", "ys"],
    "InvertibilityVerdict": ["invertible", "witness"],
    "NonInvertiblePairSumError": [],
    "MinSpec": ["n", "xs", "ys"],
    "SortedMinSpec": ["n", "swapped", "xs", "ys"],
    "UnsortedInputError": [],
}


def public_names(cls):
    """``dir(cls)`` without underscore names."""
    return sorted({a for a in dir(cls) if not a.startswith("_")} - EXCEPTION)


def test_all_is_pinned():
    assert cauchykit.__all__ == list(PUBLIC)


@pytest.mark.parametrize("name", list(PUBLIC))
def test_public_names_are_pinned(name):
    assert public_names(getattr(cauchykit, name)) == PUBLIC[name]
