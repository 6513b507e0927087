"""The package exports the min-matrix names lazily.

``import cauchykit`` leaves :mod:`cauchykit.minmat` unloaded, and the Cauchy
closed forms and the canary load it neither. The first read of ``MinSpec``,
``SortedMinSpec`` or ``UnsortedInputError`` on the package loads it and
keeps the name there. Run in a subprocess under ``python -S``, so that no
site hook or ``.pth`` file loads a module before the import: the names are
the module's own objects, a star import binds every name of ``__all__``,
``dir`` lists them all, and any other name is an ``AttributeError``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cauchykit

LAZY = ("MinSpec", "SortedMinSpec", "UnsortedInputError")

PROBE = """
import json, sys
from fractions import Fraction as F
import cauchykit
from cauchykit import canary, cauchy
for spec in (cauchykit.CauchySpec([F(1, 2), 2, F(7, 3)], [1, F(5, 4), 3], cauchykit.RationalRing()),
             cauchykit.CauchySpec([1, 2, 3], [4, 5, 7], cauchykit.PrimeField(2**31 - 1))):
    cauchy.build(spec), cauchy.det_closed(spec), cauchy.inverse_closed(spec)
    cauchy.inverse_entry_sum(spec), cauchy.adjugate_entry_sum_closed(spec)
    cauchy.bordered_det_closed(spec), cauchy.is_invertible_spec(spec)
canary.run_canary(canary.hilbert_spec(6))
before, listed = "cauchykit.minmat" in sys.modules, dir(cauchykit)
star = {}
if %r == "star":
    exec("from cauchykit import *", star)
lazy = %r
same = [getattr(cauchykit, name) is getattr(sys.modules["cauchykit.minmat"], name) for name in lazy]
kept = [name in vars(cauchykit) for name in lazy]
try:
    cauchykit.nope
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"before": before, "dir": listed, "star": sorted(set(star) - {"__builtins__"}),
                  "same": same, "kept": kept, "missing": missing}))
"""


@pytest.mark.parametrize("first", ("attribute", "star"))
def test_min_names_load_minmat_on_first_use(first):
    src = str(Path(cauchykit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE % (first, LAZY)], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    out = json.loads(proc.stdout)
    assert not out["before"], "import cauchykit, a Cauchy closed form or the canary loaded cauchykit.minmat"
    assert set(cauchykit.__all__) <= set(out["dir"])
    assert out["star"] == (sorted(cauchykit.__all__) if first == "star" else [])
    assert len(cauchykit.__all__) == 17
    assert out["same"] == out["kept"] == [True] * len(LAZY)
    assert out["missing"] == "module 'cauchykit' has no attribute 'nope'"
