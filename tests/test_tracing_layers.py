"""The benchmark's layer tracer patches cauchykit functions by name; a name
that no longer resolves makes ``tracing.install`` raise AttributeError, so
every traced benchmark run would fail. Load the tracer as it is and check
that each of its names still resolves."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("modname, attr, layer", load_tracing().LAYERS)
def test_layer_names_resolve(modname, attr, layer):
    mod = importlib.import_module(f"cauchykit.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert inspect.isfunction(vars(getattr(mod, cls_name))[meth])
    elif attr.endswith("*"):
        assert any(inspect.isfunction(v) for k, v in vars(mod).items() if k.startswith(attr[:-1]))
    else:
        assert inspect.isfunction(getattr(mod, attr))
