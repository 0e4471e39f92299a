"""The benchmark's tracer (``bench/tracing.py``) wraps program functions by
name, so renaming or inlining one breaks ``bench/run.py --trace 1``; every
name it lists must still be where it looks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("home, attr", [entry[:2] for entry in tracing.FUNCTIONS])
def test_traced_function_is_an_attribute_of_its_home_module(home, attr):
    assert callable(getattr(importlib.import_module(home), attr, None))


@pytest.mark.parametrize("home, cls_name, method", [entry[:3] for entry in tracing.METHODS])
def test_traced_method_is_in_its_class_dict(home, cls_name, method):
    cls = getattr(importlib.import_module(home), cls_name)
    assert callable(vars(cls).get(method))
