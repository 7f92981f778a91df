"""The benchmark's tracer wraps `als` functions by name: each must exist.

`bench/tracer.py` looks every (module, function) of SPANNED and COUNTED up
with getattr when a traced pass starts, so a renamed or deleted function
would fail every traced benchmark run.  This test fails first.
"""

import importlib
import runpy
from pathlib import Path

import pytest

# run from source, so nothing is cached next to the benchmark
TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))


@pytest.mark.parametrize("mod_name, fn_name", TRACER["SPANNED"] + TRACER["COUNTED"], ids=lambda v: v)
def test_traced_function_resolves(mod_name, fn_name):
    assert callable(getattr(importlib.import_module(f"als.{mod_name}"), fn_name))
